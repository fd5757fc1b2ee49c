"""Names, units and directions of every metric the benchmark reports.

`BENCHMARK.json` at the repository root lists the same metrics; the
benchmark's own test keeps the two in step.  Metric names cannot start
with an underscore, so the layers `_packed` and `_rawfrac` appear as
`packed` and `rawfrac`.

Which end-to-end metric each layer metric should move, written down before
any change is measured against it:

- packed.kdivmod.*, packed.kpow.*, powersums.power_sum_bruteforce.*,
  skew.frak_S*, poly.enumerate_monics.yielded: wall_s and max_op_s on
  verify-default; flat on tate-series.
- packed.{kmul,unpack,pack}.*, rawfrac.*, shuffle.*: wall_s on shuffle-deep;
  flat on tate-series.
- packed.kgcd.*, poly.RatK.norm.*, tpoly.*, mzv.*, textio.*: wall_s on
  zeta-partial; flat on shuffle-deep, which never normalizes.
- tate.*: wall_s on tate-series; flat on verify-default and shuffle-deep.
- ffield.self_s: setup_s everywhere.
- memo sizes: peak_rss_mb.

`checks.cases` must never fall: a speed-up that runs fewer cases is not one.
"""

WORKLOADS = ("verify-default", "shuffle-deep", "zeta-partial", "tate-series")

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("wall_s", "s", "lower", 0.1),
    ("setup_s", "s", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_frac", "frac", "higher", 0.01),
    ("max_op_s", "s", "lower", 0.1),
]

# span name prefixes, i.e. the carlitz modules that get a self-time row
MODULES = ["ffield", "packed", "poly", "tpoly", "rawfrac", "powersums", "mzv",
           "shuffle", "skew", "tate", "checks", "textio"]

# span name -> which of calls / time (".s") are reported
SPAN_METRICS = [
    ("packed.kmul", ("calls", "s")),
    ("packed.kdivmod", ("calls", "s")),
    ("packed.kgcd", ("calls", "s")),
    ("packed.kpow", ("calls", "s")),
    ("packed.pack", ("calls", "s")),
    ("packed.unpack", ("calls", "s")),
    ("poly.RatK.norm", ("calls", "s")),
    ("poly.APoly.mul", ("calls", "s")),
    ("poly.irreducibles_of_degree", ("s",)),
    ("tpoly.TPoly.mul", ("calls", "s")),
    ("tpoly.TPoly.add", ("calls", "s")),
    ("rawfrac.RawTPoly.mul", ("calls", "s")),
    ("rawfrac.RawTPoly.add", ("calls", "s")),
    ("rawfrac.RawTPoly.equals", ("calls", "s")),
    ("powersums.power_sum_bruteforce", ("calls", "s")),
    ("powersums.power_sum", ("calls",)),
    ("powersums.power_sum_closed", ("s",)),
    ("powersums.tau_b_expand", ("s",)),
    ("skew.frak_S", ("calls",)),
    ("skew.frak_S_bruteforce", ("calls", "s")),
    ("skew.star_chain_check", ("s",)),
    ("mzv.partial_zeta", ("s",)),
    ("mzv.multi_power_sum", ("calls", "s")),
    ("mzv.bernoulli_goss", ("s",)),
    ("mzv.bg_congruence_survey", ("s",)),
    ("shuffle.ShuffleEngine.S", ("calls", "s")),
    ("shuffle.ShuffleEngine.Smulti", ("calls",)),
    ("shuffle.ShuffleEngine.Fmulti", ("calls",)),
    ("tate.TateSeries.mul", ("calls", "s")),
    ("tate.TateSeries.add", ("calls", "s")),
    ("tate.TateSeries.from_ratk", ("calls", "s")),
    ("tate.TateSeries.invert_unit", ("calls", "s")),
    ("tate.zeta_series", ("calls", "s")),
    ("textio.format_tpoly", ("s",)),
]

# work counters recorded by the tracer
COUNTERS = ["packed.kmul.slots", "packed.kdivmod.qslots", "packed.kgcd.slots",
            "powersums.power_sum_bruteforce.monics", "powersums.power_sum.enum_route",
            "poly.enumerate_monics.yielded"]

# every registry check id, for the per-check time rows
CHECK_IDS = [
    "cor-TAOD", "cor-noncommide", "eq-Fdq", "eq-Fsfirst", "eq-annals", "eq-e1",
    "eq-e2", "eq-e3", "eq-f2", "eq-f3", "eq-formulabis", "eq-formulater",
    "eq-lastone", "family-qk", "lemma-alemma", "lemma-tau-b", "necklace-bound",
    "prop4", "remark-nu", "remark-trivial", "star-bridge", "star-chain",
    "strange-shuffle", "thakur-thm1", "thakur-thm5", "thm-exactdegree",
    "thm-formulaBG", "thm-formulas-1", "thm-formulas-2", "thm-formulas-3",
    "thm-formulas-4", "thm-formulas-5",
]

GRID_TIMES = ["packed.grid.kmul.q3.n8192_s", "packed.grid.kmul.q4.n8192_s",
              "packed.grid.kdivmod.q3.n8192_s", "packed.grid.kdivmod.q4.n8192_s",
              "packed.grid.kgcd.q3.n2048_s", "packed.grid.kgcd.q4.n2048_s",
              "packed.grid.pack.q4.n8192_s", "packed.grid.unpack.q4.n8192_s"]
GRID_RATIOS = ["packed.grid.kdivmod_over_kmul.q3.n8192",
               "packed.grid.kdivmod_over_kmul.q4.n8192"]


def _per_layer():
    rows = [(f"{m}.self_s", "s", "lower") for m in MODULES]
    for span, kinds in SPAN_METRICS:
        for kind in kinds:
            rows.append((f"{span}.{kind}", "count" if kind == "calls" else "s", "lower"))
    rows += [(name, "count", "lower") for name in COUNTERS]
    rows += [(f"checks.{cid}.s", "s", "lower") for cid in CHECK_IDS]
    rows.append(("checks.cases", "count", "higher"))
    rows += [(name, "s", "lower") for name in GRID_TIMES]
    rows += [(name, "ratio", "lower") for name in GRID_RATIOS]
    rows.append(("trace.overhead_s", "s", "lower"))
    rows.append(("src.lines", "lines", "lower"))
    return rows


PER_LAYER = _per_layer()
