"""Acceptance suite: the package's exit criteria, one test per criterion.

Every criterion is exactness-based except the series identities, which
carry an explicit valuation threshold (25).  Each test prints one
pass/fail line; run with `pytest tests/test_acceptance.py -s` to see them.
"""

import json
import time

import pytest

from carlitz import checks
from carlitz.cli import main as cli_main
from carlitz.ffield import FieldContext
from carlitz.mzv import bernoulli_goss
from carlitz.poly import APoly
from carlitz.powersums import SeqCache

_POOL = checks._Pool(budget=checks.DEFAULT_PARAMS["budget"])


def _run(check_id, **params):
    return checks.run_check(check_id, pool=_POOL, **params)


def _report(num, title, ok, detail=""):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {title}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_closed_vs_bruteforce():
    t0 = time.time()
    reports = [_run(cid, qs=(3, 4), d_max=4)
               for cid in ("eq-e1", "eq-e2", "eq-e3", "eq-f2", "eq-f3")]
    elapsed = time.time() - t0
    ok = all(r.status == "pass" for r in reports) and elapsed < 30
    _report(1, "weight-1/2 closed forms equal enumeration, q in {3,4}, d <= 4",
            ok, f"{elapsed:.1f}s < 30s")


def test_criterion_02_q_variable_product_form():
    rep = _run("eq-Fdq", qs=(3,), d_max=3)
    _report(2, "q-variable product form equals enumerated partial sum, q=3, d <= 3",
            rep.status == "pass", rep.witness)


def test_criterion_03_product_identities_exact():
    ids = ("thm-formulas-1", "thm-formulas-2", "thm-formulas-3",
           "thm-formulas-4", "thm-formulas-5", "eq-Fsfirst", "eq-formulabis",
           "eq-formulater", "eq-lastone")
    reports = [_run(cid, qs=(3, 4, 5), d_max=5) for cid in ids]
    _report(3, "all five product identities exact per degree, q in {3,4,5}, d <= 5",
            all(r.status == "pass" for r in reports))


def test_criterion_04_frobenius_expansions():
    tau_b = _run("lemma-tau-b", qs=(3,), d_max=8)      # runs d <= 8 at q = 3
    prop4 = _run("prop4", qs=(3, 4), d_max=5)          # n <= 3 at q = 3, d <= 5
    noncomm = _run("cor-noncommide", qs=(3, 4), d_max=4)
    ok = all(r.status == "pass" for r in (tau_b, prop4, noncomm))
    _report(4, "Frobenius expansion d <= 8; iterated version n <= 3, d <= 5; "
               "skew closed form 1 <= d <= 4 (d = 0 excluded by design)", ok)


def test_criterion_05_bg_formula():
    rep = _run("thm-formulaBG", qs=(3, 4), d_max=4)
    ctx = FieldContext(3)
    anchor = bernoulli_goss(SeqCache(ctx), 7).value
    th = APoly.theta(ctx)
    ok = rep.status == "pass" and anchor == th ** 3 + 2 * th + 1
    _report(5, "finite zeta sums equal the closed double sum (q=3 d<=4, q=4 d<=3)",
            ok, "anchor value at n=7 verified")


def test_criterion_06_degree_formula():
    rep = _run("thm-exactdegree", qs=(3, 4, 5), d_max=5)
    _report(6, "degree formula exact on {3}x{1..5} and {4,5}x{1..3}, "
               "with the block-degree comparisons", rep.status == "pass",
            rep.witness)


def test_criterion_07_congruences_and_counts():
    taod = _run("cor-TAOD", qs=(3, 4), d_max=4)
    neck = _run("necklace-bound", qs=(3, 4), d_max=4)
    _report(7, "congruences mod every irreducible (q=3 d<=4, q=4 d<=3), "
               "vanishing bound and necklace counts",
            taod.status == "pass" and neck.status == "pass")


def test_criterion_08_star_and_weight_q():
    star_chain = _run("star-chain", qs=(3, 4), d_max=5)
    star_bridge = _run("star-bridge", qs=(3, 4), d_max=5)
    thakur = _run("thakur-thm1", qs=(3, 4), d_max=5)
    ok = all(r.status == "pass" for r in (star_chain, star_bridge, thakur))
    _report(8, "skew/star chain and the weight-q product, exact, d <= 5, q in {3,4}",
            ok)


def test_criterion_09_series_identities_threshold_25():
    ids = ("eq-annals", "family-qk", "thakur-thm5", "strange-shuffle")
    reports = [_run(cid, qs=(3,), prec=25) for cid in ids]
    ok = all(r.status == "pass" for r in reports)
    detail = ", ".join(f"{r.id}: val {r.achieved_valuation}" for r in reports)
    _report(9, "series identities hold beyond valuation 25 at q = 3", ok, detail)


def test_criterion_10_remark_identities():
    nu = _run("remark-nu", qs=(3,), d_max=5)
    triv = _run("remark-trivial", qs=(3,), d_max=5)
    _report(10, "degree-character shuffle (with t := 1 specialization) and the "
                "difference identity, exact, d <= 5",
            nu.status == "pass" and triv.status == "pass")


def test_criterion_11_full_default_suite(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    t0 = time.time()
    code = cli_main(["verify", "--suite", "all", "--format", "json",
                     "--out", str(out_path)])
    elapsed = time.time() - t0
    doc = json.loads(out_path.read_text())
    # determinism: a second run produces identical records modulo timing
    reports2 = checks.run_suite("all")
    strip = lambda recs: [{k: v for k, v in r.items() if k != "elapsed_ms"}
                          for r in recs]
    same = strip(doc["checks"]) == strip(
        json.loads(checks.reports_to_json(reports2))["checks"])
    ok = code == 0 and doc["all_passed"] and elapsed < 120 and same
    _report(11, "default verify suite exits 0, deterministic", ok,
            f"{elapsed:.1f}s < 120s, {len(doc['checks'])} checks")
