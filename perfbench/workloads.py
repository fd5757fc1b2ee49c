"""The four benchmark workloads, run in-process by `worker.py`.

Each workload is a closed loop with one caller: an operation (one registry
check, or one zeta-partial request) starts when the previous one returns.
Why each workload exists:

- verify-default: what `carlitz verify --d-max 2` runs, the whole registry
  at the default profile with degrees capped at 2.  Most of its time is in
  the packed kernel under the enumeration oracles and the Frobenius
  expansions: `kdivmod`, and `unpack` over F_4.
- shuffle-deep: the 14 per-degree shuffle checks at the deep profile with
  degrees capped at 5, each with its own pool, as `carlitz verify --suite
  <id> --profile deep --d-max 5` runs them.  The packed kernel works through
  multiplication, not division; this is where `RawTPoly` and the
  `ShuffleEngine` memo show.
- zeta-partial: `carlitz partial` requests, each with a fresh context and
  cache.  Normalized `RatK`/`TPoly` arithmetic, dominated by `kgcd`.
- tate-series: the four valuation-threshold checks at q = 3 and precision
  160.  Almost all of it is `tate.py` itself, so it is the no-change control
  for kernel work.

Every operation's output is compared with `references.json`: check records
without `elapsed_ms`, and the sha256 of the `format_tpoly` text of each
zeta-partial request.
"""

import hashlib
import random
import time
from types import SimpleNamespace

# module attributes, not names imported from them, so that the tracer's
# patches (spans.py) apply to the benchmark's own calls too
from carlitz import checks, mzv, textio
from carlitz.ffield import FieldContext
from carlitz.powersums import SeqCache

# the field sizes whose contexts each workload builds in set-up
FIELDS = {"verify-default": (3, 4), "shuffle-deep": (3, 4, 5),
          "zeta-partial": (3, 4, 5), "tate-series": (3,)}

SHUFFLE_IDS = ("thm-formulas-1", "thm-formulas-2", "thm-formulas-3",
               "thm-formulas-4", "thm-formulas-5", "eq-Fsfirst", "eq-formulabis",
               "eq-formulater", "eq-lastone", "lemma-alemma", "remark-trivial",
               "remark-nu", "thakur-thm1", "star-bridge")
TATE_IDS = ("eq-annals", "family-qk", "thakur-thm5", "strange-shuffle")

# Sizes: a pass of each workload takes 2-4 s on a 2-core Xeon, so that a
# run of `run_seconds` holds several passes and each operation's fastest
# time can be taken (see run.py).
VERIFY_PARAMS = {"d_max": 2}                    # default profile otherwise
SHUFFLE_PARAMS = {"profile": "deep", "d_max": 5}
TATE_PARAMS = {"qs": (3,), "prec": 160}

# zeta-partial requests: (q, matrix data, d, mode).  The menu is fixed; the
# seed only fixes the order in which the requests are made.
ZETA_MENU = (
    (3, "t1:1,1:1", 7, "strict"),
    (3, "t1:1,1:1", 7, "star"),
    (3, "1:2,1:1", 8, "strict"),
    (3, "1:2,1:1", 7, "star"),
    (3, "t1*t2:1,1:1", 6, "strict"),
    (3, "t1:2,1:1", 7, "strict"),
    (3, "1:1,1:1,1:1", 7, "strict"),
    (4, "t1:1,t2:1", 5, "strict"),
    (4, "t1*t2:1,1:1", 5, "star"),
    (4, "1:3,1:1", 5, "strict"),
    (5, "t1:1,t2:1", 5, "strict"),
    (5, "1:4,1:1", 5, "strict"),
)

# smoke mode: every workload at toy size, for the benchmark's own tests
SMOKE_D_MAX = 1
SMOKE_PREC = 40
SMOKE_ZETA = tuple((q, data, min(d, SMOKE_D_MAX), mode)
                   for q, data, d, mode in (ZETA_MENU[0], ZETA_MENU[7]))


def zeta_requests(seed, smoke=False):
    menu = list(SMOKE_ZETA if smoke else ZETA_MENU)
    random.Random(seed).shuffle(menu)
    return menu


def request_key(q, data, d, mode):
    return f"q={q} d={d} {mode} {data}"


def check_record(report):
    """A check's report record without its timing field."""
    rec = report.as_record()
    del rec["elapsed_ms"]
    return rec


def _check_calls(workload, smoke):
    """(key, thunk) per check operation of a check workload."""
    if workload == "shuffle-deep":
        ids, params = SHUFFLE_IDS, SHUFFLE_PARAMS
        if smoke:
            params = dict(params, d_max=SMOKE_D_MAX)
    else:
        ids, params = TATE_IDS, TATE_PARAMS
        if smoke:
            params = dict(params, prec=SMOKE_PREC)
    return [(cid, lambda cid=cid: checks.run_check(cid, **params)) for cid in ids]


def _zeta_request(q, data, d, mode):
    ctx = FieldContext(q)
    cache = SeqCache(ctx, budget=checks.DEFAULT_PARAMS["budget"])
    value = mzv.partial_zeta(cache, d, textio.parse_matrix_data(ctx, data), mode=mode,
                             budget=checks.DEFAULT_PARAMS["budget"])
    return textio.format_tpoly(value)


def run_pass(workload, seed, smoke=False):
    """One pass over the workload's operations.

    Returns (seconds, ops), where each op is a dict with its key, its
    seconds, and either its output (`out`) or the exception it raised
    (`error`).  Seconds are CPU seconds of the calling thread, which equal
    wall seconds for a process that has its CPU to itself.
    """
    clock = time.thread_time
    ops = []
    if workload == "verify-default":
        params = VERIFY_PARAMS
        if smoke:
            params = dict(params, d_max=SMOKE_D_MAX, prec=SMOKE_PREC)
        # a check's `elapsed_ms` comes from `checks.time.perf_counter`
        checks_time, checks.time = checks.time, SimpleNamespace(perf_counter=clock)
        t0 = clock()
        try:
            reports = checks.run_suite("all", **params)
        except Exception as exc:  # every check of the suite counts as failed
            return clock() - t0, [{"key": "run_suite", "s": clock() - t0,
                                   "error": f"{type(exc).__name__}: {exc}"}]
        finally:
            checks.time = checks_time
        wall = clock() - t0
        ops = [{"key": r.id, "s": r.elapsed_ms / 1000, "out": check_record(r)}
               for r in reports]
        if sum(op["s"] for op in ops) > wall * 1.01:
            raise RuntimeError("check times exceed the pass's CPU time: "
                               "`checks` no longer times with checks.time.perf_counter")
        return wall, ops
    if workload == "zeta-partial":
        calls = [(request_key(*req), lambda req=req: _zeta_request(*req))
                 for req in zeta_requests(seed, smoke)]
    elif workload in ("shuffle-deep", "tate-series"):
        calls = _check_calls(workload, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    t_start = clock()
    for key, call in calls:
        t0 = clock()
        try:
            result = call()
        except Exception as exc:  # an operation that raises counts as failed
            ops.append({"key": key, "s": clock() - t0,
                        "error": f"{type(exc).__name__}: {exc}"})
            continue
        elapsed = clock() - t0
        if workload == "zeta-partial":
            out = hashlib.sha256(result.encode()).hexdigest()
        else:
            out = check_record(result)
        ops.append({"key": key, "s": elapsed, "out": out})
    return clock() - t_start, ops
