"""The verify report against the committed benchmark references.

`perfbench/references.json` holds the check records (without `elapsed_ms`)
that the benchmark's verify-default, shuffle-deep and tate-series workloads
must reproduce, and the sha256 of each zeta-partial request's printed value.
These tests run the same parameters and compare record for record, so a
change to any status, witness, achieved valuation or truncated zeta value
shows up in Tier-1 before it reaches the benchmark.  They only read the
references.
"""

import hashlib
import json
import sys
from pathlib import Path

from carlitz import checks
from carlitz.ffield import FieldContext
from carlitz.mzv import partial_zeta
from carlitz.powersums import SeqCache
from carlitz.textio import format_tpoly, parse_matrix_data

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import (SHUFFLE_IDS, SHUFFLE_PARAMS, ZETA_MENU,  # noqa: E402
                                 request_key)

REFERENCES = ROOT / "perfbench" / "references.json"
TATE_IDS = ("eq-annals", "family-qk", "strange-shuffle", "thakur-thm5")


def reference(workload):
    return json.loads(REFERENCES.read_text())["full"][workload]


def records(reports):
    out = {}
    for r in reports:
        rec = r.as_record()
        del rec["elapsed_ms"]
        out[rec["id"]] = rec
    return out


def test_default_suite_matches_the_reference():
    assert records(checks.run_suite("all", d_max=2)) == reference("verify-default")


def test_deep_shuffle_checks_match_the_reference():
    # each check with its own pool, as the shuffle-deep workload runs them
    reports = [checks.run_check(cid, **SHUFFLE_PARAMS) for cid in SHUFFLE_IDS]
    assert records(reports) == reference("shuffle-deep")


def test_tate_checks_match_the_reference():
    reports = [checks.run_check(cid, qs=(3,), prec=160) for cid in TATE_IDS]
    assert records(reports) == reference("tate-series")


def test_zeta_partial_requests_match_the_reference():
    budget = checks.DEFAULT_PARAMS["budget"]
    digests = {}
    for q, data, d, mode in ZETA_MENU:
        ctx = FieldContext(q)
        value = partial_zeta(SeqCache(ctx, budget=budget), d,
                             parse_matrix_data(ctx, data), mode=mode)
        digests[request_key(q, data, d, mode)] = hashlib.sha256(
            format_tpoly(value).encode()).hexdigest()
    assert digests == reference("zeta-partial")
