"""The verify report against the committed benchmark references.

`perfbench/references.json` holds the check records (without `elapsed_ms`)
that the benchmark's verify-default and tate-series workloads must
reproduce.  These tests run the same parameters and compare record for
record, so a change to any status, witness or achieved valuation shows up
in Tier-1 before it reaches the benchmark.
"""

import json
from pathlib import Path

from carlitz import checks

REFERENCES = Path(__file__).resolve().parents[1] / "perfbench" / "references.json"
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


def test_tate_checks_match_the_reference():
    reports = [checks.run_check(cid, qs=(3,), prec=160) for cid in TATE_IDS]
    assert records(reports) == reference("tate-series")
