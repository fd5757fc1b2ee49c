import json

import pytest

from carlitz import checks, shuffle
from carlitz.errors import CarlitzError, InvalidParams, UnknownCheck

GOLDEN_MANIFEST = [
    "cor-TAOD",
    "cor-noncommide",
    "eq-Fdq",
    "eq-Fsfirst",
    "eq-annals",
    "eq-e1",
    "eq-e2",
    "eq-e3",
    "eq-f2",
    "eq-f3",
    "eq-formulabis",
    "eq-formulater",
    "eq-lastone",
    "family-qk",
    "lemma-alemma",
    "lemma-tau-b",
    "necklace-bound",
    "prop4",
    "remark-nu",
    "remark-trivial",
    "star-bridge",
    "star-chain",
    "strange-shuffle",
    "thakur-thm1",
    "thakur-thm5",
    "thm-exactdegree",
    "thm-formulaBG",
    "thm-formulas-1",
    "thm-formulas-2",
    "thm-formulas-3",
    "thm-formulas-4",
    "thm-formulas-5",
]


def test_registry_matches_golden_manifest():
    assert sorted(checks.REGISTRY) == GOLDEN_MANIFEST


def test_run_check_single():
    rep = checks.run_check("eq-Fsfirst", qs=(3,), d_max=4)
    assert rep.status == "pass"
    assert rep.id == "eq-Fsfirst"
    assert rep.params["qs"] == (3,)


def test_exactdegree_witness():
    rep = checks.run_check("thm-exactdegree", qs=(3,), d_max=2)
    assert rep.status == "pass"


def test_unknown_check_and_bad_params():
    with pytest.raises(UnknownCheck):
        checks.run_check("no-such-check")
    with pytest.raises(InvalidParams):
        checks.run_check("eq-e1", bogus=1)
    with pytest.raises(InvalidParams):
        checks.run_check("eq-e1", qs=(2,))
    with pytest.raises(InvalidParams):
        checks.run_suite("all", profile="weird")


def test_suite_glob():
    reports = checks.run_suite("thm-formulas-*", qs=(3,), d_max=3)
    assert [r.id for r in reports] == [f"thm-formulas-{i}" for i in (1, 2, 3, 4, 5)]
    assert all(r.status == "pass" for r in reports)


def test_suite_no_match_is_success():
    reports = checks.run_suite("no-match-*")
    assert reports == []
    assert checks.all_passed(reports)


def test_exit_code_policy():
    def reps(*statuses):
        return [checks.CheckReport(f"c{i}", {}, s) for i, s in enumerate(statuses)]
    assert checks.exit_code(reps()) == 0
    assert checks.exit_code(reps("pass", "pass")) == 0
    assert checks.exit_code(reps("pass", "skipped")) == 0
    assert checks.exit_code(reps("skipped")) == 1
    assert checks.exit_code(reps("skipped", "skipped")) == 1
    assert checks.exit_code(reps("pass", "fail")) == 1
    assert checks.exit_code(reps("skipped", "fail")) == 1


def test_failures_recorded_not_raised():
    # a registry entry whose runner explodes must yield a fail report
    boom = checks.CheckSpec("boom", "exact-finite", "always fails",
                            lambda pool, params: (_ for _ in ()).throw(
                                CarlitzError("expected failure")))
    pool = checks._Pool(1000)
    rep = boom.run(pool, checks.DEFAULT_PARAMS)
    assert rep.status == "fail"
    assert "expected failure" in rep.witness


def test_reports_deterministic_modulo_timing():
    a = checks.run_suite("eq-e1", qs=(3,), d_max=2)
    b = checks.run_suite("eq-e1", qs=(3,), d_max=2)
    strip = lambda reports: [
        {k: v for k, v in r.as_record().items() if k != "elapsed_ms"}
        for r in reports]
    assert strip(a) == strip(b)


def test_report_formats():
    reports = checks.run_suite("eq-e1", qs=(3,), d_max=1)
    doc = json.loads(checks.reports_to_json(reports))
    assert doc["all_passed"] is True
    assert doc["checks"][0]["id"] == "eq-e1"
    nd = checks.reports_to_ndjson(reports)
    assert json.loads(nd.splitlines()[0])["status"] == "pass"
    csv_text = checks.reports_to_csv(reports)
    assert csv_text.splitlines()[0].startswith("id,status")
    text = checks.reports_to_text(reports)
    assert "1/1 passed" in text


def test_eq_fsfirst_runs_the_per_degree_form():
    # its own computation, not thm-formulas-2's truncated product
    assert checks._PER_DEGREE["eq-Fsfirst"][0] is shuffle.per_degree_single
    rep = checks.run_check("eq-Fsfirst", profile="deep", d_max=5)
    assert (rep.status, rep.witness) == ("pass", "18 cases exact")
