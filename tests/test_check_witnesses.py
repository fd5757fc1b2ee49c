"""Exact witness texts of failing checks.

Each test breaks one computation a check calls, through the name the
check module looks it up by, and pins the whole report: the status, the
witness (which failures are named, in which order, and the over-budget
tail) and the achieved valuation.
"""

from types import SimpleNamespace

from carlitz import checks
from carlitz._rawfrac import RawTPoly
from carlitz.errors import CarlitzError


def outcome(rep):
    return rep.status, rep.witness, rep.achieved_valuation


def test_per_degree_failure_names_each_degree(monkeypatch):
    monkeypatch.setattr(RawTPoly, "equals", lambda self, other: False)
    rep = checks.run_check("thm-formulas-1", qs=(3,), d_max=1)
    assert outcome(rep) == (
        "fail", "q=3 d=0: sides differ; q=3 d=1: sides differ", None)


def test_tau_b_joins_the_first_four_failures(monkeypatch):
    monkeypatch.setattr(checks, "tau_b_expand", lambda cache, n, d: (
        RawTPoly.one(cache.ctx, 1), RawTPoly.zero(cache.ctx, 1)))
    rep = checks.run_check("lemma-tau-b", qs=(3,), d_max=2)
    # q = 3 runs d = 0..8; only the first four failures are named
    assert outcome(rep) == (
        "fail", "q=3 d=0: expansion differs; q=3 d=1: expansion differs; "
                "q=3 d=2: expansion differs; q=3 d=3: expansion differs", None)


def test_closed_form_failure_prints_both_values(monkeypatch):
    enumerate_sum = checks.power_sum_bruteforce
    monkeypatch.setattr(checks, "power_sum_bruteforce",
                        lambda cache, d, k, sigma: -enumerate_sum(cache, d, k, sigma))
    rep = checks.run_check("eq-e2", qs=(3,), d_max=1)
    assert outcome(rep) == (
        "fail", "q=3 d=0: closed 1 != enumerated 2; q=3 d=1: closed "
                "1/(θ^2 + 2) + (2/(θ^3 + 2*θ))*t1 != enumerated "
                "2/(θ^2 + 2) + (1/(θ^3 + 2*θ))*t1", None)


def test_formula_bg_failure_keeps_the_over_budget_tail(monkeypatch):
    monkeypatch.setattr(checks, "bernoulli_goss",
                        lambda cache, n: SimpleNamespace(value=f"B{n}"))
    monkeypatch.setattr(checks, "bg_formula_rhs", lambda cache, d: f"R{d}")
    rep = checks.run_check("thm-formulaBG", qs=(3,), budget=30)
    assert outcome(rep) == (
        "fail", "q=3 d=1: 'B1' != 'R1'; q=3 d=2: 'B7' != 'R2'; "
                "over budget: q=3 d=3, q=3 d=4", None)


def test_formula_bg_pass_keeps_the_over_budget_tail():
    rep = checks.run_check("thm-formulaBG", qs=(3,), budget=30)
    assert outcome(rep) == (
        "pass", "2 cases exact; over budget: q=3 d=3, q=3 d=4", None)


def test_noncommide_records_a_raised_error(monkeypatch):
    def frak_S(cache, d, n):
        if n == 2:
            raise CarlitzError(f"no sum at d={d}")
    monkeypatch.setattr(checks, "frak_S", frak_S)
    rep = checks.run_check("cor-noncommide", qs=(3,), d_max=2)
    assert outcome(rep) == (
        "fail", "q=3 n=2 d=1: no sum at d=1; q=3 n=2 d=2: no sum at d=2", None)


def test_family_qk_below_threshold(monkeypatch):
    def family(cache, k, prec):
        achieved = float("inf") if k == 1 else 7
        return {"achieved": achieved, "threshold": prec,
                "passed": achieved > prec}
    monkeypatch.setattr(checks.tate, "family_qk_check", family)
    rep = checks.run_check("family-qk", qs=(3, 4))
    assert outcome(rep) == ("fail", "1 below threshold; worst achieved 7 vs 25", 7)


def test_annals_specialization_failure(monkeypatch):
    monkeypatch.setattr(checks.tate, "annals_check", lambda cache, prec: {
        "achieved": 31, "threshold": prec, "passed": True,
        "value_at_theta_is_one": True, "trivial_zero_vanishes": False})
    rep = checks.run_check("eq-annals", qs=(3,))
    assert outcome(rep) == ("fail", "specialization sub-checks failed", 31)


def test_closed_form_checks_name_grid_points_over_budget():
    # q=4 d=4 enumerates 256 monics, over a budget of 100; the cases below
    # it still run, and star-chain's frak_S(k < d) stops at q^(d-1)
    for cid in ("eq-e1", "eq-e2", "eq-e3", "eq-f2", "eq-f3"):
        rep = checks.run_check(cid, budget=100)
        assert outcome(rep) == ("pass", "9 cases exact; over budget: q=4 d=4", None)
    rep = checks.run_check("star-chain", budget=100)
    assert outcome(rep) == ("pass", "9 cases exact; over budget: q=4 d=5", None)
