import math
import random

import pytest

from carlitz import powersums, tate
from carlitz.checks import run_check
from carlitz.errors import (ArityMismatch, BudgetExceeded, NonConvergent, NotAUnit,
                            PrecisionInsufficient)
from carlitz.ffield import FieldContext
from carlitz.mzv import MatrixData, partial_zeta
from carlitz.poly import APoly, RatK
from carlitz.powersums import SemiChar, SeqCache, closed_form, power_sum
from carlitz.tate import (TateSeries, annals_check, family_qk_check,
                          omega_factor, pi_factor, strange_shuffle_check,
                          thakur_weight_check, valuation_identity_check,
                          zeta_series)
from carlitz.textio import parse_matrix_data

INF = math.inf


def test_from_ratk_examples(ctx3):
    th = APoly.theta(ctx3)
    s = TateSeries.from_ratk(RatK(APoly.one(ctx3), th - th ** 3), 9)
    assert s.terms == {-3: {(): 2}, -5: {(): 2}, -7: {(): 2}, -9: {(): 2}}
    assert s.prec == 9
    exact = TateSeries.from_ratk(RatK.from_apoly(th ** 2 + 1), 30)
    assert exact.terms == {0: {(): 1}, 2: {(): 1}}
    assert TateSeries.from_ratk(RatK.zero(ctx3), 10).terms == {}


def closed_cases(ctx):
    """(form, n, sigma) for every closed form: "kql" at the orders k q^m
    with k in {1, q - 1} and m in {0, 1}, "gen" at q + 1, never k q^m,
    "qn" at q and q^2."""
    q = ctx.q
    triv, chi = SemiChar.trivial(ctx, 0), SemiChar.chi(ctx, 1, 1)
    two = SemiChar(ctx, 2, varis=(1, 2))
    return ([("kql", n, triv) for n in (1, q - 1, q, (q - 1) * q)] + [("gen", q + 1, triv)]
            + [("e2", 1, chi), ("f2", 2, chi), ("qn", q, chi), ("qn", q * q, chi),
               ("e3", 1, two), ("f3", 2, two)])


def embedded_normalized(x, prec):
    """The series of a TPoly, the normalized form of a RawTPoly: each K
    coefficient expanded by `from_ratk`, times its t-monomial."""
    ctx, s = x.ctx, x.s
    total = TateSeries.zero(ctx, s, prec)
    for exps, coef in x.terms.items():
        term = TateSeries.from_ratk(coef, prec, s)
        for i, e in enumerate(exps, 1):
            term = term * TateSeries.variable(ctx, s, i) ** e
        total = total + term
    return total


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_raw_embedding_matches_the_normalized_one(q):
    # the valuation checks expand closed forms at q = 3 only, so no verify
    # report reaches `from_raw` over F_(p^e)
    cache = SeqCache(FieldContext(q))
    for form, n, sigma in closed_cases(cache.ctx):
        assert closed_form(q, n, sigma) == form
        for d in range(4):
            x = power_sum(cache, d, n, sigma)
            normalized = x.to_tpoly()
            # below n d the series is empty to the precision
            for prec in sorted({max(0, n * d - 1), n * d, n * d + 1, n * d + 6,
                                n * d + 17, n * d + 40}):
                assert TateSeries.from_raw(x, prec) == embedded_normalized(normalized, prec), \
                    (form, n, d, prec)


def test_embedding_is_multiplicative(ctx3):
    rng = random.Random(19)
    for _ in range(10):
        def rand_ratk():
            num = APoly(ctx3, [rng.randrange(3) for _ in range(rng.randint(0, 5))])
            den = APoly.zero(ctx3)
            while den.is_zero():
                den = APoly(ctx3, [rng.randrange(3) for _ in range(rng.randint(1, 5))])
            return RatK(num, den)
        x, y = rand_ratk(), rand_ratk()
        sx, sy = TateSeries.from_ratk(x, 25), TateSeries.from_ratk(y, 25)
        direct = TateSeries.from_ratk(x * y, 25)
        diff = sx * sy - direct
        assert diff.valuation() > diff.prec


def test_precision_rules(ctx3):
    a = TateSeries.one(ctx3, 0, 10)
    b = TateSeries.one(ctx3, 0, 5)
    assert (a + b).prec == 5
    assert (a * b).prec == 5           # both unit valuation 0
    shifted = TateSeries(ctx3, 0, {3: {(): 1}}, 10)   # valuation -3
    # error of b times theta^3 dominates: 5 + (-3) beats 10 + 0
    assert (b * shifted).prec == 2


def test_invert_unit(ctx3):
    one = TateSeries.one(ctx3, 1, 12)
    f = one - TateSeries(ctx3, 1, {-1: {(1,): 1}}, 12)
    g = f.invert_unit()
    assert (f * g - one).valuation() == INF
    # geometric series coefficients
    assert g.terms[-3] == {(3,): 1}
    with pytest.raises(NotAUnit):
        TateSeries(ctx3, 1, {0: {(1,): 1}}, 10).invert_unit()
    with pytest.raises(NotAUnit):
        TateSeries.zero(ctx3, 0, 10).invert_unit()


def test_arity_checks(ctx3):
    with pytest.raises(ArityMismatch):
        TateSeries.one(ctx3, 0, 5) + TateSeries.one(ctx3, 1, 5)
    lifted = TateSeries.one(ctx3, 0, 5).lift_arity(2)
    assert lifted.s == 2


def test_invert_matches_geometric_expansion(ctx3):
    # the inverse of 1 - theta^(1-q) is the geometric series in theta^(1-q)
    prec = 20
    f = TateSeries.one(ctx3, 0, prec) - TateSeries(ctx3, 0, {-2: {(): 1}}, prec)
    inv = f.invert_unit()
    geo = TateSeries.zero(ctx3, 0, prec)
    k = 0
    while 2 * k <= prec:
        geo = geo + TateSeries(ctx3, 0, {-2 * k: {(): 1}}, prec)
        k += 1
    assert (inv - geo).valuation() == INF


def test_exact_identity_embeds_consistently(cache3):
    # an exact per-degree identity stays an identity after embedding: both
    # evaluation paths (exact polynomials vs truncated series) agree fully
    ctx = cache3.ctx
    chi = SemiChar.chi(ctx, 1, 1)
    triv = SemiChar.trivial(ctx, 1)
    d = 3
    lhs = partial_zeta(cache3, d, MatrixData(ctx, [(chi, 1)]), raw=True) * \
        partial_zeta(cache3, d, MatrixData(ctx, [(triv, 1)], s=1), raw=True)
    rhs = partial_zeta(cache3, d, MatrixData(ctx, [(chi, 1), (triv, 1)]), raw=True) + \
        partial_zeta(cache3, d, MatrixData(ctx, [(chi, 2)]), raw=True)
    assert lhs.equals(rhs)
    le = TateSeries.from_raw(lhs, 30)
    re = TateSeries.from_raw(rhs, 30)
    assert le == re and le.valuation() != INF


def test_pi_factor(ctx3):
    assert pi_factor(ctx3, 2).terms == {0: {(): 1}, -2: {(): 1}}
    assert pi_factor(ctx3, 0).terms == {0: {(): 1}}
    # truncation stability: recomputing at higher precision agrees below
    lo = pi_factor(ctx3, 10)
    hi = pi_factor(ctx3, 16)
    diff = lo - hi.truncate(10)
    assert diff.valuation() > 10


def test_omega_factor(ctx3):
    om = omega_factor(ctx3, 12)
    assert om.terms[0] == {(0,): 1}
    # t-coefficient valuations are at least the t-degree
    for k, poly in om.terms.items():
        for e in poly:
            assert -k >= e[0]
    # coefficient of t^1: theta^(-1) + theta^(-3) + theta^(-9) + ...
    t1_exps = {k for k, poly in om.terms.items() if (1,) in poly}
    assert t1_exps == {-1, -3, -9}


def test_zeta_series_values(cache3):
    ctx = cache3.ctx
    z1 = zeta_series(cache3, MatrixData.untwisted(ctx, (1,)), 9)
    assert z1.terms == {0: {(): 1}, -3: {(): 2}, -5: {(): 2}, -7: {(): 2},
                        -9: {(): 2}}
    assert zeta_series(cache3, MatrixData(ctx, []), 7).terms == {0: {(): 1}}


@pytest.mark.parametrize("q", [3, 4, 5])
def test_degree_character_zeta_equals_the_enumeration_route(q, monkeypatch):
    # a degree character factors out of a closed form as t_k^d, so the
    # series of nu-twisted data, like those of the untwisted order q + 1,
    # come from `closed_raw`, which enumerates nothing (no `monic_sum` runs,
    # and a budget of q + 1 covers the recursion to order q + 1); the same
    # values summed over monics must agree
    ctx = FieldContext(q)
    for text in ("nu1:1", "nu1:2", "nu1*t2:1,1:1", f"1:{q + 1}", f"1:1,1:{q + 1}"):
        data = parse_matrix_data(ctx, text)
        with monkeypatch.context() as mp:
            mp.setattr(tate, "monic_sum", None)
            closed = zeta_series(SeqCache(ctx, budget=q + 1), data, 40)
        with monkeypatch.context() as mp:
            mp.setattr(tate, "closed_form", lambda q, n, sigma: None)
            with pytest.raises(BudgetExceeded):
                zeta_series(SeqCache(ctx, budget=1), data, 40)
            enumerated = zeta_series(SeqCache(ctx), data, 40)
        assert closed == enumerated and closed.valuation() != INF, text


def test_untwisted_valuation_checks_enumerate_nothing(monkeypatch):
    # every power sum these series sum is untwisted, so in closed form;
    # the Tate oracle holds `monic_sum` by its own name
    calls, real = [], powersums.monic_sum

    def spy(cache, d, *args):
        calls.append(d)
        return real(cache, d, *args)
    monkeypatch.setattr(tate, "monic_sum", spy)
    monkeypatch.setattr(powersums, "monic_sum", spy)
    for cid in ("strange-shuffle", "family-qk"):
        assert run_check(cid, prec=40).status == "pass", cid
    assert calls == []


def test_zeta_matches_exact_partial_sums(cache3):
    ctx = cache3.ctx
    for weights in ((1,), (2,), (1, 2), (3, 1)):
        md = MatrixData.untwisted(ctx, weights)
        z = zeta_series(cache3, md, 20)
        for d in (2, 3, 4):
            emb = TateSeries.from_raw(partial_zeta(cache3, d, md, raw=True), 20)
            diff = z - emb
            # the difference is the tail beyond degree d
            assert diff.valuation() > weights[0] * d


def test_log_identity(cache3):
    # the weight-one zeta value is the logarithm series at 1: the sum over
    # i of 1/ell(i), summed until a term vanishes to the precision
    ctx, prec = cache3.ctx, 25
    z = zeta_series(cache3, MatrixData.untwisted(ctx, (1,)), prec)
    log1 = TateSeries.zero(ctx, 0, prec)
    i = 0
    while True:
        term = TateSeries.from_ratk(RatK(APoly.one(ctx), cache3.ell(i)), prec)
        if term.valuation() == INF and i > 0:
            break
        log1 = log1 + term
        i += 1
    assert i > 1
    assert valuation_identity_check(z, log1, prec - 1)["passed"]


def test_valuation_identity_check_contract(ctx3):
    a = TateSeries.one(ctx3, 0, 30)
    rep = valuation_identity_check(a, a, 30)
    assert rep["passed"] and rep["achieved"] == INF
    with pytest.raises(PrecisionInsufficient):
        valuation_identity_check(a, a, 31)


def test_nonconvergent_guard(cache3, monkeypatch):
    # genuine inputs always decay (weights are >= 1), so exercise the guard
    # by injecting constant degree terms
    ctx = cache3.ctx
    from carlitz import powersums, tate
    monkeypatch.setattr(tate.ChainSums, "multi",
                        lambda *args, **kw: TateSeries.one(ctx, 0, 10))
    with pytest.raises(NonConvergent):
        tate.zeta_series(cache3, MatrixData.untwisted(ctx, (1,)), 10)


def test_annals_identity(cache3):
    rep = annals_check(cache3, 15)
    assert rep["passed"] and rep["achieved"] > 15
    assert rep["value_at_theta_is_one"]
    assert rep["trivial_zero_vanishes"]


def test_numeric_identities(cache3):
    assert family_qk_check(cache3, 1, 25)["passed"]
    assert family_qk_check(cache3, 2, 25)["passed"]
    assert thakur_weight_check(cache3, 1, 25)["passed"]
    assert thakur_weight_check(cache3, 2, 25)["passed"]
    assert strange_shuffle_check(cache3, 0, 1, 25)["passed"]
    assert strange_shuffle_check(cache3, 1, 1, 25)["passed"]


def test_numeric_identities_deep_precision(cache3):
    # regression: at precision 40 the depth-two sums show four visible
    # increasing terms after the structurally empty degree-0 one, which a
    # careless divergence guard mistakes for stagnation
    assert thakur_weight_check(cache3, 1, 40)["passed"]
    assert strange_shuffle_check(cache3, 1, 1, 40)["passed"]
