"""The packed TateSeries against the dict-of-dicts oracle in
naive_reference.py, at several fields, arities and precisions >= 64, where
the Kronecker operands are longer than kmul's schoolbook cutoff."""

import itertools
import random

import pytest

from carlitz import _packed
from carlitz.ffield import FieldContext
from carlitz.mzv import MatrixData
from carlitz.poly import APoly, RatK, enumerate_monics
from carlitz.powersums import SemiChar, SeqCache
from carlitz.tate import (INF, TateSeries, _series_power_sum, omega_factor,
                          pi_factor, valuation_identity_check, zeta_series)
from naive_reference import NSeries

QS = [3, 4, 5, 9]


def rand_terms(rng, ctx, s, top, prec, deg, density, gap=0):
    """Random {theta-exponent: {t-exponents: code}} from theta^top down to
    theta^(-prec); t-monomials other than 1 only from theta^(top - gap) down."""
    terms = {}
    for k in range(top, -prec - 1, -1):
        poly = {e: rng.randrange(1, ctx.q)
                for e in itertools.product(range(deg + 1), repeat=s)
                if rng.random() < density and (k <= top - gap or not any(e))}
        if poly:
            terms[k] = poly
    return terms


def both(ctx, s, terms, prec):
    return TateSeries(ctx, s, terms, prec), NSeries(ctx, s, terms, prec)


def assert_same(x, nx):
    assert x.terms == nx.terms
    assert x.prec == nx.prec
    assert x.valuation() == nx.valuation()


@pytest.mark.parametrize("s", [0, 1, 2])
@pytest.mark.parametrize("q", QS)
def test_arithmetic_matches_dict_oracle(q, s, monkeypatch=None):
    # monkeypatch is the calling convention of the mutation table in
    # test_negative_controls.py
    ctx = FieldContext(q)
    rng = random.Random(100 * q + s)
    deg = (0, 2, 1)[s]
    for _ in range(2):
        pa, pb = rng.randint(64, 80), rng.randint(64, 80)
        a, na = both(ctx, s, rand_terms(rng, ctx, s, rng.randint(-3, 4), pa, deg, 0.3), pa)
        b, nb = both(ctx, s, rand_terms(rng, ctx, s, rng.randint(-3, 4), pb, deg, 0.3), pb)
        assert_same(a, na)
        assert_same(a + b, na + nb)
        assert_same(a - b, na - nb)
        assert_same(a - a, na - na)
        assert_same(a * b, na * nb)
        assert_same(a.truncate(70) * b, NSeries(ctx, s, na.terms, min(pa, 70)) * nb)
        assert_same(b ** 2, nb ** 2)
        if s == 0:
            assert_same(a ** 3, na ** 3)
        assert a == TateSeries(ctx, s, a.terms, pa)
        assert a != a.truncate(pa - 1) and a + b == b + a


@pytest.mark.parametrize("q", QS)
def test_from_ratk_matches_long_division(request, q):
    ctx = request.getfixturevalue(f"ctx{q}")
    rng = random.Random(q)
    for _ in range(8):
        num = APoly(ctx, [rng.randrange(q) for _ in range(rng.randint(0, 30))])
        den = APoly.zero(ctx)
        while den.is_zero():
            den = APoly(ctx, [rng.randrange(q) for _ in range(rng.randint(1, 30))])
        x, prec, s = RatK(num, den), rng.randint(64, 120), rng.randint(0, 2)
        assert_same(TateSeries.from_ratk(x, prec, s=s), NSeries.from_ratk(x, prec, s=s))


@pytest.mark.parametrize("s", [0, 1, 2])
@pytest.mark.parametrize("q", QS)
def test_invert_unit_matches_geometric_series(request, q, s):
    ctx = request.getfixturevalue(f"ctx{q}")
    rng = random.Random(7 * q + s)
    for k in (0, 3, -2):
        prec = 64
        # valuation >= 4 below the unit keeps the oracle's geometric series
        # short; t-monomials from 16 below keep its t-degrees small
        terms = rand_terms(rng, ctx, s, k - 4, prec, 1, 0.15, gap=12)
        terms[k] = {(0,) * s: rng.randrange(1, q)}
        f, nf = both(ctx, s, terms, prec)
        g = f.invert_unit()
        assert_same(g, nf.invert_unit())
        assert g.prec == prec + 2 * k
        assert (f * g - TateSeries.one(ctx, s)).valuation() == INF


def test_exact_products_print_without_an_error_term(ctx3):
    one = TateSeries.one(ctx3, 0)
    assert repr(one * one) == "1"
    assert repr(TateSeries.zero(ctx3, 0) * one) == "0"
    assert repr(one.truncate(4) * one) == "1 + O(θ^-5)"
    assert repr(TateSeries.zero(ctx3, 0, 10)) == "O(θ^-11)"


def test_inverse_keeps_the_relative_precision(ctx3):
    # theta^-1 + theta^-2 + O(theta^-6) is known to 5 digits after its
    # lead, so its inverse theta - 1 + theta^-1 - ... is known to theta^-3
    f = TateSeries(ctx3, 0, {-1: {(): 1}, -2: {(): 1}}, 5)
    g = f.invert_unit()
    assert g.prec == 3
    assert g.terms == {1: {(): 1}, 0: {(): 2}, -1: {(): 1}, -2: {(): 2}, -3: {(): 1}}


@pytest.mark.parametrize("q", QS)
def test_period_factors_match_products_of_inverses(request, q):
    ctx = request.getfixturevalue(f"ctx{q}")
    prec = 64
    omega, pi = NSeries.one(ctx, 1, prec), NSeries.one(ctx, 0, prec)
    i = 0
    while q ** i <= prec:
        omega = omega * (NSeries.one(ctx, 1, prec)
                         - NSeries(ctx, 1, {-q ** i: {(1,): 1}}, prec)).invert_unit()
        if i:
            pi = pi * (NSeries.one(ctx, 0, prec)
                       - NSeries(ctx, 0, {1 - q ** i: {(): 1}}, prec)).invert_unit()
        i += 1
    assert_same(omega_factor(ctx, prec), omega)
    assert_same(pi_factor(ctx, prec), pi)


@pytest.mark.parametrize("q", QS)
def test_per_monic_power_sums_match_oracle(request, q):
    ctx = request.getfixturevalue(f"ctx{q}")
    cache, prec = SeqCache(ctx), 64
    cases = [(0, q + 1, SemiChar.trivial(ctx, 0)),
             (2, q * q - 1, SemiChar.trivial(ctx, 0)),
             (2, 2, SemiChar(ctx, 1, varis=(1, 1))),
             (1, 3, SemiChar(ctx, 2, varis=(1,), degs=(2,))),
             (2, 1, SemiChar(ctx, 1, consts=(2,)))]
    for d, n, sigma in cases:
        want = NSeries(ctx, sigma.s, {}, prec)
        for a in enumerate_monics(ctx, d):
            twist = NSeries(ctx, sigma.s, {0: sigma.eval_codes(list(a.coeffs))}, float("inf"))
            want = want + twist * NSeries.from_ratk(RatK(APoly.one(ctx), a ** n), prec,
                                                    s=sigma.s)
        assert_same(_series_power_sum(cache, d, n, sigma, prec), want)


def test_schoolbook_fallback_at_large_p(monkeypatch):
    # these Kronecker operands (over 1071 codes, about 1 in 85 nonzero) are
    # both sparse, so kmul hands them to kmul_naive at any p; the slot bound
    # of p = 2003 is pinned by test_dense_products_fall_back_at_large_p
    ctx = FieldContext(2003)
    rng = random.Random(2003)
    calls, naive = [], _packed.kmul_naive

    def counting(c, a, b):
        calls.append(min(len(a), len(b)))
        return naive(c, a, b)
    monkeypatch.setattr(_packed, "kmul_naive", counting)
    a, na = both(ctx, 1, rand_terms(rng, ctx, 1, 0, 600, 1, 0.02), 600)
    b, nb = both(ctx, 1, rand_terms(rng, ctx, 1, 2, 600, 1, 0.02), 600)
    assert_same(a * b, na * nb)
    assert calls and max(calls) > 1071


def test_dense_products_fall_back_at_large_p(monkeypatch):
    # operands above 1/8 nonzero are not the sparse pairs kmul gives its
    # schoolbook at any p: here the slot bound of p = 2003 alone sends them
    ctx = FieldContext(2003)
    rng = random.Random(2004)
    calls, naive = [], _packed.kmul_naive

    def counting(c, a, b):
        calls.append((min(len(a), len(b)),
                      all(8 * (len(x) - x.count(0)) > len(x) for x in (a, b))))
        return naive(c, a, b)
    monkeypatch.setattr(_packed, "kmul_naive", counting)
    a, na = both(ctx, 1, rand_terms(rng, ctx, 1, 0, 600, 1, 0.3), 600)
    b, nb = both(ctx, 1, rand_terms(rng, ctx, 1, 2, 600, 1, 0.3), 600)
    assert_same(a * b, na * nb)
    assert any(m > 1071 and dense for m, dense in calls)


def _strange_shuffle(cache, prec, dropped=None):
    """strange_shuffle_check at q = 3, h = k = 1, optionally without one
    depth-two term of its right-hand side."""
    def z(*weights):
        return zeta_series(cache, MatrixData.untwisted(cache.ctx, weights), prec + 2)

    rhs = z(14)
    for pair, sign in (((9, 5), 1), ((5, 9), 1), ((6, 8), -1), ((8, 6), -1)):
        if pair != dropped:
            rhs = rhs + z(*pair) if sign > 0 else rhs - z(*pair)
    lhs = z(1) ** 9 * z(5)
    return valuation_identity_check(lhs.truncate(prec + 1), rhs.truncate(prec + 1), prec)


def test_strange_shuffle_fails_without_zeta_9_5(cache3):
    assert _strange_shuffle(cache3, 40)["passed"]
    rep = _strange_shuffle(cache3, 40, dropped=(9, 5))
    assert not rep["passed"]
    assert (rep["achieved"], rep["threshold"]) == (27, 40)
    # zeta(9, 5) has valuation 27, so at the default precision 25 the
    # truncated identity still passes: the term is hidden there
    assert _strange_shuffle(cache3, 25, dropped=(9, 5))["passed"]
