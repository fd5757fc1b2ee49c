import random

import pytest

from carlitz.errors import ClosedFormMismatch
from carlitz.ffield import FieldContext
from carlitz.poly import APoly, RatK, enumerate_monics
from carlitz import _packed as kern
from carlitz.powersums import (SemiChar, SeqCache, closed_raw, power_sum_bruteforce,
                               power_sum_closed)
from carlitz.skew import (SkewPoly, carlitz_action, eta, eta_inv,
                          frak_S, frak_S_bruteforce, frak_S_closed,
                          star_chain_check)
from carlitz.tate import _series_power_sum
from carlitz.tpoly import TPoly
from naive_reference import NSeries, frak_S_naive, naive_power_sum


def one(ctx):
    return RatK.one(ctx)


def test_twist_rule(ctx3):
    th = APoly.theta(ctx3)
    tau = SkewPoly.tau(ctx3)
    assert tau * SkewPoly.constant(ctx3, th) == \
        SkewPoly(ctx3, (RatK.zero(ctx3), RatK.from_apoly(th ** 3)))
    X = SkewPoly(ctx3, (RatK.from_apoly(th), one(ctx3)))
    assert X * X == SkewPoly(ctx3, (RatK.from_apoly(th ** 2),
                                    RatK.from_apoly(th ** 3 + th), one(ctx3)))
    f = SkewPoly(ctx3, (RatK.from_apoly(th + 1), one(ctx3), RatK.from_apoly(th)))
    assert f * SkewPoly.one(ctx3) == f
    assert SkewPoly.one(ctx3) * f == f


def test_skew_associativity(ctx3, ctx4):
    rng = random.Random(8)
    for ctx in (ctx3, ctx4):
        def rand_skew():
            return SkewPoly(ctx, [RatK.from_apoly(
                APoly(ctx, [rng.randrange(ctx.q) for _ in range(3)]))
                for _ in range(rng.randint(1, 4))])
        for _ in range(6):
            a, b, c = rand_skew(), rand_skew(), rand_skew()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_carlitz_action(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    X = SkewPoly(ctx, (RatK.from_apoly(th), one(ctx)))
    assert carlitz_action(cache3, th) == X
    assert carlitz_action(cache3, APoly.one(ctx)) == SkewPoly.one(ctx)
    assert carlitz_action(cache3, th ** 2) == X * X
    rng = random.Random(4)
    monics = list(enumerate_monics(ctx, 2)) + list(enumerate_monics(ctx, 3))
    for _ in range(8):
        a, b = rng.choice(monics), rng.choice(monics)
        assert carlitz_action(cache3, a * b) == \
            carlitz_action(cache3, a) * carlitz_action(cache3, b)


def test_eta_and_inverse(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    t = TPoly.variable(ctx, 1, 1)
    X = SkewPoly(ctx, (RatK.from_apoly(th), one(ctx)))
    assert eta(cache3, t) == X
    assert eta_inv(cache3, SkewPoly.tau(ctx)) == t - th
    a = th ** 2 + th + 1
    a_of_t = t ** 2 + t + 1
    assert eta(cache3, a_of_t) == carlitz_action(cache3, a)
    rng = random.Random(12)
    for _ in range(8):
        tp = TPoly(ctx, 1, {(k,): RatK.from_apoly(
            APoly(ctx, [rng.randrange(3) for _ in range(rng.randint(1, 4))]))
            for k in range(rng.randint(1, 9))})
        assert eta_inv(cache3, eta(cache3, tp)) == tp
        f = SkewPoly(ctx, [RatK.from_apoly(APoly(ctx, [rng.randrange(3)
                                                       for _ in range(3)]))
                           for _ in range(rng.randint(1, 9))])
        assert eta(cache3, eta_inv(cache3, f)) == f


def test_eval_at_omega(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    t = TPoly.variable(ctx, 1, 1)
    assert eta_inv(cache3, carlitz_action(cache3, th)) == t
    assert eta_inv(cache3, SkewPoly.one(ctx)) == TPoly.one(ctx, 1)
    assert eta_inv(cache3, SkewPoly.tau(ctx, 2)) == (t - th) * (t - th ** 3)
    # the action of a evaluates to a(t)
    rng = random.Random(6)
    for a in list(enumerate_monics(ctx, 2))[:4]:
        expected = TPoly(ctx, 1, {(k,): RatK.constant(ctx, c)
                                  for k, c in enumerate(a.coeffs) if c})
        assert eta_inv(cache3, carlitz_action(cache3, a)) == expected
    # eta composed with evaluation is the identity
    for _ in range(5):
        tp = TPoly(ctx, 1, {(k,): RatK.from_apoly(
            APoly(ctx, [rng.randrange(3) for _ in range(3)]))
            for k in range(rng.randint(1, 8))})
        assert eta_inv(cache3, eta(cache3, tp)) == tp


def test_eval_at_one(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    f = SkewPoly(ctx, (RatK.from_apoly(th), one(ctx)))
    assert f.eval_at_one() == RatK.from_apoly(th + 1)
    assert SkewPoly.zero(ctx).eval_at_one() == RatK.zero(ctx)
    l1 = th - th ** 3
    got = frak_S(cache3, 1, 1).eval_at_one()
    assert got == RatK(APoly.one(ctx) + l1, l1 ** 3)


def test_eta_of_weight_one_power_sum(cache3):
    ctx = cache3.ctx
    for d in range(7):
        sd = power_sum_closed(cache3, d, "e2")
        expected = SkewPoly(ctx, [RatK.zero(ctx)] * d
                            + [RatK(APoly.one(ctx), cache3.ell(d))])
        assert eta(cache3, sd) == expected


@pytest.mark.parametrize("q", [3, 4])
def test_frak_S_closed_vs_bruteforce(q):
    cache = SeqCache(FieldContext(q))
    for (d, n) in ((0, 1), (1, 1), (2, 1), (3, 1), (1, 2), (2, 2)):
        assert frak_S_closed(cache, d, n) == frak_S_bruteforce(cache, d, n), (d, n)
        frak_S(cache, d, n)  # must not raise


@pytest.mark.parametrize("q,d_max", [(3, 3), (4, 3), (5, 3), (8, 2), (9, 2)])
def test_frak_S_bruteforce_matches_carlitz_action_loop(q, d_max):
    # the eta route through F_q-linearity against the per-monic Carlitz
    # action, including e > 1 at p = 2 and p = 3
    cache = SeqCache(FieldContext(q))
    for n in (1, 2):
        for d in range(d_max + 1):
            assert frak_S_bruteforce(cache, d, n) == frak_S_naive(cache, d, n), (d, n)


@pytest.mark.parametrize("q", [3, 4])
def test_oracle_accumulators_reduce_on_slot_bound(q, monkeypatch):
    # large p makes the packed oracle accumulators reduce every few monics;
    # force that here after every second one
    monkeypatch.setattr(kern, "reduce_interval", lambda ctx, width, count: 2)
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    triv, sigma = SemiChar.trivial(ctx, 0), SemiChar.chi(ctx, 1, 1)
    for d in range(3):
        assert power_sum_closed(cache, d, "f1") == \
            power_sum_bruteforce(cache, d, 2, triv).to_tpoly()
        assert power_sum_closed(cache, d, "f2") == \
            power_sum_bruteforce(cache, d, 2, sigma).to_tpoly()
        assert frak_S_closed(cache, d, 1) == frak_S_bruteforce(cache, d, 1), d
        # k < 0: the sum of a^3 a(t)
        got = power_sum_bruteforce(cache, d, -3, sigma).to_tpoly()
        want = naive_power_sum(ctx, d, -3, sigma.eval_codes)
        assert set(got.terms) == set(want), d
        assert all(f.matches_ratk(got.terms[e]) for e, f in want.items()), d
    # the per-monic series, with a degree character so no closed form applies
    prec, nu = 30, SemiChar(ctx, 2, varis=(1,), degs=(2,))
    for d in range(3):
        want = NSeries(ctx, 2, {}, prec)
        for a in enumerate_monics(ctx, d):
            twist = NSeries(ctx, 2, {0: nu.eval_codes(list(a.coeffs))}, float("inf"))
            want = want + twist * NSeries.from_ratk(RatK(APoly.one(ctx), a ** 3), prec, s=2)
        got = _series_power_sum(cache, d, 3, nu, prec)
        assert (got.terms, got.prec) == (want.terms, want.prec), d


def test_frak_S_equivalence_with_commutative_form(cache3):
    chi = SemiChar.chi(cache3.ctx, 1, 1)
    for (d, n) in ((1, 1), (2, 1), (3, 1), (2, 2), (4, 2)):
        assert eta(cache3, closed_raw(cache3, d, 3 ** n, chi).to_tpoly()) == \
            frak_S_closed(cache3, d, n)


def test_star_chain(cache3, cache4):
    for cache in (cache3, cache4):
        for d in (1, 2, 3):
            rep = star_chain_check(cache, d)
            assert rep["skew_equals_star"]
            assert rep["star_equals_strict_plus_power"]
            assert rep["star_equals_product_minus_swap"]


def test_star_chain_tiny_values(cache3):
    # at truncation depth 1 every link is the constant 1
    rep = star_chain_check(cache3, 1)
    assert rep["skew_sum"] == RatK.one(cache3.ctx)
    assert rep["star"] == RatK.one(cache3.ctx)
