import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from carlitz.errors import (BothZero, ConstantInput, ContextMismatch,
                            DivisionByZero, InexactDivision, NonIntegral)
from carlitz.ffield import FieldContext
from carlitz.poly import (APoly, RatK, digit_sum, enumerate_monics,
                          is_irreducible, irreducibles_of_degree, moebius,
                          necklace_count, poly_gcd, poly_xgcd, valuation_inf)

import naive_reference as ref


def rand_apoly(ctx, rng, max_deg=12, nonzero=False):
    while True:
        a = APoly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randint(0, max_deg + 1))])
        if a or not nonzero:
            return a


# -- ring arithmetic ---------------------------------------------------------

def test_product_and_exact_division(ctx3):
    th = APoly.theta(ctx3)
    assert (th + 1) * (th + 2) == th ** 2 + 2
    assert (th ** 2 + 2) / (th + 1) == th + 2
    with pytest.raises(InexactDivision):
        (th ** 2 + 1) / (th + 1)
    with pytest.raises(DivisionByZero):
        divmod(th, APoly.zero(ctx3))


def test_fraction_normalization_example(ctx3):
    th = APoly.theta(ctx3)
    x = RatK(APoly.one(ctx3), th - th ** 3) + 1
    assert x.num == th ** 3 + 2 * th + 2          # -(theta - theta^3 + 1)
    assert x.den == th ** 3 + 2 * th              # theta^3 - theta, monic
    assert x.den.coeffs[-1] == 1


def test_monic_degree_properties(ctx3, ctx4):
    rng = random.Random(11)
    for ctx in (ctx3, ctx4):
        for _ in range(30):
            a = rand_apoly(ctx, rng, nonzero=True)
            b = rand_apoly(ctx, rng, nonzero=True)
            assert (a * b).degree == a.degree + b.degree
            am, bm = a.monic(), b.monic()
            assert (am * bm).coeffs[-1] == 1


def test_zero_degree_sentinel(ctx3):
    z = APoly.zero(ctx3)
    assert z.degree == -math.inf
    assert z.degree < 0 < APoly.one(ctx3).degree + 1


def test_context_mixing_rejected(ctx3, ctx4):
    with pytest.raises(ContextMismatch):
        APoly.theta(ctx3) + APoly.theta(ctx4)


# -- gcd -----------------------------------------------------------------------

def test_gcd_examples(ctx3):
    th = APoly.theta(ctx3)
    assert poly_gcd(th ** 2 - 1, th - 1) == th + 2
    assert poly_gcd(th ** 2 + 1, APoly.zero(ctx3)) == th ** 2 + 1
    assert poly_gcd(2 * th + 1, APoly.zero(ctx3)) == (2 * th + 1).monic()
    assert poly_gcd(th ** 3 - th, th ** 2 + 1) == APoly.one(ctx3)
    with pytest.raises(BothZero):
        poly_gcd(APoly.zero(ctx3), APoly.zero(ctx3))


def test_gcd_divides_both_and_is_maximal(ctx3):
    rng = random.Random(5)
    for _ in range(25):
        a, b = rand_apoly(ctx3, rng), rand_apoly(ctx3, rng)
        if a.is_zero() and b.is_zero():
            continue
        g = poly_gcd(a, b)
        if a:
            assert (a % g).is_zero()
        if b:
            assert (b % g).is_zero()
        gg, u, v = poly_xgcd(a, b)
        assert gg == g
        assert u * a + v * b == g


# -- irreducibility and enumeration -----------------------------------------

def test_irreducibility_examples(ctx3):
    th = APoly.theta(ctx3)
    assert is_irreducible(th ** 2 + 1)
    assert not is_irreducible(th ** 2 + 2)
    assert is_irreducible(th)
    with pytest.raises(ConstantInput):
        is_irreducible(APoly.one(ctx3))


def test_irreducibility_vs_root_and_factor_counting(ctx3, ctx4):
    # degree <= 3: irreducible iff no roots; cross-check by brute factoring
    for ctx in (ctx3, ctx4):
        for d in (2, 3):
            for a in enumerate_monics(ctx, d):
                has_root = any(a.evaluate(e).code == 0 for e in ctx.elements())
                if d <= 3:
                    assert is_irreducible(a) == (not has_root)


def test_enumerate_monics(ctx3, ctx4):
    assert list(enumerate_monics(ctx3, 0)) == [APoly.one(ctx3)]
    th = APoly.theta(ctx3)
    assert list(enumerate_monics(ctx3, 1)) == [th, th + 1, th + 2]
    deg2 = list(enumerate_monics(ctx4, 2))
    assert len(deg2) == 16
    assert len(set(deg2)) == 16
    assert all(a.coeffs[-1] == 1 and a.degree == 2 for a in deg2)
    # deterministic order
    assert list(enumerate_monics(ctx3, 2)) == list(enumerate_monics(ctx3, 2))


def test_irreducibles_of_degree(ctx3):
    th = APoly.theta(ctx3)
    assert irreducibles_of_degree(ctx3, 2) == (
        th ** 2 + 1, th ** 2 + th + 2, th ** 2 + 2 * th + 2)
    assert len(irreducibles_of_degree(ctx3, 2)) == necklace_count(3, 2)


# to d = 7, 5, 4 the sieve flags squares and products of two factors of
# degree >= 2; q = 8, 9, 25, 27 have e > 1, q = 7, 11 a larger p
@pytest.mark.parametrize("q,dmax", [(3, 7), (4, 5), (5, 4), (7, 3), (8, 3), (9, 3),
                                    (11, 2), (25, 2), (27, 2)])
def test_sieve_matches_the_distinct_degree_filter(q, dmax):
    # from an empty cache, so no value cached by an earlier test masks a bug
    irreducibles_of_degree.cache_clear()
    ctx = FieldContext(q)
    for d in range(1, dmax + 1):
        sieved = irreducibles_of_degree(ctx, d)
        assert sieved == tuple(a for a in enumerate_monics(ctx, d) if is_irreducible(a))
        assert len(sieved) == necklace_count(q, d)


@pytest.mark.parametrize("q,dmax", [(3, 6), (4, 4), (5, 3)])
def test_necklace_count_matches_and_field_counting(q, dmax):
    ctx = FieldContext(q)
    for d in range(1, dmax + 1):
        assert len(irreducibles_of_degree(ctx, d)) == necklace_count(q, d)
    # sum over divisors: every element of F_{q^d} has one minimal polynomial
    for d in range(1, dmax + 1):
        total = sum(j * necklace_count(q, j)
                    for j in range(1, d + 1) if d % j == 0)
        assert total == q ** d


def test_necklace_values():
    assert necklace_count(3, 1) == 3
    assert necklace_count(3, 2) == 3
    assert necklace_count(3, 4) == 18
    assert [moebius(n) for n in (1, 2, 3, 4, 6, 30)] == [1, -1, -1, 0, 1, -1]
    # the divisibility the Moebius sum rests on is checked, not assumed
    with pytest.raises(ValueError):
        necklace_count(2.5, 2)


def test_digit_sum():
    assert digit_sum(3, 7) == 3
    assert digit_sum(3, 25) == 5
    assert digit_sum(4, 14) == 5
    assert digit_sum(3, 0) == 0


# -- valuation ---------------------------------------------------------------

def test_valuation_examples(ctx3):
    th = APoly.theta(ctx3)
    assert valuation_inf(RatK.from_apoly(th)) == -1
    assert valuation_inf(RatK(APoly.one(ctx3), th - th ** 3)) == 3
    assert valuation_inf(RatK.zero(ctx3)) == math.inf
    assert valuation_inf(th ** 2 + 1) == -2


def test_valuation_is_a_valuation(ctx3):
    rng = random.Random(77)
    for _ in range(40):
        x = RatK(rand_apoly(ctx3, rng, nonzero=True), rand_apoly(ctx3, rng, nonzero=True))
        y = RatK(rand_apoly(ctx3, rng, nonzero=True), rand_apoly(ctx3, rng, nonzero=True))
        assert valuation_inf(x * y) == valuation_inf(x) + valuation_inf(y)
        assert valuation_inf(x + y) >= min(valuation_inf(x), valuation_inf(y))


# -- RatK --------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4]), st.data())
def test_ratk_matches_reference_fractions(q, data):
    ctx = FieldContext(q)
    def frac(d):
        num = d.draw(st.lists(st.integers(0, q - 1), max_size=6))
        den = d.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=6)
                     .filter(lambda x: ref.trim(list(x))))
        return ref.trim(list(num)), ref.trim(list(den))
    (n1, d1) = frac(data)
    (n2, d2) = frac(data)
    x = RatK(APoly(ctx, n1), APoly(ctx, d1))
    y = RatK(APoly(ctx, n2), APoly(ctx, d2))
    fx, fy = ref.NFrac(ctx, n1, d1), ref.NFrac(ctx, n2, d2)
    assert (fx + fy).matches_ratk(x + y)
    assert (fx * fy).matches_ratk(x * y)
    # normalized invariants
    for z in (x + y, x * y):
        assert z.den.coeffs[-1] == 1
        if not z.is_zero():
            assert poly_gcd(z.num, z.den).degree == 0


def test_ratk_reduces_a_planted_factor_at_q_101():
    # degree-60 parts reach the packed gcd, whose slots overflowed at p = 101
    ctx = FieldContext(101)
    rng = random.Random(101)
    for _ in range(5):
        a, b, g = (APoly(ctx, [rng.randrange(101) for _ in range(n)] + [1])
                   for n in (40, 40, 20))
        x = RatK(a * g, b * g)
        assert poly_gcd(x.num, x.den).degree == 0
        assert x.den.degree <= 40 and x.num * b == x.den * a


def test_ratk_normalization_idempotent(ctx3):
    rng = random.Random(3)
    for _ in range(20):
        x = RatK(rand_apoly(ctx3, rng), rand_apoly(ctx3, rng, nonzero=True))
        y = RatK(x.num, x.den)
        assert y.num == x.num and y.den == x.den


def test_apoly_and_ratk_compare_equal_both_ways(ctx3):
    th = APoly.theta(ctx3)
    assert th == RatK.from_apoly(th) and RatK.from_apoly(th) == th
    assert th != RatK(th, th + 1) and RatK(th, th + 1) != th
    assert th != "theta" and th == th and th == APoly(ctx3, [0, 1])


def test_reduce_mod(ctx3):
    th = APoly.theta(ctx3)
    P = th ** 2 + 1
    x = RatK(APoly.one(ctx3), th - th ** 3)   # 1/l_1; l_1 = 2 theta mod P
    assert x.reduce_mod(P) == th              # (2 theta)^(-1) = theta mod P
    with pytest.raises(NonIntegral):
        RatK(APoly.one(ctx3), P).reduce_mod(P)
