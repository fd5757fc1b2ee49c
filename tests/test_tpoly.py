import math
import random

import pytest

from carlitz._rawfrac import RawTPoly
from carlitz.errors import ArityMismatch, IndexOutOfRange
from carlitz.ffield import FieldContext
from carlitz.poly import APoly, RatK
from carlitz.powersums import SemiChar, SeqCache, closed_raw
from carlitz.tate import TateSeries
from carlitz.tpoly import TPoly


def rand_tpoly(ctx, rng, s=2, max_terms=4, max_exp=3, max_deg=4):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(s))
        num = APoly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randint(0, max_deg))])
        den = APoly.zero(ctx)
        while den.is_zero():
            den = APoly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randint(1, max_deg))])
        terms[exps] = RatK(num, den)
    return TPoly(ctx, s, terms)


def b_tpoly(cache, i, var=1, s=1):
    """b_i(t_var) as a TPoly of arity s."""
    return TPoly(cache.ctx, s, {tuple(k if j == var - 1 else 0 for j in range(s)): c
                                for k, c in enumerate(cache.b_coeffs(i))})


def test_examples(ctx3):
    th = APoly.theta(ctx3)
    t1 = TPoly.variable(ctx3, 1, 1)
    assert (t1 - th) * (t1 + th) == t1 ** 2 - th ** 2
    a = rand_tpoly(ctx3, random.Random(1))
    assert a + TPoly.zero(ctx3, 2) == a
    u = TPoly.variable(ctx3, 2, 1)
    v = TPoly.variable(ctx3, 2, 2)
    prod = (u - th) * (v - th)
    assert prod == u * v - th * u - th * v + th ** 2


def test_ring_axioms_random(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        rng = random.Random(17)
        for _ in range(8):
            a, b, c = (rand_tpoly(ctx, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)


def test_no_zero_coefficients_after_ops(ctx3):
    rng = random.Random(23)
    for _ in range(10):
        a, b = rand_tpoly(ctx3, rng), rand_tpoly(ctx3, rng)
        for v in (a + b, a - b, a * b, a - a):
            assert all(not c.is_zero() for c in v.terms.values())


def _b_raw(cache, i):
    return RawTPoly(cache.ctx, 1, {(k,): list(c.coeffs)
                                   for k, c in enumerate(cache.b_coeffs(i))}, [1])


def test_substitute_examples(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    assert _b_raw(cache3, 2).substitute(1, [0, 1]).is_zero()
    got = _b_raw(cache3, 1).substitute(1, list((th ** 9).coeffs))
    assert got.s == 0
    assert got.equals(RawTPoly(ctx, 0, {(): list((th ** 9 - th).coeffs)}, [1]))
    # over a denominator, and with t_1 absent from a term
    a = RawTPoly(ctx, 2, {(2, 1): [1], (0, 1): [0, 1]}, [1, 1])
    assert a.substitute(1, [2]).equals(RawTPoly(ctx, 1, {(1,): [1, 1]}, [1, 1]))


def rand_raw(ctx, rng, s=2):
    def poly(n):
        return [rng.randrange(ctx.q) for _ in range(n)] + [1]
    return RawTPoly(ctx, s, {tuple(rng.randint(0, 3) for _ in range(s)): poly(rng.randint(0, 4))
                             for _ in range(rng.randint(0, 4))}, poly(rng.randint(0, 3)))


def test_substitute_is_ring_homomorphism(ctx3):
    rng = random.Random(31)
    for v in ([1, 1], [0, 2, 1], [2], []):
        for _ in range(8):
            a, b = rand_raw(ctx3, rng), rand_raw(ctx3, rng)
            assert (a * b).substitute(1, v).equals(a.substitute(1, v) * b.substitute(1, v))
            assert (a + b).substitute(1, v).equals(a.substitute(1, v) + b.substitute(1, v))


@pytest.mark.parametrize("kind", ["TPoly", "RawTPoly", "TateSeries"])
def test_powers_share_one_square_and_multiply(ctx3, kind):
    rng = random.Random(5)
    x = {"TPoly": lambda: rand_tpoly(ctx3, rng),
         "RawTPoly": lambda: rand_raw(ctx3, rng),
         "TateSeries": lambda: TateSeries.one(ctx3, 0, 10) + TateSeries.from_ratk(
             RatK(APoly.one(ctx3), APoly.theta(ctx3) + 1), 10)}[kind]()
    same = RawTPoly.equals if kind == "RawTPoly" else type(x).__eq__
    product = x ** 0
    for n in range(1, 6):
        product = product * x
        assert same(x ** n, product), n
    # a negative power is refused, where it used to square a growing base forever
    with pytest.raises(ValueError, match="negative power"):
        x ** -1


def test_degree_in_conventions(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    b2 = b_tpoly(cache3, 2)
    assert b2.degree_in(1) == 2
    five = TPoly.constant(ctx, 1, RatK.constant(ctx, 2))
    assert five.degree_in(1) == 0               # nonzero, variable absent
    assert TPoly.zero(ctx, 1).degree_in(1) == -math.inf
    u = TPoly.variable(ctx, 2, 1)
    v = TPoly.variable(ctx, 2, 2)
    assert ((u - th) * (v - th)).degree_in(2) == 1
    with pytest.raises(IndexOutOfRange):
        b2.degree_in(2)


def test_arity_mismatch(ctx3):
    with pytest.raises(ArityMismatch):
        TPoly.variable(ctx3, 1, 1) + TPoly.variable(ctx3, 2, 1)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_f2_f3_closed_numerators(q):
    # the paper states f2/f3 with (t_i - theta) denominators; closed_raw
    # writes them with those cancelled, over ell(d)^2
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    th = APoly.theta(ctx)
    t = TPoly.variable(ctx, 1, 1)
    t1, t2 = TPoly.variable(ctx, 2, 1), TPoly.variable(ctx, 2, 2)

    def numerator(raw):
        assert list(raw.den) == list(cache.ell_pow(d, 2).coeffs)
        return TPoly(ctx, raw.s, {e: APoly(ctx, c) for e, c in raw.num.items()})

    for d in range(6):
        tq = cache.theta_q(d)
        tb = TPoly(ctx, 1, {(k,): c for k, c in enumerate(cache.tb_coeffs(d))})
        assert b_tpoly(cache, d) * (t - tq) == (t - th) * tb
        assert numerator(closed_raw(cache, d, 2, SemiChar.chi(ctx, 1, 1))) == tb
        bracket = ((t1 - th) * (t2 - th) + (t1 - th) * (th - tq)
                   + (t2 - th) * (th - tq))
        f3 = numerator(closed_raw(cache, d, 2, SemiChar(ctx, 2, varis=(1, 2))))
        assert f3 * (t1 - th) * (t2 - th) == \
            b_tpoly(cache, d, 1, 2) * b_tpoly(cache, d, 2, 2) * bracket


def test_frobenius_twist(ctx3):
    th = APoly.theta(ctx3)
    t1 = TPoly.variable(ctx3, 1, 1)
    assert (t1 - th).frobenius() == t1 - th ** 3
    assert (t1 - th).frobenius(2) == t1 - th ** 9
