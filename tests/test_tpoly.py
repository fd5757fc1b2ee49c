import random

import pytest

from carlitz import _packed as kern
from carlitz._rawfrac import RawTPoly
from carlitz.errors import ArityMismatch
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


def in_var(ctx, s, i, coeffs):
    """The sum of c_k t_i^k over the theta-polynomials c_k, as a RawTPoly of
    arity s over 1 (i = 1 for a constant of arity 0)."""
    return RawTPoly(ctx, s, {tuple(k if j == i - 1 else 0 for j in range(s)): list(c.coeffs)
                             for k, c in enumerate(coeffs)})


def b_raw(cache, i, var=1, s=1):
    """b_i(t_var) as a RawTPoly of arity s."""
    return in_var(cache.ctx, s, var, cache.b_coeffs(i))


def test_examples(ctx3):
    # TPoly's sum and product agree with RawTPoly's after normalization
    th = APoly.theta(ctx3)
    one = APoly.one(ctx3)
    t1 = in_var(ctx3, 1, 1, (-th, one))                       # t1 - theta
    assert t1.to_tpoly() * in_var(ctx3, 1, 1, (th, one)).to_tpoly() == \
        in_var(ctx3, 1, 1, (-th ** 2, APoly.zero(ctx3), one)).to_tpoly()
    a = rand_tpoly(ctx3, random.Random(1))
    assert a + TPoly.zero(ctx3, 2) == a
    u, v = in_var(ctx3, 2, 1, (-th, one)), in_var(ctx3, 2, 2, (-th, one))
    over = RawTPoly(ctx3, 2, {(0, 0): [1]}, exps=(1,))         # 1/(theta - theta^3)
    assert (u * over).to_tpoly() * v.to_tpoly() + over.to_tpoly() == \
        (u * v * over + over).to_tpoly()


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
        for v in (a + b, a * b, a + a + a):     # 3a = 0 over F_3
            assert all(not c.is_zero() for c in v.terms.values())


def _b_raw(cache, i):
    return RawTPoly(cache.ctx, 1, {(k,): list(c.coeffs)
                                   for k, c in enumerate(cache.b_coeffs(i))})


def test_substitute_examples(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    assert _b_raw(cache3, 2).substitute(1, [0, 1]).is_zero()
    got = _b_raw(cache3, 1).substitute(1, list((th ** 9).coeffs))
    assert got.s == 0
    assert got.equals(RawTPoly(ctx, 0, {(): list((th ** 9 - th).coeffs)}))
    # over a denominator, and with t_1 absent from a term
    a = RawTPoly(ctx, 2, {(2, 1): [1], (0, 1): [0, 1]}, exps=(0, 1))
    assert a.substitute(1, [2]).equals(RawTPoly(ctx, 1, {(1,): [1, 1]}, exps=(0, 1)))


def rand_raw(ctx, rng, s=2):
    def poly(n):
        return [rng.randrange(ctx.q) for _ in range(n)] + [1]
    num = {tuple(rng.randint(0, 3) for _ in range(s)): poly(rng.randint(0, 4))
           for _ in range(rng.randint(0, 4))}
    exps = [rng.randint(0, 2) for _ in range(rng.randint(0, 2))]
    # a drawn unit of the denominator, folded into the numerators
    inv = ctx.inv[rng.randrange(1, ctx.q)]
    return RawTPoly(ctx, s, {e: kern.kscal(ctx, inv, c) for e, c in num.items()}, exps=exps)


def test_substitute_is_ring_homomorphism(ctx3):
    rng = random.Random(31)
    for v in ([1, 1], [0, 2, 1], [2], []):
        for _ in range(8):
            a, b = rand_raw(ctx3, rng), rand_raw(ctx3, rng)
            assert (a * b).substitute(1, v).equals(a.substitute(1, v) * b.substitute(1, v))
            assert (a + b).substitute(1, v).equals(a.substitute(1, v) + b.substitute(1, v))


@pytest.mark.parametrize("kind", ["RawTPoly", "TateSeries"])
def test_powers_share_one_square_and_multiply(ctx3, kind):
    rng = random.Random(5)
    x = {"RawTPoly": lambda: rand_raw(ctx3, rng),
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


def test_arity_mismatch(ctx3):
    with pytest.raises(ArityMismatch):
        TPoly(ctx3, 1, {(1,): 1}) + TPoly(ctx3, 2, {(1, 0): 1})


@pytest.mark.parametrize("q", [3, 4, 5])
def test_f2_f3_closed_numerators(q):
    # the paper states f2/f3 with (t_i - theta) denominators; closed_raw
    # writes them with those cancelled, over ell(d)^2
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    th = APoly.theta(ctx)
    one = APoly.one(ctx)

    def minus(s, i, c):
        """t_i - c as a RawTPoly of arity s."""
        return in_var(ctx, s, i, (-c, one))

    def numerator(raw):
        assert list(raw.den) == list((cache.ell(d) ** 2).coeffs)
        return RawTPoly(ctx, raw.s, raw.num)

    for d in range(6):
        tq = cache.theta_q(d)
        tb = in_var(ctx, 1, 1, cache.tb_coeffs(d))
        assert (b_raw(cache, d) * minus(1, 1, tq)).equals(minus(1, 1, th) * tb)
        assert numerator(closed_raw(cache, d, 2, SemiChar.chi(ctx, 1, 1))).equals(tb)
        gap = in_var(ctx, 2, 1, (th - tq,))
        bracket = RawTPoly.sum((minus(2, 1, th) * minus(2, 2, th),
                                minus(2, 1, th) * gap, minus(2, 2, th) * gap))
        f3 = numerator(closed_raw(cache, d, 2, SemiChar(ctx, 2, varis=(1, 2))))
        assert (f3 * minus(2, 1, th) * minus(2, 2, th)).equals(
            b_raw(cache, d, 1, 2) * b_raw(cache, d, 2, 2) * bracket)
