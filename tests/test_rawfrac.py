"""RawTPoly normalization split over the binomial factors of an ell-power
denominator, against plain RatK normalization of every coefficient; sums
grouped by denominator and equality through the quotient of the two
denominators, against normalized TPoly arithmetic."""

import random
from functools import reduce

import pytest

from carlitz import _packed as kern
from carlitz._rawfrac import RawTPoly, binomial_factors
from carlitz.errors import ArityMismatch
from carlitz.ffield import FieldContext
from carlitz.poly import APoly, RatK, irreducibles_of_degree
from carlitz.powersums import SeqCache


def binomial(ctx, m):
    return [0, ctx.neg[1]] + [0] * (m - 2) + [1]


def random_poly(ctx, rng, length):
    return kern.trim([rng.randrange(ctx.q) for _ in range(length - 1)]
                     + [rng.randrange(1, ctx.q)])


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
def test_binomial_normalization_matches_ratk(q):
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    rng = random.Random(q)
    top = 3 if q <= 5 else 2
    binomials = [binomial(ctx, q ** j) for j in range(1, top + 1)]
    # divisors of the binomials: theta^(q^j) - theta is the product of the
    # monic irreducibles of degree dividing j
    pieces = binomials + [list(p.coeffs) for k in (1, 2)
                          for p in irreducibles_of_degree(ctx, k)]
    for _ in range(6):
        den = APoly.one(ctx)
        for _ in range(rng.randint(1, 4)):
            den = den * cache.ell(rng.randint(0, top)) ** rng.randint(1, 3)
        den = list(den.coeffs)
        factors = binomial_factors(ctx, den)
        assert reduce(lambda a, b: kern.kmul(ctx, a, b), factors) == den
        assert all(f in binomials for f in factors[:-1]) and len(factors[-1]) == 1
        num = {}
        for e in range(rng.randint(1, 6)):
            c = random_poly(ctx, rng, rng.randint(1, 40))
            if e % 3:
                for _ in range(rng.randint(1, 6)):
                    c = kern.kmul(ctx, c, rng.choice(pieces))
            num[(e,)] = c
        raw = RawTPoly(ctx, 1, num, den)
        got = raw.to_tpoly(factors)
        assert got.terms == {e: RatK(APoly(ctx, c), APoly(ctx, den))
                             for e, c in num.items()}
        assert got == raw.to_tpoly()


def test_binomial_factors_of_other_denominators(ctx3):
    assert binomial_factors(ctx3, [1]) == [[1]]
    assert binomial_factors(ctx3, [2]) == [[2]]
    # theta^3 - theta times theta + 1, which no binomial divides
    den = kern.kmul(ctx3, binomial(ctx3, 3), [1, 1])
    assert binomial_factors(ctx3, den) == [binomial(ctx3, 3), [1, 1]]
    raw = RawTPoly(ctx3, 0, {(): [1, 2, 1]}, den)
    assert raw.to_tpoly(binomial_factors(ctx3, den)) == raw.to_tpoly()
    # any factor list multiplying to den: (theta + 1)(theta + 2) over itself
    raw = RawTPoly(ctx3, 0, {(): [2, 0, 1]}, [2, 0, 1])
    assert raw.to_tpoly([[1, 1], [2, 1]]) == raw.to_tpoly() == RawTPoly.one(ctx3, 0).to_tpoly()


def irreducible(ctx, d):
    """A monic irreducible of degree d: prime to ell(i) for every i < d."""
    return list(irreducibles_of_degree(ctx, d)[0].coeffs)


@pytest.mark.parametrize("q", [3, 4, 5, 25])
def test_sum_matches_the_left_to_right_sum(q):
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    rng = random.Random(q + 7)
    top = 2 if q <= 5 else 1
    # ell powers (each dividing some other), repeated, and one prime to all
    dens = [list((cache.ell(i) ** k).coeffs) for i in range(top + 1) for k in (1, 2)]
    dens.append(irreducible(ctx, top + 1))
    terms = []
    for _ in range(10):
        num = {(rng.randint(0, 2), rng.randint(0, 1)): random_poly(ctx, rng, rng.randint(1, 30))
               for _ in range(rng.randint(1, 3))}
        terms.append(RawTPoly(ctx, 2, num, rng.choice(dens)))
    terms += [-terms[0], terms[1], RawTPoly.zero(ctx, 2)]
    rng.shuffle(terms)
    total = RawTPoly.sum(terms)
    left = reduce(lambda x, y: x + y, terms)
    assert total.equals(left) and left.equals(total)
    assert total.to_tpoly() == reduce(lambda x, y: x + y, [t.to_tpoly() for t in terms])
    assert RawTPoly.sum([terms[0]]).equals(terms[0])
    assert RawTPoly.sum([terms[2], -terms[2]]).is_zero()
    assert RawTPoly.sum([RawTPoly.zero(ctx, 2)] * 2).is_zero()
    with pytest.raises(ArityMismatch):
        RawTPoly.sum([terms[0], RawTPoly.one(ctx, 1)])


def bumped(ctx, raw, e, k):
    """raw with coefficient k of the numerator at t-exponent e plus one."""
    num = {x: list(c) for x, c in raw.num.items()}
    c = num[e] + [0] * (k + 1 - len(num[e]))
    c[k] = ctx.add[c[k]][1]
    num[e] = c
    return RawTPoly(ctx, raw.s, num, raw.den)


@pytest.mark.parametrize("q", [3, 4, 25])
def test_equals_sees_one_changed_coefficient(q):
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    rng = random.Random(q + 8)
    ell = list(cache.ell(1).coeffs)
    g1, g2 = (list(p.coeffs) for p in irreducibles_of_degree(ctx, 2)[:2])
    num = {(0,): random_poly(ctx, rng, 20), (2,): random_poly(ctx, rng, 9)}
    value = RawTPoly(ctx, 1, num, ell)

    def over(f):  # value with numerators and denominator times f
        return RawTPoly(ctx, 1, {e: kern.kmul(ctx, c, f) for e, c in num.items()},
                        kern.kmul(ctx, ell, f))
    # ell divides ell g1; neither of ell g1, ell g2 divides the other
    for x, y in ((value, over(g1)), (over(g2), over(g1))):
        assert x.equals(y) and y.equals(x)
        for e in num:
            for k in (0, 3, len(y.num[e]) - 1, len(y.num[e]) + 2):
                for a, b in ((x, bumped(ctx, y, e, k)), (bumped(ctx, x, e, k), y)):
                    assert not a.equals(b) and not b.equals(a), (e, k)
        extra = RawTPoly(ctx, 1, {(5,): [1]}, [1])
        assert not (x + extra).equals(y) and not y.equals(x + extra)
