"""RawTPoly normalization split over the binomial factors of an ell-power
denominator, against plain RatK normalization of every coefficient."""

import random
from functools import reduce

import pytest

from carlitz import _packed as kern
from carlitz._rawfrac import RawTPoly, binomial_factors
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
