"""RawTPoly normalization over the binomial split of its denominator,
against plain RatK normalization of every coefficient; sums grouped by
denominator and equality through the quotient of the two denominators,
against normalized TPoly arithmetic."""

import random
from functools import reduce

import pytest

from carlitz import _packed as kern
from carlitz._rawfrac import RawTPoly, _binomial_split
from carlitz.errors import ArityMismatch
from carlitz.ffield import FieldContext
from carlitz.poly import APoly, RatK, irreducibles_of_degree
from carlitz.powersums import SeqCache


def binomial(ctx, m):
    return [0, ctx.neg[1]] + [0] * (m - 2) + [1]


def random_poly(ctx, rng, length):
    return kern.trim([rng.randrange(ctx.q) for _ in range(length - 1)]
                     + [rng.randrange(1, ctx.q)])


def irreducible(ctx, d):
    """A monic irreducible of degree d: prime to ell(i) for every i < d."""
    return list(irreducibles_of_degree(ctx, d)[0].coeffs)


def split_product(ctx, split):
    """The product of f^k over the (f, m, k) of a split."""
    return reduce(lambda a, b: kern.kmul(ctx, a, b),
                  (f for f, _, k in split for _ in range(k)), [1])


def assert_split_of(ctx, den, split):
    """split multiplies back to den up to a unit, each binomial once, the
    largest first, and a cofactor only when it is not a unit."""
    quo, rem = kern.kdivmod(ctx, den, split_product(ctx, split))
    assert not rem and len(quo) == 1
    ms = [m for _, m, _ in split]
    assert ms == sorted(set(ms), reverse=True)
    for f, m, k in split:
        assert k >= 1 and (f == binomial(ctx, m) if m else (len(f) > 1 and k == 1))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 25])
def test_binomial_normalization_matches_ratk(q):
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    rng = random.Random(q)
    top = 3 if q <= 5 else 2 if q <= 9 else 1
    binomials = [binomial(ctx, q ** j) for j in range(1, top + 1)]
    # divisors of the binomials: theta^(q^j) - theta is the product of the
    # monic irreducibles of degree dividing j
    pieces = binomials + [list(p.coeffs) for k in (1, 2)
                          for p in irreducibles_of_degree(ctx, k)]
    # one prime to every binomial the denominators reach
    other = irreducible(ctx, top + 1)
    odd = 1 if q == 25 else 3
    for trial in range(7):
        den = APoly.one(ctx)
        for _ in range(rng.randint(1, 4)):
            den = den * cache.ell(rng.randint(0, top)) ** rng.randint(1, 3)
        den = list(den.coeffs)
        if trial == 5:    # the oracle's non-monic denominator at odd d
            den = kern.kneg(ctx, list(cache.monic_lcm(odd).coeffs))
        if trial == 6:
            den = kern.kmul(ctx, den, other)
        split = _binomial_split(ctx, den)
        assert_split_of(ctx, den, split)
        # the cofactor, up to a unit (ell(i) has leading coefficient (-1)^i)
        cofactor = [kern.kscal(ctx, ctx.inv[f[-1]], f) for f, m, _ in split if not m]
        assert cofactor == ([other] if trial == 6 else [])
        num = {}
        for e in range(rng.randint(1, 6)):
            c = random_poly(ctx, rng, rng.randint(1, 40))
            if e % 3:
                for _ in range(rng.randint(1, 6)):
                    c = kern.kmul(ctx, c, rng.choice(pieces + [other]))
            num[(e,)] = c
        raw = RawTPoly(ctx, 1, num, den)
        assert raw.to_tpoly().terms == {e: RatK(APoly(ctx, c), APoly(ctx, den))
                                        for e, c in num.items()}


def test_binomial_factors_of_other_denominators(ctx3):
    b3, b9 = binomial(ctx3, 3), binomial(ctx3, 9)
    # units are dropped
    assert _binomial_split(ctx3, [1]) == _binomial_split(ctx3, [2]) == []
    assert _binomial_split(ctx3, kern.kmul(ctx3, [2], kern.kmul(ctx3, b3, b3))) == [(b3, 3, 2)]
    # each binomial once with its multiplicity, the largest first
    den = kern.kmul(ctx3, b9, kern.kmul(ctx3, b3, b3))
    assert _binomial_split(ctx3, den) == [(b9, 9, 1), (b3, 3, 2)]
    # theta^3 - theta times theta + 1, whose cofactor no binomial divides
    den = kern.kmul(ctx3, b3, [1, 1])
    assert _binomial_split(ctx3, den) == [(b3, 3, 1), ([1, 1], 0, 1)]
    raw = RawTPoly(ctx3, 0, {(): [1, 2, 1]}, den)
    assert raw.to_tpoly().terms[()] == RatK(APoly(ctx3, [1, 2, 1]), APoly(ctx3, den))
    # (theta + 1)(theta + 2) over itself, a cofactor of theta^3 - theta
    raw = RawTPoly(ctx3, 0, {(): [2, 0, 1]}, [2, 0, 1])
    assert _binomial_split(ctx3, [2, 0, 1]) == [([2, 0, 1], 0, 1)]
    assert raw.to_tpoly() == RawTPoly.one(ctx3, 0).to_tpoly()


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


def test_a_power_makes_one_product_per_bit_after_the_first(ctx3, monkeypatch):
    # square-and-multiply starts from a power of x: x ** 1 is x itself, and
    # x ** 2, x ** 3, x ** 4 cost 1, 2 and 2 products
    x = RawTPoly(ctx3, 1, {(0,): [1, 1], (1,): [0, 2]}, [0, 1])
    powers = [RawTPoly.one(ctx3, 1)]
    for _ in range(4):
        powers.append(powers[-1] * x)
    calls, mul = [], RawTPoly.__mul__
    monkeypatch.setattr(RawTPoly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for n, products in enumerate((0, 0, 1, 2, 2)):
        calls.clear()
        value = x ** n
        assert len(calls) == products, n
        assert value.equals(powers[n]), n
