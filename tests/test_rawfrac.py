"""RawTPoly over denominators kept as exponents of the factors
theta - theta^(q^j) of ell: normalization, sums, products, substitution
and equality against RatK arithmetic on the materialized denominator; sums
grouped by denominator against the left-to-right sum; `ell_product`
against the ell sequence."""

import random
import sys
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import _packed as kern
from carlitz._rawfrac import RawTPoly, ell_product
from carlitz.checks import run_check
from carlitz.errors import ArityMismatch
from carlitz.ffield import FieldContext
from carlitz.mzv import partial_zeta
from carlitz.poly import APoly, RatK, irreducibles_of_degree
from carlitz.powersums import SeqCache
from carlitz.textio import parse_matrix_data

QS = (3, 4, 5, 7, 8, 9, 25)
FIELDS = {q: FieldContext(q) for q in QS}


def factor(ctx, m):
    """theta - theta^m."""
    return [0, 1] + [0] * (m - 2) + [ctx.neg[1]]


def factor_product(ctx, exps):
    """prod_j (theta - theta^(q^j))^exps[j-1] by repeated products, each
    factor on its own."""
    return reduce(lambda a, b: kern.kmul(ctx, a, b),
                  (factor(ctx, ctx.q ** j) for j, k in enumerate(exps, 1) for _ in range(k)),
                  [1])


def scaled(ctx, num, unit):
    """The numerators num times the inverse of unit: with a drawn unit
    folded in, the value is num over unit times the denominator."""
    return {e: kern.kscal(ctx, ctx.inv[unit], list(c)) for e, c in num.items()}


def random_poly(ctx, rng, length):
    return kern.trim([rng.randrange(ctx.q) for _ in range(length - 1)]
                     + [rng.randrange(1, ctx.q)])


def irreducible(ctx, d):
    """A monic irreducible of degree d: prime to ell(i) for every i < d."""
    return list(irreducibles_of_degree(ctx, d)[0].coeffs)


def ratk_terms(raw):
    """raw as {t-exponents: RatK}, each numerator over the materialized `den`."""
    ctx, den = raw.ctx, APoly(raw.ctx, list(raw.den))
    out = {e: RatK(APoly(ctx, list(c)), den) for e, c in raw.num.items()}
    return {e: x for e, x in out.items() if not x.is_zero()}


def lifted(raw, exps):
    """The same value as raw over its denominator times prod_j (theta -
    theta^(q^j))^exps[j-1]: numerators and denominator both multiplied."""
    ctx = raw.ctx
    f = factor_product(ctx, exps)
    top = [a + b for a, b in zip(raw.exps + (0,) * len(exps), exps + (0,) * len(raw.exps))]
    return RawTPoly(ctx, raw.s, {e: kern.kmul(ctx, list(c), f) for e, c in raw.num.items()},
                    exps=top)


def bumped(ctx, raw, e, k):
    """raw with coefficient k of the numerator at t-exponent e plus one."""
    num = {x: list(c) for x, c in raw.num.items()}
    c = num[e] + [0] * (k + 1 - len(num[e]))
    c[k] = ctx.add[c[k]][1]
    num[e] = c
    return RawTPoly(ctx, raw.s, num, exps=raw.exps)


def assert_matches_ratk(ctx, x, y, v):
    """sum, product, substitution t_1 := v, equality and normalization of
    the one-variable values x, y, against RatK arithmetic."""
    rx, ry = ratk_terms(x), ratk_terms(y)
    want = dict(rx)
    for e, c in ry.items():
        want[e] = want[e] + c if e in want else c
    assert ratk_terms(x + y) == {e: c for e, c in want.items() if not c.is_zero()}
    assert ratk_terms(RawTPoly.sum([x, y, -x])) == ry
    want = {}
    for (a,), c in rx.items():
        for (b,), d in ry.items():
            want[(a + b,)] = want[(a + b,)] + c * d if (a + b,) in want else c * d
    assert ratk_terms(x * y) == {e: c for e, c in want.items() if not c.is_zero()}
    at = RatK.zero(ctx)
    for (a,), c in rx.items():
        at = at + c * RatK.from_apoly(APoly(ctx, v) ** a)
    assert ratk_terms(x.substitute(1, v)) == ({(): at} if not at.is_zero() else {})
    assert x.equals(y) == y.equals(x) == (rx == ry)
    assert x.to_tpoly().terms == rx and y.to_tpoly().terms == ry


def raw_values(ctx, draw_int):
    """Three one-variable values from the integer source draw_int(lo, hi):
    random ones, then an equal value over a larger denominator."""
    top = 2 if ctx.q <= 9 else 1

    def value(exps):
        num = {(e,): [draw_int(0, ctx.q - 1) for _ in range(draw_int(0, 5))] + [1]
               for e in range(draw_int(0, 2), draw_int(0, 2) + 1)}
        return RawTPoly(ctx, 1, scaled(ctx, num, draw_int(1, ctx.q - 1)), exps=exps)
    x = value([draw_int(0, top) for _ in range(draw_int(0, 2))])
    y = value([draw_int(0, top) for _ in range(draw_int(0, 2))])
    extra = tuple(draw_int(0, 1) for _ in range(draw_int(0, 2)))
    return x, y, lifted(x, extra)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(QS), st.data())
def test_raw_arithmetic_matches_ratk(q, data):
    ctx = FIELDS[q]
    x, y, same = raw_values(ctx, lambda lo, hi: data.draw(st.integers(lo, hi)))
    v = data.draw(st.lists(st.integers(0, q - 1), max_size=3))
    assert_matches_ratk(ctx, x, y, v)
    assert_matches_ratk(ctx, x, same, v)
    assert x.equals(same)


@pytest.mark.parametrize("q", QS)
def test_incomparable_denominators_match_ratk(q, monkeypatch=None):
    # neither of (2,) and (1, 1) divides the other, and the numerators carry
    # unequal units; monkeypatch is the calling convention of the mutation
    # table
    ctx = FIELDS[q]
    rng = random.Random(q)
    top = 2 if q <= 9 else 1
    for exps_x, exps_y in (((top,), (1, 1)), ((1, 1), (0, top)), ((1,), (0, 1)), ((), (1,))):
        x = RawTPoly(ctx, 1, scaled(ctx, {(0,): random_poly(ctx, rng, 6),
                                          (2,): random_poly(ctx, rng, 3)}, ctx.neg[1]),
                     exps=exps_x)
        y = RawTPoly(ctx, 1, scaled(ctx, {(1,): random_poly(ctx, rng, 4),
                                          (2,): random_poly(ctx, rng, 2)}, rng.randrange(1, q)),
                     exps=exps_y)
        assert_matches_ratk(ctx, x, y, random_poly(ctx, rng, 3))
        for same in (lifted(x, exps_y), lifted(x, (0, 1))):
            assert x.equals(same) and same.equals(x)
            assert_matches_ratk(ctx, same, y, [1])
            for e in x.num:
                assert not bumped(ctx, same, e, 1).equals(x)


@pytest.mark.parametrize("q", QS)
def test_binomial_normalization_matches_ratk(q):
    ctx = FIELDS[q]
    cache = SeqCache(ctx)
    rng = random.Random(q)
    top = 3 if q <= 5 else 2 if q <= 9 else 1
    factors = [factor(ctx, q ** j) for j in range(1, top + 1)]
    # divisors of the factors: theta^(q^j) - theta is the product of the
    # monic irreducibles of degree dividing j
    pieces = factors + [list(p.coeffs) for k in (1, 2)
                        for p in irreducibles_of_degree(ctx, k)]
    # one prime to every factor the denominators reach
    other = irreducible(ctx, top + 1)
    odd = 1 if q == 25 else 3
    for trial in range(7):
        # a product of ell powers, ell(i)^k = prod_(j<=i) (theta - theta^(q^j))^k
        den, exps, unit = APoly.one(ctx), [0] * top, 1
        for _ in range(rng.randint(1, 4)):
            i, k = rng.randint(0, top), rng.randint(1, 3)
            den = den * cache.ell(i) ** k
            exps[:i] = [x + k for x in exps[:i]]
        if trial == 5:    # the oracle's denominator at odd d, -monic_lcm(d)
            den, exps = -cache.monic_lcm(odd), [1] * odd
        if trial == 6:    # a unit other than +-1 where there is one, folded
            unit = q - 2 if q > 3 else 1    # into the numerators
        num = {}
        for e in range(rng.randint(1, 6)):
            c = random_poly(ctx, rng, rng.randint(1, 40))
            if e % 3:
                for _ in range(rng.randint(1, 6)):
                    c = kern.kmul(ctx, c, rng.choice(pieces + [other]))
            num[(e,)] = c
        raw = RawTPoly(ctx, 1, scaled(ctx, num, unit), exps=exps)
        assert list(raw.den) == list(den.coeffs)
        assert raw.to_tpoly().terms == {e: RatK(APoly(ctx, c), den * APoly(ctx, [unit]))
                                        for e, c in num.items()}
    # theta - theta^q over itself, and its square over its cube
    b = factors[0]
    assert RawTPoly(ctx, 0, {(): b}, exps=(1,)).to_tpoly() == RawTPoly.one(ctx, 0).to_tpoly()
    raw = RawTPoly(ctx, 0, {(): kern.kmul(ctx, b, b)}, exps=(3,))
    assert raw.to_tpoly().terms[()] == RatK(APoly.one(ctx), APoly(ctx, b))


# the exponents at each q: the largest binomial theta^(q^j) - theta has 243,
# 256, 625, 729 and 625 terms, where products and divisions are packed, and
# one factor with a nonlinear divisor, squared
PACKED = {3: (1, 1, 1, 2, 1), 4: (1, 1, 2, 1), 5: (1, 1, 2, 1), 9: (1, 2, 1), 25: (0, 2)}


def dense_divisor(ctx, rng, m):
    """A monic divisor of theta^m - theta with no linear factor, of about a
    third to a half of its degree: its gcd with t^k - 1, t random and k =
    (m - 1) / l for the least prime l of m - 1 (the roots where t is an
    l-th power), without the gcd with theta^q - theta."""
    b = factor(ctx, m)
    k = (m - 1) // next(l for l in range(2, m) if (m - 1) % l == 0)
    while True:
        t, power = random_poly(ctx, rng, m), [1]
        for bit in bin(k)[2:]:
            power = kern.kmod_binomial(ctx, kern.kmul(ctx, power, power), m)
            if bit == "1":
                power = kern.kmod_binomial(ctx, kern.kmul(ctx, power, t), m)
        d = kern.kgcd(ctx, b, kern.ksub(ctx, power, [1]))
        d = kern.kexactdiv(ctx, d, kern.kgcd(ctx, d, factor(ctx, ctx.q)))
        if 1 < len(d) < m:
            return d


@pytest.mark.parametrize("q", sorted(PACKED))
def test_normalization_at_packed_sizes_matches_ratk(q, monkeypatch=None):
    # numerators of about 2,000 coefficients over PACKED[q]: a dense divisor
    # of the squared factor's binomial, squared (its cofactor met on two
    # copies, an even count); one of the top binomial b (one copy, odd); b
    # times theta^2 (b whole, cofactor 1, then theta); nothing; theta once
    # more than every copy; the first again, at a second monomial.  Each is
    # times a unit plus a multiple of the denominator, so prime to it.
    # monkeypatch is the calling convention of the mutation table
    ctx = FIELDS[q]
    rng = random.Random(q + 9)
    exps = PACKED[q]
    top, theta = len(exps), [0, 1]
    den = factor_product(ctx, exps)
    top_b = kern.kneg(ctx, factor(ctx, q ** top))
    low = dense_divisor(ctx, rng, q ** (exps.index(2) + 1))
    high = dense_divisor(ctx, rng, q ** top)
    parts = ([low, low], [high], [top_b, theta, theta], [], [theta] * (sum(exps) + 1))
    num = {}
    for i, part in enumerate(parts):
        c = reduce(lambda a, b: kern.kmul(ctx, a, b), part, [1])
        unit = [rng.randrange(1, q)]
        r = kern.kadd(ctx, unit, kern.kmul(ctx, den, random_poly(ctx, rng, 2000 - len(den) - len(c))))
        num[(i,)] = kern.kmul(ctx, r, c)
    shared = num[(len(parts),)] = num[(0,)]
    before = list(shared)
    raw = RawTPoly(ctx, 1, num, exps=exps)
    assert list(raw.den) == den
    want = {e: RatK(APoly(ctx, c), APoly(ctx, den)) for e, c in num.items()}
    assert want[(3,)].den.degree == len(den) - 1    # nothing cancels
    got = raw.to_tpoly().terms
    assert got == want
    # the repeated numerator is reduced once; over F_25 the two monomials
    # hold one list, which normalization leaves as it was
    assert got[(len(parts),)] is got[(0,)]
    assert (raw.num[(0,)] is shared) == (q == 25) and list(shared) == before


def test_normalization_divides_by_binomials_and_theta_only(ctx3, monkeypatch):
    # a numerator is divided by theta^m - theta, or by theta (a shift); each
    # cofactor (theta^m - theta) / f is built once per distinct (m, f) the
    # gcds cancel, and the ell product is never a dividend.  kgcd's own
    # divisions go through kdivmod, so they are not seen here
    raw = partial_zeta(SeqCache(ctx3), 7, parse_matrix_data(ctx3, "t1:2,1:1"), "strict",
                       raw=True)
    binomials = {tuple(kern.kneg(ctx3, factor(ctx3, 3 ** j))) for j in range(1, len(raw.exps) + 1)}
    divisions, cancelled, m = [], set(), [None]
    div, gcd, mod = kern.kexactdiv, kern.kgcd, kern.kmod_binomial

    def spy_div(ctx, a, b):
        divisions.append((tuple(a), tuple(b)))
        return div(ctx, a, b)

    def spy_mod(ctx, a, k):
        m[0] = k
        return mod(ctx, a, k)

    def spy_gcd(ctx, a, b):
        f = gcd(ctx, a, b)
        if len(f) > 1:
            cancelled.add((m[0], tuple(f)))
        return f
    monkeypatch.setattr(kern, "kexactdiv", spy_div)
    monkeypatch.setattr(kern, "kmod_binomial", spy_mod)
    monkeypatch.setattr(kern, "kgcd", spy_gcd)
    raw.to_tpoly()
    builds = [(a, b) for a, b in divisions if a in binomials]
    assert builds and len(builds) == len(set(builds)) == len(cancelled)
    assert all(b in binomials or b == (0, 1) for a, b in divisions if a not in binomials)
    assert tuple(raw.den) not in {a for a, _ in divisions}


def test_a_symmetric_value_normalizes_each_distinct_numerator_once(ctx3, monkeypatch):
    # the value is symmetric in t1 and t2, so its 36 numerators hold 21
    # distinct values; each distinct one meets the top binomial in one gcd
    raw = partial_zeta(SeqCache(ctx3), 6, parse_matrix_data(ctx3, "t1*t2:1,1:1"), "strict",
                       raw=True)
    assert (len(raw.num), len(set(raw.num.values()))) == (36, 21)
    top = tuple(factor(ctx3, 3 ** len(raw.exps)))
    firsts, gcd = [], kern.kgcd

    def spy_gcd(ctx, a, b):
        firsts.append(tuple(a) == top)
        return gcd(ctx, a, b)
    monkeypatch.setattr(kern, "kgcd", spy_gcd)
    terms = raw.to_tpoly().terms
    assert sum(firsts) == 21
    for (i, j, *rest), c in terms.items():
        assert terms[(j, i, *rest)] is c


@pytest.mark.parametrize("q", [3, 4, 5, 25])
def test_sum_matches_the_left_to_right_sum(q, monkeypatch=None):
    # monkeypatch is the calling convention of the mutation table
    ctx = FIELDS[q]
    rng = random.Random(q + 7)
    top = 2 if q <= 5 else 1
    # ell powers (each dividing some other), repeated, and exponents
    # incomparable with some of them
    dens = [(k,) * i for i in range(top + 1) for k in (1, 2)] + [(2,), (0, 1), (3,)]
    terms = []
    for _ in range(10):
        num = {(rng.randint(0, 2), rng.randint(0, 1)): random_poly(ctx, rng, rng.randint(1, 30))
               for _ in range(rng.randint(1, 3))}
        terms.append(RawTPoly(ctx, 2, num, exps=rng.choice(dens)))
    terms += [-terms[0], terms[1], RawTPoly.zero(ctx, 2)]
    rng.shuffle(terms)
    # last, over exponents of their own, above the others: distinct
    # numerators at two monomials, then one numerator at both, lifted onto
    # the unequal sums there
    terms += [RawTPoly(ctx, 2, {(0, 0): random_poly(ctx, rng, 9), (1, 1): random_poly(ctx, rng, 7)},
                       exps=(5,)),
              RawTPoly(ctx, 2, dict.fromkeys([(0, 0), (1, 1)], random_poly(ctx, rng, 8)),
                       exps=(4,))]
    total = RawTPoly.sum(terms)
    left = reduce(lambda x, y: x + y, terms)
    assert total.equals(left) and left.equals(total)
    assert total.to_tpoly() == reduce(lambda x, y: x + y, [t.to_tpoly() for t in terms])
    assert RawTPoly.sum([terms[0]]).equals(terms[0])
    assert RawTPoly.sum([terms[2], -terms[2]]).is_zero()
    assert RawTPoly.sum([RawTPoly.zero(ctx, 2)] * 2).is_zero()
    with pytest.raises(ArityMismatch):
        RawTPoly.sum([terms[0], RawTPoly.one(ctx, 1)])


@pytest.mark.parametrize("q", [3, 4, 25])
def test_equals_sees_one_changed_coefficient(q):
    ctx = FIELDS[q]
    rng = random.Random(q + 8)
    num = {(0,): random_poly(ctx, rng, 20), (2,): random_poly(ctx, rng, 9)}
    value = RawTPoly.over_ell(ctx, 1, num, 1, 1)
    # ell(1) divides ell(1) l_2, l_j = theta - theta^(q^j); neither of
    # ell(1) l_1, ell(1) l_2 divides the other
    for x, y in ((value, lifted(value, (0, 1))),
                 (lifted(value, (0, 1)), lifted(value, (1,)))):
        assert x.exps != y.exps
        assert x.equals(y) and y.equals(x)
        for e in num:
            for k in (0, 3, len(y.num[e]) - 1, len(y.num[e]) + 2):
                for a, b in ((x, bumped(ctx, y, e, k)), (bumped(ctx, x, e, k), y)):
                    assert not a.equals(b) and not b.equals(a), (e, k)
        extra = RawTPoly(ctx, 1, {(5,): [1]})
        assert not (x + extra).equals(y) and not y.equals(x + extra)


def test_a_power_makes_one_product_per_bit_after_the_first(ctx3, monkeypatch):
    # square-and-multiply starts from a power of x: x ** 1 is x itself, and
    # x ** 2, x ** 3, x ** 4 cost 1, 2 and 2 products
    x = RawTPoly(ctx3, 1, {(0,): [1, 1], (1,): [0, 2]}, exps=(1,))
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
        assert value.exps == ((n,) if n else ())


def test_the_denominator_is_keyword_only(ctx3):
    # a positional denominator, the old coefficient-list form, is refused
    # rather than read as an exponent vector; the exponents are all of it
    with pytest.raises(TypeError):
        RawTPoly(ctx3, 1, {(0,): [1]}, [1])
    with pytest.raises(TypeError):
        RawTPoly(ctx3, 1, {(0,): [1]}, unit=1)
    assert RawTPoly.__slots__ == ("ctx", "s", "num", "exps")
    assert RawTPoly(ctx3, 1, {(0,): [1]}, exps=(2, 0, 0)).exps == (2,)


@pytest.mark.parametrize("q", [3, 4])
def test_exponents_count_the_factors_of_ell(q):
    # exps = (1,) is theta - theta^q, and ell(d)^n is (n,) * d, with no sign
    ctx = FIELDS[q]
    cache = SeqCache(ctx)
    if q == 3:
        assert list(RawTPoly(ctx, 0, {(): [1]}, exps=(1,)).den) == [0, 1, 0, 2]
    for d in range(5):
        for n in range(4):
            assert list(RawTPoly.over_ell(ctx, 0, {(): [1]}, d, n).den) == \
                list((cache.ell(d) ** n).coeffs), (d, n)
    for exps in ((1,), (2, 1), (0, 3), (1, 0, 2), (0, 0, 1), (3, 3, 1)):
        assert list(ell_product(ctx, exps)) == factor_product(ctx, exps), exps


def test_deep_identities_divide_no_denominator(monkeypatch):
    # sums, products and equality of the deep shuffle checks read their
    # quotients off the exponents: no division is made under them
    methods = {RawTPoly.sum.__code__, RawTPoly.__mul__.__code__, RawTPoly.equals.__code__}
    seen = []

    def spy(name, real):
        def call(*args):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code in methods:
                    seen.append((name, frame.f_code.co_name))
                    break
                frame = frame.f_back
            return real(*args)
        return call
    for name in ("kdivmod", "kexactdiv"):
        monkeypatch.setattr(kern, name, spy(name, getattr(kern, name)))
    rep = run_check("eq-formulabis", profile="deep", d_max=3)
    assert rep.status == "pass", rep.witness
    assert seen == []
