"""The per-degree identity engine, cross-validated against the public ops."""

import pytest

from carlitz import shuffle
from carlitz._rawfrac import RawTPoly
from carlitz.errors import GrammarError, InvalidParams
from carlitz.ffield import FieldContext
from carlitz.mzv import MatrixData, partial_zeta
from carlitz.poly import APoly, RatK
from carlitz.powersums import SemiChar, SeqCache, power_sum_bruteforce

from carlitz import _packed as kern

# every registered row, and one row outside the registry
ALL_IDENTITIES = [*shuffle.IDENTITIES.values(), "S(1) S(q-1) = S(q)"]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_all_identities_small_grid(q):
    eng = shuffle.ShuffleEngine(SeqCache(FieldContext(q)))
    for d in range(5):
        for row in ALL_IDENTITIES:
            lhs, rhs = shuffle.sides(eng, d, row)
            assert lhs.equals(rhs), (q, d, row)


def test_rows_read_as_written():
    # orders at q, the default key, multiplicities, signs, star and powers
    lhs, rhs = shuffle.parse_row("-2 S*(q-1;sp, 1) F(1;nu)^q = S(q)", 5)
    assert lhs == ((-2, (("Smulti", ((("sp", 4), ("one", 1)), "star"), 1),
                         ("Fmulti", ((("nu", 1),), "strict"), 5))),)
    assert rhs == ((1, (("S", (5, "one"), 1),)),)


@pytest.mark.parametrize("row,at", [
    ("G(1) = F(2)", 0),           # an unknown factor letter
    ("F(1;x) = F(2)", 0),         # an unknown semi-character key
    ("F(1) + = F(2)", 5),         # an empty term
    ("F(1) + F(2)", 11),          # no '='
])
def test_a_malformed_row_fails_when_parsed(row, at):
    with pytest.raises(GrammarError) as exc:
        shuffle.parse_row(row, 3)
    assert exc.value.position == at


@pytest.mark.parametrize("q", [3, 4])
def test_engine_power_sums_match_enumeration(q):
    # every (key, order) the engine answers in closed form, normalized
    # through to_tpoly, against the enumeration oracle
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    eng = shuffle.ShuffleEngine(cache)
    chars = {"one": SemiChar.trivial(ctx, 2), "nu": SemiChar.nu(ctx, 2, 1),
             "s": SemiChar.chi(ctx, 2, 1), "p": SemiChar.chi(ctx, 2, 2),
             "sp": SemiChar(ctx, 2, varis=(1, 2))}
    orders = {"one": {1, 2, q - 1, q}, "nu": {1, 2, q - 1, q},
              "s": {1, 2, q}, "p": {1, 2, q}, "sp": {1, 2}}
    for key, ns in orders.items():
        for n in sorted(ns):
            for d in range(4):
                got = eng.S(d, n, key).to_tpoly()
                want = power_sum_bruteforce(cache, d, n, chars[key]).to_tpoly()
                assert got == want, (q, key, n, d)


def test_engine_rejects_orders_without_closed_form(cache3):
    eng = shuffle.ShuffleEngine(cache3)
    for key, n in (("s", 4), ("p", 4), ("sp", 3)):
        with pytest.raises(InvalidParams):
            eng.S(2, n, key)
    with pytest.raises(InvalidParams):
        eng.S(1, 1, "nope")
    # every untwisted order has one: Carlitz's recursion
    assert eng.S(2, 4, "one").equals(
        power_sum_bruteforce(cache3, 2, 4, SemiChar.trivial(cache3.ctx, 2)))


def test_rawfrac_add_mul_against_ratk(ctx3):
    th = APoly.theta(ctx3)
    # over incomparable exponents: neither denominator's exponents cover the other's
    a = RawTPoly(ctx3, 1, {(0,): [1, 1]}, exps=(1,))              # (1+θ)/(θ-θ³)
    b = RawTPoly(ctx3, 1, {(1,): [2]}, exps=(0, 1))               # 2 t / (θ-θ⁹)
    x = RatK(APoly(ctx3, [1, 1]), APoly(ctx3, [0, 1, 0, 2]))
    y = RatK(APoly(ctx3, [2]), APoly(ctx3, [0, 1] + [0] * 7 + [2]))
    s = a + b
    assert ratk_matches(s.num[(0,)], s.den, x)
    assert ratk_matches(s.num[(1,)], s.den, y)
    p = a * b
    assert ratk_matches(p.num[(1,)], p.den, x * y)


def ratk_matches(num, den, x):
    ctx = x.ctx
    return list(kern.kmul(ctx, num, list(x.den.coeffs))) == \
        list(kern.kmul(ctx, list(x.num.coeffs), den))


def test_rawfrac_divisible_denominator_add(ctx3):
    a = RawTPoly(ctx3, 1, {(0,): [1]}, exps=(2,))   # 1/(θ-θ³)²
    b = RawTPoly(ctx3, 1, {(0,): [1]}, exps=(1,))   # 1/(θ-θ³)
    s = a + b
    assert list(s.den) == [0, 0, 1, 0, 1, 0, 1]     # θ² - 2θ⁴ + θ⁶
    assert list(s.num[(0,)]) == [1, 1, 0, 2]        # 1 + θ - θ³


def test_rawfrac_substitute_one(ctx3):
    a = RawTPoly(ctx3, 2, {(2, 1): [1], (0, 1): [2]})
    s = a.substitute(1, [1])
    assert s.s == 1
    # the two terms merge at t2^1, and 1 + 2 = 0 in F_3
    assert not s.num
    b = RawTPoly(ctx3, 2, {(2, 1): [1], (0, 1): [1]})
    s2 = b.substitute(1, [1])
    assert {e: list(c) for e, c in s2.num.items()} == {(1,): [2]}


def test_rawfrac_untrimmed_numerators(ctx3):
    # monic_sum returns fixed-length code lists, with trailing zeros and
    # possibly all zeros; equal denominators must still mean equal values
    padded = RawTPoly(ctx3, 1, {(0,): [1, 0]})
    assert padded.equals(RawTPoly(ctx3, 1, {(0,): [1]}))
    zeros = RawTPoly(ctx3, 1, {(0,): [0, 0]})
    assert zeros.is_zero()
    assert zeros.equals(RawTPoly.zero(ctx3, 1))


def test_engine_matches_public_partial_sums(cache3):
    # the engine's truncated sums agree with the public RatK-normalized path
    ctx = cache3.ctx
    eng = shuffle.ShuffleEngine(cache3)
    chi1 = SemiChar.chi(ctx, 2, 1)
    sp = SemiChar(ctx, 2, varis=(1, 2))
    grids = [
        ("one", 1, MatrixData(ctx, [(SemiChar.trivial(ctx, 2), 1)], s=2)),
        ("s", 2, MatrixData(ctx, [(chi1, 2)], s=2)),
        ("sp", 2, MatrixData(ctx, [(sp, 2)], s=2)),
    ]
    for key, n, md in grids:
        for d in range(4):
            raw = eng.Fmulti(d, ((key, n),))
            public = partial_zeta(cache3, d, md)
            for exps, coef in public.terms.items():
                assert ratk_matches(raw.num.get(exps, []), raw.den, coef)
            for exps in raw.num:
                assert exps in public.terms or not raw.num[exps]


def test_engine_multi_matches_public(cache3):
    ctx = cache3.ctx
    eng = shuffle.ShuffleEngine(cache3)
    chi1 = SemiChar.chi(ctx, 2, 1)
    triv = SemiChar.trivial(ctx, 2)
    md = MatrixData(ctx, [(chi1, 1), (triv, 1)], s=2)
    from carlitz.mzv import multi_power_sum
    for d in range(4):
        raw = eng.Smulti(d, (("s", 1), ("one", 1)))
        public = multi_power_sum(cache3, d, md)
        for exps, coef in public.terms.items():
            assert ratk_matches(raw.num.get(exps, []), raw.den, coef)
