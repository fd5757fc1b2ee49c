"""The per-degree identity engine, cross-validated against the public ops."""

import pytest

from carlitz import shuffle
from carlitz._rawfrac import RawTPoly
from carlitz.errors import InvalidParams
from carlitz.ffield import FieldContext
from carlitz.mzv import MatrixData, partial_zeta
from carlitz.poly import APoly, RatK
from carlitz.powersums import SemiChar, SeqCache, power_sum_bruteforce

from carlitz import _packed as kern

ALL_IDENTITIES = [
    shuffle.product_weight_one_untwisted,
    lambda e, d: shuffle.product_weight_one_single(e, d, "s"),
    lambda e, d: shuffle.product_weight_one_single(e, d, "p"),
    shuffle.product_weight_one_split,
    shuffle.product_weight_one_joint,
    shuffle.per_degree_single,
    shuffle.per_degree_split,
    shuffle.per_degree_joint,
    shuffle.depth_two_decomposition,
    shuffle.difference_identity,
    shuffle.degree_character_identity,
    shuffle.weight_q_product,
    # S_d(1) S_d(q-1) = S_d(q)
    lambda e, d: (e.S(d, 1, "one") * e.S(d, e.ctx.q - 1, "one"), e.S(d, e.ctx.q, "one")),
    shuffle.star_bridge,
]


@pytest.mark.parametrize("q", [3, 4, 5])
def test_all_identities_small_grid(q):
    eng = shuffle.ShuffleEngine(SeqCache(FieldContext(q)))
    for d in range(5):
        for fn in ALL_IDENTITIES:
            lhs, rhs = fn(eng, d)
            assert lhs.equals(rhs), (q, d, fn)


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
    for key, n in (("s", 4), ("p", 4), ("sp", 3), ("one", 4)):
        with pytest.raises(InvalidParams):
            eng.S(2, n, key)
    with pytest.raises(InvalidParams):
        eng.S(1, 1, "nope")


def test_rawfrac_add_mul_against_ratk(ctx3):
    th = APoly.theta(ctx3)
    a = RawTPoly(ctx3, 1, {(0,): [1, 1]}, [0, 2, 1])     # (1+θ)/(2θ+θ²)
    b = RawTPoly(ctx3, 1, {(1,): [2]}, [0, 1])           # 2 t / θ
    x = RatK(APoly(ctx3, [1, 1]), APoly(ctx3, [0, 2, 1]))
    y = RatK(APoly(ctx3, [2]), APoly(ctx3, [0, 1]))
    s = a + b
    assert ratk_matches(s.num[(0,)], s.den, x)
    assert ratk_matches(s.num[(1,)], s.den, y)
    p = a * b
    assert ratk_matches(p.num[(1,)], p.den, x * y)


def ratk_matches(num, den, x):
    ctx = x.ctx
    return kern.kmul(ctx, num, list(x.den.coeffs)) == \
        kern.kmul(ctx, list(x.num.coeffs), den)


def test_rawfrac_divisible_denominator_add(ctx3):
    a = RawTPoly(ctx3, 1, {(0,): [1]}, [0, 0, 1])   # 1/θ²
    b = RawTPoly(ctx3, 1, {(0,): [1]}, [0, 1])      # 1/θ
    s = a + b
    assert s.den == [0, 0, 1]
    assert s.num[(0,)] == [1, 1]


def test_rawfrac_substitute_one(ctx3):
    a = RawTPoly(ctx3, 2, {(2, 1): [1], (0, 1): [2]}, [1])
    s = a.substitute_one(1)
    assert s.s == 1
    # the two terms merge at t2^1, and 1 + 2 = 0 in F_3
    assert not s.num
    b = RawTPoly(ctx3, 2, {(2, 1): [1], (0, 1): [1]}, [1])
    s2 = b.substitute_one(1)
    assert s2.num == {(1,): [2]}


def test_rawfrac_untrimmed_numerators(ctx3):
    # monic_sum returns fixed-length code lists, with trailing zeros and
    # possibly all zeros; equal denominators must still mean equal values
    padded = RawTPoly(ctx3, 1, {(0,): [1, 0]}, [1])
    assert padded.equals(RawTPoly(ctx3, 1, {(0,): [1]}, [1]))
    zeros = RawTPoly(ctx3, 1, {(0,): [0, 0]}, [1])
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
            raw = eng.F(d, n, key)
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
