"""The chain-sum engine at depth three, in its exact (mzv) and shuffle
(RawTPoly) forms, against an explicit enumeration of the degree chains
summing products of enumerated power sums; and the mzv sums, summed
unreduced, against normalized power sums summed with TPoly + and *."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from carlitz.ffield import FieldContext
from carlitz.mzv import MatrixData, multi_power_sum, partial_zeta
from carlitz.poly import APoly, RatK
from carlitz.powersums import SemiChar, SeqCache, power_sum, power_sum_bruteforce
from carlitz.shuffle import ShuffleEngine
from carlitz.tpoly import TPoly

# depth-three columns over the shuffle engine's keys (arity 2)
KEYED_COLUMNS = [
    (("s", 1), ("one", 2), ("p", 1)),
    (("nu", 1), ("sp", 1), ("one", 1)),
    (("one", 2), ("s", 2), ("sp", 2)),
]


def semichar(ctx, key):
    return {"one": SemiChar.trivial(ctx, 2), "s": SemiChar.chi(ctx, 2, 1),
            "p": SemiChar.chi(ctx, 2, 2), "sp": SemiChar(ctx, 2, varis=(1, 2)),
            "nu": SemiChar.nu(ctx, 2, 1)}[key]


def chains(d, depth, mode):
    """Every chain (d, i_2, ..., i_depth) with each step down strict (or
    weak, for star), by filtering all tuples of degrees."""
    for rest in itertools.product(range(d + 1), repeat=depth - 1):
        chain = (d,) + rest
        if all(a > b if mode == "strict" else a >= b
               for a, b in zip(chain, chain[1:])):
            yield chain


def reference(cache, d, columns, mode):
    ctx = cache.ctx
    total = TPoly.zero(ctx, 2)
    for chain in chains(d, len(columns), mode):
        term = TPoly.one(ctx, 2)
        for i, (sigma, n) in zip(chain, columns):
            term = term * power_sum_bruteforce(cache, i, n, sigma).to_tpoly()
        total = total + term
    return total


def as_tpoly(raw):
    ctx = raw.ctx
    den = APoly(ctx, raw.den)
    return TPoly(ctx, raw.s, {e: RatK(APoly(ctx, c), den) for e, c in raw.num.items()})


@pytest.mark.parametrize("mode", ["strict", "star"])
def test_multi_power_sum_depth_three(cache3, mode):
    ctx = cache3.ctx
    for keyed in KEYED_COLUMNS:
        columns = [(semichar(ctx, key), n) for key, n in keyed]
        data = MatrixData(ctx, columns, s=2)
        for d in range(4):
            assert multi_power_sum(cache3, d, data, mode) == \
                reference(cache3, d, columns, mode), (keyed, d)


@pytest.mark.parametrize("mode", ["strict", "star"])
def test_shuffle_multi_depth_three(cache3, mode):
    ctx = cache3.ctx
    eng = ShuffleEngine(cache3)
    for keyed in KEYED_COLUMNS:
        columns = [(semichar(ctx, key), n) for key, n in keyed]
        truncated = TPoly.zero(ctx, 2)
        for d in range(4):
            assert as_tpoly(eng.Fmulti(d, keyed, mode)) == truncated, (keyed, d)
            expect = reference(cache3, d, columns, mode)
            assert as_tpoly(eng.Smulti(d, keyed, mode)) == expect, (keyed, d)
            truncated = truncated + expect


CACHES = {q: SeqCache(FieldContext(q)) for q in (3, 4, 5)}
KEYS = ("one", "s", "p", "sp", "nu", "c1", "s_nu")


def twisted(ctx, key):
    if key == "c1":
        return SemiChar(ctx, 2, consts=(1,))
    if key == "s_nu":
        return SemiChar(ctx, 2, varis=(1,), degs=(2,))
    return semichar(ctx, key)


def normalized_multi(cache, d, columns, mode):
    """The degree-d multiple sum from normalized power sums, by the chain
    recursion written out with TPoly + and *."""
    (sigma, n), rest = columns[0], columns[1:]
    top = power_sum(cache, d, n, sigma).to_tpoly()
    if not rest:
        return top
    inner = TPoly.zero(cache.ctx, 2)
    for i in range(d if mode == "strict" else d + 1):
        inner = inner + normalized_multi(cache, i, rest, mode)
    return top * inner


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(CACHES)), st.sampled_from(["strict", "star"]),
       st.lists(st.tuples(st.sampled_from(KEYS), st.integers(1, 3)),
                min_size=1, max_size=3),
       st.data())
def test_mzv_sums_match_normalized_power_sums(q, mode, keyed, data):
    cache = CACHES[q]
    ctx = cache.ctx
    columns = [(twisted(ctx, key), n) for key, n in keyed]
    md = MatrixData(ctx, columns, s=2)
    d_max = data.draw(st.integers(0, 4 if q == 3 else 3))
    truncated = TPoly.zero(ctx, 2)
    for d in range(d_max):
        expect = normalized_multi(cache, d, columns, mode)
        assert multi_power_sum(cache, d, md, mode) == expect, (keyed, d)
        truncated = truncated + expect
    assert partial_zeta(cache, d_max, md, mode) == truncated, keyed
