import pytest

from carlitz._rawfrac import RawTPoly
from carlitz.errors import ArityMismatch, InvalidParams, TailNotVanishing, WeightZero
from carlitz.ffield import FieldContext
from carlitz.mzv import (MatrixData, bernoulli_goss, bg_block_values,
                         bg_congruence_survey, bg_degree_formula,
                         bg_formula_rhs, multi_power_sum, partial_zeta)
from carlitz.poly import APoly, RatK
from carlitz.powersums import SemiChar, SeqCache, power_sum_bruteforce
from carlitz.tpoly import TPoly


def test_matrix_data_structure(ctx3):
    chi = SemiChar.chi(ctx3, 1, 1)
    triv = SemiChar.trivial(ctx3, 1)
    md = MatrixData(ctx3, [(chi, 1), (triv, 1)])
    assert md.weight == 2 and md.depth == 2 and md.s == 1
    empty = MatrixData(ctx3, [])
    assert empty.weight == 0 and empty.depth == 0
    with pytest.raises(WeightZero):
        MatrixData(ctx3, [(chi, 0)])


def test_multi_power_sum_rejects_an_unknown_mode_and_a_negative_degree(cache3):
    md = MatrixData(cache3.ctx, [(SemiChar.trivial(cache3.ctx, 0), 1)])
    with pytest.raises(InvalidParams, match="unknown mode 'weak'"):
        multi_power_sum(cache3, 1, md, mode="weak")
    with pytest.raises(InvalidParams, match="d >= 0"):
        multi_power_sum(cache3, -1, md)


def test_matrix_data_arity_too_small(ctx3):
    # a column in two variables does not fit arity 1: an arity error, not
    # the grammar's weight error
    two = SemiChar.chi(ctx3, 2, 2)
    with pytest.raises(ArityMismatch, match="arity 1 too small"):
        MatrixData(ctx3, [(two, 1)], s=1)
    assert MatrixData(ctx3, [(two, 1)], s=3).s == 3


def test_multi_power_sum_conventions(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    depth2 = MatrixData.untwisted(ctx, (1, 1))
    # empty inner chain at degree 0
    assert multi_power_sum(cache3, 0, depth2).is_zero()
    # depth 0 is 1 at degree 0 and 0 above: the empty data sums to 1
    assert multi_power_sum(cache3, 0, MatrixData(ctx, [])) == TPoly.one(ctx, 0)
    assert multi_power_sum(cache3, 5, MatrixData(ctx, [])) == TPoly.zero(ctx, 0)
    # the worked example at degree 2
    l1 = th - th ** 3
    l2 = l1 * (th - th ** 9)
    expect = RatK(APoly.one(ctx), l2) * (RatK.one(ctx) + RatK(APoly.one(ctx), l1))
    assert multi_power_sum(cache3, 2, depth2) == TPoly.constant(ctx, 0, expect)


def test_star_strict_bridge_depth_two(cache3):
    ctx = cache3.ctx
    chi = SemiChar.chi(ctx, 1, 1)
    triv = SemiChar.trivial(ctx, 1)
    md = MatrixData(ctx, [(chi, 1), (triv, 2)])
    for d in range(4):
        star = multi_power_sum(cache3, d, md, mode="star")
        strict = multi_power_sum(cache3, d, md, mode="strict")
        top = power_sum_bruteforce(cache3, d, 1, chi).to_tpoly()
        second = power_sum_bruteforce(cache3, d, 2, triv).to_tpoly()
        assert star == strict + top * second


def test_partial_zeta_values(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    one_col = MatrixData.untwisted(ctx, (1,))
    assert partial_zeta(cache3, 0, one_col).is_zero()
    assert partial_zeta(cache3, 1, one_col) == TPoly.one(ctx, 0)
    f2 = partial_zeta(cache3, 2, one_col)
    assert f2 == TPoly.constant(
        ctx, 0, RatK.one(ctx) + RatK(APoly.one(ctx), th - th ** 3))


@pytest.mark.parametrize("q", [3, 4])
def test_empty_data_truncates_to_one(q):
    # zeta of the empty data is 1, and so is every truncation past degree 0
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    empty = MatrixData(ctx, [])
    for d_max in range(1, 5):
        for mode in ("strict", "star"):
            assert partial_zeta(cache, d_max, empty, mode) == TPoly.one(ctx, 0), (d_max, mode)


def test_star_bridge_for_partial_sums(cache3, cache4):
    for cache in (cache3, cache4):
        ctx = cache.ctx
        q = ctx.q
        md = MatrixData.untwisted(ctx, (q - 1, 1))
        f1 = MatrixData.untwisted(ctx, (1,))
        for d in range(6):
            strict = partial_zeta(cache, d, md, mode="strict", raw=True)
            f1d = partial_zeta(cache, d, f1, raw=True)
            assert partial_zeta(cache, d, md, mode="star") == (strict + f1d ** q).to_tpoly()


# -- Bernoulli-Goss ------------------------------------------------------------

def test_bg_values(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    assert bernoulli_goss(cache3, 1).value == APoly.one(ctx)
    bg7 = bernoulli_goss(cache3, 7)
    assert bg7.value == th ** 3 + 2 * th + 1
    assert bg7.value.degree == 3
    assert bg7.k_stop == 1


def test_bg_warns_on_trivial_zero(cache3):
    with pytest.warns(UserWarning, match="divisible"):
        bernoulli_goss(cache3, 4)


def test_bg_formula_rhs(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    assert bg_formula_rhs(cache3, 1) == APoly.one(ctx)
    assert bg_formula_rhs(cache3, 2) == th ** 3 + 2 * th + 1
    for d in (1, 2, 3):
        assert bg_formula_rhs(cache3, d) == bernoulli_goss(cache3, 3 ** d - 2).value


def test_bg_degree_formula_values():
    assert [bg_degree_formula(3, d).degree for d in (1, 2, 3, 4, 5)] == \
        [0, 3, 30, 165, 732]
    assert [bg_degree_formula(4, d).degree for d in (1, 2, 3)] == [0, 8, 88]
    assert [bg_degree_formula(5, d).degree for d in (1, 2, 3)] == [0, 15, 190]
    f = bg_degree_formula(3, 3)
    assert f.degree == f.dominant_degree == 30
    assert f.merged_degree == f.tail_degree == 27 - 3


def test_bg_degree_matches_value(cache3, cache4):
    for cache, tops in ((cache3, 4), (cache4, 3)):
        q = cache.ctx.q
        for d in range(1, tops + 1):
            bg = bernoulli_goss(cache, q ** d - 2)
            assert bg.value.degree == bg_degree_formula(q, d).degree


def test_bg_blocks(cache3):
    for d in (2, 3, 4):
        dom, merged, tail = bg_block_values(cache3, d)
        pred = bg_degree_formula(3, d)
        assert -dom.valuation == pred.dominant_degree
        assert -merged.valuation == pred.merged_degree
        if d >= 3:
            assert -tail.valuation == pred.tail_degree
        assert pred.dominant_degree > pred.merged_degree
        # the blocks reassemble the value
        assert dom + merged + tail == -bernoulli_goss(cache3, 3 ** d - 2).value


@pytest.mark.parametrize("q", [4, 5, 9])
def test_bg_double_sum_beyond_q3(q):
    cache = SeqCache(FieldContext(q))
    for d in (1, 2):
        value = bernoulli_goss(cache, q ** d - 2).value
        assert bg_formula_rhs(cache, d) == value
        pred = bg_degree_formula(q, d)
        assert value.degree == pred.degree
        dom, merged, tail = bg_block_values(cache, d)
        assert dom + merged + tail == -value
        assert -dom.valuation == pred.dominant_degree
        if d == 2:
            assert -merged.valuation == pred.merged_degree and tail.is_zero()


def test_bg_layer_makes_no_fraction_arithmetic(monkeypatch):
    # the double sum and the divisor sum run over ell ratios in A; a fresh
    # cache, so that every value the three functions need is computed here
    cache = SeqCache(FieldContext(3))

    def refuse(self, other):
        raise AssertionError("RatK arithmetic in the Bernoulli-Goss layer")
    for name in ("__add__", "__radd__", "__mul__"):
        monkeypatch.setattr(RatK, name, refuse)
    rhs = bg_formula_rhs(cache, 3)
    blocks = bg_block_values(cache, 3)
    sv = bg_congruence_survey(cache, 2)
    monkeypatch.undo()
    assert rhs == bernoulli_goss(cache, 25).value
    assert sum(blocks, RatK.zero(cache.ctx)) == -rhs
    assert sv.all_congruent and sv.divisor_consistent


def test_congruence_survey(cache3):
    sv = bg_congruence_survey(cache3, 1)
    assert sv.all_congruent and sv.irreducible_count == 3
    assert all(r.bg_residue == APoly.one(cache3.ctx) for r in sv.rows)
    sv2 = bg_congruence_survey(cache3, 2)
    assert sv2.all_congruent and sv2.bound_holds and sv2.count_matches_necklace
    assert sv2.zero_bound == 1
    th = APoly.theta(cache3.ctx)
    by_mod = {r.modulus: r for r in sv2.rows}
    assert by_mod[th ** 2 + 1].bg_residue == th + 1
    assert by_mod[th ** 2 + 1].partial_zeta_residue == th + 1
    # the divisor polynomial from the worked example: l_1 + 1
    assert sv2.divisor_poly == 2 * th ** 3 + th + 1
    assert sv2.divisor_consistent


def test_evaluation_bridge(cache3):
    # substituting theta^(q^d) into the weight-two sums turns them into the
    # order-(2 - q^d) sums, degree by degree
    ctx = cache3.ctx
    chi = SemiChar.chi(ctx, 1, 1)
    triv = SemiChar.trivial(ctx, 0)
    for d in (1, 2):
        point = list(cache3.theta_q(d).coeffs)
        n = 3 ** d - 2
        for K in range(4):
            lhs = RawTPoly.zero(ctx, 0)
            rhs = RawTPoly.zero(ctx, 0)
            for k in range(K + 1):
                lhs = lhs + power_sum_bruteforce(cache3, k, 2, chi).substitute(1, point)
                rhs = rhs + power_sum_bruteforce(cache3, k, -n, triv)
            assert lhs.equals(rhs), (d, K)


def test_tail_not_vanishing_guard(cache3, monkeypatch):
    # force a wrong cutoff and watch the assertion catch it
    import carlitz.mzv as mzv
    monkeypatch.setattr(mzv, "digit_sum", lambda q, n: 0)
    with pytest.raises(TailNotVanishing):
        mzv.bernoulli_goss(cache3, 7)
