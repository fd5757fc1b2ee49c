import random

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import _packed as kern
from carlitz._rawfrac import RawTPoly
from carlitz.errors import (ArityMismatch, BudgetExceeded, DivisionByZero,
                            InexactDivision, InvalidParams, NonMonicInput,
                            UnsupportedCharacter)
from carlitz.ffield import FieldContext
from carlitz.poly import APoly, RatK, enumerate_monics
from carlitz.powersums import (SemiChar, SeqCache, b_combination, chain_weights,
                               closed_form, closed_raw, partial_F_one_q, power_sum,
                               power_sum_bruteforce, power_sum_closed, tau_b_expand)
from carlitz.tpoly import TPoly

import naive_reference as ref


def t(ctx, s, i):
    """t_i as a RawTPoly of arity s."""
    return RawTPoly(ctx, s, {tuple(int(j == i - 1) for j in range(s)): [1]})


def a(ctx, s, x):
    """The theta-polynomial x as a RawTPoly of arity s."""
    return RawTPoly(ctx, s, {(0,) * s: list(x.coeffs)})


def over(value, den, *exps):
    """The RawTPoly value, over 1, divided by the theta-polynomial den,
    given also as prod_j (theta - theta^(q^j))^exps[j-1]."""
    out = RawTPoly(value.ctx, value.s, value.num, exps=exps)
    assert list(out.den) == list(den.coeffs)
    return out


# -- fundamental sequences -----------------------------------------------------

def test_ell_and_b_recurrences(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    assert cache3.ell(0) == APoly.one(ctx)
    assert cache3.ell(-2) == APoly.zero(ctx)
    for i in range(1, 7):
        assert cache3.ell(i) == (th - th ** (3 ** i)) * cache3.ell(i - 1)
        assert cache3.ell(i).degree == sum(3 ** j for j in range(1, i + 1))
    for i in range(6):
        assert [list(c.coeffs) for c in cache3.b_coeffs(i)] == ref.b_poly(ctx, i)


@pytest.mark.parametrize("q,top", [(4, 5), (5, 4), (9, 3), (25, 2)])
def test_sequences_beyond_q3(q, top):
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    th = APoly.theta(ctx)
    assert cache.ell(0) == APoly.one(ctx) and cache.theta_q(0) == th
    for i in range(top + 1):
        assert cache.theta_q(i) == th ** (q ** i)
        if i:
            assert cache.ell(i) == (th - th ** (q ** i)) * cache.ell(i - 1)
        b = ref.b_poly(ctx, i)
        assert [list(c.coeffs) for c in cache.b_coeffs(i)] == b
        # the twist has the roots theta^(q^j), 1 <= j <= i
        assert [list(c.coeffs) for c in cache.tb_coeffs(i)] == \
            [ref.nfrobenius(ctx, c) for c in b]


# -- semi-characters -----------------------------------------------------------

def test_semichar_examples(ctx3):
    chi = SemiChar.chi(ctx3, 1, 1)
    assert chi.eval_codes([1, 0, 1]) == {(0,): 1, (2,): 1}        # t1^2 + 1
    triv = SemiChar.trivial(ctx3, 0)
    assert triv.eval_codes([0, 1, 1]) == {(): 1}
    nu = SemiChar.nu(ctx3, 1, 1)
    assert nu.eval_codes([0, 1, 1]) == {(2,): 1}                  # t1^deg
    # a -> a(c): theta^2 + theta at 1 is 2, at 2 it is 6 = 0
    assert SemiChar(ctx3, 1, consts=(1,)).eval_codes([0, 1, 1]) == {(0,): 2}
    assert SemiChar(ctx3, 1, consts=(2,)).eval_codes([0, 1, 1]) == {}


def test_semichar_multiplicative(ctx3, ctx4):
    rng = random.Random(2)
    for ctx in (ctx3, ctx4):
        chars = [SemiChar.trivial(ctx, 2), SemiChar.chi(ctx, 2, 1),
                 SemiChar(ctx, 2, varis=(1, 2)), SemiChar.nu(ctx, 2, 1),
                 SemiChar(ctx, 2, consts=(1,))]
        monics = list(enumerate_monics(ctx, 1)) + list(enumerate_monics(ctx, 2))
        for sigma in chars:
            assert sigma.eval_codes([1]) == {(0, 0): 1}
            for _ in range(5):
                a, b = rng.choice(monics), rng.choice(monics)
                assert sigma.eval_codes(list((a * b).coeffs)) == ref._tmul(
                    ctx, sigma.eval_codes(list(a.coeffs)),
                    sigma.eval_codes(list(b.coeffs)))


def test_semichar_errors(ctx3, ctx4):
    chi = SemiChar.chi(ctx3, 1, 1)
    with pytest.raises(NonMonicInput):
        chi.eval_codes([0, 2])
    with pytest.raises(UnsupportedCharacter):
        SemiChar(ctx3, 1, consts=(ctx4.element(1),))
    with pytest.raises(UnsupportedCharacter):
        SemiChar(ctx3, 1, consts=(7,))
    with pytest.raises(ArityMismatch):
        SemiChar.chi(ctx3, 1, 2)


# -- brute-force sums against the naive oracle ---------------------------------

@pytest.mark.parametrize("q", [3, 4])
def test_bruteforce_matches_naive_oracle(q):
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    chars = {
        "triv": (SemiChar.trivial(ctx, 0), lambda a: {(): 1}),
        "chi1": (SemiChar.chi(ctx, 1, 1),
                 lambda a: {(k,): c for k, c in enumerate(a) if c}),
        "nu": (SemiChar.nu(ctx, 1, 1), lambda a: {(len(a) - 1,): 1}),
    }
    for name, (sigma, codes) in chars.items():
        for d in (0, 1, 2):
            for k in (-3, 0, 1, 2):
                got = power_sum_bruteforce(cache, d, k, sigma).to_tpoly()
                want = ref.naive_power_sum(ctx, d, k, codes)
                assert set(got.terms) == set(want), (name, d, k)
                for exps, frac in want.items():
                    assert frac.matches_ratk(got.terms[exps]), (name, d, k)


def test_bruteforce_spec_values(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    chi = SemiChar.chi(ctx, 1, 1)
    got = power_sum_bruteforce(cache3, 1, 1, chi).to_tpoly()
    assert got == over(t(ctx, 1, 1) - a(ctx, 1, th), th - th ** 3, 1).to_tpoly()
    assert power_sum_bruteforce(cache3, 0, 5, SemiChar.trivial(ctx, 0)).to_tpoly() == \
        TPoly.one(ctx, 0)
    got = power_sum_bruteforce(cache3, 1, -7, SemiChar.trivial(ctx, 0)).to_tpoly()
    assert got == TPoly.constant(ctx, 0, RatK.from_apoly(th ** 3 + 2 * th))


def test_budget_guard(ctx3):
    with pytest.raises(BudgetExceeded):
        power_sum_bruteforce(SeqCache(ctx3, budget=100), 9, 1,
                             SemiChar.trivial(ctx3, 0))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_ell_is_the_signed_lcm_of_the_monics(q):
    # ell(d) = (-1)^d lcm of the monics of degree d: the identity that lets
    # the enumeration sum over ell(d)^k, the closed forms' denominator.  The
    # oracle's lcm, built from the irreducibles, is checked by definition.
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    for d in range(4):
        lcm = APoly(ctx, ref.monic_lcm(ctx, d))
        assert cache.monic_lcm(d) == lcm, d
        assert cache.ell(d) == (-lcm if d % 2 else lcm), d


@pytest.mark.parametrize("q", [3, 4])
def test_bruteforce_sums_over_ell_powers(q):
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    chi = SemiChar.chi(ctx, 1, 1)
    for d in range(3):
        for k in (1, 2, q):
            got = power_sum_bruteforce(cache, d, k, chi)
            assert list(got.den) == list((cache.ell(d) ** k).coeffs), (d, k)
            closed = closed_raw(cache, d, k, chi)
            assert closed.den == got.den and closed.num == got.num, (d, k)


# -- closed forms ---------------------------------------------------------------

@pytest.mark.parametrize("q", [3, 4])
def test_closed_forms_match_enumeration(q):
    d_max = {3: 5, 4: 4}[q]
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    sigma1 = SemiChar.chi(ctx, 1, 1)
    sigma2 = SemiChar(ctx, 2, varis=(1, 2))
    triv = SemiChar.trivial(ctx, 0)
    for d in range(d_max + 1):
        assert power_sum_closed(cache, d, "e1") == \
            power_sum_bruteforce(cache, d, 1, triv).to_tpoly()
        assert power_sum_closed(cache, d, "f1") == \
            power_sum_bruteforce(cache, d, 2, triv).to_tpoly()
        assert power_sum_closed(cache, d, "e2") == \
            power_sum_bruteforce(cache, d, 1, sigma1).to_tpoly()
        assert power_sum_closed(cache, d, "f2") == \
            power_sum_bruteforce(cache, d, 2, sigma1).to_tpoly()
        assert power_sum_closed(cache, d, "e3") == \
            power_sum_bruteforce(cache, d, 1, sigma2).to_tpoly()
        assert power_sum_closed(cache, d, "f3") == \
            power_sum_bruteforce(cache, d, 2, sigma2).to_tpoly()


@pytest.mark.parametrize("q", [3, 4, 5, 7, 9])
def test_f3_matches_the_three_product_form(q):
    # the symmetric-product f3 has the same numerators and denominator, not
    # only the same value, as the three tensor products it replaced
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    sigma = SemiChar(ctx, 2, varis=(1, 2))
    for d in range(6):
        num, den = ref.f3_three_products(ctx, d)
        got = closed_raw(cache, d, 2, sigma)
        assert list(got.den) == den, d
        assert {e: list(c) for e, c in got.num.items()} == num, d


def test_closed_form_spec_values(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    t1 = t(ctx, 1, 1)
    l1 = th - th ** 3
    assert power_sum_closed(cache3, 1, "e2") == over(t1 - a(ctx, 1, th), l1, 1).to_tpoly()
    assert power_sum_closed(cache3, 1, "f2") == \
        over(t1 - a(ctx, 1, th ** 3), l1 ** 2, 2).to_tpoly()
    assert power_sum_closed(cache3, 0, "e1") == TPoly.one(ctx, 0)
    # evaluating the weight-2 sum at theta recovers the weight-1 value
    f2 = closed_raw(cache3, 1, 2, SemiChar.chi(ctx, 1, 1))
    assert f2.substitute(1, [0, 1]).equals(over(RawTPoly.one(ctx, 0), l1, 1))


def test_partial_F_one_q(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    assert partial_F_one_q(cache3, 0).to_tpoly() == TPoly.one(ctx, 3)
    expected = RawTPoly.one(ctx, 3)
    for i in (1, 2, 3):
        expected = expected * (t(ctx, 3, i) - a(ctx, 3, th))
    assert partial_F_one_q(cache3, 1).to_tpoly() == \
        over(expected, th - th ** 3, 1).to_tpoly()
    # equals the enumerated truncated sum
    sig3 = SemiChar(ctx, 3, varis=(1, 2, 3))
    for d in (0, 1, 2):
        acc = TPoly.zero(ctx, 3)
        for k in range(d + 1):
            acc = acc + power_sum_bruteforce(cache3, k, 1, sig3).to_tpoly()
        assert partial_F_one_q(cache3, d).to_tpoly() == acc


def test_coefficient_extraction_recovers_lower_arity(cache3):
    # the coefficient of (t_2 t_3)^d in the q-variable partial sum is the
    # degree-d one-variable power sum
    ctx = cache3.ctx
    for d in (0, 1, 2, 3):
        F = partial_F_one_q(cache3, d).to_tpoly()
        got = {(k,): c for (k, i, j), c in F.terms.items() if i == j == d}
        assert got == power_sum_closed(cache3, d, "e2").terms, d


# -- Frobenius expansions --------------------------------------------------------

@pytest.mark.parametrize("q", [3, 4])
def test_tau_b_expand(q):
    cache = SeqCache(FieldContext(q))
    for d in range(7 if q == 3 else 5):
        lhs, rhs = tau_b_expand(cache, 1, d)
        assert lhs.equals(rhs)
    for (n, d) in ((2, 0), (2, 3), (3, 2)):
        lhs, rhs = tau_b_expand(cache, n, d)
        assert lhs.equals(rhs)


def _codes(combination):
    return {k: list(c.coeffs) for k, c in combination.items()}


def _naive_codes(ctx, weights):
    return {k: c for k, c in enumerate(ref.b_combination_naive(
        ctx, [list(w.coeffs) for w in weights])) if c}


# q = 4, 8, 9 have e > 1; d_top keeps ell(d)^(q^2) short enough for schoolbook
@pytest.mark.parametrize("q,d_top", [(3, 5), (4, 5), (5, 4), (7, 3), (8, 3), (9, 3)])
def test_expansion_weights_match_chain_enumeration(q, d_top):
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    for n in (1, 2, 3):
        for d in range(d_top + 1):
            weights = chain_weights(cache, n, d)
            assert weights == ref.chain_weights_naive(cache, n, d), (n, d)
            assert _codes(b_combination(cache, weights)) == \
                _naive_codes(ctx, weights), (n, d)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4, 5, 9, 25]), st.data())
def test_b_combination_matches_schoolbook_on_random_weights(q, data):
    # q = 25 has no byte codecs: T's coefficients stay lists there
    ctx = FieldContext(q)
    weights = [APoly(ctx, w) for w in data.draw(st.lists(
        st.lists(st.integers(0, q - 1), max_size=12), max_size=5))]
    assert _codes(b_combination(SeqCache(ctx), weights)) == _naive_codes(ctx, weights)


def test_b_combination_makes_no_product(cache3, monkeypatch):
    weights = chain_weights(cache3, 2, 4)

    def kmul(*args):
        raise AssertionError("b_combination called kmul")
    monkeypatch.setattr(kern, "kmul", kmul)
    combination = b_combination(cache3, weights)
    monkeypatch.undo()
    assert _codes(combination) == _naive_codes(cache3.ctx, weights)


def test_chain_weights_makes_linearly_many_products(monkeypatch):
    # chain enumeration makes n products for each of the C(d + n, n) = 56 chains
    cache = SeqCache(FieldContext(3))
    real, calls = APoly.__mul__, []

    def counted(self, other):
        calls.append(other)
        return real(self, other)
    monkeypatch.setattr(APoly, "__mul__", counted)
    n, d = 3, 5
    chain_weights(cache, n, d)
    assert 0 < len(calls) <= 2 * n * (d + 1)


def test_chain_weights_are_computed_once(monkeypatch):
    cache = SeqCache(FieldContext(3))
    first = chain_weights(cache, 2, 4)
    assert first == ref.chain_weights_naive(cache, 2, 4)
    real, calls = APoly.__mul__, []

    def counted(self, other):
        calls.append(other)
        return real(self, other)
    monkeypatch.setattr(APoly, "__mul__", counted)
    again = chain_weights(cache, 2, 4)
    assert calls == [] and again == first and again is not first
    # the caller owns the list it gets: changing it leaves the memo intact
    again[0], again[-1:] = APoly.zero(cache.ctx), []
    assert chain_weights(cache, 2, 4) == first
    assert calls == []


def test_order_one_weights_are_the_memoized_ell_ratios(monkeypatch):
    # for n = 1 every suffix sum is 1: the weights are the ell ratios, read
    # from the memoized ell products, and no APoly product is made
    cache = SeqCache(FieldContext(3))
    monkeypatch.setattr(APoly, "__mul__", lambda *_: pytest.fail("an APoly product"))
    weights = {d: chain_weights(cache, 1, d) for d in range(5)}
    monkeypatch.undo()
    for d, w in weights.items():
        assert w[:-1] == [cache.ell_ratio(d, i) for i in range(d)], d
        assert w[-1] == APoly.one(cache.ctx)
        assert w == ref.chain_weights_naive(cache, 1, d), d


def test_unknown_closed_form_is_invalid_params(cache3):
    with pytest.raises(InvalidParams, match="unknown closed form 'g1'"):
        power_sum_closed(cache3, 1, "g1")


@pytest.mark.parametrize("q", [3, 4])
def test_ell_ratio_is_the_exact_quotient(q):
    cache = SeqCache(FieldContext(q))
    for d in range(7):
        assert cache.ell_ratio(d, d) == APoly.one(cache.ctx)
        for i in range(d + 1):
            assert cache.ell_ratio(d, i) * cache.ell(i) == cache.ell(d), (d, i)
        with pytest.raises(InexactDivision):
            cache.ell_ratio(d, d + 1)
        with pytest.raises(DivisionByZero):
            cache.ell_ratio(d, -1)


def test_qn_closed_matches_bruteforce(cache3):
    chi = SemiChar.chi(cache3.ctx, 1, 1)
    for (n, d) in ((1, 0), (1, 1), (1, 3), (2, 2), (2, 3)):
        assert closed_raw(cache3, d, 3 ** n, chi).to_tpoly() == \
            power_sum_bruteforce(cache3, d, 3 ** n, chi).to_tpoly()


# the largest degree at which each q pins the recursion
GEN_DEGREES = {3: 4, 4: 3, 5: 2, 7: 2, 8: 2, 9: 2}


@pytest.mark.parametrize("q", sorted(GEN_DEGREES))
def test_generating_function_recursion_matches_bruteforce(q, monkeypatch=None):
    # every untwisted order n <= 20 that is not k q^l, with and without a
    # degree character; monkeypatch is the calling convention of the
    # mutation table in test_negative_controls.py
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    for sigma in (SemiChar.trivial(ctx, 0), SemiChar.nu(ctx, 1, 1)):
        for n in range(-2, 21):
            form = closed_form(q, n, sigma)
            assert (form is None) == (n <= 0), n
            if form == "gen":
                for d in range(GEN_DEGREES[q] + 1):
                    assert closed_raw(cache, d, n, sigma).equals(
                        power_sum_bruteforce(cache, d, n, sigma)), (sigma, n, d)


def test_frobenius_compatibility(cache3):
    # sum of inverse q-th powers is the q-th power of the sum of inverses
    ctx = cache3.ctx
    triv = SemiChar.trivial(ctx, 0)
    for d in range(6):
        assert power_sum(cache3, d, 3, triv).equals(power_sum(cache3, d, 1, triv) ** 3)
    for d in range(4):
        assert power_sum_bruteforce(cache3, d, 3, triv).to_tpoly() == \
            (power_sum_bruteforce(cache3, d, 1, triv) ** 3).to_tpoly()


# -- the general provider ---------------------------------------------------------

def test_provider_routes_match_bruteforce(cache3):
    ctx = cache3.ctx
    cases = [
        (1, SemiChar.trivial(ctx, 0)),
        (2, SemiChar.trivial(ctx, 0)),
        (4, SemiChar.trivial(ctx, 0)),        # generating-function route
        (1, SemiChar.chi(ctx, 1, 1)),
        (2, SemiChar.chi(ctx, 1, 1)),
        (3, SemiChar.chi(ctx, 1, 1)),         # q-power route
        (1, SemiChar(ctx, 2, varis=(1, 2))),
        (2, SemiChar(ctx, 2, varis=(1, 2))),
        (1, SemiChar.nu(ctx, 1, 1)),
        (2, SemiChar.nu(ctx, 1, 1)),
        (1, SemiChar(ctx, 1, varis=(1,), degs=(1,))),
        (5, SemiChar.chi(ctx, 1, 1)),         # brute fallback, twisted
        (1, SemiChar(ctx, 1, consts=(2,))),  # brute fallback, constant twist
    ]
    for n, sigma in cases:
        for d in (0, 1, 2, 3):
            assert power_sum(cache3, d, n, sigma).to_tpoly() == \
                power_sum_bruteforce(cache3, d, n, sigma).to_tpoly(), (n, sigma, d)
