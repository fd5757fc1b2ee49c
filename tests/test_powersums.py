import random

import pytest

from carlitz.errors import (ArityMismatch, BudgetExceeded, NonMonicInput,
                            UnsupportedCharacter)
from carlitz.ffield import FieldContext
from carlitz.poly import APoly, RatK, enumerate_monics
from carlitz.powersums import (SemiChar, SeqCache, closed_raw, partial_F_one_q,
                               power_sum, power_sum_bruteforce, power_sum_closed,
                               tau_b_expand)
from carlitz.tpoly import TPoly

import naive_reference as ref


# -- fundamental sequences -----------------------------------------------------

def test_ell_and_b_recurrences(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    assert cache3.ell(0) == APoly.one(ctx)
    assert cache3.ell(-2) == APoly.zero(ctx)
    for i in range(1, 7):
        assert cache3.ell(i) == (th - th ** (3 ** i)) * cache3.ell(i - 1)
        assert cache3.ell(i).degree == sum(3 ** j for j in range(1, i + 1))
    t1 = TPoly.variable(ctx, 1, 1)
    for i in range(1, 6):
        expected = TPoly.one(ctx, 1)
        for j in range(i):
            expected = expected * (t1 - th ** (3 ** j))
        assert cache3.b_tpoly(i, 1, 1) == expected


# -- semi-characters -----------------------------------------------------------

def test_semichar_examples(ctx3):
    th = APoly.theta(ctx3)
    chi = SemiChar.chi(ctx3, 1, 1)
    t1 = TPoly.variable(ctx3, 1, 1)
    assert chi.eval(th ** 2 + 1) == t1 ** 2 + 1
    triv = SemiChar.trivial(ctx3, 0)
    assert triv.eval(th ** 2 + th) == TPoly.one(ctx3, 0)
    nu = SemiChar.nu(ctx3, 1, 1)
    assert nu.eval(th ** 2 + th) == t1 ** 2


def test_semichar_multiplicative(ctx3, ctx4):
    rng = random.Random(2)
    for ctx in (ctx3, ctx4):
        chars = [SemiChar.trivial(ctx, 2), SemiChar.chi(ctx, 2, 1),
                 SemiChar(ctx, 2, varis=(1, 2)), SemiChar.nu(ctx, 2, 1),
                 SemiChar.const_eval(ctx, 2, 1)]
        monics = list(enumerate_monics(ctx, 1)) + list(enumerate_monics(ctx, 2))
        for sigma in chars:
            assert sigma.eval(APoly.one(ctx)) == TPoly.one(ctx, 2)
            for _ in range(5):
                a, b = rng.choice(monics), rng.choice(monics)
                assert sigma.eval(a * b) == sigma.eval(a) * sigma.eval(b)


def test_semichar_errors(ctx3, ctx4):
    chi = SemiChar.chi(ctx3, 1, 1)
    with pytest.raises(NonMonicInput):
        chi.eval(2 * APoly.theta(ctx3))
    with pytest.raises(UnsupportedCharacter):
        SemiChar.const_eval(ctx3, 1, ctx4.element(1))
    with pytest.raises(UnsupportedCharacter):
        SemiChar.const_eval(ctx3, 1, 7)
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
    t1 = TPoly.variable(ctx, 1, 1)
    assert got == (t1 - th).scale(RatK(APoly.one(ctx), th - th ** 3))
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
            assert got.den == list(cache.ell_pow(d, k).coeffs), (d, k)
            closed = closed_raw(cache, d, k, chi)
            assert closed.den == got.den and closed.num == got.num, (d, k)


# -- closed forms ---------------------------------------------------------------

@pytest.mark.parametrize("q", [3, 4])
def test_closed_forms_match_enumeration(q):
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    sigma1 = SemiChar.chi(ctx, 1, 1)
    sigma2 = SemiChar(ctx, 2, varis=(1, 2))
    triv = SemiChar.trivial(ctx, 0)
    for d in range(4):
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


def test_closed_form_spec_values(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    t1 = TPoly.variable(ctx, 1, 1)
    l1 = th - th ** 3
    assert power_sum_closed(cache3, 1, "e2") == \
        (t1 - th).scale(RatK(APoly.one(ctx), l1))
    assert power_sum_closed(cache3, 1, "f2") == \
        (t1 - th ** 3).scale(RatK(APoly.one(ctx), l1 ** 2))
    assert power_sum_closed(cache3, 0, "e1") == TPoly.one(ctx, 0)
    # evaluating the weight-2 sum at theta recovers the weight-1 value
    f2 = power_sum_closed(cache3, 1, "f2")
    assert f2.substitute(1, RatK.from_apoly(th)) == \
        TPoly.constant(ctx, 0, RatK(APoly.one(ctx), l1))


def test_partial_F_one_q(cache3):
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    assert partial_F_one_q(cache3, 0).to_tpoly() == TPoly.one(ctx, 3)
    expected = TPoly.one(ctx, 3)
    for i in (1, 2, 3):
        expected = expected * (TPoly.variable(ctx, 3, i) - th)
    expected = expected.scale(RatK(APoly.one(ctx), th - th ** 3))
    assert partial_F_one_q(cache3, 1).to_tpoly() == expected
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
        sd = power_sum_closed(cache3, d, "e2")
        for k in range(int(F.degree_in(1)) + 1):
            got = F.coefficient((k, d, d))
            want = sd.coefficient((k,))
            assert got == want, (d, k)


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


def test_qn_closed_matches_bruteforce(cache3):
    chi = SemiChar.chi(cache3.ctx, 1, 1)
    for (n, d) in ((1, 0), (1, 1), (1, 3), (2, 2), (2, 3)):
        assert closed_raw(cache3, d, 3 ** n, chi).to_tpoly() == \
            power_sum_bruteforce(cache3, d, 3 ** n, chi).to_tpoly()


def test_frobenius_compatibility(cache3):
    # sum of inverse q-th powers is the q-th power of the sum of inverses
    ctx = cache3.ctx
    triv = SemiChar.trivial(ctx, 0)
    for d in range(6):
        lhs = power_sum(cache3, d, 3, triv)
        rhs = power_sum(cache3, d, 1, triv)
        assert lhs.as_ratk() == rhs.as_ratk() ** 3
    for d in range(4):
        assert power_sum_bruteforce(cache3, d, 3, triv).to_tpoly().as_ratk() == \
            power_sum_bruteforce(cache3, d, 1, triv).to_tpoly().as_ratk() ** 3


# -- the general provider ---------------------------------------------------------

def test_provider_routes_match_bruteforce(cache3):
    ctx = cache3.ctx
    cases = [
        (1, SemiChar.trivial(ctx, 0)),
        (2, SemiChar.trivial(ctx, 0)),
        (4, SemiChar.trivial(ctx, 0)),        # brute fallback
        (1, SemiChar.chi(ctx, 1, 1)),
        (2, SemiChar.chi(ctx, 1, 1)),
        (3, SemiChar.chi(ctx, 1, 1)),         # q-power route
        (1, SemiChar(ctx, 2, varis=(1, 2))),
        (2, SemiChar(ctx, 2, varis=(1, 2))),
        (1, SemiChar.nu(ctx, 1, 1)),
        (2, SemiChar.nu(ctx, 1, 1)),
        (1, SemiChar(ctx, 1, varis=(1,), degs=(1,))),
        (5, SemiChar.chi(ctx, 1, 1)),         # brute fallback, twisted
        (1, SemiChar.const_eval(ctx, 1, 2)),  # brute fallback, constant twist
    ]
    for n, sigma in cases:
        for d in (0, 1, 2, 3):
            assert power_sum(cache3, d, n, sigma) == \
                power_sum_bruteforce(cache3, d, n, sigma).to_tpoly(), (n, sigma, d)
