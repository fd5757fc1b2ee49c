import pytest

from carlitz.ffield import FieldContext
from carlitz.poly import APoly, RatK, enumerate_monics
from carlitz import _packed as kern
from carlitz._rawfrac import RawTPoly
from carlitz.powersums import (SemiChar, SeqCache, closed_raw, power_sum_bruteforce,
                               power_sum_closed)
from carlitz.skew import SkewPoly, frak_S, frak_S_bruteforce, star_chain_check
from carlitz.tate import _series_power_sum
from carlitz.tpoly import TPoly
from naive_reference import (NSeries, b_poly, carlitz_action, frak_S_naive, monics,
                             nadd, nmul, naive_power_sum)


def b_expansion(cache, f):
    """sum_j f_j b_j(t) for a SkewPoly f: the image of f under the inverse
    of t^i -> C_(theta^i), as a TPoly."""
    ctx = cache.ctx
    total = TPoly.zero(ctx, 1)
    for j, c in enumerate(f.coeffs):
        total = total + TPoly(ctx, 1, {(k,): c * b for k, b in enumerate(cache.b_coeffs(j))})
    return total


def test_twist_rule(ctx3, ctx4):
    # C_(theta^2) = (theta + tau)^2 = theta^2 + (theta + theta^q) tau + tau^2,
    # the middle term from tau theta = theta^q tau
    for ctx in (ctx3, ctx4):
        theta_q = [0] * ctx.q + [1]
        assert carlitz_action(ctx, [0, 0, 1]) == \
            [[0, 0, 1], nadd(ctx, [0, 1], theta_q), [1]]


def test_carlitz_action(ctx3, ctx4):
    for ctx in (ctx3, ctx4):
        assert carlitz_action(ctx, [1]) == [[1]]
        assert carlitz_action(ctx, [0, 1]) == [[0, 1], [1]]
        for a in monics(ctx, 3):
            ca = carlitz_action(ctx, a)
            # the constant term is a itself, the top one its leading coefficient
            assert ca[0] == a and ca[-1] == [1] and len(ca) == 4
            # F_q-linear: C_(2a) = 2 C_a
            two = ctx.add[1][1]
            assert carlitz_action(ctx, [ctx.mul[two][c] for c in a]) == \
                [nmul(ctx, [two], c) for c in ca]


def test_eval_at_omega(ctx3, ctx4):
    # the fact frak_S's raw comparison rests on: the inverse isomorphism
    # tau^j -> b_j(t) sends C_a to a(t), sum_j [C_a]_j b_j(t) = a(t)
    for ctx in (ctx3, ctx4):
        bs = [b_poly(ctx, j) for j in range(4)]
        for d in range(4):
            for a in monics(ctx, d):
                total = {}
                for cj, bj in zip(carlitz_action(ctx, a), bs):
                    for k, c in enumerate(bj):
                        total[k] = nadd(ctx, total.get(k, []), nmul(ctx, cj, c))
                assert {k: v for k, v in total.items() if v} == \
                    {k: [c] for k, c in enumerate(a) if c}, a


def test_eval_at_one(cache3):
    # the star chain evaluates frak_S(k, 1) at one: its coefficients summed,
    # over ell(k)^q; through d = 2 that is 1 + (1 + l1) / l1^3
    ctx = cache3.ctx
    th = APoly.theta(ctx)
    l1 = th - th ** 3
    cubed = RawTPoly(ctx, 0, {(): list((l1 + 1).coeffs)}, exps=(3,))
    assert list(cubed.den) == list((l1 ** 3).coeffs)
    want = RawTPoly.one(ctx, 0) + cubed
    assert star_chain_check(cache3, 2)["skew_sum"].equals(want)
    one = frak_S(cache3, 1, 1)
    assert one.coeffs[0] + one.coeffs[1] == RatK(APoly.one(ctx) + l1, l1 ** 3)


def test_eta_of_weight_one_power_sum(cache3):
    # S_d(1; chi_t) = b_d(t) / ell(d) corresponds to tau^d / ell(d): the sum
    # of a^(-1) C_a over degree d, order q^0
    ctx = cache3.ctx
    for d in range(4):
        expected = SkewPoly(ctx, [RatK.zero(ctx)] * d
                            + [RatK(APoly.one(ctx), cache3.ell(d))])
        assert frak_S_naive(cache3, d, 0) == expected, d


@pytest.mark.parametrize("q", [3, 4])
def test_frak_S_closed_vs_bruteforce(q):
    # the enumerated sum is written over ell(d)^(q^n), the closed form's own
    # denominator, and equals the commutative closed form there
    cache = SeqCache(FieldContext(q))
    chi = SemiChar.chi(cache.ctx, 1, 1)
    for (d, n) in ((0, 1), (1, 1), (2, 1), (3, 1), (1, 2), (2, 2)):
        brute = frak_S_bruteforce(cache, d, n)
        assert list(brute.den) == list((cache.ell(d) ** q ** n).coeffs), (d, n)
        assert brute.num == closed_raw(cache, d, q ** n, chi).num, (d, n)
        frak_S(cache, d, n)  # must not raise


@pytest.mark.parametrize("q,d_max", [(3, 3), (4, 3), (5, 3), (8, 2), (9, 2)])
def test_frak_S_bruteforce_matches_carlitz_action_loop(q, d_max):
    # the b-expansion route through F_q-linearity against the per-monic
    # Carlitz action, including e > 1 at p = 2 and p = 3
    cache = SeqCache(FieldContext(q))
    for n in (1, 2):
        for d in range(d_max + 1):
            naive = frak_S_naive(cache, d, n)
            assert frak_S(cache, d, n) == naive, (d, n)
            assert frak_S_bruteforce(cache, d, n).to_tpoly() == \
                b_expansion(cache, naive), (d, n)


@pytest.mark.parametrize("q", [3, 4])
def test_oracle_accumulators_reduce_on_slot_bound(q, monkeypatch):
    # large p makes the packed oracle accumulators reduce every few monics;
    # force that here after every second one
    monkeypatch.setattr(kern, "reduce_interval", lambda ctx, width, count: 2)
    ctx = FieldContext(q)
    cache = SeqCache(ctx)
    triv, sigma = SemiChar.trivial(ctx, 0), SemiChar.chi(ctx, 1, 1)
    for d in range(3):
        assert power_sum_closed(cache, d, "f1") == \
            power_sum_bruteforce(cache, d, 2, triv).to_tpoly()
        assert power_sum_closed(cache, d, "f2") == \
            power_sum_bruteforce(cache, d, 2, sigma).to_tpoly()
        frak_S(cache, d, 1)  # closed form against enumeration; must not raise
        # k < 0: the sum of a^3 a(t)
        got = power_sum_bruteforce(cache, d, -3, sigma).to_tpoly()
        want = naive_power_sum(ctx, d, -3, sigma.eval_codes)
        assert set(got.terms) == set(want), d
        assert all(f.matches_ratk(got.terms[e]) for e, f in want.items()), d
    # the per-monic series, with a degree character so no closed form applies
    prec, nu = 30, SemiChar(ctx, 2, varis=(1,), degs=(2,))
    for d in range(3):
        want = NSeries(ctx, 2, {}, prec)
        for a in enumerate_monics(ctx, d):
            twist = NSeries(ctx, 2, {0: nu.eval_codes(list(a.coeffs))}, float("inf"))
            want = want + twist * NSeries.from_ratk(RatK(APoly.one(ctx), a ** 3), prec, s=2)
        got = _series_power_sum(cache, d, 3, nu, prec)
        assert (got.terms, got.prec) == (want.terms, want.prec), d


def test_frak_S_equivalence_with_commutative_form(cache3):
    # the commutative closed form of order q^n is the b-expansion of the
    # skew closed form
    chi = SemiChar.chi(cache3.ctx, 1, 1)
    for (d, n) in ((1, 1), (2, 1), (3, 1), (2, 2), (4, 2)):
        assert closed_raw(cache3, d, 3 ** n, chi).to_tpoly() == \
            b_expansion(cache3, frak_S(cache3, d, n))


def test_star_chain(cache3, cache4):
    for cache in (cache3, cache4):
        for d in (1, 2, 3):
            rep = star_chain_check(cache, d)
            assert rep["skew_equals_star"]
            assert rep["star_equals_strict_plus_power"]
            assert rep["star_equals_product_minus_swap"]


def test_star_chain_tiny_values(cache3):
    # at truncation depth 1 every link is the constant 1
    rep = star_chain_check(cache3, 1)
    one = RawTPoly.one(cache3.ctx, 0)
    assert rep["skew_sum"].equals(one)
    assert rep["star"].equals(one)
