"""Twisted power sums in K{tau} and the star chain.

K{tau} is the twisted polynomial ring, tau c = c^q tau; the Carlitz
action sends theta to theta + tau.  The linear isomorphism between
polynomials in one variable t and K{tau} sends t^i to the action of
theta^i, and its inverse sends tau^j to the degree-j fundamental
polynomial b_j(t), so it sends the action C_a of a monic a to a(t).

frak_S(d, n) is the twisted-coefficient power sum: the sum of
a^(-q^n) C_a over monic a of degree d.  Its chain closed form is
sum_i (w_i / ell(d)^(q^n)) tau^i with the `chain_weights` w_i.  Under
the inverse isomorphism that is sum_i w_i b_i(t) over ell(d)^(q^n), the
closed form `closed_raw` writes for S_d(q^n; chi_t), and the oracle
writes the enumerated S_d(q^n; chi_t) over the same denominator: the
closed form is verified as an equality of RawTPoly numerators, with no
Carlitz action computed per monic and no gcd.  The closed form leaves as
a SkewPoly over K, for output only.

The star chain likewise adds and compares RawTPoly values: the skew sums
evaluated at one (the sums of the weights) and the raw truncated zeta
values.
"""

from ._rawfrac import RawTPoly
from .errors import ClosedFormMismatch, ContextMismatch, InvalidParams
from .mzv import MatrixData, partial_zeta
from .poly import APoly, RatK
from .powersums import SemiChar, chain_weights, closed_raw, power_sum_bruteforce


class SkewPoly:
    """An element of K{tau}: coefficients in K by increasing tau-power."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        cleaned = list(coeffs)
        while cleaned and cleaned[-1].is_zero():
            cleaned.pop()
        for c in cleaned:
            if not isinstance(c, RatK) or c.ctx != ctx:
                raise ContextMismatch("skew coefficients must be RatK over this context")
        self.ctx = ctx
        self.coeffs = tuple(cleaned)

    def __eq__(self, other):
        return (isinstance(other, SkewPoly) and self.ctx == other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx.q, self.coeffs))

    def __repr__(self):
        from .textio import format_skew
        return format_skew(self)


# ---------------------------------------------------------------------------
# twisted-coefficient power sums in K{tau}
# ---------------------------------------------------------------------------

def frak_S_bruteforce(cache, d, n):
    """The inverse isomorphism's image of the sum of a^(-q^n) C_a over monic
    a of degree d, by enumeration: C_a maps to a(t), so this is
    S_d(q^n; chi_t), unreduced over ell(d)^(q^n)."""
    ctx = cache.ctx
    return power_sum_bruteforce(cache, d, ctx.q ** n, SemiChar.chi(ctx, 1, 1))


def frak_S(cache, d, n):
    """The twisted power sum in K{tau} in chain closed form, asserted
    against enumeration (ClosedFormMismatch on disagreement): its image,
    `closed_raw`'s S_d(q^n; chi_t), must equal `frak_S_bruteforce`.
    Needs d >= 0 and n >= 1 (InvalidParams otherwise)."""
    if d < 0 or n < 1:
        raise InvalidParams(f"frak_S needs d >= 0 and n >= 1, got d={d}, n={n}")
    ctx = cache.ctx
    closed = closed_raw(cache, d, ctx.q ** n, SemiChar.chi(ctx, 1, 1))
    if not closed.equals(frak_S_bruteforce(cache, d, n)):
        raise ClosedFormMismatch(
            f"chain closed form disagrees with enumeration at d={d}, n={n}")
    den = APoly._make(ctx, list(closed.den))
    return SkewPoly(ctx, [RatK(w, den) for w in chain_weights(cache, n, d)])


# ---------------------------------------------------------------------------
# the star chain
# ---------------------------------------------------------------------------

def star_chain_check(cache, d):
    """Verify, exactly at truncation d, the chain linking the skew-side
    sums to the star and strict truncated zeta values:

      sum_(k<d) frak_S(k, 1)(1)  =  F*_d(q-1, 1)
                                 =  F_d(q-1, 1) + F_d(1)^q
                                 =  F_d(1) F_d(q-1) - F_d(1, q-1)

    frak_S(k, 1)(1), the sum of its coefficients, is the sum of the chain
    weights over ell(k)^q.  Returns a dict with the common values (RawTPoly
    in no variable) and one boolean per link.
    """
    ctx = cache.ctx
    q = ctx.q
    skew_sum = RawTPoly.zero(ctx, 0)
    for k in range(d):
        frak_S(cache, k, 1)
        total = sum(chain_weights(cache, 1, k), APoly.zero(ctx))
        skew_sum = skew_sum + RawTPoly.over_ell(ctx, 0, {(): list(total.coeffs)}, k, q)

    def zeta(weights, mode="strict"):
        return partial_zeta(cache, d, MatrixData.untwisted(ctx, weights), mode, raw=True)

    f_star, f_strict = zeta((q - 1, 1), "star"), zeta((q - 1, 1))
    f1, fq1, f_1_q1 = zeta((1,)), zeta((q - 1,)), zeta((1, q - 1))
    return {
        "skew_sum": skew_sum,
        "star": f_star,
        "skew_equals_star": skew_sum.equals(f_star),
        "star_equals_strict_plus_power": f_star.equals(f_strict + f1 ** q),
        "star_equals_product_minus_swap": f_star.equals(f1 * fq1 - f_1_q1),
    }
