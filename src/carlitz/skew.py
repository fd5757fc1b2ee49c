"""The twisted polynomial ring K{tau} and the Carlitz module action.

Multiplication obeys tau c = c^q tau, so (a tau^i)(b tau^j) =
a b^(q^i) tau^(i+j).  The Carlitz action sends theta to theta + tau and
extends to a ring homomorphism from A.  The linear isomorphism between
polynomials in one variable t and K{tau} sends t^i to the action of
theta^i; its inverse sends tau^j to the degree-j fundamental polynomial
b_j(t), which is also the formal evaluation at the period function:
f = sum f_i tau^i goes to sum f_i b_i(t).

frak_S(d, n) is the twisted-coefficient power sum: the sum of
a^(-q^n) C_a over monic a of degree d.  It is computed both by
enumeration and through the chain closed form (tau^(i_n) in the last
chain slot, matching the expansion of b); the two must agree exactly or
ClosedFormMismatch is raised.  Since C_a is F_q-linear in a, the
enumeration is eta of the enumerated S_d(q^n; chi_t): no Carlitz action
is computed per monic.
"""

from .errors import ClosedFormMismatch, ContextMismatch
from .ffield import FqElem
from .poly import APoly, RatK
from .powersums import SemiChar, chain_weights, power_sum_bruteforce
from .tpoly import TPoly


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

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (RatK.one(ctx),))

    @classmethod
    def tau(cls, ctx, power=1):
        return cls(ctx, tuple([RatK.zero(ctx)] * power + [RatK.one(ctx)]))

    @classmethod
    def constant(cls, ctx, c):
        if isinstance(c, APoly):
            c = RatK.from_apoly(c)
        elif not isinstance(c, RatK):
            c = RatK.constant(ctx, c)
        return cls(ctx, (c,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RatK.zero(self.ctx)

    def _coerce(self, other):
        if isinstance(other, SkewPoly):
            if other.ctx != self.ctx:
                raise ContextMismatch("skew polynomials from different contexts")
            return other
        if isinstance(other, (int, APoly, RatK)):
            return SkewPoly.constant(self.ctx, other)
        return NotImplemented

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly(self.ctx,
                        [self.coefficient(i) + other.coefficient(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return SkewPoly(self.ctx, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return SkewPoly.zero(self.ctx)
        out = [RatK.zero(self.ctx)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b.frobenius(i)
        return SkewPoly(self.ctx, out)

    def __rmul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    # -- evaluations --------------------------------------------------------

    def eval_at_one(self):
        """The sum of the coefficients."""
        total = RatK.zero(self.ctx)
        for c in self.coeffs:
            total = total + c
        return total

    def __eq__(self, other):
        if isinstance(other, (int, APoly, RatK)):
            other = SkewPoly.constant(self.ctx, other)
        return (isinstance(other, SkewPoly) and self.ctx == other.ctx
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx.q, self.coeffs))

    def __repr__(self):
        from .textio import format_skew
        return format_skew(self)


# ---------------------------------------------------------------------------
# the Carlitz action and the basis isomorphism
# ---------------------------------------------------------------------------

def _act(ctx, coeffs):
    """The sum of c_k X^k over the K-coefficients c_k, ascending, with
    X = theta + tau, by Horner's rule."""
    X = SkewPoly(ctx, (RatK.from_apoly(APoly.theta(ctx)), RatK.one(ctx)))
    acc = SkewPoly.zero(ctx)
    for c in reversed(coeffs):
        acc = acc * X + SkewPoly.constant(ctx, c)
    return acc


def carlitz_action(cache, a):
    """The image of a in K{tau} under the ring homomorphism with
    theta -> theta + tau; multiplicative: the image of ab is the product
    of the images."""
    ctx = cache.ctx
    return _act(ctx, [FqElem(ctx, code) for code in a.coeffs])


def eta(cache, tp):
    """The linear isomorphism from one-variable polynomials over K to
    K{tau}: t^i maps to the Carlitz action of theta^i."""
    if tp.s != 1:
        raise ContextMismatch("eta acts on one-variable polynomials")
    if tp.is_zero():
        return SkewPoly.zero(cache.ctx)
    return _act(cache.ctx, [tp.coefficient((k,)) for k in range(int(tp.degree_in(1)) + 1)])


def eta_inv(cache, f):
    """The inverse isomorphism: tau^j maps to b_j(t).  It is also the formal
    evaluation at the period function (f(omega) = g(t) omega for g the
    image of f), and sends the Carlitz action of a to a(t)."""
    ctx = cache.ctx
    total = TPoly.zero(ctx, 1)
    for j, c in enumerate(f.coeffs):
        if not c.is_zero():
            total = total + cache.b_tpoly(j, 1, 1).scale(c)
    return total


# ---------------------------------------------------------------------------
# twisted-coefficient power sums in K{tau}
# ---------------------------------------------------------------------------

def frak_S_bruteforce(cache, d, n):
    """Sum of a^(-q^n) C_a over monic a of degree d, by enumeration.  The
    Carlitz action is F_q-linear in a, C_a = sum of a_i C_(theta^i), so
    the sum is eta of the enumerated S_d(q^n; chi_t)."""
    ctx = cache.ctx
    return eta(cache, power_sum_bruteforce(cache, d, ctx.q ** n,
                                           SemiChar.chi(ctx, 1, 1)).to_tpoly())


def frak_S_closed(cache, d, n):
    """The chain closed form: ell(d)^(q^(n-1) - q^n) times the nested sum
    over chains d >= i_1 >= ... >= i_n >= 0 of the ell-power products,
    contributing to tau^(i_n)."""
    den = cache.ell_pow(d, cache.ctx.q ** n)
    return SkewPoly(cache.ctx, [RatK(w, den) for w in chain_weights(cache, n, d)])


def frak_S(cache, d, n):
    """The twisted power sum in K{tau}, with the closed form asserted
    against enumeration (ClosedFormMismatch on disagreement)."""
    closed = frak_S_closed(cache, d, n)
    brute = frak_S_bruteforce(cache, d, n)
    if closed != brute:
        raise ClosedFormMismatch(
            f"chain closed form disagrees with enumeration at d={d}, n={n}")
    return closed


# ---------------------------------------------------------------------------
# the star chain
# ---------------------------------------------------------------------------

def star_chain_check(cache, d):
    """Verify, exactly at truncation d, the chain linking the skew-side
    sums to the star and strict truncated zeta values:

      sum_(k<d) frak_S(k, 1)(1)  =  F*_d(q-1, 1)
                                 =  F_d(q-1, 1) + F_d(1)^q
                                 =  F_d(1) F_d(q-1) - F_d(1, q-1)

    Returns a dict with the common values and one boolean per link.
    """
    from .mzv import MatrixData, partial_zeta
    ctx = cache.ctx
    q = ctx.q
    skew_sum = RatK.zero(ctx)
    for k in range(d):
        skew_sum = skew_sum + frak_S(cache, k, 1).eval_at_one()
    data = MatrixData.untwisted(ctx, (q - 1, 1))
    f_star = partial_zeta(cache, d, data, mode="star").as_ratk()
    f_strict = partial_zeta(cache, d, data, mode="strict").as_ratk()
    f1 = partial_zeta(cache, d, MatrixData.untwisted(ctx, (1,))).as_ratk()
    fq1 = partial_zeta(cache, d, MatrixData.untwisted(ctx, (q - 1,))).as_ratk()
    f_1_q1 = partial_zeta(cache, d, MatrixData.untwisted(ctx, (1, q - 1))).as_ratk()
    return {
        "skew_sum": skew_sum,
        "star": f_star,
        "skew_equals_star": skew_sum == f_star,
        "star_equals_strict_plus_power": f_star == f_strict + f1 ** q,
        "star_equals_product_minus_swap": f_star == f1 * fq1 - f_1_q1,
    }
