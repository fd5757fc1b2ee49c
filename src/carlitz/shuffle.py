"""Per-degree exact verification of the shuffle-product identities.

Every product identity between the zeta values in scope is equivalent to
a family of exact identities between truncated sums, one for each degree:
both sides are polynomials in t_1, t_2 over K, and equality is exact.
This module builds both sides of each such identity degree by degree in
the unnormalized-fraction representation (RawTPoly), where the only
operations are polynomial multiplication and addition; equality is
decided by cross multiplication.

The engine fixes arity 2 with the first evaluation character on t_1 and
the second on t_2; untwisted values are constants in the t-variables.
Semi-characters are addressed by short keys:

    "one"  trivial          "s"  a -> a(t_1)      "p"   a -> a(t_2)
    "sp"   a -> a(t_1)a(t_2)                      "nu"  a -> t_1^deg(a)
"""

from ._rawfrac import RawTPoly
from .errors import InvalidParams
from .powersums import ChainSums, SemiChar, closed_form, power_sum_raw


class ShuffleEngine:
    """Per-degree power sums and multiple sums over one context, addressed
    by semi-character keys; the values are memoized in the SeqCache."""

    def __init__(self, cache):
        self.cache = cache
        self.ctx = ctx = cache.ctx
        self._chars = {"one": SemiChar(ctx, 2), "s": SemiChar.chi(ctx, 2, 1),
                       "p": SemiChar.chi(ctx, 2, 2), "nu": SemiChar.nu(ctx, 2, 1),
                       "sp": SemiChar(ctx, 2, varis=(1, 2))}

    # -- single power sums ------------------------------------------------

    def S(self, d, n, sig):
        """The degree-d power sum of order n twisted by the keyed
        semi-character: `power_sum_raw`, for orders with a closed form."""
        if sig not in self._chars:
            raise InvalidParams(f"unknown semi-character key {sig!r}")
        sigma = self._chars[sig]
        if closed_form(self.ctx.q, n, sigma) is None:
            raise InvalidParams(f"no closed form for order {n} twisted by {sig!r}")
        return power_sum_raw(self.cache, d, n, sigma)

    def alemma_head(self, d):
        """The head term of the depth-two decomposition of S_d(2;sp):
        S_d(1;sigma) S_d(1;psi) = b_d(t1) b_d(t2) / ell(d)^2."""
        return self.S(d, 1, "s") * self.S(d, 1, "p")

    # -- multiple and truncated sums ----------------------------------------

    def _chain_sums(self):
        return ChainSums(self.S, RawTPoly.zero(self.ctx, 2), self.cache.table("shuffle chains"))

    def F(self, d, n, sig):
        """Sum of S(i, n, sig) over 0 <= i < d."""
        return self.Fmulti(d, ((sig, n),))

    def Smulti(self, d, cols, mode="strict"):
        """Multiple power sum of degree d for columns ((sig, n), ...)."""
        return self._chain_sums().multi(d, cols, mode)

    def Fmulti(self, d, cols, mode="strict"):
        """Sum of Smulti(i, cols, mode) over 0 <= i < d."""
        return self._chain_sums().truncated(d, cols, mode)


# ---------------------------------------------------------------------------
# the identity family, per degree: each returns (lhs, rhs)
# ---------------------------------------------------------------------------

def product_weight_one_untwisted(eng, d):
    """F_d(1)^2 = F_d(2) + 2 F_d(1,1)."""
    lhs = eng.F(d, 1, "one") ** 2
    two = eng.Fmulti(d, (("one", 1), ("one", 1)))
    rhs = eng.F(d, 2, "one") + two + two
    return lhs, rhs


def product_weight_one_single(eng, d, sig="s"):
    """F_d(1;sigma) F_d(1) = F_d[[sigma,1],[1,1]] + F_d(2;sigma)."""
    lhs = eng.F(d, 1, sig) * eng.F(d, 1, "one")
    rhs = eng.Fmulti(d, ((sig, 1), ("one", 1))) + eng.F(d, 2, sig)
    return lhs, rhs


def product_weight_one_split(eng, d):
    """F_d(1;sigma) F_d(1;psi) = F_d(2;sigma psi)."""
    lhs = eng.F(d, 1, "s") * eng.F(d, 1, "p")
    rhs = eng.F(d, 2, "sp")
    return lhs, rhs


def product_weight_one_joint(eng, d):
    """F_d(1) F_d(1;sigma psi) = F_d(2;sigma psi) + F_d[[1,sp]] + F_d[[sp,1]]
    - F_d[[psi,sigma]] - F_d[[sigma,psi]]."""
    lhs = eng.F(d, 1, "one") * eng.F(d, 1, "sp")
    rhs = (eng.F(d, 2, "sp")
           + eng.Fmulti(d, (("one", 1), ("sp", 1)))
           + eng.Fmulti(d, (("sp", 1), ("one", 1)))
           - eng.Fmulti(d, (("p", 1), ("s", 1)))
           - eng.Fmulti(d, (("s", 1), ("p", 1))))
    return lhs, rhs


def per_degree_single(eng, d, sig="s"):
    """S_d(1;sigma) S_d(1) = S_d(2;sigma) - S_d[[1,sigma],[1,1]]."""
    lhs = eng.S(d, 1, sig) * eng.S(d, 1, "one")
    rhs = eng.S(d, 2, sig) - eng.Smulti(d, (("one", 1), (sig, 1)))
    return lhs, rhs


def per_degree_split(eng, d):
    """S_d(1;sigma) S_d(1;psi) = S_d(2;sp) - S_d[[p,s]] - S_d[[s,p]]."""
    lhs = eng.S(d, 1, "s") * eng.S(d, 1, "p")
    rhs = (eng.S(d, 2, "sp") - eng.Smulti(d, (("p", 1), ("s", 1)))
           - eng.Smulti(d, (("s", 1), ("p", 1))))
    return lhs, rhs


def per_degree_joint(eng, d):
    """S_d(1) S_d(1;sp) = S_d(2;sp) - S_d[[p,s]] - S_d[[s,p]]."""
    lhs = eng.S(d, 1, "one") * eng.S(d, 1, "sp")
    rhs = (eng.S(d, 2, "sp") - eng.Smulti(d, (("p", 1), ("s", 1)))
           - eng.Smulti(d, (("s", 1), ("p", 1))))
    return lhs, rhs


def depth_two_decomposition(eng, d):
    """S_d(2;sp) = S_d(1;s) S_d(1;p) + S_d[[p,s]] + S_d[[s,p]]."""
    lhs = eng.S(d, 2, "sp")
    rhs = (eng.alemma_head(d) + eng.Smulti(d, (("p", 1), ("s", 1)))
           + eng.Smulti(d, (("s", 1), ("p", 1))))
    return lhs, rhs


def difference_identity(eng, d):
    """F_d(1)F_d(1;sp) - F_d(1;s)F_d(1;p) = F_d[[1,sp]] + F_d[[sp,1]]
    - F_d[[p,s]] - F_d[[s,p]]."""
    lhs = eng.F(d, 1, "one") * eng.F(d, 1, "sp") - eng.F(d, 1, "s") * eng.F(d, 1, "p")
    rhs = (eng.Fmulti(d, (("one", 1), ("sp", 1)))
           + eng.Fmulti(d, (("sp", 1), ("one", 1)))
           - eng.Fmulti(d, (("p", 1), ("s", 1)))
           - eng.Fmulti(d, (("s", 1), ("p", 1))))
    return lhs, rhs


def degree_character_identity(eng, d):
    """F_d(1;nu) F_d(1) = F_d(2;nu) + F_d[[nu,1]] + F_d[[1,nu]]."""
    lhs = eng.F(d, 1, "nu") * eng.F(d, 1, "one")
    rhs = (eng.F(d, 2, "nu") + eng.Fmulti(d, (("nu", 1), ("one", 1)))
           + eng.Fmulti(d, (("one", 1), ("nu", 1))))
    return lhs, rhs


def weight_q_product(eng, d):
    """F_d(1) F_d(q-1) = F_d(q) + F_d(q-1,1) + F_d(1,q-1)."""
    q = eng.ctx.q
    lhs = eng.F(d, 1, "one") * eng.F(d, q - 1, "one")
    rhs = (eng.F(d, q, "one")
           + eng.Fmulti(d, (("one", q - 1), ("one", 1)))
           + eng.Fmulti(d, (("one", 1), ("one", q - 1))))
    return lhs, rhs


def star_bridge(eng, d):
    """F*_d(q-1,1) = F_d(q-1,1) + F_d(1)^q."""
    q = eng.ctx.q
    cols = (("one", q - 1), ("one", 1))
    lhs = eng.Fmulti(d, cols, mode="star")
    rhs = eng.Fmulti(d, cols, mode="strict") + eng.F(d, 1, "one") ** q
    return lhs, rhs
