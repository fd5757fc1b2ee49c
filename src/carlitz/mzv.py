"""Matrix-data multiple power sums, truncated zeta values, and the
finite zeta sums at negative integers (Bernoulli-Goss polynomials).

A matrix data is an ordered list of columns (sigma_i, n_i) pairing a
semi-character with a positive weight.  The multiple power sum of degree
d iterates over strictly decreasing degree chains below d (or weakly
decreasing ones, the "star" variant), and the degree-d_max partial zeta
sum accumulates degrees 0 .. d_max-1.  Empty inner chains contribute
zero; the empty matrix data has value 1.  Both are summed as unreduced
RawTPoly `power_sum` values and normalized into a TPoly once, for output.

The Bernoulli-Goss polynomial BG_n is the finite sum over all degrees of
the order-(-n) power sums.  The truncation bound floor(digitsum_q(n)/(q-1))
is hardened by computing the next two degree terms too, and raising
TailNotVanishing unless both vanish, so a wrong cutoff can never silently
truncate.
"""

import warnings
from typing import NamedTuple

from .errors import (ArityMismatch, ContextMismatch, InvalidParams, TailNotVanishing,
                     WeightZero)
from .poly import APoly, RatK, digit_sum, irreducibles_of_degree, necklace_count
from ._rawfrac import RawTPoly
from .powersums import ChainSums, SemiChar, power_sum


class MatrixData:
    """Columns (sigma_i, n_i) of semi-characters and weights; the empty
    data (depth 0) is allowed and has value 1."""

    __slots__ = ("ctx", "s", "columns")

    def __init__(self, ctx, columns, s=None):
        cols = []
        max_s = 0
        for sigma, n in columns:
            if not isinstance(sigma, SemiChar) or sigma.ctx != ctx:
                raise ContextMismatch("column semi-character from another context")
            if int(n) < 1:
                raise WeightZero(f"column weight must be >= 1, got {n}")
            cols.append((sigma, int(n)))
            max_s = max(max_s, sigma.s)
        self.ctx = ctx
        self.s = max_s if s is None else s
        if self.s < max_s:
            raise ArityMismatch(f"arity {s} too small for the columns")
        self.columns = tuple((sigma.with_arity(self.s), n) for sigma, n in cols)

    @classmethod
    def untwisted(cls, ctx, weights, s=0):
        """Matrix data with all-trivial semi-characters."""
        triv = SemiChar.trivial(ctx, s)
        return cls(ctx, [(triv, n) for n in weights], s=s)

    @property
    def weight(self):
        return sum(n for _, n in self.columns)

    @property
    def depth(self):
        return len(self.columns)

    def __eq__(self, other):
        return (isinstance(other, MatrixData) and self.ctx == other.ctx
                and self.s == other.s and self.columns == other.columns)

    def __hash__(self):
        return hash((self.ctx.q, self.s, self.columns))

    def __repr__(self):
        from .textio import format_matrix_data
        return format_matrix_data(self)


def multi_power_sum(cache, d, data, mode="strict", raw=False):
    """The degree-d multiple twisted power sum of the matrix data.

    strict: the top column is taken at degree d and the remaining columns
    run over chains d > i_2 > ... > i_r >= 0; star: weakly decreasing
    chains d >= i_2 >= ... >= i_r >= 0.  Depth 0 gives 1 at d = 0 and 0
    above, so that the empty data sums to 1; empty inner chains give 0.

    The chain sum runs over unreduced `power_sum` values, and the
    result is normalized once (`RawTPoly.to_tpoly`); raw returns the
    RawTPoly instead, for a caller that sums before normalizing.  Needs
    d >= 0 (InvalidParams otherwise).
    """
    if mode not in ("strict", "star"):
        raise InvalidParams(f"unknown mode {mode!r}")
    if d < 0:
        raise InvalidParams(f"the multiple power sum needs d >= 0, got d={d}")
    if data.depth == 0:
        value = (RawTPoly.zero if d else RawTPoly.one)(cache.ctx, data.s)
    else:
        chains = ChainSums(lambda k, n, sigma: power_sum(cache, k, n, sigma),
                           RawTPoly.zero(cache.ctx, data.s), cache.table("exact chains"))
        value = chains.multi(d, data.columns, mode)
    return value if raw else value.to_tpoly()


def partial_zeta(cache, d_max, data, mode="strict", budget=None, raw=False):
    """The truncated zeta value: sum of the multiple power sums over
    degrees 0 .. d_max - 1 (zero when d_max = 0), added unreduced and
    normalized once; raw returns the RawTPoly instead.  A budget given
    must be the cache's, which alone bounds the enumerations.  Needs
    d_max >= 0 (InvalidParams otherwise)."""
    if d_max < 0:
        raise InvalidParams(f"the truncated zeta value needs d >= 0, got d={d_max}")
    if budget is not None and budget != cache.budget:
        raise InvalidParams(f"budget {budget} differs from the cache's {cache.budget}")
    total = RawTPoly.zero(cache.ctx, data.s)
    for k in range(d_max):
        total = total + multi_power_sum(cache, k, data, mode, raw=True)
    return total if raw else total.to_tpoly()


# ---------------------------------------------------------------------------
# Bernoulli-Goss polynomials
# ---------------------------------------------------------------------------

class BGPoly(NamedTuple):
    """A finite zeta sum at a negative integer: value = sum over k of the
    degree-k power sums of order -n, which lies in A."""
    n: int
    value: APoly
    k_stop: int


def bernoulli_goss(cache, n):
    """BG_n for n >= 1, summing degrees 0 .. floor(digitsum_q(n)/(q-1)).

    The cutoff comes from the base-q digit-sum bound for vanishing power
    sums; the two degrees after it are computed and must vanish
    (TailNotVanishing otherwise), so the heuristic can never silently
    return a wrong value.
    """
    ctx = cache.ctx
    if n < 1:
        raise InvalidParams("Bernoulli-Goss polynomials need n >= 1")
    if n % (ctx.q - 1) == 0:
        warnings.warn(f"n = {n} is divisible by q - 1 = {ctx.q - 1}; "
                      "this zeta value vanishes trivially", stacklevel=2)
    k_stop = digit_sum(ctx.q, n) // (ctx.q - 1)
    triv = SemiChar.trivial(ctx, 0)
    total = APoly.zero(ctx)
    for k in range(k_stop + 1):
        # a sum of negative order is enumerated over 1: its one numerator
        total = total + APoly._make(ctx, list(power_sum(cache, k, -n, triv).num.get((), ())))
    for k in (k_stop + 1, k_stop + 2):
        if not power_sum(cache, k, -n, triv).is_zero():
            raise TailNotVanishing(
                f"degree-{k} power sum of order {-n} did not vanish; "
                f"the digit-sum cutoff {k_stop} is wrong for n = {n}")
    return BGPoly(n, total, k_stop)


def _bg_terms(cache, d):
    """(i, j, b_i(theta^(q^d)) ell_ratio(d, i) ell_ratio(d-1, j)) for
    d >= i > j >= 0: the terms b_i(theta^(q^d)) / (ell(i) ell(j)) of the
    Bernoulli-Goss double sum, as numerators over ell(d) ell(d-1)."""
    tqd = cache.theta_q(d)
    for i in range(1, d + 1):
        top = cache.b_eval(i, tqd) * cache.ell_ratio(d, i)
        for j in range(i):
            yield i, j, top * cache.ell_ratio(d - 1, j)


def bg_formula_rhs(cache, d):
    """The closed double sum for BG at n = q^d - 2:

        -(sum over d >= i > j >= 0 of b_i(theta^(q^d)) / (ell(i) ell(j)))

    summed as numerators over the common denominator ell(d) ell(d-1), and
    divided exactly (InexactDivision unless the result lands in A)."""
    if d < 1:
        raise InvalidParams("the double-sum formula needs d >= 1")
    num = sum((t for _, _, t in _bg_terms(cache, d)), APoly.zero(cache.ctx))
    return -(num / (cache.ell(d) * cache.ell(d - 1)))


class BGDegrees(NamedTuple):
    """Predicted theta-degrees of BG_(q^d - 2) and of the three blocks of
    its double-sum decomposition (the single dominant product, the block
    where the top two terms merge, and the remaining double sum)."""
    degree: int
    dominant_degree: int
    merged_degree: int
    tail_degree: int


def bg_degree_formula(q, d):
    """Degree predictions: (d-1) q^d - 2q(q^(d-1) - 1)/(q-1) for the value
    itself, with the block degrees from the decomposition lemma."""
    if d < 1:
        raise InvalidParams("degree formula needs d >= 1")
    geo = sum(q ** t for t in range(1, d))       # q + ... + q^(d-1)
    geo2 = sum(q ** t for t in range(1, d - 1))  # q + ... + q^(d-2)
    main = (d - 1) * q ** d - 2 * q * (q ** (d - 1) - 1) // (q - 1)
    dominant = (d - 1) * q ** d - 2 * geo
    merged = (d - 2) * q ** d - geo2
    return BGDegrees(main, dominant, merged, merged)


def bg_block_values(cache, d):
    """The three blocks of the double-sum decomposition, exactly:
    dominant = alpha_d beta_(d-1); merged = (alpha_d + alpha_(d-1)) *
    sum of beta_j for j <= d-2; tail = the remaining double sum, where
    alpha_i = b_i(theta^(q^d))/ell(i) and beta_j = 1/ell(j).  Each block
    is a partial sum of the `_bg_terms` over ell(d) ell(d-1), normalized
    once."""
    sums = [APoly.zero(cache.ctx)] * 3
    for i, j, term in _bg_terms(cache, d):
        block = 0 if j == d - 1 else 1 if i >= d - 1 else 2
        sums[block] = sums[block] + term
    den = cache.ell(d) * cache.ell(d - 1)
    return tuple(RatK(num, den) for num in sums)


class CongruenceRow(NamedTuple):
    modulus: APoly
    bg_residue: APoly
    partial_zeta_residue: APoly
    congruent: bool
    bg_vanishes: bool


class CongruenceSurvey(NamedTuple):
    d: int
    n: int
    rows: tuple
    zero_count: int
    zero_bound: int
    irreducible_count: int
    necklace_value: int
    divisor_poly: APoly
    divisor_consistent: bool

    @property
    def all_congruent(self):
        return all(r.congruent for r in self.rows)

    @property
    def bound_holds(self):
        return self.zero_count <= self.zero_bound

    @property
    def count_matches_necklace(self):
        return self.irreducible_count == self.necklace_value


def bg_congruence_survey(cache, d):
    """For every monic irreducible P of degree d, compare BG_(q^d - 2) and
    the degree-d truncated zeta sum of weight one modulo P, and report the
    vanishing statistics against the divisor-count bound.  The truncated
    sum is one fraction over ell(d-1), its numerator summed over ell ratios."""
    if d < 1:
        raise InvalidParams("the congruence survey needs d >= 1")
    ctx = cache.ctx
    q = ctx.q
    n = q ** d - 2
    bg = bernoulli_goss(cache, n).value
    # the A-element whose degree-d prime divisors are exactly the vanishing
    # P, over ell(d-1) the truncated weight-one zeta sum of 1/ell(i), i < d
    divisor_poly = sum((cache.ell_ratio(d - 1, i) for i in range(d)), APoly.zero(ctx))
    fd = RatK(divisor_poly, cache.ell(d - 1))
    rows = []
    zero_count = 0
    for P in irreducibles_of_degree(ctx, d):
        bg_res = bg % P
        fd_res = fd.reduce_mod(P)
        vanishes = bg_res.is_zero()
        zero_count += vanishes
        rows.append(CongruenceRow(P, bg_res, fd_res, bg_res == fd_res, vanishes))
    consistent = all((row.modulus.is_zero() or
                      (divisor_poly % row.modulus).is_zero() == row.bg_vanishes)
                     for row in rows)
    bound = (q ** d - q) // (d * (q - 1))
    return CongruenceSurvey(
        d=d, n=n, rows=tuple(rows), zero_count=zero_count, zero_bound=bound,
        irreducible_count=len(rows), necklace_value=necklace_count(q, d),
        divisor_poly=divisor_poly, divisor_consistent=consistent)
