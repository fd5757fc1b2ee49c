"""Sparse polynomials in t_1, ..., t_s with coefficients in K, for output.

TPoly stores a map from exponent vectors (tuples of length s) to nonzero
RatK coefficients.  It is the normalized form in which t-dependent values
leave the package, and nothing else: power sums, multiple power sums and
truncated zeta values are computed, memoized, compared and expanded into
Tate series as unreduced RawTPoly fractions (`_rawfrac`), and normalized
into a TPoly only where they are printed (`RawTPoly.to_tpoly`); no text
parses into one.  So a TPoly has a constructor, its accessors, equality
and printing; its sum and product stay because the benchmark's span
table (`perfbench/spans.py`) names them.  Coefficients are kept in
K directly: every denominator that occurs is a product of the univariate
theta-polynomials from the fundamental sequences, so no multivariate gcd
is ever needed.  Values combine only when their arity s and field
context agree, and no zero coefficient is stored.
"""

from .errors import ArityMismatch, ContextMismatch, IndexOutOfRange
from .ffield import FqElem
from .poly import APoly, RatK


def _grade_key(exps):
    return (sum(exps), tuple(-e for e in exps))


class TPoly:
    """A sparse polynomial over K in s variables t_1 .. t_s."""

    __slots__ = ("ctx", "s", "terms")

    def __init__(self, ctx, s, terms=None, _clean=False):
        self.ctx = ctx
        self.s = s
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            clean = {}
            for exps, coef in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != s or any(e < 0 for e in exps):
                    raise IndexOutOfRange(f"bad exponent vector {exps} for arity {s}")
                coef = self._as_ratk(ctx, coef)
                if not coef.is_zero():
                    clean[exps] = clean.get(exps, RatK.zero(ctx)) + coef
            self.terms = {e: c for e, c in clean.items() if not c.is_zero()}

    @staticmethod
    def _as_ratk(ctx, coef):
        if isinstance(coef, RatK):
            if coef.ctx != ctx:
                raise ContextMismatch("coefficient from a different context")
            return coef
        if isinstance(coef, APoly):
            return RatK.from_apoly(coef)
        if isinstance(coef, (int, FqElem)):
            return RatK.constant(ctx, coef)
        raise TypeError(f"bad coefficient type {type(coef).__name__}")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx, s):
        return cls(ctx, s, {}, _clean=True)

    @classmethod
    def one(cls, ctx, s):
        return cls.constant(ctx, s, RatK.one(ctx))

    @classmethod
    def constant(cls, ctx, s, coef):
        coef = cls._as_ratk(ctx, coef)
        if coef.is_zero():
            return cls.zero(ctx, s)
        return cls(ctx, s, {(0,) * s: coef}, _clean=True)

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def iter_terms(self):
        """Terms in graded-lexicographic order (deterministic)."""
        for exps in sorted(self.terms, key=_grade_key):
            yield exps, self.terms[exps]

    def _check(self, other):
        if isinstance(other, TPoly):
            if other.ctx != self.ctx:
                raise ContextMismatch("polynomials from different contexts")
            if other.s != self.s:
                raise ArityMismatch(f"arities {self.s} and {other.s} differ")
            return other
        if isinstance(other, (int, FqElem, APoly, RatK)):
            return TPoly.constant(self.ctx, self.s, other)
        return NotImplemented

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for exps, coef in other.terms.items():
            cur = out.get(exps)
            new = coef if cur is None else cur + coef
            if new.is_zero():
                out.pop(exps, None)
            else:
                out[exps] = new
        return TPoly(self.ctx, self.s, out, _clean=True)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                cur = out.get(exps)
                new = prod if cur is None else cur + prod
                if new.is_zero():
                    out.pop(exps, None)
                else:
                    out[exps] = new
        return TPoly(self.ctx, self.s, out, _clean=True)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, FqElem, APoly, RatK)):
            other = TPoly.constant(self.ctx, self.s, other)
        return (isinstance(other, TPoly) and self.ctx == other.ctx
                and self.s == other.s and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        from .textio import format_tpoly
        return format_tpoly(self)
