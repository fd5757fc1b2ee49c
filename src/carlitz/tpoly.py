"""Sparse polynomials in t_1, ..., t_s with coefficients in K.

TPoly stores a map from exponent vectors (tuples of length s) to nonzero
RatK coefficients.  It is the normalized form in which t-dependent values
leave the package: power sums, multiple power sums and truncated zeta
values are computed as unreduced RawTPoly fractions (`_rawfrac`) and
normalized into a TPoly for output; the skew ring and the Tate series
read and build TPoly values at their boundaries.  Coefficients are kept
in K directly: every denominator that occurs is a product of the
univariate theta-polynomials from the fundamental sequences, so no
multivariate gcd is ever needed.

Values combine only when their arity s and field context agree; the
result of every operation is normalized (no stored zero coefficients).
"""

from .errors import ArityMismatch, ContextMismatch, IndexOutOfRange, InexactDivision
from .ffield import FqElem
from .poly import NEG_INF, APoly, RatK


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

    @classmethod
    def variable(cls, ctx, s, i):
        if not 1 <= i <= s:
            raise IndexOutOfRange(f"variable index {i} outside 1..{s}")
        exps = tuple(1 if j == i - 1 else 0 for j in range(s))
        return cls(ctx, s, {exps: RatK.one(ctx)}, _clean=True)

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def iter_terms(self):
        """Terms in graded-lexicographic order (deterministic)."""
        for exps in sorted(self.terms, key=_grade_key):
            yield exps, self.terms[exps]

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), RatK.zero(self.ctx))

    def constant_coefficient(self):
        return self.terms.get((0,) * self.s, RatK.zero(self.ctx))

    def as_ratk(self):
        """The value as an element of K, if no variable occurs."""
        if not self.terms:
            return RatK.zero(self.ctx)
        if len(self.terms) == 1 and (0,) * self.s in self.terms:
            return self.terms[(0,) * self.s]
        raise InexactDivision(f"{self!r} is not constant in the t-variables")

    def degree_in(self, i):
        """Maximum exponent of t_i; 0 if t_i is absent from a nonzero value,
        NEG_INF only for the zero polynomial."""
        if not 1 <= i <= self.s:
            raise IndexOutOfRange(f"variable index {i} outside 1..{self.s}")
        if not self.terms:
            return NEG_INF
        return max(e[i - 1] for e in self.terms)

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

    __radd__ = __add__

    def __neg__(self):
        return TPoly(self.ctx, self.s,
                     {e: -c for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, coef):
        """Multiply by a scalar from K."""
        coef = self._as_ratk(self.ctx, coef)
        if coef.is_zero():
            return TPoly.zero(self.ctx, self.s)
        return TPoly(self.ctx, self.s,
                     {e: c * coef for e, c in self.terms.items()}, _clean=True)

    def __mul__(self, other):
        if isinstance(other, (int, FqElem, APoly, RatK)):
            return self.scale(other)
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

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a TPoly")
        result = TPoly.one(self.ctx, self.s)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def frobenius(self, n=1):
        """Coefficient-wise q^n-power Frobenius (F_q[t]-linear twist)."""
        return TPoly(self.ctx, self.s,
                     {e: c.frobenius(n) for e, c in self.terms.items()},
                     _clean=True)

    # -- substitution --------------------------------------------------------

    def substitute(self, i, value):
        """Exact substitution t_i := value in K; the arity drops by one."""
        if not 1 <= i <= self.s:
            raise IndexOutOfRange(f"variable index {i} outside 1..{self.s}")
        value = self._as_ratk(self.ctx, value)
        out = {}
        for exps, coef in self.terms.items():
            k = exps[i - 1]
            new_exps = exps[:i - 1] + exps[i:]
            c = coef * value ** k if k else coef
            cur = out.get(new_exps)
            new = c if cur is None else cur + c
            if new.is_zero():
                out.pop(new_exps, None)
            else:
                out[new_exps] = new
        return TPoly(self.ctx, self.s - 1, out, _clean=True)

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
