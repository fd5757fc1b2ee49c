"""Unnormalized multivariate fractions for exact identity verification.

A RawTPoly is a dict of t-monomial -> theta-polynomial numerator over one
shared denominator, with no reduction invariant.  Identity checks build
both sides in this representation and compare by cross multiplication,
so no gcd is ever computed: every step is polynomial multiplication,
which the packed kernel makes cheap even at the large degrees the deeper
parameter grids reach.

Additions prefer a shared denominator: when one denominator exactly
divides the other (the common case here, since every denominator is a
product of ell-sequence factors), the sum keeps the larger one.

Every exact check compares values of this form: the closed-form power
sums (`powersums.closed_raw`) and the enumeration oracle
(`powersums.power_sum_bruteforce`) both write theirs over powers of
ell(d), and the mzv chain sums add and multiply them unreduced.
`to_tpoly` normalizes a value into a TPoly over K, for output only,
cancelling each numerator against a list of factors of the denominator;
`binomial_factors` splits an ell-power denominator into the binomials
theta^(q^j) - theta, against which the gcds are short.
"""

from . import _packed as kern
from .errors import ArityMismatch, IndexOutOfRange
from .poly import APoly, RatK
from .tpoly import TPoly


class RawTPoly:
    __slots__ = ("ctx", "s", "num", "den")

    def __init__(self, ctx, s, num, den):
        self.ctx = ctx
        self.s = s
        # numerators are stored trimmed and nonzero, so that equal
        # denominators mean equal numerators (see `equals`)
        kept = {e: c for e, c in num.items() if c and c[-1]}
        if len(kept) < len(num):
            kept = {e: t for e, c in num.items()
                    if (t := c if not c or c[-1] else kern.trim(list(c)))}
        self.num = kept
        self.den = den

    @classmethod
    def zero(cls, ctx, s):
        return cls(ctx, s, {}, [1])

    @classmethod
    def one(cls, ctx, s):
        return cls(ctx, s, {(0,) * s: [1]}, [1])

    def is_zero(self):
        return not self.num

    def _scaled_num(self, factor):
        return {e: kern.kmul(self.ctx, c, factor) for e, c in self.num.items()}

    def __add__(self, other):
        if other.s != self.s:
            raise ArityMismatch("arities differ")
        ctx = self.ctx
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b = self, other
        if a.den == b.den:
            out = dict(a.num)
            for e, c in b.num.items():
                cur = out.get(e)
                out[e] = list(c) if cur is None else kern.kadd(ctx, cur, c)
            return RawTPoly(ctx, self.s, out, a.den)
        if len(a.den) < len(b.den):
            a, b = b, a
        q, r = kern.kdivmod(ctx, a.den, b.den)
        if not r:
            out = dict(a.num)
            for e, c in b.num.items():
                cur = out.get(e)
                cq = kern.kmul(ctx, c, q)
                out[e] = cq if cur is None else kern.kadd(ctx, cur, cq)
            return RawTPoly(ctx, self.s, out, a.den)
        out = a._scaled_num(b.den)
        for e, c in b.num.items():
            cur = out.get(e)
            ca = kern.kmul(ctx, c, a.den)
            out[e] = ca if cur is None else kern.kadd(ctx, cur, ca)
        return RawTPoly(ctx, self.s, out, kern.kmul(ctx, a.den, b.den))

    def __neg__(self):
        return RawTPoly(self.ctx, self.s,
                        {e: kern.kneg(self.ctx, c) for e, c in self.num.items()},
                        self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if other.s != self.s:
            raise ArityMismatch("arities differ")
        ctx = self.ctx
        out = {}
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                prod = kern.kmul(ctx, c1, c2)
                cur = out.get(e)
                out[e] = prod if cur is None else kern.kadd(ctx, cur, prod)
        return RawTPoly(ctx, self.s, out, kern.kmul(ctx, self.den, other.den))

    def scale_poly(self, c):
        """Multiply by a polynomial given as a coefficient list."""
        if not c:
            return RawTPoly.zero(self.ctx, self.s)
        return RawTPoly(self.ctx, self.s, self._scaled_num(c), self.den)

    def __pow__(self, n):
        result = RawTPoly.one(self.ctx, self.s)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute_one(self, i):
        """Set t_i := 1 (arity drops by one)."""
        if not 1 <= i <= self.s:
            raise IndexOutOfRange(f"variable index {i} outside 1..{self.s}")
        out = {}
        for e, c in self.num.items():
            ne = e[:i - 1] + e[i:]
            cur = out.get(ne)
            out[ne] = list(c) if cur is None else kern.kadd(self.ctx, cur, c)
        return RawTPoly(self.ctx, self.s - 1, out, self.den)

    def equals(self, other):
        """Exact equality of the represented fractions, by cross
        multiplication against the two denominators."""
        if other.s != self.s:
            raise ArityMismatch("arities differ")
        ctx = self.ctx
        if self.den == other.den:
            return self.num == other.num
        for e in set(self.num) | set(other.num):
            c1 = self.num.get(e, [])
            c2 = other.num.get(e, [])
            if kern.kmul(ctx, c1, other.den) != kern.kmul(ctx, c2, self.den):
                return False
        return True

    def to_tpoly(self, factors=None):
        """The same value as a TPoly, every coefficient normalized in K.

        `factors` are coefficient lists whose product is den (default: den
        alone, one gcd per coefficient).  A numerator N is cancelled one
        factor at a time, since gcd(N, f F) = gcd(N, f) gcd(N / gcd(N, f), F).
        A binomial theta^m - theta is met through N mod it (`kmod_binomial`);
        it is squarefree, so a later copy needs only the gcd with what the
        previous copy cancelled, and none once that is 1.  den / g is
        rebuilt only when something cancelled."""
        ctx = self.ctx
        # (f, m) with m = 0 unless f is theta^m - theta
        parts = [(f, len(f) - 1 if len(f) > 2 and f == _binomial(ctx, len(f) - 1)
                  else 0) for f in factors or (self.den,)]
        den = APoly._make(ctx, list(self.den))
        terms = {}
        for e, n in self.num.items():
            g, common = [1], {}
            for f, m in parts:
                c = common.get(m, f)
                if len(c) == 1:
                    continue
                gf = kern.kgcd(ctx, c, kern.kmod_binomial(ctx, n, m) if m else n)
                if m:
                    common[m] = gf
                if len(gf) > 1:
                    n = kern.kexactdiv(ctx, n, gf)
                    g = gf if len(g) == 1 else kern.kmul(ctx, g, gf)
            d = den if len(g) == 1 else APoly._make(
                ctx, kern.kexactdiv(ctx, self.den, g))
            terms[e] = RatK(APoly._make(ctx, n), d, _reduced=True)
        return TPoly(ctx, self.s, terms, _clean=True)

    def __repr__(self):
        from .textio import format_tpoly
        return format_tpoly(self.to_tpoly())


def _binomial(ctx, m):
    """theta^m - theta (m >= 2) as a coefficient list."""
    return [0, ctx.neg[1]] + [0] * (m - 2) + [1]


def binomial_factors(ctx, den):
    """den split into binomials theta^(q^j) - theta by trial division from
    the largest j, then the cofactor left over (a unit when den is a
    product of ell(i) powers): factors for `RawTPoly.to_tpoly`."""
    m = ctx.q
    while m * ctx.q < len(den):
        m *= ctx.q
    out, rest = [], list(den)
    while m > 1:
        f = _binomial(ctx, m)
        while len(rest) > m and not kern.kmod_binomial(ctx, rest, m):
            rest = kern.kexactdiv(ctx, rest, f)
            out.append(f)
        m //= ctx.q
    return out + [rest]
