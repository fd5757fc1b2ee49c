"""Unnormalized multivariate fractions for exact identity verification.

A RawTPoly is a dict of t-monomial -> theta-polynomial numerator over one
shared denominator, with no reduction invariant, so no gcd is ever
computed: every step is polynomial multiplication, which the packed
kernel makes cheap even at the large degrees the deeper parameter grids
reach.  Sums of products accumulate through the kernel's fused
multiply-add, `kmul(ctx, a, b, c)` = c + a*b, which unpacks once, and most
denominator ratios (products of theta^(q^j) - theta) are sparse operands,
which the kernel multiplies as sums of shifted multiples.

Over a field with byte codecs (q <= 16) the numerators and the
denominator are trimmed `bytes` (else lists; values given as lists are
converted), and the kernel returns bytes for bytes, so products and sums
build no Python list; values leave as lists where they become an APoly.

Each denominator is scaled once: `RawTPoly.sum` adds the terms over one
denominator first, then brings the distinct ones up smallest first.  When
one denominator divides the other (the common case, every denominator
being a product of ell-sequence factors), the other side's numerators
are multiplied by the sparse quotient; `equals` compares through that
quotient too, and cross multiplies only when neither divides the other.

Every power sum and every exact check is a value of this form: the
closed forms (`powersums.closed_raw`) and the enumeration oracle
(`powersums.power_sum_bruteforce`) both write theirs over powers of
ell(d), `powersums.power_sum` memoizes them so, the mzv chain sums add
and multiply them unreduced, the Tate series expand them numerator by
numerator (`TateSeries.from_raw`), the skew checks compare b-expansions
and sum truncated zeta values in it, and `substitute` specializes a
variable at a theta-polynomial (t_i := 1, theta, theta^q) with the
denominator unchanged.
`to_tpoly` normalizes a value into a TPoly over K where it is printed,
the one normalization path: it splits the denominator into the binomials
theta^(q^j) - theta and a cofactor (`_binomial_split`), and cancels each
numerator one factor at a time, so that every gcd is with one short
binomial instead of the whole product.
"""

from . import _packed as kern
from .errors import ArityMismatch, IndexOutOfRange
from .poly import APoly, RatK, power
from .tpoly import TPoly


def _stored(kind, c):
    """Coefficients c trimmed, as a new value of type `kind` (bytes or list)."""
    return kern.trim(bytes(bytearray(c)) if kind is bytes else list(c))


class RawTPoly:
    __slots__ = ("ctx", "s", "num", "den")

    def __init__(self, ctx, s, num, den):
        self.ctx = ctx
        self.s = s
        kind = bytes if kern._codec(ctx) else list
        # numerators are stored trimmed and nonzero, so that equal
        # denominators mean equal numerators (see `equals`)
        kept = {e: c for e, c in num.items() if c and c[-1] and type(c) is kind}
        if len(kept) < len(num):
            kept = {e: t for e, c in num.items() if (t := _stored(kind, c))}
        self.num = kept
        self.den = den if type(den) is kind else _stored(kind, den)

    @classmethod
    def zero(cls, ctx, s):
        return cls(ctx, s, {}, [1])

    @classmethod
    def one(cls, ctx, s):
        return cls(ctx, s, {(0,) * s: [1]}, [1])

    def is_zero(self):
        return not self.num

    @classmethod
    def sum(cls, terms):
        """The sum of one or more values of one arity.  Terms over one
        denominator are added first; then the smaller of the running and
        the next denominator is brought up: its side times the quotient
        when it divides the larger, else each side times the other's
        denominator, over their product."""
        terms = list(terms)
        ctx, s = terms[0].ctx, terms[0].s
        groups = {}
        for t in terms:
            if t.s != s:
                raise ArityMismatch("arities differ")
            if t.num:
                key = t.den if type(t.den) is bytes else tuple(t.den)
                if key not in groups:
                    groups[key] = (t.den, dict(t.num))
                    continue
                out = groups[key][1]
                for e, c in t.num.items():
                    cur = out.get(e)
                    out[e] = c if cur is None else kern.kadd(ctx, cur, c)
        if not groups:
            return terms[0]
        (den, out), *rest = sorted(groups.values(), key=lambda g: len(g[0]))
        for d, num in rest:
            if len(den) > len(d):
                den, out, d, num = d, num, den, out
            quo, r = kern.kdivmod(ctx, d, den)
            if r:
                num = {e: kern.kmul(ctx, c, den) for e, c in num.items()}
                quo, d = d, kern.kmul(ctx, den, d)
            for e, c in out.items():
                num[e] = kern.kmul(ctx, c, quo, num.get(e))
            den, out = d, num
        return cls(ctx, s, out, den)

    def __add__(self, other):
        return RawTPoly.sum((self, other))

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
                out[e] = kern.kmul(ctx, c1, c2, out.get(e))
        return RawTPoly(ctx, self.s, out, kern.kmul(ctx, self.den, other.den))

    def __pow__(self, n):
        return power(self, n, lambda: RawTPoly.one(self.ctx, self.s))

    def substitute(self, i, value):
        """Set t_i := value, a theta-polynomial given as a coefficient list
        (arity drops by one; the denominator is unchanged)."""
        if not 1 <= i <= self.s:
            raise IndexOutOfRange(f"variable index {i} outside 1..{self.s}")
        ctx = self.ctx
        powers, out = {}, {}
        for e, c in self.num.items():
            k = e[i - 1]
            if k not in powers:
                powers[k] = kern.kpow(ctx, value, k)
            ne = e[:i - 1] + e[i:]
            out[ne] = kern.kmul(ctx, c, powers[k], out.get(ne))
        return RawTPoly(ctx, self.s - 1, out, self.den)

    def equals(self, other):
        """Exact equality of the represented fractions.  When one
        denominator divides the other, one side's numerators times the
        quotient are compared with the other's; else by cross
        multiplication against the two denominators."""
        if other.s != self.s:
            raise ArityMismatch("arities differ")
        ctx, a, b = self.ctx, self, other
        if a.den == b.den:
            return a.num == b.num
        if len(a.den) > len(b.den):
            a, b = b, a
        quo, r = kern.kdivmod(ctx, b.den, a.den)
        if not r:
            return a.num.keys() == b.num.keys() and all(
                kern.kmul(ctx, c, quo) == b.num[e] for e, c in a.num.items())
        zero = a.den[:0]
        return all(kern.kmul(ctx, a.num.get(e, zero), b.den)
                   == kern.kmul(ctx, b.num.get(e, zero), a.den)
                   for e in a.num.keys() | b.num.keys())

    def to_tpoly(self):
        """The same value as a TPoly, every coefficient normalized in K.

        A numerator N is cancelled one factor of `_binomial_split` at a
        time, since gcd(N, f F) = gcd(N, f) gcd(N / gcd(N, f), F).  A
        binomial theta^m - theta is met through N mod it (`kmod_binomial`);
        it is squarefree, so each further copy needs only the gcd with what
        the previous copy cancelled, and none once that is 1.  den / g is
        rebuilt only when something cancelled."""
        ctx, den_codes = self.ctx, list(self.den)  # the gcds work on lists
        split = _binomial_split(ctx, den_codes)
        den = APoly._make(ctx, den_codes)
        terms = {}
        for e, n in self.num.items():
            n, g = list(n), [1]
            for f, m, k in split:
                for _ in range(k):
                    f = kern.kgcd(ctx, f, kern.kmod_binomial(ctx, n, m) if m else n)
                    if len(f) == 1:
                        break
                    n = kern.kexactdiv(ctx, n, f)
                    g = f if len(g) == 1 else kern.kmul(ctx, g, f)
            d = den if len(g) == 1 else APoly._make(
                ctx, kern.kexactdiv(ctx, den_codes, g))
            terms[e] = RatK(APoly._make(ctx, n), d, _reduced=True)
        return TPoly(ctx, self.s, terms, _clean=True)

    def __repr__(self):
        from .textio import format_tpoly
        return format_tpoly(self.to_tpoly())


def _binomial_split(ctx, den):
    """den, a coefficient list, as (f, m, k) triples whose f^k multiply to
    it up to a unit: each binomial f = theta^m - theta (m = q^j) dividing
    den once with its multiplicity k, found by trial division from the
    largest j, then the cofactor left over as (f, 0, 1) unless it is a
    unit, as it is for a product of ell(i) powers."""
    m = ctx.q
    while m * ctx.q < len(den):
        m *= ctx.q
    out, rest = [], den
    while m > 1:
        f, k = [0, ctx.neg[1]] + [0] * (m - 2) + [1], 0
        while len(rest) > m and not kern.kmod_binomial(ctx, rest, m):
            rest = kern.kexactdiv(ctx, rest, f)
            k += 1
        if k:
            out.append((f, m, k))
        m //= ctx.q
    return out + [(rest, 0, 1)] if len(rest) > 1 else out
