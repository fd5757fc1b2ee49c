"""Unnormalized multivariate fractions for exact identity verification.

A RawTPoly is a dict of t-monomial -> theta-polynomial numerator over one
shared denominator, with no reduction invariant, so no gcd is ever
computed: every step is polynomial multiplication, which the packed kernel
makes cheap even at the large degrees the deeper parameter grids reach.
Sums of products accumulate through the kernel's fused multiply-add,
`kmul(ctx, a, b, c)` = c + a*b, which unpacks once.  Over a field with
byte codecs (q <= 16) the numerators are trimmed `bytes` (else lists), and
the kernel returns bytes for bytes; values leave as lists for an APoly.

Every denominator is a power product of the paper's factors
theta - theta^(q^j), the ell(d) = prod_(j<=d) (theta - theta^(q^j)), so
it is kept as `prod_j (theta - theta^(q^j))^exps[j-1]` (`exps` a trimmed
tuple) and is never multiplied or divided: a product adds the exponents,
`RawTPoly.sum` adds the terms over one denominator first and then brings
each group up to the exponent-wise maximum, a common multiple, by the
quotient read off the exponents, and `equals` compares both sides over
that maximum.  `ell_product` builds the codes of any such product once
per field context: the quotients, a whole denominator where a value
leaves this form (`den`, `to_tpoly`, `TateSeries.from_raw`), and every
ell(i) and ell(d)/ell(i) that `powersums.SeqCache` hands out.

Every power sum and every exact check is a value of this form: the closed
forms (`powersums.closed_raw`) and the enumeration oracle
(`powersums.power_sum_bruteforce`) both write theirs over ell(d)^n
(`RawTPoly.over_ell`), `powersums.power_sum` memoizes them, the mzv chain
sums add and multiply them unreduced, the Tate series expand them
numerator by numerator, the skew checks compare b-expansions and
truncated zeta values in it, and `substitute` specializes a variable at a
theta-polynomial with the denominator unchanged.  `to_tpoly`, the one
normalization path, for printing, cancels each numerator one factor of
`exps` at a time, so that every gcd is with one short binomial theta^m -
theta; a numerator is divided only by that binomial or by theta, and each
reduced denominator is a product.

A value twisted by chi_t1 chi_t2 is symmetric in t1 and t2, so its
numerators repeat at mirrored monomials: products, the lifting products of
`sum` and `to_tpoly` work once per distinct operand value in one call
(`_per_value`), and monomials with equal numerators share the result.
"""

from functools import partial, reduce
from itertools import zip_longest

from . import _packed as kern
from .errors import ArityMismatch, IndexOutOfRange
from .poly import APoly, RatK, power
from .tpoly import TPoly


def _stored(kind, c):
    """Coefficients c trimmed, as a new value of type `kind` (bytes or list)."""
    return kern.trim(bytes(bytearray(c)) if kind is bytes else list(c))


class RawTPoly:
    __slots__ = ("ctx", "s", "num", "exps")

    def __init__(self, ctx, s, num, *, exps=()):
        self.ctx = ctx
        self.s = s
        kind = bytes if kern._codec(ctx) else list
        # numerators are stored trimmed and nonzero, so that equal
        # denominators mean equal numerators (see `equals`)
        kept = {e: c for e, c in num.items() if c}
        if not all(c[-1] and type(c) is kind for c in kept.values()):
            kept = {e: t for e, c in kept.items() if (t := _stored(kind, c))}
        self.num = kept
        exps = tuple(exps)
        while exps and not exps[-1]:
            exps = exps[:-1]
        self.exps = exps

    @classmethod
    def zero(cls, ctx, s):
        return cls(ctx, s, {})

    @classmethod
    def one(cls, ctx, s):
        return cls(ctx, s, {(0,) * s: [1]})

    @classmethod
    def over_ell(cls, ctx, s, num, d, n):
        """num over ell(d)^n."""
        return cls(ctx, s, num, exps=(n,) * d)

    @property
    def den(self):
        """The denominator as trimmed coefficient codes."""
        return kern._copy(ell_product(self.ctx, self.exps))

    def is_zero(self):
        return not self.num

    @classmethod
    def sum(cls, terms):
        """The sum of one or more values of one arity.  Terms over one
        denominator are added first, then each group times its quotient over
        the exponent-wise maximum."""
        terms = list(terms)
        ctx, s = terms[0].ctx, terms[0].s
        groups = {}
        for t in terms:
            if t.s != s:
                raise ArityMismatch("arities differ")
            if t.num:
                out = groups.get(t.exps)
                if out is None:
                    groups[t.exps] = dict(t.num)
                    continue
                for e, c in t.num.items():
                    cur = out.get(e)
                    out[e] = c if cur is None else kern.kadd(ctx, cur, c)
        if not groups:
            return terms[0]
        top = _top(groups)
        out, mul = groups.pop(top, {}), _per_value(partial(kern.kmul, ctx))
        for exps, num in groups.items():
            quo = _quotient(ctx, top, exps)
            for e, c in num.items():
                out[e] = mul(c, quo, out.get(e))
        return cls(ctx, s, out, exps=top)

    def __add__(self, other):
        return RawTPoly.sum((self, other))

    def __neg__(self):
        return RawTPoly(self.ctx, self.s,
                        {e: kern.kneg(self.ctx, c) for e, c in self.num.items()},
                        exps=self.exps)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if other.s != self.s:
            raise ArityMismatch("arities differ")
        ctx = self.ctx
        mul, out = _per_value(partial(kern.kmul, ctx)), {}
        for e1, c1 in self.num.items():
            for e2, c2 in other.num.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = mul(c1, c2, out.get(e))
        return RawTPoly(ctx, self.s, out,
                        exps=[x + y for x, y in zip_longest(self.exps, other.exps, fillvalue=0)])

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
        return RawTPoly(ctx, self.s - 1, out, exps=self.exps)

    def equals(self, other):
        """Exact equality of the represented fractions: both sides'
        numerators over the exponent-wise maximum."""
        if other.s != self.s:
            raise ArityMismatch("arities differ")
        top = _top((self.exps, other.exps))
        return _lifted(self, top) == _lifted(other, top)

    def to_tpoly(self):
        """The same value as a TPoly, every coefficient normalized in K.

        A numerator N is cancelled one factor theta - theta^m, m = q^j, of
        the denominator at a time, the largest first, since gcd(N, f F) =
        gcd(N, f) gcd(N / gcd(N, f), F).  The factor is met through N mod
        b = theta^m - theta (`kmod_binomial`); it is squarefree, so each
        further copy needs only the (monic) gcd f with what the previous
        copy cancelled, and none once that is 1.  N / f is N h / b, its
        cofactor h = b / f built once per (m, f) in a call, so every
        division is by b's recurrence, or a shift for f = theta.  Each
        cancelled copy leaves -h of its factor theta - theta^m = -f h, so
        the reduced denominator is (-1)^copies prod h times the ell product
        of the exponents left, the cofactors multiplied shortest first, so
        that the running product stays short.  Each distinct numerator is
        reduced once (`_per_value`), and its monomials share the RatK."""
        ctx = self.ctx
        den = APoly._make(ctx, list(self.den))
        cofactors = {}

        def reduced(n):
            n, left, hs = list(n), list(self.exps), []  # the gcds work on lists
            for j in range(len(self.exps), 0, -1):
                m = ctx.q ** j
                b = [0, ctx.neg[1]] + [0] * (m - 2) + [1]
                f = kern.kneg(ctx, b)  # the factor theta - theta^m
                for _ in range(self.exps[j - 1]):
                    f = kern.kgcd(ctx, f, kern.kmod_binomial(ctx, n, m))
                    if len(f) == 1:
                        break
                    h = cofactors.get((m, tuple(f)))
                    if h is None:
                        h = cofactors[m, tuple(f)] = kern.kexactdiv(ctx, b, f)
                    n = kern.kexactdiv(ctx, n, f) if f == [0, 1] else \
                        kern.kexactdiv(ctx, kern.kmul(ctx, n, h), b)
                    hs.append(h)
                    left[j - 1] -= 1
            d = den
            if hs:
                h = reduce(lambda a, b: kern.kmul(ctx, a, b), sorted(hs, key=len))
                d = APoly._make(ctx, kern.kmul(ctx, kern.kneg(ctx, h) if len(hs) % 2 else h,
                                               ell_product(ctx, tuple(left))))
            return RatK(APoly._make(ctx, n), d, _reduced=True)
        norm = _per_value(reduced)
        return TPoly(ctx, self.s, {e: norm(n) for e, n in self.num.items()}, _clean=True)

    def __repr__(self):
        from .textio import format_tpoly
        return format_tpoly(self.to_tpoly())


def _per_value(fn):
    """fn run once per distinct value of its arguments while the returned
    function lives (one method call): bytes key as they are, lists as
    tuples, and an accumulator (None or codes) is an argument like any.
    The codes of one call are all bytes or all lists."""
    memo = {}

    def call(*args):
        key = args if type(args[0]) is bytes else tuple(
            a if a is None else tuple(a) for a in args)
        if (out := memo.get(key)) is None:
            out = memo[key] = fn(*args)
        return out
    return call


def _top(exps):
    """The exponent-wise maximum of the exponent tuples `exps`."""
    return tuple(map(max, zip_longest(*exps, fillvalue=0)))


def ell_product(ctx, exps):
    """prod_j (theta - theta^(q^j))^exps[j-1] as trimmed codes, memoized per
    context: distinct factors as the product without the last one times it,
    else each exponent's factors by one `kpow` (a q-power is a Frobenius
    spread).  ell(d)^n is exps = (n,) * d."""
    v = ctx._ell_products.get(exps)
    if v is None:
        if not any(exps):
            v = [1]
        elif max(exps) == 1:
            v = ell_product(ctx, exps[:-1])
            f = [0, 1] + [0] * (ctx.q ** len(exps) - 2) + [ctx.neg[1]]
            v = kern.kmul(ctx, v, f) if exps[-1] else v
        else:
            v = reduce(lambda a, b: kern.kmul(ctx, a, b), (kern.kpow(ctx, ell_product(
                ctx, tuple(int(x == k) for x in exps)), k) for k in set(exps) - {0}))
        v = ctx._ell_products[exps] = _stored(bytes if kern._codec(ctx) else list, v)
    return v


def _quotient(ctx, top, exps):
    """The denominator `top` over `exps`, exps <= top."""
    return ell_product(ctx, tuple(a - b for a, b in zip_longest(top, exps, fillvalue=0)))


def _lifted(x, top):
    """x's numerators over the denominator `top`, x.exps <= top."""
    if x.exps == top:
        return x.num
    quo = _quotient(x.ctx, top, x.exps)
    return {e: kern.kmul(x.ctx, c, quo) for e, c in x.num.items()}
