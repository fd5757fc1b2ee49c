"""The ring A = F_q[theta] and its fraction field K.

APoly is a dense immutable polynomial in theta over a FieldContext; RatK
is a normalized fraction num/den of APoly with monic denominator and
gcd(num, den) = 1 (zero is 0/1).  Degrees of the zero polynomial compare
as -infinity, and the infinite-place valuation of the zero fraction as
+infinity, via float sentinels.

Also here: gcd, irreducibility (a deterministic distinct-degree test for
one polynomial, a sieve for all monics of one degree), enumeration of
monic polynomials in a reproducible order, irreducible counting via the
necklace polynomial, base-q digit sums, and the square-and-multiply
`power` of the t-polynomial and series types.
"""

import itertools
from functools import lru_cache

from . import _packed as kern
from .errors import (BothZero, ConstantInput, ContextMismatch, DivisionByZero,
                     InexactDivision, NonIntegral)
from .ffield import FqElem, _is_prime

NEG_INF = float("-inf")
POS_INF = float("inf")


def power(x, n, one):
    """x ** n by square-and-multiply from `one`, for the rings without a
    kernel power; ValueError for n < 0."""
    if n < 0:
        raise ValueError(f"negative power {n}")
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def _codes(ctx, values):
    out = []
    for v in values:
        if isinstance(v, FqElem):
            if v.ctx != ctx:
                raise ContextMismatch("coefficient from a different field")
            out.append(v.code)
        else:
            out.append(ctx.element(int(v)).code)
    return out


class APoly:
    """A dense polynomial in theta with coefficients in F_q."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs=(), _raw=False):
        self.ctx = ctx
        if _raw:
            self.coeffs = coeffs
        else:
            lst = _codes(ctx, coeffs)
            kern.trim(lst)
            self.coeffs = tuple(lst)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, (), _raw=True)

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (1,), _raw=True)

    @classmethod
    def constant(cls, ctx, c):
        if isinstance(c, FqElem):
            if c.ctx != ctx:
                raise ContextMismatch("constant from a different field")
            code = c.code
        else:
            code = int(c) % ctx.p  # plain ints embed through the prime field
        return cls(ctx, (code,) if code else (), _raw=True)

    @classmethod
    def theta(cls, ctx, power=1):
        return cls(ctx, tuple([0] * power + [1]), _raw=True)

    @classmethod
    def _make(cls, ctx, lst):
        kern.trim(lst)
        return cls(ctx, tuple(lst), _raw=True)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Degree in theta; NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self):
        if not self.coeffs:
            return self
        lc = self.coeffs[-1]
        if lc == 1:
            return self
        return APoly._make(self.ctx, kern.kscal(self.ctx, self.ctx.inv[lc], list(self.coeffs)))

    def coefficient(self, i):
        """Coefficient of theta^i as an FqElem."""
        code = self.coeffs[i] if 0 <= i < len(self.coeffs) else 0
        return FqElem(self.ctx, code)

    def _check(self, other):
        if isinstance(other, APoly):
            if other.ctx != self.ctx:
                raise ContextMismatch("polynomials from different contexts")
            return other
        if isinstance(other, (int, FqElem)):
            return APoly.constant(self.ctx, other)
        return NotImplemented

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return APoly._make(self.ctx, kern.kadd(self.ctx, list(self.coeffs), list(other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return APoly._make(self.ctx, kern.kneg(self.ctx, list(self.coeffs)))

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return APoly._make(self.ctx, kern.ksub(self.ctx, list(self.coeffs), list(other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return APoly._make(self.ctx, kern.kmul(self.ctx, list(self.coeffs), list(other.coeffs)))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial; build a RatK instead")
        return APoly._make(self.ctx, kern.kpow(self.ctx, list(self.coeffs), n))

    def __divmod__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.coeffs:
            raise DivisionByZero("division by the zero polynomial")
        q, r = kern.kdivmod(self.ctx, list(self.coeffs), list(other.coeffs))
        return APoly._make(self.ctx, q), APoly._make(self.ctx, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __truediv__(self, other):
        """Exact division; raises InexactDivision on a nonzero remainder."""
        if self._check(other) is NotImplemented:
            return NotImplemented
        q, r = divmod(self, other)
        if r.coeffs:
            raise InexactDivision(
                f"{self!r} is not divisible by {other!r}")
        return q

    def frobenius(self, n=1):
        """theta -> theta^(q^n); the q^n-power Frobenius on A."""
        return APoly._make(self.ctx, kern.kspread(list(self.coeffs), self.ctx.q ** n))

    def evaluate(self, x):
        """Horner evaluation at x, which may be an FqElem or an APoly."""
        if isinstance(x, FqElem):
            acc = FqElem(self.ctx, 0)
            for c in reversed(self.coeffs):
                acc = acc * x + FqElem(self.ctx, c)
            return acc
        if isinstance(x, APoly):
            acc = APoly.zero(self.ctx)
            for c in reversed(self.coeffs):
                acc = acc * x + APoly.constant(self.ctx, FqElem(self.ctx, c))
            return acc
        raise TypeError(f"cannot evaluate at {type(x).__name__}")

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = APoly.constant(self.ctx, other)
        elif not isinstance(other, APoly):
            return NotImplemented  # a RatK, for one, compares itself
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx.q, self.coeffs))

    def __repr__(self):
        from .textio import format_apoly
        return format_apoly(self)


# ---------------------------------------------------------------------------
# base-algebra operations
# ---------------------------------------------------------------------------

def poly_gcd(a, b):
    """Monic gcd of two polynomials; BothZero if both vanish."""
    if a.is_zero() and b.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    g = kern.kgcd(a.ctx, list(a.coeffs), list(b.coeffs))
    return APoly._make(a.ctx, g)


def poly_xgcd(a, b):
    g, u, v = kern.kxgcd(a.ctx, list(a.coeffs), list(b.coeffs))
    return APoly._make(a.ctx, g), APoly._make(a.ctx, u), APoly._make(a.ctx, v)


def is_irreducible(a):
    """Deterministic irreducibility test over F_q.

    Uses the distinct-degree criterion: a of degree n is irreducible iff
    theta^(q^n) = theta (mod a) and gcd(theta^(q^(n/t)) - theta, a) = 1
    for every prime t dividing n.
    """
    if a.degree < 1:
        raise ConstantInput("irreducibility is only defined for degree >= 1")
    ctx = a.ctx
    n = len(a.coeffs) - 1
    mod = list(a.coeffs)
    theta = [0, 1] if n > 1 else kern.kdivmod(ctx, [0, 1], mod)[1]

    def frob_step(r):
        # r(theta)^q mod a = r(theta^q) mod a
        return kern.kdivmod(ctx, kern.kspread(r, ctx.q), mod)[1]

    powers = [theta]
    for _ in range(n):
        powers.append(frob_step(powers[-1]))
    if kern.trim(kern.ksub(ctx, list(powers[n]), list(theta))):
        return False
    for t in range(2, n + 1):
        if n % t == 0 and _is_prime(t):
            d = kern.ksub(ctx, list(powers[n // t]), list(theta))
            if not d:
                return False
            g = kern.kgcd(ctx, d, mod)
            if len(g) != 1:
                return False
    return True


def enumerate_monics(ctx, d):
    """Yield the q^d monic polynomials of degree d, lexicographically in
    the coefficient tuple (c_0, ..., c_(d-1)) with elements ordered by code."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d == 0:
        yield APoly.one(ctx)
        return
    for tail in itertools.product(range(ctx.q), repeat=d):
        yield APoly(ctx, tuple(tail) + (1,), _raw=True)


@lru_cache(maxsize=None)
def irreducibles_of_degree(ctx, d):
    """All monic irreducibles of degree d, in enumeration order.

    A sieve of Eratosthenes on monics: a monic of degree d is reducible iff
    it has a monic irreducible factor P of degree k <= d/2, so each product
    P * g, over every monic g of degree d - k, flags its position in
    `enumerate_monics` order (Horner over c_0, ..., c_(d-1), c_0 most
    significant) in a bytearray of q^d flags; the unflagged monics remain.
    The factors of degree k come from this function, so its cache holds
    every lower degree too.
    """
    if d < 1:
        raise ConstantInput("irreducibles have degree >= 1")
    q = ctx.q
    reducible = bytearray(q ** d)
    for k in range(1, d // 2 + 1):
        for factor in irreducibles_of_degree(ctx, k):
            for tail in itertools.product(range(q), repeat=d - k):
                index = 0
                for c in kern.kmul(ctx, factor.coeffs, tail + (1,))[:d]:
                    index = index * q + c
                reducible[index] = 1
    return tuple(a for a, flag in zip(enumerate_monics(ctx, d), reducible)
                 if not flag)


def moebius(n):
    if n < 1:
        raise ValueError("moebius is defined for n >= 1")
    result, m = 1, n
    i = 2
    while i * i <= m:
        if m % i == 0:
            m //= i
            if m % i == 0:
                return 0
            result = -result
        i += 1
    if m > 1:
        result = -result
    return result


def necklace_count(q, d):
    """Number of monic irreducibles of degree d over F_q:
    (1/d) * sum over l | d of mu(l) q^(d/l)."""
    if d < 1:
        raise ValueError("necklace counts need d >= 1")
    total = sum(moebius(l) * q ** (d // l) for l in range(1, d + 1) if d % l == 0)
    count, rest = divmod(total, d)
    if rest:
        raise ValueError(f"q = {q!r} gives no whole necklace count at d = {d}")
    return count


def digit_sum(q, n):
    """Sum of the base-q digits of n >= 0."""
    if n < 0:
        raise ValueError("digit sums need n >= 0")
    s = 0
    while n:
        s += n % q
        n //= q
    return s


# ---------------------------------------------------------------------------
# the fraction field K
# ---------------------------------------------------------------------------

class RatK:
    """A normalized fraction of APoly: monic denominator, gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if not isinstance(num, APoly):
            raise TypeError("RatK needs APoly operands; use RatK.constant")
        ctx = num.ctx
        if den is None:
            den = APoly.one(ctx)
        if isinstance(den, (int, FqElem)):
            den = APoly.constant(ctx, den)
        if den.ctx != ctx:
            raise ContextMismatch("fraction parts from different contexts")
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num.is_zero():
            self.num = APoly.zero(ctx)
            self.den = APoly.one(ctx)
            return
        if not _reduced:
            g = kern.kgcd(ctx, list(num.coeffs), list(den.coeffs))
            if len(g) > 1:
                num = APoly._make(ctx, kern.kexactdiv(ctx, list(num.coeffs), g))
                den = APoly._make(ctx, kern.kexactdiv(ctx, list(den.coeffs), g))
        lc = den.coeffs[-1]
        if lc != 1:
            inv = ctx.inv[lc]
            num = APoly._make(ctx, kern.kscal(ctx, inv, list(num.coeffs)))
            den = APoly._make(ctx, kern.kscal(ctx, inv, list(den.coeffs)))
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_apoly(cls, a):
        return cls(a, APoly.one(a.ctx), _reduced=True)

    @classmethod
    def constant(cls, ctx, c):
        return cls.from_apoly(APoly.constant(ctx, c))

    @classmethod
    def zero(cls, ctx):
        return cls.from_apoly(APoly.zero(ctx))

    @classmethod
    def one(cls, ctx):
        return cls.from_apoly(APoly.one(ctx))

    @property
    def ctx(self):
        return self.num.ctx

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def as_apoly(self):
        """The numerator, if the denominator is 1; NonIntegral otherwise."""
        if self.den.degree != 0:
            raise NonIntegral(f"{self!r} is not in A")
        return self.num

    # -- arithmetic (each result normalized by the constructor) -------------

    def _coerce(self, other):
        if isinstance(other, RatK):
            if other.ctx != self.ctx:
                raise ContextMismatch("fractions from different contexts")
            return other
        if isinstance(other, APoly):
            return RatK.from_apoly(self.num._check(other))
        if isinstance(other, (int, FqElem)):
            return RatK.constant(self.ctx, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatK(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatK(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RatK(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return RatK(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by zero fraction")
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return RatK(self.num ** n, self.den ** n, _reduced=True)

    def frobenius(self, n=1):
        """The q^n-power Frobenius; preserves normalization."""
        return RatK(self.num.frobenius(n), self.den.frobenius(n), _reduced=True)

    # -- valuation and reduction -------------------------------------------

    @property
    def valuation(self):
        """Valuation at the infinite place: deg den - deg num; +inf at 0."""
        if self.is_zero():
            return POS_INF
        return self.den.degree - self.num.degree

    def reduce_mod(self, m):
        """The image in A/(m), for fractions whose denominator is coprime
        to m; raises NonIntegral otherwise."""
        ctx = self.ctx
        g, u, _ = kern.kxgcd(ctx, list(self.den.coeffs), list(m.coeffs))
        if len(g) != 1:
            raise NonIntegral(f"denominator shares the factor {APoly._make(ctx, g)!r} with the modulus")
        inv_den = kern.kdivmod(ctx, u, list(m.coeffs))[1]
        r = kern.kdivmod(ctx, kern.kmul(ctx, list(self.num.coeffs), inv_den),
                         list(m.coeffs))[1]
        return APoly._make(ctx, r)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, APoly, FqElem)):
            other = self._coerce(other)
        return (isinstance(other, RatK) and self.ctx == other.ctx
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        from .textio import format_ratk
        return format_ratk(self)


def valuation_inf(x):
    """v_infinity on K, with v(theta) = -1 and v(0) = +inf."""
    if isinstance(x, APoly):
        return POS_INF if x.is_zero() else -x.degree
    return x.valuation
