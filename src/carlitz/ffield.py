"""Finite fields F_q with q = p^e, q > 2, as table-driven contexts.

Elements of F_q are encoded as integers in 0..q-1.  The base-p digits of
the code are the coordinates on the power basis 1, x, ..., x^(e-1) of
F_p[x]/(modulus); for prime fields (e = 1) the code is just the residue.
A FieldContext precomputes full addition/multiplication/negation/inverse
tables (q <= a few hundred in practice), so element arithmetic in inner
loops is plain list indexing; for e > 1 it also builds the packed kernel's
slot layout and fold table (see `_packed`).

The restriction q > 2 is enforced at construction: the identities this
package verifies are stated for q > 2 and several of them degenerate or
require separate arguments at q = 2.
"""

from array import array

from .errors import FieldConstructionError

# Fixed moduli for the prime-power sizes supported out of the box, as
# ascending coefficient tuples over F_p.  Any other q = p^e needs an
# explicit modulus argument.
_BUILTIN_MODULI = {
    4: (1, 1, 1),        # x^2 + x + 1       over F_2
    8: (1, 1, 0, 1),     # x^3 + x + 1       over F_2
    9: (1, 0, 1),        # x^2 + 1           over F_3
    16: (1, 1, 0, 0, 1), # x^4 + x + 1       over F_2
    25: (1, 1, 1),       # x^2 + x + 1       over F_5
    27: (1, 2, 0, 1),    # x^3 + 2x + 1      over F_3
}


def _is_prime(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _factor_prime_power(q):
    """Return (p, e) with q = p^e, or raise."""
    if q < 2:
        raise FieldConstructionError(f"q must be at least 3, got {q}")
    for p in range(2, q + 1):
        if q % p == 0:
            if not _is_prime(p):
                raise FieldConstructionError(f"{q} is not a prime power")
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise FieldConstructionError(f"{q} is not a prime power")
            return p, e
    raise FieldConstructionError(f"{q} is not a prime power")


# -- tiny F_p[x] helpers used only to validate and reduce moduli ------------

def _fpx_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a

def _fpx_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fpx_trim(out)

def _fpx_mod(a, m, p):
    a = list(a)
    _fpx_trim(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        c = (a[-1] * inv_lead) % p
        for j, mj in enumerate(m):
            a[shift + j] = (a[shift + j] - c * mj) % p
        _fpx_trim(a)
    return a

def _fpx_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _fpx_mod(a, b, p)
    return a

def _fpx_powmod(a, n, m, p):
    result = [1]
    base = _fpx_mod(a, m, p)
    while n:
        if n & 1:
            result = _fpx_mod(_fpx_mul(result, base, p), m, p)
        base = _fpx_mod(_fpx_mul(base, base, p), m, p)
        n >>= 1
    return result

def _fpx_is_irreducible(m, p):
    """Deterministic irreducibility over F_p: x^(p^e) = x mod m and
    gcd(x^(p^(e/t)) - x, m) = 1 for every prime t | e."""
    e = len(m) - 1
    if e < 1 or m[-1] == 0:
        return False
    x = [0, 1]
    xq = _fpx_powmod(x, p ** e, m, p)
    diff = _fpx_trim([(a - b) % p for a, b in
                      zip(xq + [0] * 2, x + [0] * max(0, len(xq) - 2))])
    if diff:
        return False
    for t in range(2, e + 1):
        if e % t == 0 and _is_prime(t):
            xk = _fpx_powmod(x, p ** (e // t), m, p)
            d = [(a - b) % p for a, b in
                 zip(xk + [0] * 2, x + [0] * max(0, len(xk) - 2))]
            g = _fpx_gcd(_fpx_trim(d), m, p)
            if len(g) - 1 != 0:
                return False
    return True


class FieldContext:
    """Arithmetic tables for F_q, q = p^e > 2.

    Instances are immutable after construction and safe to share between
    threads.  Two contexts compare equal iff they have the same q and the
    same modulus, but element codes must never be mixed across instances
    of different parameters.
    """

    __slots__ = ("p", "e", "q", "modulus", "add", "mul", "neg", "inv",
                 "digits", "_undigit", "_fold", "_slot_bytes", "SUB")

    def __init__(self, q, modulus=None):
        p, e = _factor_prime_power(q)
        if q == 2:
            raise FieldConstructionError(
                "q = 2 is not supported: the identities verified by this "
                "package are stated under the restriction q > 2")
        self.p = p
        self.e = e
        self.q = q
        if e == 1:
            self.modulus = (0, 1)  # unused marker: x itself
        else:
            if modulus is None:
                if q not in _BUILTIN_MODULI:
                    raise FieldConstructionError(
                        f"no built-in modulus for q = {q}; pass one explicitly")
                modulus = _BUILTIN_MODULI[q]
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] == 0:
                raise FieldConstructionError(
                    f"modulus must have degree e = {e} over F_{p}")
            if not _fpx_is_irreducible(list(modulus), p):
                raise FieldConstructionError(
                    f"modulus {modulus} is not irreducible over F_{p}")
            self.modulus = modulus

        # digit decomposition of every element code
        digits = []
        for a in range(q):
            m, ds = a, []
            for _ in range(e):
                ds.append(m % p)
                m //= p
            digits.append(tuple(ds))
        self.digits = tuple(digits)
        self._undigit = {ds: a for a, ds in enumerate(digits)}

        # element tables; prime-field rows are built by arithmetic and share
        # the int objects of r, which keeps them small at large p
        if e == 1:
            r = list(range(p))
            add = [r[a:] + r[:a] for a in r]
            mul = [[r[a * b % p] for b in r] for a in r]
        else:
            add = [[0] * q for _ in range(q)]
            mul = [[0] * q for _ in range(q)]
            modulus = list(self.modulus)
            for a in range(q):
                da = digits[a]
                for b in range(a, q):
                    db = digits[b]
                    s = tuple((x + y) % p for x, y in zip(da, db))
                    add[a][b] = add[b][a] = self._undigit[s]
                    prod = _fpx_mod(_fpx_mul(list(da), list(db), p), modulus, p)
                    prod = tuple(prod + [0] * (e - len(prod)))
                    mul[a][b] = mul[b][a] = self._undigit[prod]
        self.add = add
        self.mul = mul
        self.neg = [self._undigit[tuple((-x) % p for x in digits[a])]
                    for a in range(q)]
        self.inv = [0] + [mul[a].index(1) for a in range(1, q)]
        # number of 32-bit sub-slots per coefficient in the packed kernel
        self.SUB = 1 if e == 1 else 2 * e
        self._fold = self._slot_bytes = None
        if e > 1:
            # _fold[sum d_j p^j] is the code of sum d_j x^j mod the modulus,
            # over the 2e-1 digits a product slot holds; codes below q are
            # their own digits, and each higher digit adds d_j * (x^j mod m)
            fold = list(range(q))
            for j in range(e, 2 * e - 1):
                r = _fpx_mod([0] * j + [1], list(self.modulus), p)
                xj = self._undigit[tuple(r + [0] * (e - len(r)))]
                fold = [add[c][mul[d][xj]] for d in range(p) for c in fold]
            self._fold = fold
            # the 2e little-endian sub-slots of each code, for pack
            self._slot_bytes = [array("I", ds + (0,) * e).tobytes()
                                for ds in digits]

    # -- identity / comparison ------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldContext)
                and self.q == other.q and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.q, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"FieldContext(q={self.q})"
        return f"FieldContext(q={self.q}, modulus={self.modulus})"

    # -- elements ---------------------------------------------------------

    def element(self, value):
        """Build an FqElem from an int code, an FqElem, or p-digit coords."""
        if isinstance(value, FqElem):
            if value.ctx != self:
                raise FieldConstructionError("element from a different context")
            return value
        if isinstance(value, int):
            return FqElem(self, value % self.q if self.e == 1 else value)
        coords = tuple(int(c) % self.p for c in value)
        if len(coords) > self.e:
            raise FieldConstructionError("too many coordinates")
        coords = coords + (0,) * (self.e - len(coords))
        return FqElem(self, self._undigit[coords])

    def elements(self):
        """All field elements in the fixed enumeration order 0, 1, ..., q-1."""
        return [FqElem(self, a) for a in range(self.q)]

    def epow(self, a, n):
        """a^n for an element code a, n >= 0."""
        if n == 0:
            return 1
        result, base, mul = 1, a, self.mul
        while n:
            if n & 1:
                result = mul[result][base]
            base = mul[base][base]
            n >>= 1
        return result


class FqElem:
    """An element of F_q: a residue code plus its context handle."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx, code):
        if not 0 <= code < ctx.q:
            raise FieldConstructionError(f"element code {code} out of range")
        self.ctx = ctx
        self.code = code

    @property
    def coords(self):
        """Coordinates on the power basis of F_p[x]/(modulus)."""
        return self.ctx.digits[self.code]

    def _check(self, other):
        if isinstance(other, int):
            other = self.ctx.element(other)
        if not isinstance(other, FqElem) or other.ctx != self.ctx:
            raise FieldConstructionError("cannot mix elements of different fields")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FqElem(self.ctx, self.ctx.add[self.code][other.code])

    __radd__ = __add__

    def __neg__(self):
        return FqElem(self.ctx, self.ctx.neg[self.code])

    def __sub__(self, other):
        other = self._check(other)
        return FqElem(self.ctx, self.ctx.add[self.code][self.ctx.neg[other.code]])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        return FqElem(self.ctx, self.ctx.mul[self.code][other.code])

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other.code == 0:
            raise ZeroDivisionError("division by zero in F_q")
        return FqElem(self.ctx, self.ctx.mul[self.code][self.ctx.inv[other.code]])

    def __pow__(self, n):
        if n < 0:
            if self.code == 0:
                raise ZeroDivisionError("inverse of zero in F_q")
            return FqElem(self.ctx, self.ctx.epow(self.ctx.inv[self.code], -n))
        return FqElem(self.ctx, self.ctx.epow(self.code, n))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.ctx.e == 1 and self.code == other % self.ctx.p
        return (isinstance(other, FqElem) and self.ctx == other.ctx
                and self.code == other.code)

    def __hash__(self):
        return hash((self.ctx.q, self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        if self.ctx.e == 1:
            return str(self.code)
        ds = self.coords
        terms = []
        for j in range(self.ctx.e - 1, -1, -1):
            c = ds[j]
            if not c:
                continue
            if j == 0:
                terms.append(str(c))
            elif j == 1:
                terms.append("x" if c == 1 else f"{c}*x")
            else:
                terms.append(f"x^{j}" if c == 1 else f"{c}*x^{j}")
        return "[" + (" + ".join(terms) if terms else "0") + "]"
