"""Finite fields F_q with q = p^e, q > 2, as table-driven contexts.

Elements of F_q are encoded as integers in 0..q-1.  The base-p digits of
the code are the coordinates on the power basis 1, x, ..., x^(e-1) of
F_p[x]/(modulus); for prime fields (e = 1) the code is just the residue.
A FieldContext precomputes full addition/multiplication/negation/inverse
tables (q <= a few hundred in practice), so element arithmetic in inner
loops is plain list indexing.  For e > 1 every product comes from
multiplication by x, and a modulus is rejected as reducible when some
nonzero element has no inverse; the context also builds the packed
kernel's slot layout and fold table, and holds the byte tables the kernel
builds for itself on first use (see `_packed`).

The restriction q > 2 is enforced at construction: the identities this
package verifies are stated for q > 2 and several of them degenerate or
require separate arguments at q = 2.
"""

from .errors import DivisionByZero, FieldConstructionError

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


def _span(add, vectors, p):
    """Codes of sum_j d_j v_j over F_p for the given element codes v_j,
    listed at index sum_j d_j p^j (digits 0 <= d_j < p)."""
    out = [0]
    for v in vectors:
        multiples = [0]
        for _ in range(1, p):
            multiples.append(add[multiples[-1]][v])
        out = [add[c][m] for m in multiples for c in out]
    return out


class FieldContext:
    """Arithmetic tables for F_q, q = p^e > 2.

    Instances are immutable after construction and safe to share between
    threads, apart from `_bytes`, set once on first use, and the memo
    `_ell_products` of `_rawfrac.ell_product` (two threads may both build
    a value, and the two are equal).  Two contexts compare equal iff they
    have the same q and the same modulus, but element codes must never be
    mixed across instances of different parameters.
    """

    __slots__ = ("p", "e", "q", "modulus", "add", "mul", "neg", "inv",
                 "digits", "_undigit", "_fold", "_slots", "_bytes", "_ell_products")

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
        self._fold = self._slots = self._bytes = None
        self._ell_products = {}
        if e == 1:
            r = list(range(p))
            add = [r[a:] + r[:a] for a in r]
            mul = [[r[a * b % p] for b in r] for a in r]
        else:
            # codes add digit-wise; multiplication by x shifts the digits up
            # and folds the top one back by x^e = -lc^(-1) (m_0, ..., m_(e-1)),
            # and row a of the product table spans x^j a over F_p
            add = [[self._undigit[tuple((x + y) % p for x, y in zip(da, db))]
                    for db in digits] for da in digits]
            c = (-pow(modulus[-1], p - 2, p)) % p
            xe = self._undigit[tuple(c * mj % p for mj in modulus[:-1])]
            top = p ** (e - 1)
            fold_top = _span(add, [xe], p)
            times_x = [add[a % top * p][fold_top[a // top]] for a in range(q)]

            def x_powers(a, n):
                out = [a]
                while len(out) < n:
                    out.append(times_x[out[-1]])
                return out
            mul = [_span(add, x_powers(a, e), p) for a in range(q)]
            # the packed kernel's tables: _fold[sum d_j p^j] is the code of
            # sum d_j x^j over the 2e-1 digits a product slot holds, and
            # _slots[w] the 2e-1 little-endian w-bit sub-slots of each code
            self._fold = _span(add, x_powers(1, 2 * e - 1), p)
            self._slots = {w: [b"".join(d.to_bytes(w // 8, "little")
                                        for d in ds + (0,) * (e - 1))
                               for ds in digits] for w in (16, 32)}
        self.add = add
        self.mul = mul
        self.neg = [self._undigit[tuple((-x) % p for x in digits[a])]
                    for a in range(q)]
        # F_p[x]/(m) is a field iff m is irreducible, so a nonzero code
        # without an inverse is a reducible modulus
        try:
            self.inv = [0] + [mul[a].index(1) for a in range(1, q)]
        except ValueError:
            raise FieldConstructionError(
                f"modulus {self.modulus} is not irreducible over F_{p}") from None

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
            raise DivisionByZero("division by zero in F_q")
        return FqElem(self.ctx, self.ctx.mul[self.code][self.ctx.inv[other.code]])

    def __pow__(self, n):
        if n < 0:
            if self.code == 0:
                raise DivisionByZero("inverse of zero in F_q")
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
        from .textio import format_fq
        return format_fq(self.ctx, self.code)
