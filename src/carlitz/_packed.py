"""Low-level dense polynomial kernel over F_q, with packed-integer fast paths.

A polynomial is a plain Python list of element codes (ascending powers of
theta, no trailing zeros; [] is zero).  Small operands use table-driven
schoolbook loops.  Large operands are packed into a single Python integer,
one sub-slot per F_p-digit: one per coefficient for e = 1 and 2e-1 per
coefficient for e > 1 (the e digits of a code, then e-1 zero sub-slots
for the digit products of a product slot), so that polynomial
multiplication becomes one big-integer multiplication.  A sub-slot is 16
or 32 bits wide: `kmul` takes the narrowest width that holds its product
bound, every other packed path 32 bits.  Division is schoolbook over the
divisor's nonzero terms up to a work budget; what that prefix leaves goes
to Newton inversion of the reversed divisor (a few `kmul`s), or on to
schoolbook when the quotient is too long for a packed product's slots.

Slot arithmetic never reduces mod p until unpacking: slot values only
grow.  Unpacking reduces each sub-slot mod p and, for e > 1, reads the
2e-1 residues of a slot as one index into the context's fold table, which
maps the digits of sum d_j x^j to its element code mod the field modulus;
for p = 2 a bit mask reads every residue at once.  kmul and kdivmod check
their slot bound before packing (for products, min(len) * e * (p-1)^2,
below 2^16 for 16-bit and 2^32 for 32-bit sub-slots) and fall back to the
schoolbook loop past 2^32, which only happens for large p; the prime-field
kgcd tracks the exact slot bound and renormalizes before it reaches 2^31.
The slot codecs read and write native 16- and 32-bit array items as
little-endian bytes, so importing the module fails on any other platform.
"""

from array import array
from functools import reduce
from itertools import islice
import sys

from .errors import BothZero, DivisionByZero, InexactDivision

_W = 32                       # bits per sub-slot, except in kmul
_MASK = (1 << _W) - 1
_NARROW = 16                  # kmul's sub-slot width while its bound allows
_TYPECODE = {16: "H", 32: "I"}
_MUL_CUTOFF = 24              # below this, schoolbook beats pack/unpack
_DIV_CUTOFF = 24
_NAIVE_WORK = 8               # schoolbook work per quotient slot, times 2e if e > 1

if sys.byteorder != "little" or any(array(t).itemsize * 8 != w
                                   for w, t in _TYPECODE.items()):
    raise ImportError("the packed kernel needs 2- and 4-byte little-endian "
                      "array('H') and array('I') items")


def trim(a):
    """Strip trailing zero coefficients in place; return a."""
    while a and a[-1] == 0:
        a.pop()
    return a


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------

def pack(ctx, coeffs, width=_W):
    """Pack a coefficient list into one integer, `width` bits per sub-slot."""
    if ctx.e == 1:
        if width == _NARROW and ctx.q <= 256:
            # bytes() takes a list of small ints at twice array("H")'s speed
            raw = bytearray(2 * len(coeffs))
            raw[::2] = bytes(coeffs)
            return int.from_bytes(raw, "little")
        return int.from_bytes(array(_TYPECODE[width], coeffs).tobytes(), "little")
    slot = ctx._slots[width]
    return int.from_bytes(b"".join([slot[c] for c in coeffs]), "little")


def unpack(ctx, value, nslots, width=_W):
    """Unpack nslots coefficients of `width`-bit sub-slots, reducing each
    slot mod p (and mod the field modulus in the extension case)."""
    p, sub = ctx.p, 2 * ctx.e - 1
    nbytes = width // 8 * sub * nslots
    if p == 2 and sub <= width:
        # the parities sit at bit 0 of each sub-slot; shifting by
        # (width - 1) j moves sub-slot j's down to bit j of its slot's
        # first sub-slot, and no two land on one bit while j <= 2e - 2 < width
        ones = (1).to_bytes(width // 8, "little") * (sub * nslots)
        idx = par = value & int.from_bytes(ones, "little")
        for j in range(1, sub):
            idx |= par >> ((width - 1) * j)
        idx = array(_TYPECODE[width], idx.to_bytes(nbytes, "little"))[::sub]
    else:
        vals = array(_TYPECODE[width], value.to_bytes(nbytes, "little"))
        if sub == 1:
            return [v % p for v in vals]
        # fold-table index sum d_j p^j of every slot, by Horner over sub-slots
        idx = [v % p for v in vals[sub - 1::sub]]
        for j in range(sub - 2, -1, -1):
            idx = [i * p + v % p for i, v in zip(idx, vals[j::sub])]
    fold = ctx._fold
    return [fold[i] for i in idx]


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------

def kmul_naive(ctx, a, b):
    if not a or not b:
        return []
    if ctx.e == 1:
        p = ctx.p
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return trim([v % p for v in out])
    mul = ctx.mul
    add = ctx.add
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            row = mul[ai]
            for j, bj in enumerate(b):
                if bj:
                    k = i + j
                    out[k] = add[out[k]][row[bj]]
    return trim(out)


def kmul(ctx, a, b):
    """Product of two coefficient lists."""
    la, lb = len(a), len(b)
    if not la or not lb:
        return []
    m = min(la, lb)
    # a product sub-slot sums at most m * e digit products of at most
    # (p-1)^2: sub-slot j holds those of digit pairs j1 + j2 = j
    bound = m * ctx.e * (ctx.p - 1) ** 2
    if m <= _MUL_CUTOFF or bound >= 1 << _W:
        return kmul_naive(ctx, a, b)
    width = _NARROW if bound < 1 << _NARROW else _W
    prod = pack(ctx, a, width) * pack(ctx, b, width)
    return trim(unpack(ctx, prod, la + lb - 1, width))


def kscal(ctx, s, a):
    """Scalar multiple s * a for an element code s."""
    if s == 0 or not a:
        return []
    if s == 1:
        return list(a)
    row = ctx.mul[s]
    return [row[c] for c in a]


def kadd(ctx, a, b):
    add = ctx.add
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        if c:
            out[i] = add[out[i]][c]
    return trim(out)


def kneg(ctx, a):
    neg = ctx.neg
    return [neg[c] for c in a]


def ksub(ctx, a, b):
    return kadd(ctx, a, kneg(ctx, b))


def kspread(a, m):
    """Substitute theta -> theta^m (coefficients fixed): the q^k-power
    Frobenius on A when m = q^k, since c^q = c for c in F_q."""
    if not a or m == 1:
        return list(a)
    out = [0] * ((len(a) - 1) * m + 1)
    for i, c in enumerate(a):
        if c:
            out[i * m] = c
    return out


def kpow(ctx, a, n):
    """a^n by base-q windowing: a^n = prod spread(a^(digit_i), q^i), which
    turns the Frobenius part of the exponent into coefficient spreading."""
    if n < 0:
        raise ValueError("negative exponent for a polynomial power")
    if n == 0:
        return [1]
    if not a:
        return []
    q = ctx.q
    small = {1: list(a)}
    digs = []
    m = n
    while m:
        digs.append(m % q)
        m //= q
    need = sorted({dg for dg in digs if dg > 1})
    cur = list(a)
    for d in range(2, (need[-1] if need else 1) + 1):
        cur = kmul(ctx, cur, a)
        small[d] = cur
    result = None
    shift = 1
    for dg in digs:
        if dg:
            part = kspread(small[dg], shift)
            result = part if result is None else kmul(ctx, result, part)
        shift *= q
    return result


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

def kdivmod_naive(ctx, a, b, work=None):
    """Schoolbook division, one work unit per nonzero term of b per step;
    with `work`, it stops within that budget, r possibly still >= b."""
    mul, add, neg = ctx.mul, ctx.add, ctx.neg
    r = list(a)
    db = len(b) - 1
    inv_lead = ctx.inv[b[-1]]
    quo = [0] * max(0, len(a) - db)
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    steps = len(a) if work is None else work // len(terms)
    while steps and len(r) - 1 >= db and r:
        steps -= 1
        c = mul[r[-1]][inv_lead]
        shift = len(r) - 1 - db
        quo[shift] = c
        row = mul[neg[c]]
        for j, bj in terms:
            k = shift + j
            r[k] = add[r[k]][row[bj]]
        trim(r)
    return trim(quo), r


def kdivmod(ctx, a, b):
    """Euclidean division: a = q*b + r with deg r < deg b."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    la, lb = len(a), len(b)
    if la < lb:
        return [], list(a)
    if lb == 1 or not (b[0] or any(islice(b, lb - 1))):
        # b = c theta^(lb-1): a shift
        return kscal(ctx, ctx.inv[b[-1]], a[lb - 1:]), trim(a[:lb - 1])
    if la <= _DIV_CUTOFF or la - lb <= 2:
        return kdivmod_naive(ctx, a, b)
    # schoolbook is cheap on the sparse operands most callers divide; past
    # about what a packed division costs, Newton takes the rest when its
    # products (shorter operand at most nq coefficients) fit their slots
    work = _NAIVE_WORK * (1 if ctx.e == 1 else 2 * ctx.e) * (la - lb + 1)
    quo, r = kdivmod_naive(ctx, a, b, work)
    if len(r) < lb:
        return quo, r
    if (len(r) - lb + 1) * ctx.e * (ctx.p - 1) ** 2 < 1 << _W:
        rest, rem = _kdivmod_newton(ctx, r, b)
    else:
        rest, rem = kdivmod_naive(ctx, r, b)
    return kadd(ctx, quo, rest), rem


def _kdivmod_newton(ctx, a, b):
    """Division through the reversals: rev(quo) = rev(a) * g mod x^nq with
    g = 1/rev(b) mod x^nq by Newton doubling (if f*g = 1 + x^k*e mod x^2k,
    then g - x^k*(g*e) is the inverse mod x^2k), so a long quotient costs
    a few products instead of nq steps."""
    nq, m = len(a) - len(b) + 1, len(b) - 1
    f, neg = b[::-1], ctx.neg
    g, k = [ctx.inv[f[0]]], 1
    while k < nq:
        k2 = min(2 * k, nq)
        e = kmul(ctx, f[:k2], g)[k:k2]
        g += [0] * (k - len(g)) + [neg[c] for c in kmul(ctx, g, e)[:k2 - k]]
        k = k2
    rq = kmul(ctx, a[:-nq - 1:-1], g)[:nq]
    quo = trim([0] * (nq - len(rq)) + rq[::-1])
    return quo, ksub(ctx, a[:m], kmul(ctx, quo[:m], b[:m])[:m])


def kexactdiv(ctx, a, b):
    q, r = kdivmod(ctx, a, b)
    if r:
        raise InexactDivision("polynomial division left a remainder")
    return q


def kmod_binomial(ctx, a, m):
    """a mod theta^m - theta (m >= 2) in one pass: theta^k for k >= 1 is
    theta^(1 + (k-1) mod (m-1)), so slot i >= 1 of the remainder sums the
    slots of a at i, i + m - 1, i + 2(m - 1), ..."""
    if len(a) <= m:
        return list(a)
    cols = [a[i::m - 1] for i in range(1, m)]
    if ctx.e == 1:
        return trim([a[0]] + [sum(c) % ctx.p for c in cols])
    add = ctx.add
    return trim([a[0]] + [reduce(lambda x, y: add[x][y], c, 0) for c in cols])


def _units(ctx):
    """Packed value of each element code as a one-slot polynomial, so that
    unit[c] * P is c times the packed polynomial P."""
    if ctx.e == 1:
        return range(ctx.q)
    return [int.from_bytes(b, "little") for b in ctx._slots[_W]]


def reduce_interval(ctx, width, count):
    """How many packed products, each summing `width` digit products per
    sub-slot, an accumulator of `count` of them may add between reductions
    (unpack/pack) before a slot reaches 2^32; 0 if it never does."""
    step = width * ctx.e * (ctx.p - 1) ** 2
    if count * step < 1 << _W:
        return 0
    if step + ctx.p > 1 << _W:
        raise OverflowError("one packed product can overflow its slots")
    return ((1 << _W) - ctx.p) // step


def _slot_elem(ctx, value, k):
    """Element code held in slot k of a prime-field packed value whose
    slots may be unreduced (only their residues mod p are meaningful)."""
    return ((value >> (k * _W)) & _MASK) % ctx.p


_GCD_CUTOFF = 48
_GCD_UNBALANCED = 64          # length gap from which kgcd divides first
_SLOT_LIMIT = 1 << 31


def _kgcd_naive(ctx, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, kdivmod_naive(ctx, a, b)[1]
    lc = a[-1]
    return a if lc == 1 else kscal(ctx, ctx.inv[lc], a)


def kgcd(ctx, a, b):
    """Monic gcd by Euclid, after one `kdivmod` when an operand is much
    longer.  Large prime-field inputs stay packed across the remainder
    sequence: a step cancels one leading coefficient with a shifted scalar
    multiple of the other operand (added via the p-complement, so slots
    only grow), renormalizing only when the exact slot bound nears 2^31.
    Extension fields stay on schoolbook, which wins there at every size.
    """
    if not a and not b:
        raise BothZero("gcd(0, 0) is undefined")
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [1]
    if b and len(a) - len(b) >= _GCD_UNBALANCED:
        a, b = b, kdivmod(ctx, a, b)[1]
    if not b or ctx.e > 1 or len(a) <= _GCD_CUTOFF:
        return _kgcd_naive(ctx, a, b)

    p = ctx.p
    A, da, amax = pack(ctx, a), len(a) - 1, p - 1
    B, db, bmax = pack(ctx, b), len(b) - 1, p - 1
    inv_b = ctx.inv[_slot_elem(ctx, B, db)]
    while True:
        # one cancellation step: kill the leading slot of A
        s = _slot_elem(ctx, A, da) * inv_b % p
        A += (p - s) * (B << ((da - db) * _W))
        amax += (p - 1) * bmax
        if amax >= _SLOT_LIMIT:
            # cancelled lead slots hold junk that is 0 mod p; mask it off
            A &= (1 << (da * _W)) - 1
            A = pack(ctx, unpack(ctx, A, da))
            amax = p - 1
            if bmax > p - 1:
                B &= (1 << ((db + 1) * _W)) - 1
                B = pack(ctx, unpack(ctx, B, db + 1))
                bmax = p - 1
        # locate the new degree of A
        da -= 1
        while da >= 0 and _slot_elem(ctx, A, da) == 0:
            da -= 1
        if da < 0:
            B &= (1 << ((db + 1) * _W)) - 1
            g = trim(unpack(ctx, B, db + 1))
            lc = g[-1]
            return g if lc == 1 else kscal(ctx, ctx.inv[lc], g)
        if da < db:
            A, da, amax, B, db, bmax = B, db, bmax, A, da, amax
            inv_b = ctx.inv[_slot_elem(ctx, B, db)]


def kxgcd(ctx, a, b):
    """Extended gcd: returns (g, u, v) with u*a + v*b = g, g monic."""
    if not a and not b:
        raise BothZero("gcd(0, 0) is undefined")
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = kdivmod(ctx, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, ksub(ctx, s0, kmul(ctx, q, s1))
        t0, t1 = t1, ksub(ctx, t0, kmul(ctx, q, t1))
    lc = r0[-1]
    if lc != 1:
        inv = ctx.inv[lc]
        r0, s0, t0 = kscal(ctx, inv, r0), kscal(ctx, inv, s0), kscal(ctx, inv, t0)
    return r0, s0, t0


