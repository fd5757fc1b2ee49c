"""Low-level dense polynomial kernel over F_q, with packed-integer fast paths.

A polynomial is a plain Python list of element codes (ascending powers of
theta, no trailing zeros; [] is zero).  Small operands use table-driven
schoolbook loops.  Large operands are packed into a single Python integer,
one 32-bit slot per coefficient (for e = 1) or one 32-bit sub-slot per
F_p-digit with 2e sub-slots per coefficient (for e > 1), so that
polynomial multiplication becomes one big-integer multiplication and
division becomes a loop of big-integer additions of shifted multiples.

Slot arithmetic never reduces mod p until unpacking: slot values only
grow.  Unpacking reduces each sub-slot mod p and, for e > 1, reads the
2e-1 residues of a slot as one index into the context's fold table, which
maps the digits of sum d_j x^j to its element code mod the field modulus.
kmul and kdivmod check their slot bound before packing (for products,
min(len) * e * (p-1)^2 < 2^32) and fall back to the schoolbook loop when
it fails, which only happens for large p; kgcd tracks the exact slot bound
and renormalizes before it reaches 2^31.
"""

from array import array
import sys

from .errors import BothZero, DivisionByZero, InexactDivision

_W = 32                       # bits per sub-slot
_MASK = (1 << _W) - 1
_MUL_CUTOFF = 24              # below this, schoolbook beats pack/unpack
_DIV_CUTOFF = 24

assert sys.byteorder == "little" or array("I", b"\x01\x00\x00\x00")[0] == 1


def trim(a):
    """Strip trailing zero coefficients in place; return a."""
    while a and a[-1] == 0:
        a.pop()
    return a


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------

def pack(ctx, coeffs):
    """Pack a coefficient list into one integer."""
    if ctx.e == 1:
        return int.from_bytes(array("I", coeffs).tobytes(), "little")
    slot = ctx._slot_bytes
    return int.from_bytes(b"".join([slot[c] for c in coeffs]), "little")


def unpack(ctx, value, nslots):
    """Unpack nslots coefficients, reducing each slot mod p (and mod the
    field modulus in the extension case)."""
    p = ctx.p
    sub = ctx.SUB
    raw = value.to_bytes(4 * sub * nslots, "little")
    vals = array("I", raw)
    if ctx.e == 1:
        return [v % p for v in vals]
    # fold-table index sum d_j p^j of every slot, by Horner over sub-slots
    top = 2 * ctx.e - 2
    idx = [v % p for v in vals[top::sub]]
    for j in range(top - 1, -1, -1):
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
    # a product slot sums m * e digit products of at most (p-1)^2
    if m <= _MUL_CUTOFF or m * ctx.e * (ctx.p - 1) ** 2 >= 1 << _W:
        return kmul_naive(ctx, a, b)
    prod = pack(ctx, a) * pack(ctx, b)
    return trim(unpack(ctx, prod, la + lb - 1))


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
    d = 2
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

def kdivmod_naive(ctx, a, b):
    p = ctx.p
    r = list(a)
    db = len(b) - 1
    inv_lead = ctx.inv[b[-1]]
    quo = [0] * max(0, len(a) - db)
    if ctx.e == 1:
        while len(r) - 1 >= db and r:
            c = (r[-1] * inv_lead) % p
            shift = len(r) - 1 - db
            quo[shift] = c
            for j, bj in enumerate(b):
                if bj:
                    r[shift + j] = (r[shift + j] - c * bj) % p
            trim(r)
        return trim(quo), r
    mul, add, neg = ctx.mul, ctx.add, ctx.neg
    while len(r) - 1 >= db and r:
        c = mul[r[-1]][inv_lead]
        shift = len(r) - 1 - db
        quo[shift] = c
        row = mul[neg[c]]
        for j, bj in enumerate(b):
            if bj:
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
    if lb == 1:
        inv = ctx.inv[b[0]]
        return kscal(ctx, inv, a), []
    if la <= _DIV_CUTOFF or la - lb <= 2:
        return kdivmod_naive(ctx, a, b)
    p, e = ctx.p, ctx.e
    nq = la - lb + 1
    # a slot starts below p and takes at most min(nq, lb) * e additions of
    # a digit times a divisor digit
    if (p - 1) + min(nq, lb) * e * (p - 1) ** 2 >= 1 << _W:
        return kdivmod_naive(ctx, a, b)

    slotbits = _W * ctx.SUB
    lc = b[-1]
    bm = b if lc == 1 else kscal(ctx, ctx.inv[lc], b)
    D = pack(ctx, bm)
    R = pack(ctx, a)
    quo = [0] * nq
    if e == 1:
        for k in range(nq - 1, -1, -1):
            s = ((R >> ((k + lb - 1) * slotbits)) & _MASK) % p
            if s:
                quo[k] = s
                R += (p - s) * (D << (k * slotbits))
    else:
        unit, neg = _units(ctx), ctx.neg
        for k in range(nq - 1, -1, -1):
            s = _slot_elem(ctx, R, k + lb - 1)
            if s:
                quo[k] = s
                R += unit[neg[s]] * (D << (k * slotbits))
    rem = trim(unpack(ctx, R & ((1 << ((lb - 1) * slotbits)) - 1), lb - 1))
    if lc != 1:
        quo = kscal(ctx, ctx.inv[lc], quo)
    return trim(quo), rem


def kexactdiv(ctx, a, b):
    q, r = kdivmod(ctx, a, b)
    if r:
        raise InexactDivision("polynomial division left a remainder")
    return q


def _units(ctx):
    """Packed value of each element code as a one-slot polynomial, so that
    unit[c] * P is c times the packed polynomial P."""
    if ctx.e == 1:
        return range(ctx.q)
    return [int.from_bytes(b, "little") for b in ctx._slot_bytes]


def _slot_elem(ctx, value, k):
    """Element code held in coefficient slot k of a packed value whose
    sub-slots may be unreduced (only their residues mod p are meaningful)."""
    p = ctx.p
    if ctx.e == 1:
        return ((value >> (k * _W)) & _MASK) % p
    top = value >> (k * _W * ctx.SUB)
    idx = 0
    for j in range(2 * ctx.e - 2, -1, -1):
        idx = idx * p + ((top >> (_W * j)) & _MASK) % p
    return ctx._fold[idx]


_GCD_CUTOFF = 48
_SLOT_LIMIT = 1 << 31


def _kgcd_naive(ctx, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, kdivmod_naive(ctx, a, b)[1]
    lc = a[-1]
    return a if lc == 1 else kscal(ctx, ctx.inv[lc], a)


def kgcd(ctx, a, b):
    """Monic gcd by Euclid.

    Large inputs stay packed across the whole remainder sequence: a step
    cancels one leading coefficient with a shifted scalar multiple of the
    other operand (added via the p-complement, so slots only grow), and
    operands are unpacked/repacked for renormalization only when the exact
    slot-magnitude bound approaches 2^31.
    """
    if not a and not b:
        raise BothZero("gcd(0, 0) is undefined")
    if not a or not b:
        c = a or b
        lc = c[-1]
        return list(c) if lc == 1 else kscal(ctx, ctx.inv[lc], c)
    # the extension-field packed path renormalizes its divisor every swap,
    # which only pays off at larger degrees than the prime-field path
    cutoff = _GCD_CUTOFF if ctx.e == 1 else 600
    if max(len(a), len(b)) <= cutoff:
        return _kgcd_naive(ctx, a, b)

    p, e = ctx.p, ctx.e
    slotbits = _W * ctx.SUB
    growth = e * (p - 1)  # per-step slot growth factor against the divisor bound
    A, da, amax = pack(ctx, a), len(a) - 1, p - 1
    B, db, bmax = pack(ctx, b), len(b) - 1, p - 1
    if da < db:
        A, da, amax, B, db, bmax = B, db, bmax, A, da, amax
    mul, inv, neg, unit = ctx.mul, ctx.inv, ctx.neg, _units(ctx)
    lead_b = _slot_elem(ctx, B, db)
    while True:
        # one cancellation step: kill the leading slot of A
        s = mul[_slot_elem(ctx, A, da)][inv[lead_b]]
        shift = (da - db) * slotbits
        A += unit[neg[s]] * (B << shift)
        amax += growth * bmax
        if amax >= _SLOT_LIMIT:
            # cancelled lead slots hold junk that is 0 mod p; mask it off
            A &= (1 << (da * slotbits)) - 1
            A = pack(ctx, unpack(ctx, A, da))
            amax = p - 1
            if bmax > p - 1:
                B &= (1 << ((db + 1) * slotbits)) - 1
                B = pack(ctx, unpack(ctx, B, db + 1))
                bmax = p - 1
        # locate the new degree of A
        da -= 1
        while da >= 0 and _slot_elem(ctx, A, da) == 0:
            da -= 1
        if da < 0:
            B &= (1 << ((db + 1) * slotbits)) - 1
            g = trim(unpack(ctx, B, db + 1))
            lc = g[-1]
            return g if lc == 1 else kscal(ctx, ctx.inv[lc], g)
        if da < db:
            A, da, amax, B, db, bmax = B, db, bmax, A, da, amax
            if e > 1:
                # keep divisor sub-slots x-reduced: shifted digit additions
                # against an unreduced divisor would overrun the 2e-2 budget
                B &= (1 << ((db + 1) * slotbits)) - 1
                B = pack(ctx, unpack(ctx, B, db + 1))
                bmax = p - 1
            lead_b = _slot_elem(ctx, B, db)


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


