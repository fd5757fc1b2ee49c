"""Low-level dense polynomial kernel over F_q, with packed-integer fast paths.

A polynomial is a plain Python list of element codes (ascending powers of
theta, no trailing zeros; [] is zero).  Over a field with byte codecs (see
below) it may also be `bytes`, the form `RawTPoly` keeps: `trim`, `kmul`
(with its addend), `kadd`, `kneg`, `kscal`, `kdivmod`, `kexactdiv`, `kgcd`
and `kmod_binomial` take bytes operands, and each returns bytes when its
first coefficient operand is bytes, else a list (the result-type rule).
The byte-table paths and `unpack` make bytes directly, so a product or a
sum of bytes values builds no list; a schoolbook result is converted once.
Small operands use table-driven
schoolbook loops.  Large operands are packed into a single Python integer,
one sub-slot per F_p-digit: one per coefficient for e = 1 and 2e-1 per
coefficient for e > 1 (the e digits of a code, then e-1 zero sub-slots
for the digit products of a product slot), so that polynomial
multiplication becomes one big-integer multiplication.  A sub-slot is 16
or 32 bits wide: `kmul` takes the narrowest width that holds its product
bound, every other packed path 32 bits.  When one operand has at most
four nonzero terms and the other is longer than the schoolbook cutoff,
`kmul` adds shifted scalar multiples of the packed long operand instead (a
monomial is a shift); its optional addend c is packed into the same sum,
so c + a*b costs one unpack.  When both operands are longer than the
cutoff, at most 1/8 of each is nonzero and their na, nb nonzero terms
have na * nb <= la + lb (products of the closed forms' elementary
symmetric functions of theta^(q^j)), `kmul` packs nothing: its schoolbook
reads only the nonzero slots, found in C by translate and find.  Each
operand's terms are counted once for both sparse tests.  Division is
schoolbook over the divisor's nonzero terms up to a work budget (over
F_p on plain integers, reduced as read); what that prefix leaves goes to
Newton division in blocks against one inverse of the reversed divisor to
max(len(b), 64) terms, each block a short product for the quotient and
one for the remainder (schoolbook again when a product's slots would
overflow).  A divisor theta^m - theta is a recurrence from the top,
summed as one packed strided suffix sum.

Slot arithmetic never reduces mod p until unpacking: slot values only
grow.  Unpacking reduces each sub-slot mod p and, for e > 1, reads the
2e-1 residues of a slot as one index into the context's fold table, which
maps the digits of sum d_j x^j to its element code mod the field modulus.
kmul and kdivmod check their slot bound before packing (for products,
min(len) * e * (p-1)^2, or the sparse operand's nonzero terms times
e * (p-1)^2, plus p-1 for an addend; below 2^16 for 16-bit and 2^32 for
32-bit sub-slots) and fall back to the schoolbook loop past 2^32, which
only happens for large p; the prime-field kgcd tracks the exact slot
bounds and renormalizes before a step whose sum could reach 2^32.

For q <= 16, where codes and the sums a*q + b of two codes fit in a byte,
the codecs and the coefficient-wise operations are bytes.translate calls
on byte-packed values, through tables built on first use and kept on the
context: unpack reduces byte k of every sub-slot to x * 256^k mod p, adds
these lanes as integers and reads the fold table by one more translate;
kadd reads a*q + b through a flattened addition table.  Other fields keep
the per-coefficient loops, which read and write native 16- and 32-bit
array items as little-endian bytes, so importing the module fails on any
other platform.
"""

from array import array
from itertools import compress, islice
import sys
from types import SimpleNamespace

from .errors import BothZero, DivisionByZero, InexactDivision

_W = 32                       # bits per sub-slot, except in kmul
_MASK = (1 << _W) - 1
_NARROW = 16                  # kmul's sub-slot width while its bound allows
_TYPECODE = {16: "H", 32: "I"}
_MUL_CUTOFF = 24              # below this, schoolbook beats pack/unpack
_SPARSE = 4                   # kmul's most nonzero terms of a sparse operand
_DIV_CUTOFF = 24
_NAIVE_WORK = 8               # schoolbook work per quotient slot, times 2e if e > 1
_BLOCK = 64                   # shortest Newton block (and inverse length)
_FOLD_MIN = 16                # kmod_binomial sums columns up to this m if e = 1

if sys.byteorder != "little" or any(array(t).itemsize * 8 != w
                                   for w, t in _TYPECODE.items()):
    raise ImportError("the packed kernel needs 2- and 4-byte little-endian "
                      "array('H') and array('I') items")


def trim(a):
    """Strip trailing zero coefficients: a list in place, returning it;
    bytes by rstrip, into a new value.  compress() finds the last nonzero
    slot of a list in one scan from the top, in C."""
    if a and not a[-1]:
        if type(a) is bytes:
            return a.rstrip(b"\0")
        del a[next(compress(range(len(a) - 1, -1, -1), reversed(a)), -1) + 1:]
    return a


def _like(first, a):
    """The result-type rule: a, a list or bytes, as bytes when `first` (the
    first coefficient operand) is bytes, else as it is."""
    if type(first) is bytes and type(a) is not bytes:
        return bytes(bytearray(a))  # faster than bytes(a) from a list
    return a


def _copy(a):
    """a as a new list, or bytes a itself (bytes are immutable)."""
    return a if type(a) is bytes else list(a)


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------

def _table(values):
    """A bytes.translate table: `values`, then zeros up to 256 entries."""
    return bytes(values).ljust(256, b"\0")


def _byte_tables(ctx):
    """The byte codecs' tables for a field with q * q <= 256."""
    p, e = ctx.p, ctx.e
    residue = (bytes(range(p)) * (256 // p + 1))[:256]  # x mod p

    def times(f):  # x -> (x mod p) f, for (p - 1) f < 256
        return residue.translate(_table(i * f for i in range(p)))
    return SimpleNamespace(
        # add[a q + b] = a + b, neg[a] = -a, mul[s][a] = s a
        add=_table(b"".join(map(bytes, ctx.add))),
        neg=_table(ctx.neg), mul=[_table(row) for row in ctx.mul],
        # byte k of a sub-slot is worth x 256^k mod p of its residue; for
        # p = 2 byte 0 alone holds the parity
        lanes={w: [(k, times(256 ** k % p).translate(residue))
                   for k in range(w // 8)] if p > 2 else [] for w in _TYPECODE},
        # weights[j][x] = (x mod p) p^j: summed over the 2e-1 sub-slots of a
        # slot, the index of its code in the fold table
        weights=[times(p ** j) for j in range(2 * e - 1)],
        fold=_table(ctx._fold or ()),
        digits=[_table(ds[j] for ds in ctx.digits) for j in range(e)])


def _codec(ctx):
    """The byte tables of a field whose codes, and the sums a q + b of two
    codes, fit in a byte (q <= 16), built on first use; False for any other
    field."""
    t = ctx._bytes
    if t is None:
        t = ctx._bytes = ctx.q * ctx.q <= 256 and _byte_tables(ctx)
    return t


def pack(ctx, coeffs, width=_W):
    """Pack a coefficient list into one integer, `width` bits per sub-slot."""
    size = width // 8
    if ctx.e == 1:
        if ctx.q > 256:
            return int.from_bytes(array(_TYPECODE[width], coeffs).tobytes(), "little")
        # bytearray() reads a list of small ints faster than bytes() or array()
        raw = bytearray(size * len(coeffs))
        raw[::size] = bytearray(coeffs)
        return int.from_bytes(raw, "little")
    t = _codec(ctx)
    if not t:
        slot = ctx._slots[width]
        return int.from_bytes(b"".join([slot[c] for c in coeffs]), "little")
    stride = (2 * ctx.e - 1) * size
    raw, codes = bytearray(stride * len(coeffs)), bytearray(coeffs)
    for j, digit in enumerate(t.digits):
        raw[j * size::stride] = codes.translate(digit)
    return int.from_bytes(raw, "little")


def unpack(ctx, value, nslots, width=_W, as_bytes=False):
    """Unpack nslots coefficients of `width`-bit sub-slots, reducing each
    slot mod p (and mod the field modulus in the extension case); as bytes
    if asked, over a field with byte codecs."""
    p, sub, size = ctx.p, 2 * ctx.e - 1, width // 8
    raw = value.to_bytes(size * sub * nslots, "little")
    t = _codec(ctx)
    if t:
        lanes = t.lanes[width]
        if lanes:  # each byte of the lane sum stays below 4 p: no carries
            raw = sum(int.from_bytes(raw[k::size].translate(lane), "little")
                      for k, lane in lanes).to_bytes(sub * nslots, "little")
        else:
            raw = raw[::size]
        if sub == 1:
            out = raw.translate(t.weights[0])
        else:
            idx = sum(int.from_bytes(raw[j::sub].translate(w), "little")
                      for j, w in enumerate(t.weights))
            out = idx.to_bytes(nslots, "little").translate(t.fold)
        return out if as_bytes else list(out)
    vals = array(_TYPECODE[width], raw)
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

_FLAG = _table(b"\0" + b"\1" * 255)       # a nonzero byte -> 1


def _terms(ctx, a):
    """(i, a_i) for the nonzero slots i of a; where codes fit in a byte, by
    one translate and one find per term, in C."""
    if ctx.q > 256:
        return [(i, c) for i, c in enumerate(a) if c]
    flags, out = bytearray(a).translate(_FLAG), []
    i = flags.find(1)
    while i >= 0:
        out.append((i, a[i]))
        i = flags.find(1, i + 1)
    return out


def kmul_naive(ctx, a, b):
    """Schoolbook a*b through the field tables, one step per pair of
    nonzero terms: a long product finds the terms first (`_terms`), a short
    one skips zeros as it scans; bytes when a is bytes."""
    if not a or not b:
        return []
    n, mul, add = len(a) + len(b) - 1, ctx.mul, ctx.add
    out = bytearray(n) if type(a) is bytes else [0] * n
    if n > 2 * _MUL_CUTOFF:
        rows, terms = _terms(ctx, a), _terms(ctx, b)
    else:  # scanned, b anew for each row: no objects to allocate
        rows, terms = enumerate(a), ()
    for i, ai in rows:
        if ai:
            row = mul[ai]
            for j, bj in terms or enumerate(b):
                if bj:
                    out[i + j] = add[out[i + j]][row[bj]]
    return trim(bytes(out) if type(out) is bytearray else out)


def kmul(ctx, a, b, c=None):
    """c + a*b for coefficient lists a, b and an optional addend c, with one
    unpack when packed; bytes when a is bytes."""
    la, lb = len(a), len(b)
    to_bytes = type(a) is bytes
    if not la or not lb:
        return bytes(c or b"") if to_bytes else list(c or ())
    if (type(b) is bytes) is not to_bytes:
        b = bytes(bytearray(b)) if to_bytes else list(b)
    # a product sub-slot sums at most m * e digit products of at most
    # (p-1)^2 (sub-slot j holds those of digit pairs j1 + j2 = j), over the
    # m = min(la, lb) slot pairs, or the m nonzero terms of a sparse operand
    # times a long one; the addend adds one digit
    m, sparse, few = min(la, lb), None, False
    if max(la, lb) > _MUL_CUTOFF:
        # nonzero terms of each operand that can be sparse against a long
        # other one, counted once (the length itself where none is counted);
        # two long operands with few terms each take the schoolbook, which
        # reads only their na * nb pairs of terms
        na = la - a.count(0) if lb > _MUL_CUTOFF else la
        nb = lb - b.count(0) if la > _MUL_CUTOFF else lb
        few = m > _MUL_CUTOFF and 8 * na <= la and 8 * nb <= lb and na * nb <= la + lb
        for x, y, terms in ((a, b, na), (b, a, nb)):
            if len(y) > _MUL_CUTOFF and terms <= _SPARSE and not few:
                m, sparse, dense = terms, x, y
                break
    if sparse is not None and m == 1:  # a monomial: a shift
        i = next(compress(range(len(sparse)), sparse))
        prod = trim((bytes(i) if to_bytes else [0] * i) + kscal(ctx, sparse[i], dense))
        return kadd(ctx, prod, c) if c else prod
    bound = m * ctx.e * (ctx.p - 1) ** 2 + (ctx.p - 1 if c else 0)
    if few or bound >= 1 << _W or (m <= _MUL_CUTOFF and sparse is None):
        prod = _like(a, kmul_naive(ctx, a, b))
        return kadd(ctx, prod, c) if c else prod
    width = _NARROW if bound < 1 << _NARROW else _W
    acc = pack(ctx, c, width) if c else 0
    if sparse is None:
        acc += pack(ctx, a, width) * pack(ctx, b, width)
    else:
        v, bits = pack(ctx, dense, width), (2 * ctx.e - 1) * width
        unit = _units(ctx, width)
        for i in compress(range(len(sparse)), sparse):
            acc += unit[sparse[i]] * v << i * bits
    return trim(unpack(ctx, acc, max(la + lb - 1, len(c or ())), width, to_bytes))


def kscal(ctx, s, a):
    """Scalar multiple s * a for an element code s."""
    if s == 0 or not a:
        return _like(a, [])
    if s == 1:
        return _copy(a)
    t = _codec(ctx)
    if t:
        out = bytearray(a).translate(t.mul[s])
        return bytes(out) if type(a) is bytes else list(out)
    row = ctx.mul[s]
    return [row[c] for c in a]


def kadd(ctx, a, b):
    t = _codec(ctx)
    if t:
        # slot i of a q + b is a_i q + b_i < q^2 <= 256, no carries
        s = (int.from_bytes(bytearray(a), "little") * ctx.q
             + int.from_bytes(bytearray(b), "little"))
        out = s.to_bytes(max(len(a), len(b)), "little").translate(t.add).rstrip(b"\0")
        return out if type(a) is bytes else list(out)
    add = ctx.add
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        if c:
            out[i] = add[out[i]][c]
    return trim(out)


def kneg(ctx, a):
    t = _codec(ctx)
    if t:
        out = bytearray(a).translate(t.neg)
        return bytes(out) if type(a) is bytes else list(out)
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
    out[::m] = a
    return out


def kpow(ctx, a, n):
    """a^n by base-q windowing: a^n = prod spread(a^(digit_i), q^i), which
    turns the Frobenius part of the exponent into coefficient spreading.
    Each digit power is square-and-multiply over the squares a^(2^k),
    shared by all digits."""
    if n < 0:
        raise ValueError("negative exponent for a polynomial power")
    if n == 0:
        return [1]
    if not a:
        return []
    q, squares, powers = ctx.q, [list(a)], {}
    result, shift = None, 1
    while n:
        n, g = divmod(n, q)
        if g:
            part = powers.get(g)
            if part is None:  # the product of the squares a^(2^k) of g's bits
                for k in range(g.bit_length()):
                    if k == len(squares):
                        squares.append(kmul(ctx, squares[-1], squares[-1]))
                    if g >> k & 1:
                        part = squares[k] if part is None else kmul(ctx, part, squares[k])
                powers[g] = part
            part = kspread(part, shift)
            result = part if result is None else kmul(ctx, result, part)
        shift *= q
    return result


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

def kdivmod_naive(ctx, a, b, work=None):
    """Schoolbook division, one work unit per nonzero term of b per nonzero
    quotient slot; with `work`, it stops within that budget, r possibly
    still >= b.  It walks r from the top, reading each slot once: for e = 1
    the slots are plain integers, reduced mod p only when read."""
    db, inv_lead, p, e1 = len(b) - 1, ctx.inv[b[-1]], ctx.p, ctx.e == 1
    mul, add = ctx.mul, ctx.add
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    steps = len(a) if work is None else work // len(terms)
    r, end, quo = list(a), db, [0] * (len(a) - db)
    for top in range(len(a) - 1, db - 1, -1):
        c = r[top]
        if c and e1:
            c %= p
        if c:
            if not steps:
                end = top + 1
                break
            steps -= 1
            shift = top - db
            if e1:
                quo[shift] = c = c * inv_lead % p
                c = p - c
                for j, bj in terms:
                    r[shift + j] += c * bj
            else:
                quo[shift] = c = mul[c][inv_lead]
                row = mul[ctx.neg[c]]
                for j, bj in terms:
                    k = shift + j
                    r[k] = add[r[k]][row[bj]]
    del r[end:]
    return trim(quo), trim([v % p for v in r] if e1 else r)


def kdivmod(ctx, a, b):
    """Euclidean division: a = q*b + r with deg r < deg b."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    la, lb = len(a), len(b)
    m = lb - 1
    if la < lb:
        quo, rem = [], _copy(a)
    elif lb == 1 or not (b[0] or any(islice(b, lb - 1))):
        # b = c theta^(lb-1): a shift
        quo, rem = kscal(ctx, ctx.inv[b[-1]], a[lb - 1:]), trim(a[:lb - 1])
    elif la <= _DIV_CUTOFF or la - lb <= 2:
        quo, rem = kdivmod_naive(ctx, a, b)
    elif (b[-1] == 1 and b[1] == ctx.neg[1] and not (b[0] or any(islice(b, 2, m)))
            and _sums_fit(ctx, la - lb, m - 1)):
        # b = theta^m - theta: quo_j = a_(j+m) + quo_(j+m-1) from the top, a
        # strided suffix sum, and rem_i = a_i + quo_(i-1) for i < m
        quo = _strided_sums(ctx, a[lb - 1:], m - 1, la - m)
        rem = kadd(ctx, a[:m], [0] + quo[:m - 1])
    else:
        # schoolbook is cheap on the sparse operands most callers divide;
        # past about what a packed division costs, Newton takes the rest
        work = _NAIVE_WORK * (1 if ctx.e == 1 else 2 * ctx.e) * (la - lb + 1)
        quo, rem = kdivmod_naive(ctx, a, b, work)
        if len(rem) >= lb:
            rest, rem = _kdivmod_newton(ctx, rem, b)
            quo = kadd(ctx, quo, rest)
    return _like(a, quo), _like(a, rem)


def _kmul_part(ctx, a, b, lo, hi):
    """Coefficients lo .. hi-1 of a*b, zero-padded to hi - lo, from operands
    cut to hi terms; a packed product unpacks only those slots."""
    a, b = a[:hi], b[:hi]
    m = min(len(a), len(b))
    bound = m * ctx.e * (ctx.p - 1) ** 2
    if m <= _MUL_CUTOFF or bound >= 1 << _W:
        out = list(kmul_naive(ctx, a, b)[lo:hi])
        return out + [0] * (hi - lo - len(out))
    width = _NARROW if bound < 1 << _NARROW else _W
    bits = (2 * ctx.e - 1) * width
    prod = pack(ctx, a, width) * pack(ctx, b, width) >> (lo * bits)
    return unpack(ctx, prod & ((1 << ((hi - lo) * bits)) - 1), hi - lo, width)


def _kdivmod_newton(ctx, a, b):
    """Division in blocks of size = max(len(b), _BLOCK) quotient slots (at
    most all of them) from the top, against one g = 1/rev(b) mod x^size:
    rev(block) = rev(top n slots of r) * g mod x^n, and r drops those n
    slots and takes (block * b) mod x^(len(b) - 1) off the ones below."""
    db, neg = len(b) - 1, ctx.neg
    top = len(a) - db
    size = min(top, max(db + 1, _BLOCK))
    if size * ctx.e * (ctx.p - 1) ** 2 >= 1 << _W:  # a block product's slots overflow
        return kdivmod_naive(ctx, a, b)
    # seed rev(theta^(k-1+deg c) div c), c the top k terms of b; then if
    # f*g = 1 + x^k*e mod x^2k, g - x^k*(g*e) is 1/f mod x^2k
    k, c = min(size, _MUL_CUTOFF), b[-_MUL_CUTOFF:]
    g = kdivmod_naive(ctx, [0] * (k + len(c) - 2) + [1], c)[0][::-1]
    f = b[:-size - 1:-1]
    while k < size:
        k2 = min(2 * k, size)
        g += kneg(ctx, _kmul_part(ctx, g, _kmul_part(ctx, f, g, k, k2), 0, k2 - k))
        k = k2
    r, quo, add = list(a), [0] * top, ctx.add
    while top:
        lo = max(0, top - size)
        quo[lo:top] = blk = _kmul_part(ctx, r[top + db - 1:lo + db - 1:-1], g, 0,
                                       top - lo)[::-1]
        low = _kmul_part(ctx, blk, b, 0, db)
        r[lo:] = [add[x][neg[y]] for x, y in zip(r[lo:lo + db], low)]
        top = lo
    return trim(quo), trim(r)


def kexactdiv(ctx, a, b):
    q, r = kdivmod(ctx, a, b)
    if r:
        raise InexactDivision("polynomial division left a remainder")
    return q


def _sums_fit(ctx, n, s):
    """Whether `_strided_sums` of n slots at stride s fits 32-bit sub-slots."""
    return (n // s + 1) * (ctx.p - 1) < 1 << _W


def _strided_sums(ctx, a, s, n):
    """Slots 0 .. n-1 of the sums a_j + a_(j+s) + a_(j+2s) + ...: a packed
    once, each doubling step adds it shifted by s, 2s, 4s, ... slots."""
    bits = (2 * ctx.e - 1) * _W
    v, k = pack(ctx, a), s
    while k < len(a):
        v += v >> (k * bits)
        k *= 2
    return unpack(ctx, v & ((1 << (n * bits)) - 1), n)


def kmod_binomial(ctx, a, m):
    """a mod theta^m - theta (m >= 2) in one pass: theta^k for k >= 1 is
    theta^(1 + (k-1) mod (m-1)), so slot i >= 1 of the remainder sums the
    slots of a at i, i + m - 1, i + 2(m - 1), ...: column sums for e = 1
    and short m, else the packed a[1:] folded onto its first m - 1 slots."""
    if len(a) <= m:
        return _copy(a)
    if ctx.e == 1 and m <= _FOLD_MIN:
        rem = trim([a[0]] + [sum(a[i::m - 1]) % ctx.p for i in range(1, m)])
    elif _sums_fit(ctx, len(a), m - 1):
        rem = trim([a[0]] + _strided_sums(ctx, a[1:], m - 1, m - 1))
    else:
        rem = kdivmod_naive(ctx, a, [0, ctx.neg[1]] + [0] * (m - 2) + [1])[1]
    return _like(a, rem)


def _units(ctx, width=_W):
    """Packed value of each element code as a one-slot polynomial, so that
    unit[c] * P is c times the packed polynomial P."""
    if ctx.e == 1:
        return range(ctx.q)
    return [int.from_bytes(b, "little") for b in ctx._slots[width]]


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
_SLOT_LIMIT = 1 << _W


def _low_slots(ctx, value, nslots):
    """The reduced coefficients of the low nslots slots of a prime-field
    packed value, whose higher slots may hold junk."""
    return unpack(ctx, value & ((1 << (nslots * _W)) - 1), nslots)


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
    only grow).  It tracks the exact slot bounds of A and B, and before a
    step that could carry out of a 32-bit slot it renormalizes A, and B
    unless B is reduced; fields with (p - 1) p >= 2^32, where even that
    step could carry, take schoolbook.  Extension fields stay on
    schoolbook, which wins there at every size.
    """
    if not a and not b:
        raise BothZero("gcd(0, 0) is undefined")
    first = a
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return _like(first, [1])
    if b and len(a) - len(b) >= _GCD_UNBALANCED:
        a, b = b, kdivmod(ctx, a, b)[1]
    p = ctx.p
    if not b or ctx.e > 1 or len(a) <= _GCD_CUTOFF or (p - 1) * p >= _SLOT_LIMIT:
        return _like(first, _kgcd_naive(ctx, a, b))

    A, da, amax = pack(ctx, a), len(a) - 1, p - 1
    B, db, bmax = pack(ctx, b), len(b) - 1, p - 1
    inv_b = ctx.inv[_slot_elem(ctx, B, db)]
    while True:
        # one cancellation step: kill the leading slot of A, after
        # renormalizing if the step could carry out of a slot (cancelled
        # lead slots hold junk that is 0 mod p; `_low_slots` masks it off)
        amax += (p - 1) * bmax
        if amax >= _SLOT_LIMIT:
            A = pack(ctx, _low_slots(ctx, A, da + 1))
            if bmax > p - 1:
                B = pack(ctx, _low_slots(ctx, B, db + 1))
                bmax = p - 1
            amax = (p - 1) * p
        s = _slot_elem(ctx, A, da) * inv_b % p
        A += (p - s) * (B << ((da - db) * _W))
        # locate the new degree of A
        da -= 1
        while da >= 0 and _slot_elem(ctx, A, da) == 0:
            da -= 1
        if da < 0:
            g = trim(_low_slots(ctx, B, db + 1))
            lc = g[-1]
            return _like(first, g if lc == 1 else kscal(ctx, ctx.inv[lc], g))
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


