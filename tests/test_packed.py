"""The packed-integer kernel against schoolbook reference loops."""

import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from carlitz import _packed as kern
from carlitz.errors import BothZero, DivisionByZero, InexactDivision
from carlitz.ffield import FieldContext

import naive_reference as ref

FIELDS = {q: FieldContext(q) for q in (3, 4, 5, 8, 9, 16, 25, 27)}


def field(q):
    """FIELDS[q], else a new context (F_2003 takes 0.5 s and 60 MB, so it
    is not kept)."""
    return FIELDS.get(q) or FieldContext(q)


def binomial(ctx, m):
    """theta^m - theta as a coefficient list."""
    return [0, ctx.neg[1]] + [0] * (m - 2) + [1]


def coeff_lists(q, max_len=120):
    return st.lists(st.integers(0, q - 1), min_size=0, max_size=max_len).map(
        lambda xs: kern.trim(list(xs)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_mul_matches_reference(q, data):
    ctx = FIELDS[q]
    a = data.draw(coeff_lists(q))
    b = data.draw(coeff_lists(q))
    assert kern.kmul(ctx, a, b) == ref.nmul(ctx, a, b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_divmod_matches_reference(q, data):
    ctx = FIELDS[q]
    a = data.draw(coeff_lists(q))
    b = data.draw(coeff_lists(q).filter(lambda x: x))
    quo, rem = kern.kdivmod(ctx, a, b)
    assert (quo, rem) == ref.ndivmod(ctx, a, b)
    # reconstruction
    assert ref.nadd(ctx, ref.nmul(ctx, quo, b), rem) == a


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_binomial_fold_matches_schoolbook(q, data):
    ctx = FIELDS[q]
    m = data.draw(st.sampled_from([2, 3, q, q + 1, q * q]))
    a = data.draw(coeff_lists(q, max_len=8 * m + 20))
    assert kern.kmod_binomial(ctx, a, m) == kern.kdivmod_naive(ctx, a, binomial(ctx, m))[1]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_divmod_by_a_monomial_is_a_shift(q, data):
    ctx = FIELDS[q]
    a = data.draw(coeff_lists(q))
    k = data.draw(st.integers(0, 40))
    b = [0] * k + [data.draw(st.integers(1, q - 1))]
    assert kern.kdivmod(ctx, a, b) == ref.ndivmod(ctx, a, b)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_gcd_matches_reference(q, data):
    ctx = FIELDS[q]
    a = data.draw(coeff_lists(q))
    b = data.draw(coeff_lists(q))
    if not a and not b:
        return
    assert kern.kgcd(ctx, a, b) == ref.ngcd(ctx, a, b)


@pytest.mark.parametrize("q", [3, 4, 5, 8, 9])
def test_gcd_big_structured(q):
    import random
    ctx = FIELDS.get(q, FieldContext(q))
    rng = random.Random(q * 17)
    for _ in range(3):
        a = kern.trim([rng.randrange(q) for _ in range(rng.randint(400, 900))])
        b = kern.trim([rng.randrange(q) for _ in range(rng.randint(300, 700))])
        g = kern.trim([rng.randrange(q) for _ in range(rng.randint(40, 160))])
        if not (a and b and g):
            continue
        ag, bg = kern.kmul(ctx, a, g), kern.kmul(ctx, b, g)
        got = kern.kgcd(ctx, ag, bg)
        assert got == ref.ngcd(ctx, ag, bg)
        # the planted factor divides the gcd
        assert not ref.ndivmod(ctx, got, g)[1]


@pytest.mark.parametrize("q", [11, 13, 31, 101, 251])
def test_gcd_at_large_p_matches_reference(q, monkeypatch):
    # the packed loop at large p, where a swapped-in operand's slot bound
    # is near 2^31 and one more step would carry out of a 32-bit slot
    ctx = field(q)
    rng = random.Random(q + 31)
    monkeypatch.setattr(kern, "_kgcd_naive", None)   # every pair stays packed
    for _ in range(40):
        g = random_poly(rng, q, rng.randint(2, 40))
        a = random_poly(rng, q, rng.randint(50, 110))
        b = random_poly(rng, q, rng.randint(50, 110))
        ag, bg = ref.nmul(ctx, a, g), ref.nmul(ctx, b, g)
        assert kern.kgcd(ctx, ag, bg) == ref.ngcd(ctx, ag, bg)


def random_poly(rng, q, n, density=1.0):
    """A length-n coefficient list with a nonzero leading coefficient."""
    return [rng.randrange(q) if rng.random() < density else 0
            for _ in range(n - 1)] + [rng.randrange(1, q)]


def spy_division_paths(monkeypatch):
    """Record the fast path each division takes: "newton" (in blocks) or
    "binomial" (the theta^m - theta recurrence); a kdivmod adding neither
    ended in the schoolbook prefix."""
    seen = []
    for path, name in (("newton", "_kdivmod_newton"), ("binomial", "_strided_sums")):
        real = getattr(kern, name)
        monkeypatch.setattr(kern, name,
                            lambda *args, _r=real, _p=path: seen.append(_p) or _r(*args))
    return seen


# (len a, len b) pairs on both sides of the schoolbook work budget and of
# Newton's block size max(len b, 64), so that some divisions end in the
# schoolbook prefix and the rest go on to Newton: a short divisor under a
# long quotient (many blocks), quotients near one block of 64, a divisor
# longer than its quotient (one block), and 3n by n
DIVISION_SHAPES = [(2185, 7), (2000, 40), (2100, 700), (512, 385), (127, 64),
                   (128, 64), (129, 64), (640, 513), (1200, 17), (900, 300)]


@pytest.mark.parametrize("q", [3, 4, 5, 9, 25])
def test_divmod_above_cutoffs(q, monkeypatch):
    ctx = FIELDS[q]
    rng = random.Random(q)
    paths, routes = spy_division_paths(monkeypatch), set()
    for la, lb in DIVISION_SHAPES:
        for density in (1.0, 0.05):
            a = random_poly(rng, q, la, density)
            b = random_poly(rng, q, lb, density)
            del paths[:]
            assert kern.kdivmod(ctx, a, b) == ref.ndivmod(ctx, a, b), (la, lb)
            routes.add(tuple(paths))
    assert routes == {(), ("newton",)}  # both the prefix and Newton finished some
    # exact division by a planted factor
    f, g = random_poly(rng, q, 1500), random_poly(rng, q, 300)
    assert kern.kdivmod(ctx, ref.nmul(ctx, f, g), g) == (f, [])


# (quotient, divisor) lengths for Newton in blocks of size = max(lb, 64),
# at most the quotient: a divisor longer than its quotient (one block), one
# block of 64, three of 64 and a partial one, and two of lb and a partial one
NEWTON_SHAPES = [(150, 200), (64, 40), (3 * 64 + 17, 40), (2 * 150 + 1, 150)]


@pytest.mark.parametrize("q", [3, 4, 5, 9, 25, 2003])
def test_exact_division_on_every_path(q, monkeypatch):
    ctx = field(q)
    rng = random.Random(q + 1)
    paths = spy_division_paths(monkeypatch)
    cases = [(random_poly(rng, q, lb), nq, "newton") for nq, lb in NEWTON_SHAPES]
    cases += [(binomial(ctx, m), 400, "binomial") for m in (2, 3, 60)]
    cases.append((kern.kspread(random_poly(rng, q, 4), 10), 400, "prefix"))
    routes = set()
    for b, nq, path in cases:
        f = random_poly(rng, q, nq)
        a = ref.nmul(ctx, f, b)
        if path == "newton":  # every block shape, whatever the prefix leaves
            assert kern._kdivmod_newton(ctx, a, b) == (f, [])
        del paths[:]
        assert kern.kexactdiv(ctx, a, b) == f
        routes.add((path, tuple(paths)))
        a[len(a) // 2] = ctx.add[a[len(a) // 2]][1]   # no longer a multiple of b
        assert kern.kdivmod(ctx, a, b) == ref.ndivmod(ctx, a, b)
        with pytest.raises(InexactDivision):
            kern.kexactdiv(ctx, a, b)
    # the prefix may finish a Newton shape when e > 1 (its budget is 2e times
    # longer), but not all of them
    assert routes - {("newton", ())} == {("newton", ("newton",)), ("prefix", ()),
                                         ("binomial", ("binomial",))}


def test_sparse_quotient_stays_in_the_schoolbook_prefix(monkeypatch):
    # the 9841-by-3280 division of `carlitz verify` at q = 3: the divisor
    # theta^7 prod_(j=1..7) (1 + theta^(3^j - 1)) has 128 nonzero terms and
    # the quotient two; the prefix takes about 1 ms on it, Newton about 5
    ctx = FIELDS[3]
    b = [0] * 7 + [1]
    for j in range(1, 8):
        b = ref.nmul(ctx, b, [1] + [0] * (3 ** j - 2) + [1])
    quo = [0, 1] + [0] * 6559 + [1]
    a = ref.nmul(ctx, quo, b)
    assert (len(a), len(b), sum(map(bool, b))) == (9841, 3280, 128)
    paths = spy_division_paths(monkeypatch)
    assert kern.kdivmod(ctx, a, b) == (quo, [])
    a[0] = 1
    assert kern.kdivmod(ctx, a, b) == (quo, [1])
    assert paths == []


@pytest.mark.parametrize("q", [3, 4, 9, 2003])
def test_kmod_binomial_above_the_packed_threshold(q, monkeypatch):
    ctx = field(q)
    rng = random.Random(q + 2)
    folds = []
    real = kern._strided_sums
    monkeypatch.setattr(kern, "_strided_sums", lambda *args: folds.append(1) or real(*args))
    cut = kern._FOLD_MIN
    # one block, several with a short last one, many
    for m in (cut, cut + 1, 40, 300):
        for n in (m + 1, 7 * (m - 1) + 5, 2000):
            a = random_poly(rng, q, n)
            del folds[:]
            assert kern.kmod_binomial(ctx, a, m) == \
                kern.kdivmod_naive(ctx, a, binomial(ctx, m))[1], (m, n)
            # column sums for e = 1 and short m, else one packed fold
            assert len(folds) == (ctx.e > 1 or m > cut), (m, n)
    # past the slot bound the fold is a schoolbook division
    monkeypatch.setattr(kern, "_sums_fit", lambda *args: False)
    assert kern.kmod_binomial(ctx, a, 40) == kern.kdivmod_naive(ctx, a, binomial(ctx, 40))[1]


@pytest.mark.parametrize("q", [3, 4, 5, 9, 25])
def test_gcd_constant_unbalanced_and_dividing(q):
    ctx = FIELDS[q]
    rng = random.Random(q + 100)
    a = random_poly(rng, q, 2000)
    c = [rng.randrange(1, q)]
    assert kern.kgcd(ctx, c, a) == kern.kgcd(ctx, a, c) == [1]
    assert kern.kgcd(ctx, c, []) == [1]
    # length ratios above 2, with a planted common factor, and gaps just
    # below and at the pre-division threshold
    g = random_poly(rng, q, 60)
    for la, lb in ((1800, 400), (1200, 150), (700, 637), (700, 636)):
        x = ref.nmul(ctx, random_poly(rng, q, la), g)
        y = ref.nmul(ctx, random_poly(rng, q, lb), g)
        assert kern.kgcd(ctx, x, y) == kern.kgcd(ctx, y, x) == ref.ngcd(ctx, x, y)
    # one operand divides the other: the gcd is the smaller one, made monic
    b = random_poly(rng, q, 300)
    monic_b = kern.kscal(ctx, ctx.inv[b[-1]], b)
    assert kern.kgcd(ctx, ref.nmul(ctx, b, a), b) == monic_b


def test_reduce_interval():
    # q^d e (p-1)^2 reaches 2^32 at q = 2003, d = 1, not at q = 3, d = 9
    assert kern.reduce_interval(FIELDS[3], 1, 3 ** 9) == 0
    p = 2003
    wide = SimpleNamespace(p=p, e=1)
    every = kern.reduce_interval(wide, 1, p)
    assert (p - 1) + every * (p - 1) ** 2 < 2 ** 32 <= (p - 1) + (every + 1) * (p - 1) ** 2
    with pytest.raises(OverflowError):
        kern.reduce_interval(wide, 1100, 2)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.sampled_from([16, 32]), st.data())
def test_pack_unpack_roundtrip(q, width, data):
    ctx = FIELDS[q]
    a = data.draw(coeff_lists(q))
    assert kern.unpack(ctx, kern.pack(ctx, a, width), len(a), width) == list(a)
    if width == 32:  # the default width
        assert kern.unpack(ctx, kern.pack(ctx, a), len(a)) == list(a)


@pytest.mark.parametrize("width", [16, 32])
def test_pack_unpack_roundtrip_past_one_byte(width):
    # codes of F_257 do not fit one byte, which the prime-field codec reads
    # through bytearray() below that
    ctx = FieldContext(257)
    a = [0, 1, 255, 256, 128, 256]
    assert kern.unpack(ctx, kern.pack(ctx, a, width), len(a), width) == a


def spy_widths(monkeypatch):
    """Record the sub-slot width of every unpack call."""
    widths, real = [], kern.unpack

    def unpack(ctx, value, nslots, width=kern._W, *rest):
        widths.append(width)
        return real(ctx, value, nslots, width, *rest)
    monkeypatch.setattr(kern, "unpack", unpack)
    return widths


def check_times_constant_run(ctx, a, m):
    """kmul(a, u) for the length-m run u = c (1 + ... + theta^(m-1)) of the
    code c = q - 1 (every F_p-digit p - 1), checked against the reference
    in O(m): (1 - theta) a u = c a (1 - theta^m), and F_q[theta] has no
    zero divisors.  u * u reaches the slot bound m e (p-1)^2 exactly."""
    c, one_minus_theta = ctx.q - 1, [1, ctx.neg[1]]
    got = kern.kmul(ctx, a, [c] * m)
    expected = ref.nmul(ctx, [c] + [0] * (m - 1) + [ctx.neg[c]], a)
    assert ref.nmul(ctx, got, one_minus_theta) == expected


# moduli for the fields past the built-in ones
MODULI = {512: (1, 0, 0, 0, 1, 0, 0, 0, 0, 1)}   # x^9 + x^4 + 1 over F_2


# the largest run length m whose product m e (p-1)^2 fits 16-bit sub-slots
@pytest.mark.parametrize("q, m", [(3, 16383), (5, 4095), (17, 255), (25, 2047),
                                  (27, 5461), (4, 32767), (8, 21845), (16, 16383),
                                  (512, 7281)])
def test_kmul_at_the_16_bit_bound(q, m, monkeypatch):
    # just below the bound the product takes 16-bit sub-slots, just above
    # 32-bit ones; q = 4, 8, 16 decode through the byte tables, and q = 2^9,
    # too large for them, by Horner over its 17 sub-slots
    ctx = FIELDS.get(q) or FieldContext(q, MODULI.get(q))
    assert m * ctx.e * (ctx.p - 1) ** 2 < 2 ** 16 <= (m + 1) * ctx.e * (ctx.p - 1) ** 2
    rng = random.Random(q)
    widths = spy_widths(monkeypatch)
    for n, width in ((m, 16), (m + 1, 32)):
        for a in ([ctx.q - 1] * n, random_poly(rng, q, n)):
            del widths[:]
            check_times_constant_run(ctx, a, n)
            assert widths == [width], (n, widths)


@pytest.mark.parametrize("q, m", [(3, 364), (4, 1365), (5, 3906)])
def test_shuffle_deep_products_take_16_bit_slots(q, m, monkeypatch):
    # the longest products of the deep shuffle checks at d <= 5; a fallback
    # to 32-bit slots would leave them correct, only slower
    ctx = FIELDS[q]
    widths = spy_widths(monkeypatch)
    check_times_constant_run(ctx, random_poly(random.Random(m), q, m), m)
    assert widths == [16]


# the fields whose codes and sums a q + b of two codes fit in a byte, on
# which the codecs, kadd, kneg and kscal run through byte tables
BYTE_FIELDS = [3, 4, 5, 7, 8, 9, 11, 13, 16]


def decode_slot(ctx, digits):
    """Code of sum_j d_j x^j for integer digits d_j (x^j read as 1 when
    e = 1, where a slot holds one digit), by the field's own tables."""
    code = 0
    for j, d in enumerate(digits):
        power = ctx.epow(ctx.p, j) if ctx.e > 1 else 1
        code = ctx.add[code][ctx.mul[d % ctx.p][power]]
    return code


@pytest.mark.parametrize("q", BYTE_FIELDS + [25, 27, 2003])
def test_codecs_match_reference(q, monkeypatch):
    # a new context, so that its byte tables are built by the kernel under
    # test (see test_negative_controls); q = 25, 27, 2003 take the loops
    ctx = FieldContext(q)
    rng = random.Random(q)
    sub, n = 2 * ctx.e - 1, 150
    a, b = random_poly(rng, q, 300), random_poly(rng, q, 120)
    for width in (16, 32):
        assert kern.unpack(ctx, kern.pack(ctx, a, width), len(a), width) == a
        # unreduced sub-slots, as a product leaves them, up to 2^width - 1
        subs = [rng.randrange(1 << width) for _ in range(sub * n)]
        value = sum(v << (k * width) for k, v in enumerate(subs))
        assert kern.unpack(ctx, value, n, width) == \
            [decode_slot(ctx, subs[i * sub:(i + 1) * sub]) for i in range(n)]
    assert kern.kadd(ctx, a, b) == kern.kadd(ctx, b, a) == ref.nadd(ctx, a, b)
    # a top that cancels, and all of it
    c = list(a)
    c[3] = ctx.add[c[3]][1]
    assert kern.kadd(ctx, a, ref.nneg(ctx, c)) == ref.nsub(ctx, a, c) == [0, 0, 0, ctx.neg[1]]
    assert kern.kadd(ctx, a, ref.nneg(ctx, a)) == []
    assert kern.kneg(ctx, a) == ref.nneg(ctx, a)
    assert kern.ksub(ctx, a, b) == ref.nsub(ctx, a, b)
    for s in (0, 1, q - 1, rng.randrange(q)):
        assert kern.kscal(ctx, s, a) == ref.trim([ctx.mul[s][x] for x in a])


def test_trim_finds_the_last_nonzero_slot():
    rng = random.Random(5)
    for zeros in (0, 1, 2, 3, 5, 64, 100, 1000):
        for head in ([], [1], [0, 2], [rng.randrange(1, 3) for _ in range(50)]):
            a = head + [0] * zeros
            assert kern.trim(list(a)) == ref.trim(list(a)), (head, zeros)
    a = [0] * 7 + [1] + [0] * 9
    assert kern.trim(a) is a and a == [0] * 7 + [1]


@pytest.mark.parametrize("q", BYTE_FIELDS)
def test_byte_tables_match_the_field_tables(q):
    ctx = FieldContext(q)
    assert ctx._bytes is None  # built on first use, not with the context
    t = kern._codec(ctx)
    assert ctx._bytes is t
    assert [[t.add[a * q + b] for b in range(q)] for a in range(q)] == ctx.add
    assert [list(row[:q]) for row in t.mul] == ctx.mul
    assert list(t.neg[:q]) == ctx.neg
    for q in (25, 27):
        assert kern._codec(FieldContext(q)) is False


def sparse_poly(rng, q, n, terms):
    """A length-n coefficient list with `terms` nonzero terms, one of them
    the leading one."""
    a = [0] * n
    for i in rng.sample(range(n - 1), terms - 1) + [n - 1]:
        a[i] = rng.randrange(1, q)
    return a


@pytest.mark.parametrize("q", [3, 4, 9, 16, 25, 27])
def test_sparse_products(q, monkeypatch):
    ctx = FIELDS[q]
    rng = random.Random(q + 3)
    naive, real = [], kern.kmul_naive
    monkeypatch.setattr(kern, "kmul_naive", lambda *args: naive.append(1) or real(*args))
    for terms in (1, 2, 3, 4):
        # the sparse operand shorter than the dense one, longer, much longer
        for ls, ld in ((40, 100), (300, 30), (2000, 60)):
            x, y = sparse_poly(rng, q, ls, terms), random_poly(rng, q, ld)
            assert kern.kmul(ctx, x, y) == kern.kmul(ctx, y, x) == ref.nmul(ctx, x, y), \
                (terms, ls, ld)
    assert naive == []  # every product above took the sparse path


@pytest.mark.parametrize("q", [3, 4, 5, 25])
def test_fused_multiply_add(q, monkeypatch):
    ctx = FIELDS[q]
    rng = random.Random(q + 4)
    widths = spy_widths(monkeypatch)
    shapes = {"dense": (random_poly(rng, q, 60), random_poly(rng, q, 80)),
              "sparse": (sparse_poly(rng, q, 200, 3), random_poly(rng, q, 50)),
              "monomial": (sparse_poly(rng, q, 10, 1), random_poly(rng, q, 50)),
              "schoolbook": (random_poly(rng, q, 10), random_poly(rng, q, 12))}
    for path, (a, b) in shapes.items():
        ab = ref.nmul(ctx, a, b)
        for c in (random_poly(rng, q, len(ab) + 40),  # longer than a*b
                  random_poly(rng, q, len(ab) // 2),  # shorter
                  ref.nneg(ctx, ab),                  # cancelling a*b to []
                  ref.nsub(ctx, random_poly(rng, q, 7), ab)):  # all but 7 slots
            kept = list(c)
            del widths[:]
            assert kern.kmul(ctx, a, b, c) == ref.nadd(ctx, c, ab), path
            assert c == kept
            # one unpack for the sum on a packed path, none otherwise
            assert len(widths) == (path in ("dense", "sparse")), path
    assert kern.kmul(ctx, [], b, c) == c and kern.kmul(ctx, [], b, c) is not c


# (len a, len b, terms of a, terms of b): the products of two long operands
# that kmul gives its schoolbook (both longer than the cutoff, at most 1/8
# of each nonzero, na nb <= la + lb; the last two at a bound), then those
# that it does not
BOTH_SPARSE = [(40, 30, 1, 3), (300, 200, 5, 20), (3000, 2000, 10, 12),
               (1000, 130, 30, 16), (200, 200, 20, 20), (200, 64, 25, 8)]
NOT_BOTH_SPARSE = [(200, 200, 20, 21),   # na nb > la + lb
                   (200, 64, 26, 8),     # a denser than 1/8
                   (25, 200, 4, 3),      # a denser than 1/8: the sparse path
                   (24, 400, 1, 10)]     # a at the schoolbook cutoff


@pytest.mark.parametrize("q", [3, 4, 9, 16, 25, 27])
def test_both_sparse_products(q, monkeypatch):
    ctx = FIELDS[q]
    rng = random.Random(q + 7)
    taken, real = [], kern.kmul_naive
    monkeypatch.setattr(kern, "kmul_naive", lambda *args: taken.append(1) or real(*args))
    kinds = (list, bytes) if q <= 16 else (list,)
    for shapes, path in ((BOTH_SPARSE, True), (NOT_BOTH_SPARSE, False)):
        for la, lb, ta, tb in shapes:
            a, b = sparse_poly(rng, q, la, ta), sparse_poly(rng, q, lb, tb)
            ab = ref.nmul(ctx, a, b)
            for c in (None, random_poly(rng, q, 7), random_poly(rng, q, la + lb + 20),
                      ref.nneg(ctx, ab)):
                want = ab if c is None else ref.nadd(ctx, c, ab)
                for kind in kinds:
                    del taken[:]
                    got = kern.kmul(ctx, kind(a), kind(b), None if c is None else kind(c))
                    assert type(got) is kind and list(got) == want, (la, lb, c is None)
                    assert len(taken) == path, (la, lb, ta, tb)
                    got = kern.kmul(ctx, kind(b), kind(a), None if c is None else kind(c))
                    assert list(got) == want, (lb, la, c is None)


@pytest.mark.parametrize("q", [25, 27])
def test_pow_digits_by_square_and_multiply(q, monkeypatch):
    # base-q digits >= 8: a digit power g takes bit_length(g) - 1 squarings
    # and popcount(g) - 1 products, not g - 1 products
    ctx = FIELDS[q]
    rng = random.Random(q + 8)
    calls, real = [], kern.kmul
    monkeypatch.setattr(kern, "kmul", lambda *args: calls.append(1) or real(*args))
    for g in (8, 13, q - 1):
        a = random_poly(rng, q, 3)
        del calls[:]
        assert kern.kpow(ctx, a, g) == ref.npow(ctx, a, g), g
        assert len(calls) == g.bit_length() + bin(g).count("1") - 2, g
        for n in (g * q, g + 9 * q, (q - 2) * q + g):
            assert kern.kpow(ctx, a, n) == ref.npow(ctx, a, n), n


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_pow_matches_repeated_mul(q, data):
    ctx = FIELDS[q]
    a = data.draw(coeff_lists(q, max_len=8))
    n = data.draw(st.integers(0, 10))
    assert kern.kpow(ctx, a, n) == ref.npow(ctx, a, n)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([3, 4]), st.data())
def test_spread_is_theta_power_substitution(q, data):
    ctx = FIELDS[q]
    a = data.draw(coeff_lists(q, max_len=10))
    m = data.draw(st.integers(1, 4))
    # compose with x -> x^m by explicit reindexing
    expected = [0] * (max(0, (len(a) - 1) * m) + 1) if a else []
    for i, c in enumerate(a):
        if c:
            expected[i * m] = c
    assert kern.kspread(a, m) == expected


def test_division_errors():
    ctx = FIELDS[3]
    with pytest.raises(DivisionByZero):
        kern.kdivmod(ctx, [1, 2], [])
    with pytest.raises(InexactDivision):
        kern.kexactdiv(ctx, [1, 1], [1, 2])
    with pytest.raises(BothZero):
        kern.kgcd(ctx, [], [])


def test_xgcd_bezout():
    import random
    rng = random.Random(9)
    for q in (3, 4):
        ctx = FIELDS[q]
        for _ in range(10):
            a = kern.trim([rng.randrange(q) for _ in range(rng.randint(1, 30))])
            b = kern.trim([rng.randrange(q) for _ in range(rng.randint(1, 30))])
            if not a and not b:
                continue
            g, u, v = kern.kxgcd(ctx, a, b)
            lhs = ref.nadd(ctx, ref.nmul(ctx, u, a), ref.nmul(ctx, v, b))
            assert lhs == g
            assert g == ref.ngcd(ctx, a, b)


def overflow_mismatches(ctx, n=1100):
    """Kernel calls whose worst-case packed slots would pass 2^32, checked
    against the reference; returns the names of those that disagree."""
    p = ctx.p
    bad = []
    a = [p - 1] * n
    aa = ref.nmul(ctx, a, a)
    if kern.kmul(ctx, a, a) != aa:
        bad.append("kmul")
    # a monic divisor with all lower coefficients p-1, times an all-ones
    # quotient: every division step adds (p-1)^2 to each slot it touches
    # the fused addend adds p-1 to the product's bound, here past 2^32 at
    # n = 1100, and four sparse terms stay far below it
    c = [p - 1] * (2 * n)
    if kern.kmul(ctx, a, a, c) != ref.nadd(ctx, c, aa):
        bad.append("kmul fused")
    s = [p - 1] + [0] * (n // 3) + [p - 1] + [0] * (n // 2) + [p - 1, p - 1]
    if kern.kmul(ctx, s, a, c) != ref.nadd(ctx, c, ref.nmul(ctx, s, a)):
        bad.append("kmul sparse")
    b = [p - 1] * (n - 1) + [1]
    quo = [1] * n
    if kern.kdivmod(ctx, ref.nmul(ctx, b, quo), b) != (quo, []):
        bad.append("kdivmod")
    return bad


def inexact_misses(ctx):
    """The division paths (schoolbook prefix, Newton in blocks, binomial
    recurrence) on which kexactdiv of a long non-multiple does not raise
    InexactDivision, or which the division does not take."""
    rng = random.Random(ctx.q)
    cases = {"prefix": kern.kspread(random_poly(rng, ctx.q, 4), 10),
             "newton": random_poly(rng, ctx.q, 200),
             "binomial": binomial(ctx, 60)}
    real, taken, missed = (kern._kdivmod_newton, kern._strided_sums), [], []
    kern._kdivmod_newton = lambda *args: taken.append("newton") or real[0](*args)
    kern._strided_sums = lambda *args: taken.append("binomial") or real[1](*args)
    try:
        for path, b in cases.items():
            a = ref.nmul(ctx, random_poly(rng, ctx.q, 400), b)
            a[len(a) // 2] = ctx.add[a[len(a) // 2]][1]
            del taken[:]
            try:
                kern.kexactdiv(ctx, a, b)
                missed.append(path)
            except InexactDivision:
                if taken != ([] if path == "prefix" else [path]):
                    missed.append(path)
    finally:
        kern._kdivmod_newton, kern._strided_sums = real
    return missed


def check_in_process_and_optimized(expr):
    """`expr`, a call returning a list of mismatches, must return [] both
    here and under python -O, where an assert would be stripped."""
    here = Path(__file__).resolve().parent
    src = Path(kern.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(here)]))
    code = ("import sys; from carlitz.ffield import FieldContext; "
            f"from test_packed import *; print(sys.flags.optimize, {expr})")
    proc = subprocess.Popen([sys.executable, "-O", "-c", code], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        in_process = eval(expr)
        out, _ = proc.communicate(timeout=300)
    finally:
        proc.kill()
    assert in_process == []
    assert proc.returncode == 0
    assert out.split() == ["1", "[]"]


def test_slot_bound_falls_back_to_schoolbook():
    # at q = 2003, length 1100 is just past the 32-bit slot bound of both
    # kmul (n (p-1)^2, with or without an addend) and Newton division
    # (blocks of n slots)
    check_in_process_and_optimized("overflow_mismatches(FieldContext(2003))")


def test_inexact_division_raises_on_every_path():
    check_in_process_and_optimized(
        "[(q, path) for q in (3, 4, 25) for path in inexact_misses(FIELDS[q])]")


# -- bytes operands (the form RawTPoly keeps over fields with byte codecs) ---

def byte_field_polys(q, max_len=100):
    """Trimmed coefficient lists of any length up to max_len, dense or with
    at most four nonzero terms."""
    dense = st.integers(0, max_len).flatmap(
        lambda n: st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    sparse = st.integers(1, max_len).flatmap(lambda n: st.dictionaries(
        st.integers(0, n - 1), st.integers(1, q - 1), max_size=kern._SPARSE).map(
        lambda terms: [terms.get(i, 0) for i in range(n)]))
    return st.one_of(dense, sparse).map(lambda xs: kern.trim(list(xs)))


def check_result_type_rule(op, operands):
    """op over bytes operands gives the codes it gives over lists, as bytes;
    with mixed operands, the type of the first one."""
    want = op(*operands)
    as_bytes = [bytes(x) for x in operands]
    for args in (as_bytes, as_bytes[:1] + operands[1:], operands[:1] + as_bytes[1:]):
        got = op(*args)
        kind = type(args[0])
        for g, w in zip(got, want) if type(want) is tuple else ((got, want),):
            assert type(w) is list and type(g) is kind and list(g) == w, kind


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(BYTE_FIELDS), st.data())
def test_bytes_operands_give_the_list_codes(q, data):
    ctx = field(q)
    a, b, c = (data.draw(byte_field_polys(q), label=x) for x in "abc")
    b, g = b or [1], c or [1]  # b a divisor, g a common factor
    s = data.draw(st.integers(0, q - 1), label="s")
    m = data.draw(st.sampled_from([2, 3, q, 17, q * q]), label="m")
    ops = [(lambda x, y: kern.kmul(ctx, x, y), (a, b)),
           (lambda x, y, z: kern.kmul(ctx, x, y, z), (a, b, c)),
           (lambda x, y: kern.kadd(ctx, x, y), (a, c)),
           (lambda x: kern.kneg(ctx, x), (a,)),
           (lambda x: kern.kscal(ctx, s, x), (a,)),
           (lambda x, y: kern.kdivmod(ctx, x, y), (a, b)),
           (lambda x, y: kern.kdivmod(ctx, x, y), (c, binomial(ctx, m))),
           (lambda x, y: kern.kexactdiv(ctx, x, y), (ref.nmul(ctx, a, b), b)),
           (lambda x, y: kern.kgcd(ctx, x, y), (ref.nmul(ctx, a, g), ref.nmul(ctx, b, g))),
           (lambda x: kern.kmod_binomial(ctx, x, m), (a,))]
    for op, operands in ops:
        check_result_type_rule(op, list(operands))
    padded = a + [0] * data.draw(st.integers(0, 40), label="zeros")
    assert kern.trim(bytes(padded)) == bytes(a)


@pytest.mark.parametrize("q", [3, 4, 9, 16])
def test_bytes_operands_on_every_product_path(q, monkeypatch):
    # kmul's schoolbook, monomial, sparse and dense paths, each with no
    # addend, a short one and a long one, against the same lists
    ctx = field(q)
    rng = random.Random(q + 6)
    naive, real = [], kern.kmul_naive
    monkeypatch.setattr(kern, "kmul_naive", lambda *args: naive.append(1) or real(*args))
    shapes = {"dense": (random_poly(rng, q, 60), random_poly(rng, q, 80)),
              "sparse": (sparse_poly(rng, q, 200, 3), random_poly(rng, q, 50)),
              "monomial": (random_poly(rng, q, 50), sparse_poly(rng, q, 10, 1)),
              "schoolbook": (random_poly(rng, q, 10), random_poly(rng, q, 12))}
    for path, (a, b) in shapes.items():
        del naive[:]
        for c in (None, random_poly(rng, q, 7), random_poly(rng, q, 300)):
            want = ref.nmul(ctx, a, b) if c is None else ref.nadd(ctx, c, ref.nmul(ctx, a, b))
            got = kern.kmul(ctx, bytes(a), bytes(b), c and bytes(c))
            assert type(got) is bytes and list(got) == want, path
        assert bool(naive) == (path == "schoolbook"), path
        assert list(kern.kadd(ctx, bytes(a), bytes(b))) == ref.nadd(ctx, a, b), path


@pytest.mark.parametrize("m", [1, 2, 3, 9, 27])
def test_spread_matches_the_loop(m):
    rng = random.Random(m)
    for a in ([], [1], [0, 2], random_poly(rng, 3, 40, 0.5), random_poly(rng, 3, 7)):
        expected = [0] * ((len(a) - 1) * m + 1) if a else []
        for i, c in enumerate(a):
            if c:
                expected[i * m] = c
        got = kern.kspread(a, m)
        assert got == expected and got is not a
