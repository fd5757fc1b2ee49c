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
    binomial = [0, ctx.neg[1]] + [0] * (m - 2) + [1]
    assert kern.kmod_binomial(ctx, a, m) == kern.kdivmod_naive(ctx, a, binomial)[1]


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


def random_poly(rng, q, n, density=1.0):
    """A length-n coefficient list with a nonzero leading coefficient."""
    return [rng.randrange(q) if rng.random() < density else 0
            for _ in range(n - 1)] + [rng.randrange(1, q)]


# (len a, len b) pairs on both sides of the schoolbook work budget, so that
# some divisions end in the schoolbook prefix and the rest go on to Newton:
# quotient lengths near 128, dividend lengths near 512, a short divisor
# under a long quotient, and 3n by n
DIVISION_SHAPES = [(2185, 7), (2000, 40), (2100, 700), (512, 385), (512, 386),
                   (511, 384), (640, 513), (640, 514), (1200, 17), (900, 300)]


@pytest.mark.parametrize("q", [3, 4, 5, 9, 25])
def test_divmod_above_cutoffs(q, monkeypatch):
    ctx = FIELDS[q]
    rng = random.Random(q)
    newton, real = [], kern._kdivmod_newton
    monkeypatch.setattr(kern, "_kdivmod_newton",
                        lambda *args: newton.append(1) or real(*args))
    for la, lb in DIVISION_SHAPES:
        for density in (1.0, 0.05):
            a = random_poly(rng, q, la, density)
            b = random_poly(rng, q, lb, density)
            assert kern.kdivmod(ctx, a, b) == ref.ndivmod(ctx, a, b), (la, lb)
    # exact division by a planted factor
    f, g = random_poly(rng, q, 1500), random_poly(rng, q, 300)
    assert kern.kdivmod(ctx, ref.nmul(ctx, f, g), g) == (f, [])
    assert newton  # the long dense quotients went through Newton


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
    # codes of F_257 do not fit one byte, which the 16-bit codec reads
    # through bytes() below that
    ctx = FieldContext(257)
    a = [0, 1, 255, 256, 128, 256]
    assert kern.unpack(ctx, kern.pack(ctx, a, width), len(a), width) == a


def spy_widths(monkeypatch):
    """Record the sub-slot width of every unpack call."""
    widths, real = [], kern.unpack

    def unpack(ctx, value, nslots, width=kern._W):
        widths.append(width)
        return real(ctx, value, nslots, width)
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
    # 32-bit ones; q = 4, 8, 16 decode through the p = 2 parity masks, and
    # q = 2^9 by Horner at 16 bits, where its 17 sub-slots do not fit them
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
    if kern.kmul(ctx, a, a) != ref.nmul(ctx, a, a):
        bad.append("kmul")
    # a monic divisor with all lower coefficients p-1, times an all-ones
    # quotient: every division step adds (p-1)^2 to each slot it touches
    b = [p - 1] * (n - 1) + [1]
    quo = [1] * n
    if kern.kdivmod(ctx, ref.nmul(ctx, b, quo), b) != (quo, []):
        bad.append("kdivmod")
    return bad


def test_slot_bound_falls_back_to_schoolbook():
    # at q = 2003, length 1100 is just past the 32-bit slot bound of both
    # kmul (n (p-1)^2) and kdivmod (p - 1 + n (p-1)^2); the fallback must
    # hold under python -O too, where an assert would be stripped
    here = Path(__file__).resolve().parent
    src = Path(kern.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(here)]))
    code = ("import sys; from carlitz.ffield import FieldContext; "
            "from test_packed import overflow_mismatches; "
            "print(sys.flags.optimize, overflow_mismatches(FieldContext(2003)))")
    proc = subprocess.Popen([sys.executable, "-O", "-c", code], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        in_process = overflow_mismatches(FieldContext(2003))
        out, _ = proc.communicate(timeout=300)
    finally:
        proc.kill()
    assert in_process == []
    assert proc.returncode == 0
    assert out.split() == ["1", "[]"]
