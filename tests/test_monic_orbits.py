"""`monic_sum` evaluates one monic per orbit of the scalings
a -> u^(-d) a(u theta), u in F_q^x, and keeps only the slots that survive
the sum over the orbit.  Each oracle that calls it must still give, slot
for slot, what the per-monic loop of `naive_reference` gives."""

import random

import pytest

from carlitz import _packed as kern
from carlitz import powersums, tate
from carlitz._rawfrac import RawTPoly
from carlitz.ffield import FieldContext
from carlitz.powersums import SemiChar, SeqCache

import naive_reference as ref

FIELDS = {q: FieldContext(q) for q in (3, 4, 5, 7, 8, 9, 25, 27)}
# the most monics times (slots + 21) of one per-monic reference sum, times q
# for a series (its 1/a^n expands a^(q-n)); chi_t runs to four times that
SLOT_BUDGET = 250_000


def sigmas(ctx):
    """One semi-character of each kind: one variable, a repeated variable,
    two variables, a degree character, an evaluation at 0, a nonzero
    constant (every monic its own orbit), and none."""
    return [SemiChar.chi(ctx, 1, 1), SemiChar(ctx, 1, varis=(1, 1)),
            SemiChar(ctx, 2, varis=(1, 2)), SemiChar(ctx, 2, varis=(1,), degs=(2,)),
            SemiChar(ctx, 1, varis=(1,), consts=(0,)),
            SemiChar(ctx, 1, varis=(1,), consts=(ctx.q - 1,)), SemiChar.trivial(ctx)]


def orders(q, e):
    """Orders k of the enumerated sums: k <= 0, 1, a q-power, and over
    F_(p^e) a k whose cofactor exponent j = k / q^h is 2."""
    return [0, -1, -2, 1, q] + ([2, 2 * q] if e > 1 else [3])


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 25])
def test_orbit_sums_match_the_per_monic_loop(q, monkeypatch):
    ctx = FIELDS[q]
    # the Tate oracle holds `monic_sum` by its own name: give it the one
    # in powersums, so that a patched loop reaches both callers
    monkeypatch.setattr(tate, "monic_sum", powersums.monic_sum)
    cases = []
    for d in range(4):
        # the reference sums every slot of every monic, so each case is
        # kept within the slot budget; d = 3 still runs at every q
        lcm = sum(q ** i for i in range(1, d + 1))        # deg ell(d)
        for sigma in sigmas(ctx):
            budget = SLOT_BUDGET * (4 if sigma == SemiChar.chi(ctx, 1, 1) else 1)
            cases += [("raw", d, k, sigma) for k in orders(q, ctx.e)
                      if q ** d * (abs(k) * (lcm if k > 0 else d) + 21) <= budget]
            cases += [("series", d, n, sigma, prec) for n in (1, 3) for prec in (7, 20)
                      if powersums.closed_form(q, n, sigma) is None
                      and q ** d * (prec + 21) * q <= budget]
    got = [_value(ctx, case) for case in cases]
    with monkeypatch.context() as mp:
        for module in (powersums, tate):
            mp.setattr(module, "monic_sum", ref.monic_sum_naive)
        want = [_value(ctx, case) for case in cases]
    for case, g, w in zip(cases, got, want):
        assert g == w, case


def _value(ctx, case):
    """The oracle's value at a case, comparable with ==, in a fresh cache."""
    cache = SeqCache(ctx)
    if case[0] == "raw":
        _, d, k, sigma = case
        v = powersums.power_sum_bruteforce(cache, d, k, sigma)
        return ({e: list(c) for e, c in v.num.items()}, list(v.den))
    _, d, n, sigma, prec = case
    return tate._series_power_sum(cache, d, n, sigma, prec)


def burnside(q, d):
    """The number of orbits of F_q^x on the monics of degree d:
    (1 / (q - 1)) times the sum over u of the monics u fixes, which are
    free in c_i exactly where u^(d-i) = 1."""
    ctx = FIELDS[q]
    fixed = 0
    for u in range(1, q):
        free = sum(ctx.epow(u, d - i) == 1 for i in range(d))
        fixed += q ** free
    return fixed // (q - 1)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_value_runs_once_per_orbit(q):
    ctx = FIELDS[q]
    assert (burnside(3, 4), burnside(4, 3)) == (45, 24)
    for d in range(5 if q <= 5 else 4):
        for sigma, orbits in ((SemiChar.chi(ctx, 1, 1), burnside(q, d)),
                              (SemiChar(ctx, 0, consts=(1,)), q ** d)):
            seen = []
            powersums.monic_sum(SeqCache(ctx), d, sigma,
                                lambda a: seen.append(tuple(a)) or [1], range(1), 0)
            assert len(seen) == len(set(seen)) == orbits, (d, sigma)


@pytest.mark.parametrize("q", [3, 4, 25])
def test_sums_come_in_the_form_rawtpoly_keeps(q):
    # trimmed bytes over a field with byte codecs, else trimmed lists: a
    # RawTPoly of them stores each one as it is, with no conversion
    ctx = FIELDS[q]
    kind, stored = bytes if q <= 16 else list, 0
    for sigma in sigmas(ctx):
        # the sum of sigma(a) a^(q-1) over the monics of degree 1
        sums = powersums.monic_sum(SeqCache(ctx), 1, sigma, lambda a: kern.kpow(ctx, a, q - 1),
                                   range(q), q - 1)
        assert all(type(c) is kind and (not c or c[-1]) for c in sums.values()), sigma
        raw = RawTPoly(ctx, sigma.s, sums)
        assert all(c is sums[e] for e, c in raw.num.items()), sigma
        stored += len(raw.num)
    assert stored


def brute_orbit(ctx, c):
    """The images of the coefficient list c under every u in F_q^x."""
    d = len(c) - 1
    return [tuple(ctx.mul[x][ctx.epow(u, d - j)] for j, x in enumerate(c))
            for u in range(1, ctx.q)]


@pytest.mark.parametrize("q", [25, 27])
def test_representatives_against_brute_force_orbits(q):
    ctx = FIELDS[q]
    rng = random.Random(q)
    for d in range(1, 6):
        size = powersums._orbit_size(ctx, d, q - 1)
        if d <= 2:
            monics = [tuple(c) for c in ref.monics(ctx, d)]
        else:
            monics = [tuple(rng.randrange(q) for _ in range(d)) + (1,) for _ in range(300)]
            # with most lower coefficients zero, stabilizers are larger
            monics += [tuple(rng.randrange(q) if rng.random() < 0.3 else 0
                             for _ in range(d)) + (1,) for _ in range(300)]
        reps = 0
        for c in monics:
            images = brute_orbit(ctx, c)
            least = min(images, key=lambda x: x[::-1])
            stabilizer = images.count(c)
            assert size(c) == (len(set(images)) if c == least else 0), c
            assert size(least) == (q - 1) // stabilizer, c
            reps += c == least
        if d <= 2:
            assert reps == burnside(q, d)
