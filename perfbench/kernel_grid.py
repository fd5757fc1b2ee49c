"""Fixed-size timings of the packed kernel on seeded random operands.

- `kmul`: two length-n polynomials, n = 8192;
- `kdivmod`: a length-3n dividend by a length-n divisor;
- `kgcd`: two length-2048 polynomials sharing a random factor of length 256,
  so the remainder sequence runs to the end;
- `pack` / `unpack`: one length-8192 polynomial over F_4.

Each result is checked: products and divisions by evaluation at every
element of F_q, gcds by exact division of both operands, and packing by
round trip.
"""

import random
import statistics
import time

from carlitz import _packed as kern
from carlitz.ffield import FieldContext

N_MUL = 8192
N_GCD = 2048
GCD_FACTOR = 256
SMOKE_N_MUL = 256
SMOKE_N_GCD = 128
SMOKE_GCD_FACTOR = 16
REPEAT_BUDGET_S = 1.0     # repeat a timing while it is this cheap, at most
MAX_REPEATS = 5           # this many times, and report the median


def _random_poly(rng, ctx, n):
    coeffs = [rng.randrange(ctx.q) for _ in range(n - 1)]
    return coeffs + [rng.randrange(1, ctx.q)]


def _evaluate(ctx, coeffs, x):
    mul, add = ctx.mul, ctx.add
    acc = 0
    for c in reversed(coeffs):
        acc = add[mul[acc][x]][c]
    return acc


def _timed(fn, *args):
    times, result = [], None
    while not times or (sum(times) < REPEAT_BUDGET_S and len(times) < MAX_REPEATS):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def run_grid(seed, smoke=False):
    """Returns (metrics, failures): seconds per grid entry and the
    kdivmod/kmul ratio per q, plus a list of failed result checks."""
    n_mul = SMOKE_N_MUL if smoke else N_MUL
    n_gcd = SMOKE_N_GCD if smoke else N_GCD
    n_fac = SMOKE_GCD_FACTOR if smoke else GCD_FACTOR
    rng = random.Random(seed)
    metrics, failures = {}, []
    for q in (3, 4):
        ctx = FieldContext(q)
        elems = range(q)
        a, b = _random_poly(rng, ctx, n_mul), _random_poly(rng, ctx, n_mul)
        t_mul, prod = _timed(kern.kmul, ctx, a, b)
        if len(prod) != 2 * n_mul - 1 or any(
                _evaluate(ctx, prod, x) != ctx.mul[_evaluate(ctx, a, x)][_evaluate(ctx, b, x)]
                for x in elems):
            failures.append(f"kmul q={q}")
        num = _random_poly(rng, ctx, 3 * n_mul)
        t_div, (quo, rem) = _timed(kern.kdivmod, ctx, num, b)
        if len(rem) >= len(b) or any(
                _evaluate(ctx, num, x) != ctx.add[ctx.mul[_evaluate(ctx, quo, x)][
                    _evaluate(ctx, b, x)]][_evaluate(ctx, rem, x)]
                for x in elems):
            failures.append(f"kdivmod q={q}")
        metrics[f"packed.grid.kmul.q{q}.n8192_s"] = t_mul
        metrics[f"packed.grid.kdivmod.q{q}.n8192_s"] = t_div
        metrics[f"packed.grid.kdivmod_over_kmul.q{q}.n8192"] = t_div / t_mul

        common = _random_poly(rng, ctx, n_fac)
        u = _random_poly(rng, ctx, n_gcd - n_fac + 1)
        v = _random_poly(rng, ctx, n_gcd - n_fac + 1)
        x, y = kern.kmul(ctx, common, u), kern.kmul(ctx, common, v)
        t_gcd, g = _timed(kern.kgcd, ctx, x, y)
        if (len(g) < n_fac or g[-1] != 1 or kern.kdivmod(ctx, x, g)[1]
                or kern.kdivmod(ctx, y, g)[1]):
            failures.append(f"kgcd q={q}")
        metrics[f"packed.grid.kgcd.q{q}.n2048_s"] = t_gcd

        if q == 4:
            t_pack, packed = _timed(kern.pack, ctx, a)
            t_unpack, back = _timed(kern.unpack, ctx, packed, len(a))
            if back != a:
                failures.append("pack/unpack q=4")
            metrics["packed.grid.pack.q4.n8192_s"] = t_pack
            metrics["packed.grid.unpack.q4.n8192_s"] = t_unpack
    return metrics, failures
