# Product (shuffle) identities between truncated zeta values, per degree.
#
# Each product of two weight-one zeta values decomposes into weight-two
# values and depth-two sums.  The identities are EXACT at every
# truncation level d, and that is how this package verifies them: both
# sides are polynomials in t1, t2 over K, compared with zero tolerance.
# Each identity is one row of text in `shuffle.IDENTITIES`, and
# `shuffle.sides` evaluates a row at one degree.

from carlitz import FieldContext, MatrixData, SeqCache, multi_power_sum, \
    partial_zeta, parse_matrix_data
from carlitz.shuffle import IDENTITIES, ShuffleEngine, sides

ctx = FieldContext(3)
cache = SeqCache(ctx)
engine = ShuffleEngine(cache)

print("== every identity row, exact per degree d = 0..5 ==")
for check_id, row in IDENTITIES.items():
    verdicts = " ".join("ok" if lhs.equals(rhs) else "FAIL"
                        for lhs, rhs in (sides(engine, d, row) for d in range(6)))
    print(f"{check_id:<15} {verdicts}   {row}")

print("\n== the same objects through the public interface ==")
# matrix data written in the CLI grammar: columns semichar:weight
md = parse_matrix_data(ctx, "t1:1,1:1")
print(f"matrix data {md}: weight {md.weight}, depth {md.depth}")
for d in (2, 3):
    v = multi_power_sum(cache, d, md)
    print(f"degree-{d} multiple power sum = {v}")

print("\n== truncated zeta values are plain TPoly values ==")
f = partial_zeta(cache, 3, parse_matrix_data(ctx, "t1*t2:2"))
print(f"F_3(2; σψ) = {f}")

print("\n== star (weakly decreasing) chains relate to strict ones ==")
# compared as unreduced fractions (raw=True), as the verification suite does
star = partial_zeta(cache, 4, MatrixData.untwisted(ctx, (2, 1)), mode="star", raw=True)
strict = partial_zeta(cache, 4, MatrixData.untwisted(ctx, (2, 1)), raw=True)
f1 = partial_zeta(cache, 4, MatrixData.untwisted(ctx, (1,)), raw=True)
print(f"F*_4(2,1) - F_4(2,1) = F_4(1)³: {(star - strict).equals(f1 ** 3)}")
