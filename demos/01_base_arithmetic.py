# Exact arithmetic in A = F_q[θ] and its fraction field K.
#
# Everything in this package is built over a FieldContext: the finite
# field F_q with q = p^e > 2, with full arithmetic tables.  This script
# walks through the base layer: polynomials, fractions, gcds,
# irreducibility, and the counting identities.

from carlitz import (APoly, FieldContext, RatK, digit_sum, enumerate_monics,
                     irreducibles_of_degree, is_irreducible, necklace_count,
                     poly_gcd, valuation_inf)

ctx = FieldContext(3)
theta = APoly.theta(ctx)

print("== the ring A = F_3[θ] ==")
a = (theta + 1) * (theta + 2)
print(f"(θ+1)(θ+2)      = {a}")
print(f"exact division  : (θ²+2)/(θ+1) = {(theta**2 + 2) / (theta + 1)}")
print(f"gcd(θ²-1, θ-1)  = {poly_gcd(theta**2 - 1, theta - 1)}")

print("\n== the fraction field K, always normalized ==")
x = RatK(APoly.one(ctx), theta - theta**3) + 1
print(f"1/(θ-θ³) + 1    = {x}")
print(f"leading coefficient of the denominator: {x.den.coefficient(x.den.degree)}, "
      f"v_inf = {valuation_inf(x)}")
print(f"v_inf(θ) = {valuation_inf(RatK.from_apoly(theta))},  "
      f"v_inf(0) = {valuation_inf(RatK.zero(ctx))}")

print("\n== monic enumeration and irreducibles ==")
print("monic of degree 1:", list(enumerate_monics(ctx, 1)))
print("irreducible quadratics:", list(irreducibles_of_degree(ctx, 2)))
for d in (1, 2, 3, 4):
    found = len(irreducibles_of_degree(ctx, d))
    print(f"degree {d}: {found} irreducibles, necklace value {necklace_count(3, d)}")

print("\n== counting identity: sum of deg·count over divisors is q^d ==")
for d in (1, 2, 3, 4, 6):
    total = sum(j * necklace_count(3, j) for j in range(1, d + 1) if d % j == 0)
    print(f"d = {d}: {total} = 3^{d}")

print("\n== irreducibility is deterministic ==")
print(f"θ²+1 irreducible: {is_irreducible(theta**2 + 1)}")
print(f"θ²+2 = (θ+1)(θ+2): {is_irreducible(theta**2 + 2)}")

print("\n== base-q digit sums (drive the finite-zeta truncation bounds) ==")
for n in (7, 25, 79):
    print(f"digit_sum(3, {n}) = {digit_sum(3, n)}")

print("\n== extension fields work the same way ==")
ctx4 = FieldContext(4)
x4 = ctx4.element((0, 1))
print(f"F_4 with x² = x+1:  x·x = {x4 * x4},  x³ = {x4**3}")
th4 = APoly.theta(ctx4)
p4 = (th4 + x4) * (th4 + x4 + 1)
print(f"(θ+x)(θ+x+1) over F_4 = {p4}")
