# Twisted power sums: enumeration vs closed forms.
#
# The degree-d twisted power sum of order k sums a^(-k) sigma(a) over the
# q^d monic polynomials of degree d, where sigma is a semi-character
# (a product of variable evaluations a -> a(t_i), constant evaluations,
# and degree characters a -> t_i^deg(a)).  For the weight-1 and weight-2
# families there are closed forms built from the two fundamental
# sequences:
#
#   ell(d)      = (θ - θ^q)(θ - θ^(q²)) ... (θ - θ^(q^d))
#   b_d(t)      = (t - θ)(t - θ^q) ... (t - θ^(q^(d-1)))
#
# and the package checks them against literal enumeration.

from carlitz import (APoly, FieldContext, SemiChar, SeqCache, partial_F_one_q,
                     power_sum_bruteforce, power_sum_closed, tau_b_expand)
from carlitz.tpoly import TPoly

ctx = FieldContext(3)
cache = SeqCache(ctx)

print("== the fundamental sequences ==")
for i in (0, 1, 2):
    print(f"ell({i}) = {cache.ell(i)}")
b2 = TPoly(ctx, 1, {(k,): c for k, c in enumerate(cache.b_coeffs(2))})
print(f"b_2(t)  = {b2}")

print("\n== weight one: enumeration meets the closed form ==")
chi = SemiChar.chi(ctx, 1, 1)           # a -> a(t1)
for d in (0, 1, 2):
    brute = power_sum_bruteforce(cache, d, 1, chi)
    closed = power_sum_closed(cache, d, "e2")   # b_d(t1)/ell(d)
    print(f"d = {d}: {brute}")
    assert brute.to_tpoly() == closed

print("\n== weight two carries a Frobenius twist ==")
for d in (1, 2):
    closed = power_sum_closed(cache, d, "f2")
    print(f"S_{d}(2; χ) = {closed}")

print("\n== the degree character is not of evaluation type ==")
nu = SemiChar.nu(ctx, 1, 1)             # a -> t1^deg(a)
for d in (0, 1, 2):
    print(f"S_{d}(1; ν) = {power_sum_bruteforce(cache, d, 1, nu)}")

print("\n== negative orders give polynomials in A ==")
triv = SemiChar.trivial(ctx, 0)
s = power_sum_bruteforce(cache, 1, -7, triv)
print(f"sum of a^7 over monic linear a = {s}")

print("\n== the q-variable product form ==")
F2 = partial_F_one_q(cache, 1)
print(f"three-variable partial sum at d = 1: {F2}")

print("\n== the Frobenius expansion of b_d ==")
lhs, rhs = tau_b_expand(cache, 1, 3)
print(f"τ(b_3) = {lhs}")
print(f"expansion over the b-basis matches: {lhs.equals(rhs)}")
