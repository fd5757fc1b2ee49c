# Twisted power sums in the skew ring K{τ} and the star chain.
#
# Multiplication in K{τ} twists scalars: τ·c = c^q·τ, and the module action
# of a monic a is C_a, with C_θ = θ + τ.  The linear isomorphism with
# one-variable polynomials sends t^i to C_(θ^i); its inverse sends τ^j to
# b_j(t), and so sends C_a to a(t).  A power sum with twisted coefficients,
# the sum of a^(-q^n) C_a, therefore maps to the commutative sum
# S_d(q^n; χ_t), and its chain closed form is checked there, exactly.

from carlitz import (FieldContext, SemiChar, SeqCache, frak_S,
                     power_sum_bruteforce, star_chain_check)
from carlitz.powersums import b_combination, chain_weights
from carlitz.tpoly import TPoly

ctx = FieldContext(3)
cache = SeqCache(ctx)
chi = SemiChar.chi(ctx, 1, 1)

print("== twisted power sums: the chain closed form against enumeration ==")
for (d, n) in ((1, 1), (2, 1), (2, 2)):
    v = frak_S(cache, d, n)   # raises unless closed form == enumeration
    print(f"sum of a^(-q^{n}) C_a over degree {d}: {v}")

print("\n== the b-expansion: τ^j -> b_j(t) takes the skew sum to S_d(q^n; χ_t) ==")
d, n = 2, 1
weights = chain_weights(cache, n, d)
den = cache.ell(d) ** ctx.q ** n
for j in range(d + 1):
    bj = TPoly(ctx, 1, {(k,): c for k, c in enumerate(cache.b_coeffs(j))})
    print(f"b_{j}(t) = {bj}")
expansion = TPoly(ctx, 1, {(k,): c for k, c in b_combination(cache, weights).items()})
print(f"sum of w_i b_i(t) = {expansion}")
print(f"  over ell({d})^{ctx.q ** n} = {den}")
# the enumerated sum keeps ell(d)^(q^n) as exponents of the factors θ - θ^(q^j)
brute = power_sum_bruteforce(cache, d, ctx.q ** n, chi)
print(f"enumerated denominator: exponents {brute.exps} of θ - θ^(q^j), j = 1..{d}")
num = {(k,): list(c.coeffs) for k, c in b_combination(cache, weights).items()}
same = list(brute.den) == list(den.coeffs) and {e: list(c) for e, c in brute.num.items()} == num
print(f"enumerated S_{d}(q^{n}; χ_t) = {brute}")
print(f"  same denominator and numerators: {same}")
assert same

print("\n== evaluation at one links to star zeta values ==")
for d in (1, 2, 3, 4):
    rep = star_chain_check(cache, d)
    links = [rep["skew_equals_star"], rep["star_equals_strict_plus_power"],
             rep["star_equals_product_minus_swap"]]
    print(f"d = {d}: skew sum = {rep['skew_sum']}; all links hold: {all(links)}")
