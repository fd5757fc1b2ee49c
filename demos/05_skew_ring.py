# The twisted polynomial ring K{τ} and the module action on it.
#
# Multiplication twists scalars: τ·c = c^q·τ.  The action of θ is θ + τ;
# the linear isomorphism with one-variable polynomials sends t^i to
# (θ+τ)^i and its inverse sends τ^j to b_j(t).  Power sums with twisted
# coefficients then inherit closed forms from the commutative side.

from carlitz import (APoly, FieldContext, RatK, SeqCache, SkewPoly,
                     carlitz_action, eta, eta_inv, frak_S, star_chain_check)
from carlitz.tpoly import TPoly

ctx = FieldContext(3)
cache = SeqCache(ctx)
theta = APoly.theta(ctx)

print("== the twist rule ==")
tau = SkewPoly.tau(ctx)
print(f"τ·θ = {tau * SkewPoly.constant(ctx, theta)}")
X = carlitz_action(cache, theta)
print(f"action of θ: {X}")
print(f"action of θ²: {carlitz_action(cache, theta**2)} (= (θ+τ)²)")

print("\n== the basis isomorphism ==")
t = TPoly.variable(ctx, 1, 1)
print(f"t   ->  {eta(cache, t)}")
print(f"τ   ->  {eta_inv(cache, SkewPoly.tau(ctx))}   (back)")
print(f"τ²  ->  {eta_inv(cache, SkewPoly.tau(ctx, 2))}   (evaluation)")
a = theta**2 + theta + 1
print(f"a(t) -> action of a: {eta(cache, t**2 + t + 1) == carlitz_action(cache, a)}")

print("\n== twisted power sums have a chain closed form ==")
for (d, n) in ((1, 1), (2, 1), (2, 2)):
    v = frak_S(cache, d, n)   # asserts closed form == enumeration
    print(f"sum of a^(-q^{n}) C_a over degree {d}: {v}")

print("\n== evaluation at one links to star zeta values ==")
for d in (1, 2, 3, 4):
    rep = star_chain_check(cache, d)
    links = [rep["skew_equals_star"], rep["star_equals_strict_plus_power"],
             rep["star_equals_product_minus_swap"]]
    print(f"d = {d}: skew sum = {rep['skew_sum']}; all links hold: {all(links)}")
