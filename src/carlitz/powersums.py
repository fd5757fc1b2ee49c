"""Fundamental sequences, semi-characters, and twisted power sums.

The two sequences everything is built from:

    ell(i)      = product over 1 <= j <= i of (theta - theta^(q^j)),  ell(0) = 1
    b_coeffs(i) = coefficients of the monic polynomial with roots
                  theta, theta^q, ..., theta^(q^(i-1)),  b_0 = 1

A semi-character is a multiplicative map on monic polynomials built from
three kinds of factors: evaluation at a variable (a -> a(t_i)), evaluation
at a field constant (a -> a(c)), and the degree character (a -> t_i^deg a).

Twisted power sums of degree d and order k are sums of a^(-k) sigma(a)
over the q^d monic a of degree d.  They are computed two independent
ways: literal enumeration (the oracle), and closed forms for the families
with known ones.  Both write the sum as a RawTPoly over ell(d)^k; the
oracle builds that denominator from the irreducibles, not from the ell
sequence, as ((-1)^d times the lcm of the monics of degree d)^k.
`monic_sum` is the one enumeration loop: every sum over monics in the
package, here and in the skew and Tate-series oracles, goes through it.
The closed forms and the enumeration must agree exactly; tests and the
verification suite enforce that, comparing the unreduced fractions.
`power_sum_raw` memoizes each power sum in this form per cache, for the
mzv chain sums; `power_sum` normalizes it into a TPoly for the layers that
work over K (the Tate series and the Bernoulli-Goss sums).
"""

import itertools

from . import _packed as kern
from ._rawfrac import RawTPoly
from .errors import (ArityMismatch, BudgetExceeded, ContextMismatch,
                     NonMonicInput, UnsupportedCharacter)
from .ffield import FqElem
from .poly import APoly, RatK, enumerate_monics, irreducibles_of_degree
from .tpoly import TPoly

DEFAULT_BUDGET = 200_000


class SemiChar:
    """A product of variable evaluations, constant evaluations, and degree
    characters, acting multiplicatively on monic elements of A."""

    __slots__ = ("ctx", "s", "vars", "degs", "consts")

    def __init__(self, ctx, s, varis=(), degs=(), consts=()):
        self.ctx = ctx
        self.s = s
        varis = tuple(sorted(int(i) for i in varis))
        degs = tuple(sorted(int(i) for i in degs))
        if any(not 1 <= i <= s for i in varis + degs):
            raise ArityMismatch(f"factor index outside 1..{s}")
        codes = []
        for c in consts:
            if isinstance(c, FqElem):
                if c.ctx != ctx:
                    raise UnsupportedCharacter(
                        "constant evaluation points must lie in this F_q")
                codes.append(c.code)
            else:
                code = int(c)
                if not 0 <= code < ctx.q:
                    raise UnsupportedCharacter(
                        f"constant code {code} outside F_{ctx.q}")
                codes.append(code)
        self.vars = varis
        self.degs = degs
        self.consts = tuple(sorted(codes))

    # -- constructors -----------------------------------------------------

    @classmethod
    def trivial(cls, ctx, s=0):
        return cls(ctx, s)

    @classmethod
    def chi(cls, ctx, s, i):
        """a -> a(t_i)."""
        return cls(ctx, s, varis=(i,))

    @classmethod
    def nu(cls, ctx, s, i):
        """a -> t_i^(deg a); not of Dirichlet type."""
        return cls(ctx, s, degs=(i,))

    @classmethod
    def const_eval(cls, ctx, s, c):
        """a -> a(c) for c in F_q."""
        return cls(ctx, s, consts=(c,))

    def is_trivial(self):
        return not (self.vars or self.degs or self.consts)

    def with_arity(self, s):
        if s < max((0,) + self.vars + self.degs):
            raise ArityMismatch("arity too small for the factors present")
        return SemiChar(self.ctx, s, self.vars, self.degs, self.consts)

    def __mul__(self, other):
        if not isinstance(other, SemiChar):
            return NotImplemented
        if other.ctx != self.ctx:
            raise ContextMismatch("semi-characters from different contexts")
        if other.s != self.s:
            raise ArityMismatch("semi-characters of different arity")
        return SemiChar(self.ctx, self.s, self.vars + other.vars,
                        self.degs + other.degs, self.consts + other.consts)

    def __eq__(self, other):
        return (isinstance(other, SemiChar) and self.ctx == other.ctx
                and (self.s, self.vars, self.degs, self.consts)
                == (other.s, other.vars, other.degs, other.consts))

    def __hash__(self):
        return hash((self.ctx.q, self.s, self.vars, self.degs, self.consts))

    def __repr__(self):
        from .textio import format_semichar
        return format_semichar(self)

    # -- evaluation ---------------------------------------------------------

    def eval_codes(self, coeffs):
        """Evaluate at the monic polynomial with the given coefficient codes,
        returning a dict monomial-exponents -> field element code."""
        ctx = self.ctx
        if not coeffs or coeffs[-1] != 1:
            raise NonMonicInput("semi-characters act on monic polynomials")
        s = self.s
        deg = len(coeffs) - 1
        terms = {(0,) * s: 1}
        mul, add = ctx.mul, ctx.add
        for i in self.vars:
            new = {}
            for exps, code in terms.items():
                for k, ck in enumerate(coeffs):
                    if ck:
                        ne = exps[:i - 1] + (exps[i - 1] + k,) + exps[i:]
                        v = mul[code][ck]
                        cur = new.get(ne)
                        new[ne] = v if cur is None else add[cur][v]
            terms = {e: c for e, c in new.items() if c}
        for i in self.degs:
            terms = {e[:i - 1] + (e[i - 1] + deg,) + e[i:]: c
                     for e, c in terms.items()}
        scalar = 1
        for c in self.consts:
            # Horner evaluation of the polynomial at the constant
            acc = 0
            for ck in reversed(coeffs):
                acc = add[mul[acc][c]][ck]
            scalar = mul[scalar][acc]
        if scalar != 1:
            terms = {e: mul[c][scalar] for e, c in terms.items()}
            terms = {e: c for e, c in terms.items() if c}
        return terms

    def eval(self, a):
        """sigma(a) as a TPoly; multiplicative in monic a, sigma(1) = 1."""
        if not isinstance(a, APoly) or a.ctx != self.ctx:
            raise ContextMismatch("argument from a different context")
        codes = self.eval_codes(list(a.coeffs))
        return TPoly(self.ctx, self.s,
                     {e: RatK.constant(self.ctx, FqElem(self.ctx, c))
                      for e, c in codes.items()}, _clean=True)


class SeqCache:
    """Memoized fundamental data for one field context: the one memo store.

    Holds the sequences theta^(q^i), ell, the b-polynomial coefficient
    lists and their Frobenius twists, and one dict of tagged memo tables:
    `memo(tag, key, make)` computes a value once, and `table(tag)` is a
    whole table, for a `ChainSums`.  The tables hold the powers and ratios
    of ell, the lcm of the monics of each degree, the exact twisted power
    sums and their normalized and series forms, and the chain sums of
    every module.  Single-threaded, append-only: no lock guards it, so one
    cache must not be filled from two threads at once; every returned
    value is immutable.
    """

    def __init__(self, ctx, budget=DEFAULT_BUDGET):
        self.ctx = ctx
        self.budget = budget
        self._theta_q = [APoly.theta(ctx)]
        self._ell = [APoly.one(ctx)]
        self._b = [(APoly.one(ctx),)]       # coefficient tuples, ascending
        self._tb = [(APoly.one(ctx),)]      # Frobenius-twisted b
        self._tables = {}                   # tag -> memo dict

    # -- sequences ----------------------------------------------------------

    def theta_q(self, i):
        """theta^(q^i) as an element of A."""
        while len(self._theta_q) <= i:
            prev = self._theta_q[-1]
            self._theta_q.append(prev.frobenius())
        return self._theta_q[i]

    def ell(self, i):
        """ell(i); zero for negative indices."""
        if i < 0:
            return APoly.zero(self.ctx)
        while len(self._ell) <= i:
            k = len(self._ell)
            factor = APoly.theta(self.ctx) - self.theta_q(k)
            self._ell.append(self._ell[-1] * factor)
        return self._ell[i]

    def b_coeffs(self, i):
        """Coefficients (in A, ascending) of the degree-i polynomial with
        roots theta^(q^j) for 0 <= j < i."""
        while len(self._b) <= i:
            k = len(self._b)
            root = self.theta_q(k - 1)
            prev = self._b[-1]
            new = []
            for m in range(k + 1):
                c = prev[m - 1] if m >= 1 else APoly.zero(self.ctx)
                if m < len(prev):
                    c = c - root * prev[m]
                new.append(c)
            self._b.append(tuple(new))
        return self._b[i]

    def tb_coeffs(self, i):
        """Coefficients of the Frobenius twist of b_i: the monic polynomial
        with roots theta^(q^j) for 1 <= j <= i."""
        while len(self._tb) <= i:
            k = len(self._tb)
            self._tb.append(tuple(c.frobenius() for c in self.b_coeffs(k)))
        return self._tb[i]

    def b_tpoly(self, i, var=1, s=1):
        """b_i as a TPoly in variable t_var."""
        terms = {}
        for k, c in enumerate(self.b_coeffs(i)):
            if not c.is_zero():
                exps = tuple(k if j == var - 1 else 0 for j in range(s))
                terms[exps] = RatK.from_apoly(c)
        return TPoly(self.ctx, s, terms, _clean=True)

    def b_eval(self, i, x):
        """b_i evaluated at an element x of A."""
        acc = APoly.zero(self.ctx)
        for c in reversed(self.b_coeffs(i)):
            acc = acc * x + c
        return acc

    def table(self, tag):
        """The memo dict tagged `tag`, created empty on first use."""
        t = self._tables.get(tag)
        if t is None:
            t = self._tables[tag] = {}
        return t

    def memo(self, tag, key, make):
        """The value under key in the table tagged `tag`, computed by make()
        on first use; values are never None."""
        t = self.table(tag)
        v = t.get(key)
        if v is None:
            v = t[key] = make()
        return v

    def ell_pow(self, i, n):
        """ell(i)^n, memoized."""
        return self.memo("ell_pow", (i, n), lambda: self.ell(i) ** n)

    def ell_ratio(self, d, i):
        """ell(d) / ell(i) (exact), memoized."""
        return self.memo("ell_ratio", (d, i), lambda: self.ell(d) / self.ell(i))

    def monic_lcm(self, d):
        """The lcm of all monic polynomials of degree d, assembled as the
        product of P^(floor(d / deg P)) over irreducibles P of degree <= d."""
        def make():
            v = APoly.one(self.ctx)
            for j in range(1, d + 1):
                for pp in irreducibles_of_degree(self.ctx, j):
                    v = v * pp ** (d // j)
            return v
        return self.memo("monic_lcm", d, make)

    def check_budget(self, count):
        if count > self.budget:
            raise BudgetExceeded(count, self.budget)


# ---------------------------------------------------------------------------
# brute-force twisted power sums (the enumeration oracle)
# ---------------------------------------------------------------------------

def monic_sum(cache, d, sigma, value, nslots):
    """Sum of sigma(a) * value(a) over the q^d monic a of degree d: the one
    enumeration loop behind every oracle.

    value maps the coefficient list of a to a list of at most nslots codes;
    it is packed once per monic and added, times each code of sigma(a), into
    one packed accumulator per t-monomial, reduced before a slot can
    overflow.  Returns a dict t-exponents -> list of nslots codes.
    """
    ctx = cache.ctx
    count = ctx.q ** d
    cache.check_budget(count)
    unit = kern._units(ctx)
    every = kern.reduce_interval(ctx, 1, count)
    acc = {}
    for i, a in enumerate(enumerate_monics(ctx, d), 1):
        coeffs = list(a.coeffs)
        packed = kern.pack(ctx, value(coeffs))
        for exps, code in sigma.eval_codes(coeffs).items():
            acc[exps] = acc.get(exps, 0) + unit[code] * packed
        if every and i % every == 0:
            acc = {e: kern.pack(ctx, kern.unpack(ctx, v, nslots))
                   for e, v in acc.items()}
    return {e: kern.unpack(ctx, v, nslots) for e, v in acc.items()}


def power_sum_bruteforce(cache, d, k, sigma):
    """Sum of a^(-k) sigma(a) over all monic a of degree d, by enumeration.

    Returns a RawTPoly.  Negative k means positive powers of a (used by the
    finite zeta sums at negative integers); the sum is then over 1, with
    coefficients in A.  Positive k sums the cofactors L^k / a^k =
    (L^j / a^j)^(k/j) over L^k, where L = (-1)^d `monic_lcm(d)`, so each
    division is exact; L equals ell(d), so L^k is the denominator
    `closed_raw` writes.  `kpow` spreads the q-power part of k/j
    (Frobenius).  Over F_p, j = 1.  Over F_{p^e}, j keeps all of k but its
    q-power part, since there a packed product of two cofactors costs more
    than a division.
    """
    ctx = cache.ctx
    cache.check_budget(ctx.q ** d)
    if k > 0:
        j = 1 if ctx.e == 1 else k
        while j % ctx.q == 0:
            j //= ctx.q
        lcm = -cache.monic_lcm(d) if d % 2 else cache.monic_lcm(d)
        den, part = list((lcm ** k).coeffs), list((lcm ** j).coeffs)
        sums = monic_sum(cache, d, sigma, lambda a: kern.kpow(
            ctx, kern.kexactdiv(ctx, part, kern.kpow(ctx, a, j)), k // j),
            len(den))
    else:
        den = [1]
        sums = monic_sum(cache, d, sigma, lambda a: kern.kpow(ctx, a, -k),
                         1 - k * d)
    return RawTPoly(ctx, sigma.s, sums, den)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

_CLOSED_NAMES = {"e1": (1, 0), "f1": (2, 0), "e2": (1, 1), "f2": (2, 1),
                 "e3": (1, 2), "f3": (2, 2)}


def power_sum_closed(cache, d, which):
    """Closed forms for the weight-1 and weight-2 power sums, normalized.

    which: "e1" S_d(1;1)        -> 1 / ell(d)                    (0 variables)
           "e2" S_d(1;chi_t1)   -> b_d(t1) / ell(d)              (1 variable)
           "e3" S_d(1;chi*chi)  -> b_d(t1) b_d(t2) / ell(d)      (2 variables)
           "f1" S_d(2;1)        -> 1 / ell(d)^2                  (0 variables)
           "f2" S_d(2;chi_t1)   -> b_d(t1)(t1 - theta^(q^d)) / ((t1-theta) ell(d)^2)
           "f3" S_d(2;chi*chi)  -> the two-variable analogue

    The (t_i - theta) denominators of f2/f3 cancel: f2 is tb_d(t1)/ell(d)^2
    with tb the Frobenius twist of b.  The values come from `closed_raw`,
    which writes every form with these cancellations done, and are
    normalized by `RawTPoly.to_tpoly`.
    """
    if which not in _CLOSED_NAMES:
        raise ValueError(f"unknown closed form {which!r}")
    n, s = _CLOSED_NAMES[which]
    sigma = SemiChar(cache.ctx, s, varis=range(1, s + 1))
    return closed_raw(cache, d, n, sigma).to_tpoly()


def _in_var(ctx, s, i, coeffs):
    """The sum of c_k t_i^k for (k, c_k) in coeffs, c_k in A, as a RawTPoly
    of arity s over 1."""
    return RawTPoly(ctx, s, {tuple(k if j == i - 1 else 0 for j in range(s)):
                             list(c.coeffs) for k, c in coeffs}, [1])


def partial_F_one_q(cache, d):
    """The degree-(d+1) partial zeta sum of weight 1 in q variables:
    b_d(t_1) ... b_d(t_q) / ell(d), equal to the sum of the order-1 power
    sums twisted by chi_{t_1} ... chi_{t_q} over degrees 0..d.  A RawTPoly
    over ell(d)."""
    ctx = cache.ctx
    q = ctx.q
    prod = RawTPoly.one(ctx, q)
    for i in range(1, q + 1):
        prod = prod * _in_var(ctx, q, i, enumerate(cache.b_coeffs(d)))
    return RawTPoly(ctx, q, prod.num, list(cache.ell(d).coeffs))


# ---------------------------------------------------------------------------
# Frobenius expansion of b_d and the q^n-order closed forms
# ---------------------------------------------------------------------------

def _descending_chains(d, n):
    """All chains d >= i_1 >= i_2 >= ... >= i_n >= 0."""
    for combo in itertools.combinations_with_replacement(range(d + 1), n):
        yield tuple(reversed(combo))


def chain_weights(cache, n, d):
    """Entry i (0 <= i <= d) is the sum over chains d >= i_1 >= ... >= i_n = i
    of (ell(d)/ell(i_1))^(q^(n-1)-q^(n-2)) ... (ell(d)/ell(i_(n-1)))^(q-1)
    * ell(d)/ell(i): the weight of the last slot i in the chain expansions
    of b_d and of the skew power sums."""
    ctx = cache.ctx
    q = ctx.q
    exps_of_m = [q ** (n - m) - q ** (n - m - 1) for m in range(1, n)]
    ratio_pows = {}

    def rpow(i, e):
        key = (i, e)
        v = ratio_pows.get(key)
        if v is None:
            v = cache.ell_ratio(d, i) ** e
            ratio_pows[key] = v
        return v

    weights = [APoly.zero(ctx)] * (d + 1)
    for chain in _descending_chains(d, n):
        mult = APoly.one(ctx)
        for m in range(n - 1):
            mult = mult * rpow(chain[m], exps_of_m[m])
        mult = mult * cache.ell_ratio(d, chain[-1])
        weights[chain[-1]] = weights[chain[-1]] + mult
    return weights


def _chain_numerator(cache, n, d):
    """Numerator terms of the chain expansion over the common denominator
    ell(d)^(q^(n-1)): a dict t-exponent -> APoly."""
    zero = APoly.zero(cache.ctx)
    total = {}
    for i, weight in enumerate(chain_weights(cache, n, d)):
        for kk, c in enumerate(cache.b_coeffs(i)):
            if not c.is_zero():
                total[kk] = total.get(kk, zero) + weight * c
    return {k: v for k, v in total.items() if not v.is_zero()}


def tau_b_expand(cache, n, d):
    """Both sides of the Frobenius expansion of b_d:

        tau^n(b_d) = ell(d)^(q^(n-1)) * sum over chains
                     d >= i_1 >= ... >= i_n >= 0 of
                     ell(i_1)^(q^(n-2)-q^(n-1)) ... ell(i_(n-1))^(1-q)
                     * ell(i_n)^(-1) * b_(i_n)

    returned as (lhs, rhs) RawTPoly values in one variable; they must be
    equal.
    """
    ctx = cache.ctx
    lhs = _in_var(ctx, 1, 1, ((k, c.frobenius(n))
                              for k, c in enumerate(cache.b_coeffs(d))))
    # the ell(d)^(q^(n-1)) prefactor cancels the chains' common denominator,
    # so the right side is already integral
    return lhs, _in_var(ctx, 1, 1, _chain_numerator(cache, n, d).items())


# ---------------------------------------------------------------------------
# general provider with closed-form routing
# ---------------------------------------------------------------------------

def _as_k_ql_form(q, n):
    """Return True iff n = k * q^l with 1 <= k <= q - 1, l >= 0 (the orders
    whose untwisted power sum is ell(d)^(-n))."""
    if n < 1:
        return False
    while n % q == 0:
        n //= q
    return n <= q - 1


def _q_log(q, n):
    """The m >= 1 with n = q^m, or 0 when there is none."""
    m = 0
    while n > 1 and n % q == 0:
        n //= q
        m += 1
    return m if n == 1 else 0


def closed_form(q, n, sigma):
    """Which closed form gives S_d(n; sigma) at every degree d, or None
    where only enumeration does.  This is the one table of the (order,
    semi-character) pairs with a closed form; degree characters are not
    looked at, since they factor out as t_i^d.

        no variable evaluation         n = k q^l, 1 <= k <= q-1   "kql"
        one variable evaluation        n = 1, n = 2               "e2", "f2"
                                       n = q^m, m >= 1            "qn"
        two distinct evaluations       n = 1, n = 2               "e3", "f3"
    """
    if sigma.consts:
        return None
    v = sigma.vars
    if not v:
        return "kql" if _as_k_ql_form(q, n) else None
    if len(v) == 1:
        if n in (1, 2):
            return ("e2", "f2")[n - 1]
        return "qn" if _q_log(q, n) else None
    if len(v) == 2 and v[0] != v[1] and n in (1, 2):
        return ("e3", "f3")[n - 1]
    return None


def closed_raw(cache, d, n, sigma):
    """S_d(n; sigma) in closed form, or None where `closed_form` has none.

    The one place the closed forms are written.  The value is a RawTPoly
    in sigma's arity over ell(d)^n, with the (t_i - theta) cancellations
    of f2/f3 already done (tb is the Frobenius twist of b):

        kql   1                        e2   b_d(t_i)
        f2    tb_d(t_i)                qn   the chain numerator in t_i
        e3    b_d(t_i) b_d(t_j)
        f3    b_d(t_i) b_d(t_j) + (theta - theta^(q^d))
              * (b_d(t_i) tb_(d-1)(t_j) + tb_(d-1)(t_i) b_d(t_j))

    Each degree character a -> t_k^deg(a) multiplies the value by t_k^d.
    """
    ctx = cache.ctx
    form = closed_form(ctx.q, n, sigma)
    if form is None:
        return None
    s = sigma.s
    v = sigma.vars
    if form == "kql":
        num = RawTPoly.one(ctx, s)
    elif form == "qn":
        num = _in_var(ctx, s, v[0],
                      _chain_numerator(cache, _q_log(ctx.q, n), d).items())
    elif form == "f2":
        num = _in_var(ctx, s, v[0], enumerate(cache.tb_coeffs(d)))
    else:  # e2, e3, f3
        b = [_in_var(ctx, s, i, enumerate(cache.b_coeffs(d))) for i in v]
        num = b[0] * b[1] if form in ("e3", "f3") else b[0]
        if form == "f3" and d >= 1:
            tb = [_in_var(ctx, s, i, enumerate(cache.tb_coeffs(d - 1)))
                  for i in v]
            gap = list((cache.theta_q(0) - cache.theta_q(d)).coeffs)
            num = num + (b[0] * tb[1] + tb[0] * b[1]).scale_poly(gap)
    terms = num.num
    if sigma.degs:
        terms = {tuple(e + d * sigma.degs.count(j) for j, e in enumerate(exps, 1)): c
                 for exps, c in terms.items()}
    return RawTPoly(ctx, s, terms, list(cache.ell_pow(d, n).coeffs))


def power_sum_raw(cache, d, n, sigma):
    """S_d(n; sigma) as a RawTPoly, exact and memoized per cache:
    `closed_raw` where it has a closed form, else enumeration."""
    return cache.memo("raw", (d, n, sigma), lambda: closed_raw(cache, d, n, sigma)
                      or power_sum_bruteforce(cache, d, n, sigma))


def power_sum(cache, d, n, sigma):
    """S_d(n; sigma) as a TPoly: `power_sum_raw`, normalized once per cache."""
    return cache.memo("tpoly", (d, n, sigma),
                      lambda: power_sum_raw(cache, d, n, sigma).to_tpoly())


# ---------------------------------------------------------------------------
# sums over descending degree chains
# ---------------------------------------------------------------------------

class ChainSums:
    """The one recursion behind the multiple power sums over columns
    ((sigma_1, n_1), (sigma_2, n_2), ...), their truncations and their
    series forms.

    `value(d, n, sigma)` gives a column's degree-d term and `zero` the
    empty sum; values need only + and *, so each caller keeps its own
    representation.  Results go into `memo`, a `SeqCache.table` used with
    one `value` and `zero`.
    """

    __slots__ = ("value", "zero", "memo")

    def __init__(self, value, zero, memo):
        self.value = value
        self.zero = zero
        self.memo = memo

    def multi(self, d, cols, mode="strict"):
        """The degree-d multiple sum: the top column at degree d times the
        inner sum of the rest over chains d > i_2 > ... > i_r >= 0
        (strict) or d >= i_2 >= ... >= i_r >= 0 (star)."""
        key = ("multi", d, cols, mode)
        val = self.memo.get(key)
        if val is None:
            sigma, n = cols[0]
            val = self.value(d, n, sigma)
            if len(cols) > 1:
                val = val * self.inner(cols[1:], d - 1 if mode == "strict" else d, mode)
            self.memo[key] = val
        return val

    def inner(self, cols, m, mode):
        """Sum of multi(i, cols, mode) over 0 <= i <= m, memoized by prefix:
        inner(cols, m) = inner(cols, m - 1) + multi(m, cols, mode)."""
        key = ("inner", m, cols, mode)
        val = self.memo.get(key)
        if val is None:
            if m < 0:
                val = self.zero
            else:
                val = self.inner(cols, m - 1, mode) + self.multi(m, cols, mode)
            self.memo[key] = val
        return val

    def truncated(self, d, cols, mode="strict"):
        """Sum of the multiple sums over degrees 0 .. d - 1."""
        return self.inner(cols, d - 1, mode)
