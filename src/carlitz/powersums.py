"""Fundamental sequences, semi-characters, and twisted power sums.

The sequences everything is built from: ell(i) = prod_(j<=i) (theta -
theta^(q^j)), read from the per-context `_rawfrac.ell_product`, and two
`SeqCache` memo entries (tag in quotes), each made from its predecessor:

    "b"        b_i(t) = b_(i-1)(t) (t - theta^(q^(i-1))),  b_0 = 1, in A[t]
    "tb"       the Frobenius twist of b_i, coefficient by coefficient

A semi-character is a multiplicative map on monic polynomials built from
three kinds of factors: evaluation at a variable (a -> a(t_i)), evaluation
at a field constant (a -> a(c)), and the degree character (a -> t_i^deg a).

Twisted power sums of degree d and order k are sums of a^(-k) sigma(a)
over the q^d monic a of degree d.  They are computed two independent
ways: literal enumeration (the oracle), and closed forms for the families
with known ones, among them every untwisted order, by the recursion of
Carlitz's generating function (`_generated`), so that only the other
twisted orders and k <= 0 enumerate.  Both write the sum as a RawTPoly,
over ell(d)^k but for the recursion's own denominator; the
oracle builds its numerators from the irreducibles, not from the ell
sequence, as cofactors of ((-1)^d times the lcm of the monics of degree
d)^k, which equals ell(d)^k.
`monic_sum` is the one enumeration loop (here and in the skew and Tate
oracles); it evaluates one monic per orbit of a -> u^(-d) a(u theta).
The closed forms and the enumeration must agree exactly; tests and the
verification suite enforce that, comparing the unreduced fractions.
`power_sum` memoizes each power sum in this form per cache, for every
layer above (the mzv, shuffle, Tate-series and Bernoulli-Goss sums); a
value is normalized into a TPoly only where it is printed.
"""

from . import _packed as kern
from ._rawfrac import RawTPoly, ell_product
from .errors import (ArityMismatch, BudgetExceeded, DivisionByZero, InexactDivision,
                     InvalidParams, NonMonicInput, UnsupportedCharacter)
from .ffield import FqElem
from .poly import APoly, enumerate_monics, irreducibles_of_degree

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

    def with_arity(self, s):
        if s < max((0,) + self.vars + self.degs):
            raise ArityMismatch("arity too small for the factors present")
        return SemiChar(self.ctx, s, self.vars, self.degs, self.consts)

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


class SeqCache:
    """Memoized fundamental data for one field context.

    Two stores hold it, each value in exactly one: the products of the
    factors theta - theta^(q^j), ell(i) and ell(d)/ell(i) among them, are
    memoized per field context by `_rawfrac.ell_product`, which `ell` and
    `ell_ratio` read; everything else is in this cache's one dict of
    tagged tables: `memo(tag, key, make)` computes a value once, and
    `table(tag)` is a whole table, for a `ChainSums`.  The tags: the
    sequences "b" and "tb" (recurrences in the module docstring);
    "monic_lcm", the lcm of the monics of each degree; "chain_weights";
    the exact twisted power sums, "raw", the recursion's untwisted ones,
    "gen", and their series, "series"; and the chain sums of every module.
    No table holds a normalized value.
    Single-threaded, append-only: no lock guards it, so one cache must not
    be filled from two threads at once; every returned value is immutable.
    """

    def __init__(self, ctx, budget=DEFAULT_BUDGET):
        self.ctx = ctx
        self.budget = budget
        self._tables = {}                   # tag -> memo dict

    # -- sequences ----------------------------------------------------------

    def theta_q(self, i):
        """theta^(q^i) as an element of A."""
        return APoly.theta(self.ctx, self.ctx.q ** i)

    def ell(self, i):
        """ell(i); zero for negative indices."""
        return self.ell_ratio(i, 0) if i >= 0 else APoly.zero(self.ctx)

    def b_coeffs(self, i):
        """Coefficients (in A, ascending) of the degree-i polynomial with
        roots theta^(q^j) for 0 <= j < i."""
        def make():
            if not i:
                return (APoly.one(self.ctx),)
            root, prev = self.theta_q(i - 1), self.b_coeffs(i - 1)
            # coefficient m of (t - root) b_(i-1) is prev[m-1] - root prev[m]
            return ((-(root * prev[0]),) + tuple(prev[m - 1] - root * prev[m]
                                                 for m in range(1, i)) + prev[-1:])
        return self.memo("b", i, make)

    def tb_coeffs(self, i):
        """Coefficients of the Frobenius twist of b_i: the monic polynomial
        with roots theta^(q^j) for 1 <= j <= i."""
        return self.memo("tb", i, lambda: tuple(c.frobenius() for c in self.b_coeffs(i)))

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

    def ell_ratio(self, d, i):
        """ell(d) / ell(i), the `ell_product` at (0, ..., 0, 1, ..., 1) with
        i zeros.  DivisionByZero for i < 0 (ell(i) = 0), InexactDivision
        for i > d."""
        if i < 0:
            raise DivisionByZero(f"ell({i}) is zero")
        if i > d:
            raise InexactDivision(f"ell({d}) is not divisible by ell({i})")
        return APoly._make(self.ctx, list(ell_product(self.ctx, (0,) * i + (1,) * (d - i))))

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

    def check_budget(self, count, *work):
        """BudgetExceeded past the budget; `work` names count (default: monics)."""
        if count > self.budget:
            raise BudgetExceeded(count, self.budget, *work)


# ---------------------------------------------------------------------------
# brute-force twisted power sums (the enumeration oracle)
# ---------------------------------------------------------------------------

def _orbit_size(ctx, d, h):
    """For the coefficients c of a monic of degree d: its orbit's size under
    c_j -> c_j u^(d-j), u^h = 1, if c is the orbit's least as (c_(d-1), ...,
    c_0), else 0.  So c_i, the top nonzero c_j with j < d (else i = d), is
    least in c_i (F_q^x)^(d-i), and no u with u^(d-i) = 1, mapping c_j to
    c_j u^(i-j), makes the rest smaller: O(d) reads per such u, any q."""
    mul = ctx.mul
    powers = [[ctx.epow(u, r) for r in range(d + 1)] for u in range(1, ctx.q if h > 1 else 2)]
    least = [[min(mul[c][pw[m]] for pw in powers) for c in range(ctx.q)] for m in range(d + 1)]
    roots = [[pw for pw in powers[1:] if pw[m] == 1] for m in range(d + 1)]  # powers[0]: u = 1
    def size(c):
        i = d - 1
        while not c[i]:                            # c[-1] = c_d = 1 stops it
            i -= 1
        i %= d + 1                                 # so theta^d has i = d
        if least[d - i][c[i]] != c[i]:
            return 0
        rest = c[:i][::-1]                         # c_(i-1), ..., c_0
        images = [tuple(mul[x][pw[r]] for r, x in enumerate(rest, 1)) for pw in roots[d - i]]
        return 0 if any(im < rest for im in images) else h // (1 + images.count(rest))
    return size


def monic_sum(cache, d, sigma, value, degrees, weight):
    """Sum of sigma(a) value(a) over the q^d monic a of degree d, as a dict
    t-exponents -> trimmed codes (bytes over a field with byte codecs, the
    form `RawTPoly` keeps, else a list), slot j for theta^(degrees[j]) (a
    range of step +-1).  a -> u^(-d) a(u theta), u in F_q^x, permutes the
    monics and takes value(a) to u^(-W_f) value(a)(u theta):

        cofactors L^k / a^k, k > 0      theta^j         W_f = k deg L - k d
        a^(-k), k <= 0                  theta^j         W_f = -k d
        Tate expansion of 1/a^n         theta^(-nd-j)   W_f = -n d

    (L = +-`monic_lcm(d)`: L(u theta) = u^(deg L) L(theta)); sigma adds d
    per variable, degree character and evaluation at 0 (another constant
    leaves only u = 1).  As the sum of u^w over a group of order h is h
    if h | w, else 0, one monic per orbit (`_orbit_size`) counts, times its
    orbit size mod p, and t^e keeps the slots of theta-degree D with
    h | D + |e| - W, W the total weight."""
    ctx = cache.ctx
    cache.check_budget(count := ctx.q ** d)
    h = 1 if any(sigma.consts) else ctx.q - 1      # else every constant is 0
    total = weight + d * (len(sigma.vars) + len(sigma.degs) + len(sigma.consts))
    size, unit, mul = _orbit_size(ctx, d, h), kern._units(ctx), ctx.mul
    every = kern.reduce_interval(ctx, 1, count)
    acc = {}
    for i, a in enumerate(enumerate_monics(ctx, d), 1):
        n = size(a.coeffs) % ctx.p                 # an orbit size divides q - 1
        if n:
            packed = kern.pack(ctx, value(a.coeffs))
            for exps, code in sigma.eval_codes(a.coeffs).items():
                acc[exps] = acc.get(exps, 0) + unit[mul[code][n]] * packed
        if every and i % every == 0:
            acc = {e: kern.pack(ctx, kern.unpack(ctx, v, len(degrees))) for e, v in acc.items()}
    sums = {}
    for e, v in acc.items():
        keep = slice(degrees.step * (total - sum(e) - degrees.start) % h, None, h)
        codes = kern.unpack(ctx, v, len(degrees), as_bytes=True)
        out = bytearray(len(codes)) if type(codes) is bytes else [0] * len(codes)
        out[keep] = codes[keep]
        sums[e] = kern.trim(kern._like(codes, out))
    return sums


def power_sum_bruteforce(cache, d, k, sigma):
    """Sum of a^(-k) sigma(a) over all monic a of degree d, by enumeration.

    Returns a RawTPoly.  Negative k means positive powers of a (used by the
    finite zeta sums at negative integers); the sum is then over 1, with
    coefficients in A.  Positive k sums the cofactors L^k / a^k =
    (L^j / a^j)^(k/j), where L = (-1)^d `monic_lcm(d)`, so each division is
    exact; L equals ell(d), so the sum is over ell(d)^k, the denominator
    `closed_raw` writes, of which only the degree k deg L is read here.
    `kpow` spreads the q-power part of k/j (Frobenius).  Over F_p, j = 1.
    Over F_{p^e}, j keeps all of k but its q-power part, since there a
    packed product of two cofactors costs more than a division.
    """
    ctx = cache.ctx
    cache.check_budget(ctx.q ** d)
    if k <= 0:
        return RawTPoly(ctx, sigma.s, monic_sum(cache, d, sigma, lambda a: kern.kpow(
            ctx, a, -k), range(1 - k * d), -k * d))
    j = 1 if ctx.e == 1 else k
    while j % ctx.q == 0:
        j //= ctx.q
    lcm = -cache.monic_lcm(d) if d % 2 else cache.monic_lcm(d)
    part, top = list((lcm ** j).coeffs), k * lcm.degree
    sums = monic_sum(cache, d, sigma, lambda a: kern.kpow(
        ctx, kern.kexactdiv(ctx, part, kern.kpow(ctx, a, j)), k // j),
        range(top + 1), top - k * d)
    return RawTPoly.over_ell(ctx, sigma.s, sums, d, k)


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
    with tb the Frobenius twist of b, and f3 is (tb_d(t1) tb_d(t2) -
    (theta^(q^d) - theta)^2 tb_(d-1)(t1) tb_(d-1)(t2)) / ell(d)^2, by
    b_d = (t - theta) tb_(d-1) and tb_d = (t - theta^(q^d)) tb_(d-1).
    The values come from `closed_raw`,
    which writes every form with these cancellations done, and are
    normalized by `RawTPoly.to_tpoly`.
    """
    if which not in _CLOSED_NAMES:
        raise InvalidParams(f"unknown closed form {which!r}")
    n, s = _CLOSED_NAMES[which]
    sigma = SemiChar(cache.ctx, s, varis=range(1, s + 1))
    return closed_raw(cache, d, n, sigma).to_tpoly()


def _in_var(ctx, s, i, coeffs):
    """The sum of c_k t_i^k for (k, c_k) in coeffs, c_k in A, as a RawTPoly
    of arity s over 1, its numerators in the form it keeps."""
    kind = bytes if kern._codec(ctx) else list
    return RawTPoly(ctx, s, {tuple(k if j == i - 1 else 0 for j in range(s)):
                             kind(c.coeffs) for k, c in coeffs})


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
    return RawTPoly.over_ell(ctx, q, prod.num, d, 1)


# ---------------------------------------------------------------------------
# Frobenius expansion of b_d and the q^n-order closed forms
# ---------------------------------------------------------------------------

def chain_weights(cache, n, d):
    """Entry i (0 <= i <= d) is the sum over chains d >= i_1 >= ... >= i_n = i
    of R(i_1)^(e_1) ... R(i_(n-1))^(e_(n-1)) R(i), with R(j) = ell(d)/ell(j)
    and e_m = q^(n-m) - q^(n-m-1): the weight of the last slot i in the chain
    expansions of b_d and of the skew power sums.  By suffix sums, in
    n (d + 1) products: from P = 1 at slot d and 0 below, for each e in
    e_1, ..., e_(n-1), 1 in turn set P(i) <- R(i)^e * (sum of P(j), j >= i).
    Memoized as a tuple under (n, d); each call returns a fresh list.  For
    n = 1 every suffix sum is 1, so the weights are the memoized ratios R(i)
    themselves."""
    def make():
        if n == 1:
            return tuple(cache.ell_ratio(d, i) for i in range(d + 1))
        q = cache.ctx.q
        zero = APoly.zero(cache.ctx)
        weights = [zero] * d + [APoly.one(cache.ctx)]    # its suffix sums are all 1
        for e in [q ** (n - m) - q ** (n - m - 1) for m in range(1, n)] + [1]:
            suffix = zero
            for i in reversed(range(d + 1)):
                suffix = suffix + weights[i]
                weights[i] = cache.ell_ratio(d, i) ** e * suffix
        return tuple(weights)
    return list(cache.memo("chain_weights", (n, d), make))


def b_combination(cache, weights):
    """The sum of w_i b_i(t) over the weights w_i in A: a dict t-exponent ->
    APoly; for the `chain_weights`, the numerator of the chain expansion over
    ell(d)^(q^(n-1)).  By Horner's rule on b_(i+1) = (t - theta^(q^i)) b_i:
    T = w_d, then T <- w_i + (t - theta^(q^i)) T for i = d - 1, ..., 0, where
    theta^(q^i) times a coefficient is a shift by q^i slots: no products."""
    ctx = cache.ctx
    kind = bytes if kern._codec(ctx) else list     # T's coefficients stay this type
    total = []                                 # T's coefficients by t-power
    for i in reversed(range(len(weights))):
        shift = kind(bytes(ctx.q ** i))
        # coefficient k of (t - theta^(q^i)) T is T_(k-1) - theta^(q^i) T_k
        total = [kern.kadd(ctx, lo, shift + kern.kneg(ctx, hi) if hi else [])
                 for lo, hi in zip([kind()] + total, total + [kind()])]
        total[0] = kern.kadd(ctx, total[0], kind(weights[i].coeffs))
    return {k: APoly._make(ctx, list(c)) for k, c in enumerate(total) if c}


def tau_b_expand(cache, n, d):
    """Both sides of the Frobenius expansion of b_d:

        tau^n(b_d) = ell(d)^(q^(n-1)) * sum over chains
                     d >= i_1 >= ... >= i_n >= 0 of
                     ell(i_1)^(q^(n-2)-q^(n-1)) ... ell(i_(n-1))^(1-q)
                     * ell(i_n)^(-1) * b_(i_n)

    returned as (lhs, rhs) RawTPoly values in one variable; they must be
    equal.  The right side is the `b_combination` (by Horner's rule) of the
    `chain_weights` (by suffix sums over products of two-term factors).
    """
    ctx = cache.ctx
    lhs = _in_var(ctx, 1, 1, ((k, c.frobenius(n))
                              for k, c in enumerate(cache.b_coeffs(d))))
    # the ell(d)^(q^(n-1)) prefactor cancels the chains' common denominator,
    # so the right side is already integral
    weights = chain_weights(cache, n, d)
    return lhs, _in_var(ctx, 1, 1, b_combination(cache, weights).items())


# ---------------------------------------------------------------------------
# general provider with closed-form routing
# ---------------------------------------------------------------------------

def _q_split(q, n):
    """(k, l) with n = k q^l, q not dividing k, for n >= 1."""
    l = 0
    while n % q == 0:
        n, l = n // q, l + 1
    return n, l


def closed_form(q, n, sigma):
    """Which closed form gives S_d(n; sigma) at every degree d, or None
    where only enumeration does.  This is the one table of the (order,
    semi-character) pairs with a closed form; degree characters are not
    looked at, since they factor out as t_i^d.

        no variable evaluation         n = k q^l, 1 <= k <= q-1   "kql"
                                       every other n >= 1         "gen"
        one variable evaluation        n = 1, n = 2               "e2", "f2"
                                       n = q^m, m >= 1            "qn"
        two distinct evaluations       n = 1, n = 2               "e3", "f3"
    """
    if sigma.consts or n < 1:
        return None
    k, m = _q_split(q, n)
    v = sigma.vars
    if not v:
        return "kql" if k < q else "gen"
    if len(v) == 1:
        if n in (1, 2):
            return ("e2", "f2")[n - 1]
        return "qn" if k == 1 and m else None
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
        f3    tb_d(t_i) tb_d(t_j) - (theta^(q^d) - theta)^2
              * tb_(d-1)(t_i) tb_(d-1)(t_j)

    f3 follows from b_d = (t - theta) tb_(d-1), tb_d = (t - theta^(q^d))
    tb_(d-1).  e3 and f3 are symmetric in t_i, t_j: the coefficient of t_i^a
    t_j^b, a <= b, is one fused product of sparse theta-polynomials,
    mirrored to t_i^b t_j^a.  "gen" is `_generated` over the denominator
    its recursion builds, whose exponents may exceed n (at q = 3, n = 4 the
    first is 5): `equals`, `to_tpoly` and `from_raw` are exact over any.
    Each degree character a -> t_k^deg(a) multiplies the value by t_k^d.
    """
    ctx = cache.ctx
    form = closed_form(ctx.q, n, sigma)
    if form is None:
        return None
    s = sigma.s
    v = sigma.vars
    den = (n,) * d
    kind = bytes if kern._codec(ctx) else list
    if form == "kql":
        terms = {(0,) * s: kind([1])}
    elif form == "gen":
        x = _generated(cache, d, n)
        terms, den = {(0,) * s: c for c in x.num.values()}, x.exps
    elif form in ("e3", "f3"):
        x = [kind(c.coeffs) for c in (cache.b_coeffs(d) if form == "e3"
                                      else cache.tb_coeffs(d))]
        y = z = ()
        if form == "f3" and d >= 1:
            gap2 = kern.kneg(ctx, ell_product(ctx, (0,) * (d - 1) + (2,)))
            z = [kind(c.coeffs) for c in cache.tb_coeffs(d - 1)]
            y = [kern.kmul(ctx, gap2, c) for c in z]
        terms, exps = {}, [0] * s
        for a in range(d + 1):
            for b in range(a, d + 1):
                c = kern.kmul(ctx, x[a], x[b], kern.kmul(ctx, y[a], z[b]) if b < len(z) else None)
                for exps[v[0] - 1], exps[v[1] - 1] in ((a, b), (b, a)):
                    terms[tuple(exps)] = c
    else:
        if form == "qn":
            coeffs = b_combination(cache, chain_weights(cache, _q_split(ctx.q, n)[1], d)).items()
        else:
            coeffs = enumerate(cache.tb_coeffs(d) if form == "f2" else cache.b_coeffs(d))
        terms = _in_var(ctx, s, v[0], coeffs).num
    if sigma.degs:
        terms = {tuple(e + d * sigma.degs.count(j) for j, e in enumerate(exps, 1)): c
                 for exps, c in terms.items()}
    return RawTPoly(ctx, s, terms, exps=den)


def _generated(cache, d, n):
    """S_d(n), n >= 1, untwisted, as a RawTPoly of arity 0, by Carlitz's
    generating function (Thakur, Function Field Arithmetic, 5.6): S_d(1) =
    1/ell(d) and S_d(m) = sum of u_i S_d(m - q^i) over i <= d, q^i < m.
    u_i, the x^(q^i) coefficient of prod_(deg a < d) (x - a) over the
    product of the monics of degree d, is (-1)^i over prod_j (theta -
    theta^(q^j))^(e_j), e_j = q^(i-j) [j <= i] + q^i [j <= d - i]; a
    product by it adds the e_j and applies the sign.
    Memoized per (d, m) in the table "gen", filled bottom-up.  Building
    and keeping the n values is charged n against the budget, as an
    enumeration is charged its monics."""
    ctx, q = cache.ctx, cache.ctx.q
    table = cache.table("gen")
    if (d, n) not in table:
        cache.check_budget(n, "Carlitz's recursion to order {}")
        units = [[(q ** (i - j) if j <= i else 0) + (q ** i if j <= d - i else 0)
                  for j in range(1, d + 1)] for i in range(d + 1)]
        table[d, 1] = RawTPoly.over_ell(ctx, 0, {(): [1]}, d, 1)
        for m in range(2, n + 1):
            if (d, m) not in table:
                table[d, m] = RawTPoly.sum(RawTPoly(
                    ctx, 0, {(): kern.kneg(ctx, c) if i % 2 else c for c in g.num.values()},
                    exps=map(sum, zip(e, g.exps + (0,) * d)))
                    for i, e in enumerate(units) if q ** i < m for g in [table[d, m - q ** i]])
    return table[d, n]


def power_sum(cache, d, n, sigma):
    """S_d(n; sigma) as a RawTPoly, exact and memoized per cache:
    `closed_raw` where it has a closed form, else enumeration."""
    return cache.memo("raw", (d, n, sigma), lambda: closed_raw(cache, d, n, sigma)
                      or power_sum_bruteforce(cache, d, n, sigma))


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
