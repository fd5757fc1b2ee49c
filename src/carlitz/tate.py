"""Truncated Laurent series in 1/theta with polynomial t-coefficients.

This is the numerical completion where the zeta values live.  A TateSeries
is known for every theta-exponent >= -N, N its precision, and unknown
below.  Addition takes the minimum precision; multiplication shifts it by
the operands' valuations; inversion requires a dominant t-free unit term
c theta^k and keeps the relative precision: N becomes N + 2k.

A series is one packed code list under Kronecker substitution (von zur
Gathen & Gerhard, Modern Computer Algebra, 8.4): theta^k t^e sits at
(top - k) + rows * (e_1 + rad_1 * (e_2 + rad_2 * (...))), top being the
largest exponent present, so each t-monomial owns a block of `rows`
exponents and rad_i bounds the t_i-degrees.  The layout is kept tight
(first and last row nonzero, each radix minimal).  A product re-lays both
operands with rows_a + rows_b - 1 rows and radices rad_a + rad_b - 1, so
no index sum carries into the next block: one `kmul`, then a cut at the
precision rule.  `from_ratk` is one `kdivmod` of theta^N * num by den,
`from_raw` one per t-monomial of an unreduced RawTPoly (no gcd), and
`invert_unit` Newton iteration g <- g (2 - f g).

The transcendental period factors are handled root-free: the period and
the weight-one generating function both carry a (q-1)-st root of -theta
that lives outside F_q((1/theta)), but those roots cancel in every
identity in scope, leaving products of unit series:

    pi_factor(N)     the root-free period factor, product over i >= 1 of
                     (1 - theta^(1-q^i))^(-1)
    omega_factor(N)  the root-free weight-one factor, product over i >= 0
                     of (1 - t_1 theta^(-q^i))^(-1)

annals_check verifies the root-free form of the weight-one evaluation
identity: zeta(1; chi) * (theta - t_1) * omega_factor = theta * pi_factor.
"""

import itertools
import math
from functools import lru_cache

from . import _packed as kern
from .errors import (ArityMismatch, ContextMismatch, InvalidParams, NonConvergent,
                     NotAUnit, PrecisionInsufficient)
from ._rawfrac import RawTPoly
from .mzv import MatrixData, partial_zeta
from .poly import APoly, RatK, power
from .powersums import ChainSums, SemiChar, closed_form, monic_sum, power_sum

INF = math.inf


@lru_cache(maxsize=1024)
def _exps(rad):
    """The t-exponents of the blocks under the radices rad, in block order."""
    return tuple(e[::-1] for e in itertools.product(*[range(b) for b in rad[::-1]]))


def _block(e, rad):
    return sum(x * math.prod(rad[:i]) for i, x in enumerate(e))


@lru_cache(maxsize=1024)
def _block_map(rad, rad2):
    """(block under rad, block under rad2) for every block rad2 can hold."""
    return tuple((m, _block(e, rad2)) for m, e in enumerate(_exps(rad))
                 if all(x < b for x, b in zip(e, rad2)))


def _reshape(c, rows, rad, rows2, rad2, shift=0, size=None):
    """The layout c of (rows, rad) moved to (rows2, rad2), row j to row
    j + shift, in a list of `size` codes (all of the layout by default);
    what falls outside is dropped.  Code lists are never changed in place,
    so an unchanged layout returns c itself."""
    if (rows, rad, shift) == (rows2, rad2, 0):
        return c
    out = [0] * (rows2 * math.prod(rad2) if size is None else size)
    lo, hi = max(0, -shift), min(rows, rows2 - shift)
    if lo < hi:
        for m, m2 in _block_map(rad, rad2):
            a, b = m * rows, m2 * rows2 + shift
            out[b + lo:b + hi] = c[a + lo:a + hi]
    return out


def _series(ctx, s, prec, top, rows, rad, c):
    """The series of the layout (top, rows, rad, c), cut at the precision
    and made tight."""
    if rows > top + prec + 1:
        keep = max(0, top + prec + 1)
        c, rows = _reshape(c, rows, rad, keep, rad), keep
    lo, hi = 0, rows
    while lo < hi and not any(c[lo::rows]):
        lo += 1
    while hi > lo and not any(c[hi - 1::rows]):
        hi -= 1
    if lo == hi:
        top, rad, c = 0, (1,) * s, []
    else:
        used = [e for m, e in enumerate(_exps(rad))
                if any(c[m * rows + lo:m * rows + hi])]
        tight = tuple(max(e[i] for e in used) + 1 for i in range(s))
        c = _reshape(c, rows, rad, hi - lo, tight, -lo)
        top, rad = top - lo, tight
    x = object.__new__(TateSeries)
    x.ctx, x.s, x.prec, x.top, x.rows, x.rad, x.c = ctx, s, prec, top, hi - lo, rad, c
    return x


def _from_pieces(ctx, s, prec, pieces):
    """The sum of the pieces (t-exponents, top, row list), row j of a piece
    holding its theta^(top - j) code, as a series cut at the precision."""
    pieces = [p for p in pieces if p[2]]
    if not pieces:
        return _series(ctx, s, prec, 0, 0, (1,) * s, [])
    top = max(t for _, t, _ in pieces)
    rows = max(top - t + len(r) for _, t, r in pieces)
    rad = tuple(max(e[i] for e, _, _ in pieces) + 1 for i in range(s))
    c = [0] * (rows * math.prod(rad))
    add = ctx.add
    for e, t, r in pieces:
        o = _block(e, rad) * rows + top - t
        c[o:o + len(r)] = [add[x][y] for x, y in zip(c[o:o + len(r)], r)]
    return _series(ctx, s, prec, top, rows, rad, c)


def _expansion(ctx, num, den, prec):
    """(top, rows) of num / den in K, given as coefficient lists, expanded
    in 1/theta down to theta^(-prec): the quotient of theta^prec * num by
    den, highest exponent first.  The fraction need not be reduced."""
    top = len(num) - len(den)
    if not num or top + prec < 0:
        return 0, []
    num, den = ([0] * prec + num, den) if prec >= 0 else (num, [0] * -prec + den)
    return top, kern.kdivmod(ctx, num, den)[0][::-1]


class TateSeries:
    """A truncated element of the Tate algebra over F_q((1/theta))."""

    __slots__ = ("ctx", "s", "prec", "top", "rows", "rad", "c")

    def __init__(self, ctx, s, terms, prec):
        x = _from_pieces(ctx, s, prec, [(e, k, [code]) for k, poly in terms.items()
                                        for e, code in poly.items()])
        self.ctx, self.s, self.prec = ctx, s, prec
        self.top, self.rows, self.rad, self.c = x.top, x.rows, x.rad, x.c

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx, s=0, prec=INF):
        return _series(ctx, s, prec, 0, 0, (1,) * s, [])

    @classmethod
    def one(cls, ctx, s=0, prec=INF):
        return _series(ctx, s, prec, 0, 1, (1,) * s, [1])

    @classmethod
    def from_apoly(cls, a, s=0, prec=INF):
        return _series(a.ctx, s, prec, len(a.coeffs) - 1, len(a.coeffs), (1,) * s,
                       list(a.coeffs[::-1]))

    @classmethod
    def variable(cls, ctx, s, i, prec=INF):
        exps = tuple(1 if j == i - 1 else 0 for j in range(s))
        return _from_pieces(ctx, s, prec, [(exps, 0, [1])])

    @classmethod
    def from_ratk(cls, x, prec, s=0):
        """The 1/theta-expansion of an element of K, exact to the precision."""
        top, rows = _expansion(x.ctx, list(x.num.coeffs), list(x.den.coeffs), prec)
        return _series(x.ctx, s, prec, top, len(rows), (1,) * s, rows)

    @classmethod
    def from_raw(cls, x, prec):
        """The 1/theta-expansion of a RawTPoly, exact to the precision: the
        division of `from_ratk` for each t-monomial, unreduced."""
        den = list(x.den)
        return _from_pieces(x.ctx, x.s, prec, [(e, *_expansion(x.ctx, list(c), den, prec))
                                               for e, c in x.num.items()])

    # -- structure ---------------------------------------------------------

    @property
    def terms(self):
        """{theta-exponent: {t-exponents: code}} of the nonzero codes."""
        out = {}
        rows = self.rows
        for m, e in enumerate(_exps(self.rad)):
            for j, code in enumerate(self.c[m * rows:(m + 1) * rows]):
                if code:
                    out.setdefault(self.top - j, {})[e] = code
        return out

    def valuation(self):
        """Minus the largest theta-exponent present; +inf when empty."""
        return -self.top if self.c else INF

    def lift_arity(self, s):
        if s < self.s:
            raise ArityMismatch("cannot lower arity")
        return _series(self.ctx, s, self.prec, self.top, self.rows,
                       self.rad + (1,) * (s - self.s), self.c)

    def truncate(self, prec):
        return _series(self.ctx, self.s, min(self.prec, prec), self.top, self.rows,
                       self.rad, self.c)

    def _check(self, other):
        if not isinstance(other, TateSeries):
            raise TypeError("TateSeries expected")
        if other.ctx != self.ctx:
            raise ContextMismatch("series from different contexts")
        if other.s != self.s:
            raise ArityMismatch(f"arities {self.s} and {other.s} differ")
        return other

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._check(other)
        prec = min(self.prec, other.prec)
        top = max(self.top, other.top)
        rows = top - min(self.top - self.rows, other.top - other.rows)
        rows = max(0, min(rows, top + prec + 1))
        rad = tuple(map(max, self.rad, other.rad))
        a = _reshape(self.c, self.rows, self.rad, rows, rad, top - self.top)
        b = _reshape(other.c, other.rows, other.rad, rows, rad, top - other.top)
        add = self.ctx.add
        return _series(self.ctx, self.s, prec, top, rows, rad,
                       [add[x][y] for x, y in zip(a, b)])

    def __neg__(self):
        neg = self.ctx.neg
        return _series(self.ctx, self.s, self.prec, self.top, self.rows, self.rad,
                       [neg[x] for x in self.c])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = self._check(other)
        prec = min(self.prec + other.valuation(),
                   other.prec + self.valuation())
        if not (self.c and other.c):
            return TateSeries.zero(self.ctx, self.s, prec)
        rows = self.rows + other.rows - 1
        rad = tuple(a + b - 1 for a, b in zip(self.rad, other.rad))
        c = kern.kmul(self.ctx, *(
            _reshape(x.c, x.rows, x.rad, rows, rad,
                     size=_block([r - 1 for r in x.rad], rad) * rows + x.rows)
            for x in (self, other)))
        c += [0] * (rows * math.prod(rad) - len(c))
        return _series(self.ctx, self.s, prec, self.top + other.top, rows, rad, c)

    def __pow__(self, n):
        return power(self, n, lambda: TateSeries.one(self.ctx, self.s, INF))

    def invert_unit(self):
        """Inverse of a series with a dominant t-free unit term.  With u the
        series scaled to leading term 1 and g its inverse to k rows, Newton's
        g (2 - u g) = g - g (u g - 1) is the inverse to 2k rows; the inverse
        keeps the relative precision, top + prec."""
        if not self.c:
            raise NotAUnit("the zero series has no inverse")
        lead = self.c[::self.rows]
        if any(lead[1:]):
            raise NotAUnit("leading theta-coefficient must be a constant in t")
        if self.prec == INF:
            raise NotAUnit("cannot invert an exact series without a precision; truncate first")
        ctx, s = self.ctx, self.s
        cinv = ctx.inv[lead[0]]
        n = self.top + self.prec
        u = _series(ctx, s, n, 0, self.rows, self.rad, kern.kscal(ctx, cinv, self.c))
        one = TateSeries.one(ctx, s)
        g, k = one, 1
        while k <= n:
            k = min(2 * k, n + 1)
            g = g - g * (u.truncate(k - 1) * g - one)
            g = _series(ctx, s, INF, g.top, g.rows, g.rad, g.c)
        return _series(ctx, s, self.prec + 2 * self.top, -self.top, g.rows, g.rad,
                       kern.kscal(ctx, cinv, g.c))

    def __eq__(self, other):
        return (isinstance(other, TateSeries) and self.ctx == other.ctx
                and self.s == other.s and self.prec == other.prec
                and (self.top, self.rows, self.rad, self.c)
                == (other.top, other.rows, other.rad, other.c))

    __hash__ = None

    def __repr__(self):
        from .textio import format_series
        return format_series(self)


# ---------------------------------------------------------------------------
# the period factors
# ---------------------------------------------------------------------------

def pi_factor(ctx, prec):
    """Root-free factor of the period: product of (1 - theta^(1-q^i))^(-1)
    over i >= 1 while q^i - 1 <= prec."""
    total, i = TateSeries.one(ctx, 0, prec), 1
    while ctx.q ** i - 1 <= prec:
        f = TateSeries(ctx, 0, {0: {(): 1}, 1 - ctx.q ** i: {(): ctx.neg[1]}}, prec)
        total = total * f.invert_unit()
        i += 1
    return total


def omega_factor(ctx, prec):
    """Root-free factor of the weight-one generating function: product of
    (1 - t_1 theta^(-q^i))^(-1) over i >= 0 (1 to the precision once
    q^i > prec).  With x = 1/theta, omega(t, x) (1 - t x) = omega(t, x^q):
    the code of t^k x^j is that of t^(k-1) x^(j-1), plus that of t^k x^(j/q)
    where q divides j.  The t^k coefficient has valuation >= k."""
    rows, q, add = max(prec, 0) + 1, ctx.q, ctx.add
    c = [1] + [0] * (rows * rows - 1)
    for o in range(rows, rows * rows, rows):
        c[o + 1:o + rows] = c[o - rows:o - 1]
        for j in range(q, rows, q):
            c[o + j] = add[c[o + j]][c[o + j // q]]
    return _series(ctx, 1, prec, 0, rows, (rows,), c)


# ---------------------------------------------------------------------------
# zeta series
# ---------------------------------------------------------------------------

def _inverse_power(ctx, a, n, rows):
    """The first `rows` codes of 1/a^n for monic a, from theta^(-n deg a)
    down.  With qk = q^k > n, 1/a^n = a^(qk-n) / a^qk, and 1/a^qk is 1/a
    spread by qk (Frobenius), so only rows/qk codes of 1/a need a division."""
    qk = ctx.q
    while qk <= n:
        qk *= ctx.q
    short = -(-rows // qk)
    inv = kern.kdivmod(ctx, [0] * (short + len(a) - 2) + [1], a)[0][::-1]
    num = kern.kpow(ctx, a, qk - n)[::-1][:rows]
    return kern.kmul(ctx, kern.kspread(inv, qk), num)[:rows]


def _series_power_sum(cache, d, n, sigma, prec):
    """The degree-d order-n twisted power sum as a series to the given
    precision, memoized per cache: routed as `power_sum` routes, the raw
    closed form expanded by `from_raw` when `closed_form` has one (at every
    untwisted order), else the sum of sigma(a) times the expansion of 1/a^n
    over monic a, through `monic_sum`.  Every 1/a^n starts at theta^(-nd)
    with coefficient 1, so all expansions align."""
    ctx = cache.ctx

    def make():
        if closed_form(ctx.q, n, sigma):
            return TateSeries.from_raw(power_sum(cache, d, n, sigma), prec)
        rows = prec - n * d + 1
        if rows > 0:
            sums = monic_sum(cache, d, sigma, lambda a: _inverse_power(ctx, a, n, rows),
                             range(-n * d, -n * d - rows, -1), -n * d)
        else:
            cache.check_budget(ctx.q ** d)
            sums = {}
        return _from_pieces(ctx, sigma.s, prec, [(e, -n * d, r) for e, r in sums.items()])
    return cache.memo("series", (d, n, sigma, prec), make)


def zeta_series(cache, data, prec, mode="strict"):
    """The zeta value of the matrix data, summed degree by degree until the
    tail is provably below the precision.

    Stops once the last two degree terms vanish to precision and the order
    bound n_1 * d exceeds the precision (every term of the degree-d sum
    has valuation at least n_1 * d); raises NonConvergent if valuations
    fail to increase across a three-term window (InvalidParams if prec < 0).
    """
    if prec < 0:
        raise InvalidParams(f"the zeta series needs prec >= 0, got prec={prec}")
    ctx = cache.ctx
    if data.depth == 0:
        return TateSeries.one(ctx, data.s, prec)
    chains = ChainSums(
        lambda k, n, sigma: _series_power_sum(cache, k, n, sigma, prec),
        TateSeries.zero(ctx, data.s, prec), cache.table(("series chains", prec)))
    total = TateSeries.zero(ctx, data.s, prec)
    vals = []
    d = 0
    quiet = 0
    while True:
        term = chains.multi(d, data.columns, mode)
        total = total + term
        v = term.valuation()
        vals.append(v)
        # chains of depth r are structurally empty below degree r-1, so the
        # vanishing detector only arms once every column can contribute
        if d >= data.depth:
            quiet = quiet + 1 if v > prec else 0
        if quiet >= 2:
            break
        # divergence guard: a window whose endpoints are both visible (finite)
        # must strictly increase; structurally empty terms carry no signal
        if (len(vals) >= 4 and vals[-1] is not INF and vals[-4] is not INF
                and vals[-1] <= vals[-4]):
            raise NonConvergent(
                f"term valuations {vals[-4:]} fail to increase at degree {d}")
        d += 1
    return total


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def valuation_identity_check(lhs, rhs, threshold):
    """Pass iff the difference of the two series has valuation beyond the
    threshold, both sides being known at least that precisely."""
    if min(lhs.prec, rhs.prec) < threshold:
        raise PrecisionInsufficient(
            f"need precision {threshold}, have {min(lhs.prec, rhs.prec)}")
    diff = lhs - rhs
    achieved = diff.valuation()
    return {"achieved": achieved, "threshold": threshold,
            "passed": achieved > threshold}


def annals_check(cache, prec):
    """Root-free form of the weight-one evaluation identity:

        zeta(1; chi) * (theta - t_1) * omega_factor = theta * pi_factor

    (the (-theta)^(1/(q-1)) roots of the period and of the weight-one
    factor cancel against each other, leaving this identity between unit
    series).  Also reports the exact specializations of the truncated
    weight-one sum: value 1 at t_1 = theta, value 0 at the trivial zero
    t_1 = theta^q."""
    ctx = cache.ctx
    work = prec + ctx.q + 3
    sigma = SemiChar.chi(ctx, 1, 1)
    data_sigma = MatrixData(ctx, [(sigma, 1)])
    z = zeta_series(cache, data_sigma, work)
    theta_minus_t = (TateSeries.from_apoly(APoly.theta(ctx), s=1)
                     - TateSeries.variable(ctx, 1, 1)).truncate(work)
    lhs = z * theta_minus_t * omega_factor(ctx, work)
    rhs = (TateSeries.from_apoly(APoly.theta(ctx), s=0).truncate(work)
           * pi_factor(ctx, work)).lift_arity(1)
    main = valuation_identity_check(lhs.truncate(prec + 1), rhs.truncate(prec + 1),
                                    prec)
    # exact specializations of the truncated weight-one zeta sum, unreduced
    at_theta = partial_zeta(cache, 4, data_sigma, raw=True).substitute(
        1, list(cache.theta_q(0).coeffs))
    at_zero = partial_zeta(cache, 3, data_sigma, raw=True).substitute(
        1, list(cache.theta_q(1).coeffs))
    main["value_at_theta_is_one"] = at_theta.equals(RawTPoly.one(ctx, 0))
    main["trivial_zero_vanishes"] = at_zero.is_zero()
    return main


def family_qk_check(cache, k, prec):
    """zeta(q^k) zeta(q^k - 1) = zeta(2 q^k - 1) + zeta(q^k - 1, q^k)."""
    ctx = cache.ctx
    q = ctx.q
    work = prec + 2
    za = zeta_series(cache, MatrixData.untwisted(ctx, (q ** k,)), work)
    zb = zeta_series(cache, MatrixData.untwisted(ctx, (q ** k - 1,)), work)
    zc = zeta_series(cache, MatrixData.untwisted(ctx, (2 * q ** k - 1,)), work)
    zd = zeta_series(cache, MatrixData.untwisted(ctx, (q ** k - 1, q ** k)), work)
    return valuation_identity_check((za * zb).truncate(prec + 1),
                                    (zc + zd).truncate(prec + 1), prec)


def thakur_weight_check(cache, m, prec):
    """zeta(m, m(q-1)) = zeta(mq) / (theta - theta^q)^m for 1 <= m <= q-1."""
    ctx = cache.ctx
    q = ctx.q
    work = prec + 2 * m * q + 2
    lhs = zeta_series(cache, MatrixData.untwisted(ctx, (m, m * (q - 1))), work)
    zmq = zeta_series(cache, MatrixData.untwisted(ctx, (m * q,)), work)
    scale = TateSeries.from_ratk(RatK(APoly.one(ctx), cache.ell(1) ** m), work)
    return valuation_identity_check(lhs.truncate(prec + 1),
                                    (zmq * scale).truncate(prec + 1), prec)


def strange_shuffle_check(cache, h, k, prec):
    """The two-parameter untwisted family obtained from the joint-product
    identity, for h, k >= 0 with h + k > 0:

      zeta(1)^(q^k) zeta(q^(k+h) - q^h - 1)
        = zeta(2 q^(k+h) - q^h - 1)
        + zeta(q^(k+h), q^(k+h) - q^h - 1) + zeta(q^(k+h) - q^h - 1, q^(k+h))
        - zeta(q^(k+h) - q^h, q^(k+h) - 1) - zeta(q^(k+h) - 1, q^(k+h) - q^h)
    """
    ctx = cache.ctx
    q = ctx.q
    if h < 0 or k < 0 or h + k == 0:
        raise ValueError("need h, k >= 0 with h + k > 0")
    big = q ** (k + h)
    low = q ** h
    work = prec + 2
    z1 = zeta_series(cache, MatrixData.untwisted(ctx, (1,)), work)
    # the first factor carries the full q^(k+h) power: the identity follows
    # from the joint product by the two-variable specialization raised to
    # q^(k+h), and the h = 0 case is insensitive to the difference
    lhs = (z1 ** big) * zeta_series(
        cache, MatrixData.untwisted(ctx, (big - low - 1,)), work)
    rhs = zeta_series(cache, MatrixData.untwisted(ctx, (2 * big - low - 1,)), work)
    for pair in ((big, big - low - 1), (big - low - 1, big)):
        rhs = rhs + zeta_series(cache, MatrixData.untwisted(ctx, pair), work)
    for pair in ((big - low, big - 1), (big - 1, big - low)):
        rhs = rhs - zeta_series(cache, MatrixData.untwisted(ctx, pair), work)
    return valuation_identity_check(lhs.truncate(prec + 1), rhs.truncate(prec + 1),
                                    prec)
