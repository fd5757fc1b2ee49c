"""Truncated Laurent series in 1/theta with polynomial t-coefficients.

This is the numerical completion where the zeta values live: a TateSeries
stores a map theta-exponent -> F_q[t_1..t_s] coefficient, together with a
precision N meaning the coefficients are exact for every exponent >= -N
and unknown below.  Addition takes the minimum precision;
multiplication shifts it by the operands' valuations; inversion requires
a dominant t-free unit term.

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

import math

from .errors import (ArityMismatch, ContextMismatch, NonConvergent, NotAUnit,
                     PrecisionInsufficient)
from .poly import APoly, RatK, enumerate_monics
from .powersums import ChainSums, SemiChar, closed_form, power_sum
from .tpoly import TPoly

INF = math.inf


def _tadd(ctx, a, b):
    add = ctx.add
    out = dict(a)
    for e, c in b.items():
        cur = out.get(e, 0)
        v = add[cur][c]
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _tmul(ctx, a, b):
    mul, add = ctx.mul, ctx.add
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            v = mul[c1][c2]
            if v:
                cur = out.get(e, 0)
                v = add[cur][v]
                if v:
                    out[e] = v
                else:
                    out.pop(e, None)
    return out


def _tneg(ctx, a):
    neg = ctx.neg
    return {e: neg[c] for e, c in a.items()}


class TateSeries:
    """A truncated element of the Tate algebra over F_q((1/theta))."""

    __slots__ = ("ctx", "s", "prec", "terms")

    def __init__(self, ctx, s, terms, prec):
        self.ctx = ctx
        self.s = s
        self.prec = prec
        clean = {}
        for k, poly in terms.items():
            if poly and (prec is INF or k >= -prec):
                clean[k] = poly
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx, s=0, prec=INF):
        return cls(ctx, s, {}, prec)

    @classmethod
    def one(cls, ctx, s=0, prec=INF):
        return cls(ctx, s, {0: {(0,) * s: 1}}, prec)

    @classmethod
    def from_apoly(cls, a, s=0, prec=INF):
        terms = {}
        for i, code in enumerate(a.coeffs):
            if code:
                terms[i] = {(0,) * s: code}
        return cls(a.ctx, s, terms, prec)

    @classmethod
    def variable(cls, ctx, s, i, prec=INF):
        exps = tuple(1 if j == i - 1 else 0 for j in range(s))
        return cls(ctx, s, {0: {exps: 1}}, prec)

    @classmethod
    def from_ratk(cls, x, prec, s=0):
        """The 1/theta-expansion of an element of K, exact to the precision."""
        ctx = x.ctx
        if x.is_zero():
            return cls.zero(ctx, s, prec)
        num = x.num.coeffs
        den = x.den.coeffs
        D = len(den) - 1
        lead_inv = ctx.inv[den[-1]]
        mul, add, neg = ctx.mul, ctx.add, ctx.neg
        top = len(num) - 1
        m_max = prec + top - D  # lowest needed exponent is -prec
        if m_max < 0:
            return cls.zero(ctx, s, prec)
        # inverse coefficients: den^(-1) = sum over m of inv_m theta^(-D-m)
        inv_seq = [lead_inv]
        for m in range(1, m_max + 1):
            acc = 0
            for j in range(1, min(m, D) + 1):
                t = mul[den[D - j]][inv_seq[m - j]]
                acc = add[acc][t]
            inv_seq.append(mul[neg[acc]][lead_inv] if acc else 0)
        terms = {}
        zero_exps = (0,) * s
        for i, ni in enumerate(num):
            if not ni:
                continue
            row = mul[ni]
            for m, em in enumerate(inv_seq):
                if em:
                    k = i - D - m
                    if k < -prec:
                        continue
                    cur = terms.get(k, {}).get(zero_exps, 0)
                    v = add[cur][row[em]]
                    if v:
                        terms[k] = {zero_exps: v}
                    else:
                        terms.pop(k, None)
        return cls(ctx, s, terms, prec)

    @classmethod
    def embed_tpoly(cls, tp, prec, s=None):
        """Embed an exact TPoly coefficient-by-coefficient."""
        s = tp.s if s is None else s
        total = cls.zero(tp.ctx, s, prec)
        for exps, coef in tp.terms.items():
            base = cls.from_ratk(coef, prec, s=0)
            shifted = {}
            pad = exps + (0,) * (s - len(exps))
            for k, poly in base.terms.items():
                shifted[k] = {pad: poly[()]}
            total = total + cls(tp.ctx, s, shifted, prec)
        return total

    # -- structure ---------------------------------------------------------

    def valuation(self):
        """min over stored terms of -(theta-exponent); +inf when empty."""
        if not self.terms:
            return INF
        return -max(self.terms)

    def is_zero_to_precision(self):
        return not self.terms

    def lift_arity(self, s):
        if s < self.s:
            raise ArityMismatch("cannot lower arity")
        if s == self.s:
            return self
        pad = (0,) * (s - self.s)
        return TateSeries(self.ctx, s,
                          {k: {e + pad: c for e, c in poly.items()}
                           for k, poly in self.terms.items()}, self.prec)

    def truncate(self, prec):
        return TateSeries(self.ctx, self.s, self.terms, min(self.prec, prec))

    def coefficient(self, k):
        """The F_q[t]-coefficient of theta^k, as a dict."""
        return dict(self.terms.get(k, {}))

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
        out = {k: dict(poly) for k, poly in self.terms.items()}
        for k, poly in other.terms.items():
            cur = out.get(k, {})
            merged = _tadd(self.ctx, cur, poly)
            if merged:
                out[k] = merged
            else:
                out.pop(k, None)
        return TateSeries(self.ctx, self.s, out, prec)

    def __neg__(self):
        return TateSeries(self.ctx, self.s,
                          {k: _tneg(self.ctx, poly) for k, poly in self.terms.items()},
                          self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        other = self._check(other)
        prec = min(self.prec + other.valuation(),
                   other.prec + self.valuation())
        out = {}
        for k1, p1 in self.terms.items():
            for k2, p2 in other.terms.items():
                k = k1 + k2
                if prec is not INF and k < -prec:
                    continue
                prod = _tmul(self.ctx, p1, p2)
                if prod:
                    cur = out.get(k)
                    out[k] = prod if cur is None else _tadd(self.ctx, cur, prod)
        return TateSeries(self.ctx, self.s, out, prec)

    def __pow__(self, n):
        result = TateSeries.one(self.ctx, self.s, INF)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def invert_unit(self):
        """Inverse of a series with a dominant t-free unit term."""
        if not self.terms:
            raise NotAUnit("the zero series has no inverse")
        kmax = max(self.terms)
        lead = self.terms[kmax]
        zero_exps = (0,) * self.s
        if set(lead) != {zero_exps}:
            raise NotAUnit("leading theta-coefficient must be a constant in t")
        c = lead[zero_exps]
        prec = self.prec + 2 * (-kmax) if self.prec is not INF else INF
        target = prec if prec is not INF else None
        if target is None:
            # exact inputs still need a truncation horizon to terminate
            raise NotAUnit("cannot invert an exact series without a precision; truncate first")
        cinv = self.ctx.inv[c]
        # g = 1 - f / (c theta^kmax), valuation >= 1
        scaled = {}
        for k, poly in self.terms.items():
            if k == kmax:
                rest = {e: v for e, v in poly.items() if e != zero_exps}
                if rest:
                    scaled[k - kmax] = {e: self.ctx.mul[cinv][v] for e, v in rest.items()}
            else:
                scaled[k - kmax] = {e: self.ctx.mul[cinv][v] for e, v in poly.items()}
        g = -TateSeries(self.ctx, self.s, scaled, prec)
        acc = TateSeries.one(self.ctx, self.s, prec)
        power = TateSeries.one(self.ctx, self.s, prec)
        while True:
            power = power * g
            power = TateSeries(self.ctx, self.s, power.terms, prec)
            if power.is_zero_to_precision() or power.valuation() > prec:
                break
            acc = acc + power
        inv_terms = {k - kmax: {e: self.ctx.mul[cinv][v] for e, v in poly.items()}
                     for k, poly in acc.terms.items()}
        return TateSeries(self.ctx, self.s, inv_terms, prec)

    def substitute_theta_power(self, i, m):
        """Exact substitution t_i := theta^m on the stored truncation;
        precision decreases by m times the largest t_i-degree present."""
        worst = 0
        out = {}
        for k, poly in self.terms.items():
            for e, c in poly.items():
                deg_i = e[i - 1]
                worst = max(worst, deg_i)
                nk = k + m * deg_i
                ne = e[:i - 1] + (0,) + e[i:]
                cur = out.setdefault(nk, {})
                v = self.ctx.add[cur.get(ne, 0)][c]
                if v:
                    cur[ne] = v
                elif ne in cur:
                    del cur[ne]
        prec = self.prec - m * worst if self.prec is not INF else INF
        return TateSeries(self.ctx, self.s,
                          {k: poly for k, poly in out.items() if poly}, prec)

    def __eq__(self, other):
        return (isinstance(other, TateSeries) and self.ctx == other.ctx
                and self.s == other.s and self.prec == other.prec
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return f"O(θ^-{self.prec})" if self.prec is not INF else "0"
        pieces = []
        for k in sorted(self.terms, reverse=True):
            poly = self.terms[k]
            mono = []
            for e in sorted(poly):
                c = poly[e]
                tpart = "*".join(f"t{i+1}" + (f"^{x}" if x > 1 else "")
                                 for i, x in enumerate(e) if x)
                cs = str(c) if self.ctx.e == 1 else f"[{c}]"
                mono.append(f"{cs}*{tpart}" if tpart else cs)
            coeff = " + ".join(mono)
            if k == 0:
                pieces.append(f"({coeff})" if len(mono) > 1 else coeff)
            else:
                power = "θ" if k == 1 else f"θ^{k}"
                pieces.append(f"({coeff})*{power}" if (len(mono) > 1 or coeff != "1")
                              else power)
        body = " + ".join(pieces)
        if self.prec is not INF:
            body += f" + O(θ^-{self.prec + 1})"
        return body


# ---------------------------------------------------------------------------
# the period factors
# ---------------------------------------------------------------------------

def pi_factor(ctx, prec):
    """Root-free factor of the period: product of (1 - theta^(1-q^i))^(-1)
    over i >= 1 while q^i - 1 <= prec."""
    total = TateSeries.one(ctx, 0, prec)
    i = 1
    while ctx.q ** i - 1 <= prec:
        f = TateSeries.one(ctx, 0, prec) - TateSeries(
            ctx, 0, {1 - ctx.q ** i: {(): 1}}, prec)
        total = total * f.invert_unit()
        i += 1
    return total


def omega_factor(ctx, prec):
    """Root-free factor of the weight-one generating function: product of
    (1 - t_1 theta^(-q^i))^(-1) over i >= 0 while q^i <= prec.  The t^k
    coefficient has valuation >= k, so the truncation is self-limiting."""
    total = TateSeries.one(ctx, 1, prec)
    i = 0
    while ctx.q ** i <= prec:
        f = TateSeries.one(ctx, 1, prec) - TateSeries(
            ctx, 1, {-ctx.q ** i: {(1,): 1}}, prec)
        total = total * f.invert_unit()
        i += 1
    return total


# ---------------------------------------------------------------------------
# zeta series
# ---------------------------------------------------------------------------

def _series_power_sum(cache, d, n, sigma, prec, budget=None):
    """The degree-d order-n twisted power sum as a series to the given
    precision: exact closed forms embedded when available (degree
    characters excepted), otherwise a per-monic sum of inverted series."""
    key = ("series", d, n, sigma, prec)
    with cache._lock:
        hit = cache._psums.get(key)
    if hit is not None:
        return hit
    ctx = cache.ctx
    if not sigma.degs and closed_form(ctx.q, n, sigma):
        val = TateSeries.embed_tpoly(power_sum(cache, d, n, sigma, budget),
                                     prec, s=sigma.s)
    else:
        cache.check_budget(ctx.q ** d, budget)
        total = TateSeries.zero(ctx, sigma.s, prec)
        for a in enumerate_monics(ctx, d):
            inv_an = TateSeries.from_ratk(
                RatK(APoly.one(ctx), a ** n), prec, s=sigma.s)
            codes = sigma.eval_codes(list(a.coeffs))
            twist = TateSeries(ctx, sigma.s, {0: codes}, INF)
            total = total + twist * inv_an
        val = total
    with cache._lock:
        cache._psums[key] = val
    return val


def zeta_series(cache, data, prec, mode="strict", budget=None):
    """The zeta value of the matrix data, summed degree by degree until the
    tail is provably below the precision.

    Stops once the last two degree terms vanish to precision and the order
    bound n_1 * d exceeds the precision (every term of the degree-d sum
    has valuation at least n_1 * d); raises NonConvergent if valuations
    fail to increase across a three-term window.
    """
    ctx = cache.ctx
    if data.depth == 0:
        return TateSeries.one(ctx, data.s, prec)
    chains = ChainSums(
        lambda k, n, sigma: _series_power_sum(cache, k, n, sigma, prec, budget),
        TateSeries.zero(ctx, data.s, prec), cache.chain_memo(("series", prec)))
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
    data_sigma = _single_data(cache, sigma, 1)
    z = zeta_series(cache, data_sigma, work)
    theta_minus_t = (TateSeries.from_apoly(APoly.theta(ctx), s=1)
                     - TateSeries.variable(ctx, 1, 1)).truncate(work)
    lhs = z * theta_minus_t * omega_factor(ctx, work)
    rhs = (TateSeries.from_apoly(APoly.theta(ctx), s=0).truncate(work)
           * pi_factor(ctx, work)).lift_arity(1)
    main = valuation_identity_check(lhs.truncate(prec + 1), rhs.truncate(prec + 1),
                                    prec)
    # exact specializations of the truncated weight-one zeta sum
    from .mzv import partial_zeta
    theta = RatK.from_apoly(APoly.theta(ctx))
    depth = 4
    fd = partial_zeta(cache, depth, data_sigma)
    at_theta = fd.substitute(1, theta)
    at_zero = partial_zeta(cache, 3, data_sigma).substitute(
        1, RatK.from_apoly(cache.theta_q(1)))
    main["value_at_theta_is_one"] = at_theta == TPoly.one(ctx, 0)
    main["trivial_zero_vanishes"] = at_zero.is_zero()
    return main


def _single_data(cache, sigma, n):
    from .mzv import MatrixData
    return MatrixData(cache.ctx, [(sigma, n)])


def family_qk_check(cache, k, prec, budget=None):
    """zeta(q^k) zeta(q^k - 1) = zeta(2 q^k - 1) + zeta(q^k - 1, q^k)."""
    from .mzv import MatrixData
    ctx = cache.ctx
    q = ctx.q
    work = prec + 2
    za = zeta_series(cache, MatrixData.untwisted(ctx, (q ** k,)), work, budget=budget)
    zb = zeta_series(cache, MatrixData.untwisted(ctx, (q ** k - 1,)), work, budget=budget)
    zc = zeta_series(cache, MatrixData.untwisted(ctx, (2 * q ** k - 1,)), work, budget=budget)
    zd = zeta_series(cache, MatrixData.untwisted(ctx, (q ** k - 1, q ** k)), work, budget=budget)
    return valuation_identity_check((za * zb).truncate(prec + 1),
                                    (zc + zd).truncate(prec + 1), prec)


def thakur_weight_check(cache, m, prec, budget=None):
    """zeta(m, m(q-1)) = zeta(mq) / (theta - theta^q)^m for 1 <= m <= q-1."""
    from .mzv import MatrixData
    ctx = cache.ctx
    q = ctx.q
    work = prec + 2 * m * q + 2
    lhs = zeta_series(cache, MatrixData.untwisted(ctx, (m, m * (q - 1))), work,
                      budget=budget)
    zmq = zeta_series(cache, MatrixData.untwisted(ctx, (m * q,)), work, budget=budget)
    scale = TateSeries.from_ratk(
        RatK(APoly.one(ctx), (APoly.theta(ctx) - cache.theta_q(1)) ** m), work)
    return valuation_identity_check(lhs.truncate(prec + 1),
                                    (zmq * scale).truncate(prec + 1), prec)


def strange_shuffle_check(cache, h, k, prec, budget=None):
    """The two-parameter untwisted family obtained from the joint-product
    identity, for h, k >= 0 with h + k > 0:

      zeta(1)^(q^k) zeta(q^(k+h) - q^h - 1)
        = zeta(2 q^(k+h) - q^h - 1)
        + zeta(q^(k+h), q^(k+h) - q^h - 1) + zeta(q^(k+h) - q^h - 1, q^(k+h))
        - zeta(q^(k+h) - q^h, q^(k+h) - 1) - zeta(q^(k+h) - 1, q^(k+h) - q^h)
    """
    from .mzv import MatrixData
    ctx = cache.ctx
    q = ctx.q
    if h < 0 or k < 0 or h + k == 0:
        raise ValueError("need h, k >= 0 with h + k > 0")
    big = q ** (k + h)
    low = q ** h
    work = prec + 2
    z1 = zeta_series(cache, MatrixData.untwisted(ctx, (1,)), work, budget=budget)
    # the first factor carries the full q^(k+h) power: the identity follows
    # from the joint product by the two-variable specialization raised to
    # q^(k+h), and the h = 0 case is insensitive to the difference
    lhs = (z1 ** big) * zeta_series(
        cache, MatrixData.untwisted(ctx, (big - low - 1,)), work, budget=budget)
    rhs = zeta_series(cache, MatrixData.untwisted(ctx, (2 * big - low - 1,)), work,
                      budget=budget)
    for pair in ((big, big - low - 1), (big - low - 1, big)):
        rhs = rhs + zeta_series(cache, MatrixData.untwisted(ctx, pair), work,
                                budget=budget)
    for pair in ((big - low, big - 1), (big - 1, big - low)):
        rhs = rhs - zeta_series(cache, MatrixData.untwisted(ctx, pair), work,
                                budget=budget)
    return valuation_identity_check(lhs.truncate(prec + 1), rhs.truncate(prec + 1),
                                    prec)


def log_identity_check(cache, prec):
    """The weight-one zeta value equals the logarithm series at 1:
    sum over i of ell(i)^(-1)."""
    from .mzv import MatrixData
    ctx = cache.ctx
    z = zeta_series(cache, MatrixData.untwisted(ctx, (1,)), prec)
    log1 = TateSeries.zero(ctx, 0, prec)
    i = 0
    while True:
        term = TateSeries.from_ratk(RatK(APoly.one(ctx), cache.ell(i)), prec)
        if term.is_zero_to_precision() and i > 0:
            break
        log1 = log1 + term
        i += 1
    return valuation_identity_check(z, log1, prec - 1)
