"""Deliberately simple reference implementations used as test oracles.

Nothing here shares code with the package's arithmetic kernel: polynomials
are plain coefficient lists manipulated with schoolbook loops over the
field tables, and fractions are unnormalized pairs compared by cross
multiplication.  The field tables themselves are validated separately
against the field axioms, so this layer is an independent route to every
value it checks.

The one exception is `frak_S_naive`, the package's former skew oracle: it
uses the packed kernel, but computes the Carlitz action of every monic,
so it checks the route through eta and F_q-linearity that replaced it.
"""

import itertools


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def nmul(ctx, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = ctx.add[out[i + j]][ctx.mul[ai][bj]]
    return trim(out)


def nadd(ctx, a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = ctx.add[out[i]][c]
    return trim(out)


def nneg(ctx, a):
    return [ctx.neg[c] for c in a]


def nsub(ctx, a, b):
    return nadd(ctx, a, nneg(ctx, b))


def ndivmod(ctx, a, b):
    r = list(a)
    db = len(b) - 1
    inv_lead = ctx.inv[b[-1]]
    quo = [0] * max(0, len(a) - db)
    while r and len(r) - 1 >= db:
        c = ctx.mul[r[-1]][inv_lead]
        shift = len(r) - 1 - db
        quo[shift] = c
        for j, bj in enumerate(b):
            if bj:
                r[shift + j] = ctx.add[r[shift + j]][ctx.neg[ctx.mul[c][bj]]]
        trim(r)
    return trim(quo), r


def ngcd(ctx, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, ndivmod(ctx, a, b)[1]
    if a and a[-1] != 1:
        inv = ctx.inv[a[-1]]
        a = [ctx.mul[inv][c] for c in a]
    return a


def npow(ctx, a, n):
    out = [1]
    for _ in range(n):
        out = nmul(ctx, out, a)
    return out


class NFrac:
    """Unnormalized fraction of coefficient lists; equality by cross
    multiplication."""

    def __init__(self, ctx, num, den=(1,)):
        self.ctx = ctx
        self.num = trim(list(num))
        self.den = list(den)

    def __add__(self, other):
        ctx = self.ctx
        num = nadd(ctx, nmul(ctx, self.num, other.den),
                   nmul(ctx, other.num, self.den))
        return NFrac(ctx, num, nmul(ctx, self.den, other.den))

    def __mul__(self, other):
        return NFrac(self.ctx, nmul(self.ctx, self.num, other.num),
                     nmul(self.ctx, self.den, other.den))

    def __eq__(self, other):
        return nmul(self.ctx, self.num, other.den) == \
            nmul(self.ctx, other.num, self.den)

    def matches_ratk(self, x):
        """Cross-multiplied comparison against a package fraction."""
        return nmul(self.ctx, self.num, list(x.den.coeffs)) == \
            nmul(self.ctx, list(x.num.coeffs), self.den)


def monics(ctx, d):
    """All monic coefficient lists of degree d, lexicographic tails."""
    if d == 0:
        yield [1]
        return
    for tail in itertools.product(range(ctx.q), repeat=d):
        yield list(tail) + [1]


def monic_lcm(ctx, d):
    """The lcm of the monic polynomials of degree d, by definition: one gcd
    against each monic in turn."""
    out = [1]
    for a in monics(ctx, d):
        out = nmul(ctx, out, ndivmod(ctx, a, ngcd(ctx, out, a))[0])
    return out


def naive_power_sum(ctx, d, k, sigma_codes):
    """dict t-exponents -> NFrac for the order-k degree-d twisted sum;
    sigma_codes maps a monic coefficient list to {exps: element code}."""
    total = {}
    for a in monics(ctx, d):
        if k >= 0:
            frac = NFrac(ctx, [1], npow(ctx, a, k))
        else:
            frac = NFrac(ctx, npow(ctx, a, -k))
        for exps, code in sigma_codes(a).items():
            term = NFrac(ctx, [code]) * frac
            total[exps] = total.get(exps, NFrac(ctx, [])) + term
    return {e: f for e, f in total.items() if f.num}


# ---------------------------------------------------------------------------
# truncated Tate series as dicts of dicts (the oracle for carlitz.tate)
# ---------------------------------------------------------------------------

INF = float("inf")


def _tadd(ctx, a, b):
    out = dict(a)
    for e, c in b.items():
        v = ctx.add[out.get(e, 0)][c]
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _tmul(ctx, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = ctx.add[out.get(e, 0)][ctx.mul[c1][c2]]
    return {e: c for e, c in out.items() if c}


class NSeries:
    """A truncated Tate series as {theta-exponent: {t-exponents: code}},
    known for exponents >= -prec: products term by term, 1/theta-expansions
    by schoolbook long division, inverses by the geometric series."""

    def __init__(self, ctx, s, terms, prec):
        self.ctx, self.s, self.prec = ctx, s, prec
        terms = {k: {e: c for e, c in poly.items() if c}
                 for k, poly in terms.items() if k >= -prec}
        self.terms = {k: poly for k, poly in terms.items() if poly}

    @classmethod
    def one(cls, ctx, s, prec=INF):
        return cls(ctx, s, {0: {(0,) * s: 1}}, prec)

    @classmethod
    def from_ratk(cls, x, prec, s=0):
        ctx = x.ctx
        num, den = list(x.num.coeffs), list(x.den.coeffs)
        if not num:
            return cls(ctx, s, {}, prec)
        D = len(den) - 1
        lead_inv = ctx.inv[den[-1]]
        m_max = prec + len(num) - 1 - D       # the lowest exponent needed is -prec
        inv_seq = [lead_inv]                  # 1/den = sum of inv_m theta^(-D-m)
        for m in range(1, m_max + 1):
            acc = 0
            for j in range(1, min(m, D) + 1):
                acc = ctx.add[acc][ctx.mul[den[D - j]][inv_seq[m - j]]]
            inv_seq.append(ctx.mul[ctx.neg[acc]][lead_inv])
        terms = {}
        for i, ni in enumerate(num):
            for m, em in enumerate(inv_seq):
                k = i - D - m
                terms[k] = _tadd(ctx, terms.get(k, {}), {(0,) * s: ctx.mul[ni][em]})
        return cls(ctx, s, terms, prec)

    def valuation(self):
        return -max(self.terms) if self.terms else INF

    def __add__(self, other):
        out = dict(self.terms)
        for k, poly in other.terms.items():
            out[k] = _tadd(self.ctx, out.get(k, {}), poly)
        return NSeries(self.ctx, self.s, out, min(self.prec, other.prec))

    def __neg__(self):
        return NSeries(self.ctx, self.s,
                       {k: {e: self.ctx.neg[c] for e, c in poly.items()}
                        for k, poly in self.terms.items()}, self.prec)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        prec = min(self.prec + other.valuation(), other.prec + self.valuation())
        out = {}
        for k1, p1 in self.terms.items():
            for k2, p2 in other.terms.items():
                if k1 + k2 >= -prec:
                    out[k1 + k2] = _tadd(self.ctx, out.get(k1 + k2, {}),
                                         _tmul(self.ctx, p1, p2))
        return NSeries(self.ctx, self.s, out, prec)

    def __pow__(self, n):
        out = NSeries.one(self.ctx, self.s)
        for _ in range(n):
            out = out * self
        return out

    def invert_unit(self):
        """c theta^k (1 - g) with g of valuation >= 1 has the inverse
        theta^(-k) c^(-1) (1 + g + g^2 + ...), known to the same relative
        precision prec + k."""
        ctx, s = self.ctx, self.s
        k = max(self.terms)
        cinv = ctx.inv[self.terms[k][(0,) * s]]
        rel = self.prec + k
        one = NSeries.one(ctx, s, rel)
        g = one - NSeries(ctx, s, {j - k: {e: ctx.mul[cinv][c] for e, c in poly.items()}
                                   for j, poly in self.terms.items()}, rel)
        acc, power = one, one
        while power.terms:
            power = NSeries(ctx, s, (power * g).terms, rel)
            acc = acc + power
        return NSeries(ctx, s, {j - k: {e: ctx.mul[cinv][c] for e, c in poly.items()}
                                for j, poly in acc.terms.items()}, self.prec + 2 * k)

    def substitute_theta_power(self, i, m):
        out, worst = {}, 0
        for k, poly in self.terms.items():
            for e, c in poly.items():
                worst = max(worst, e[i - 1])
                nk = k + m * e[i - 1]
                out[nk] = _tadd(self.ctx, out.get(nk, {}), {e[:i - 1] + (0,) + e[i:]: c})
        return NSeries(self.ctx, self.s, out, self.prec - m * worst)


# ---------------------------------------------------------------------------
# the skew power sums by the Carlitz action of each monic
# ---------------------------------------------------------------------------

def frak_S_naive(cache, d, n):
    """Sum of a^(-q^n) C_a over monic a of degree d, by enumeration,
    accumulated over the lcm denominator (`monic_lcm`)."""
    from carlitz import _packed as kern
    from carlitz.poly import APoly, RatK, enumerate_monics
    from carlitz.skew import SkewPoly, carlitz_action
    ctx = cache.ctx
    qn = ctx.q ** n
    cache.check_budget(ctx.q ** d)
    den_poly = APoly._make(ctx, monic_lcm(ctx, d)) ** qn
    den = list(den_poly.coeffs)
    acc = [0] * (d + 1)
    acc_len = [0] * (d + 1)  # the numerators need not be proper fractions
    # a slot of one product sums at most len(cofactor) digit products
    every = kern.reduce_interval(ctx, len(den) - d * qn, ctx.q ** d)
    for i, a in enumerate(enumerate_monics(ctx, d), 1):
        ca = carlitz_action(cache, a)
        apow = kern.kpow(ctx, list(a.coeffs), qn)
        cof_coeffs = kern.kexactdiv(ctx, den, apow)
        cof = kern.pack(ctx, cof_coeffs)
        for j, coeff in enumerate(ca.coeffs):
            num = coeff.as_apoly()  # Carlitz coefficients lie in A
            if num.is_zero():
                continue
            acc[j] += kern.pack(ctx, list(num.coeffs)) * cof
            acc_len[j] = max(acc_len[j], len(num.coeffs) + len(cof_coeffs) - 1)
        if every and i % every == 0:
            acc = [kern.pack(ctx, kern.unpack(ctx, v, m))
                   for v, m in zip(acc, acc_len)]
    out = []
    for j in range(d + 1):
        if acc[j]:
            num = kern.trim(kern.unpack(ctx, acc[j], acc_len[j]))
            out.append(RatK(APoly._make(ctx, num), den_poly))
        else:
            out.append(RatK.zero(ctx))
    return SkewPoly(ctx, out)
