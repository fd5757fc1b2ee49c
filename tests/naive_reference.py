"""Deliberately simple reference implementations used as test oracles.

Nothing here shares code with the package's arithmetic kernel: polynomials
are plain coefficient lists manipulated with schoolbook loops over the
field tables, and fractions are unnormalized pairs compared by cross
multiplication.  The field tables themselves are validated separately
against the field axioms, so this layer is an independent route to every
value it checks.

The exceptions are `frak_S_naive`, the package's former skew oracle,
`chain_weights_naive`, its former chain enumeration, and
`monic_sum_naive`, its former enumeration loop.  The first uses the
packed kernel for its cofactors, but computes the Carlitz action of every
monic (`carlitz_action`, schoolbook), so it checks the route through the
b-expansion and F_q-linearity that replaced it.  The second multiplies
`APoly` values, but sums over every descending chain with each ratio of
ell values an exact division, so it checks the suffix-sum recurrence and
the product-built ratios that replaced it.  The third evaluates the
callers' values and semi-characters at every monic, so it checks the
orbit representatives, orbit sizes and kept slots that replaced it.
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


def monic_sum_naive(cache, d, sigma, value, degrees, weight):
    """`powersums.monic_sum` without orbits: sigma(a) times value(a), added
    slot by slot through the field tables, for every monic a of degree d.
    Same signature; degrees only sets the length of each list, and weight
    is not used."""
    ctx = cache.ctx
    cache.check_budget(ctx.q ** d)
    out = {}
    for a in monics(ctx, d):
        v = value(a)
        for exps, code in sigma.eval_codes(a).items():
            acc = out.setdefault(exps, [0] * len(degrees))
            for j, x in enumerate(v):
                acc[j] = ctx.add[acc[j]][ctx.mul[code][x]]
    return out


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


# ---------------------------------------------------------------------------
# the Carlitz action, and the skew power sums by the action of each monic
# ---------------------------------------------------------------------------

def nfrobenius(ctx, f):
    """f^q for f in A: the F_q-coefficients are fixed, theta^j -> theta^(qj)."""
    out = [0] * (ctx.q * (len(f) - 1) + 1) if f else []
    for j, c in enumerate(f):
        out[ctx.q * j] = c
    return out


def carlitz_action(ctx, a):
    """The coefficients of C_a (code lists, by increasing tau-power) for a
    in A: C_a = sum_k a_k C_(theta^k), where C_theta = theta + tau and
    tau c = c^q tau give [C_(theta f)]_i = theta [C_f]_i + [C_f]_(i-1)^q."""
    out, power = [], [[1]]
    for k, ak in enumerate(a):
        if k:
            power = [nadd(ctx, [0] + c, nfrobenius(ctx, prev))
                     for c, prev in zip(power + [[]], [[]] + power)]
        out = [nadd(ctx, x, nmul(ctx, [ak], c))
               for x, c in itertools.zip_longest(out, power, fillvalue=[])]
    return out


def b_poly(ctx, j):
    """b_j(t) = (t - theta)(t - theta^q)...(t - theta^(q^(j-1))), as a list
    by t-power of code lists in theta."""
    out = [[1]]
    for m in range(j):
        root = nneg(ctx, [0] * ctx.q ** m + [1])
        out = [nadd(ctx, lo, nmul(ctx, root, hi))
               for lo, hi in zip([[]] + out, out + [[]])]
    return out


def _smul(ctx, x, y):
    """The product of theta-polynomials kept as {exponent: code} dicts."""
    out = {}
    for i, a in x.items():
        for j, b in y.items():
            out[i + j] = ctx.add[out.get(i + j, 0)][ctx.mul[a][b]]
    return {k: c for k, c in out.items() if c}


def _sadd(ctx, x, y):
    out = dict(x)
    for k, c in y.items():
        out[k] = ctx.add[out.get(k, 0)][c]
    return {k: c for k, c in out.items() if c}


def _dense(x):
    """A {exponent: code} dict as a trimmed code list."""
    out = [0] * (max(x) + 1 if x else 0)
    for k, c in x.items():
        out[k] = c
    return out


def _sroots(ctx, exps):
    """prod (t - theta^r) over r in exps, as a list by t-power of
    {exponent: code} dicts."""
    out = [{0: 1}]
    for r in exps:
        root = {r: ctx.neg[1]}
        out = [_sadd(ctx, lo, _smul(ctx, root, hi))
               for lo, hi in zip([{}] + out, out + [{}])]
    return out


def f3_three_products(ctx, d):
    """S_d(2; chi_t1 chi_t2) as written before its symmetric rewrite, over
    ell(d)^2: b_d(t_1) b_d(t_2) + (theta - theta^(q^d)) (b_d(t_1)
    tb_(d-1)(t_2) + tb_(d-1)(t_1) b_d(t_2)), three tensor products of
    sparse coefficient dicts.  Returns ({(a, b): code list}, den code list)."""
    q = ctx.q
    b = _sroots(ctx, [q ** j for j in range(d)])
    tb = _sroots(ctx, [q ** j for j in range(1, d)])
    gap = _sadd(ctx, {1: 1}, {q ** d: ctx.neg[1]})
    num = {}
    for (x, y, g) in ((b, b, {0: 1}), (b, tb, gap), (tb, b, gap)):
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                num[i, j] = _sadd(ctx, num.get((i, j), {}), _smul(ctx, g, _smul(ctx, xi, yj)))
    ell = {0: 1}
    for i in range(1, d + 1):
        ell = _smul(ctx, ell, _sadd(ctx, {1: 1}, {q ** i: ctx.neg[1]}))
    return ({e: _dense(c) for e, c in num.items() if c}, _dense(_smul(ctx, ell, ell)))


def b_combination_naive(ctx, weights):
    """The sum of w_i b_i(t) for code lists w_i, each b_i built by `b_poly`
    and each term a schoolbook product: a list by t-power of code lists."""
    out = []
    for i, w in enumerate(weights):
        for k, c in enumerate(b_poly(ctx, i)):
            if k == len(out):
                out.append([])
            out[k] = nadd(ctx, out[k], nmul(ctx, w, c))
    return out


def chain_weights_naive(cache, n, d):
    """Entry i is the sum over all chains d >= i_1 >= ... >= i_n = i of
    R(i_1)^(q^(n-1)-q^(n-2)) ... R(i_(n-1))^(q-1) * R(i), where R(j) =
    ell(d) / ell(j) by exact division: one product per chain link, APoly
    values."""
    from carlitz.poly import APoly
    ctx = cache.ctx
    q = ctx.q
    exps = [q ** (n - m) - q ** (n - m - 1) for m in range(1, n)] + [1]
    powers = {(i, e): (cache.ell(d) / cache.ell(i)) ** e
              for i in range(d + 1) for e in set(exps)}
    weights = [APoly.zero(ctx)] * (d + 1)
    for combo in itertools.combinations_with_replacement(range(d + 1), n):
        chain = combo[::-1]                    # d >= i_1 >= ... >= i_n
        mult = APoly.one(ctx)
        for i, e in zip(chain, exps):
            mult = mult * powers[i, e]
        weights[chain[-1]] = weights[chain[-1]] + mult
    return weights


def frak_S_naive(cache, d, n):
    """Sum of a^(-q^n) C_a over monic a of degree d, by enumeration, as a
    SkewPoly, accumulated over the lcm denominator (`monic_lcm`)."""
    from carlitz import _packed as kern
    from carlitz.poly import APoly, RatK
    from carlitz.skew import SkewPoly
    ctx = cache.ctx
    qn = ctx.q ** n
    cache.check_budget(ctx.q ** d)
    den_poly = APoly._make(ctx, monic_lcm(ctx, d)) ** qn
    den = list(den_poly.coeffs)
    acc = [0] * (d + 1)
    acc_len = [0] * (d + 1)  # the numerators need not be proper fractions
    # a slot of one product sums at most len(cofactor) digit products
    every = kern.reduce_interval(ctx, len(den) - d * qn, ctx.q ** d)
    for i, a in enumerate(monics(ctx, d), 1):
        cof_coeffs = kern.kexactdiv(ctx, den, kern.kpow(ctx, a, qn))
        cof = kern.pack(ctx, cof_coeffs)
        for j, num in enumerate(carlitz_action(ctx, a)):
            if num:
                acc[j] += kern.pack(ctx, num) * cof
                acc_len[j] = max(acc_len[j], len(num) + len(cof_coeffs) - 1)
        if every and i % every == 0:
            acc = [kern.pack(ctx, kern.unpack(ctx, v, m))
                   for v, m in zip(acc, acc_len)]
    return SkewPoly(ctx, [RatK(APoly._make(ctx, kern.trim(kern.unpack(ctx, v, m))),
                               den_poly) if v else RatK.zero(ctx)
                          for v, m in zip(acc, acc_len)])
