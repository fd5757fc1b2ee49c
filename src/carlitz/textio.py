"""Textual grammars: printing and parsing of the package's values.

Printed forms round-trip through the parsers in this module, which share
one grammar of sums of products (`_parse_sum`):

  F_q        2 | [2*x + 1]        (an integer mod p; for e > 1 a polynomial in x)
  APoly      2*θ^3 + θ + 1        (coefficients of F_{p^e} bracketed, e.g. [x+1]*θ^2)
  RatK       (θ + 1)/(θ^3 + 2*θ)  (bare numerator when the denominator is 1)
  TPoly      (1/(θ^3+2*θ))*t1^2*t2 + ...   variables t1, t2, ...
  SkewPoly   (θ + 1)*τ^2 + θ*τ + 1
  SemiChar   1 | t1*t2 | nu1 | c(2) | c(x+1)   factors joined by *
  MatrixData t1:1,1:1   columns semichar:weight joined by commas
  TateSeries θ^-2 + (2*t1)*θ^-3 + O(θ^-7)   (printed only)

The ASCII spellings "theta" and "tau" are accepted on input everywhere the
Greek letters are printed.
"""

from .errors import BadIndex, GrammarError, WeightZero
from .ffield import FqElem
from .poly import APoly, RatK

THETA = "θ"
TAU = "τ"


# ---------------------------------------------------------------------------
# the one grammar of sums of products
# ---------------------------------------------------------------------------

def _parse_int(text, at, what, low=None, error=GrammarError):
    """An integer of the grammar, at least low when low is given."""
    try:
        n = int(text)
    except ValueError:
        raise error(f"bad {what} {text.strip()!r}", at) from None
    if low is not None and n < low:
        raise error(f"{what} must be >= {low}, got {n}", at)
    return n


def _power(name, factor, at, slot=0):
    """(slot, k) for a factor `name` or `name^k`; None for any other factor."""
    if not factor.startswith(name):
        return None
    rest = factor[len(name):].strip()
    if not rest:
        return slot, 1
    if not rest.startswith("^"):
        raise GrammarError(f"bad term {factor!r}", at)
    return slot, _parse_int(rest[1:], at, "exponent", 0)


def _split_top(text, sep, openers="([", closers=")]"):
    """Split on sep at bracket depth zero, keeping offsets."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in openers:
            depth += 1
        elif ch in closers:
            depth -= 1
            if depth < 0:
                raise GrammarError("unbalanced brackets", i)
        elif ch == sep and depth == 0:
            parts.append((text[start:i], start))
            start = i + 1
    if depth != 0:
        raise GrammarError("unbalanced brackets", len(text))
    parts.append((text[start:], start))
    return parts


def _parse_sum(text, offset, what, var, coef, one, nvars=1):
    """Parse `term ("+" term)*` with term `factor ("*" factor)*`.

    var(factor, at) gives (slot, exponent) for a variable factor and None
    for a coefficient factor, which coef(factor, at) parses.  Returns
    {exponent tuple: coefficient}, the coefficients of equal exponents
    summed; one is the empty product of coefficients.
    """
    src = text.strip().replace("theta", THETA).replace("tau", TAU)
    if not src:
        raise GrammarError(f"empty {what}", offset)
    out = {}
    for term, pos in _split_top(src, "+"):
        if not term.strip():
            raise GrammarError("empty term", offset + pos)
        exps, c = [0] * nvars, one
        for factor, fpos in _split_top(term, "*"):
            factor, at = factor.strip(), offset + pos + fpos
            if not factor:
                raise GrammarError("empty factor", at)
            v = var(factor, at)
            if v is None:
                c = c * coef(factor, at)
            else:
                exps[v[0]] += v[1]
        exps = tuple(exps)
        out[exps] = out[exps] + c if exps in out else c
    return out


def _format_term(coef, var):
    """`coef*var` for a RatK coefficient: the bare coefficient when var is
    empty, var alone when coef is 1, a compound coef in parentheses."""
    cs = format_ratk(coef)
    if not var:
        return cs
    if cs == "1":
        return var
    if "/" in cs or "+" in cs or "*" in cs:
        cs = f"({cs})"
    return f"{cs}*{var}"


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

def _format_dense(coeffs, var, fmt):
    """c_n*var^n + ... + c_0 over the nonzero codes c_i, each printed by
    fmt; a unit coefficient prints as 1, and before a power of var not at all."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        cs = "1" if c == 1 else fmt(c)
        if i == 0:
            terms.append(cs)
        else:
            power = var if i == 1 else f"{var}^{i}"
            terms.append(power if c == 1 else f"{cs}*{power}")
    return " + ".join(terms) if terms else "0"


def format_fq(ctx, code):
    if ctx.e == 1:
        return str(code)
    return f"[{_format_dense(ctx.digits[code], 'x', str)}]"


def parse_fq(ctx, text, offset=0):
    """An element of F_q: an integer mod p, or for e > 1 a polynomial in x
    of degree below e, optionally in brackets."""
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    terms = _parse_sum(text, offset, "field element",
                       lambda f, at: _power("x", f, at),
                       lambda f, at: _parse_int(f, at, "coefficient"), 1)
    coords = [0] * ctx.e
    for (k,), c in terms.items():
        if k >= ctx.e:
            raise GrammarError(f"x^{k} exceeds the field degree", offset)
        coords[k] += c
    return ctx.element(coords).code


# ---------------------------------------------------------------------------
# APoly and RatK
# ---------------------------------------------------------------------------

def format_apoly(a):
    return _format_dense(a.coeffs, THETA, lambda c: format_fq(a.ctx, c))


def parse_apoly(ctx, text, offset=0):
    terms = _parse_sum(text, offset, "polynomial",
                       lambda f, at: _power(THETA, f, at),
                       lambda f, at: FqElem(ctx, parse_fq(ctx, f, at)),
                       FqElem(ctx, 1))
    top = max(k for (k,) in terms)
    return APoly(ctx, [terms.get((i,), 0) for i in range(top + 1)])


def format_ratk(x):
    num = format_apoly(x.num)
    if x.den.degree == 0:
        return num
    nstr = num if len(x.num.coeffs) == 1 else f"({num})"
    return f"{nstr}/({format_apoly(x.den)})"


def parse_ratk(ctx, text, offset=0):
    src = text.strip()
    parts = _split_top(src, "/")
    if len(parts) == 1:
        return RatK.from_apoly(parse_apoly(ctx, _strip_parens(src), offset))
    if len(parts) != 2:
        raise GrammarError("too many '/' in fraction", offset)
    (ns, npos), (ds, dpos) = parts
    num = parse_apoly(ctx, _strip_parens(ns), offset + npos)
    den = parse_apoly(ctx, _strip_parens(ds), offset + dpos)
    return RatK(num, den)


def _strip_parens(s):
    s = s.strip()
    while s.startswith("(") and s.endswith(")"):
        depth = 0
        ok = True
        for i, ch in enumerate(s):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(s) - 1:
                    ok = False
                    break
        if not ok:
            break
        s = s[1:-1].strip()
    return s


def _ratk_factor(ctx):
    return lambda f, at: parse_ratk(ctx, _strip_parens(f), at)


# ---------------------------------------------------------------------------
# TPoly, SkewPoly and TateSeries
# ---------------------------------------------------------------------------

def _format_monomial(exps):
    pieces = []
    for i, e in enumerate(exps, start=1):
        if e == 1:
            pieces.append(f"t{i}")
        elif e > 1:
            pieces.append(f"t{i}^{e}")
    return "*".join(pieces)


def format_tpoly(tp):
    terms = [_format_term(coef, _format_monomial(exps))
             for exps, coef in tp.iter_terms()]
    return " + ".join(terms) if terms else "0"


def parse_tpoly(ctx, s, text, offset=0):
    from .tpoly import TPoly

    def var(factor, at):
        if factor[:1] != "t" or not factor[1:2].isdigit():
            return None
        head = factor.partition("^")[0].strip()
        idx = _parse_int(head[1:], at, "variable index", 1, BadIndex)
        if idx > s:
            raise BadIndex(f"variable t{idx} outside arity {s}", at)
        return _power(head, factor, at, idx - 1)
    return TPoly(ctx, s, _parse_sum(text, offset, "polynomial", var,
                                    _ratk_factor(ctx), RatK.one(ctx), s))


def format_skew(f):
    terms = [_format_term(c, "" if i == 0 else TAU if i == 1 else f"{TAU}^{i}")
             for i, c in reversed(list(enumerate(f.coeffs))) if not c.is_zero()]
    return " + ".join(terms) if terms else "0"


def parse_skew(ctx, text, offset=0):
    from .skew import SkewPoly
    terms = _parse_sum(text, offset, "skew polynomial",
                       lambda f, at: _power(TAU, f, at),
                       _ratk_factor(ctx), RatK.one(ctx))
    top = max(k for (k,) in terms)
    return SkewPoly(ctx, [terms.get((i,), RatK.zero(ctx)) for i in range(top + 1)])


def format_series(x):
    """A Tate series: theta-powers in decreasing order, each with its
    polynomial in the t-variables, then the O-term of the precision."""
    from .tate import INF
    pieces = []
    for k, poly in sorted(x.terms.items(), reverse=True):
        mono = []
        for e in sorted(poly):
            cs, tpart = format_fq(x.ctx, poly[e]), _format_monomial(e)
            mono.append(f"{cs}*{tpart}" if tpart else cs)
        coeff = " + ".join(mono)
        if k == 0:
            pieces.append(f"({coeff})" if len(mono) > 1 else coeff)
        else:
            power = THETA if k == 1 else f"{THETA}^{k}"
            pieces.append(power if coeff == "1" else f"({coeff})*{power}")
    if x.prec != INF:
        pieces.append(f"O({THETA}^-{x.prec + 1})")
    return " + ".join(pieces) if pieces else "0"


# ---------------------------------------------------------------------------
# SemiChar and MatrixData
# ---------------------------------------------------------------------------

def format_semichar(sc):
    pieces = []
    for i in sc.vars:
        pieces.append(f"t{i}")
    for i in sc.degs:
        pieces.append(f"nu{i}")
    for c in sc.consts:
        pieces.append(f"c({format_fq(sc.ctx, c)})")
    return "*".join(pieces) if pieces else "1"


def parse_semichar(ctx, text, s=None, offset=0):
    """Parse `1 | factor (* factor)*` with factor t<i> | nu<i> | c(<elem>)."""
    from .powersums import SemiChar
    src = text.strip()
    if not src:
        raise GrammarError("empty semi-character", offset)
    varis, degs, consts = [], [], []
    if src != "1":
        for factor, fpos in _split_top(src, "*", openers="(", closers=")"):
            factor, at = factor.strip(), offset + fpos
            if not factor:
                raise GrammarError("empty factor", at)
            if factor == "1":
                continue
            if factor.startswith("c(") and factor.endswith(")"):
                consts.append(parse_fq(ctx, factor[2:-1], at + 2))
            elif factor.startswith("nu"):
                degs.append(_parse_int(factor[2:], at, "variable index", 1, BadIndex))
            elif factor.startswith("t"):
                varis.append(_parse_int(factor[1:], at, "variable index", 1, BadIndex))
            else:
                raise GrammarError(f"unknown factor {factor!r}", at)
    max_index = max(varis + degs, default=0)
    arity = max_index if s is None else s
    if max_index > arity:
        raise BadIndex(f"variable index {max_index} exceeds arity {arity}", offset)
    return SemiChar(ctx, arity, varis=varis, degs=degs, consts=consts)


def format_matrix_data(md):
    return ",".join(f"{format_semichar(sc)}:{n}" for sc, n in md.columns)


def parse_matrix_data(ctx, text, s=None):
    """Parse `column ("," column)*` with column `semichar ":" weight`; the
    arity is s, or else the largest variable index of any column."""
    from .mzv import MatrixData
    src = text.strip()
    if not src:
        raise GrammarError("empty matrix data", 0)
    columns = []
    for col, pos in _split_top(src, ",", openers="(", closers=")"):
        col = col.strip()
        if not col:
            raise GrammarError("empty column", pos)
        head, sep, ns = col.rpartition(":")
        if not sep:
            raise GrammarError(f"column {col!r} lacks ':weight'", pos)
        n = _parse_int(ns, pos, "weight")
        if n < 1:
            raise WeightZero(f"weight must be >= 1, got {n}", pos)
        columns.append((parse_semichar(ctx, head, s=s, offset=pos), n))
    return MatrixData(ctx, columns, s=s)
