"""Textual forms of the package's values.  Every value prints; only the
matrix data that the command line reads (`--data`) parses, through
`parse_matrix_data`, `parse_semichar` and `parse_fq`:

  F_q        2 | [2*x + 1]        (an integer mod p; for e > 1 a polynomial in x)
  APoly      2*θ^3 + θ + 1        (coefficients of F_{p^e} bracketed, e.g. [x + 1]*θ^2)
  RatK       (θ + 1)/(θ^3 + 2*θ)  (bare numerator when the denominator is 1)
  TPoly      (1/(θ^3 + 2*θ))*t1^2*t2 + ...   variables t1, t2, ...
  SkewPoly   (θ + 1)*τ^2 + θ*τ + 1
  TateSeries θ^-2 + (2*t1)*θ^-3 + O(θ^-7)
  SemiChar   1 | t1*t2 | nu1 | c(2) | c(x + 1)   factors joined by *
  MatrixData t1:1,1:1   columns semichar:weight joined by commas

An F_q constant inside c(...) is `term ("+" term)*`, each term a `*`
product of integers and x or x^k.  A GrammarError's position is the
first character of the offending token.
"""

from itertools import compress

from .errors import BadIndex, GrammarError, WeightZero

THETA = "θ"
TAU = "τ"


# ---------------------------------------------------------------------------
# tokens
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


def _strip(text, at):
    """text without its surrounding blanks, and the position of its first
    character when text itself starts at position at."""
    body = text.lstrip()
    return body.rstrip(), at + len(text) - len(body)


def _split_top(text, sep, at=0, openers="([", closers=")]"):
    """Split on sep at bracket depth zero into (part, position) pairs, when
    text itself starts at position at."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in openers:
            depth += 1
        elif ch in closers:
            depth -= 1
            if depth < 0:
                raise GrammarError("unbalanced brackets", at + i)
        elif ch == sep and depth == 0:
            parts.append((text[start:i], at + start))
            start = i + 1
    if depth != 0:
        raise GrammarError("unbalanced brackets", at + len(text))
    parts.append((text[start:], at + start))
    return parts


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

def _format_dense(coeffs, var, fmt):
    """c_n*var^n + ... + c_0 over the nonzero codes c_i, each distinct code
    printed once by fmt; a unit coefficient prints as 1, and before a power
    of var not at all."""
    text = {c: "" if c == 1 else f"{fmt(c)}*" for c in set(coeffs) if c}
    terms = [f"{text[coeffs[i]]}{var}^{i}"
             for i in compress(range(len(coeffs) - 1, 1, -1), reversed(coeffs[2:]))]
    if len(coeffs) > 1 and coeffs[1]:
        terms.append(text[coeffs[1]] + var)
    if coeffs and coeffs[0]:
        terms.append(text[coeffs[0]][:-1] or "1")
    return " + ".join(terms) or "0"


def format_fq(ctx, code):
    if ctx.e == 1:
        return str(code)
    return f"[{_format_dense(ctx.digits[code], 'x', str)}]"


def parse_fq(ctx, text, offset=0):
    """An element of F_q: an integer mod p, or for e > 1 a polynomial in x
    of degree below e, optionally in brackets."""
    text, offset = _strip(text, offset)
    if text.startswith("[") and text.endswith("]"):
        text, offset = _strip(text[1:-1], offset + 1)
    if not text:
        raise GrammarError("empty field element", offset)
    coords = [0] * ctx.e
    for term, pos in _split_top(text, "+", offset):
        term, at = _strip(term, pos)
        if not term:
            raise GrammarError("empty term", at)
        c, k = 1, 0
        for factor, fpos in _split_top(term, "*", at):
            factor, fat = _strip(factor, fpos)
            if not factor:
                raise GrammarError("empty factor", fat)
            if not factor.startswith("x"):
                c *= _parse_int(factor, fat, "coefficient")
                continue
            rest = factor[1:].strip()
            if rest and not rest.startswith("^"):
                raise GrammarError(f"bad term {factor!r}", fat)
            k += _parse_int(rest[1:], fat, "exponent", 0) if rest else 1
        if k >= ctx.e:
            raise GrammarError(f"x^{k} exceeds the field degree", at)
        coords[k] += c
    return ctx.element(coords).code


# ---------------------------------------------------------------------------
# APoly, RatK, TPoly, SkewPoly and TateSeries: printed only
# ---------------------------------------------------------------------------

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


def format_apoly(a):
    return _format_dense(a.coeffs, THETA, lambda c: format_fq(a.ctx, c))


def format_ratk(x):
    num = format_apoly(x.num)
    if x.den.degree == 0:
        return num
    nstr = num if len(x.num.coeffs) == 1 else f"({num})"
    return f"{nstr}/({format_apoly(x.den)})"


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


def format_skew(f):
    terms = [_format_term(c, "" if i == 0 else TAU if i == 1 else f"{TAU}^{i}")
             for i, c in reversed(list(enumerate(f.coeffs))) if not c.is_zero()]
    return " + ".join(terms) if terms else "0"


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
            power = _theta_power(k)
            pieces.append(power if coeff == "1" else f"({coeff})*{power}")
    if x.prec != INF:
        pieces.append(f"O({_theta_power(-(x.prec + 1))})")
    return " + ".join(pieces) if pieces else "0"


def _theta_power(k):
    """theta^k as text: 1 at k = 0, bare theta at k = 1."""
    return "1" if k == 0 else THETA if k == 1 else f"{THETA}^{k}"


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
    src, offset = _strip(text, offset)
    if not src:
        raise GrammarError("empty semi-character", offset)
    varis, degs, consts = [], [], []
    if src != "1":
        for factor, fpos in _split_top(src, "*", offset, "(", ")"):
            factor, at = _strip(factor, fpos)
            if not factor:
                raise GrammarError("empty factor", at)
            if factor == "1":
                continue
            if factor.startswith("c(") and factor.endswith(")"):
                consts.append(parse_fq(ctx, factor[2:-1], at + 2))
            elif factor.startswith(("nu", "t")):
                nu = factor.startswith("nu")
                i = _parse_int(factor[1 + nu:], at, "variable index", 1, BadIndex)
                if s is not None and i > s:
                    raise BadIndex(f"variable index {i} exceeds arity {s}", at)
                (degs if nu else varis).append(i)
            else:
                raise GrammarError(f"unknown factor {factor!r}", at)
    arity = max(varis + degs, default=0) if s is None else s
    return SemiChar(ctx, arity, varis=varis, degs=degs, consts=consts)


def format_matrix_data(md):
    return ",".join(f"{format_semichar(sc)}:{n}" for sc, n in md.columns)


def parse_matrix_data(ctx, text, s=None):
    """Parse `column ("," column)*` with column `semichar ":" weight`; the
    arity is s, or else the largest variable index of any column."""
    from .mzv import MatrixData
    src, offset = _strip(text, 0)
    if not src:
        raise GrammarError("empty matrix data", offset)
    columns = []
    for col, pos in _split_top(src, ",", offset, "(", ")"):
        col, pos = _strip(col, pos)
        if not col:
            raise GrammarError("empty column", pos)
        head, sep, ns = col.rpartition(":")
        if not sep:
            raise GrammarError(f"column {col!r} lacks ':weight'", pos)
        ns, at = _strip(ns, pos + len(head) + 1)
        n = _parse_int(ns, at, "weight")
        if n < 1:
            raise WeightZero(f"weight must be >= 1, got {n}", at)
        columns.append((parse_semichar(ctx, head, s=s, offset=pos), n))
    return MatrixData(ctx, columns, s=s)
