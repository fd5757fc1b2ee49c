"""Textual grammars: printing and parsing of the package's values.

Printed forms round-trip through the parsers in this module:

  APoly      2*θ^3 + θ + 1        (coefficients of F_{p^e} bracketed, e.g. [x+1]*θ^2)
  RatK       (θ + 1)/(θ^3 + 2*θ)  (bare numerator when the denominator is 1)
  TPoly      (1/(θ^3+2*θ))*t1^2*t2 + ...   variables t1, t2, ...
  SkewPoly   (θ + 1)*τ^2 + θ*τ + 1
  SemiChar   1 | t1*t2 | nu1 | c(2) | c(x+1)   factors joined by *
  MatrixData t1:1,1:1   columns semichar:weight joined by commas

The ASCII spellings "theta" and "tau" are accepted on input everywhere the
Greek letters are printed.
"""

from .errors import BadIndex, GrammarError, WeightZero
from .ffield import FqElem
from .poly import APoly, RatK

THETA = "θ"
TAU = "τ"


# ---------------------------------------------------------------------------
# field elements
# ---------------------------------------------------------------------------

def format_fq(ctx, code):
    if ctx.e == 1:
        return str(code)
    return repr(FqElem(ctx, code))


def _parse_xpoly(ctx, text, offset=0):
    """Parse an F_q element written as a polynomial in x over F_p."""
    text = text.strip()
    if not text:
        raise GrammarError("empty field element", offset)
    coords = [0] * ctx.e
    for piece in text.split("+"):
        piece = piece.strip()
        if not piece:
            raise GrammarError("empty term in field element", offset)
        coef, power = 1, 0
        if "*" in piece:
            cs, xs = piece.split("*", 1)
            coef = int(cs.strip())
            piece = xs.strip()
        if piece.startswith("x"):
            rest = piece[1:].strip()
            if rest.startswith("^"):
                power = int(rest[1:])
            elif rest == "":
                power = 1
            else:
                raise GrammarError(f"bad element term {piece!r}", offset)
        else:
            coef, power = int(piece), 0
        if power >= ctx.e:
            raise GrammarError(f"x^{power} exceeds the field degree", offset)
        coords[power] = (coords[power] + coef) % ctx.p
    return ctx.element(coords).code


def parse_fq(ctx, text, offset=0):
    text = text.strip()
    if text.startswith("[") and text.endswith("]"):
        text = text[1:-1]
    if ctx.e == 1:
        try:
            return int(text) % ctx.p
        except ValueError:
            raise GrammarError(f"bad field element {text!r}", offset) from None
    try:
        return int(text) % ctx.p
    except ValueError:
        return _parse_xpoly(ctx, text, offset)


# ---------------------------------------------------------------------------
# APoly
# ---------------------------------------------------------------------------

def format_apoly(a):
    ctx = a.ctx
    if a.is_zero():
        return "0"
    terms = []
    for i in range(len(a.coeffs) - 1, -1, -1):
        c = a.coeffs[i]
        if not c:
            continue
        if ctx.e == 1:
            cs = None if c == 1 else str(c)
        else:
            cs = None if c == 1 else f"[{repr(FqElem(ctx, c))[1:-1]}]"
        if i == 0:
            terms.append(cs if cs is not None else "1")
        else:
            var = THETA if i == 1 else f"{THETA}^{i}"
            terms.append(var if cs is None else f"{cs}*{var}")
    return " + ".join(terms)


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


def parse_apoly(ctx, text, offset=0):
    src = text.strip()
    if not src:
        raise GrammarError("empty polynomial", offset)
    if src == "0":
        return APoly.zero(ctx)
    result = APoly.zero(ctx)
    for term, pos in _split_top(src.replace("theta", THETA), "+"):
        term = term.strip()
        if not term:
            raise GrammarError("empty term", offset + pos)
        coef_code = 1
        power = 0
        for factor, fpos in _split_top(term, "*"):
            factor = factor.strip()
            if not factor:
                raise GrammarError("empty factor", offset + pos + fpos)
            if factor.startswith(THETA):
                rest = factor[len(THETA):].strip()
                if rest.startswith("^"):
                    power += int(rest[1:])
                elif rest == "":
                    power += 1
                else:
                    raise GrammarError(f"bad term {factor!r}", offset + pos + fpos)
            else:
                coef_code = ctx.mul[coef_code][parse_fq(ctx, factor, offset + pos + fpos)]
        result = result + APoly(ctx, tuple([0] * power + [coef_code]), _raw=(coef_code != 0))
    return result


# ---------------------------------------------------------------------------
# RatK
# ---------------------------------------------------------------------------

def format_ratk(x, bare_constants=True):
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


# ---------------------------------------------------------------------------
# TPoly
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
    terms = []
    for exps, coef in tp.iter_terms():
        mono = _format_monomial(exps)
        if not mono:
            terms.append(format_ratk(coef))
            continue
        if coef == RatK.one(tp.ctx):
            terms.append(mono)
        else:
            cs = format_ratk(coef)
            if "/" in cs or "+" in cs or "*" in cs:
                cs = f"({cs})"
            terms.append(f"{cs}*{mono}")
    return " + ".join(terms) if terms else "0"


def parse_tpoly(ctx, s, text, offset=0):
    from .tpoly import TPoly
    src = text.strip().replace("theta", THETA).replace("tau", TAU)
    if not src:
        raise GrammarError("empty polynomial", offset)
    if src == "0":
        return TPoly.zero(ctx, s)
    total = TPoly.zero(ctx, s)
    for term, pos in _split_top(src, "+"):
        term = term.strip()
        if not term:
            raise GrammarError("empty term", offset + pos)
        exps = [0] * s
        coef = RatK.one(ctx)
        for factor, fpos in _split_top(term, "*"):
            factor = factor.strip()
            if not factor:
                raise GrammarError("empty factor", offset + pos + fpos)
            if factor.startswith("t") and len(factor) > 1 and factor[1].isdigit():
                head, _, exp = factor.partition("^")
                idx = int(head[1:])
                if not 1 <= idx <= s:
                    raise BadIndex(f"variable t{idx} outside arity {s}",
                                   offset + pos + fpos)
                exps[idx - 1] += int(exp) if exp else 1
            else:
                coef = coef * parse_ratk(ctx, _strip_parens(factor),
                                         offset + pos + fpos)
        total = total + TPoly.monomial(ctx, s, tuple(exps), coef)
    return total


# ---------------------------------------------------------------------------
# SkewPoly
# ---------------------------------------------------------------------------

def format_skew(f):
    if f.is_zero():
        return "0"
    terms = []
    for i in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[i]
        if c.is_zero():
            continue
        if i == 0:
            terms.append(format_ratk(c))
            continue
        var = TAU if i == 1 else f"{TAU}^{i}"
        if c == RatK.one(f.ctx):
            terms.append(var)
        else:
            cs = format_ratk(c)
            if "/" in cs or "+" in cs or "*" in cs:
                cs = f"({cs})"
            terms.append(f"{cs}*{var}")
    return " + ".join(terms)


def parse_skew(ctx, text, offset=0):
    from .skew import SkewPoly
    src = text.strip().replace("tau", TAU).replace("theta", THETA)
    if not src:
        raise GrammarError("empty skew polynomial", offset)
    if src == "0":
        return SkewPoly.zero(ctx)
    coeffs = {}
    for term, pos in _split_top(src, "+"):
        term = term.strip()
        if not term:
            raise GrammarError("empty term", offset + pos)
        power = 0
        coef = RatK.one(ctx)
        for factor, fpos in _split_top(term, "*"):
            factor = factor.strip()
            if factor.startswith(TAU):
                rest = factor[len(TAU):].strip()
                if rest.startswith("^"):
                    power += int(rest[1:])
                elif rest == "":
                    power += 1
                else:
                    raise GrammarError(f"bad term {factor!r}", offset + pos + fpos)
            else:
                coef = coef * parse_ratk(ctx, _strip_parens(factor),
                                         offset + pos + fpos)
        coeffs[power] = coeffs.get(power, RatK.zero(ctx)) + coef
    top = max(coeffs)
    return SkewPoly(ctx, [coeffs.get(i, RatK.zero(ctx)) for i in range(top + 1)])


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
    max_index = 0
    if src != "1":
        for factor, fpos in _split_top(src, "*", openers="(", closers=")"):
            factor = factor.strip()
            if not factor:
                raise GrammarError("empty factor", offset + fpos)
            if factor == "1":
                continue
            if factor.startswith("c(") and factor.endswith(")"):
                consts.append(parse_fq(ctx, factor[2:-1], offset + fpos))
            elif factor.startswith("nu"):
                idx = _parse_index(factor[2:], offset + fpos)
                degs.append(idx)
                max_index = max(max_index, idx)
            elif factor.startswith("t"):
                idx = _parse_index(factor[1:], offset + fpos)
                varis.append(idx)
                max_index = max(max_index, idx)
            else:
                raise GrammarError(f"unknown factor {factor!r}", offset + fpos)
    arity = max_index if s is None else s
    if max_index > arity:
        raise BadIndex(f"variable index {max_index} exceeds arity {arity}", offset)
    return SemiChar(ctx, arity, varis=varis, degs=degs, consts=consts)


def _parse_index(text, offset):
    try:
        idx = int(text)
    except ValueError:
        raise BadIndex(f"bad variable index {text!r}", offset) from None
    if idx < 1:
        raise BadIndex(f"variable index must be >= 1, got {idx}", offset)
    return idx


def format_matrix_data(md):
    return ",".join(f"{format_semichar(sc)}:{n}" for sc, n in md.columns)


def parse_matrix_data(ctx, text, s=None):
    """Parse `column ("," column)*` with column `semichar ":" weight`."""
    from .mzv import MatrixData
    from .powersums import SemiChar
    src = text.strip()
    if not src:
        raise GrammarError("empty matrix data", 0)
    raw_cols = _split_top(src, ",", openers="(", closers=")")
    parsed = []
    max_index = 0
    for col, pos in raw_cols:
        col = col.strip()
        if not col:
            raise GrammarError("empty column", pos)
        head, sep, ns = col.rpartition(":")
        if not sep:
            raise GrammarError(f"column {col!r} lacks ':weight'", pos)
        try:
            n = int(ns)
        except ValueError:
            raise GrammarError(f"bad weight {ns!r}", pos) from None
        if n < 1:
            raise WeightZero(f"weight must be >= 1, got {n}", pos)
        parsed.append((head.strip(), n, pos))
        sc_probe = parse_semichar(ctx, head.strip(), s=None, offset=pos)
        max_index = max(max_index, sc_probe.s)
    arity = max_index if s is None else s
    columns = []
    for head, n, pos in parsed:
        columns.append((parse_semichar(ctx, head, s=arity, offset=pos), n))
    return MatrixData(ctx, columns, s=arity)
