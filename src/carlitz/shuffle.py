"""Per-degree exact verification of the shuffle-product identities.

Every product identity between the zeta values in scope is equivalent to
a family of exact identities between truncated sums, one for each degree:
both sides are polynomials in t_1, t_2 over K.  Each identity is one row
of `IDENTITIES`, which `sides` evaluates through the engine as exact
unnormalized fractions (RawTPoly): a side of several terms is one
`RawTPoly.sum`, and `RawTPoly.equals` decides.

The engine fixes arity 2 with the first evaluation character on t_1 and
the second on t_2; untwisted values are constants in the t-variables.
Semi-characters are addressed by short keys:

    "one"  trivial          "s"  a -> a(t_1)      "p"   a -> a(t_2)
    "sp"   a -> a(t_1)a(t_2)                      "nu"  a -> t_1^deg(a)

A row is `side = side`, each side a signed sum of terms: an optional
multiplicity and factors S (degree d), F (degrees below d), S* or F* (star
chains) over columns `(n;key, ...)`, top column first, each factor with an
optional power `^e`.  n and e are integers, `q` or `q-1`; key defaults to
"one": `F(1)^2 = F(2) + 2 F(1, 1)` is F_d(1)^2 = F_d(2) + 2 F_d(1, 1).
"""

import re
import weakref
from functools import lru_cache

from ._rawfrac import RawTPoly
from .errors import GrammarError, InvalidParams
from .powersums import ChainSums, SemiChar, closed_form, power_sum


KEYS = ("one", "s", "p", "sp", "nu")


class ShuffleEngine:
    """Per-degree power sums and multiple sums over one context, addressed
    by semi-character keys; the values are memoized in the SeqCache."""

    def __init__(self, cache):
        self.cache = cache
        self.ctx = ctx = cache.ctx
        self._chars = dict(zip(KEYS, (SemiChar(ctx, 2), SemiChar.chi(ctx, 2, 1),
                                      SemiChar.chi(ctx, 2, 2), SemiChar(ctx, 2, varis=(1, 2)),
                                      SemiChar.nu(ctx, 2, 1))))
        engine = weakref.ref(self)  # a bound S would keep a dropped engine alive in a cycle
        self._chains = ChainSums(lambda d, n, sig: engine().S(d, n, sig),
                                 RawTPoly.zero(ctx, 2), cache.table("shuffle chains"))

    def S(self, d, n, sig):
        """The degree-d power sum of order n twisted by the keyed
        semi-character: `power_sum`, for orders with a closed form."""
        sigma = self._chars.get(sig)
        if sigma is None or closed_form(self.ctx.q, n, sigma) is None:
            raise InvalidParams(f"no closed form for order {n} twisted by key {sig!r}")
        return power_sum(self.cache, d, n, sigma)

    def Smulti(self, d, cols, mode="strict"):
        """Multiple power sum of degree d for columns ((sig, n), ...)."""
        return self._chains.multi(d, cols, mode)

    def Fmulti(self, d, cols, mode="strict"):
        """Sum of Smulti(i, cols, mode) over 0 <= i < d."""
        return self._chains.truncated(d, cols, mode)


# the identities, one row each, keyed by check id
IDENTITIES = {
    "thm-formulas-1": "F(1)^2 = F(2) + 2 F(1, 1)",
    "thm-formulas-2": "F(1;s) F(1) = F(1;s, 1) + F(2;s)",
    "thm-formulas-3": "F(1;p) F(1) = F(1;p, 1) + F(2;p)",
    "thm-formulas-4": "F(1;s) F(1;p) = F(2;sp)",
    "thm-formulas-5": "F(1) F(1;sp) = F(2;sp) + F(1, 1;sp) + F(1;sp, 1)"
                      " - F(1;p, 1;s) - F(1;s, 1;p)",
    "eq-Fsfirst": "S(1;s) S(1) = S(2;s) - S(1, 1;s)",
    "eq-formulabis": "S(1;s) S(1;p) = S(2;sp) - S(1;p, 1;s) - S(1;s, 1;p)",
    "eq-formulater": "S(1) S(1;sp) = S(2;sp) - S(1;p, 1;s) - S(1;s, 1;p)",
    "lemma-alemma": "S(2;sp) = S(1;s) S(1;p) + S(1;p, 1;s) + S(1;s, 1;p)",
    "remark-trivial": "F(1) F(1;sp) - F(1;s) F(1;p) = F(1, 1;sp) + F(1;sp, 1)"
                      " - F(1;p, 1;s) - F(1;s, 1;p)",
    "remark-nu": "F(1;nu) F(1) = F(2;nu) + F(1;nu, 1) + F(1, 1;nu)",
    "thakur-thm1": "F(1) F(q-1) = F(q) + F(q-1, 1) + F(1, q-1)",
    "star-bridge": "F*(q-1, 1) = F(q-1, 1) + F(1)^q",
}

_NUM = "q-1|q|[1-9][0-9]*"
_COL = rf"\s*(?:{_NUM})\s*(?:;\s*(?:{'|'.join(KEYS)})\s*)?"
_FACTOR = re.compile(rf"([SF])(\*?)\(((?:{_COL},)*{_COL})\)(?:\^({_NUM}))?")
_TERM = re.compile(rf"\s*([+-]?)\s*([1-9][0-9]*)?((?:\s*{_FACTOR.pattern})+)\s*")


def _factor(f, q):
    """A factor as (engine method, its arguments after d, power): a
    one-column S goes to `S`, every other factor to `Smulti`/`Fmulti`."""
    letter, star, body, power = f.groups()
    num = {"q": q, "q-1": q - 1}
    cols = tuple((key.strip() or "one", num.get(n.strip()) or int(n))
                 for n, _, key in (col.partition(";") for col in body.split(",")))
    power = num.get(power) or int(power or 1)
    if letter == "S" and len(cols) == 1:
        return "S", cols[0][::-1], power
    return f"{letter}multi", (cols, "star" if star else "strict"), power


def _side(text, at, q):
    """The terms of one side as (signed multiplicity, factors)."""
    terms, pos = [], 0
    while pos < len(text) or not terms:
        m = _TERM.match(text, pos)
        if m is None or (terms and not m[1]):
            raise GrammarError(f"bad term {text[pos:].strip()!r}", at + pos)
        count = (-1 if m[1] == "-" else 1) * int(m[2] or 1)
        terms.append((count, tuple(_factor(f, q) for f in _FACTOR.finditer(m[3]))))
        pos = m.end()
    return tuple(terms)


@lru_cache(maxsize=None)
def parse_row(row, q):
    """The two sides of a row, with its orders and powers at q; GrammarError
    at the first text the syntax does not take."""
    lhs, eq, rhs = row.partition("=")
    if not eq:
        raise GrammarError("no '=' in identity", len(row))
    return _side(lhs, 0, q), _side(rhs, len(lhs) + 1, q)


def sides(eng, d, row):
    """(lhs, rhs) of the identity `row` at degree d, through the engine."""
    out = []
    for terms in parse_row(row, eng.ctx.q):
        values = []
        for count, factors in terms:
            value = None
            for method, args, power in factors:
                f = getattr(eng, method)(d, *args) ** power
                value = f if value is None else value * f
            values += [-value if count < 0 else value] * abs(count)
        out.append(values[0] if len(values) == 1 else RawTPoly.sum(values))
    return tuple(out)
