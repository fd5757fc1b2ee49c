import random
import re

import pytest

from carlitz.errors import BadIndex, GrammarError, WeightZero
from carlitz.ffield import FieldContext
from carlitz.poly import APoly, RatK
from carlitz.powersums import SemiChar, SeqCache
from carlitz.skew import SkewPoly
from carlitz.tate import TateSeries, zeta_series
from carlitz.textio import (format_apoly, format_matrix_data, format_ratk,
                            format_semichar, format_series, format_skew,
                            format_tpoly, parse_apoly, parse_fq,
                            parse_matrix_data, parse_ratk, parse_semichar,
                            parse_skew, parse_tpoly)
from carlitz.tpoly import TPoly


def rand_apoly(ctx, rng, max_deg=6):
    return APoly(ctx, [rng.randrange(ctx.q) for _ in range(rng.randint(0, max_deg))])


def test_apoly_format_examples(ctx3):
    th = APoly.theta(ctx3)
    assert format_apoly(2 * th ** 3 + th + 1) == "2*θ^3 + θ + 1"
    assert format_apoly(APoly.zero(ctx3)) == "0"
    assert format_apoly(APoly.one(ctx3)) == "1"
    assert parse_apoly(ctx3, "2*θ^3 + θ + 1") == 2 * th ** 3 + th + 1
    assert parse_apoly(ctx3, "2*theta^3+theta+1") == 2 * th ** 3 + th + 1


def test_apoly_roundtrip_random(ctx3, ctx9):
    for ctx in (ctx3, ctx9):
        rng = random.Random(101)
        for _ in range(25):
            a = rand_apoly(ctx, rng)
            assert parse_apoly(ctx, format_apoly(a)) == a


def test_extension_coefficients(ctx9):
    x = ctx9.element((0, 1))
    a = APoly(ctx9, [x.code, 1])
    s = format_apoly(a)
    assert s == "θ + [x]"
    assert parse_apoly(ctx9, s) == a
    assert parse_apoly(ctx9, "[x+1]*θ^2") == APoly(ctx9, [0, 0, ctx9.element((1, 1)).code])


def test_ratk_roundtrip(ctx3):
    rng = random.Random(55)
    for _ in range(20):
        num = rand_apoly(ctx3, rng)
        den = APoly.zero(ctx3)
        while den.is_zero():
            den = rand_apoly(ctx3, rng)
        x = RatK(num, den)
        assert parse_ratk(ctx3, format_ratk(x)) == x


def test_tpoly_roundtrip(ctx3):
    rng = random.Random(77)
    for _ in range(15):
        terms = {}
        for _ in range(rng.randint(0, 4)):
            exps = (rng.randint(0, 3), rng.randint(0, 3))
            num = rand_apoly(ctx3, rng)
            den = APoly.zero(ctx3)
            while den.is_zero():
                den = rand_apoly(ctx3, rng)
            terms[exps] = RatK(num, den)
        tp = TPoly(ctx3, 2, terms)
        assert parse_tpoly(ctx3, 2, format_tpoly(tp)) == tp


def test_skew_roundtrip(ctx3):
    rng = random.Random(88)
    for _ in range(15):
        coeffs = []
        for _ in range(rng.randint(1, 5)):
            num = rand_apoly(ctx3, rng)
            den = APoly.zero(ctx3)
            while den.is_zero():
                den = rand_apoly(ctx3, rng)
            coeffs.append(RatK(num, den))
        f = SkewPoly(ctx3, coeffs)
        assert parse_skew(ctx3, format_skew(f)) == f
    assert parse_skew(ctx3, "tau^2 + theta") == SkewPoly(
        ctx3, (RatK.from_apoly(APoly.theta(ctx3)), RatK.zero(ctx3), RatK.one(ctx3)))


def test_semichar_grammar(ctx3):
    sc = parse_semichar(ctx3, "t1*t2")
    assert sc == SemiChar(ctx3, 2, varis=(1, 2))
    assert format_semichar(sc) == "t1*t2"
    assert parse_semichar(ctx3, "1").is_trivial()
    assert parse_semichar(ctx3, "nu1") == SemiChar.nu(ctx3, 1, 1)
    assert parse_semichar(ctx3, "c(2)") == SemiChar.const_eval(ctx3, 0, 2)
    assert parse_semichar(ctx3, "t1*t1*c(2)") == SemiChar(
        ctx3, 1, varis=(1, 1), consts=(2,))
    with pytest.raises(BadIndex):
        parse_semichar(ctx3, "t0")


def test_matrix_data_grammar(ctx3):
    md = parse_matrix_data(ctx3, "t1:1,1:1")
    assert md.depth == 2 and md.weight == 2 and md.s == 1
    assert md.columns[0][0] == SemiChar.chi(ctx3, 1, 1)
    assert md.columns[1][0].is_trivial()
    assert format_matrix_data(md) == "t1:1,1:1"

    md2 = parse_matrix_data(ctx3, "t1*t2:2")
    assert md2.depth == 1 and md2.weight == 2 and md2.s == 2

    # an explicit arity flag widens the inferred one
    md3 = parse_matrix_data(ctx3, "t1:1,1:1", s=2)
    assert md3.s == 2

    with pytest.raises(GrammarError) as exc:
        parse_matrix_data(ctx3, "t1:1,,")
    assert exc.value.position is not None
    with pytest.raises(WeightZero):
        parse_matrix_data(ctx3, "t1:0")
    with pytest.raises(GrammarError):
        parse_matrix_data(ctx3, "t1")


def test_roundtrip_matrix_corpus(ctx3):
    corpus = ["1:1", "t1:1,1:1", "t1*t2:2", "nu1:1,1:1", "t1:2,t2:1,1:3",
              "c(2)*t1:1"]
    for text in corpus:
        md = parse_matrix_data(ctx3, text)
        again = parse_matrix_data(ctx3, format_matrix_data(md))
        assert again == md


@pytest.mark.parametrize("parse,position", [
    (lambda ctx: parse_apoly(ctx, "2*θ^a"), 2),
    (lambda ctx: parse_apoly(ctx, "θ^-1"), 0),
    (lambda ctx: parse_tpoly(ctx, 1, "t1^b"), 0),
    (lambda ctx: parse_tpoly(ctx, 1, "θ + tx"), 4),
    (lambda ctx: parse_skew(ctx, "θ*τ^c"), 2),
    (lambda ctx: parse_fq(ctx, "a*x"), 0),
    (lambda ctx: parse_fq(ctx, "x^q"), 0),
])
def test_malformed_integers_raise_grammar_errors(ctx9, parse, position):
    with pytest.raises(GrammarError) as exc:
        parse(ctx9)
        assert exc.value.position == position


def test_field_elements_share_the_sum_grammar(ctx3, ctx9):
    assert [parse_fq(ctx3, t) for t in ("2", "[2]", "-1", "5", "2*2")] == [2, 2, 2, 2, 1]
    x = ctx9.element((0, 1)).code
    assert parse_fq(ctx9, "x") == x
    assert parse_fq(ctx9, "[2*x + 1]") == ctx9.element((1, 2)).code
    assert parse_fq(ctx9, "x + x + x") == 0
    with pytest.raises(GrammarError, match="exceeds the field degree"):
        parse_fq(ctx9, "x^2")
    with pytest.raises(GrammarError, match="exceeds the field degree"):
        parse_fq(ctx3, "x")


def test_series_print_field_elements_like_every_printer(ctx3, ctx9):
    # q = 3: the layout of the printer before it moved into textio
    z = zeta_series(SeqCache(ctx3), parse_matrix_data(ctx3, "t1:1,1:1"), 6)
    assert format_series(z) == repr(z) == (
        "θ^-2 + (2*t1)*θ^-3 + θ^-4 + (2*t1)*θ^-5 + θ^-6 + O(θ^-7)")
    assert format_series(TateSeries.zero(ctx3, 1, 4)) == "O(θ^-5)"
    # q = 9: coefficients print as polynomials in x and parse back
    u = TateSeries.from_ratk(parse_ratk(ctx9, "1/([x]*θ + 1)"), 4)
    text = format_series(u)
    assert text == "([2*x])*θ^-1 + ([1])*θ^-2 + ([x])*θ^-3 + ([2])*θ^-4 + O(θ^-5)"
    codes = [parse_fq(ctx9, c) for c in re.findall(r"\[[^]]*\]", text)]
    assert codes == [u.terms[k][()] for k in (-1, -2, -3, -4)]
