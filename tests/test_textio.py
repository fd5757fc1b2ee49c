import re

import pytest

from carlitz.errors import BadIndex, GrammarError, WeightZero
from carlitz.poly import APoly, RatK
from carlitz.powersums import SemiChar, SeqCache
from carlitz.skew import SkewPoly
from carlitz.tate import TateSeries, zeta_series
from carlitz.textio import (format_apoly, format_matrix_data, format_ratk,
                            format_semichar, format_series, format_skew,
                            format_tpoly, parse_fq, parse_matrix_data,
                            parse_semichar)
from carlitz.tpoly import TPoly


def test_apoly_format_examples(ctx3):
    th = APoly.theta(ctx3)
    assert format_apoly(2 * th ** 3 + th + 1) == "2*θ^3 + θ + 1"
    assert format_apoly(APoly.zero(ctx3)) == "0"
    assert format_apoly(APoly.one(ctx3)) == "1"


def test_apoly_printer_corpus(ctx3, ctx9):
    x, x1, x2 = (ctx9.element(v).code for v in ((0, 1), (1, 1), (1, 2)))
    corpus = [
        (APoly(ctx3, [2, 0, 1, 2]), "2*θ^3 + θ^2 + 2"),
        (-APoly.theta(ctx3, 5), "2*θ^5"),
        (APoly(ctx9, [x, 0, x1, 1]), "θ^3 + [x + 1]*θ^2 + [x]"),
        (APoly(ctx9, [1, x2, 0, x]), "[x]*θ^3 + [2*x + 1]*θ + 1"),
        (APoly(ctx9, [2]), "[2]"),
    ]
    assert [format_apoly(a) for a, _ in corpus] == [text for _, text in corpus]


def test_extension_coefficients(ctx9):
    x = ctx9.element((0, 1))
    assert format_apoly(APoly(ctx9, [x.code, 1])) == "θ + [x]"
    assert format_apoly(APoly(ctx9, [0, 0, ctx9.element((1, 1)).code])) == "[x + 1]*θ^2"


def test_ratk_printer_corpus(ctx3, ctx9):
    th = APoly.theta(ctx3)
    corpus = [
        (RatK(th ** 2 + 1, APoly(ctx3, [2])), "2*θ^2 + 2"),
        (RatK(APoly(ctx3, [2]), th ** 3 - th), "2/(θ^3 + 2*θ)"),
        (RatK(th + 1, th ** 3 + 2 * th), "1/(θ^2 + 2*θ)"),
        (RatK(th ** 2 + 1, 2 * th ** 2 + th), "(2*θ^2 + 2)/(θ^2 + 2*θ)"),
        (RatK(APoly.one(ctx9), APoly(ctx9, [1, ctx9.element((0, 1)).code])),
         "[2*x]/(θ + [2*x])"),
    ]
    assert [format_ratk(v) for v, _ in corpus] == [text for _, text in corpus]


def test_tpoly_printer_corpus(ctx3):
    # terms print by total degree, then by descending t1-exponent
    th, one = APoly.theta(ctx3), RatK.one(ctx3)
    tp = TPoly(ctx3, 2, {
        (0, 3): one, (1, 2): RatK.from_apoly(2 * th),
        (2, 1): RatK(th + 1, th ** 2 + 1), (0, 1): RatK(APoly(ctx3, [2]), th),
        (1, 0): one, (0, 0): RatK.from_apoly(th)})
    assert format_tpoly(tp) == (
        "θ + t1 + (2/(θ))*t2 + ((θ + 1)/(θ^2 + 1))*t1^2*t2 + (2*θ)*t1*t2^2 + t2^3")
    assert format_tpoly(TPoly(ctx3, 1, {})) == "0"


def test_skew_printer_corpus(ctx3):
    th, one = APoly.theta(ctx3), RatK.one(ctx3)
    assert format_skew(SkewPoly(ctx3, (RatK.from_apoly(th), RatK.zero(ctx3), one))) \
        == "τ^2 + θ"
    f = SkewPoly(ctx3, (one, RatK(th, th + 1), RatK.from_apoly(th + 1),
                        RatK.from_apoly(APoly(ctx3, [2]))))
    assert format_skew(f) == "2*τ^3 + (θ + 1)*τ^2 + ((θ)/(θ + 1))*τ + 1"


def test_semichar_grammar(ctx3):
    sc = parse_semichar(ctx3, "t1*t2")
    assert sc == SemiChar(ctx3, 2, varis=(1, 2))
    assert format_semichar(sc) == "t1*t2"
    assert parse_semichar(ctx3, "1") == SemiChar.trivial(ctx3, 0)
    assert parse_semichar(ctx3, "nu1") == SemiChar.nu(ctx3, 1, 1)
    assert parse_semichar(ctx3, "c(2)") == SemiChar(ctx3, 0, consts=(2,))
    assert parse_semichar(ctx3, "t1*t1*c(2)") == SemiChar(
        ctx3, 1, varis=(1, 1), consts=(2,))
    with pytest.raises(BadIndex):
        parse_semichar(ctx3, "t0")


def test_matrix_data_grammar(ctx3):
    md = parse_matrix_data(ctx3, "t1:1,1:1")
    assert md.depth == 2 and md.weight == 2 and md.s == 1
    assert md.columns[0][0] == SemiChar.chi(ctx3, 1, 1)
    assert md.columns[1][0] == SemiChar.trivial(ctx3, md.s)
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
    # a position is the first character of the offending token
    (lambda ctx: parse_semichar(ctx, "zz"), 0),
    (lambda ctx: parse_matrix_data(ctx, "zz:1"), 0),
    (lambda ctx: parse_fq(ctx, "a*x"), 0),
    (lambda ctx: parse_fq(ctx, "x^q"), 0),
    (lambda ctx: parse_fq(ctx, "x + a"), 4),
    (lambda ctx: parse_fq(ctx, "[x + a]"), 5),
    (lambda ctx: parse_semichar(ctx, "t1* zz"), 4),
    (lambda ctx: parse_semichar(ctx, "t1*c(x + a)"), 9),
    (lambda ctx: parse_matrix_data(ctx, "t1:1, zz:1"), 6),
    (lambda ctx: parse_matrix_data(ctx, "t1:1, 1:x"), 8),
    (lambda ctx: parse_matrix_data(ctx, "t1:1, c(x]):1"), 9),
    # an index above the arity, at the first factor that has one (named,
    # so that the positions 8 and 6 keep their ids above)
    pytest.param(lambda ctx: parse_matrix_data(ctx, "t1:1,t1*t3:1", s=2), 8, id="arity-t"),
    pytest.param(lambda ctx: parse_matrix_data(ctx, "t1:1, nu3*t4:1", s=2), 6, id="arity-nu"),
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
    x = ctx9.element((0, 1)).code
    u = TateSeries.from_ratk(RatK(APoly.one(ctx9), APoly(ctx9, [1, x])), 4)
    text = format_series(u)
    assert text == "([2*x])*θ^-1 + ([1])*θ^-2 + ([x])*θ^-3 + ([2])*θ^-4 + O(θ^-5)"
    codes = [parse_fq(ctx9, c) for c in re.findall(r"\[[^]]*\]", text)]
    assert codes == [u.terms[k][()] for k in (-1, -2, -3, -4)]


def test_series_error_term_at_negative_precision(ctx3):
    # the O-term is theta^-(prec + 1): O(1) at prec -1, O(theta) at prec -2
    th = APoly.theta(ctx3)
    assert format_series(TateSeries.from_apoly(th, prec=-1)) == "θ + O(1)"
    assert format_series(TateSeries.from_apoly(th ** 3, prec=-2)) == "θ^3 + O(θ)"
    assert format_series(TateSeries.from_apoly(th ** 3, prec=0)) == "θ^3 + O(θ^-1)"
