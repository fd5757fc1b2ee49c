"""Negative controls for the packed kernel's fast paths and for checks.

Each `KERNEL_MUTATIONS` entry mutates one fragment of a `_packed`
function, or of any function or method given as `<module>.<attr>[.<attr>]`
under `carlitz` (the enumeration loop, the exponent arithmetic of
`RawTPoly`, its reduced denominators and its per-call memo, the
Tate-series product, the untwisted power-sum recursion), from outside
`src/`, and names the property test of `test_packed.py`,
`test_monic_orbits.py`, `test_powersums.py`, `test_rawfrac.py` or
`test_tate_oracle.py` that must catch it: the test passes on the real
code and fails on the mutant.  A fragment that no longer occurs exactly
once fails the control, so the table follows the code it perturbs.

Each `CHECK_CONTROLS` entry perturbs one input of a registered check, by
a monkeypatch from outside `src/`, and must turn that check's status from
pass into fail, with the failure it names in its witness.  The per-degree
checks get theirs from their `shuffle.IDENTITIES` rows: each term of a row
dropped from a side of two or more terms, and each term's sign flipped.
Together the two tables cover every registered check.
"""

import importlib
import inspect
import re
import textwrap

import pytest

from carlitz import _packed as kern
from carlitz import checks, mzv, poly, powersums, shuffle, skew, tate
from carlitz._rawfrac import RawTPoly
from carlitz.checks import run_check

import test_monic_orbits as orbits
import test_packed as prop
import test_powersums as sums
import test_rawfrac as raw
import test_tate_oracle as series

# (what the mutation breaks, function, fragment, replacement, test, its args)
KERNEL_MUTATIONS = [
    ("Newton block read one slot off", "_kdivmod_newton",
     "r[top + db - 1:lo + db - 1:-1]", "r[top + db - 2:lo + db - 2:-1]",
     prop.test_exact_division_on_every_path, (3,)),
    ("binomial recurrence without the quo_(i-1) carry", "kdivmod",
     "quo = _strided_sums(ctx, a[lb - 1:], m - 1, la - m)", "quo = a[lb - 1:]",
     prop.test_exact_division_on_every_path, (5,)),
    ("Newton inverse one term short", "_kdivmod_newton",
     "g, 0,", "g[:-1], 0,",
     prop.test_exact_division_on_every_path, (4,)),
    ("packed fold dropping its last block", "kmod_binomial",
     "_strided_sums(ctx, a[1:], m - 1, m - 1)",
     "_strided_sums(ctx, a[1:1 - m], m - 1, m - 1)",
     prop.test_kmod_binomial_above_the_packed_threshold, (3,)),
    # 256 = 1 mod 3 and mod 5, so the wrong power shows from p = 7 on
    ("byte lane reduced with the wrong power of 256", "_byte_tables",
     "times(256 ** k % p)", "times(256 ** (k + 1) % p)",
     prop.test_codecs_match_reference, (7,)),
    ("sparse term shifted by one slot", "kmul",
     "unit[sparse[i]] * v << i * bits", "unit[sparse[i]] * v << (i + 1) * bits",
     prop.test_sparse_products, (3,)),
    # b's terms one slot down on the long schoolbook, the one two long
    # sparse operands take: a constant term wraps to the top slot
    ("long schoolbook term shifted by one slot", "kmul_naive",
     "_terms(ctx, a), _terms(ctx, b)", "_terms(ctx, a), [(j - 1, c) for j, c in _terms(ctx, b)]",
     prop.test_both_sparse_products, (3,)),
    ("digit power from a^(k+1) in place of the square a^(2^k)", "kpow",
     "kmul(ctx, squares[-1], squares[-1])", "kmul(ctx, squares[-1], squares[0])",
     prop.test_pow_digits_by_square_and_multiply, (25,)),
    ("fused addend without its top coefficient", "kmul",
     "pack(ctx, c, width)", "pack(ctx, c[:-1], width)",
     prop.test_fused_multiply_add, (4,)),
    # the list path is untouched: only a kmul of bytes shifts one slot too far
    ("bytes monomial product shifted by one slot", "kmul",
     "bytes(i) if to_bytes", "bytes(i + 1) if to_bytes",
     prop.test_bytes_operands_on_every_product_path, (3,)),
    # the dense packed product: 16-bit slots one bit past their bound, and
    # a's top coefficient left out
    ("16-bit slots chosen one bit too permissively", "kmul",
     "bound < 1 << _NARROW", "bound < 1 << (_NARROW + 1)",
     prop.test_kmul_at_the_16_bit_bound, (3, 16383)),
    ("dense product without a's top coefficient", "kmul",
     "pack(ctx, a, width) * ", "pack(ctx, a[:-1], width) * ",
     prop.test_kmul_at_the_16_bit_bound, (3, 16383)),
    # the packed gcd's slot bound without B's growth: after a swap at
    # p = 101 a step carries out of a 32-bit slot
    ("gcd slot bound ignoring the other operand's bound", "kgcd",
     "amax += (p - 1) * bmax", "amax += (p - 1) * (p - 1)",
     prop.test_gcd_at_large_p_matches_reference, (101,)),
    ("gcd renormalizing A but not a grown B", "kgcd",
     "if bmax > p - 1:", "if False:",
     prop.test_gcd_at_large_p_matches_reference, (101,)),
    # the orbit sums of `monic_sum`: each orbit size is 2 or 1 mod 3
    ("orbit size factor dropped", "powersums.monic_sum",
     "unit[mul[code][n]]", "unit[code]",
     orbits.test_orbit_sums_match_the_per_monic_loop, (3,)),
    ("kept slots one residue class off", "powersums.monic_sum",
     "(total - sum(e) - degrees.start)", "(total + 1 - sum(e) - degrees.start)",
     orbits.test_orbit_sums_match_the_per_monic_loop, (5,)),
    # at q = 5 the u = -1 images of c_(i-1), ..., c_0 decide d - i = 2
    ("representative test accepting a larger image", "powersums._orbit_size",
     "any(im < rest for im in images)", "any(im < rest[:0] for im in images)",
     orbits.test_orbit_sums_match_the_per_monic_loop, (5,)),
    # Carlitz's recursion for the untwisted power sums: u_i without its sign
    # (seen at odd q), and each q^(i-j) of its exponents one power too high
    ("recursion unit without its sign", "powersums._generated",
     "kern.kneg(ctx, c) if i % 2 else c", "c",
     sums.test_generating_function_recursion_matches_bruteforce, (3,)),
    ("recursion unit exponent one power off", "powersums._generated",
     "q ** (i - j)", "q ** (i - j + 1)",
     sums.test_generating_function_recursion_matches_bruteforce, (4,)),
    # a sum or an equality over incomparable exponents lifts some side by a
    # negative power of a binomial
    ("exponent-wise maximum one short where the exponents differ", "_rawfrac._top",
     "map(max, ", "map(lambda c: max(c) - (min(c) < max(c)), ",
     raw.test_incomparable_denominators_match_ratk, (5,)),
    # the reduced denominator (-1)^copies prod h ell(left): seen where one
    # numerator cancels an odd number of copies at odd q, and where a
    # cofactor other than 1 is cancelled
    ("reduced denominator without its sign", "_rawfrac.RawTPoly.to_tpoly",
     "kern.kneg(ctx, h) if len(hs) % 2 else h", "h",
     raw.test_normalization_at_packed_sizes_matches_ratk, (3,)),
    ("reduced denominator without its shortest cofactor", "_rawfrac.RawTPoly.to_tpoly",
     "sorted(hs, key=len)", "sorted(hs, key=len)[1:] or [[1]]",
     raw.test_normalization_at_packed_sizes_matches_ratk, (5,)),
    # the per-call memo of products and reductions: a product's key without
    # its accumulator, seen where one numerator is lifted onto two unequal
    # sums; a reduction reused for another numerator of the same length
    ("memoized product keyed without its accumulator", "_rawfrac._per_value",
     "key = args if", "key = args[:2] if",
     raw.test_sum_matches_the_left_to_right_sum, (3,)),
    ("reduction reused across numerators of one length", "_rawfrac.RawTPoly.to_tpoly",
     "norm = _per_value(reduced)",
     "norm = (lambda seen: lambda n: seen.setdefault(len(n), reduced(n)))({})",
     raw.test_normalization_at_packed_sizes_matches_ratk, (3,)),
    # seen only where a t-radix is above 1, so at s = 1 and 2, not at s = 0
    ("Tate product radix one short", "tate.TateSeries.__mul__",
     "a + b - 1 for", "a + b - 2 for",
     series.test_arithmetic_matches_dict_oracle, (3, 1)),
]


def mutant(name, fragment, replacement, owner=kern):
    """owner.<name>, a function of a module or a method of a class,
    recompiled with `fragment` replaced, in its module's globals; a
    decorated function gets its decorators anew (an lru_cache its own
    cache)."""
    real = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(real))
    if source.count(fragment) != 1:
        raise LookupError(f"{name} does not hold {fragment!r} exactly once")
    scope = {}
    exec(compile(source.replace(fragment, replacement), f"<mutant {name}>", "exec"),
         inspect.unwrap(real).__globals__, scope)
    return scope[name]


def resolve(dotted):
    """(owner, attribute) of `<module>.<attr>[.<attr>]` under carlitz; a
    plain name is a `_packed` function."""
    module, *path, name = dotted.split(".") if "." in dotted else ("_packed", dotted)
    owner = importlib.import_module(f"carlitz.{module}")
    for attr in path:
        owner = getattr(owner, attr)
    return owner, name


def test_every_kernel_mutation_is_caught():
    missed = []
    for what, dotted, fragment, replacement, test, args in KERNEL_MUTATIONS:
        owner, name = resolve(dotted)
        with pytest.MonkeyPatch.context() as mp:
            test(*args, mp)  # the real code passes
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(owner, name, mutant(name, fragment, replacement, owner))
            try:
                test(*args, mp)
            except Exception:
                continue
        missed.append(f"{what}: {test.__name__}{args}")
    assert missed == []


def _drop_top_weight(mp):
    # the closed side of frak_S is `closed_raw`, which reads the weights
    # through the powersums global
    real = powersums.chain_weights
    mp.setattr(powersums, "chain_weights", lambda cache, n, d: real(cache, n, d)[:-1])


def _closed_raw_mutant(fragment, replacement):
    """A patch putting a `closed_raw` mutant where `checks` calls it."""
    def patch(mp):
        mp.setattr(checks, "closed_raw", mutant("closed_raw", fragment, replacement,
                                                powersums))
    return patch


def _drop_last_variable(mp):
    # the product b_d(t_1) ... b_d(t_q) without its t_q factor
    mp.setattr(checks, "partial_F_one_q", mutant(
        "partial_F_one_q", "range(1, q + 1)", "range(1, q)", powersums))


def _star_plus_one(mp):
    real = skew.partial_zeta

    def partial_zeta(cache, d_max, data, mode="strict", **kw):
        value = real(cache, d_max, data, mode, **kw)
        return value + RawTPoly.one(cache.ctx, data.s) if mode == "star" else value
    mp.setattr(skew, "partial_zeta", partial_zeta)


def _shift_point(mp):
    real = RawTPoly.substitute
    mp.setattr(RawTPoly, "substitute", lambda self, i, value: real(
        self, i, kern.kadd(self.ctx, value, [1])))


def _sieve_one_degree_short(mp):
    # factors only of degree k < d/2: at even d the squares P^2 stay
    # "irreducible"; the mutant keeps its own cache, and `checks` holds
    # the name through its own import
    sieve = mutant("irreducibles_of_degree", "range(1, d // 2 + 1)",
                   "range(1, d // 2)", poly)
    for module in (poly, checks):
        mp.setattr(module, "irreducibles_of_degree", sieve)


def _horner_root_one_power_up(mp):
    # the Horner step multiplies by theta^(q^(i+1)), the root of b_(i+2)
    mp.setattr(powersums, "b_combination", mutant(
        "b_combination", "bytes(ctx.q ** i)", "bytes(ctx.q ** (i + 1))", powersums))


def _first_chain_exponent_dropped(mp):
    # the suffix sums skip e_1 = q^(n-1) - q^(n-2); n = 1 is unchanged
    mp.setattr(powersums, "chain_weights", mutant(
        "chain_weights", "range(1, n)", "range(2, n)", powersums))


def _bg_top_term_dropped(mp):
    # the double sum without its (i, j) = (d, d - 1) term, the dominant block
    mp.setattr(mzv, "_bg_terms", mutant(
        "_bg_terms", "range(i)", "range(i - (i == d))", mzv))


def _tate_mutant(name, fragment, replacement):
    """A patch putting a mutant of the `tate` function name where the
    valuation checks look it up, at call time."""
    def patch(mp):
        mp.setattr(tate, name, mutant(name, fragment, replacement, tate))
    return patch


def _divisor_sum_from_one(mp):
    # the truncated weight-one sum without its i = 0 term, 1/ell(0) = 1;
    # `checks` holds the name through its own import
    survey = mutant("bg_congruence_survey", "for i in range(d)", "for i in range(1, d)", mzv)
    for module in (mzv, checks):
        mp.setattr(module, "bg_congruence_survey", survey)


# (check id, what the perturbation breaks, its patch, a witness fragment)
CHECK_CONTROLS = [
    ("eq-e1", "the denominator's exponent one off",
     _closed_raw_mutant("den = (n,) * d", "den = (n + 1,) * d"),
     "q=3 d=1: closed"),
    ("eq-e2", "b_d(t) squared",
     _closed_raw_mutant("_in_var(ctx, s, v[0], coeffs).num",
                        "(_in_var(ctx, s, v[0], coeffs) ** 2).num"), "q=3 d=1: closed"),
    ("eq-e3", "the mirrored coefficient t_i^b t_j^a dropped",
     _closed_raw_mutant("((a, b), (b, a))", "((a, b),)"), "q=3 d=1: closed"),
    ("eq-f2", "b_d in place of its Frobenius twist",
     _closed_raw_mutant('cache.tb_coeffs(d) if form == "f2"',
                        'cache.b_coeffs(d) if form == "f2"'), "q=3 d=1: closed"),
    ("eq-f3", "the sign of (theta^(q^d) - theta)^2 flipped",
     _closed_raw_mutant("kern.kneg(ctx, ell_product(ctx, (0,) * (d - 1) + (2,)))",
                        "ell_product(ctx, (0,) * (d - 1) + (2,))"), "q=3 d=1: closed"),
    ("eq-Fdq", "the t_q factor of the product dropped", _drop_last_variable,
     "q=3 d=1: product form != enumerated sum"),
    ("cor-noncommide", "the top chain weight dropped", _drop_top_weight,
     "chain closed form disagrees with enumeration"),
    ("star-chain", "the star value plus one", _star_plus_one, "broken links"),
    ("eq-annals", "t_1 := theta + 1, theta^q + 1", _shift_point,
     "specialization sub-checks failed"),
    ("necklace-bound", "the sieve one factor degree short", _sieve_one_degree_short,
     "irreducible count != necklace value"),
    ("lemma-tau-b", "the Horner root one Frobenius power up", _horner_root_one_power_up,
     "expansion differs"),
    ("prop4", "the first chain exponent dropped", _first_chain_exponent_dropped,
     "chain expansion differs"),
    ("thm-formulaBG", "the (d, d-1) term of the double sum dropped", _bg_top_term_dropped,
     "d=2: θ^3 + 2*θ + 1 != 1"),
    ("thm-exactdegree", "the (d, d-1) term of the double sum dropped", _bg_top_term_dropped,
     "block degrees off"),
    ("cor-TAOD", "the i = 0 term of the divisor sum dropped", _divisor_sum_from_one,
     "fails at P ="),
    ("family-qk", "zeta(q^k - 1, q^k) dropped from the right side",
     _tate_mutant("family_qk_check", "(zc + zd)", "(zc)"),
     "2 below threshold; worst achieved 6 vs 25"),
    ("thakur-thm5", "the scale (theta - theta^q)^(-m) one power further",
     _tate_mutant("thakur_weight_check", "cache.ell(1) ** m", "cache.ell(1) ** (m + 1)"),
     "worst achieved 3 vs 25"),
    ("strange-shuffle", "one of the two subtracted pairs dropped",
     _tate_mutant("strange_shuffle_check", "((big - low, big - 1), (big - 1, big - low))",
                  "((big - 1, big - low),)"), "worst achieved 6 vs 25"),
    ("strange-shuffle", "one of the two added pairs dropped",
     _tate_mutant("strange_shuffle_check", "((big, big - low - 1), (big - low - 1, big))",
                  "((big - low - 1, big),)"), "worst achieved 9 vs 25"),
]


def test_every_check_has_a_control():
    controlled = {c[0] for c in CHECK_CONTROLS} | {c for c, _ in ROW_CHECKS}
    assert controlled == set(checks.REGISTRY)


@pytest.mark.parametrize("check_id,what,patch,witness", CHECK_CONTROLS,
                         ids=[c[0] for c in CHECK_CONTROLS])
def test_check_control_turns_pass_into_fail(check_id, what, patch, witness):
    assert run_check(check_id, d_max=2).status == "pass"
    with pytest.MonkeyPatch.context() as mp:
        patch(mp)
        rep = run_check(check_id, d_max=2)
    assert (rep.status, witness in rep.witness) == ("fail", True), (what, rep.witness)
    # no mutant value is left in a cache that outlives the run
    assert run_check(check_id, d_max=2).status == "pass"


def _terms(side):
    """A side of a row as [(sign, term text)]: the rows put spaces around a
    + or - between terms, and none inside an order q-1."""
    first, *rest = re.split(r"\s([+-])\s", side.strip())
    head = ("-", first[1:].strip()) if first.startswith("-") else ("+", first)
    return [head, *zip(rest[::2], rest[1::2])]


def _text(terms):
    return " ".join(f"{sign} {t}" if i else ("-" + t if sign == "-" else t)
                    for i, (sign, t) in enumerate(terms))


def row_variants(row):
    """(what changed, the row changed, its side, that side's terms) for each
    term of the row with its sign flipped and, on a side of two or more
    terms, for each term dropped."""
    sides = [_terms(side) for side in row.split("=")]
    for i, terms in enumerate(sides):
        for j, (sign, t) in enumerate(terms):
            flipped = ("+" if sign == "-" else "-", t)
            changes = [(f"{t} flipped", terms[:j] + [flipped] + terms[j + 1:])]
            if len(terms) > 1:
                changes.append((f"{t} dropped", terms[:j] + terms[j + 1:]))
            for what, new in changes:
                text = " = ".join(_text(new if k == i else s) for k, s in enumerate(sides))
                yield what, text, i, new


# (check id, the row it evaluates), remark-nu's own row included
ROW_CHECKS = [*checks.ROWS.items(), ("remark-nu", "remark-nu")]


def test_row_variants_parse_as_built():
    # the text surgery above agrees with the parser on every variant
    count = 0
    for _, row_id in ROW_CHECKS:
        for _, text, side, terms in row_variants(shuffle.IDENTITIES[row_id]):
            parsed = shuffle.parse_row(text, 3)[side]
            assert [c < 0 for c, _ in parsed] == [sign == "-" for sign, _ in terms], text
            count += 1
    assert count == 96  # the 85 variants of the 13 rows, and thm-formulas-5's again


# q = 3: in characteristic 2 a flipped sign changes nothing
@pytest.mark.parametrize("check_id,row_id", ROW_CHECKS, ids=[c for c, _ in ROW_CHECKS])
def test_row_controls_turn_pass_into_fail(check_id, row_id):
    assert run_check(check_id, qs=(3,), d_max=2).status == "pass"
    missed = []
    for what, text, _, _ in row_variants(shuffle.IDENTITIES[row_id]):
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(shuffle.IDENTITIES, row_id, text)
            rep = run_check(check_id, qs=(3,), d_max=2)
        if rep.status != "fail" or "sides differ" not in rep.witness:
            missed.append(f"{what}: {rep.status} {rep.witness}")
    assert missed == []
    assert run_check(check_id, qs=(3,), d_max=2).status == "pass"
