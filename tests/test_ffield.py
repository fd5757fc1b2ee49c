import pytest
from hypothesis import given, settings, strategies as st

from carlitz.errors import CarlitzError, FieldConstructionError
from carlitz.ffield import FieldContext, FqElem

SUPPORTED = [3, 4, 5, 7, 8, 9, 16, 25, 27]


def test_q2_rejected_with_reason():
    with pytest.raises(FieldConstructionError, match="q > 2"):
        FieldContext(2)


def test_non_prime_power_rejected():
    for q in (6, 12, 15):
        with pytest.raises(FieldConstructionError):
            FieldContext(q)


def test_bad_modulus_rejected():
    for q, modulus in [
            (9, (2, 0, 1)),        # x^2 + 2 = (x + 1)(x + 2) over F_3
            (4, (1, 0, 1)),        # x^2 + 1 = (x + 1)^2 over F_2
            (25, (4, 0, 1)),       # x^2 - 1 over F_5
            (8, (1, 0, 0, 1)),     # x^3 + 1 = (x + 1)(x^2 + x + 1) over F_2
            (27, (2, 0, 0, 1)),    # x^3 + 2 = (x + 2)^3 over F_3
            (27, (0, 1, 1, 1)),    # x (x^2 + x + 1) over F_3
            (9, (2, 2, 2)),        # 2 (x + 2)^2 over F_3, not monic
            (16, (1, 0, 1, 0, 1))]:  # (x^2 + x + 1)^2 over F_2
        with pytest.raises(FieldConstructionError, match="is not irreducible"):
            FieldContext(q, modulus=modulus)
    with pytest.raises(FieldConstructionError, match="degree"):
        FieldContext(9, modulus=(1, 1))


def test_custom_modulus_accepted():
    # x^2 + x + 2 is irreducible over F_3
    ctx = FieldContext(9, modulus=(2, 1, 1))
    a = ctx.element((0, 1))  # x
    assert (a * a).coords == (1, 2)  # x^2 = -x - 2 = 2x + 1
    # 2x^2 + x + 1 = 2 (x^2 + 2x + 2) is irreducible but not monic: it
    # spans the same ideal as its monic multiple, so the tables agree
    skew = FieldContext(9, modulus=(1, 1, 2))
    monic = FieldContext(9, modulus=(2, 2, 1))
    assert skew.modulus == (1, 1, 2)
    assert (skew.add, skew.mul, skew.inv, skew._fold) == \
        (monic.add, monic.mul, monic.inv, monic._fold)
    x = skew.element((0, 1))
    assert (x * x).coords == (1, 1)  # x^2 = -2x - 2 = x + 1


@pytest.mark.parametrize("q,modulus", [(4, None), (8, None), (9, None),
                                       (9, (2, 1, 1)), (9, (1, 1, 2)),
                                       (16, None), (25, None), (27, None),
                                       (49, (3, 1, 1))])
def test_product_table_is_the_polynomial_product_mod_the_modulus(q, modulus):
    # an independent route: schoolbook product and remainder in F_p[x]
    ctx = FieldContext(q, modulus)
    p, m = ctx.p, ctx.modulus
    e, inv_lead = len(m) - 1, pow(m[-1], p - 2, p)
    for a in range(q):
        for b in range(a, q):
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(ctx.digits[a]):
                for j, y in enumerate(ctx.digits[b]):
                    prod[i + j] += x * y
            for top in range(2 * e - 2, e - 1, -1):
                c = prod[top] * inv_lead
                for j, mj in enumerate(m):
                    prod[top - e + j] -= c * mj
            assert ctx.mul[a][b] == ctx.element(prod[:e]).code


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive_small(q):
    ctx = FieldContext(q)
    els = range(q)
    for a in els:
        assert ctx.add[a][0] == a
        assert ctx.mul[a][1] == a
        assert ctx.add[a][ctx.neg[a]] == 0
        if a:
            assert ctx.mul[a][ctx.inv[a]] == 1
        # Frobenius fixes F_q pointwise: a^q = a
        assert ctx.epow(a, q) == a
    if q <= 9:
        for a in els:
            for b in els:
                assert ctx.add[a][b] == ctx.add[b][a]
                assert ctx.mul[a][b] == ctx.mul[b][a]
                for c in els:
                    assert ctx.mul[a][ctx.add[b][c]] == \
                        ctx.add[ctx.mul[a][b]][ctx.mul[a][c]]


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_prime_field_tables_are_a_field(p):
    ctx = FieldContext(p)
    add, mul = ctx.add, ctx.mul
    els = range(p)
    for a in els:
        assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
        assert add[a][ctx.neg[a]] == 0
        if a:
            assert mul[a][ctx.inv[a]] == 1
        for b in els:
            assert add[a][b] == add[b][a] and mul[a][b] == mul[b][a]
            for c in (els if p < 101 else (1, 2, 50, 100)):
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_f4_known_table():
    ctx = FieldContext(4)
    x = ctx.element((0, 1))
    assert (x * x).coords == (1, 1)       # x^2 = x + 1
    assert (x * x * x).code == 1          # x^3 = 1
    assert (x + x).code == 0              # characteristic 2


def test_element_ops_and_errors(ctx3, ctx5):
    a = ctx3.element(2)
    b = ctx3.element(1)
    assert (a + b).code == 0
    assert (a * a).code == 1
    assert (a / a).code == 1
    assert (-a).code == 1
    assert a ** -1 == a.__pow__(-1)
    zero = ctx3.element(0)
    for divide in (lambda: a / zero, lambda: zero ** -1):
        with pytest.raises(ZeroDivisionError) as err:
            divide()
        assert isinstance(err.value, CarlitzError)
    with pytest.raises(FieldConstructionError):
        a + ctx5.element(2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 9, 25]), st.data())
def test_pow_matches_repeated_multiplication(q, data):
    ctx = FieldContext(q)
    a = data.draw(st.integers(0, q - 1))
    n = data.draw(st.integers(0, 12))
    expected = 1
    for _ in range(n):
        expected = ctx.mul[expected][a]
    assert ctx.epow(a, n) == expected


def test_context_equality_and_elements_order(ctx3):
    assert FieldContext(3) == ctx3
    assert FieldContext(4) != ctx3
    assert [e.code for e in ctx3.elements()] == [0, 1, 2]
    assert repr(FieldContext(4).element(3)) == "[x + 1]"


@pytest.mark.parametrize("q,modulus", [(4, None), (8, None), (9, None),
                                       (9, (2, 1, 1)), (16, None),
                                       (25, None), (27, None)])
def test_fold_table_exhaustive(q, modulus):
    # _fold[sum d_j p^j] over the 2e-1 digits of a packed product slot is
    # sum d_j x^j, evaluated here with the element tables (code p is x)
    ctx = FieldContext(q, modulus)
    p, e = ctx.p, ctx.e
    assert ctx.element((0, 1)).code == p
    xpow = [ctx.epow(p, j) for j in range(2 * e - 1)]
    assert len(ctx._fold) == p ** (2 * e - 1)
    for idx, code in enumerate(ctx._fold):
        acc, m = 0, idx
        for xj in xpow:
            acc = ctx.add[acc][ctx.mul[m % p][xj]]
            m //= p
        assert code == acc, idx
