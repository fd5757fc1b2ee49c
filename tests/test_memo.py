"""Every memo has one owner: the SeqCache.  Power sums, their chain sums
and their series are computed once per cache and kept in its tagged
tables, none of them normalized; no other module reaches into the cache,
and the shuffle engine keeps nothing but its semi-character keys."""

import ast
import gc
import importlib
import inspect
import pkgutil
import weakref

import carlitz
from carlitz import checks, shuffle
from carlitz.ffield import FieldContext
from carlitz.mzv import MatrixData, bernoulli_goss
from carlitz.poly import RatK
from carlitz.powersums import SemiChar, SeqCache, power_sum
from carlitz.tate import zeta_series
from carlitz.textio import parse_matrix_data
from carlitz.tpoly import TPoly


def _private_cache_reads(tree):
    """(line, attribute) of every `<...>cache._name` in the syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
            if name.endswith("cache"):
                yield node.lineno, node.attr


def test_only_powersums_reads_the_cache_privately():
    found = []
    for info in pkgutil.iter_modules(carlitz.__path__):
        if info.name == "powersums":
            continue
        mod = importlib.import_module(f"carlitz.{info.name}")
        tree = ast.parse(inspect.getsource(mod))
        found += [(info.name, line, attr) for line, attr in _private_cache_reads(tree)]
    assert found == []


def test_the_scan_sees_a_private_read():
    tree = ast.parse("v = cache._tables\nw = self.cache._x\nu = cache.memo")
    assert [attr for _, attr in _private_cache_reads(tree)] == ["_tables", "_x"]


def test_shuffle_engine_keeps_no_memo(ctx3):
    cache = SeqCache(ctx3)
    eng = shuffle.ShuffleEngine(cache)
    for d in range(4):
        for row_id in ("thm-formulas-5", "eq-formulabis", "thakur-thm1", "star-bridge"):
            lhs, rhs = shuffle.sides(eng, d, shuffle.IDENTITIES[row_id])
            assert lhs.equals(rhs)
    dicts = [v for v in vars(eng).values() if isinstance(v, dict)]
    assert dicts == [eng._chars]
    assert sorted(eng._chars) == ["nu", "one", "p", "s", "sp"]
    assert all(isinstance(v, SemiChar) for v in eng._chars.values())
    # the chain sums went into the cache instead
    assert cache.table("shuffle chains")



def test_a_dropped_engine_is_freed_at_once(ctx3):
    # no reference cycle: a run's engines and caches go with its pool, not
    # at the next full garbage collection
    eng = shuffle.ShuffleEngine(SeqCache(ctx3))
    shuffle.sides(eng, 2, shuffle.IDENTITIES["thm-formulas-5"])
    ref = weakref.ref(eng)
    gc.disable()
    try:
        del eng
        assert ref() is None
    finally:
        gc.enable()


def test_engine_power_sum_is_the_cached_one(ctx3):
    ctx = ctx3
    cache = SeqCache(ctx)
    eng = shuffle.ShuffleEngine(cache)
    for key, sigma in (("s", SemiChar.chi(ctx, 2, 1)), ("one", SemiChar.trivial(ctx, 2)),
                       ("sp", SemiChar(ctx, 2, varis=(1, 2)))):
        got = eng.S(2, 1, key)
        assert got is power_sum(cache, 2, 1, sigma)
        assert got is eng.S(2, 1, key)


def test_memo_computes_once_per_tag_and_key(ctx3):
    cache = SeqCache(ctx3)
    calls = []

    def make():
        calls.append(1)
        return object()

    first = cache.memo("probe", 1, make)
    assert cache.memo("probe", 1, make) is first
    assert cache.memo("probe", 2, make) is not first
    assert cache.memo("other probe", 1, make) is not first
    assert len(calls) == 3
    assert cache.table("probe") == {1: first, 2: cache.memo("probe", 2, make)}


def test_the_cache_holds_nothing_but_its_tables(ctx3):
    cache = SeqCache(ctx3)
    cache.ell(4), cache.b_coeffs(3), cache.tb_coeffs(2), cache.ell_ratio(3, 1)
    power_sum(cache, 2, 1, SemiChar.chi(ctx3, 1, 1))
    assert sorted(vars(cache)) == ["_tables", "budget", "ctx"]
    assert {"b", "tb", "raw"} <= set(cache._tables)
    # ell(4) and ell(3)/ell(1) live in the field context's ell products only
    assert not set(cache._tables) & ELL_TAGS
    assert {(1, 1, 1, 1), (0, 1, 1)} <= set(ctx3._ell_products)


# the tags of the ell tables that `_rawfrac.ell_product` replaced
ELL_TAGS = {"theta_q", "ell", "ell_ratio", "ell_pow"}


def _held(value):
    """value and everything inside it: the items of containers and the
    slots of carlitz objects, field contexts left out."""
    stack = [value]
    while stack:
        v = stack.pop()
        yield v
        if isinstance(v, dict):
            stack += v.values()
        elif isinstance(v, (list, tuple)):
            stack += v
        elif type(v).__module__.startswith("carlitz") and not isinstance(v, FieldContext):
            stack += [getattr(v, a) for a in getattr(type(v), "__slots__", ())
                      if a != "ctx" and hasattr(v, a)]


def _normalized_tables(cache):
    return sorted({str(tag) for tag, table in cache._tables.items()
                   for v in _held(table) if isinstance(v, (TPoly, RatK))})


def test_no_memo_holds_a_normalized_value():
    # every cache of a default-suite run
    pool = checks._Pool(checks.DEFAULT_PARAMS["budget"])
    for check_id in sorted(checks.REGISTRY):
        assert checks.run_check(check_id, pool=pool).status == "pass", check_id
    stores = pool._stores
    assert sorted(stores) == [3, 4] and "series" in stores[3][1]._tables
    for _, cache, _ in stores.values():
        assert _normalized_tables(cache) == []
        assert not set(cache._tables) & ELL_TAGS
    # a q = 4 cache after the Tate series (closed forms and enumeration)
    # and the Bernoulli-Goss sums
    ctx = FieldContext(4)
    cache = SeqCache(ctx)
    for text in ("t1:1", "t1:2", "1:1,1:3", "t1*t2:1", "nu1:1"):
        zeta_series(cache, parse_matrix_data(ctx, text), 12)
    zeta_series(cache, MatrixData.untwisted(ctx, (4,)), 12)
    for n in (5, 14):
        bernoulli_goss(cache, n)
    assert {"raw", "series"} <= set(cache._tables)
    assert _normalized_tables(cache) == []


def test_the_walk_sees_a_normalized_value(ctx3):
    cache = SeqCache(ctx3)
    cache.memo("probe", 1, lambda: (RatK.one(ctx3),))
    cache.memo("probe", 2, lambda: {"x": [TPoly.one(ctx3, 1)]})
    assert _normalized_tables(cache) == ["probe"]
