"""Every memo has one owner: the SeqCache.  Power sums, their chain sums
and their series are computed once per cache and kept in its tagged
tables; no other module reaches into the cache, and the shuffle engine
keeps nothing but its semi-character keys."""

import ast
import importlib
import inspect
import pkgutil

import carlitz
from carlitz import shuffle
from carlitz.powersums import SemiChar, SeqCache, power_sum_raw


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
        for fn in (shuffle.product_weight_one_joint, shuffle.per_degree_split,
                   shuffle.weight_q_product, shuffle.star_bridge):
            lhs, rhs = fn(eng, d)
            assert lhs.equals(rhs)
    dicts = [v for v in vars(eng).values() if isinstance(v, dict)]
    assert dicts == [eng._chars]
    assert sorted(eng._chars) == ["nu", "one", "p", "s", "sp"]
    assert all(isinstance(v, SemiChar) for v in eng._chars.values())
    # the chain sums went into the cache instead
    assert cache.table("shuffle chains")


def test_engine_power_sum_is_the_cached_one(ctx3):
    ctx = ctx3
    cache = SeqCache(ctx)
    eng = shuffle.ShuffleEngine(cache)
    for key, sigma in (("s", SemiChar.chi(ctx, 2, 1)), ("one", SemiChar.trivial(ctx, 2)),
                       ("sp", SemiChar(ctx, 2, varis=(1, 2)))):
        got = eng.S(2, 1, key)
        assert got is power_sum_raw(cache, 2, 1, sigma)
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
    power_sum_raw(cache, 2, 1, SemiChar.chi(ctx3, 1, 1))
    assert sorted(vars(cache)) == ["_tables", "budget", "ctx"]
    assert {"theta_q", "ell", "b", "tb", "ell_ratio", "raw"} <= set(cache._tables)
