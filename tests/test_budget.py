"""The enumeration budget has one owner: the SeqCache (and, for a verify
run, the _Pool that builds the caches).  No other function takes it, one
driver alone holds the registry's grid points against it, and the checks
name each point whose enumeration would exceed it."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import carlitz
from carlitz import checks
from carlitz.errors import InvalidParams
from carlitz.mzv import MatrixData, partial_zeta

# SeqCache and _Pool hold the budget, BudgetExceeded reports it, and
# partial_zeta accepts it only to check that it equals the cache's
_OWNERS = {"SeqCache", "_Pool", "BudgetExceeded", "partial_zeta"}


def _callables():
    for info in pkgutil.iter_modules(carlitz.__path__):
        mod = importlib.import_module(f"carlitz.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__ or name in _OWNERS:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, raw in vars(obj).items():
                    fn = getattr(raw, "__func__", raw)
                    if inspect.isfunction(fn):
                        yield f"{mod.__name__}.{name}.{attr}", fn


def test_only_the_cache_takes_a_budget():
    takers = [name for name, fn in _callables()
              if "budget" in inspect.signature(fn).parameters]
    assert takers == []


def _driver_reads(node, where, out):
    """(function, what) for each read of the q list (`params["qs"]`) or of
    a budget attribute (`pool.budget`) under node, by innermost function."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        where = getattr(node, "name", "<lambda>")
    if isinstance(getattr(node, "ctx", None), ast.Load):
        if isinstance(node, ast.Subscript) and getattr(node.slice, "value", None) == "qs":
            out.add((where, "qs"))
        if isinstance(node, ast.Attribute) and node.attr == "budget":
            out.add((where, "budget"))
    for child in ast.iter_child_nodes(node):
        _driver_reads(child, where, out)
    return out


def test_only_the_driver_reads_the_q_list_and_the_budget():
    # besides the driver, _Pool.get builds each cache at the pool's budget,
    # and run_check reads that budget only to check that it is the run's
    reads = _driver_reads(ast.parse(inspect.getsource(checks)), "<module>", set())
    assert reads == {("_walk", "qs"), ("_walk", "budget"), ("get", "budget"),
                     ("run_check", "budget")}


def test_partial_zeta_rejects_a_second_budget(cache3):
    data = MatrixData.untwisted(cache3.ctx, (1,))
    assert partial_zeta(cache3, 2, data, budget=cache3.budget) == \
        partial_zeta(cache3, 2, data)
    with pytest.raises(InvalidParams):
        partial_zeta(cache3, 2, data, budget=cache3.budget + 1)


def test_run_check_rejects_a_pool_of_another_budget():
    with pytest.raises(InvalidParams):
        checks.run_check("eq-e1", pool=checks._Pool(100), budget=200)


def test_formula_bg_tests_the_largest_enumeration():
    # BG_(3^3 - 2) enumerates degrees up to 4: 81 monics, within 100
    rep = checks.run_check("thm-formulaBG", qs=(3,), budget=100)
    assert (rep.status, rep.witness) == ("pass", "3 cases exact; over budget: q=3 d=4")


@pytest.mark.parametrize("cid, witness", [
    ("cor-noncommide", "8 cases exact; degree zero excluded by design; over budget: "
                       "q=3 n=1 d=3, q=3 n=1 d=4, q=3 n=2 d=3, q=3 n=2 d=4, "
                       "q=4 n=1 d=3, q=4 n=2 d=3"),
    ("eq-Fdq", "6 cases exact; over budget: q=3 d=3, q=4 d=3"),
])
def test_enumerating_checks_name_points_over_budget(cid, witness):
    rep = checks.run_check(cid, budget=20)
    assert (rep.status, rep.witness) == ("pass", witness)


@pytest.mark.parametrize("cid, budget, status, witness", [
    ("family-qk", 20, "skipped", "no case ran at these parameters; over budget: "
                                 "q=3 k=1, q=3 k=2"),
    ("thakur-thm5", 20, "pass", "1 identities beyond threshold; over budget: q=3 m=2"),
    ("strange-shuffle", 20, "skipped", "no case ran at these parameters; over budget: "
                                       "q=3 h=0 k=1, q=3 h=1 k=1"),
    ("strange-shuffle", 50, "pass", "1 identities beyond threshold; over budget: "
                                    "q=3 h=0 k=1"),
])
def test_valuation_checks_name_identities_over_budget(cid, budget, status, witness):
    # family-qk and thakur-thm5 enumerate 27 monics, strange-shuffle 81
    rep = checks.run_check(cid, budget=budget)
    assert (rep.status, rep.witness) == (status, witness)
