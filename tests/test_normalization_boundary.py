"""Identity checks compare unreduced RawTPoly fractions.  A RawTPoly is
normalized into a TPoly over K only where a value leaves for output (the
memoized `power_sum` stays raw), so only the functions named here may
call `to_tpoly`, the check registry
never touches the normalized types, and the skew and Tate-series checks
that compare exact values take them raw."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "carlitz"

NORMALIZERS = {"power_sum_closed", "multi_power_sum", "partial_zeta", "RawTPoly.__repr__"}

# module -> the functions in it that compare exact values: each takes its
# zeta values raw, and normalizes, reads into K or substitutes none
RAW_CHECKS = {"skew.py": {"frak_S", "star_chain_check"}, "tate.py": {"annals_check"}}


def _callers(tree, attr):
    """Qualified names of the functions (and classes) holding a call of
    `<expr>.attr(...)`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr == attr):
                found.append(".".join(scope) or "<module>")
            visit(child, inner)

    visit(tree, ())
    return found


def test_only_the_output_points_normalize():
    stray = [f"{path.name}:{name}"
             for path in sorted(SRC.glob("*.py"))
             for name in _callers(ast.parse(path.read_text(encoding="utf-8")),
                                  "to_tpoly")
             if name not in NORMALIZERS]
    assert stray == []


def test_checks_import_no_normalized_type():
    tree = ast.parse((SRC / "checks.py").read_text(encoding="utf-8"))
    assert _imported(tree) & {"TPoly", "RatK"} == set()


def _imported(tree):
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names}


def test_skew_imports_no_tpoly():
    tree = ast.parse((SRC / "skew.py").read_text(encoding="utf-8"))
    assert _imported(tree) & {"TPoly", "tpoly"} == set()


def _callee(call):
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _raw_zeta(node):
    """Whether node is a partial_zeta / multi_power_sum call with raw=True."""
    return (isinstance(node, ast.Call)
            and _callee(node) in ("partial_zeta", "multi_power_sum")
            and any(k.arg == "raw" and getattr(k.value, "value", None) is True
                    for k in node.keywords))


def test_exact_checks_compare_raw_values():
    stray, seen = [], set()
    for module, names in RAW_CHECKS.items():
        tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name in names):
                continue
            seen.add(fn.name)
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                callee = _callee(node)
                if (callee in ("to_tpoly", "as_ratk")
                        or callee in ("partial_zeta", "multi_power_sum")
                        and not _raw_zeta(node)
                        or callee == "substitute" and not _raw_zeta(node.func.value)):
                    stray.append(f"{module}:{fn.name}:{node.lineno} {callee}")
    assert seen == set().union(*RAW_CHECKS.values())
    assert stray == []
