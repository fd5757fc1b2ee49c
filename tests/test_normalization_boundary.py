"""Identity checks compare unreduced RawTPoly fractions.  A RawTPoly is
normalized into a TPoly over K only where a power sum leaves for output,
so only the functions named here may call `to_tpoly`, and the check
registry never touches the normalized types."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "carlitz"

NORMALIZERS = {"power_sum", "power_sum_closed", "frak_S_bruteforce",
               "multi_power_sum", "partial_zeta", "RawTPoly.__repr__"}


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
    imported = {alias.asname or alias.name
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    assert imported & {"TPoly", "RatK"} == set()
