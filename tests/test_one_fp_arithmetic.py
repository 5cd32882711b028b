"""F_p[t] arithmetic runs on one kernel: ``ModPoly`` stays a value type."""

import ast
from pathlib import Path

POLYNOMIALS = Path(__file__).resolve().parents[1] / "src" / "covercalc" / "polynomials.py"

ARITHMETIC = {"__add__", "__sub__", "__mul__", "__divmod__", "__floordiv__", "__mod__", "monic"}


def test_modpoly_defines_no_arithmetic():
    tree = ast.parse(POLYNOMIALS.read_text(encoding="utf-8"), filename=str(POLYNOMIALS))
    (modpoly,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ModPoly"]
    defined = set()
    for node in modpoly.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
    assert "reduce" in defined  # the class was found and read
    assert not defined & ARITHMETIC, sorted(defined & ARITHMETIC)
