"""The runtime imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "covercalc"


def _absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_imports_only_the_standard_library():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    for path in modules:
        for name in _absolute_imports(path):
            top = name.partition(".")[0]
            assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
            # exact arithmetic stays in Z; rational references live in tests/oracles.py
            assert top != "fractions", f"{path.name} imports {name}"
