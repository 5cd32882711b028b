"""Code lines of each module of ``src/covercalc`` and their total.

A code line is a line that is not blank, not a comment alone and not inside
a docstring (the string that opens a module, class or function body).

    python tests/code_lines.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "covercalc"


def code_lines(text: str) -> int:
    docstring = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for i, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and i not in docstring
    )


def main() -> int:
    counts = {
        path.name: code_lines(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))
    }
    width = len(str(sum(counts.values())))
    for name, n in counts.items():
        print(f"{n:>{width}}  {name}")
    print(f"{sum(counts.values()):>{width}}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
