"""README.md against the code: its command-line examples, compared as full
text, and its table of memo caches.

In a README code block, a line ``$ covercalc ARGS`` is an example, and the
lines after it, up to a blank line or the next ``$`` line, are its output.
A line ``...`` stands for any run of elided lines.  An example that ends in
``; echo $?`` prints its exit code after its output; any other exits 0.
Each runs in process through ``cli.run`` over the bundled table.
"""

import contextlib
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import covercalc
from covercalc.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"
ECHO = "; echo $?"


def examples() -> list[tuple[str, list[str]]]:
    found, current = [], None
    for block in README.read_text(encoding="utf-8").split("```")[1::2]:
        for line in block.splitlines():
            if line.startswith("$ covercalc "):
                current = (line.removeprefix("$ covercalc "), [])
                found.append(current)
            elif not line or line.startswith("$"):
                current = None
            elif current:
                current[1].append(line)
        current = None
    return found


def test_readme_has_its_examples():
    assert [command for command, _ in examples()] == [
        "cover 3_1 --n 2..6",
        "skp 3_1 -p 2",
        "obstruct 4_1 3_1 --strict; echo $?",
        "filter granny",
    ]


@pytest.mark.parametrize("command, expected", examples(), ids=[c for c, _ in examples()])
def test_readme_example_prints_what_the_readme_shows(command, expected, monkeypatch):
    monkeypatch.delenv("COVERCALC_TABLE", raising=False)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(shlex.split(command.removesuffix(ECHO)), out=out)
    text = out.getvalue() + (f"{code}\n" if command.endswith(ECHO) else "")
    pattern = "".join("(?:.*\n)*" if line == "..." else re.escape(line + "\n") for line in expected)
    assert re.fullmatch(pattern, text), text
    assert err.getvalue() == ""
    assert command.endswith(ECHO) or code == 0


def test_readme_cache_table_names_every_memo_cache():
    # each module-level lru_cache of the package by its own function name,
    # and the cover-order dict
    text = README.read_text(encoding="utf-8")
    start = text.index("| invariant | computed by | key |")
    named = set(re.findall(r"`([^`]+)`", text[start:text.index("\n\n", start)]))
    modules = [importlib.import_module(f"covercalc.{m.name}") for m in pkgutil.iter_modules(covercalc.__path__)]
    caches = {name for module in modules for name, f in vars(module).items()
              if hasattr(f, "cache_info") and f.__module__ == module.__name__}
    assert len(caches) == 12 and caches | {"_orders"} <= named, caches - named
