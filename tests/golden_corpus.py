"""The golden CLI corpus: one sha256 per command line, in ``golden/*.sha256``.

Each command line runs in process through ``cli.run`` over the bundled
table, from the repository root, so a file argument is a path relative to
it (the ``samples_*.json`` files beside the corpus); its digest is the
sha256 of the JSON text of [exit code, stdout, stderr].  A line of a corpus
file is ``<digest>  <command line>``.

    python tests/golden_corpus.py          # print the lines whose output changed;
                                           # exit 1 if there are any
    python tests/golden_corpus.py --write  # rewrite the corpus files

A change that alters CLI output rewrites the corpus and lists the printed
lines in its change notes; ``test_golden.py`` holds every line in tier 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from covercalc import bundled_table, cli  # noqa: E402


def cover_commands() -> list[list[str]]:
    out = []
    for name in (k.name for k in bundled_table()):
        for args in (["--n", "1..400", "-p", "2", "-p", "3"], ["--n", "997"], ["--n", "2048", "-p", "3"]):
            out += [["cover", name, *args], ["cover", name, *args, "--json"]]
    return out


def obstruct_commands() -> list[list[str]]:
    names = [k.name for k in bundled_table()]
    out = []
    for j in names:
        for k in names:
            for args in ([], ["-p", "7", "-p", "2", "--max-n", "40"]):
                out += [["obstruct", j, k, *args], ["obstruct", j, k, *args, "--json"]]
    return out


def per_knot_commands() -> list[list[str]]:
    out = []
    for name in (k.name for k in bundled_table()):
        for argv in (["filter", name], ["skp", name, "-p", "5"], ["bounds", name]):
            out += [argv, [*argv, "--json"]]
    return out


def error_commands() -> list[list[str]]:
    psi13 = "3317044064679887385961981"  # composite, a strong pseudoprime to every prime base <= 41
    argvs = [
        ["cover", "3_1", "--n", "0"],
        ["cover", "3_1", "--n", "2", "-p", "4"],
        ["skp", "3_1", "-p", "4"],
        ["obstruct", "3_1", "4_1", "-p", "4"],
        ["cover", "3_1", "--n", "2", "-p", psi13],
        ["skp", "3_1", "-p", psi13],
        ["obstruct", "3_1", "4_1", "-p", psi13],
        ["cover", "9_99", "--n", "2"],
        ["skp", "9_99", "-p", "2"],
        ["obstruct", "3_1", "9_99"],
        ["filter", "9_99"],
        ["bounds", "9_99"],
        ["obstruct", "3_1", "4_1", "--max-n", "0"],
        ["bounds", "3_1", "--delta", "1"],
    ]
    return [a for argv in argvs for a in (argv, [*argv, "--json"])]


def table_commands() -> list[list[str]]:
    return [[*argv, *j] for argv in (["table", "list"], ["table", "check"]) for j in ([], ["--json"])]


def bounds_commands() -> list[list[str]]:
    # delta 20 and 21 sit on both sides of bounds._EXACT_FACTORIAL_LIMIT
    argvs = [
        ["bounds", "3_1", "--genus", str(g), "--delta", str(d)]
        for g in (1, 2, 5, 25)
        for d in (2, 8, 20, 21, 40)
    ]
    samples = sorted(GOLDEN.glob("samples_*.json"))
    argvs += [["bounds", "4_1", "--samples", path.relative_to(ROOT).as_posix()] for path in samples]
    return [a for argv in argvs for a in (argv, [*argv, "--json"])]


CORPUS = {
    "cover": cover_commands,
    "obstruct": obstruct_commands,
    "per_knot": per_knot_commands,
    "errors": error_commands,
    "table": table_commands,
    "bounds": bounds_commands,
}


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stderr(err):
            code = cli.run(argv, out=out)
    finally:
        os.chdir(cwd)
    return hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def read(name: str) -> dict[str, str]:
    """Command line -> digest, as stored."""
    path = GOLDEN / f"{name}.sha256"
    lines = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
    return {line.split("  ", 1)[1]: line.split("  ", 1)[0] for line in lines}


def changed(name: str) -> list[str]:
    """The command lines of a corpus whose digest differs from the stored one,
    in corpus order, then the stored lines no longer in the corpus."""
    stored, argvs = read(name), CORPUS[name]()
    lines = [shlex.join(argv) for argv in argvs]
    out = [line for line, argv in zip(lines, argvs) if stored.get(line) != digest(argv)]
    return out + [line for line in stored if line not in lines]


def write(name: str) -> None:
    GOLDEN.mkdir(exist_ok=True)
    text = "".join(f"{digest(argv)}  {shlex.join(argv)}\n" for argv in CORPUS[name]())
    (GOLDEN / f"{name}.sha256").write_text(text, encoding="utf-8")


def main(argv: list[str]) -> int:
    if "--write" in argv:
        for name in CORPUS:
            write(name)
        return 0
    lines = [f"{name}: {line}" for name in CORPUS for line in changed(name)]
    print("\n".join(lines) or "no line changed")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
