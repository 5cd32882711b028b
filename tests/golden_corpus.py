"""The golden CLI corpus: one sha256 per command line, in ``golden/*.sha256``.

Each command line runs in process through ``cli.run`` over the bundled
table, from the repository root, so a file argument is a path relative to
it (the ``samples_*.json`` files beside the corpus); its digest is the
sha256 of the JSON text of [exit code, stdout, stderr].  The lines of the
``main`` slice run instead through ``main()`` in a subprocess, where an
argument ``<`` feeds the file after it on stdin.  A line of a corpus file
is ``<digest>  <command line>``.

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
import subprocess
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
    # n = 506..522 runs across 514, the least n whose A_n needs V_258, one
    # past the Dickson sequence's cap (polynomials._CAP): trace polynomials
    # D of degree 1 with lc 1 and 2, and of degree 2 with lc 2
    for name in ("4_1", "5_2", "3_1#6_1"):
        out += [["cover", name, "--n", "506..522", *j] for j in ([], ["--json"])]
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


def main_commands() -> list[list[str]]:
    # what only the process entry point does: it lifts the int/str limit (the
    # 4_1 order at n = 12000 has about 5000 digits), and render reads stdin;
    # the record is a saved `cover 3_1 --n 1..6 --json`
    cover = ["cover", "4_1", "--n", "12000"]
    return [cover, [*cover, "--json"], ["render", "-", "<", "tests/golden/record_cover_3_1.json"]]


CORPUS = {
    "cover": cover_commands,
    "obstruct": obstruct_commands,
    "per_knot": per_knot_commands,
    "errors": error_commands,
    "table": table_commands,
    "bounds": bounds_commands,
    "main": main_commands,
}


def _sha(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stderr(err):
            code = cli.run(argv, out=out)
    finally:
        os.chdir(cwd)
    return _sha(code, out.getvalue(), err.getvalue())


def main_digest(argv: list[str]) -> str:
    stdin = None
    if "<" in argv:
        argv, stdin = argv[:-2], (ROOT / argv[-1]).read_bytes()
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "covercalc.cli", *argv], input=stdin, capture_output=True,
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    return _sha(proc.returncode, proc.stdout.decode(), proc.stderr.decode())


def _digest(name: str):
    return main_digest if name == "main" else digest


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
    out = [line for line, argv in zip(lines, argvs) if stored.get(line) != _digest(name)(argv)]
    return out + [line for line in stored if line not in lines]


def write(name: str) -> None:
    GOLDEN.mkdir(exist_ok=True)
    text = "".join(f"{_digest(name)(argv)}  {shlex.join(argv)}\n" for argv in CORPUS[name]())
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
