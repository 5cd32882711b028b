"""The golden CLI corpus: one sha256 per command line, in ``golden/*.sha256``.

Each command line runs in process through ``cli.run`` over the bundled
table; its digest is the sha256 of the JSON text of [exit code, stdout,
stderr].  A line of a corpus file is ``<digest>  <command line>``.

    python tests/golden_corpus.py          # print the lines whose output changed
    python tests/golden_corpus.py --write  # rewrite the corpus files

A change that alters CLI output rewrites the corpus and lists the printed
lines in its change notes; ``test_golden.py`` holds every line in tier 1.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN.parents[1] / "src"))

from covercalc import bundled_table, cli  # noqa: E402


def cover_commands() -> list[list[str]]:
    out = []
    for name in (k.name for k in bundled_table()):
        for args in (["--n", "1..400", "-p", "2", "-p", "3"], ["--n", "997"], ["--n", "2048", "-p", "3"]):
            out += [["cover", name, *args], ["cover", name, *args, "--json"]]
    return out


CORPUS = {"cover": cover_commands}


def digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(argv, out=out)
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
    for name in CORPUS:
        if "--write" in argv:
            write(name)
        else:
            for line in changed(name):
                print(f"{name}: {line}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
