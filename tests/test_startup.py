"""Start-up cost of the ``covercalc`` command."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _left_in_after_cli_import(modules):
    # -I -S: no site packages and no environment, so nothing but the package
    # itself can import them; -B: no bytecode left in src/
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import covercalc.cli\n"
        f"print(sorted(m for m in {modules!r} if m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-B", "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    return out.stdout, out.stderr


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # every command is a fresh process doing a few ms of work; importing
    # dataclasses (which pulls in inspect, ast, dis and tokenize) and running
    # its decorators cost about 25 ms of each, so the value types are plain
    # classes; importlib.resources imports inspect on Python 3.12+, so the
    # bundled table is read without it
    out, err = _left_in_after_cli_import(("dataclasses", "inspect"))
    assert out == "[]\n", err


def test_cli_import_leaves_out_pathlib():
    # pathlib pulls in urllib.parse and ipaddress, several ms of each process,
    # and the table files need only open() and os.path
    out, err = _left_in_after_cli_import(("pathlib",))
    assert out == "[]\n", err
