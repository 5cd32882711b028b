"""The benchmark's own tests run as part of this suite.

They pin, among other things, how often the bundled filter calls the traced
functions, so a change to the library's call pattern fails here as well as
in the benchmark.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
