"""``covercalc`` with tracing: the child process of a traced cli-mix op.

Usage: python3 clitrace.py ARGV...  (covercalc importable, e.g. through
PYTHONPATH).  Runs ``covercalc.cli.run(ARGV)`` under the tracer, exits with
its code, and writes the trace summary as the last line of stderr.
"""

import json
import sys

import covercalc.cli as cli
from tracer import Tracer

if __name__ == "__main__":
    with Tracer() as tracer:
        code = cli.run(sys.argv[1:])
    sys.stdout.flush()
    print(json.dumps(tracer.summary()), file=sys.stderr)
    raise SystemExit(code)
