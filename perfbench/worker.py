"""The process that does the work of one in-process benchmark run.

Reads a JSON spec on stdin, imports covercalc from the given source tree and
loads the workload's inputs (both timed as set-up).  Then, by ``mode``:

- ``setup``: nothing more; the process is a set-up probe.
- ``plain``: runs the workload's operations one at a time, in order, until
  ``seconds`` of scaled time inside operations (see ``speed.py``) or
  ``wall_s`` of wall time have passed, or the population ends.
- ``traced``: runs the first ``ops`` operations under the tracer.

Each operation's [item, answer, seconds, start] record is written to the
file ``out`` as one JSON line as soon as it is made, so this process holds
no record of earlier operations and its peak resident memory is the
library's.  Between operations, and around set-up, the process samples the
calibration kernel of ``speed.py``.  Writes one JSON object to stdout:
set-up times and the speed factor they were taken at, the number of
operations, the kernel samples, the scaled time left, whether the
population ran out, peak resident memory and, when traced, the
per-function summary.

Answers are not judged here; the parent process checks them after this
process has exited, so checking never runs inside a timed region.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
from time import perf_counter

from speed import Budget, Clock, factor

SETUP_SAMPLES = 3  # kernel samples before and again after set-up


def _load_cover_sweep(cc, inputs):
    bundled = cc.bundled_table()
    knots = {name: bundled.get(name) for name in inputs["bundled"]}
    knots.update((k.name, k) for k in cc.load_table(inputs["table"]))
    return knots


def _ops_cover_sweep(cc, knots, inputs):
    def items():
        for name, n in inputs["rows"]:
            yield [name, n], (knots[name], n)

    def op(arg):
        K, n = arg
        order = cc.fox_order(K, n).order
        return [order, cc.is_zp_homology_sphere(K, n, 2), cc.is_zp_homology_sphere(K, n, 3)]

    return items, op


def _load_filter_table(cc, inputs):
    return cc.load_table(inputs["table"])


def _ops_filter_table(cc, table, inputs):
    def items():
        for record in inputs["targets"]:
            yield record["name"], cc.load_table([record]).entries[0]

    def op(K):
        return cc.filter_predecessors(K, table)

    return items, op


def _ops_table_ingest(cc, state, inputs):
    docs = inputs["docs"]

    def items():
        return ((i, i) for i in range(len(docs)))

    def op(i):
        try:
            table = cc.load_table(docs[i])
        except cc.KnotTableError:
            return "rejected"
        return [[k.name, list(k.alexander.coeffs)] for k in table]

    return items, op


def _load_nothing(cc, inputs):
    return None


def _load_cli(cc, inputs):
    return cc.bundled_table()


LOADERS = {
    "cover-sweep": _load_cover_sweep,
    "filter-table": _load_filter_table,
    "table-ingest": _load_nothing,
    "cli-mix": _load_cli,
}
OPS = {
    "cover-sweep": _ops_cover_sweep,
    "filter-table": _ops_filter_table,
    "table-ingest": _ops_table_ingest,
}


def run_ops(items, op, out, clock, budget=None):
    """Run op on each (item, argument) pair until the budget is spent or
    items end; only op is timed, and clock samples between operations.  An
    exception is an answer of its own ({"error": ...}) and counts against
    the program.  Returns the number of operations run and whether items
    ran out."""
    count = 0
    exhausted = True
    clock.sample()
    for item, arg in items:
        if budget is not None and budget.done():
            exhausted = False
            break
        clock.tick()
        t0 = perf_counter()
        try:
            answer = op(arg)
        except Exception as exc:  # recorded and judged by the parent
            answer = {"error": repr(exc)}
        dt = perf_counter() - t0
        out.write(json.dumps([item, answer, dt, t0]) + "\n")
        count += 1
        if budget is not None:
            budget.spend(dt, clock)
    clock.sample()
    return count, exhausted


def main():
    spec = json.load(sys.stdin)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # cover orders have thousands of digits
    workload = spec["workload"]
    setup_clock = Clock()
    for _ in range(SETUP_SAMPLES):
        setup_clock.sample()

    t0 = perf_counter()
    sys.path.insert(0, spec["src"])
    import covercalc as cc

    if workload == "cli-mix":
        import covercalc.cli  # noqa: F401
    t1 = perf_counter()
    state = LOADERS[workload](cc, spec["inputs"])
    t2 = perf_counter()
    for _ in range(SETUP_SAMPLES):
        setup_clock.sample()
    result = {"setup": {"setup_s": t2 - t0, "import_s": t1 - t0, "load_s": t2 - t1,
                        "speed": factor(setup_clock.samples)},
              "module": cc.__file__}
    if spec["mode"] != "setup":
        items, op = OPS[workload](cc, state, spec["inputs"])
        clock = Clock()
        with open(spec["out"], "w") as out:
            if spec["mode"] == "plain":
                budget = Budget(spec["seconds"], spec["wall_s"])
                result["ops"], result["exhausted"] = run_ops(items(), op, out, clock, budget)
                result["left"] = budget.left
            else:
                from tracer import Tracer

                prefix = list(itertools.islice(items(), spec["ops"]))
                with Tracer() as tracer:
                    result["ops"], _ = run_ops(prefix, op, out, clock)
                result["trace"] = tracer.summary()
        result["clock"] = clock.samples
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result))


if __name__ == "__main__":
    main()
