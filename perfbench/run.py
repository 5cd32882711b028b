"""covercalc benchmark: four workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload cover-sweep --seed 1 --seconds 12 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src``.  ``--workload all`` runs the four workloads in turn.
With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Earlier lines of
stdout are human-readable metric lines and one JSON record per workload
with provenance; the last line is the JSON result.  See README.md here.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import inputs as gen
import oracle
import speed
from tracer import merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# cli-mix first: its peak memory is read from all children the run has had
WORKLOADS = ("cli-mix", "cover-sweep", "filter-table", "table-ingest")
# name -> (unit, better)
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
_TIMED = (
    "polynomials.resultant", "polynomials.int_poly_gcd", "covers.is_zp_homology_sphere",
    "covers.fox_order", "covers.skp_set", "polynomials.irreducible_factor_degrees",
    "primes.prime_factors", "polynomials.exact_divide", "obstruct.obstruct",
    "knots.alexander_from_seifert",
)
PER_LAYER = (
    [(f"{f}.calls", "count", "lower") for f in _TIMED]
    + [(f"{f}.self_s", "s", "lower") for f in _TIMED]
    + [(f"{f}.useful_ratio", "ratio", "higher") for f in
       ("covers.fox_order", "covers.skp_set", "primes.prime_factors",
        "obstruct.alexander_divides")]
    + [
        ("obstruct.alexander_divides.calls", "count", "lower"),
        ("obstruct.h1_order_divisibility.calls", "count", "lower"),
        ("obstruct.filter_predecessors.self_s", "s", "lower"),
        ("knots.load_table.self_s", "s", "lower"),
    ]
    + [(f"knots.alexander_from_seifert.g{g}.self_s", "s", "lower") for g in (1, 2, 3, 4)]
    + [
        ("cli.run.self_s", "s", "lower"),
        ("cli.startup_s", "s", "lower"),
        ("cli.render_text.self_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "higher"),
    ]
)

SETUP_PROBES = 16  # fresh processes before and again after the timed run
TRACED_OPS = {"cover-sweep": 1000, "filter-table": 10, "table-ingest": 8, "cli-mix": 14}
COVER_CHECK_ROWS = 1000  # rows per run checked modulo the large primes
SYLVESTER_MAX_N = 10  # rows with n up to this are also checked by Sylvester
CHILD_TIMEOUT_S = 170
CLI_MAIN = "from covercalc.cli import main; main()"


class BenchError(Exception):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------- metrics


def tail(latencies):
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    xs = sorted(latencies)
    k = len(xs) - 11 if len(xs) > 10 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def op_metrics(scaled, wall):
    """End-to-end metrics of the operations' scaled seconds (see speed.py),
    and info that holds the same figures from their wall seconds."""
    def figures(latencies):
        return {
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * tail(latencies)[0],
        }

    return figures(scaled), {"tail_percentile": tail(scaled)[1], "samples": len(scaled),
                             "wall": figures(wall)}


def per_layer(summary, overhead_ratio, startup_s=0.0):
    values = {}
    for name, _, _ in PER_LAYER:
        func, _, stat = name.rpartition(".")
        rec = summary.get(func, {})
        if stat == "useful_ratio":
            calls = rec.get("calls", 0)
            values[name] = rec["distinct"] / calls if calls else 0.0
        elif stat in ("calls", "self_s"):
            values[name] = rec.get(stat, 0)
    values["cli.startup_s"] = startup_s
    values["trace.overhead_ratio"] = overhead_ratio
    return values


# ------------------------------------------------------------- processes


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "COVERCALC_TABLE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def run_worker(spec):
    """Run worker.py on spec in a fresh process; returns its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(spec).encode(),
        capture_output=True,
        cwd=ROOT,
        env=child_env(),
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.decode()[-2000:]}")
    out = json.loads(proc.stdout)
    if Path(out["module"]).resolve().parent != (SRC / "covercalc").resolve():
        raise BenchError(f"worker imported covercalc from {out['module']}, not {SRC}")
    return out


def read_records(paths):
    """The [item, answer, seconds, start] records in the files a worker
    wrote."""
    for path in paths:
        with open(path) as f:
            for line in f:
                yield json.loads(line)


def measure_setup(workload, inputs, timed_run):
    """setup_s: the median over SETUP_PROBES fresh processes before
    timed_run() and as many after it, so that the probes span the run; one
    warm-up process first writes the bytecode cache.  Each probe's time is
    scaled by the speed factor measured in that probe.  Returns (setup_s,
    wall setup_s, probes, result of timed_run())."""
    spec = {"workload": workload, "src": str(SRC), "inputs": inputs, "mode": "setup"}
    run_worker(spec)
    probes = [run_worker(spec)["setup"] for _ in range(SETUP_PROBES)]
    out = timed_run()
    probes += [run_worker(spec)["setup"] for _ in range(SETUP_PROBES)]
    return (statistics.median(p["setup_s"] * p["speed"] for p in probes),
            statistics.median(p["setup_s"] for p in probes), probes, out)


def set_setup(metrics, info, setup):
    """Put measure_setup's figures into a workload's metrics and info."""
    metrics["setup_s"], info["wall"]["setup_s"], info["setup_probes"] = setup


def run_in_process(workload, inputs, seconds, trace, tmp):
    """Time the workload's operations in worker processes, writing their
    records under tmp, for ``seconds`` of scaled time inside operations
    (speed.Budget).  Each worker makes at most one pass over the
    population, in order; when a pass ends with time left, a fresh
    worker starts the next one.  So no process runs an operation twice, and
    every operation measured is drawn from the same population however fast
    the program is.  Returns (metrics, per-layer metrics or None, info,
    record files, number of operations)."""
    base = {"workload": workload, "src": str(SRC), "inputs": inputs}

    def timed_run():
        passes = []
        budget = speed.Budget(seconds)
        while not passes or (passes[-1][1]["exhausted"] and not budget.done()):
            path = os.path.join(tmp, f"plain-{len(passes)}.jsonl")
            out = run_worker({**base, "mode": "plain", "out": path, "seconds": budget.left,
                              "wall_s": max(budget.wall_end - perf_counter(), 1e-3)})
            budget.left = out["left"]
            passes.append((path, out))
        return passes

    *setup, passes = measure_setup(workload, inputs, timed_run)
    paths = [path for path, _ in passes]
    latencies, scaled = [], []
    for path, out in passes:  # each pass is scaled by its own process's samples
        spans = [(start, lat) for _, _, lat, start in read_records([path])]
        latencies += [lat for _, lat in spans]
        scaled += speed.scale(spans, out["clock"])
    if not latencies:
        raise BenchError("no operation completed")
    metrics, info = op_metrics(scaled, latencies)
    set_setup(metrics, info, setup)
    metrics["peak_rss_mb"] = max(out["peak_rss_kb"] for _, out in passes) / 1024
    info["passes"] = len(passes)
    info["speed"] = speed.factor([s for _, out in passes for s in out["clock"]])
    info["worker_setup"] = passes[0][1]["setup"]
    layer = None
    if trace:
        # a fresh worker, so the traced prefix starts as cold as the plain one
        path = os.path.join(tmp, "traced.jsonl")
        out = run_worker({**base, "mode": "traced", "out": path, "ops": TRACED_OPS[workload]})
        traced = [lat for _, _, lat, _ in read_records([path])]
        m = min(len(traced), len(latencies))
        layer = per_layer(out["trace"], sum(latencies[:m]) / sum(traced[:m]))
        info["traced_ops"] = len(traced)
        paths.append(path)
    return metrics, layer, info, paths, len(latencies) + info.get("traced_ops", 0)


# ------------------------------------------------------------- workloads
#
# Each workload is a runner, which makes the inputs and runs them, and a
# checker, which judges the answers after every timed region has ended.
# A checker returns [op index, message] pairs; an op with any is failed.


def check_cover_sweep(spec, ops, modular):
    """Sphere flags against the order on every row; the order modulo large
    primes on the rows whose index is in modular, and against the Sylvester
    resultant on rows with small n."""
    from covercalc import IntPoly, resultant_sylvester

    polys = {name: r["alexander"] for name, r in gen.bundled_records().items()
             if name in spec["bundled"]}
    polys.update((r["name"], r["alexander"]) for r in json.loads(spec["table"]))
    sylvester = {}
    problems = []
    for i, ((name, n), answer, *_) in enumerate(ops):
        if isinstance(answer, dict):
            problems.append([i, f"{name} n={n}: {answer['error']}"])
            continue
        order, s2, s3 = answer
        bad = oracle.check_cover_row(polys[name], n, order, {2: s2, 3: s3}, i in modular)
        if n <= SYLVESTER_MAX_N:
            if (name, n) not in sylvester:
                sylvester[name, n] = abs(resultant_sylvester(
                    IntPoly.t_power_minus_one(n), IntPoly(polys[name])))
            if sylvester[name, n] != order:
                bad.append(f"n={n}: order {order} != Sylvester resultant")
        problems += [[i, f"{name} {b}"] for b in bad]
    return problems


def cover_sweep(seed, seconds, trace, tmp):
    spec = gen.cover_sweep(seed)
    metrics, layer, info, paths, attempted = run_in_process(
        "cover-sweep", spec, seconds, trace, tmp)
    modular = set(random.Random(seed).sample(range(attempted), min(COVER_CHECK_ROWS, attempted)))
    problems = check_cover_sweep(spec, read_records(paths), modular)
    info["population"] = len(spec["rows"])
    info["rows_checked_mod_q"] = len(modular)
    docs = {"table": spec["table"], "rows": json.dumps(spec["rows"])}
    return metrics, layer, info, attempted, problems, docs


def check_filter_table(spec, ops):
    """Each filter result against the verdicts rebuilt from base knots."""
    ref = oracle.FilterReference(gen.filter_base())
    rows = [(r["name"], spec["summands"][r["name"]]) for r in json.loads(spec["table"])]
    expected = {}
    problems = []
    for i, (name, answer, *_) in enumerate(ops):
        if name not in expected:
            expected[name] = ref.predecessors((name, spec["summands"][name]), rows)
        if answer != expected[name]:
            problems.append([i, f"filter {name}: got {answer}, expected {expected[name]}"])
    return problems


def filter_table(seed, seconds, trace, tmp):
    spec = gen.filter_table(seed)
    metrics, layer, info, paths, attempted = run_in_process(
        "filter-table", spec, seconds, trace, tmp)
    problems = check_filter_table(spec, read_records(paths))
    info["population"] = len(spec["targets"])
    docs = {"table": spec["table"], "targets": json.dumps(spec["targets"])}
    return metrics, layer, info, attempted, problems, docs


def check_table_ingest(spec, ops):
    """Accepted documents against the product of their Seifert blocks'
    polynomials; corrupted documents must have been rejected."""
    problems = []
    for i, (doc, answer, *_) in enumerate(ops):
        if isinstance(answer, dict):
            problems.append([i, f"doc {doc}: {answer['error']}"])
            continue
        problems += [[i, f"doc {doc}: {b}"]
                     for b in oracle.check_ingest(spec["expected"][doc], answer)]
    return problems


def table_ingest(seed, seconds, trace, tmp):
    spec = gen.table_ingest(seed)
    metrics, layer, info, paths, attempted = run_in_process(
        "table-ingest", {"docs": spec["docs"]}, seconds, trace, tmp)
    problems = check_table_ingest(spec, read_records(paths))
    used = sorted({doc for doc, *_ in read_records(paths)})
    info["population"] = len(spec["docs"])
    info["documents_used"] = len(used)
    info["corrupted_used"] = sum(spec["expected"][d] is None for d in used)
    docs = {f"doc-{d:04d}": spec["docs"][d] for d in used}
    return metrics, layer, info, attempted, problems, docs


def cli_in_process(argv, stdin_text):
    """(exit code, stdout) of ``covercalc.cli.run`` in this process; an
    exception gives exit code None, which no subprocess can match."""
    from covercalc import cli

    buf = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        code = cli.run(argv, out=buf)
    except Exception as exc:  # judged as a wrong answer by check_cli_mix
        return None, f"{exc!r}\n"
    finally:
        sys.stdin = saved
    return code, buf.getvalue()


def _cli_pass(ops, cmd, env, clock, budget=None):
    """Run covercalc subprocesses one after another, with clock sampling
    between them, until the budget is spent or ops end; returns one record
    [argv, stdin, exit code, stdout, stderr, wall seconds, start] per op."""
    out = []
    clock.sample()
    for argv, stdin_text in ops:
        if budget is not None and budget.done():
            break
        clock.tick()
        t0 = perf_counter()
        proc = subprocess.run(cmd + argv, input=stdin_text.encode(), capture_output=True,
                              cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
        dt = perf_counter() - t0
        out.append([argv, stdin_text, proc.returncode, proc.stdout, proc.stderr, dt, t0])
        if budget is not None:
            budget.spend(dt, clock)
    clock.sample()
    return out


def check_cli_mix(runs):
    """Each subprocess against the same command line run in process: the
    same exit code and byte-identical stdout.  The known strict failure
    must exit 1 whatever the in-process run says."""
    expected = {}
    problems = []
    for i, (argv, stdin, code, stdout, stderr, *_) in enumerate(runs):
        key = (tuple(argv), stdin)
        if key not in expected:
            expected[key] = cli_in_process(argv, stdin)
        want_code, want_out = expected[key]
        if tuple(argv) == gen.CLI_KNOWN_STRICT_FAIL:
            want_code = 1
        if code != want_code:
            problems.append([i, f"{argv}: exit {code}, expected {want_code}: {stderr[-300:]!r}"])
        if stdout != want_out.encode():
            problems.append([i, f"{argv}: stdout differs from the in-process run"])
    return problems


def cli_mix(seed, seconds, trace, tmp):
    env = child_env()

    def ops():
        for r in itertools.count():
            for argv, source in gen.cli_round(seed, r):
                yield argv, "" if source is None else cli_in_process(source, "")[1]

    clock = speed.Clock()
    *setup, plain = measure_setup("cli-mix", {}, lambda: _cli_pass(
        ops(), [sys.executable, "-c", CLI_MAIN], env, clock, speed.Budget(seconds)))
    spans = [(rec[6], rec[5]) for rec in plain]
    metrics, info = op_metrics(speed.scale(spans, clock.samples), [lat for _, lat in spans])
    set_setup(metrics, info, setup)
    info["speed"] = speed.factor(clock.samples)
    runs = list(plain)
    layer = None
    if trace:
        prefix = [(argv, stdin) for argv, stdin, *_ in plain[: TRACED_OPS["cli-mix"]]]
        traced = _cli_pass(prefix, [sys.executable, str(HERE / "clitrace.py")], env,
                           speed.Clock())
        summaries = []
        for rec in traced:  # the trace summary is the child's last stderr line
            lines = rec[4].decode().splitlines()
            summaries.append(json.loads(lines.pop()))
            rec[4] = "\n".join(lines).encode()
        ratio = sum(rec[5] for rec in plain[: len(traced)]) / sum(rec[5] for rec in traced)
        startup = statistics.median(
            rec[5] - s["cli.run"]["total_s"] for rec, s in zip(traced, summaries))
        layer = per_layer(merge(summaries), ratio, startup)
        info["traced_ops"] = len(traced)
        runs += traced
    # every covercalc child has exited: their peak is the work's peak
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    problems = check_cli_mix(runs)
    docs = {"argv": json.dumps([argv for argv, *_ in plain])}
    docs.update({f"stdin-{i:03d}": rec[1] for i, rec in enumerate(plain) if rec[1]})
    return metrics, layer, info, len(runs), problems, docs


RUNNERS = {
    "cover-sweep": cover_sweep,
    "filter-table": filter_table,
    "table-ingest": table_ingest,
    "cli-mix": cli_mix,
}


# ------------------------------------------------------------ provenance


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "covercalc").rglob("*")):
        if path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(seed, docs):
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "inputs_sha256": {name: sha256(text) for name, text in docs.items()},
    }


# ------------------------------------------------------------------ main


def run_workload(name, seed, seconds, trace):
    # worker records go to a directory inside the checkout, removed afterwards
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        metrics, layer, info, attempted, problems, docs = RUNNERS[name](seed, seconds, trace, tmp)
    failed = len({i for i, _ in problems})
    metrics["fail_ratio"] = failed / attempted
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": bool(trace),
        "end_to_end": {k: {"value": v, "unit": END_TO_END.get(k, ("ratio",))[0]}
                       for k, v in metrics.items()},
        "per_layer": layer,
        "attempted": attempted,
        "failed": failed,
        "problems": [msg for _, msg in problems[:20]],
        "info": info,
        "provenance": provenance(seed, docs),
    }
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12,
                    help="scaled seconds inside operations that a workload measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not (SRC / "covercalc" / "__init__.py").is_file():
        print(f"error: no covercalc source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import covercalc

    if Path(covercalc.__file__).resolve().parent != (SRC / "covercalc").resolve():
        print(f"error: covercalc imported from {covercalc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for rec in records:
        print(f"# {rec['workload']} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        if args.trace:
            values = {k: (rec["per_layer"][k], u) for k, u, _ in PER_LAYER}
        else:
            values = {k: (rec["end_to_end"][k]["value"], u) for k, (u, _) in END_TO_END.items()}
        for k, (v, u) in values.items():
            print(f"{rec['workload']:13} {k:48} {v:14.6g} {u}")
        print(f"{rec['workload']:13} {'fail_ratio':48} {rec['end_to_end']['fail_ratio']['value']:14.6g} ratio")
        for msg in rec["problems"]:
            print(f"{rec['workload']:13} FAIL {msg[:300]}")
        print(json.dumps(rec))
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for k, (v, u) in values.items():
            result["metrics"][prefix + k] = {"value": v, "unit": u}
        result["attempted"] += rec["attempted"]
        result["failed"] += rec["failed"]
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
