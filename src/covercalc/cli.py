"""Command-line front end: batch commands over a knot table.

Output is deterministic.  Default rendering is aligned text; ``--json``
emits a machine-readable record carrying everything the text view shows, and
``render`` regenerates the exact text view from such a record.  Exit codes:
0 success, 1 obstruction failure under ``--strict`` or stdout closed before
all output was written (quietly, with nothing on stderr), 2 usage or data
errors (a malformed ``render`` payload among them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bounds as geo
from .covers import fox_order, is_zp_homology_sphere, skp_set
from .knots import KnotTable, KnotTableError, bundled_table, load_table_file
from .obstruct import DEFAULT_MAX_N, DEFAULT_PRIMES, filter_predecessors, obstruct
from .primes import require_prime

INFINITY = "∞"


class CliError(Exception):
    """Usage or data error; rendered on stderr with exit code 2."""


def _resolve_table(path: str | None) -> tuple[KnotTable, str]:
    if path is None:
        path = os.environ.get("COVERCALC_TABLE")
    if path is None:
        return bundled_table(), "bundled"
    return load_table_file(path), path


def _get_knot(table: KnotTable, name: str):
    try:
        return table.get(name)
    except KeyError as exc:
        raise CliError(exc.args[0]) from None


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise CliError(f"bad range {text!r}; use N or A..B") from None
    if a < 1 or b < a:
        raise CliError(f"bad range {text!r}; need 1 <= A <= B")
    return a, b


def _check_primes(ps) -> list[int]:
    # a repeated -p is asked once: ids and columns stay one per prime
    for p in ps:
        try:
            require_prime(p)
        except ValueError as exc:
            raise CliError(f"-p {exc}") from None
    return list(dict.fromkeys(ps))


# ---------------------------------------------------------------- commands


def _cmd_table(args, table: KnotTable, source: str) -> dict:
    if args.action == "list":
        return {
            "command": "table_list",
            "source": source,
            "knots": [
                {
                    "name": k.name,
                    "half_degree": k.alexander.half_degree,
                    "genus": k.genus,
                    "arc_index": k.arc_index,
                    "fibered": k.fibered,
                }
                for k in table
            ],
        }
    # action == "check": loading already enforced every invariant
    return {
        "command": "table_check",
        "source": source,
        "count": len(table),
        "knots": [
            {"name": k.name, "seifert": "consistent" if k.seifert is not None else "absent"}
            for k in table
        ],
    }


def _cmd_cover(args, table: KnotTable, source: str) -> dict:
    knot = _get_knot(table, args.name)
    lo, hi = _parse_range(args.n)
    ps = _check_primes(args.p or [])
    rows = []
    for n in range(lo, hi + 1):
        order = fox_order(knot, n)
        rows.append(
            {
                "n": n,
                "order": order.order,
                "infinite": order.infinite,
                "sphere": {str(p): is_zp_homology_sphere(knot, n, p) for p in ps},
            }
        )
    return {"command": "cover", "knot": knot.name, "p": ps, "rows": rows}


def _cmd_skp(args, table: KnotTable, source: str) -> dict:
    knot = _get_knot(table, args.name)
    _check_primes([args.p])
    return {
        "command": "skp",
        "knot": knot.name,
        "p": args.p,
        "primes": list(skp_set(knot, args.p)),
    }


def _cmd_obstruct(args, table: KnotTable, source: str) -> dict:
    j = _get_knot(table, args.j)
    k = _get_knot(table, args.k)
    ps = _check_primes(args.p or list(DEFAULT_PRIMES))
    if args.max_n < 1:
        raise CliError("--max-n must be >= 1")
    report = obstruct(j, k, primes_p=ps, max_n=args.max_n)
    return {
        "command": "obstruct",
        "params": {"primes": ps, "max_n": args.max_n},
        "report": report.to_json_dict(),
    }


def _cmd_filter(args, table: KnotTable, source: str) -> dict:
    knot = _get_knot(table, args.k)
    names = filter_predecessors(knot, table)
    return {
        "command": "filter",
        "knot": knot.name,
        "source": source,
        "params": {"primes": list(DEFAULT_PRIMES), "max_n": DEFAULT_MAX_N},
        "names": names,
    }


def _read_samples(path: str) -> list:
    # a JSON array of {"n": int, "count": int} objects; a bad record is named
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CliError(f"bad samples file {path}: {exc}") from None
    if not isinstance(raw, list):
        raise CliError(f"bad samples file {path}: expected a JSON array of {{n, count}} objects")
    samples = []
    for i, rec in enumerate(raw, 1):
        if not isinstance(rec, dict) or "n" not in rec or "count" not in rec:
            raise CliError(
                f"bad samples file {path}: record {i} ({json.dumps(rec)}) is not an "
                "{n, count} object"
            )
        try:
            samples.append(geo.FixSample(rec["n"], rec["count"]))
        except ValueError as exc:
            raise CliError(
                f"bad samples file {path}: record {i} ({json.dumps(rec)}): {exc}"
            ) from None
    return samples


def _cmd_bounds(args, table: KnotTable, source: str) -> dict:
    knot = _get_knot(table, args.name)
    genus = args.genus if args.genus is not None else knot.genus
    delta = args.delta if args.delta is not None else knot.arc_index
    if genus is None:
        raise CliError(f"{knot.name}: genus unknown; pass --genus")
    if delta is None:
        raise CliError(f"{knot.name}: arc index unknown; pass --delta")
    if genus < 1:
        raise CliError("bounds need genus >= 1 (the unknot has no fibered predecessors "
                       "beyond itself)")
    if delta < 2:
        raise CliError("--delta must be >= 2")
    payload: dict = {
        "command": "bounds",
        "knot": knot.name,
        "genus": genus,
        "delta": delta,
        "gromov_norm_bound": geo.gromov_norm_bound(genus, delta),
        "fiber_chi": 1 - 2 * genus,
        "dilatation": None,
    }
    if args.samples is not None:
        samples = _read_samples(args.samples)
        if not samples:
            raise CliError(f"samples file {args.samples} is empty")
        est = geo.dilatation_upper(samples)
        block: dict = {
            "upper": est.upper,
            "degenerate": est.degenerate,
            "samples": [{"n": s.n, "count": s.count} for s in est.witnesses],
            "km_volume_bound": None,
        }
        if not est.degenerate and est.upper > 1.0:
            block["km_volume_bound"] = geo.km_volume_bound(1 - 2 * genus, est.upper)
        payload["dilatation"] = block
    return payload


# --------------------------------------------------------------- rendering


def _aligned(rows: list[list[str]]) -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows]


def _fmt_float(x: float) -> str:
    # digits past the 17 significant ones of a float are noise: exponent form
    s = f"{x:.6f}"
    return f"{x:.6e}" if len(s.lstrip("-")) > 18 else s


def _opt(x) -> str:
    return "-" if x is None else str(x)


def render_text(payload: dict) -> str:
    """The canonical text view of a command payload."""
    cmd = payload.get("command")
    renderer = _RENDERERS.get(cmd)
    if renderer is None:
        raise CliError(f"unknown payload command {cmd!r}")
    return renderer(payload)


def _render_table_list(p: dict) -> str:
    rows = [["name", "half-deg", "genus", "arc", "fibered"]]
    for k in p["knots"]:
        rows.append(
            [
                k["name"],
                str(k["half_degree"]),
                _opt(k["genus"]),
                _opt(k["arc_index"]),
                "yes" if k["fibered"] else "no",
            ]
        )
    lines = [f"knot table ({p['source']})"] + _aligned(rows)
    return "\n".join(lines)


def _render_table_check(p: dict) -> str:
    lines = [f"knot table ({p['source']}): {p['count']} knots, all invariants hold"]
    rows = [[k["name"], f"seifert {k['seifert']}"] for k in p["knots"]]
    lines += _aligned(rows)
    return "\n".join(lines)


def _render_cover(p: dict) -> str:
    header = ["n", "order"] + [f"Z/{q}-sphere" for q in p["p"]]
    rows = [header]
    for r in p["rows"]:
        cells = [str(r["n"]), INFINITY if r["infinite"] else str(r["order"])]
        cells += ["yes" if r["sphere"][str(q)] else "no" for q in p["p"]]
        rows.append(cells)
    return "\n".join([f"branched cyclic covers of {p['knot']}"] + _aligned(rows))


def _render_skp(p: dict) -> str:
    primes = "{" + ", ".join(str(q) for q in p["primes"]) + "}"
    return f"obstruction primes S({p['knot']}, {p['p']}) = {primes}"


def _render_obstruct(p: dict) -> str:
    rep = p["report"]
    j, k = rep["candidate"]
    params = p["params"]
    ps = ",".join(str(q) for q in params["primes"])
    lines = [f"obstruct {j} <= {k}  (p = {ps}; n <= {params['max_n']})"]
    rows = [["check", "verdict", "detail"]]
    for c in rep["checks"]:
        rows.append([c["id"], c["verdict"].upper(), c["detail"]])
    lines += _aligned(rows)
    if rep["overall"] == "pass":
        lines.append(f"overall: PASS (not obstructed; no claim that {j} <= {k})")
    else:
        failed = ",".join(c["id"] for c in rep["checks"] if c["verdict"] == "fail")
        lines.append(f"overall: FAIL ({failed})")
    return "\n".join(lines)


def _render_filter(p: dict) -> str:
    params = p["params"]
    ps = ",".join(str(q) for q in params["primes"])
    lines = [
        f"ribbon-concordance predecessor filter for {p['knot']} "
        f"(table {p['source']}; p = {ps}; n <= {params['max_n']})",
        "not obstructed: " + ", ".join(p["names"]),
    ]
    return "\n".join(lines)


def _render_bounds(p: dict) -> str:
    lines = [
        f"bounds for {p['knot']} (genus {p['genus']}, arc index {p['delta']})",
        f"gromov norm of any fibered predecessor <= {_fmt_float(p['gromov_norm_bound'])}",
        f"fiber Euler characteristic: {p['fiber_chi']}",
    ]
    d = p["dilatation"]
    if d is not None:
        pts = ", ".join(f"({s['n']}, {s['count']})" for s in d["samples"])
        lines.append(f"fixed-point samples: {pts}")
        if d["degenerate"]:
            lines.append("dilatation estimate: degenerate (zero count in samples)")
        else:
            lines.append(f"dilatation upper estimate: {_fmt_float(d['upper'])}")
            if d["km_volume_bound"] is not None:
                lines.append(
                    f"mapping-torus volume bound: {_fmt_float(d['km_volume_bound'])}"
                )
            else:
                lines.append("mapping-torus volume bound: n/a (estimate <= 1)")
    return "\n".join(lines)


_RENDERERS = {
    "table_list": _render_table_list,
    "table_check": _render_table_check,
    "cover": _render_cover,
    "skp": _render_skp,
    "obstruct": _render_obstruct,
    "filter": _render_filter,
    "bounds": _render_bounds,
}


# ------------------------------------------------------------------ driver


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="covercalc",
        description="Branched cyclic cover homology, ribbon-concordance "
        "obstruction filters, and fibered-predecessor geometry bounds.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--table", help="knot table JSON (default: $COVERCALC_TABLE or bundled)")
        sp.add_argument("--json", action="store_true", help="emit machine-readable JSON")

    sp = sub.add_parser("table", help="list or validate the knot table")
    sp.add_argument("action", choices=["list", "check"])
    add_common(sp)

    sp = sub.add_parser("cover", help="branched cyclic cover H1 orders")
    sp.add_argument("name")
    sp.add_argument("--n", required=True, help="cover index or inclusive range A..B")
    sp.add_argument("-p", "--p", action="append", type=int,
                    help="also report Z/p-homology-sphere status (repeatable)")
    add_common(sp)

    sp = sub.add_parser("skp", help="prime obstruction set S(K, p)")
    sp.add_argument("name")
    sp.add_argument("-p", "--p", type=int, required=True)
    add_common(sp)

    sp = sub.add_parser("obstruct", help="necessary-condition checks for J <= K")
    sp.add_argument("j")
    sp.add_argument("k")
    sp.add_argument("-p", "--p", action="append", type=int,
                    help=f"primes for containment checks (default {list(DEFAULT_PRIMES)})")
    sp.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)
    sp.add_argument("--strict", action="store_true",
                    help="exit 1 when the candidate is obstructed")
    add_common(sp)

    sp = sub.add_parser("filter", help="table knots not obstructed as predecessors of K")
    sp.add_argument("k")
    add_common(sp)

    sp = sub.add_parser("bounds", help="geometry bounds for fibered predecessors")
    sp.add_argument("name")
    sp.add_argument("--delta", type=int, help="arc index override")
    sp.add_argument("--genus", type=int, help="genus override")
    sp.add_argument("--samples", help="JSON fixed-point samples [{\"n\":2,\"count\":9},...]")
    add_common(sp)

    sp = sub.add_parser("render", help="re-render a --json record as text")
    sp.add_argument("file", nargs="?", default="-", help="payload path or - for stdin")
    return top


_COMMANDS = {
    "table": _cmd_table,
    "cover": _cmd_cover,
    "skp": _cmd_skp,
    "obstruct": _cmd_obstruct,
    "filter": _cmd_filter,
    "bounds": _cmd_bounds,
}


def run(argv, out=None) -> int:
    """Execute one command line; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "render":
            if args.file == "-":
                text = sys.stdin.read()
            else:
                try:
                    with open(args.file, encoding="utf-8") as fh:
                        text = fh.read()
                except OSError as exc:
                    raise CliError(f"cannot read {args.file}: {exc}") from None
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                raise CliError(f"invalid JSON payload: {exc}") from None
            if not isinstance(payload, dict):
                raise CliError(f"payload must be a JSON object, got {type(payload).__name__}")
            try:
                view = render_text(payload)
            except (KeyError, TypeError, AttributeError) as exc:
                raise CliError(
                    f"malformed {payload.get('command')!r} payload: "
                    f"{type(exc).__name__}: {exc}"
                ) from None
            print(view, file=out)
            return 0
        payload = _COMMANDS[args.command](args, *_resolve_table(args.table))
        if args.json:
            print(json.dumps(payload, indent=2), file=out)
        else:
            print(render_text(payload), file=out)
        if (
            args.command == "obstruct"
            and args.strict
            and payload["report"]["overall"] == "fail"
        ):
            return 1
        return 0
    except (CliError, KnotTableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    # a cover order has about n bits, past the default limit on int <-> str
    # conversion (4300 digits); the limit is process-wide, so the process
    # entry point lifts it and library callers keep their own setting
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`covercalc ... | head`); the rest of
        # the output goes to devnull, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
