"""Per-layer tracing by wrapping covercalc's functions from outside.

Each traced function is replaced, in every covercalc module that binds it,
by a wrapper that records a span around the call.  Wrapping the name where
the caller looks it up matters: ``covers`` calls its own imported
``resultant``, ``cli`` calls its own ``fox_order``, and the package
re-exports the function ``obstruct`` under the name of the submodule, so
modules are resolved through ``sys.modules`` and every binding of the same
function object is replaced.  ``restore`` puts every original back.

Spans are aggregated as they close: calls, self time (span time minus the
time of wrapped calls made inside it) and, where reuse matters, the number
of distinct argument tuples.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# metric prefix -> (defining module, function name)
TRACED = {
    "polynomials.resultant": ("covercalc.polynomials", "resultant"),
    "polynomials.int_poly_gcd": ("covercalc.polynomials", "int_poly_gcd"),
    "polynomials.irreducible_factor_degrees": ("covercalc.polynomials", "irreducible_factor_degrees"),
    "polynomials.exact_divide": ("covercalc.polynomials", "exact_divide"),
    "primes.prime_factors": ("covercalc.primes", "prime_factors"),
    "covers.fox_order": ("covercalc.covers", "fox_order"),
    "covers.is_zp_homology_sphere": ("covercalc.covers", "is_zp_homology_sphere"),
    "covers.skp_set": ("covercalc.covers", "skp_set"),
    "obstruct.alexander_divides": ("covercalc.obstruct", "alexander_divides"),
    "obstruct.h1_order_divisibility": ("covercalc.obstruct", "h1_order_divisibility"),
    "obstruct.obstruct": ("covercalc.obstruct", "obstruct"),
    "obstruct.filter_predecessors": ("covercalc.obstruct", "filter_predecessors"),
    "knots.load_table": ("covercalc.knots", "load_table"),
    "knots.alexander_from_seifert": ("covercalc.knots", "alexander_from_seifert"),
    "cli.run": ("covercalc.cli", "run"),
    "cli.render_text": ("covercalc.cli", "render_text"),
}
# functions whose reuse ratio (distinct argument tuples / calls) is reported
DISTINCT = {"covers.fox_order", "covers.skp_set", "primes.prime_factors",
            "obstruct.alexander_divides"}


def _seifert_genus(args, kwargs):
    return f"g{len(args[0]) // 2}"


# functions whose self time is also split by a key of the arguments
BUCKETS = {"knots.alexander_from_seifert": _seifert_genus}


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "keys")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.keys = set()


class Tracer:
    """Context manager that wraps the TRACED functions while it is open."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for metric, (modname, attr) in TRACED.items():
                defining = sys.modules.get(modname)
                if defining is None:  # not imported by this workload
                    continue
                original = getattr(defining, attr)
                wrapper = self._wrap(metric, original)
                for name, module in list(sys.modules.items()):
                    if name != "covercalc" and not name.startswith("covercalc."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrap(self, metric, fn):
        stack = self._stack
        stat = self._stat(metric)
        distinct = metric in DISTINCT
        bucket = BUCKETS.get(metric)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                own = dt - frame[0]
                stat.calls += 1
                stat.self_s += own
                stat.total_s += dt
                if distinct:
                    stat.keys.add((args, tuple(sorted(kwargs.items()))))
                if bucket is not None:
                    sub = self._stat(f"{metric}.{bucket(args, kwargs)}")
                    sub.calls += 1
                    sub.self_s += own
                    sub.total_s += dt

        return wrapper

    def summary(self):
        """Plain numbers per traced name: calls, self_s, total_s, and the
        distinct-argument count where it is tracked."""
        out = {}
        for name, st in self.stats.items():
            rec = {"calls": st.calls, "self_s": st.self_s, "total_s": st.total_s}
            if name in DISTINCT:
                rec["distinct"] = len(st.keys)
            out[name] = rec
        return out


def merge(summaries):
    """Sum several summaries (from separate processes) name by name."""
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, rec in summary.items():
            acc = out.setdefault(name, dict.fromkeys(rec, 0))
            for k, v in rec.items():
                acc[k] = acc.get(k, 0) + v
    return out
