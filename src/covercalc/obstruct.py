"""Necessary-condition filter for ribbon concordance candidates J <= K.

Every check here is an obstruction: a fail certifies that J is NOT ribbon
concordant to K, while an across-the-board pass only means "not obstructed".
Checks that need unavailable data (genus, finite cover orders) are recorded
as skipped so that missing inputs never masquerade as topology.

The same checks are valid necessary conditions for the more general relation
of strong homotopy-ribbon concordance; no separate mode is needed.

Check ids are stable: ``alex_div``, ``fib_genus``, ``skp_subset:<p>``,
``h1_div:<n>``.

A verdict is a pure function of the memoized invariants it compares, so it
is memoized over those values, not over the knots: ``skp_subset:<p>`` is
cached by (S(J, p), S(K, p), p), ``h1_div:<n>`` by the pair of cover orders
(or by n when it is skipped), and the admissible cover indices by the tuple
of the S(K, p).  Each check still asks for its invariants first, so the
calls to the public invariant functions are the same as without the caches.
Every cache is an LRU of ``_CACHE_SIZE`` entries, and a cached
``CheckResult`` is frozen, so reports can share it.
"""

from __future__ import annotations

from functools import lru_cache

from ._value import _Value
from .covers import CoverOrder, admissible, fox_order, skp_set
from .knots import Knot, KnotTable
from .polynomials import IntPoly, exact_divide
from .primes import _CACHE_SIZE, PrimeSet, require_prime

__all__ = [
    "PASS",
    "FAIL",
    "SKIPPED",
    "CheckResult",
    "ObstructionReport",
    "DEFAULT_PRIMES",
    "DEFAULT_MAX_N",
    "alexander_divides",
    "fibered_genus_check",
    "skp_containment",
    "h1_order_divisibility",
    "obstruct",
    "filter_predecessors",
]

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"

DEFAULT_PRIMES = (2, 3, 5)
DEFAULT_MAX_N = 30


class CheckResult(_Value):
    _fields = ("check_id", "verdict", "detail")

    def __init__(self, check_id: str, verdict: str, detail: str):
        object.__setattr__(self, "check_id", check_id)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "detail", detail)
        if verdict not in (PASS, FAIL, SKIPPED):
            raise ValueError(f"bad verdict {verdict!r}")


class ObstructionReport(_Value):
    """Per-check verdicts for a candidate pair; overall passes iff no check
    failed (skips do not count against the candidate)."""

    _fields = ("candidate", "checks")

    def __init__(self, candidate: tuple[str, str], checks: tuple[CheckResult, ...]):
        object.__setattr__(self, "candidate", candidate)
        object.__setattr__(self, "checks", checks)

    @property
    def overall(self) -> str:
        return FAIL if any(c.verdict == FAIL for c in self.checks) else PASS

    @property
    def passed(self) -> bool:
        return self.overall == PASS

    def failures(self) -> list[str]:
        return [c.check_id for c in self.checks if c.verdict == FAIL]

    def to_json_dict(self) -> dict:
        return {
            "candidate": list(self.candidate),
            "checks": [
                {"id": c.check_id, "verdict": c.verdict, "detail": c.detail}
                for c in self.checks
            ],
            "overall": self.overall,
        }


_ALEX_PASS = CheckResult("alex_div", PASS, "exact division in Z[t]")
_ALEX_FAIL = CheckResult("alex_div", FAIL, "division leaves a remainder")


@lru_cache(maxsize=_CACHE_SIZE)
def _divides(num: IntPoly, den: IntPoly) -> bool:
    return exact_divide(num, den) is not None


def alexander_divides(J: Knot, K: Knot) -> bool:
    """Gilmer divisibility: the polynomial of J divides that of K in Z[t];
    decided once per pair of polynomials."""
    return _divides(K.tilde, J.tilde)


def fibered_genus_check(J: Knot, K: Knot) -> CheckResult:
    """For fibered J the Alexander half-degree equals g(J) and cannot exceed
    g(K); skipped for nonfibered J or when K's genus is unknown."""
    if not J.fibered:
        return CheckResult("fib_genus", SKIPPED, f"{J.name} not marked fibered")
    if K.genus is None:
        return CheckResult("fib_genus", SKIPPED, f"genus of {K.name} unknown")
    gj = J.alexander.half_degree
    if gj <= K.genus:
        return CheckResult("fib_genus", PASS, f"g({J.name}) = {gj} <= g({K.name}) = {K.genus}")
    return CheckResult("fib_genus", FAIL, f"g({J.name}) = {gj} > g({K.name}) = {K.genus}")


def skp_containment(J: Knot, K: Knot, p: int) -> CheckResult:
    """Obstruction-set containment S(J, p) within S(K, p); redundant given
    divisibility but kept as an independent cross-check."""
    require_prime(p)
    return _containment(skp_set(J, p), skp_set(K, p), p)


@lru_cache(maxsize=_CACHE_SIZE)
def _containment(sj: PrimeSet, sk: PrimeSet, p: int) -> CheckResult:
    cid = f"skp_subset:{p}"
    if sj.issubset(sk):
        return CheckResult(cid, PASS, f"{_fmt_set(sj)} subset of {_fmt_set(sk)}")
    extra = sorted(set(sj.primes) - set(sk.primes))
    return CheckResult(cid, FAIL, f"extra primes {extra} not in {_fmt_set(sk)}")


def h1_order_divisibility(J: Knot, K: Knot, n: int) -> CheckResult:
    """Branched-cover H1 order of J divides that of K, when the polynomial
    divides and both orders are finite; otherwise skipped."""
    if not alexander_divides(J, K):
        return _h1_skipped(n)
    return _h1_verdict(fox_order(J, n), fox_order(K, n))


@lru_cache(maxsize=_CACHE_SIZE)
def _h1_skipped(n: int) -> CheckResult:
    return CheckResult(f"h1_div:{n}", SKIPPED, "polynomial divisibility fails")


@lru_cache(maxsize=_CACHE_SIZE)
def _h1_verdict(oj: CoverOrder, ok: CoverOrder) -> CheckResult:
    cid = f"h1_div:{oj.n}"
    if oj.infinite or ok.infinite:
        return CheckResult(cid, SKIPPED, "infinite H1 at this cover index")
    if ok.order % oj.order == 0:
        return CheckResult(cid, PASS, f"{oj.order} divides {ok.order}")
    return CheckResult(cid, FAIL, f"{oj.order} does not divide {ok.order}")


def obstruct(
    J: Knot,
    K: Knot,
    primes_p=DEFAULT_PRIMES,
    max_n: int = DEFAULT_MAX_N,
) -> ObstructionReport:
    """Run the full necessary-condition battery for the candidate J <= K.

    Cover orders are compared at every n <= max_n admissible for the union
    of the S(K, p) over the requested primes.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    primes_p = tuple(dict.fromkeys(primes_p))  # repeats would repeat check ids
    checks = [_ALEX_PASS if alexander_divides(J, K) else _ALEX_FAIL, fibered_genus_check(J, K)]
    sk = []
    for p in primes_p:
        checks.append(skp_containment(J, K, p))
        sk.append(skp_set(K, p))
    for n in _admissible_indices(tuple(sk), max_n):
        checks.append(h1_order_divisibility(J, K, n))
    return ObstructionReport(candidate=(J.name, K.name), checks=tuple(checks))


@lru_cache(maxsize=_CACHE_SIZE)
def _admissible_indices(sk: tuple[PrimeSet, ...], max_n: int) -> tuple[int, ...]:
    # n is admissible for the union of the S(K, p) iff it is for each of them
    return tuple(n for n in range(1, max_n + 1) if all(admissible(n, s) for s in sk))


def filter_predecessors(
    K: Knot,
    table: KnotTable,
    primes_p=DEFAULT_PRIMES,
    max_n: int = DEFAULT_MAX_N,
) -> list[str]:
    """Names of table knots not obstructed as ribbon predecessors of K,
    in table order; K itself always qualifies."""
    candidates = list(table)
    if K.name not in table:
        candidates.append(K)
    return [
        J.name
        for J in candidates
        if obstruct(J, K, primes_p=primes_p, max_n=max_n).passed
    ]


def _fmt_set(s: PrimeSet) -> str:
    return "{" + ", ".join(str(q) for q in s) + "}"
