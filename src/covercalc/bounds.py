"""Numeric bounds for fibered predecessors: Gromov norm, mapping-torus
volume, dilatation estimates, and fibered-satellite genus bookkeeping.

V3 is the volume of the regular ideal hyperbolic tetrahedron, stored to the
printed ten significant digits; every formula here is elementary real
arithmetic on top of exact integer factorials and genus identities.
"""

from __future__ import annotations

import math

from ._value import _is_int, _Value

__all__ = [
    "V3",
    "FixSample",
    "SatelliteProfile",
    "DilatationEstimate",
    "gromov_norm_bound",
    "km_volume_bound",
    "dilatation_upper",
    "torus_knot_genus",
    "cable_genus",
    "connected_sum_genus",
    "satellite_euler_check",
    "winding_bound_check",
    "gromov_aggregate",
]

# volume of the regular ideal tetrahedron in H^3
V3 = 1.014941606

# factorials up to here are exact in double precision via math.factorial;
# larger arc indices go through lgamma (relative error <= 1e-12)
_EXACT_FACTORIAL_LIMIT = 20


def _log_factorial(n: int) -> float:
    if n <= _EXACT_FACTORIAL_LIMIT:
        return math.log(math.factorial(n))
    return math.lgamma(n + 1)


def gromov_norm_bound(g: int, delta: int) -> float:
    """(3*pi/v3) * (2g - 1) * log(delta!), the Gromov-norm ceiling for every
    fibered predecessor of a genus-g knot with arc index delta."""
    if g < 1:
        raise ValueError("genus must be >= 1")
    if delta < 2:
        raise ValueError("arc index must be >= 2")
    return (3.0 * math.pi / V3) * (2 * g - 1) * _log_factorial(delta)


def km_volume_bound(chi: int, dilatation: float) -> float:
    """Kojima-McShane: vol of the open mapping torus of a pseudo-Anosov map
    is at most 3*pi*|chi|*log(dilatation)."""
    if chi > -1:
        raise ValueError("Euler characteristic must be <= -1")
    if dilatation <= 1.0:
        raise ValueError("dilatation must exceed 1")
    return 3.0 * math.pi * abs(chi) * math.log(dilatation)


class FixSample(_Value):
    """A fixed-point count (or HFK-dimension stand-in) for the n-th iterate;
    both are integers (a bool is not)."""

    _fields = ("n", "count")

    def __init__(self, n: int, count: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "count", count)
        if not _is_int(n):
            raise ValueError(f"iterate index must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("iterate index must be >= 1")
        if not _is_int(count):
            raise ValueError(f"count must be an integer, got {count!r}")
        if count < 0:
            raise ValueError("count must be >= 0")


class DilatationEstimate(_Value):
    """min over samples of count**(1/n): an upper bound for the dilatation
    whenever each count genuinely bounds the fixed points of that iterate.

    A zero count cannot occur for a pseudo-Anosov map; the estimate is then
    flagged degenerate instead of trusted.
    """

    _fields = ("upper", "witnesses", "degenerate")

    def __init__(self, upper: float, witnesses: tuple[FixSample, ...], degenerate: bool = False):
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "witnesses", witnesses)
        object.__setattr__(self, "degenerate", degenerate)


def dilatation_upper(samples) -> DilatationEstimate:
    """Sharpest finite-sample upper estimate for the dilatation."""
    samples = tuple(samples)
    if not samples:
        raise ValueError("need at least one sample")
    ns = [s.n for s in samples]
    if any(a >= b for a, b in zip(ns, ns[1:])):
        raise ValueError("sample indices must be strictly increasing")
    if any(s.count == 0 for s in samples):
        return DilatationEstimate(upper=0.0, witnesses=samples, degenerate=True)
    upper = min(_root(s.count, s.n) for s in samples)
    if upper == math.inf:
        raise ValueError("every sample's count**(1/n) is beyond float range")
    return DilatationEstimate(upper=upper, witnesses=samples)


def _root(count: int, n: int) -> float:
    # count**(1/n); a count beyond float range goes through the log domain,
    # and a root beyond it is inf, which only loses the min
    try:
        return count ** (1.0 / n)
    except OverflowError:
        try:
            return math.exp(math.log(count) / n)
        except OverflowError:
            return math.inf


def torus_knot_genus(p: int, q: int) -> int:
    """(|p| - 1)(|q| - 1) / 2 for coprime |p|, |q| >= 2."""
    ap, aq = abs(p), abs(q)
    if ap < 2 or aq < 2:
        raise ValueError("torus knot parameters need |p|, |q| >= 2")
    if math.gcd(ap, aq) != 1:
        raise ValueError(f"parameters ({p}, {q}) are not coprime")
    return (ap - 1) * (aq - 1) // 2


def cable_genus(p: int, q: int, companion_genus: int) -> int:
    """|q| g(C) + g(T(p,q)) for the (p,q)-cable of a genus-g(C) companion;
    |p| = 1 contributes an unknotted torus piece of genus 0."""
    ap, aq = abs(p), abs(q)
    if aq < 2:
        raise ValueError("cable parameter needs |q| >= 2")
    if math.gcd(ap, aq) != 1:
        raise ValueError(f"parameters ({p}, {q}) are not coprime")
    if companion_genus < 1:
        raise ValueError("companion genus must be >= 1")
    torus_part = 0 if ap == 1 else torus_knot_genus(p, q)
    return aq * companion_genus + torus_part


def connected_sum_genus(genera) -> int:
    """Genus of a connected sum: the sum of the summand genera."""
    genera = list(genera)
    if not genera:
        raise ValueError("need at least one summand")
    if any(g < 1 for g in genera):
        raise ValueError("summand genera must be >= 1")
    return sum(genera)


class SatelliteProfile(_Value):
    """Bookkeeping for a claimed fibered-satellite decomposition: the total
    fiber genus, the Euler characteristic of the outermost piece, and one
    (multiplicity, companion genus) pair per orbit of companion copies."""

    _fields = ("total_genus", "outer_chi", "orbits")

    def __init__(self, total_genus: int, outer_chi: int, orbits: tuple[tuple[int, int], ...] = ()):
        object.__setattr__(self, "total_genus", total_genus)
        object.__setattr__(self, "outer_chi", outer_chi)
        object.__setattr__(self, "orbits", orbits)
        if total_genus < 1:
            raise ValueError("total genus must be >= 1")
        if outer_chi > -1:
            raise ValueError("outer Euler characteristic must be <= -1")
        for m, gc in orbits:
            if m < 1 or gc < 1:
                raise ValueError("orbit multiplicities and genera must be >= 1")


def satellite_euler_check(profile: SatelliteProfile) -> bool:
    """Whether 2g - 1 = -chi(outer) + sum m_j (2 g_j - 1) holds exactly:
    the fiber surface decomposes into the outer piece plus m_j copies of
    each companion fiber."""
    rhs = -profile.outer_chi + sum(m * (2 * gc - 1) for m, gc in profile.orbits)
    return 2 * profile.total_genus - 1 == rhs


def winding_bound_check(g: int, m: int, companion_genus: int) -> bool:
    """Whether the winding-number bound g >= m * g(C) holds."""
    if companion_genus < 1:
        raise ValueError("companion genus must be >= 1")
    return g >= m * companion_genus


def gromov_aggregate(outer_bound: float, companion_norms) -> float:
    """Total Gromov-norm bound: outer piece plus companion contributions."""
    companion_norms = list(companion_norms)
    if outer_bound < 0 or any(x < 0 for x in companion_norms):
        raise ValueError("norm contributions must be nonnegative")
    return outer_bound + sum(companion_norms)
