"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its stated time budget.

Run with ``pytest tests/test_acceptance.py -s`` to see the criterion lines.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from covercalc.bounds import FixSample, SatelliteProfile, dilatation_upper, gromov_norm_bound, V3
from covercalc.covers import admissible, fox_order, order_from_tilde, skp_from_tilde, skp_set
from covercalc.knots import bundled_table
from covercalc.obstruct import alexander_divides, filter_predecessors, h1_order_divisibility, obstruct
from covercalc.polynomials import IntPoly, resultant, resultant_sylvester
from covercalc.primes import primes_up_to

TABLE = bundled_table()


class criterion:
    """Times a criterion body and prints its PASS/FAIL line."""

    def __init__(self, name, budget_s=None):
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        suffix = f" [{elapsed:.2f}s]" if self.budget else ""
        print(f"[{status}] {self.name}{suffix}")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, f"{self.name}: {elapsed:.2f}s exceeds {self.budget}s"
        return False


def rand_nonzero_poly(rng, max_deg=8, max_coeff=20):
    while True:
        f = IntPoly([rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(1, max_deg + 1))])
        if not f.is_zero:
            return f


def rand_palindromic(rng, max_half=5):
    d = rng.randint(0, max_half)
    if d == 0:
        return IntPoly([1])
    tail = [rng.randint(-9, 9) for _ in range(d)]
    while tail[-1] == 0:
        tail[-1] = rng.randint(-9, 9)
    mid = 1 - 2 * sum(tail)
    return IntPoly(list(reversed(tail)) + [mid] + tail)


def divides_oracle(j: IntPoly, k: IntPoly) -> bool:
    """Division from the constant term upward over Q; independent of the
    library's top-down division."""
    if j.degree > k.degree:
        return False
    assert j.coeffs[0] != 0 and k.coeffs[0] != 0  # value 1 at t=1 forbids zero ends
    rem = [Fraction(c) for c in k.coeffs]
    quot_len = k.degree - j.degree + 1
    quot = []
    for i in range(quot_len):
        q = rem[i] / j.coeffs[0]
        quot.append(q)
        for a, c in enumerate(j.coeffs):
            rem[i + a] -= q * c
    return all(x == 0 for x in rem) and all(q.denominator == 1 for q in quot)


def test_criterion_resultant_oracle_equivalence():
    with criterion("resultant PRS = Sylvester/Bareiss on 200 random pairs", budget_s=5.0):
        rng = random.Random(424242)
        for _ in range(200):
            f, g = rand_nonzero_poly(rng), rand_nonzero_poly(rng)
            assert resultant(f, g) == resultant_sylvester(f, g), (f.coeffs, g.coeffs)


def test_criterion_fox_order_regression():
    with criterion("Fox orders: trefoil n=1..6 and figure-eight n=2,3", budget_s=1.0):
        k31, k41 = TABLE.get("3_1"), TABLE.get("4_1")
        assert [fox_order(k31, n).order for n in range(1, 7)] == [1, 3, 4, 3, 1, 0]
        assert [fox_order(k41, n).order for n in (2, 3)] == [5, 16]
        for knot, ns in ((k31, range(1, 7)), (k41, (2, 3))):
            for n in ns:
                oracle = abs(resultant_sylvester(IntPoly.t_power_minus_one(n), knot.tilde))
                assert fox_order(knot, n).order == oracle


def test_criterion_fox_orders_at_large_n():
    import covercalc.covers as covers

    knots = [TABLE.get(name) for name in ("4_1", "5_2", "6_1")]
    covers._cached_order.cache_clear()
    with criterion("Fox orders of 4_1, 5_2, 6_1 at n = 4000..4019", budget_s=2.0):
        orders = {(k.name, n): fox_order(k, n).order for k in knots for n in range(4000, 4020)}
    for k in knots:
        oracle = abs(resultant(IntPoly.t_power_minus_one(4000), k.tilde))
        assert orders[k.name, 4000] == oracle, k.name


def test_criterion_prime_obstruction_properties():
    with criterion(
        "S(K,p) properties on 1000 random polynomials, p in {2,3,5}", budget_s=60.0
    ):
        rng = random.Random(2026)
        small_primes = primes_up_to(50)
        for _ in range(1000):
            f = rand_palindromic(rng)
            d2 = f.degree  # equals 2 * half-degree
            for p in (2, 3, 5):
                s = skp_from_tilde(f, p)
                assert p not in s
                assert s.product() <= p**d2
                i = rng.randrange(len(f.coeffs))
                bump = p * rng.randint(1, 3)
                perturbed = IntPoly(
                    tuple(c + bump if idx == i else c for idx, c in enumerate(f.coeffs))
                )
                if not perturbed.is_zero:
                    assert skp_from_tilde(perturbed, p).primes == s.primes
                for n in small_primes:
                    if admissible(n, s):
                        order = order_from_tilde(f, n)
                        assert order.order != 0, (f.coeffs, p, n)
                        assert order.order % p != 0, (f.coeffs, p, n)


def test_criterion_skp_fixtures():
    with criterion("S(3_1,2) = {3}, S(4_1,3) = {2}, S(unknot,p) = {}"):
        assert skp_set(TABLE.get("3_1"), 2).primes == (3,)
        assert skp_set(TABLE.get("4_1"), 3).primes == (2,)
        for p in (2, 3, 5, 7):
            assert skp_set(TABLE.get("unknot"), p).primes == ()


def test_criterion_obstruction_filter_fixtures():
    with criterion("predecessor filter fixtures on the bundled table", budget_s=2.0):
        granny = TABLE.get("granny")
        comp = TABLE.get("3_1#6_1")
        assert filter_predecessors(granny, TABLE) == ["unknot", "3_1", "granny"]
        got = set(filter_predecessors(comp, TABLE))
        assert got >= {"unknot", "3_1", "6_1", "3_1#6_1"}
        report = obstruct(TABLE.get("4_1"), TABLE.get("3_1"))
        assert not report.passed and report.failures() == ["alex_div"]
        # reproduce every divisibility verdict with the bottom-up oracle
        for target in (granny, comp, TABLE.get("3_1")):
            for j in TABLE:
                assert alexander_divides(j, target) == divides_oracle(j.tilde, target.tilde)


def test_criterion_gilmer_consistency():
    with criterion("H1-order divisibility for all divisible pairs, n <= 20"):
        for j in TABLE:
            for k in TABLE:
                if not alexander_divides(j, k):
                    continue
                for n in range(1, 21):
                    if fox_order(j, n).infinite or fox_order(k, n).infinite:
                        continue
                    check = h1_order_divisibility(j, k, n)
                    assert check.verdict == "pass", (j.name, k.name, n, check.detail)


def test_criterion_gromov_base_case():
    with criterion("volume-bound base case: 2 < (3pi/v3) log 2 = 6.4366"):
        b = gromov_norm_bound(1, 2)
        assert abs(b - 6.4366) < 1e-3
        assert b > 2
        assert math.isclose(b, (3 * math.pi / V3) * math.log(2), rel_tol=1e-8)


def test_criterion_dilatation_convergence():
    with criterion("dilatation estimate within [lam, 1.01 lam]", budget_s=1.0):
        for lam in (1.5, 2.618, 4.0):
            samples = [FixSample(n, math.ceil(lam**n)) for n in (2, 3, 5, 7, 11)]
            upper = dilatation_upper(samples).upper
            # lower edge allows one double-precision ulp (e.g. 16**0.5 rounds
            # a hair under 4.0); the mathematical value is >= lam exactly
            assert lam * (1 - 1e-9) <= upper <= 1.01 * lam, (lam, upper)


def test_criterion_satellite_bookkeeping():
    with criterion("500 exact satellite profiles pass; +-1 perturbations fail"):
        rng = random.Random(31337)
        from covercalc.bounds import satellite_euler_check

        for _ in range(500):
            orbits = [
                (rng.randint(1, 6), rng.randint(1, 5)) for _ in range(rng.randint(1, 4))
            ]
            chi0 = -rng.randint(1, 8)
            rhs = -chi0 + sum(m * (2 * g - 1) for m, g in orbits)
            if rhs % 2 == 0:  # need 2g - 1 = rhs with integer g
                chi0 -= 1
                rhs += 1
            g = (rhs + 1) // 2
            profile = SatelliteProfile(g, chi0, tuple(orbits))
            assert satellite_euler_check(profile)

            def perturbed_fails(**kw):
                try:
                    q = SatelliteProfile(
                        kw.get("total_genus", g),
                        kw.get("outer_chi", chi0),
                        kw.get("orbits", tuple(orbits)),
                    )
                except ValueError:
                    return True  # left the valid domain entirely
                return not satellite_euler_check(q)

            for eps in (1, -1):
                assert perturbed_fails(total_genus=g + eps)
                assert perturbed_fails(outer_chi=chi0 + eps)
                i = rng.randrange(len(orbits))
                m, gc = orbits[i]
                bumped_m = orbits[:i] + [(m + eps, gc)] + orbits[i + 1 :]
                bumped_g = orbits[:i] + [(m, gc + eps)] + orbits[i + 1 :]
                assert perturbed_fails(orbits=tuple(bumped_m))
                assert perturbed_fails(orbits=tuple(bumped_g))
