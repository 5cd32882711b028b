import math
import random

import pytest

from covercalc.bounds import (
    V3,
    DilatationEstimate,
    FixSample,
    SatelliteProfile,
    cable_genus,
    connected_sum_genus,
    dilatation_upper,
    gromov_aggregate,
    gromov_norm_bound,
    km_volume_bound,
    satellite_euler_check,
    torus_knot_genus,
    winding_bound_check,
)


def test_v3_value():
    assert 1.0149416 < V3 < 1.0149417


# ----------------------------------------------------------- gromov bound


def test_gromov_base_case_inequality():
    # the genus-1, arc-index-2 bound strictly exceeds the figure-eight norm 2
    b = gromov_norm_bound(1, 2)
    assert abs(b - 6.4366) < 1e-3
    assert b > 2
    assert math.isclose(b, (3 * math.pi / V3) * math.log(2), rel_tol=1e-8)


def test_gromov_values_and_scaling():
    assert math.isclose(gromov_norm_bound(1, 5), 44.456, rel_tol=1e-4)
    for delta in (2, 5, 9):
        assert math.isclose(
            gromov_norm_bound(2, delta), 3 * gromov_norm_bound(1, delta), rel_tol=1e-12
        )


def test_gromov_monotone():
    rng = random.Random(2)
    for _ in range(100):
        g = rng.randint(1, 30)
        d = rng.randint(2, 30)
        assert gromov_norm_bound(g + 1, d) > gromov_norm_bound(g, d)
        assert gromov_norm_bound(g, d + 1) > gromov_norm_bound(g, d)


def test_gromov_large_delta_uses_lgamma():
    for delta in (21, 40, 120):
        exact = (3 * math.pi / V3) * math.log(math.factorial(delta))
        assert math.isclose(gromov_norm_bound(1, delta), exact, rel_tol=1e-12)


def test_gromov_validation():
    with pytest.raises(ValueError):
        gromov_norm_bound(0, 5)
    with pytest.raises(ValueError):
        gromov_norm_bound(1, 1)
    # a bound beyond float range is refused, not returned as inf
    for g, delta in ((10**400, 3), (1, 10**400), (10**6, 10**300)):
        with pytest.raises(ValueError, match="beyond float range"):
            gromov_norm_bound(g, delta)


# ------------------------------------------------------------ volume bound


def test_km_volume_fixed_values():
    assert math.isclose(km_volume_bound(-1, math.e), 3 * math.pi, rel_tol=1e-12)
    lam = (3 + math.sqrt(5)) / 2  # largest root of x^2 - 3x + 1
    assert math.isclose(lam * lam - 3 * lam + 1, 0, abs_tol=1e-12)
    vol = km_volume_bound(-1, lam)
    assert math.isclose(vol, 9.0707, rel_tol=1e-4)
    assert vol > 2 * V3  # exceeds the figure-eight complement volume


def test_km_volume_linear_in_chi():
    lam = 2.7
    assert math.isclose(km_volume_bound(-2, lam), 2 * km_volume_bound(-1, lam), rel_tol=1e-12)


def test_km_volume_monotone():
    rng = random.Random(3)
    for _ in range(100):
        chi = -rng.randint(1, 20)
        lam = 1 + rng.random() * 4
        assert km_volume_bound(chi - 1, lam) > km_volume_bound(chi, lam)
        assert km_volume_bound(chi, lam * 1.1) > km_volume_bound(chi, lam)


def test_km_volume_validation():
    with pytest.raises(ValueError):
        km_volume_bound(0, 2.0)
    with pytest.raises(ValueError):
        km_volume_bound(-1, 1.0)
    with pytest.raises(ValueError, match="must exceed 1"):
        km_volume_bound(-1, math.nan)
    for chi, dilatation in ((-(10**400), 2.0), (-1, math.inf), (-(10**306), 1e300)):
        with pytest.raises(ValueError, match="beyond float range"):
            km_volume_bound(chi, dilatation)


# -------------------------------------------------------------- dilatation


def test_dilatation_fixed_values():
    assert dilatation_upper([FixSample(2, 9), FixSample(3, 27)]).upper == 3.0
    assert math.isclose(dilatation_upper([FixSample(5, 120**5)]).upper, 120.0, rel_tol=1e-12)
    assert dilatation_upper([FixSample(2, 9), FixSample(3, 8)]).upper == 2.0


def test_dilatation_uses_min_and_keeps_witnesses():
    samples = (FixSample(2, 100), FixSample(5, 32))
    est = dilatation_upper(samples)
    assert est.upper == 2.0
    assert est.witnesses == samples
    assert not est.degenerate


def test_dilatation_degenerate_zero_count():
    est = dilatation_upper([FixSample(1, 0)])
    assert est.degenerate and est.upper == 0.0


def test_dilatation_errors():
    with pytest.raises(ValueError):
        dilatation_upper([])
    with pytest.raises(ValueError):
        dilatation_upper([FixSample(3, 5), FixSample(2, 5)])
    with pytest.raises(ValueError):
        FixSample(0, 5)
    with pytest.raises(ValueError):
        FixSample(2, -1)


def test_dilatation_convergence():
    # ceil() adds at most 1, so the n = 11 sample already lands within 1%
    # for lambda >= 1.5; near 1 the absolute +1 would swamp the estimate
    for lam in (1.5, 2.0, 2.618, 3.3, 4.0, 5.0):
        samples = [FixSample(n, math.ceil(lam**n)) for n in (2, 3, 5, 7, 11)]
        u = dilatation_upper(samples).upper
        assert lam * (1 - 1e-9) <= u <= 1.01 * lam, (lam, u)


def test_dilatation_counts_beyond_float_range():
    # a count above ~1.8e308 has no float; its root comes from the log
    # domain, a root beyond float range only loses the min, and no finite
    # root at all is an error rather than an OverflowError
    huge = 10**400
    assert math.isclose(dilatation_upper([FixSample(2, huge)]).upper, 1e200, rel_tol=1e-12)
    assert dilatation_upper([FixSample(1, huge), FixSample(2, 9)]).upper == 3.0
    assert dilatation_upper([FixSample(1, 9), FixSample(2, huge)]).upper == 9.0
    with pytest.raises(ValueError, match="beyond float range"):
        dilatation_upper([FixSample(1, huge), FixSample(2, huge * huge)])


def test_dilatation_at_least_one():
    rng = random.Random(5)
    for _ in range(50):
        samples = [FixSample(n, rng.randint(1, 1000)) for n in (1, 2, 3)]
        assert dilatation_upper(samples).upper >= 1.0


# ------------------------------------------------------------------- genus


def test_torus_knot_genus():
    assert torus_knot_genus(3, 2) == 1
    assert torus_knot_genus(5, 2) == 2
    assert torus_knot_genus(3, 4) == 3
    with pytest.raises(ValueError):
        torus_knot_genus(4, 2)
    with pytest.raises(ValueError):
        torus_knot_genus(1, 5)


def test_cable_genus():
    assert cable_genus(1, 6, 1) == 6  # T(1, q) is unknotted
    assert cable_genus(3, 2, 1) == 3
    assert cable_genus(5, 2, 2) == 6
    with pytest.raises(ValueError):
        cable_genus(2, 4, 1)
    with pytest.raises(ValueError):
        cable_genus(3, 1, 1)
    with pytest.raises(ValueError):
        cable_genus(3, 2, 0)


def test_connected_sum_genus():
    assert connected_sum_genus([1, 1]) == 2
    assert connected_sum_genus([1]) == 1
    assert connected_sum_genus([1, 2, 3]) == 6
    with pytest.raises(ValueError):
        connected_sum_genus([])
    with pytest.raises(ValueError, match="summand genera"):
        connected_sum_genus([1, 0])


# -------------------------------------------------------- satellite profile


def test_satellite_euler_fixed_values():
    assert satellite_euler_check(SatelliteProfile(2, -2, ((1, 1),)))
    assert not satellite_euler_check(SatelliteProfile(7, -1, ((6, 1),)))
    assert satellite_euler_check(SatelliteProfile(7, -7, ((6, 1),)))


def test_satellite_profile_validation():
    with pytest.raises(ValueError):
        SatelliteProfile(0, -1, ())
    with pytest.raises(ValueError):
        SatelliteProfile(2, 0, ())
    with pytest.raises(ValueError):
        SatelliteProfile(2, -1, ((0, 1),))


def test_winding_bound():
    assert winding_bound_check(6, 6, 1)
    assert not winding_bound_check(2, 3, 1)
    assert winding_bound_check(4, 2, 2)  # boundary equality
    with pytest.raises(ValueError, match="companion genus"):
        winding_bound_check(1, 1, 0)


def test_cable_profile_consistency():
    # the profile induced by a (p, q)-cable satisfies the Euler identity with
    # chi0 = 1 - 2 g(T(p,q)) - |q|, and the winding bound holds alongside
    rng = random.Random(8)
    for _ in range(200):
        q = rng.choice([2, 3, 5, 7]) * rng.choice([1, -1])
        p = rng.choice([x for x in range(1, 12) if math.gcd(x, abs(q)) == 1])
        gc = rng.randint(1, 6)
        g = cable_genus(p, q, gc)
        gt = 0 if p == 1 else torus_knot_genus(p, q)
        chi0 = -(2 * gt - 1 + abs(q))
        profile = SatelliteProfile(g, chi0, ((abs(q), gc),))
        assert satellite_euler_check(profile), (p, q, gc)
        assert winding_bound_check(g, abs(q), gc)


def test_connected_sum_profile_consistency():
    # m summands seen as winding-1 satellites: outer piece is a planar
    # surface with chi = 1 - m
    rng = random.Random(9)
    for _ in range(200):
        genera = [rng.randint(1, 5) for _ in range(rng.randint(2, 6))]
        g = connected_sum_genus(genera)
        profile = SatelliteProfile(g, 1 - len(genera), tuple((1, gj) for gj in genera))
        assert satellite_euler_check(profile)
        assert all(winding_bound_check(g, 1, gj) for gj in genera)


# ---------------------------------------------------------------- aggregate


def test_gromov_aggregate():
    assert math.isclose(gromov_aggregate(9.07, [2.03]), 11.10, rel_tol=1e-12)
    assert gromov_aggregate(0, []) == 0
    assert math.isclose(gromov_aggregate(0, [2.0299, 2.0299]), 4.0598, rel_tol=1e-12)
    with pytest.raises(ValueError):
        gromov_aggregate(-1.0, [])
    with pytest.raises(ValueError):
        gromov_aggregate(1.0, [-0.5])


def test_aggregate_chain_respects_total_bound():
    # outer piece + companions never exceeds the one-shot bound when the
    # Euler identity holds and the same log factor is used throughout
    rng = random.Random(10)
    for _ in range(100):
        delta = rng.randint(2, 8)
        m = rng.randint(1, 4)
        orbits = tuple((rng.randint(1, 3), rng.randint(1, 4)) for _ in range(m))
        chi0 = -rng.randint(1, 6)
        g2 = -chi0 + sum(mj * (2 * gj - 1) for mj, gj in orbits) + 1
        if g2 % 2:
            chi0 -= 1
            g2 += 1
        g = g2 // 2
        profile = SatelliteProfile(g, chi0, orbits)
        assert satellite_euler_check(profile)
        big_m = float(math.factorial(delta))
        outer_norm = km_volume_bound(chi0, big_m) / V3
        companion_norms = [gromov_norm_bound(gj, delta) for _, gj in orbits]
        total = gromov_aggregate(outer_norm, companion_norms)
        assert total <= gromov_norm_bound(g, delta) * (1 + 1e-12)
