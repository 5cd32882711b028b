import functools
import math
import random
import time

import pytest

from covercalc.covers import (
    CoverOrder,
    admissible,
    admissible_primes,
    fox_order,
    hfk_dim_upper,
    is_zp_homology_sphere,
    order_from_tilde,
    skp_from_tilde,
    skp_set,
)
from covercalc.knots import bundled_table
from covercalc.polynomials import (
    IntPoly,
    ModPoly,
    _lucas_mod,
    _prem,
    _reduce,
    _subresultant,
    _trace_poly,
    int_poly_gcd,
    resultant,
    resultant_sylvester,
)
from covercalc.primes import PSI_13, PrimeSet, prime_factors

from oracles import cyclotomic

PSI_12 = 318665857834031151167461  # the least strong pseudoprime to 2, ..., 37

TABLE = bundled_table()


def sylvester_order(knot, n):
    return abs(resultant_sylvester(IntPoly.t_power_minus_one(n), knot.tilde))


# ---------------------------------------------------------------- fox_order


def test_trefoil_orders():
    k = TABLE.get("3_1")
    got = [fox_order(k, n).order for n in range(1, 7)]
    assert got == [1, 3, 4, 3, 1, 0]
    for n in range(1, 7):
        assert fox_order(k, n).order == sylvester_order(k, n)


def test_figure_eight_orders():
    k = TABLE.get("4_1")
    assert [fox_order(k, n).order for n in (2, 3)] == [5, 16]
    assert [sylvester_order(k, n) for n in (2, 3)] == [5, 16]


def test_unknot_order():
    assert fox_order(TABLE.get("unknot"), 17).order == 1


def test_order_one_for_trivial_cover():
    for knot in TABLE:
        assert fox_order(knot, 1).order == 1


def test_infinite_order_comes_from_cyclotomic_factor():
    k = TABLE.get("3_1")
    order = fox_order(k, 6)
    assert order.infinite
    common = int_poly_gcd(IntPoly.t_power_minus_one(6), k.tilde)
    assert common.degree >= 1


def test_zero_resultant_without_common_factor_raises(monkeypatch):
    import covercalc.covers as covers

    # A has degree N = n // 2 + 1: N < d starts the chain at (D, A), and
    # N >= d continues the chain of (A, D) after its first step.  Both f
    # have d = 2: 5_1 (Phi_10) is palindromic of degree 4, and the
    # trace polynomial of 2t**2 + t + 1, not palindromic, is that of
    # (2t**2 + t + 1)(t**2 + t + 2).  So n = 1 reaches ``resultant`` and
    # n = 3 ``_subresultant`` for each.  Both are coprime to t**n - 1.
    for f in (TABLE.get("5_1").tilde, IntPoly([1, 1, 2])):
        for seam, n in (("resultant", 1), ("_subresultant", 3)):
            with monkeypatch.context() as patch:
                patch.setattr(covers, seam, lambda *args: 0)
                with pytest.raises(ArithmeticError):
                    order_from_tilde(f, n)
            assert order_from_tilde(f, n).order > 0, (f.coeffs, seam, n)


def test_cover_order_validation():
    with pytest.raises(ValueError):
        CoverOrder(0, 5)
    with pytest.raises(ValueError):
        order_from_tilde(IntPoly([1]), 0)
    with pytest.raises(ValueError, match="cover index"):
        is_zp_homology_sphere(TABLE.get("3_1"), 0, 2)


# ------------------------------------------- orders without t**n - 1


@functools.lru_cache(maxsize=None)
def prs_order(f, n):
    # the slow path: the subresultant PRS on the whole t**n - 1
    return abs(resultant(IntPoly.t_power_minus_one(n), f))


def _order_cases(rng):
    """Seeded polynomials for the order engine: a palindromic and a general
    one for each leading coefficient, products of those with Phi_1..Phi_12,
    one with a factor t**2 and 3 t**2, whose factors t are stripped, an odd
    palindromic Phi_2 g and an anti-palindromic Phi_1 g for a palindromic
    g, and t**3 times a general polynomial."""
    base = []
    for lc in (1, -1, 2, -2, 3, -4):
        tail = [rng.randint(-5, 5) for _ in range(rng.randint(0, 2))]
        base.append(IntPoly([lc] + tail + [rng.randint(-7, 7)] + tail[::-1] + [lc]))
        base.append(IntPoly([rng.randint(-6, 6) for _ in range(rng.randint(0, 4))] + [lc]))
    products = [cyclotomic(m) * rng.choice(base) for m in range(1, 13)]
    general = next(g for g in base[1::2] if g.degree > 0 and g.coeffs != g.coeffs[::-1])
    extra = [cyclotomic(2) * base[4], cyclotomic(1) * base[6], IntPoly([0, 0, 0, 1]) * general]
    return base + products + [IntPoly([0, 0, 1]) * base[2], IntPoly([0, 0, 3])] + extra


def test_order_engine_matches_prs_on_the_whole_t_power_minus_one():
    cases = _order_cases(random.Random(909))
    infinite = finite = 0
    for f in cases:
        for n in range(1, 121):
            order = order_from_tilde(f, n).order
            assert order == prs_order(f, n), (f.coeffs, n)
            infinite += order == 0
            finite += order != 0
    # infinite orders, where the zero guard passes, and finite ones both occur
    assert infinite > 100 and finite > 1000
    for f in cases[::6]:
        for n in (997, 2048, 4999):
            assert order_from_tilde(f, n).order == prs_order(f, n), (f.coeffs, n)


def test_order_engine_matches_sylvester_at_small_n():
    # the orders, and |Res(t**n - 1, f f*)| = |Res(t**n - 1, f)|**2 for
    # f* = t**m f(1/t): the identity that sends a general f of degree m
    # through a palindromic one
    for f in _order_cases(random.Random(910)):
        ff = f * IntPoly(f.coeffs[::-1])
        for n in range(1, 13):
            cyc = IntPoly.t_power_minus_one(n)
            oracle = abs(resultant_sylvester(cyc, f))
            assert order_from_tilde(f, n).order == oracle, (f.coeffs, n)
            assert abs(resultant_sylvester(cyc, ff)) == oracle**2, (f.coeffs, n)


def test_order_chain_carries_no_excess_power_of_the_leading_coefficient(monkeypatch):
    # on general f, which go through the trace polynomial of f f*: every
    # pseudo-remainder of the ladder and of the chain stays within 3x the
    # bits of the order, plus a little: the chain's last ones multiply a
    # subresultant by the square of the next one's leading coefficient.
    # Res(f, R - a**k) for R / a**k = t**n mod f, with a**(k m) divided out
    # only at the end, passes that by 1000 to 68000 bits on these polynomials.
    import covercalc.polynomials as polynomials

    prem, reduce, widest = polynomials._prem, polynomials._reduce, [0]

    def record(*polys):
        widest[0] = max([widest[0], *(abs(c).bit_length() for p in polys for c in p)])

    def recording_prem(a, b):
        r = prem(a, b)
        record(a, b, r)
        return r

    def recording_reduce(r, k, b):  # the ladder's pseudo-remainders
        record(r, b)
        out = reduce(r, k, b)
        record(out[0])
        return out

    monkeypatch.setattr(polynomials, "_prem", recording_prem)
    monkeypatch.setattr(polynomials, "_reduce", recording_reduce)
    rng = random.Random(913)
    for lc in (2, -4, 3):
        for m in (6, 8):
            f = IntPoly([rng.randint(-6, 6) for _ in range(m)] + [lc])
            for n in (400, 2000):
                widest[0] = 0
                order = order_from_tilde(f, n).order
                assert order > 0, (f.coeffs, n)
                bits = order.bit_length()
                assert widest[0] <= 3 * bits + 64, (f.coeffs, n, widest[0], bits)


def test_trefoil_orders_at_huge_n():
    # the trefoil's polynomial is Phi_6, so its orders repeat with period 6
    row = [1, 3, 4, 3, 1, 0]
    k31 = TABLE.get("3_1")
    assert [prs_order(k31.tilde, n) for n in range(1, 13)] == row + row
    start = time.perf_counter()
    for k in range(12):
        n = 10**18 + k
        assert fox_order(k31, n).order == row[(n - 1) % 6], k
    assert time.perf_counter() - start < 1.0


def test_orders_never_build_t_power_minus_one(monkeypatch):
    import covercalc.covers as covers

    expected = {(knot.name, n): prs_order(knot.tilde, n) for knot in TABLE for n in range(1, 61)}

    def refuse(n):
        raise AssertionError(f"t**{n} - 1 built at run time")

    monkeypatch.setattr(IntPoly, "t_power_minus_one", staticmethod(refuse))
    covers._orders.clear()
    got = {(knot.name, n): fox_order(knot, n).order for knot in TABLE for n in range(1, 61)}
    assert got == expected


# ------------------------------------------------ the trace route: degree d


def _palindromic_cases(rng):
    """Seeded palindromic polynomials of even degree 2d, which take the trace
    route: one for each leading coefficient and d = 1..7, and products of
    those with Phi_3..Phi_12 and Phi_2**2, whose orders are infinite at the
    multiples of m."""
    base = []
    for lc in (1, -1, 2, -2, 3, -4):
        for d in range(1, 8):
            half = [lc] + [rng.randint(-5, 5) for _ in range(d - 1)]
            base.append(IntPoly(half + [rng.randint(-7, 7)] + half[::-1]))
    phis = [cyclotomic(m) for m in range(3, 13)] + [cyclotomic(2) * cyclotomic(2)]
    return base, [phi * rng.choice(base) for phi in phis]


@functools.lru_cache(maxsize=None)
def dickson(n):
    # V_n by its recurrence, V_n(t + 1/t) = t**n + t**-n
    if n < 2:
        return IntPoly([2 - 2 * n, n])
    return IntPoly([0, 1]) * dickson(n - 1) - dickson(n - 2)


def test_trace_poly_satisfies_its_definition():
    # t**d D(t + 1/t) = sum of D_i (t**2 + 1)**i t**(d-i) gives f back
    base, products = _palindromic_cases(random.Random(920))
    for f in base + products:
        D, d = _trace_poly(f), f.degree // 2
        back = IntPoly()
        for i, c in enumerate(D.coeffs):
            term = IntPoly([0] * (d - i) + [c])
            for _ in range(i):
                term = term * IntPoly([1, 0, 1])
            back = back + term
        assert back == f and D.degree == d and D.lc == f.lc, f.coeffs


def test_trace_route_matches_prs_on_the_whole_t_power_minus_one():
    base, products = _palindromic_cases(random.Random(921))
    infinite = finite = 0
    for f, top in [(f, 24) for f in base] + [(f, 120) for f in products]:
        for n in range(1, top + 1):  # n < d and n = d included
            order = order_from_tilde(f, n).order
            assert order == prs_order(f, n), (f.coeffs, n)
            infinite += order == 0
            finite += order != 0
    assert infinite > 100 and finite > 1000
    for f in base[8::20] + products[1::10]:
        for n in (997, 2048, 4999):
            assert order_from_tilde(f, n).order == prs_order(f, n), (f.coeffs, n)


def test_trace_route_matches_sylvester():
    # against the Sylvester/Bareiss determinant, of t**n - 1 with f and of
    # D with 2 - V_n: the identity the route rests on
    base, products = _palindromic_cases(random.Random(922))
    for f in base + products:
        D = _trace_poly(f)
        for n in range(1, 11):
            oracle = abs(resultant_sylvester(IntPoly.t_power_minus_one(n), f))
            assert abs(resultant_sylvester(D, IntPoly([2]) - dickson(n))) == oracle, (f.coeffs, n)
            assert order_from_tilde(f, n).order == oracle, (f.coeffs, n)


def half_a(n):
    # the A of the trace route at n: V_(m+1) - V_m for odd n and
    # V_(m+1) - V_(m-1) for even n, m = n // 2, monic of degree m + 1
    m = n // 2
    return dickson(m + 1) - dickson(m - 1 + n % 2)


def test_lucas_mod_keeps_the_power_of_the_leading_coefficient_minimal():
    # R / a**k = A mod D in lowest terms: no power of a = |lc(D)| is left
    # to divide out, R is stripped, and m + 1 < d gives A itself
    base, products = _palindromic_cases(random.Random(923))
    for f in base + products:
        D = _trace_poly(f)
        a, d = abs(D.lc), D.degree
        for n in range(1, 121):
            R, k = _lucas_mod(D.coeffs if D.lc > 0 else tuple(-c for c in D.coeffs), n)
            assert len(R) <= d and R[-1:] != (0,), (f.coeffs, n)
            assert k == 0 or (a > 1 and math.gcd(*R) % a != 0), (f.coeffs, n, k)
            if n // 2 + 1 < d:
                assert (IntPoly(R), k) == (half_a(n), 0), (f.coeffs, n)


def test_trace_chain_seed_is_the_first_pseudo_remainder():
    # the state order_from_tilde enters the chain of (A, b) at, N = m + 1:
    # a**(N-d+1-k) R is exactly prem(A, b) for b = +-D
    base, products = _palindromic_cases(random.Random(924))
    for f in base[::2] + products:
        D = _trace_poly(f)
        b = D.coeffs if D.lc > 0 else tuple(-c for c in D.coeffs)
        a, d = b[-1], len(b) - 1
        for n in range(max(2 * d - 2, 1), 121):  # N >= d
            R, k = _lucas_mod(b, n)
            seed = [a ** (n // 2 + 2 - d - k) * c for c in R]
            assert seed == _prem(half_a(n).coeffs, b), (f.coeffs, n)


def test_trace_chain_carries_no_excess_power_of_the_leading_coefficient(monkeypatch):
    # the trace route's analogue of the width test above: every
    # pseudo-remainder of the ladder and of the chain stays within 3x the
    # bits of the order, plus a little
    import covercalc.polynomials as polynomials

    prem, reduce, widest = polynomials._prem, polynomials._reduce, [0]

    def record(*polys):
        widest[0] = max([widest[0], *(abs(c).bit_length() for p in polys for c in p)])

    def recording_prem(a, b):
        r = prem(a, b)
        record(a, b, r)
        return r

    def recording_reduce(r, k, b):  # the powering's pseudo-remainders
        record(r, b)
        out = reduce(r, k, b)
        record(out[0])
        return out

    monkeypatch.setattr(polynomials, "_prem", recording_prem)
    monkeypatch.setattr(polynomials, "_reduce", recording_reduce)
    rng, finite = random.Random(925), 0
    for lc in (2, -4, 3):
        for d in (3, 4):
            half = [lc] + [rng.randint(-6, 6) for _ in range(d - 1)]
            f = IntPoly(half + [rng.randint(-6, 6)] + half[::-1])
            for n in (400, 2000):
                widest[0] = 0
                order = order_from_tilde(f, n).order
                if order == 0:  # a cyclotomic factor; the chain stops early
                    continue
                finite += 1
                bits = order.bit_length()
                assert widest[0] <= 3 * bits + 64, (f.coeffs, n, widest[0], bits)
    assert finite >= 8


def test_trace_route_matches_the_power_route_on_every_bundled_knot():
    # the power route: the PRS on the whole t**n - 1 at the full degree 2d
    for knot in TABLE:
        f = knot.tilde
        for n in range(1, 401):
            assert order_from_tilde(f, n).order == prs_order(f, n), (knot.name, n)


def test_trace_route_at_huge_n():
    # 3_1 and 5_1 have Phi_6 and Phi_10, so their orders repeat with period
    # 6 and 10; 4_1's order at n = 10**18 would have ~7e17 bits, so the
    # route can only be asked for it at small n (test_figure_eight_orders)
    rows = {"3_1": [1, 3, 4, 3, 1, 0], "5_1": [1, 5, 1, 5, 16, 5, 1, 5, 1, 0]}
    start = time.perf_counter()
    for name, row in rows.items():
        f = TABLE.get(name).tilde
        assert [prs_order(f, n) for n in range(1, len(row) + 1)] == row
        for k in range(12):
            n = 10**18 + k
            assert order_from_tilde(f, n).order == row[(n - 1) % len(row)], (name, k)
    assert time.perf_counter() - start < 1.0


def plans_cofactor(f, n):
    # Plans (1953): an order is |f(1)| s**2 for odd n, |f(1) f(-1)| s**2 for even n
    return abs(f(1) if n % 2 else f(1) * f(-1))


def test_orders_have_plans_structure():
    # the palindromic cases and large n of the trace-route PRS test above
    base, products = _palindromic_cases(random.Random(921))
    big = [knot.tilde for knot in TABLE] + base[8::20] + products[1::10]
    squares = 0
    for f in [knot.tilde for knot in TABLE] + base + products:
        for n in [*range(1, 121), *((997, 2048, 4999) if f in big else ())]:
            order, c = prs_order(f, n), plans_cofactor(f, n)
            assert order_from_tilde(f, n).order == order, (f.coeffs, n)
            if order:
                s = math.isqrt(order // c)
                assert s * s * c == order, (f.coeffs, n)
                squares += s > 1
    assert squares > 3000


def test_a_root_at_one_or_minus_one_gives_order_zero_at_once(monkeypatch):
    # f = Phi_1**2 g or Phi_2**2 g, for a palindromic or a general g:
    # t**n - 1 shares t = 1 for every n and t = -1 for even n, so the route
    # stops before the ladder; the odd orders of Phi_2**2 g still match the PRS
    import covercalc.covers as covers

    def refuse(D, n):
        raise AssertionError(f"ladder run at n = {n}")

    base, _ = _palindromic_cases(random.Random(926))
    general = [g for g in _order_cases(random.Random(926))[1:12:2] if g.coeffs != g.coeffs[::-1]]
    assert len(general) >= 4
    for g in base[::3] + general:
        for phi, zero in ((cyclotomic(1), range(1, 41)), (cyclotomic(2), range(2, 41, 2))):
            f = phi * phi * g
            with monkeypatch.context() as patch:
                patch.setattr(covers, "_lucas_mod", refuse)
                assert all(order_from_tilde(f, n).order == 0 for n in zero), f.coeffs
        f = cyclotomic(2) * cyclotomic(2) * g
        for n in range(1, 41, 2):
            assert order_from_tilde(f, n).order == prs_order(f, n), (f.coeffs, n)


def test_a_mod_d_that_loses_its_top_coefficient():
    # at n = 15, V_8 - V_7 mod D has degree 4 < d - 1 = 5; fed unstripped,
    # the chain reads degree 5 with a zero leading coefficient and returns 0,
    # which the zero guard rejects, as D and A share no factor
    f = IntPoly((-1, 0, 5, 4, 5, 2, 2, 2, 5, 4, 5, 0, -1))
    D = _trace_poly(f)
    b = tuple(-c for c in D.coeffs)
    assert b[-1] == 1 and D.degree == 6
    r = list(half_a(15).coeffs)
    while len(r) > 6:  # plain remainder, b monic, leading zeros kept
        top = r.pop()
        for i in range(6):
            r[len(r) - 6 + i] -= top * b[i]
    assert len(r) == 6 and r[-1] == 0
    assert _subresultant(b, r, 1, 1) == 0
    R, k = _lucas_mod(b, 15)
    assert (list(R), k) == (r[:-1], 0)
    assert _subresultant(b, list(R), 1, 1) != 0
    assert order_from_tilde(f, 15).order == prs_order(f, 15) > 0


def test_row_table_pseudo_remainder_equals_prem():
    # _reduce pseudo-reduces by the row table: the remainder it returns,
    # times the powers of lc(b) it divided out, is _prem's list
    rng = random.Random(927)
    for lc in (1, -1, 2, 3, -4):
        for d in range(1, 9):
            for _ in range(5):
                b = tuple(rng.randint(-9, 9) for _ in range(d)) + (lc,)
                for size in range(2 * d + 2):
                    r = [rng.randint(-99, 99) for _ in range(size)]
                    if r and not r[-1]:
                        r[-1] = 1
                    R, k = _reduce(list(r), 0, b)
                    e = max(size - d, 0)
                    assert [lc ** (e - k) * c for c in R] == _prem(r, b), (r, b)


# ------------------------------------------------------- homology spheres


def test_zp_sphere_fixed_values():
    k31, k41 = TABLE.get("3_1"), TABLE.get("4_1")
    assert is_zp_homology_sphere(k31, 2, 2)
    assert not is_zp_homology_sphere(k31, 3, 2)
    assert not is_zp_homology_sphere(k41, 3, 2)


def test_zp_sphere_matches_order_divisibility(monkeypatch):
    # the order route (a memoized order) is held to the F_p kernel route: a
    # cold-cache call runs the kernel and stores no order, and a warm call
    # must answer from the order alone, with the kernel refused
    import covercalc.covers as covers

    kernel = covers._gcd_t_power_minus_one

    def refuse(fbar, n):
        raise AssertionError("F_p kernel run although the order is memoized")

    for knot in TABLE:
        for n in range(1, 41):
            for p in (2, 3, 5, 7, 11):
                direct = kernel(ModPoly.reduce(knot.tilde, p), n).degree == 0
                covers._orders.clear()
                cold = is_zp_homology_sphere(knot, n, p)
                assert (knot.tilde, n) not in covers._orders
                order = fox_order(knot, n)
                monkeypatch.setattr(covers, "_gcd_t_power_minus_one", refuse)
                warm = is_zp_homology_sphere(knot, n, p)
                monkeypatch.setattr(covers, "_gcd_t_power_minus_one", kernel)
                via_order = (not order.infinite) and order.order % p != 0
                assert direct == cold == warm == via_order, (knot.name, n, p)
    covers._orders.clear()


def test_order_cache_is_a_bounded_lru(monkeypatch):
    import covercalc.covers as covers

    computed = []
    order = covers.order_from_tilde

    def counting(f, n):
        computed.append(n)
        return order(f, n)

    monkeypatch.setattr(covers, "order_from_tilde", counting)
    monkeypatch.setattr(covers, "_CACHE_SIZE", 3)
    covers._orders.clear()
    f = TABLE.get("4_1").tilde
    for n in (1, 2, 3):
        covers._cached_order(f, n)
    assert covers._cached_order(f, 2).order == 5  # a hit moves to the back
    assert list(covers._orders) == [(f, 1), (f, 3), (f, 2)]
    assert covers._cached_order(f, 1).order == 1
    assert list(covers._orders) == [(f, 3), (f, 2), (f, 1)]
    assert computed == [1, 2, 3]
    covers._cached_order(f, 4)  # evicts n = 3, the least recently used
    assert list(covers._orders) == [(f, 2), (f, 1), (f, 4)]
    covers._cached_order(f, 3)
    assert computed == [1, 2, 3, 4, 3]
    for n in range(5, 40):
        covers._cached_order(f, n)
        assert len(covers._orders) <= 3
    assert list(covers._orders) == [(f, 37), (f, 38), (f, 39)]
    assert [covers._cached_order(f, n).order for n in (2, 3)] == [5, 16]
    assert computed[-2:] == [2, 3]
    covers._orders.clear()
    assert not covers._orders


def test_zp_sphere_on_uncached_order_stores_no_order():
    # 4_1 reduces to t**2 + t + 1 mod 2, so its n-fold cover has 2-torsion
    # exactly when 3 | n; its order at n = 10**18 would have ~1.4e18 bits
    import covercalc.covers as covers

    k41 = TABLE.get("4_1")
    covers._orders.clear()
    start = time.perf_counter()
    assert is_zp_homology_sphere(k41, 10**18, 2)
    assert not is_zp_homology_sphere(k41, 10**18 + 2, 2)
    assert time.perf_counter() - start < 1.0
    assert not covers._orders


def test_zp_sphere_rejects_a_polynomial_vanishing_mod_p():
    # corrupt data: the knot records only carry valid polynomials, so a
    # stand-in exposes the polynomial and name the test reads; both routes
    import covercalc.covers as covers

    class Corrupt:
        name = "corrupt"
        tilde = IntPoly((6, -6, 6))

    for memoized in (False, True):
        covers._orders.clear()
        if memoized:
            covers._cached_order(Corrupt.tilde, 4)
        for p in (2, 3):
            with pytest.raises(ValueError, match="vanishes mod"):
                is_zp_homology_sphere(Corrupt, 4, p)
    covers._orders.clear()


def test_zp_sphere_at_huge_n():
    # the trefoil's polynomial is Phi_6, which splits mod 2 into the
    # primitive cube roots of unity, has the root -1 (a primitive square
    # root) twice mod 3, and has primitive sixth roots mod 5 and 7; so the
    # n-fold cover has p-torsion exactly when 3 | n (p = 2), 2 | n (p = 3),
    # or 6 | n (p = 5, 7)
    k31 = TABLE.get("3_1")
    period = {2: 3, 3: 2, 5: 6, 7: 6}
    for n in range(1, 41):
        for p, m in period.items():
            assert (fox_order(k31, n).order % p != 0) == (n % m != 0), (n, p)
    start = time.perf_counter()
    for k in range(12):
        n = 10**18 + k
        for p, m in period.items():
            assert is_zp_homology_sphere(k31, n, p) == (n % m != 0), (k, p)
    assert time.perf_counter() - start < 1.0


def test_zp_sphere_rejects_nonprime():
    with pytest.raises(ValueError):
        is_zp_homology_sphere(TABLE.get("3_1"), 2, 6)


def test_user_primes_at_or_above_psi13_are_rejected():
    # PSI_13 passes every Miller-Rabin witness, so is_prime calls it prime;
    # neither it nor the prime 2**89 - 1 above it is accepted, on either route
    k31 = TABLE.get("3_1")
    fox_order(k31, 2)
    for p in (PSI_13, 2**89 - 1):
        with pytest.raises(ValueError, match="proven only below"):
            is_zp_homology_sphere(k31, 2, p)
        with pytest.raises(ValueError, match="proven only below"):
            is_zp_homology_sphere(k31, 10**18, p)
        with pytest.raises(ValueError, match="proven only below"):
            skp_set(k31, p)
        with pytest.raises(ValueError, match="proven only below"):
            skp_from_tilde(k31.tilde, p)
        with pytest.raises(ValueError, match="proven only below"):
            admissible_primes(k31, p, 10)
    with pytest.raises(ValueError, match="not a prime"):
        skp_set(k31, PSI_12)


# ----------------------------------------------------------------- S(K, p)


def test_skp_fixed_values():
    assert list(skp_set(TABLE.get("3_1"), 2)) == [3]
    assert list(skp_set(TABLE.get("4_1"), 3)) == [2]
    for p in (2, 3, 5, 7):
        assert list(skp_set(TABLE.get("unknot"), p)) == []


def test_skp_never_contains_p():
    for knot in TABLE:
        for p in (2, 3, 5, 7):
            assert p not in skp_set(knot, p), (knot.name, p)


def test_skp_admissible_primes_give_finite_coprime_orders():
    for knot in TABLE:
        for p in (2, 3, 5):
            s = skp_set(knot, p)
            for n in [q for q in range(2, 51) if _is_prime_small(q)]:
                if admissible(n, s):
                    order = fox_order(knot, n)
                    assert not order.infinite, (knot.name, p, n)
                    assert order.order % p != 0, (knot.name, p, n)


def _is_prime_small(n):
    return n > 1 and all(n % d for d in range(2, n))


def test_skp_depends_only_on_mod_p_reduction():
    rng = random.Random(17)
    for knot in TABLE:
        f = knot.tilde
        for p in (2, 3, 5):
            base = skp_set(knot, p)
            for _ in range(5):
                i = rng.randrange(len(f.coeffs))
                bump = p * rng.randint(-3, 3)
                perturbed = IntPoly(
                    tuple(c + bump if j == i else c for j, c in enumerate(f.coeffs))
                )
                if perturbed.is_zero:
                    continue
                assert skp_from_tilde(perturbed, p).primes == base.primes


def test_skp_monotone_under_divisibility():
    # composite entries contain their factors' sets
    pairs = [("3_1", "granny"), ("3_1", "3_1#6_1"), ("6_1", "3_1#6_1"), ("unknot", "5_2")]
    for jn, kn in pairs:
        for p in (2, 3, 5):
            assert skp_set(TABLE.get(jn), p).issubset(skp_set(TABLE.get(kn), p))


def test_skp_product_bound():
    for knot in TABLE:
        d = knot.alexander.half_degree
        for p in (2, 3, 5):
            assert skp_set(knot, p).product() <= p ** (2 * d)


def test_skp_admissibility_not_necessary():
    # fox_order(4_1, 2) = 5 is a Z/3-homology sphere although 2 is in S(4_1, 3)
    k41 = TABLE.get("4_1")
    assert 2 in skp_set(k41, 3)
    assert is_zp_homology_sphere(k41, 2, 3)


def test_skp_rejects_nonprime():
    with pytest.raises(ValueError):
        skp_set(TABLE.get("3_1"), 9)


def test_skp_rejects_a_polynomial_that_vanishes_mod_p():
    with pytest.raises(ValueError, match="vanishes identically mod 3"):
        skp_from_tilde(IntPoly([3, 3]), 3)


# -------------------------------------------------------------- admissible


def test_admissible_fixed_values():
    s3 = PrimeSet((3,))
    assert admissible(5, s3)
    assert not admissible(6, s3)
    assert admissible(10**9, PrimeSet(()))


def test_admissible_primes_fixed_values():
    assert admissible_primes(TABLE.get("3_1"), 2, 20) == [2, 5, 7, 11, 13, 17, 19]
    assert admissible_primes(TABLE.get("unknot"), 2, 10) == [2, 3, 5, 7]
    assert admissible_primes(TABLE.get("4_1"), 3, 10) == [3, 5, 7]


def test_admissible_primes_always_include_p():
    for knot in TABLE:
        for p in (2, 3, 5, 7):
            assert p in admissible_primes(knot, p, 50)


def test_admissible_primes_validates_limit():
    with pytest.raises(ValueError):
        admissible_primes(TABLE.get("3_1"), 2, 1)


# ----------------------------------------------------------- HFK dim bound


def test_hfk_dim_upper_fixed_values():
    assert hfk_dim_upper(5, 2) == hfk_dim_upper(5, 2).__class__(tight=900, loose=14400)
    b = hfk_dim_upper(2, 1)
    assert (b.tight, b.loose) == (1, 2)
    b = hfk_dim_upper(5, 3)
    assert (b.tight, b.loose) == (108000, 1728000)


def test_hfk_dim_upper_ceiling_when_not_divisible():
    b = hfk_dim_upper(5, 1)  # 120/16 = 7.5 -> 8
    assert (b.tight, b.loose) == (8, 120)
    assert b.tight == math.ceil(120 / 16)


def test_hfk_dim_upper_validation():
    with pytest.raises(ValueError):
        hfk_dim_upper(1, 2)
    with pytest.raises(ValueError):
        hfk_dim_upper(3, 0)


def test_skp_at_a_ten_digit_prime_is_quick():
    # Frobenius is square-and-multiply: nothing of size p is allocated
    p = 1_000_000_007
    skp_from_tilde.cache_clear()
    start = time.perf_counter()
    s = skp_set(TABLE.get("3_1"), p)
    assert time.perf_counter() - start < 1.0
    # p = 2 mod 3, so t^2 - t + 1 has no root mod p and stays irreducible
    assert s == prime_factors(p**2 - 1)
