import random
import time

import pytest

from covercalc import polynomials
from covercalc.polynomials import (
    DegreeMultiset,
    IntPoly,
    ModPoly,
    exact_divide,
    int_poly_gcd,
    irreducible_factor_degrees,
    resultant,
    resultant_sylvester,
    sylvester_matrix,
    _adjugate,
    _gcd_t_power_minus_one,
    _palindromic_solver,
    _seifert_det,
)
from covercalc.primes import PSI_13, is_prime

from oracles import (
    cyclotomic,
    det_fraction,
    exact_divide_fraction,
    factor_degrees_exhaustive,
    fp_divmod,
    fp_mul,
    gcd_fp,
    gcd_fp_euclid,
    int_poly_gcd_fraction,
    irreducible_factor_degrees_sqfree,
    monic_irreducibles,
    pencil_det_newton,
    poly_matrix_det_cofactor,
    squarefree_part,
    strip_t_power,
)


def rand_poly(rng, max_deg=8, max_coeff=20, nonzero=True):
    while True:
        f = IntPoly([rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(1, max_deg + 1))])
        if not (nonzero and f.is_zero):
            return f


def test_equal_int_polys_hash_equal_however_padded():
    # IntPoly keeps its hash after the first use, so the kept value must
    # agree with a fresh one built from any padding of the same coefficients
    rng = random.Random(11)
    for _ in range(200):
        f = rand_poly(rng, nonzero=False)
        first = IntPoly(list(f.coeffs) + [0] * rng.randint(0, 3))
        hash(first)
        for padded in (f.coeffs, list(f.coeffs) + [0] * rng.randint(1, 4), iter(f.coeffs + (0,))):
            g = IntPoly(padded)
            assert g == first and hash(g) == hash(first) == hash(g)
            assert {first: 1}[g] == 1
    assert IntPoly() == IntPoly((0, 0)) and hash(IntPoly()) == hash(IntPoly([0]))
    assert IntPoly((1, 2)) != IntPoly((1, 2, 3))



def test_int_poly_and_mod_poly_str():
    # highest term first; the coefficient is written out unless it is +-1
    shown = {
        (): "0",
        (5,): "5",
        (-1,): "-1",
        (0, 1): "t",
        (0, -1): "-t",
        (1, -3, 1): "t^2 - 3*t + 1",
        (-1, 0, 0, 2): "2*t^3 - 1",
        (0, 0, -1): "-t^2",
        (3, 1, -2): "-2*t^2 + t + 3",
        (0, -7, 0, 1): "t^3 - 7*t",
        (-1, 3, -3, 3, -1): "-t^4 + 3*t^3 - 3*t^2 + 3*t - 1",
    }
    for coeffs, text in shown.items():
        assert str(IntPoly(coeffs)) == text, coeffs
    assert str(ModPoly(5, [1, 7, -1])) == "[1, 2, 4] (mod 5)"
    assert str(ModPoly(3, [])) == "[] (mod 3)"
    assert str(ModPoly(2, [3, 0, 2])) == "[1] (mod 2)"


# ---------------------------------------------------------------- resultant


def test_resultant_fixed_values():
    assert resultant(IntPoly([-1, 1]), IntPoly([1, -1, 1])) == 1
    assert resultant(IntPoly([-1, 0, 1]), IntPoly([1, -1, 1])) == 3
    assert resultant(IntPoly([0, 2, 0, 1]), IntPoly([5])) == 125


def test_resultant_degenerate_conventions():
    zero = IntPoly()
    assert resultant(zero, IntPoly([1, 1])) == 0
    assert resultant(IntPoly([1, 1]), zero) == 0
    assert resultant(IntPoly([7]), IntPoly([-3])) == 1
    assert resultant(IntPoly([7]), IntPoly([0, 0, 1])) == 49


def test_sylvester_fixed_values():
    # 4x4 determinant of (t^2-1, t^2-t+1), expanded by hand
    assert resultant_sylvester(IntPoly([-1, 0, 1]), IntPoly([1, -1, 1])) == 3
    assert resultant_sylvester(IntPoly([-1, 1]), IntPoly([1, 1])) == 2
    assert resultant_sylvester(IntPoly([1, 0, 1]), IntPoly([1, 0, 1])) == 0


def test_sylvester_rejects_zero():
    with pytest.raises(ValueError):
        resultant_sylvester(IntPoly(), IntPoly([1, 1]))


def test_sylvester_matches_fraction_determinant():
    rng = random.Random(11)
    for _ in range(40):
        f, g = rand_poly(rng, 5), rand_poly(rng, 5)
        assert resultant_sylvester(f, g) == det_fraction(sylvester_matrix(f, g))


def test_resultant_agrees_with_sylvester():
    rng = random.Random(20260809)
    for _ in range(200):
        f, g = rand_poly(rng), rand_poly(rng)
        assert resultant(f, g) == resultant_sylvester(f, g), (f.coeffs, g.coeffs)


def test_resultant_swap_symmetry():
    rng = random.Random(5)
    for _ in range(100):
        f, g = rand_poly(rng), rand_poly(rng)
        assert resultant(f, g) == (-1) ** (f.degree * g.degree) * resultant(g, f)


def test_resultant_multiplicative():
    rng = random.Random(6)
    for _ in range(100):
        f, g, h = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_resultant_vanishes_mod_p_iff_common_factor(p):
    rng = random.Random(100 + p)
    done = 0
    while done < 60:
        f, g = rand_poly(rng, 6), rand_poly(rng, 6)
        if f.lc % p == 0 or g.lc % p == 0:
            continue
        done += 1
        common = gcd_fp(ModPoly.reduce(f, p), ModPoly.reduce(g, p))
        assert (resultant(f, g) % p == 0) == (common.degree > 0)


# ------------------------------------------------------------------- gcd_fp


def test_gcd_fp_fixed_values():
    assert gcd_fp(ModPoly(2, [1, 1, 1]), ModPoly(2, [1, 0, 0, 1])).coeffs == (1, 1, 1)
    assert gcd_fp(ModPoly(5, [2, 4]), ModPoly(5, [])).coeffs == (3, 1)  # monic scaling of f
    assert gcd_fp(ModPoly(2, [1, 0, 1]), ModPoly(2, [1, 1, 1])).coeffs == (1,)
    assert gcd_fp(ModPoly(3, []), ModPoly(3, [])).is_zero


def test_gcd_fp_modulus_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        gcd_fp(ModPoly(2, [1, 1]), ModPoly(3, [1, 1]))


def test_gcd_fp_divides_both():
    rng = random.Random(8)
    for _ in range(80):
        p = rng.choice([2, 3, 5, 13])
        f = ModPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 8))])
        g = ModPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 8))])
        d = gcd_fp(f, g)
        if d.is_zero:
            assert f.is_zero and g.is_zero
            continue
        assert d.lc == 1
        assert fp_divmod(f, d)[1].is_zero and fp_divmod(g, d)[1].is_zero


@pytest.mark.parametrize("p", [2, 3, 5, 13, 101, 10**9 + 7])
def test_gcd_fp_matches_the_euclid_oracle(p):
    rng = random.Random(9000 + p % 1000)

    def rand_mod(max_deg):
        return ModPoly(p, [rng.randrange(p) for _ in range(rng.randint(0, max_deg + 1))])

    cases = [(ModPoly(p), ModPoly(p))]
    for _ in range(60):
        g = rand_mod(6)
        f, h = fp_mul(rand_mod(6), g), fp_mul(rand_mod(6), g)  # a common factor, most of the time
        cases += [(f, h), (rand_mod(12), rand_mod(12)), (f, ModPoly(p)), (ModPoly(p), h)]
    for f, g in cases:
        assert f.degree <= 12 and g.degree <= 12
        assert gcd_fp(f, g) == gcd_fp_euclid(f, g), (f.coeffs, g.coeffs)
    assert sum(gcd_fp(f, g).degree > 0 for f, g in cases) > len(cases) // 2


@pytest.mark.parametrize("p", [2, 3, 5, 13, 101, 10**9 + 7])
def test_gcd_with_t_power_minus_one_matches_the_euclid_oracle(p):
    # the kernel's t**n mod f by square-and-multiply, against Euclid on the
    # whole t**n - 1; f may be divisible by t, or a nonzero constant
    rng = random.Random(9100 + p % 1000)
    for _ in range(80):
        a = rng.choice([0, 0, 1, 3])
        f = ModPoly(p, [0] * a + [rng.randrange(p) for _ in range(rng.randint(1, 9))])
        if f.is_zero:
            continue
        for n in rng.sample(range(1, 61), 6):
            cyc = ModPoly.reduce(IntPoly.t_power_minus_one(n), p)
            assert _gcd_t_power_minus_one(f, n) == gcd_fp_euclid(f, cyc), (f.coeffs, n)


# ------------------------------------------------- factor degrees over F_p


def test_factor_degrees_fixed_values():
    assert irreducible_factor_degrees(ModPoly(2, [1, 1, 1])).entries == ((2, 1),)
    assert irreducible_factor_degrees(ModPoly(5, [0, 0, 0, 1])).entries == ()
    # (t^2+1)(t+1) over F_3; -1 is not a square mod 3
    assert irreducible_factor_degrees(ModPoly(3, [1, 1, 1, 1])).entries == ((1, 1), (2, 1))


def test_factor_degrees_rejects_zero():
    with pytest.raises(ValueError):
        irreducible_factor_degrees(ModPoly(7, []))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_factor_degrees_match_exhaustive_enumeration(p):
    rng = random.Random(40 + p)
    irr = monic_irreducibles(p, 3)
    for _ in range(150):
        deg = rng.randint(1, 7)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        f = ModPoly(p, coeffs)
        assert irreducible_factor_degrees(f).entries == factor_degrees_exhaustive(f, irr)


def test_factor_degree_sum_matches_squarefree_part():
    rng = random.Random(41)
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        f = ModPoly(p, [rng.randrange(p) for _ in range(rng.randint(1, 9))] + [1])
        expected = squarefree_part(strip_t_power(f)).degree
        assert sum(d * c for d, c in irreducible_factor_degrees(f)) == expected


def test_squarefree_part_handles_pth_powers():
    # (t+1)^2 over F_2 and (t+1)^3 (t+2) over F_3 both need the p-th-root path
    assert squarefree_part(ModPoly(2, [1, 0, 1])).coeffs == (1, 1)
    f = ModPoly.reduce(IntPoly([1, 0, 0, 1]) * IntPoly([2, 1]), 3)
    assert squarefree_part(f).coeffs == ModPoly.reduce(IntPoly([1, 1]) * IntPoly([2, 1]), 3).coeffs


def test_degree_multiset_validation():
    with pytest.raises(ValueError):
        DegreeMultiset(((2, 1), (2, 1)))
    with pytest.raises(ValueError):
        DegreeMultiset(((0, 1),))


# --------------------------------------------------------------- evaluation


def test_int_poly_evaluation():
    f = IntPoly([1, -1, 1])
    assert f(1) == 1
    assert f(-1) == 3
    assert IntPoly()(7) == 0


# ---------------------------------------------------- division and int gcd


def test_exact_divide():
    f = IntPoly([1, -1, 1])
    g = IntPoly([1, -2, 3, -2, 1])  # f squared
    assert exact_divide(g, f) == f
    assert exact_divide(f, g) is None
    assert exact_divide(IntPoly([1, 1, 1]), IntPoly([1, 1])) is None
    assert exact_divide(IntPoly(), f) == IntPoly()
    with pytest.raises(ZeroDivisionError):
        exact_divide(f, IntPoly())


def test_exact_divide_random_products():
    rng = random.Random(12)
    for _ in range(100):
        f, g = rand_poly(rng, 5), rand_poly(rng, 5)
        assert exact_divide(f * g, f) == g


def test_int_poly_gcd():
    cyc6 = IntPoly([-1, 0, 0, 0, 0, 0, 1])
    tref = IntPoly([1, -1, 1])
    assert int_poly_gcd(cyc6, tref) == tref
    assert int_poly_gcd(IntPoly([2, 2]), IntPoly([4, 4, 4])).coeffs == (2,)
    assert int_poly_gcd(IntPoly([2, 2]), IntPoly([4, 8, 4])).coeffs == (2, 2)
    assert int_poly_gcd(IntPoly(), tref) == tref


def test_int_poly_gcd_with_zero_keeps_content():
    two_t_plus_two = IntPoly([2, 2])
    cases = [
        (IntPoly(), two_t_plus_two, two_t_plus_two),
        (IntPoly([-2, -2]), IntPoly(), two_t_plus_two),
        (IntPoly(), IntPoly(), IntPoly()),
    ]
    for f, g, expected in cases:
        assert int_poly_gcd(f, g) == expected, (f, g)
        assert int_poly_gcd_fraction(f, g) == expected, (f, g)
    assert int_poly_gcd(two_t_plus_two, two_t_plus_two) == two_t_plus_two


def _scaled(rng, f):
    return IntPoly(tuple(rng.choice((-6, -2, 1, 3, 4)) * c for c in f.coeffs))


def _division_pairs(rng):
    yield IntPoly([2, 2]), IntPoly([0, 2])  # (2t+2)/(2t): remainder 2
    yield IntPoly([2, 2]), IntPoly([2])
    yield IntPoly([1, 1]), IntPoly([2, 2])  # quotient 1/2
    yield IntPoly([3, 0, 3]), IntPoly([2, 0, 2])
    for _ in range(400):
        f, g = rand_poly(rng, 5, 9), rand_poly(rng, 5, 9)
        yield _scaled(rng, f * g), _scaled(rng, f)
        yield f * g + rand_poly(rng, 2, 3, nonzero=False), f
        yield f, g


def test_exact_divide_matches_fraction_reference():
    rng = random.Random(101)
    for num, den in _division_pairs(rng):
        assert exact_divide(num, den) == exact_divide_fraction(num, den), (num, den)


def test_int_poly_gcd_matches_fraction_reference():
    rng = random.Random(102)
    zero = IntPoly()
    assert int_poly_gcd(zero, IntPoly([-4, -6])) == int_poly_gcd_fraction(zero, IntPoly([-4, -6]))
    assert int_poly_gcd(IntPoly([0, -3]), zero) == int_poly_gcd_fraction(IntPoly([0, -3]), zero)
    for _ in range(300):
        h = rand_poly(rng, 3, 6)
        f = _scaled(rng, h * rand_poly(rng, 4, 6))
        g = _scaled(rng, h * rand_poly(rng, 4, 6))
        assert int_poly_gcd(f, g) == int_poly_gcd_fraction(f, g), (f, g)
        assert int_poly_gcd(f, h) == int_poly_gcd_fraction(f, h), (f, h)


def test_t_power_minus_one_against_palindromics_matches_reference():
    # palindromic polynomials with cyclotomic factors: the zero-resultant case
    # of cover orders, where t**n - 1 and the knot polynomial share a factor
    rng = random.Random(103)
    palindromics = []
    for m in (2, 3, 4, 6, 10, 12):
        for _ in range(2):
            d = rng.randint(1, 3)
            tail = [rng.randint(-4, 4) for _ in range(d)]
            h = IntPoly(list(reversed(tail)) + [rng.randint(-5, 5)] + tail)
            if not h.is_zero:
                palindromics.append(cyclotomic(m) * h)
    for n in range(1, 41):
        cyc = IntPoly.t_power_minus_one(n)
        for f in palindromics:
            gcd = int_poly_gcd(cyc, f)
            assert gcd == int_poly_gcd_fraction(cyc, f), (n, f)
            assert exact_divide(cyc, f) == exact_divide_fraction(cyc, f), (n, f)
            assert exact_divide(cyc, gcd) == exact_divide_fraction(cyc, gcd), (n, f)
            assert exact_divide(f, gcd) is not None


# ------------------------------------------------------------ Seifert determinant


def _random_square(rng, n, lo, hi):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]


def _seifert_cases(rng, sizes):
    # raw det(V - tV^T), compared before any normalisation: arbitrary V,
    # singular V, symmetric V, and symmetric singular V, whose pencil
    # (1 - t)V vanishes identically
    for n in sizes:
        for _ in range(40):
            yield _random_square(rng, n, -3, 3)
            yield _random_square(rng, n, -1, 1)
        for _ in range(10):
            v = _random_square(rng, n, -3, 3)
            if n >= 2:
                v[-1] = [2 * x - y for x, y in zip(v[0], v[1])]
            yield v
            sym = [[v[i][j] + v[j][i] for j in range(n)] for i in range(n)]
            yield sym
            if n:
                yield [row[:-1] + [0] for row in sym[:-1]] + [[0] * n]


def test_pencil_det_matches_cofactor_oracle_on_seifert_pencils():
    # det(V - tV^T) is palindromic only for even n, the sizes _seifert_det
    # takes; each size is drawn twice so there are as many vanishing
    # pencils as over sizes 0..6
    rng = random.Random(314)
    vanishing = 0
    for v in _seifert_cases(rng, (0, 2, 4, 6) * 2):
        n = len(v)
        pencil = [[IntPoly((v[i][j], -v[j][i])) for j in range(n)] for i in range(n)]
        det = _seifert_det(v)
        assert det == poly_matrix_det_cofactor(pencil), v
        vanishing += det.is_zero
    assert vanishing >= 60


def test_pencil_det_matches_cofactor_oracle_on_general_pencils():
    # the Newton oracle for det(A - tB), the reference for _seifert_det on
    # matrices too large for cofactor expansion
    rng = random.Random(315)
    for n in range(7):
        for _ in range(25):
            a, b = _random_square(rng, n, -4, 4), _random_square(rng, n, -4, 4)
            pencil = [[IntPoly((a[i][j], -b[i][j])) for j in range(n)] for i in range(n)]
            assert pencil_det_newton(a, b) == poly_matrix_det_cofactor(pencil), (a, b)


def test_seifert_det_matches_newton_oracle_on_dense_genus_5_to_12():
    # P^T V P with V block diagonal in random nonsingular 2 x 2 blocks and P
    # unimodular upper triangular: dense, and det V = c_0 = c_2g != 0
    rng = random.Random(316)
    for g in range(5, 13):
        n = 2 * g
        v = [[0] * n for _ in range(n)]
        for b in range(g):
            block = [[0, 0], [0, 0]]
            while block[0][0] * block[1][1] == block[0][1] * block[1][0]:
                block = _random_square(rng, 2, -2, 2)
            for i in range(2):
                for j in range(2):
                    v[2 * b + i][2 * b + j] = block[i][j]
        p = [[int(i == j) if j <= i else rng.choice((-1, 0, 1)) for j in range(n)]
             for i in range(n)]
        vp = [[sum(v[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        s = [[sum(p[k][i] * vp[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        assert sum(x != 0 for row in s for x in row) > n * n // 2
        vt = [list(col) for col in zip(*s)]
        det = _seifert_det(s)
        assert det == pencil_det_newton(s, vt), g
        assert det.degree == n, g


def test_seifert_det_rejects_odd_sizes():
    for n in (1, 3, 5):
        with pytest.raises(ValueError, match="even size"):
            _seifert_det(_random_square(random.Random(n), n, -2, 2))


def test_palindromic_solver_inverts_its_matrix():
    start = time.perf_counter()
    _palindromic_solver.__wrapped__(25)
    assert time.perf_counter() - start < 1.0
    for g in range(26):
        m = [[x**k + x ** (2 * g - k) if k < g else x**g for k in range(g + 1)]
             for x in range(g + 1)]
        adj, det = _palindromic_solver(g)
        assert det != 0, g
        assert det == int(det_fraction(m)), g
        for i in range(g + 1):
            for j in range(g + 1):
                entry = sum(adj[i][k] * m[k][j] for k in range(g + 1))
                assert entry == (det if i == j else 0), (g, i, j)


def test_adjugate_matches_cofactors_when_pivots_vanish():
    # a zero pivot swaps two rows, which flips the sign of what the
    # elimination ends at; the cofactors carry no such sign
    rng = random.Random(23)
    cases = [[[0, 1], [1, 0]], [[0, 2, 1], [1, 0, 0], [0, 1, 3]], [[1, 2, 3], [2, 4, 7], [1, 5, 2]]]
    while len(cases) < 40:
        n = rng.randint(1, 5)
        a = [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(n)] for _ in range(n)]
        if det_fraction(a) != 0:
            cases.append(a)
    for a in cases:
        n = len(a)
        cofactors = tuple(
            tuple((-1) ** (i + j) * int(det_fraction([r[:i] + r[i + 1 :] for r in a[:j] + a[j + 1 :]]))
                  for j in range(n))
            for i in range(n)
        )
        assert _adjugate(a) == (cofactors, int(det_fraction(a))), a


def test_seifert_det_raises_on_values_of_no_integer_polynomial(monkeypatch):
    # for g = 2, det M = -2 and the values 0, 0, 1 at t = 0, 1, 2 give
    # c_1 = 1/2: the solve must not round
    _palindromic_solver(2)
    values = iter((0, 0, 1))
    monkeypatch.setattr(polynomials, "_bareiss_det", lambda rows: next(values))
    with pytest.raises(ArithmeticError, match="inexact"):
        _seifert_det(_random_square(random.Random(2), 4, -2, 2))


def test_modpoly_rejects_moduli_at_or_above_psi13():
    # PSI_13 passes every Miller-Rabin witness; 2**89 - 1 is prime but
    # beyond the proven range; the largest prime below PSI_13 is accepted
    for p in (PSI_13, 2**89 - 1):
        with pytest.raises(ValueError, match=f"modulus {p}: primality is proven only below"):
            ModPoly(p, (1, 1))
    with pytest.raises(ValueError, match="modulus 3317044064679887385961983 is not prime"):
        ModPoly(PSI_13 + 2, (1, 1))
    q = next(q for q in range(PSI_13 - 2, 0, -2) if is_prime(q))
    assert ModPoly(q, (q + 1, 1)).coeffs == (1, 1)


def _random_factored(rng, p, max_degree, max_factor=6):
    """A product of random factors of degree at most max_factor over F_p,
    with repeats, p-th powers and a power of t, of degree at most
    max_degree."""
    f = ModPoly(p, [1])
    for _ in range(rng.randint(1, 5)):
        k = rng.randint(1, max_factor)
        g = ModPoly(p, [rng.randrange(p) for _ in range(k)] + [rng.randrange(1, p)])
        e = rng.choice([1, 1, 2, 3, p])
        if f.degree + e * g.degree > max_degree:
            continue
        for _ in range(e):
            f = fp_mul(f, g)
    a = rng.choice([0, 0, 1, 3])
    if f.degree + a <= max_degree:
        f = fp_mul(f, ModPoly(p, [0] * a + [1]))
    return f


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101])
def test_factor_degrees_match_the_squarefree_oracle(p):
    rng = random.Random(7000 + p)
    for _ in range(300):
        f = _random_factored(rng, p, 30)
        assert irreducible_factor_degrees(f) == irreducible_factor_degrees_sqfree(f), f.coeffs


def _random_large(rng, p):
    # degree 31..120: dense random polynomials, whose factors are mostly
    # large, and products with repeats, p-th powers and powers of t
    if rng.random() < 0.5:
        deg = rng.randint(31, 120)
        return ModPoly(p, [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])
    while True:
        f = _random_factored(rng, p, 120, 40)
        if f.degree > 30:
            return f


@pytest.mark.parametrize("p", [2, 3])
def test_packed_kernel_matches_the_oracles_past_degree_30(p):
    # the slot width grows with the degree, so the kernel is checked well
    # past the degrees of the tests above, at p = 2 as at p = 3
    rng = random.Random(12000 + p)
    for _ in range(40):
        f = _random_large(rng, p)
        assert irreducible_factor_degrees(f) == irreducible_factor_degrees_sqfree(f), f.coeffs
        for n in [rng.randint(1, 400) for _ in range(3)] + [f.degree, 2 * f.degree + 1]:
            cyc = ModPoly.reduce(IntPoly.t_power_minus_one(n), p)
            assert _gcd_t_power_minus_one(f, n) == gcd_fp_euclid(f, cyc), (f.coeffs, n)


def test_factor_degrees_of_pth_powers_and_t_powers():
    # (t^2 + 1)^3 over F_3, and t^4 (t^2 + t + 1)^2 (t + 1)^4 over F_2
    q = IntPoly([1, 0, 1])
    assert irreducible_factor_degrees(ModPoly.reduce(q * q * q, 3)).entries == ((2, 1),)
    f = IntPoly([0, 0, 0, 0, 1]) * IntPoly([1, 1, 1]) * IntPoly([1, 1, 1])
    for _ in range(4):
        f = f * IntPoly([1, 1])
    assert irreducible_factor_degrees(ModPoly.reduce(f, 2)).entries == ((1, 1), (2, 1))
