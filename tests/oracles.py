"""Independent reference implementations used to check the library.

Nothing here shares an algorithm with the code under test: integer
determinants are plain fraction Gaussian elimination, determinants of
polynomial matrices are cofactor expansion or, for a pencil det(A - tB),
Newton interpolation of its values at t = 0..n, factorization is exhaustive
enumeration of irreducibles, primality is trial division, and division and
gcd in Z[t] run over Q with ``Fraction`` coefficients.

F_p[t] arithmetic lives here, as coefficient lists on ``ModPoly`` values
(``fp_sub``, ``fp_mul``, ``fp_divmod``, ``fp_monic`` and Euclid's
``gcd_fp_euclid``): it is the reference for the packed kernel the library
runs on.  The exhaustive factoring runs on it, and so does a second
reference for the factor degrees over F_p: the squarefree part (with the
p-th-root step of characteristic p) followed by the textbook
distinct-degree factorization.  ``gcd_fp`` alone is no reference: it runs
the kernel's gcd on ``ModPoly`` values for the tests.
"""

import math
from fractions import Fraction
from itertools import product, zip_longest

from covercalc.polynomials import DegreeMultiset, IntPoly, ModPoly, _Fp


def det_fraction(matrix) -> Fraction:
    """Determinant by textbook Gaussian elimination over Q."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= f * m[k][j]
    return det


def poly_matrix_det_cofactor(m) -> IntPoly:
    """Determinant of a square matrix of IntPoly entries by cofactor
    expansion along the first row; O(n!), so only for small n."""
    n = len(m)
    if n == 0:
        return IntPoly((1,))
    if n == 1:
        return m[0][0]
    total = IntPoly()
    for j, entry in enumerate(m[0]):
        if entry.is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = entry * poly_matrix_det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def pencil_det_newton(a, b) -> IntPoly:
    """det(A - tB) in Z[t] for square integer matrices A, B of size n, for
    any pencil: the values at t = 0..n by ``det_fraction``, rebuilt by Newton
    forward differences (the k-th difference of an integer polynomial at 0
    is divisible by k!)."""
    n = len(a)
    values = [
        int(det_fraction([[a[i][j] - x * b[i][j] for j in range(n)] for i in range(n)]))
        for x in range(n + 1)
    ]
    newton = []
    for k in range(n + 1):
        q, r = divmod(values[0], math.factorial(k))
        assert r == 0, (values[0], k)
        newton.append(q)
        values = [v1 - v0 for v0, v1 in zip(values, values[1:])]
    # nested Newton form: c0 + t(c1 + (t - 1)(c2 + (t - 2)(...)))
    det = IntPoly()
    for k in range(n, -1, -1):
        det = det * IntPoly((-k, 1)) + IntPoly((newton[k],))
    return det


def exact_divide_fraction(num: IntPoly, den: IntPoly):
    """num/den by long division over Q; None when the division leaves a
    remainder or a non-integer quotient coefficient."""
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return IntPoly()
    if num.degree < den.degree:
        return None
    rem = [Fraction(c) for c in num.coeffs]
    dd = den.degree
    quot = [Fraction(0)] * (num.degree - dd + 1)
    for k in range(num.degree - dd, -1, -1):
        q = rem[dd + k] / den.lc
        quot[k] = q
        for i, c in enumerate(den.coeffs):
            rem[k + i] -= q * c
    if any(rem) or any(q.denominator != 1 for q in quot):
        return None
    return IntPoly(tuple(int(q) for q in quot))


def cyclotomic(m: int) -> IntPoly:
    """The cyclotomic polynomial Phi_m: t**m - 1 divided over Q by Phi_d for
    every proper divisor d of m."""
    phi = IntPoly.t_power_minus_one(m)
    for d in range(1, m):
        if m % d == 0:
            phi = exact_divide_fraction(phi, cyclotomic(d))
    return phi


def _frac_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    r = list(a)
    db = len(b) - 1
    while len(r) - 1 >= db:
        q = r[-1] / b[-1]
        k = len(r) - 1 - db
        for i in range(db + 1):
            r[k + i] -= q * b[i]
        while r and not r[-1]:
            r.pop()
    return r


def _positive_primitive_of(coeffs) -> IntPoly:
    # clear denominators, divide out the content, make the leading term positive
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    content = math.gcd(*ints)
    sign = 1 if ints[-1] > 0 else -1
    return IntPoly(tuple(sign * (c // content) for c in ints))


def int_poly_gcd_fraction(f: IntPoly, g: IntPoly) -> IntPoly:
    """Gcd in Z[t] by Euclid over Q: the gcd of the contents times the
    positive primitive gcd; when one argument is zero, the other with its
    content kept and a positive leading coefficient (gcd(0, 0) = 0)."""
    if f.is_zero:
        f, g = g, f
    if g.is_zero:
        sign = -1 if f.coeffs and f.coeffs[-1] < 0 else 1
        return IntPoly(tuple(sign * c for c in f.coeffs))
    a = [Fraction(c) for c in f.coeffs]
    b = [Fraction(c) for c in g.coeffs]
    while b:
        a, b = b, _frac_mod(a, b)
    cont = math.gcd(f.content(), g.content())
    return IntPoly(tuple(cont * c for c in _positive_primitive_of(a).coeffs))


def _same_field(f: ModPoly, g: ModPoly) -> int:
    if f.p != g.p:
        raise ValueError(f"modulus mismatch: {f.p} != {g.p}")
    return f.p


def fp_sub(f: ModPoly, g: ModPoly) -> ModPoly:
    p = _same_field(f, g)
    return ModPoly(p, [a - b for a, b in zip_longest(f.coeffs, g.coeffs, fillvalue=0)])


def fp_mul(f: ModPoly, g: ModPoly) -> ModPoly:
    """Schoolbook product in F_p[t]."""
    p = _same_field(f, g)
    if f.is_zero or g.is_zero:
        return ModPoly(p)
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a:
            for j, b in enumerate(g.coeffs):
                out[i + j] += a * b
    return ModPoly(p, out)


def fp_divmod(f: ModPoly, g: ModPoly) -> tuple[ModPoly, ModPoly]:
    """Quotient and remainder of long division in F_p[t]."""
    p = _same_field(f, g)
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    inv = pow(g.lc, -1, p)
    r = list(f.coeffs)
    dd = g.degree
    q = [0] * max(len(r) - dd, 0)
    while len(r) - 1 >= dd and r:
        c = r[-1] * inv % p
        k = len(r) - 1 - dd
        q[k] = c
        for i in range(dd + 1):
            r[k + i] = (r[k + i] - c * g.coeffs[i]) % p
        while r and r[-1] == 0:
            r.pop()
    return ModPoly(p, q), ModPoly(p, r)


def fp_monic(f: ModPoly) -> ModPoly:
    if f.is_zero:
        return f
    inv = pow(f.lc, -1, f.p)
    return ModPoly(f.p, [c * inv for c in f.coeffs])


def gcd_fp(f: ModPoly, g: ModPoly) -> ModPoly:
    """Monic gcd in F_p[t] on the library's packed kernel (``_Fp.gcd``);
    gcd(0, 0) = 0.  Not an oracle: the adapter that lets the tests hold the
    kernel's gcd to ``gcd_fp_euclid``."""
    _same_field(f, g)
    if f.is_zero and g.is_zero:
        return f
    field = _Fp(f.p, max(len(f.coeffs), len(g.coeffs)))
    a, b = (field.pack(h.coeffs) if h.coeffs else 0 for h in (f, g))
    return ModPoly(f.p, field.unpack(field.gcd(a, b)))


def gcd_fp_euclid(f: ModPoly, g: ModPoly) -> ModPoly:
    """Monic gcd in F_p[t] by Euclid's remainder sequence; gcd(0, 0) = 0."""
    _same_field(f, g)
    while not g.is_zero:
        f, g = g, fp_divmod(f, g)[1]
    return fp_monic(f)


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brent_rho_stepwise(n: int) -> int:
    """Brent's rho with one gcd per step, the reference for the batched
    ``primes._pollard_rho``: the same walk for each c, stopped at the first
    step whose difference shares a factor with n."""
    for c in range(1, 100):
        y, r, d = 2, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for _ in range(r):
                y = (y * y + c) % n
                d = math.gcd(x - y, n)
                if d != 1:
                    break
            r *= 2
        if d != n:
            return d
    raise ArithmeticError(f"no factor of {n} found")


def monic_irreducibles(p: int, max_degree: int) -> list[ModPoly]:
    """Every monic irreducible over F_p of degree <= max_degree, by sieve."""
    found: list[ModPoly] = []
    for d in range(1, max_degree + 1):
        for tail in product(range(p), repeat=d):
            f = ModPoly(p, list(tail) + [1])
            if all(not fp_divmod(f, g)[1].is_zero for g in found if g.degree <= d // 2):
                found.append(f)
    return found


def factor_degrees_exhaustive(f: ModPoly, irreducibles=None):
    """Distinct irreducible factor degrees of f, skipping the factor t,
    via trial division against the enumerated irreducible list.

    Valid whenever deg f <= 2*max_degree + 1 of the supplied list.
    """
    irr = irreducibles
    if irr is None:
        irr = monic_irreducibles(f.p, max(1, f.degree // 2 + 1))
    max_listed = max(g.degree for g in irr)
    f = fp_monic(f)
    seen: dict[int, int] = {}
    for g in irr:
        if fp_divmod(f, g)[1].is_zero:
            if g.coeffs != (0, 1):
                seen[g.degree] = seen.get(g.degree, 0) + 1
            while fp_divmod(f, g)[1].is_zero:
                f = fp_divmod(f, g)[0]
    if f.degree > 0:
        # leftover has no factor of degree <= max_listed, hence is irreducible
        # as long as it cannot split into two larger pieces
        assert f.degree <= 2 * max_listed + 1, f"oracle cannot certify degree {f.degree}"
        seen[f.degree] = seen.get(f.degree, 0) + 1
    return tuple(sorted(seen.items()))


def _pow_mod(f: ModPoly, e: int, modulus: ModPoly) -> ModPoly:
    # f**e reduced mod modulus, by square-and-multiply
    result = ModPoly(f.p, (1,))
    base = fp_divmod(f, modulus)[1]
    while e:
        if e & 1:
            result = fp_divmod(fp_mul(result, base), modulus)[1]
        base = fp_divmod(fp_mul(base, base), modulus)[1]
        e >>= 1
    return result


def _derivative(f: ModPoly) -> ModPoly:
    return ModPoly(f.p, [i * c for i, c in enumerate(f.coeffs[1:], start=1)])


def _pth_root(f: ModPoly) -> ModPoly:
    # the p-th root of g(t**p): Frobenius is the identity on F_p, so the
    # coefficients carry over unchanged
    p = f.p
    if any(c and i % p for i, c in enumerate(f.coeffs)):
        raise ValueError("polynomial is not a p-th power")
    return ModPoly(p, f.coeffs[::p])


def strip_t_power(f: ModPoly) -> ModPoly:
    """f with its largest power of t divided out."""
    a = 0
    while f.coeffs[a] == 0:
        a += 1
    return ModPoly(f.p, f.coeffs[a:])


def squarefree_part(f: ModPoly) -> ModPoly:
    """Product of the distinct monic irreducible factors of f (any nonzero f).

    Characteristic p needs care beyond f/gcd(f, f'): factors whose
    multiplicity is divisible by p survive the gcd intact and are recovered
    through a p-th root.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    f = fp_monic(f)
    if f.degree <= 0:
        return ModPoly(f.p, (1,))
    df = _derivative(f)
    if df.is_zero:
        return squarefree_part(_pth_root(f))
    g = gcd_fp_euclid(f, df)
    w = fp_divmod(f, g)[0]
    # w covers every factor whose multiplicity is prime to p; peel those out
    # of g until only p-th-power content remains
    while True:
        h = gcd_fp_euclid(g, w)
        if h.degree <= 0:
            break
        g = fp_divmod(g, h)[0]
    if g.degree <= 0:
        return w
    return fp_mul(w, squarefree_part(_pth_root(g)))


def irreducible_factor_degrees_sqfree(f: ModPoly) -> DegreeMultiset:
    """Degrees of the distinct irreducible factors of f other than t: strip
    t**a, pass to the squarefree part, then distinct-degree factorization
    with ``ModPoly`` arithmetic."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    v = squarefree_part(strip_t_power(f))
    p = f.p
    x = ModPoly(p, (0, 1))
    h = fp_divmod(x, v)[1]
    entries = []
    d = 0
    while v.degree >= 2 * (d + 1):
        d += 1
        h = _pow_mod(h, p, v)
        g = gcd_fp_euclid(v, fp_sub(h, x))
        if g.degree > 0:
            entries.append((d, g.degree // d))
            v = fp_divmod(v, g)[0]
            h = fp_divmod(h, v)[1]
    if v.degree > 0:
        entries.append((v.degree, 1))
    return DegreeMultiset(tuple(entries))
