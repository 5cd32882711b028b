"""Exact univariate polynomial arithmetic over Z and over prime fields F_p.

Polynomials are coefficient sequences in ascending order: index i holds the
coefficient of t**i, the leading coefficient is nonzero, and the zero
polynomial is the empty sequence.  Integer coefficients are arbitrary
precision throughout; there are no modular-reconstruction shortcuts.

The two resultant routines are deliberately independent of each other:
``resultant`` runs the subresultant polynomial remainder sequence, while
``resultant_sylvester`` evaluates the Sylvester determinant by fraction-free
(Bareiss) elimination, and the test suite holds them to exact agreement.
``_bareiss_det`` is the package's only determinant: it also gives the
Seifert polynomial det(V - tV^T), evaluated at integer points and
interpolated exactly by ``_pencil_det``; ``resultant`` never calls it.

Division and gcd in Z[t] stay in Z as well: ``exact_divide`` is integer long
division that stops at the first quotient term the leading coefficient does
not divide, and ``int_poly_gcd`` is a primitive remainder sequence.  Their
rational (``Fraction``) references live in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import zip_longest

from .primes import is_prime, prime_factors

__all__ = [
    "IntPoly",
    "ModPoly",
    "DegreeMultiset",
    "resultant",
    "resultant_sylvester",
    "gcd_fp",
    "irreducible_factor_degrees",
    "prime_factors",
    "eval_at",
    "exact_divide",
    "int_poly_gcd",
]


def _strip(coeffs) -> tuple[int, ...]:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _divexact(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"inexact division {a} / {b}")
    return q


@dataclass(frozen=True)
class IntPoly:
    """Polynomial over Z; ``coeffs[i]`` is the coefficient of t**i."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _strip(coeffs))

    @classmethod
    def t_power_minus_one(cls, n: int) -> "IntPoly":
        """The polynomial t**n - 1."""
        if n < 1:
            raise ValueError("need n >= 1")
        return cls((-1,) + (0,) * (n - 1) + (1,))

    @property
    def degree(self) -> int:
        # zero polynomial reports degree -1
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x: int) -> int:
        y = 0
        for c in reversed(self.coeffs):
            y = y * x + c
        return y

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(tuple(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(tuple(a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            term = f"{c}" if i == 0 else ("t" if i == 1 else f"t^{i}")
            if i > 0 and abs(c) != 1:
                term = f"{c}*" + term
            elif i > 0 and c == -1:
                term = "-" + term
            parts.append(term)
        s = " + ".join(parts).replace("+ -", "- ")
        return s


def eval_at(f: IntPoly, x: int) -> int:
    """Horner evaluation of f at the integer x."""
    return f(x)


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # pseudo-remainder: lc(b)**(deg a - deg b + 1) * a  modulo b, coefficient sequences
    db = len(b) - 1
    lb = b[-1]
    e = len(a) - 1 - db + 1
    r = list(a)
    while len(r) - 1 >= db and r:
        top = r[-1]
        r = [lb * c for c in r[:-1]]
        k = len(r) - db
        for i in range(db):
            r[k + i] -= top * b[i]
        while r and r[-1] == 0:
            r.pop()
        e -= 1
    if e > 0:
        m = lb**e
        r = [m * c for c in r]
    return r


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res_Z(f, g) by the subresultant polynomial remainder sequence.

    Conventions: Res(f, g) = lc(f)**deg(g) * prod g(alpha) over the roots of
    f; the resultant of two nonzero constants is 1 and the resultant of the
    zero polynomial with anything is 0.
    """
    if f.is_zero or g.is_zero:
        return 0
    da, db = f.degree, g.degree
    if da == 0 and db == 0:
        return 1
    if db == 0:
        return g.lc**da
    if da == 0:
        return f.lc**db
    s = 1
    a, b = list(f.coeffs), list(g.coeffs)
    if da < db:
        a, b = b, a
        da, db = db, da
        if da & 1 and db & 1:
            s = -s
    gg = 1
    h = 1
    while True:
        delta = da - db
        if da & 1 and db & 1:
            s = -s
        r = _prem(a, b)
        if not r:
            return 0
        a, da = b, db
        den = gg * h**delta
        b = [_divexact(c, den) for c in r]
        db = len(b) - 1
        gg = a[-1]
        if delta > 0:
            h = _divexact(gg**delta, h ** (delta - 1))
        if db == 0:
            break
    return s * _divexact(b[0] ** da, h ** (da - 1))


def _bareiss_det(rows: list[list[int]]) -> int:
    # fraction-free determinant of a square integer matrix; empty matrix -> 1
    n = len(rows)
    if n == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = _divexact(m[i][j] * pivot - m[i][k] * m[k][j], prev)
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _pencil_det(a: list[list[int]], b: list[list[int]]) -> IntPoly:
    """det(A - tB) in Z[t] for square integer matrices A, B of size n.

    The determinant has degree at most n, so its values at t = 0..n fix it;
    each value is a Bareiss determinant, and Newton forward differences
    rebuild the coefficients exactly (the k-th difference of an integer
    polynomial at 0 is divisible by k!).
    """
    n = len(a)
    values = [
        _bareiss_det([[a[i][j] - x * b[i][j] for j in range(n)] for i in range(n)])
        for x in range(n + 1)
    ]
    newton = []
    for k in range(n + 1):
        newton.append(_divexact(values[0], math.factorial(k)))
        values = [v1 - v0 for v0, v1 in zip(values, values[1:])]
    # nested Newton form: c0 + t(c1 + (t - 1)(c2 + (t - 2)(...)))
    det = IntPoly()
    for k in range(n, -1, -1):
        det = det * IntPoly((-k, 1)) + IntPoly((newton[k],))
    return det


def sylvester_matrix(f: IntPoly, g: IntPoly) -> list[list[int]]:
    """The (deg f + deg g)-square Sylvester matrix of two nonzero polynomials."""
    if f.is_zero or g.is_zero:
        raise ValueError("Sylvester matrix requires nonzero polynomials")
    df, dg = f.degree, g.degree
    n = df + dg
    rows = []
    frow = list(reversed(f.coeffs))
    grow = list(reversed(g.coeffs))
    for i in range(dg):
        rows.append([0] * i + frow + [0] * (n - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + grow + [0] * (n - dg - 1 - i))
    return rows


def resultant_sylvester(f: IntPoly, g: IntPoly) -> int:
    """Res_Z(f, g) as the Sylvester determinant, via Bareiss elimination.

    Independent of :func:`resultant`; used as its oracle.
    """
    return _bareiss_det(sylvester_matrix(f, g))


def exact_divide(num: IntPoly, den: IntPoly) -> IntPoly | None:
    """Quotient num/den when den divides num in Z[t] (up to nothing: exactly);
    None when the division leaves a remainder or a non-integer coefficient."""
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return IntPoly()
    dd = den.degree
    if num.degree < dd:
        return None
    rem = list(num.coeffs)
    dc = den.coeffs
    quot = [0] * (num.degree - dd + 1)
    for k in range(num.degree - dd, -1, -1):
        # every earlier quotient term was integral, so this one is the same
        # as over Q: a remainder here means no integral quotient exists
        q, r = divmod(rem[dd + k], dc[-1])
        if r:
            return None
        quot[k] = q
        if q:
            for i in range(dd):
                rem[k + i] -= q * dc[i]
    if any(rem[:dd]):
        return None
    return IntPoly(quot)


def int_poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Gcd in Z[t], returned positive: gcd of contents times primitive gcd.

    When one argument is zero the gcd is the other one, content kept, with
    its leading coefficient made positive; gcd(0, 0) = 0.
    """
    if f.is_zero or g.is_zero:
        h = g if f.is_zero else f
        return -h if h.coeffs and h.lc < 0 else h
    cont = math.gcd(f.content(), g.content())
    # primitive PRS: each pseudo-remainder is cut back to its primitive part,
    # and the last nonzero one is the primitive gcd
    a, b = _positive_primitive(f), _positive_primitive(g)
    while not b.is_zero:
        a, b = b, _positive_primitive(IntPoly(_prem(a.coeffs, b.coeffs)))
    return IntPoly(tuple(cont * c for c in a.coeffs))


def _positive_primitive(f: IntPoly) -> IntPoly:
    if f.is_zero:
        return f
    c = f.content()
    out = IntPoly(tuple(_divexact(x, c) for x in f.coeffs))
    return -out if out.lc < 0 else out


class ModPoly:
    """Polynomial over the prime field F_p, residues stored in [0, p).

    Immutable; the modulus is checked for primality once per distinct value.
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs=(), check: bool = True):
        if check:
            if not is_prime(p):
                raise ValueError(f"modulus {p} is not prime")
            coeffs = _strip(c % p for c in coeffs)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *args):
        raise AttributeError("ModPoly is immutable")

    @classmethod
    def reduce(cls, f: IntPoly, p: int) -> "ModPoly":
        """The image of an integer polynomial in F_p[t]."""
        return cls(p, f.coeffs)

    @classmethod
    def x(cls, p: int) -> "ModPoly":
        return cls(p, (0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _new(self, coeffs) -> "ModPoly":
        out = ModPoly.__new__(ModPoly)
        object.__setattr__(out, "p", self.p)
        object.__setattr__(out, "coeffs", _strip(c % self.p for c in coeffs))
        return out

    def _check_same_field(self, other: "ModPoly") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} != {other.p}")

    def __eq__(self, other) -> bool:
        return isinstance(other, ModPoly) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __add__(self, other: "ModPoly") -> "ModPoly":
        self._check_same_field(other)
        return self._new(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __sub__(self, other: "ModPoly") -> "ModPoly":
        self._check_same_field(other)
        return self._new(a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0))

    def __mul__(self, other: "ModPoly") -> "ModPoly":
        self._check_same_field(other)
        if self.is_zero or other.is_zero:
            return self._new(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return self._new(out)

    def __divmod__(self, other: "ModPoly") -> tuple["ModPoly", "ModPoly"]:
        self._check_same_field(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        p = self.p
        inv = pow(other.lc, -1, p)
        r = list(self.coeffs)
        dd = other.degree
        q = [0] * max(len(r) - dd, 0)
        while len(r) - 1 >= dd and r:
            c = r[-1] * inv % p
            k = len(r) - 1 - dd
            q[k] = c
            for i in range(dd + 1):
                r[k + i] = (r[k + i] - c * other.coeffs[i]) % p
            while r and r[-1] == 0:
                r.pop()
        return self._new(q), self._new(r)

    def __floordiv__(self, other: "ModPoly") -> "ModPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "ModPoly") -> "ModPoly":
        return divmod(self, other)[1]

    def monic(self) -> "ModPoly":
        if self.is_zero or self.lc == 1:
            return self
        inv = pow(self.lc, -1, self.p)
        return self._new(c * inv for c in self.coeffs)

    def pow_mod(self, e: int, modulus: "ModPoly") -> "ModPoly":
        """self**e reduced mod modulus, by square-and-multiply."""
        result = self._new((1,))
        base = self % modulus
        while e:
            if e & 1:
                result = result * base % modulus
            base = base * base % modulus
            e >>= 1
        return result

    def derivative(self) -> "ModPoly":
        return self._new(i * c for i, c in enumerate(self.coeffs[1:], start=1))

    def pth_root(self) -> "ModPoly":
        """The p-th root of a polynomial of the form g(t**p) (Frobenius is
        the identity on F_p, so coefficients carry over unchanged)."""
        p = self.p
        if any(c and i % p for i, c in enumerate(self.coeffs)):
            raise ValueError("polynomial is not a p-th power")
        return self._new(self.coeffs[::p])

    def strip_t_power(self) -> tuple["ModPoly", int]:
        """Factor out the largest power of t; returns (quotient, exponent)."""
        if self.is_zero:
            return self, 0
        a = 0
        while self.coeffs[a] == 0:
            a += 1
        return self._new(self.coeffs[a:]), a

    def __str__(self) -> str:
        return f"{list(self.coeffs)} (mod {self.p})"


def gcd_fp(f: ModPoly, g: ModPoly) -> ModPoly:
    """Monic gcd in F_p[t]; gcd(0, 0) = 0."""
    f._check_same_field(g)
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


@dataclass(frozen=True)
class DegreeMultiset:
    """Degrees of the distinct irreducible factors of a squarefree polynomial,
    as (degree, count) pairs with degrees strictly increasing."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for d, c in self.entries:
            if d < 1 or c < 1:
                raise ValueError("degrees and counts must be positive")
        if any(a[0] >= b[0] for a, b in zip(self.entries, self.entries[1:])):
            raise ValueError("degrees must be strictly increasing")

    def degrees(self) -> list[int]:
        return [d for d, _ in self.entries]

    def total_degree(self) -> int:
        return sum(d * c for d, c in self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def squarefree_part(f: ModPoly) -> ModPoly:
    """Product of the distinct monic irreducible factors of f (any nonzero f).

    Characteristic p needs care beyond f/gcd(f, f'): factors whose
    multiplicity is divisible by p survive the gcd intact and are recovered
    through a p-th root.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    f = f.monic()
    if f.degree <= 0:
        return f._new((1,))
    df = f.derivative()
    if df.is_zero:
        return squarefree_part(f.pth_root())
    g = gcd_fp(f, df)
    w = f // g
    # w covers every factor whose multiplicity is prime to p; peel those out
    # of g until only p-th-power content remains
    while True:
        h = gcd_fp(g, w)
        if h.degree <= 0:
            break
        g = g // h
    if g.degree <= 0:
        return w
    return w * squarefree_part(g.pth_root())


def irreducible_factor_degrees(f: ModPoly) -> DegreeMultiset:
    """Degrees of the distinct irreducible factors of f other than t.

    Strips the t**a factor, passes to the squarefree part, then runs
    distinct-degree factorization; multiplicities in f are deliberately
    collapsed to one per distinct factor.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    core, _ = f.strip_t_power()
    sf = squarefree_part(core)
    if sf.degree <= 0:
        return DegreeMultiset(())
    p = f.p
    entries = []
    v = sf
    h = ModPoly.x(p) % v
    x = ModPoly.x(p)
    d = 0
    while v.degree >= 2 * (d + 1):
        d += 1
        h = h.pow_mod(p, v)
        g = gcd_fp(v, h - x)
        if g.degree > 0:
            entries.append((d, g.degree // d))
            v = v // g
            h = h % v
    if v.degree > 0:
        entries.append((v.degree, 1))
    return DegreeMultiset(tuple(entries))
