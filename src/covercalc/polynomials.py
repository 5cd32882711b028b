"""Exact univariate polynomial arithmetic over Z and over prime fields F_p.

Polynomials are coefficient sequences in ascending order: index i holds the
coefficient of t**i, the leading coefficient is nonzero, and the zero
polynomial is the empty sequence.  Integer coefficients are arbitrary
precision throughout; there are no modular-reconstruction shortcuts.

The two resultant routines are deliberately independent of each other:
``resultant`` runs the subresultant polynomial remainder sequence, while
``resultant_sylvester`` evaluates the Sylvester determinant by fraction-free
(Bareiss) elimination, and the test suite holds them to exact agreement.
The cover orders (``covers.order_from_tilde``, which holds the proof) take
the degree-d trace polynomial D of a palindromic polynomial of degree 2d
(``_trace_poly``), reduce a Dickson-polynomial combination A mod D by the
Lucas ladder (``_lucas_mod``, its products pseudo-reduced by one row table
per modulus in ``_reduce``) and run one subresultant chain
(``_subresultant``) of degree d.
Bareiss elimination is the package's only determinant; ``resultant`` never
calls it.  ``_bareiss_det`` gives the Seifert polynomial det(V - tV^T) of a
2g-square V from its g + 1 values at t = 0..g, and ``_adjugate`` solves for
its coefficients (``_seifert_det``): the polynomial is palindromic, as
det(V - tV^T) = det(V^T - tV), and a palindromic polynomial of degree <= 2g
vanishing at 0..g has more roots than its degree.

Division and gcd in Z[t] stay in Z as well: ``exact_divide`` is integer long
division that stops at the first quotient term the leading coefficient does
not divide, and ``int_poly_gcd`` is a primitive remainder sequence.  Their
rational (``Fraction``) references live in ``tests/oracles.py``.

F_p[t] has one arithmetic, a kernel on plain ints: for every prime p the
residues of a polynomial sit in fixed-width slots of one int, so that a
product of polynomials is one integer product and one elimination step is a
few integer operations.  ``ModPoly`` is a value type with no arithmetic: a
prime and a reduced residue tuple, the argument type and the cache key of
the mod-p invariants.  The gcd with t**n - 1 behind the Z/p-homology-sphere
test (t**n reduced mod f by square-and-multiply) runs on the kernel, and so
does ``irreducible_factor_degrees``, a distinct-degree factorization with
no squarefree pass: when the factors of degree d turn up as g = gcd(v,
t**(p**d) - t), every power of them is divided out of v, so the rest of v
has only factors of degree above d and the usual stop rule (deg v <
2(d + 1) means v is irreducible) still holds.  Coefficient-list
arithmetic, Euclid's gcd and the squarefree-part algorithm over F_p are
their test oracles in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from functools import lru_cache
from itertools import zip_longest

from ._value import _Value
from .primes import _CACHE_SIZE, PSI_13, is_prime, prime_factors

__all__ = [
    "IntPoly",
    "ModPoly",
    "DegreeMultiset",
    "resultant",
    "resultant_sylvester",
    "irreducible_factor_degrees",
    "prime_factors",
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


class _Coeffs:
    # the part of a polynomial that reads only its stripped coefficient tuple;
    # a plain mixin, as every subclass of _Value must name its _fields
    __slots__ = ()

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


def _format_terms(coeffs: Sequence[int], low: int = 0) -> str:
    # coeffs[i] is the coefficient of t**(low + i); terms print highest first
    parts = []
    for e, c in reversed(list(enumerate(coeffs, low))):
        if c:
            base = "t" if e == 1 else f"t^{e}"
            term = base if c == 1 else "-" + base if c == -1 else f"{c}*{base}"
            parts.append(term if e else f"{c}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


class IntPoly(_Coeffs, _Value):
    """Polynomial over Z; ``coeffs[i]`` is the coefficient of t**i."""

    _fields = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _strip(coeffs))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        # every memo cache keys on IntPolys, so the hash is computed on first
        # use and kept in the instance dict; the many polynomials that are
        # never hashed pay nothing
        try:
            return self._hash
        except AttributeError:
            h = hash((self.coeffs,))
            object.__setattr__(self, "_hash", h)
            return h

    @classmethod
    def t_power_minus_one(cls, n: int) -> "IntPoly":
        """The polynomial t**n - 1."""
        if n < 1:
            raise ValueError("need n >= 1")
        return cls((-1,) + (0,) * (n - 1) + (1,))

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
        return IntPoly(_mul(self.coeffs, other.coeffs))

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def __str__(self) -> str:
        return _format_terms(self.coeffs)


def _prem(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # pseudo-remainder: lc(b)**(deg a - deg b + 1) * a  modulo b, coefficient sequences
    db = len(b) - 1
    lb = b[-1]
    e = len(a) - 1 - db + 1
    r = list(a)
    while len(r) - 1 >= db and r:
        top = r.pop()
        if lb != 1:
            r = [lb * c for c in r]
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


@lru_cache(maxsize=_CACHE_SIZE)
def _rows(b: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # row j = a**(j+1) x**(d+j) mod b, j <= d = deg b, a = lc(b): row 0 is
    # a x**d - b, row j + 1 is a x row_j with its x**d term c taken as c row_0
    rows = [[-c for c in b[:-1]]]
    for _ in b[1:]:
        rows.append([b[-1] * x + rows[-1][-1] * y for x, y in zip([0] + rows[-1][:-1], rows[0])])
    return tuple(map(tuple, rows))


def _reduce(r: list[int], k: int, b: tuple[int, ...]) -> tuple[list[int], int]:
    # (R, j) with R / a**j = (r / a**k) mod b over Q in lowest terms, R stripped,
    # deg R < deg b, for a = lc(b) and deg r <= 2 deg b; r is consumed.  One pass
    # over _rows(b) gives a**e r mod b, e = deg r - deg b + 1: a**e r_i plus
    # a**(e-1-j) r_(d+j) row_j[i] for j < e; e is added to k, and the powers
    # of a common to every coefficient are divided back out, at most k of them
    d, a = len(b) - 1, b[-1]
    if len(r) > d:
        k += len(r) - d
        p = a ** (len(r) - d)
        out = r[:d] if p == 1 else [p * x for x in r[:d]]
        for c, row in zip(r[d:], _rows(b)):
            if a != 1:
                p //= a
                c *= p
            if c:
                for i, y in enumerate(row):
                    out[i] += c * y
        r = out
    while r and r[-1] == 0:
        r.pop()
    if a == 1:
        return r, 0
    c, j = math.gcd(*r), 0
    while j < k and c % a == 0:
        c //= a
        j += 1
    if j:
        q = a**j
        r = [x // q for x in r]
    return r, k - j


def _mul(r: Sequence[int], s: Sequence[int]) -> list[int]:
    out = [0] * (len(r) + len(s) - 1)
    for i, x in enumerate(r):
        if x:
            for j, y in enumerate(s):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=_CACHE_SIZE)
def _trace_poly(f: IntPoly) -> IntPoly:
    """D with f(t) = t**d D(t + 1/t), for f palindromic of degree 2d: as
    f(t) / t**d = c_d + sum over k >= 1 of c_(d+k) (t**k + t**-k),
    D = c_d + sum of c_(d+k) V_k for the Dickson polynomials V_k, with
    V_k(t + 1/t) = t**k + t**-k, V_0 = 2, V_1 = x and
    V_(k+1) = x V_k - V_(k-1); deg D = d and lc D = lc f."""
    c = f.coeffs
    d = len(c) // 2
    D = [c[d]] + [0] * d
    v0, v1 = [2], [0, 1]
    for k in range(1, d + 1):
        for i, x in enumerate(v1):
            D[i] += c[d + k] * x
        v0, v1 = v1, [x - y for x, y in zip_longest([0] + v1, v0, fillvalue=0)]
    return IntPoly(D)


def _lucas_mod(b: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int]:
    """(R, k) with R / a**k = A_n mod b over Q in lowest terms, R stripped and
    deg R < deg b, for stripped coefficients b of degree >= 1 with a = lc(b)
    > 0, n >= 1 and m = n // 2, where A_n = V_(m+1) - V_m (odd n) or
    2 V_(m+1) - x V_m = V_(m+1) - V_(m-1) (even n) is monic of degree m + 1;
    R = A_n when m + 1 < deg b.

    The Lucas ladder takes (V_j, V_(j+1)) mod b along the leading bits j of
    n // 4 by V_2j = V_j**2 - 2 and V_(2j+1) = V_j V_(j+1) - x, and the same
    rules give A_4j = V_j A_2j, A_(4j+1) = V_j A_(2j+1) - A_1, A_(4j+2) =
    V_(j+1) A_2j + A_2 and A_(4j+3) = V_(j+1) A_(2j+1) + A_1 (A_1 = x - 2,
    A_2 = x**2 - 4): O(log n) products of degree below deg b, each put in
    lowest terms by ``_reduce``.
    """
    a = b[-1]

    def double(r, k):  # V_2j from V_j
        sq = _mul(r, r) or [0]
        sq[0] -= 2 * a ** (2 * k)
        return _reduce(sq, 2 * k, b)

    def add(r, kr, s, ks):  # V_(2j+1) from V_j and V_(j+1)
        p = _mul(r, s) + [0] * (3 - len(r) - len(s))
        p[1] -= a ** (kr + ks)
        return _reduce(p, kr + ks, b)

    u, w = ([2], 0), ([0, 1], 0)  # V_0 and V_1
    for bit in bin(n >> 2)[2:]:
        u, w = (add(*u, *w), double(*w)) if bit == "1" else (double(*u), add(*u, *w))
    (r, kr), (s, ks) = u, w  # V_j and V_(j+1), j = n // 4
    k = max(kr, ks)
    r, s = [a ** (k - kr) * c for c in r], [(2 - n % 2) * a ** (k - ks) * c for c in s]
    # A_(2j+1) = V_(j+1) - V_j for odd n, A_2j = 2 V_(j+1) - x V_j for even n
    q = [x - y for x, y in zip_longest(s, r if n % 2 else [0] + r, fillvalue=0)]
    p, kp = w if n & 2 else u
    q = _mul(p, q) + [0] * (4 - len(p) - len(q))  # plus 0, -A_1, A_2 or A_1
    c = ((0, 0, 0), (2, -1, 0), (-4, 0, 1), (-2, 1, 0))[n % 4]
    q[:3] = [x + y * a ** (k + kp) for x, y in zip(q, c)]
    r, k = _reduce(q, k + kp, b)
    return tuple(r), k


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res_Z(f, g) by the subresultant polynomial remainder sequence.

    Conventions: Res(f, g) = lc(f)**deg(g) * prod g(alpha) over the roots of
    f; the resultant of two nonzero constants is 1 and the resultant of the
    zero polynomial with anything is 0.
    """
    if f.is_zero or g.is_zero:
        return 0
    da, db = f.degree, g.degree
    if da == 0:  # 1 when g is constant too
        return f.lc**db
    if da < db:  # Res(f, g) = (-1)**(deg f deg g) Res(g, f)
        return (-1) ** (da * db) * _subresultant(g.coeffs, f.coeffs, 1, 1)
    return _subresultant(f.coeffs, g.coeffs, 1, 1)


def _subresultant(a: Sequence[int], b: Sequence[int], gg: int, h: int) -> int:
    """+-Res(A, B) by the subresultant PRS of (A, B), continued from a
    state of its chain: the last two members a, b (deg a > deg b, or
    deg a >= deg b at the start), gg = lc(a) and the running power h, which
    are 1 and 1 at the start; 0 if a remainder vanishes.  a and b must be
    stripped: a zero top coefficient would be read as the degree.  Each
    remainder is divided exactly by gg * h**delta (Collins 1967; Brown-Traub
    1971): the members are subresultants of (A, B), no power of lc builds up.
    """
    s = 1
    da, db = len(a) - 1, len(b) - 1
    while db > 0:
        delta = da - db
        if da & 1 and db & 1:
            s = -s
        r = _prem(a, b)
        a, da = b, db
        den = gg * h**delta
        b = [_divexact(c, den) for c in r]
        db = len(b) - 1
        gg = a[-1]
        if delta > 0:
            h = _divexact(gg**delta, h ** (delta - 1))
    if not b:
        return 0
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


def _adjugate(rows: list[list[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    # adj(A) and det(A) of a nonsingular square integer matrix A by one
    # fraction-free Gauss-Jordan (Bareiss) elimination of [A | I]: each row
    # but the pivot's is divided exactly by the last pivot, and it ends at
    # [d I | d A^-1], d = +-det(A) by the sign of the row swaps
    n = len(rows)
    m = [row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    sign, prev = 1, 1
    for k in range(n):
        if m[k][k] == 0:
            i = next(i for i in range(k + 1, n) if m[i][k])
            m[k], m[i], sign = m[i], m[k], -sign
        top = m[k]
        m = [row if row is top else [_divexact(top[k] * a - row[k] * b, prev) for a, b in zip(row, top)]
             for row in m]
        prev = top[k]
    return tuple(tuple(sign * a for a in row[n:]) for row in m), sign * prev


@lru_cache(maxsize=_CACHE_SIZE)
def _palindromic_solver(g: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    # adj(M) and det(M) for the M of _seifert_det, which depends only on g
    return _adjugate([[x**k + x ** (2 * g - k) if k < g else x**g for k in range(g + 1)]
                      for x in range(g + 1)])


def _seifert_det(v: list[list[int]]) -> IntPoly:
    """det(V - tV^T) in Z[t] for a square integer matrix V of even size 2g.

    p(t) = det(V - tV^T) = det(V^T - tV) = t**(2g) p(1/t), so c_(2g-k) = c_k
    and the values at t = 0..g (Bareiss determinants) fix c_0..c_g through
    M c = values, M[x][k] = x**k + x**(2g-k) (k < g), x**g (k = g).  M is
    invertible: if p vanishes at 0..g, c_0 = c_2g = 0 and p = t q, q
    palindromic of degree 2g - 2 with a double root at 1 (q'(1) = (g - 1) q(1))
    and roots at 2..g and their reciprocals: 2g roots, so q = 0.
    """
    n = len(v)
    if n % 2:
        raise ValueError("Seifert matrix must have even size 2g")
    g = n // 2
    adj, det = _palindromic_solver(g)
    values = [
        _bareiss_det([[v[i][j] - x * v[j][i] for j in range(n)] for i in range(n)])
        for x in range(g + 1)
    ]
    c = [_divexact(sum(a * y for a, y in zip(row, values)), det) for row in adj]
    return IntPoly(c + c[-2::-1])


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


class ModPoly(_Coeffs, _Value):
    """Polynomial over the prime field F_p, residues stored in [0, p).

    A value type: the modulus is checked for primality and the coefficients
    are reduced on construction, and it has no arithmetic of its own; all
    of F_p[t] runs on the packed kernel below.
    """

    _fields = ("p", "coeffs")

    def __init__(self, p: int, coeffs=()):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p >= PSI_13:
            raise ValueError(f"modulus {p}: primality is proven only below {PSI_13}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coeffs", _strip(c % p for c in coeffs))

    @classmethod
    def reduce(cls, f: IntPoly, p: int) -> "ModPoly":
        """The image of an integer polynomial in F_p[t]."""
        return cls(p, f.coeffs)

    def __str__(self) -> str:
        return f"{list(self.coeffs)} (mod {self.p})"


class DegreeMultiset(_Value):
    """Degrees of the distinct irreducible factors of a polynomial, each
    factor counted once, as (degree, count) pairs with degrees strictly
    increasing."""

    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "entries", entries)
        for d, c in entries:
            if d < 1 or c < 1:
                raise ValueError("degrees and counts must be positive")
        if any(a[0] >= b[0] for a, b in zip(entries, entries[1:])):
            raise ValueError("degrees must be strictly increasing")

    def degrees(self) -> list[int]:
        return [d for d, _ in self.entries]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


# ------------------------------------------------------ F_p[t] arithmetic
#
# The kernel works on plain ints; ``rem`` divides by a monic polynomial
# unless told the inverse of the leading coefficient, and ``power`` takes h
# already reduced mod v.


class _Fp:
    """F_p[t] on packed ints: the coefficient of t**i is slot i,
    bits [w*i, w*(i+1)).  A reduced polynomial has every slot in [0, p) and
    a nonzero top slot; between reductions a slot may grow to ``x_max``.

    Slots never borrow or carry: products of reduced polynomials of degree
    below n add at most n terms below p**2 per slot, and an elimination step
    adds p*(p - 1), a multiple of p, before it subtracts at most (p - 1)**2;
    at most n steps touch a slot between two reductions.
    ``_reduce`` takes every slot mod p at once by Barrett division: with
    m = ceil(2**s / p) and x_max*p < 2**s, (x*m) >> s is floor(x/p) for
    every x <= x_max, and x*m < 2**w keeps it inside its slot.
    At p = 2 too: the bias p*(p - 1) = 2 is added before at most
    (p - 1)**2 = 1 is subtracted, and Barrett's m = 2**(s - 1) is exact.
    """

    def __init__(self, p: int, n: int):
        # n bounds the degree of every polynomial the kernel will see
        self.p = p
        x_max = (n + 2) * p * p
        self.s = (x_max * p).bit_length()
        self.w = self.s + x_max.bit_length()
        self.m = -(-(1 << self.s) // p)
        # a 1 in each of the 2n + 1 slots that products and remainders use
        self.ones = ones = ((1 << (self.w * (2 * n + 1))) - 1) // ((1 << self.w) - 1)
        self.qmask = ((1 << (self.w - self.s)) - 1) * ones
        self.bias = p * (p - 1) * ones
        self.x = 1 << self.w

    def _reduce(self, a: int) -> int:
        return a - self.p * (((a * self.m) >> self.s) & self.qmask)

    def pack(self, coeffs) -> int:
        """The monic multiple of a residue sequence, packed."""
        a = 0
        for c in reversed(coeffs):
            a = (a << self.w) | c
        return self._reduce(a * pow(coeffs[-1], -1, self.p))

    def unpack(self, a: int) -> list[int]:
        mask = (1 << self.w) - 1
        return [(a >> (self.w * i)) & mask for i in range(self.degree(a) + 1)]

    def degree(self, a: int) -> int:
        return (a.bit_length() - 1) // self.w

    def sub(self, a: int, b: int) -> int:
        # the bias keeps every slot of a - b nonnegative
        return self._reduce(a + self.bias - b)

    def rem(self, a: int, b: int, inv: int = 1) -> int:
        """a mod b, where inv = 1/lc(b)."""
        p, w = self.p, self.w
        db = (b.bit_length() - 1) // w
        low = (1 << (w * db)) - 1
        blow, bias = b & low, self.bias & low
        for k in range((a.bit_length() - 1) // w, db - 1, -1):
            sh = w * k
            c = (a >> sh) * inv % p
            a &= (1 << sh) - 1
            if c:
                a += (bias - c * blow) << (sh - w * db)
        # _reduce, inlined: this is the kernel's most frequent call
        return a - p * (((a * self.m) >> self.s) & self.qmask)

    def gcd(self, a: int, b: int) -> int:
        """Monic gcd of a and b, not both zero."""
        p, w = self.p, self.w
        while b:
            inv = pow(b >> (w * ((b.bit_length() - 1) // w)), -1, p)
            a, b = b, self.rem(a, b, inv)
        inv = pow(a >> (w * ((a.bit_length() - 1) // w)), -1, p)
        return self._reduce(a * inv)

    def divide_out(self, v: int, g: int) -> tuple[int, int]:
        """v with every power of g divided out, and some r with
        gcd(g, r) = gcd(g, v) and deg r < deg g; needs g(0) != 0.

        With k = deg v - deg g + 1, q = v * (1/g mod t**k) mod t**k is the
        quotient v/g if g divides v, so each division is two products, and
        multiplying back tells whether g divided v.  If not, v - q*g is
        t**k * r, and t is prime to g.
        """
        p, w = self.p, self.w
        dg = self.degree(g)
        k = self.degree(v) - dg + 1
        # 1/g mod t**k by Newton iteration: y <- y * (2 - g*y)
        y, prec = pow(g & ((1 << w) - 1), -1, p), 1
        while prec < k:
            prec = min(2 * prec, k)
            mask = (1 << (w * prec)) - 1
            e = self._reduce(g * y) & mask
            y = self._reduce(y * self._reduce((self.ones & mask) * p + 2 - e)) & mask
        while k > 0:
            q = self._reduce(v * y) & ((1 << (w * k)) - 1)
            qg = self._reduce(q * g)
            if qg != v:
                return v, self._reduce(v + self.ones * p - qg) >> (w * k)
            v = q
            k -= dg
        return v, v

    def power(self, h: int, e: int, v: int) -> int:
        # h**e mod v, e >= 1, by left-to-right square-and-multiply; the
        # product of two packed ints is the packed product of the polynomials
        result = h
        for bit in bin(e)[3:]:
            result = self.rem(self._reduce(result * result), v)
            if bit == "1":
                result = self.rem(self._reduce(result * h), v)
        return result


def _packed(f: ModPoly):
    """A kernel for f's field, and f with its power of t divided out,
    packed; f is nonzero."""
    coeffs = f.coeffs[next(i for i, c in enumerate(f.coeffs) if c) :]
    field = _Fp(f.p, len(coeffs))
    return field, field.pack(coeffs)


def _gcd_t_power_minus_one(f: ModPoly, n: int) -> ModPoly:
    """Monic gcd(f, t**n - 1) in F_p[t] for nonzero f and n >= 1.

    t**n - 1 is never built: t**n mod f comes from square-and-multiply, so
    the cost is O(m**2 log n) coefficient operations for m = deg f.  The
    power of t in f is prime to t**n - 1 and is divided out first.
    """
    field, v = _packed(f)
    r = field.sub(field.power(field.rem(field.x, v), n, v), 1)
    return ModPoly(f.p, field.unpack(field.gcd(v, r)))


def irreducible_factor_degrees(f: ModPoly) -> DegreeMultiset:
    """Degrees of the distinct irreducible factors of f other than t.

    Distinct-degree factorization with no squarefree pass.  Once the
    factors of degree d are found as g = gcd(v, t**(p**d) - t), every power
    of them is divided out of v, so what is left of v has only factors of
    degree above d; when deg v < 2(d + 1) it is therefore irreducible (or
    1).  Polynomials are packed ints and Frobenius is square-and-multiply.
    Multiplicities in f are collapsed to one per distinct factor.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    field, v = _packed(f)
    x = field.x
    h = field.rem(x, v)
    entries = []
    d = 0
    while field.degree(v) >= 2 * (d + 1):
        d += 1
        h = field.power(h, f.p, v)
        g = field.gcd(v, field.sub(h, x))
        if field.degree(g) > 0:
            entries.append((d, field.degree(g) // d))
            while field.degree(g) > d:
                v, r = field.divide_out(v, g)
                g = field.gcd(g, r)  # the factors of g left in v
            # one irreducible factor is left: dividing it out here saves the loop's
            # last gcd, 3-6% of the time to factor the perfbench filter tables
            if field.degree(g) == d:
                v = field.divide_out(v, g)[0]
            h = field.rem(h, v)
    if field.degree(v) > 0:
        entries.append((field.degree(v), 1))
    return DegreeMultiset(tuple(entries))
