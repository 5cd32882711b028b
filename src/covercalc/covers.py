"""Homology of branched cyclic covers and the prime obstruction set.

The order of H1 of the n-fold branched cyclic cover is |Res(t**n - 1, f)|
for the degree-2d polynomial f of the knot; order 0 encodes an infinite
group.  ``order_from_tilde`` computes it at degree d from the trace
polynomial of f, without building t**n - 1; its docstring holds the proof.
The orders are memoized in one bounded LRU dict keyed by (polynomial, n),
which the Z/p-sphere test peeks: H1(cover; Z/p) = H1(cover) (x) Z/p, so the
cover is a Z/p-homology sphere iff its order is nonzero and prime to p.
When the order is not in the dict (it may have ~n bits), that test runs on
the packed F_p[t] kernel instead and computes no order.  The obstruction
set S(K, p) collects every prime dividing prod(p**d_j - 1) over the degrees
d_j of the mod-p irreducible factors other than t, and covers with order-n
branching avoid p-torsion whenever n is a multiple of no element of S(K, p).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from functools import lru_cache

from ._value import _Value
from .knots import Knot
from .polynomials import (
    IntPoly,
    ModPoly,
    _divexact,
    _gcd_t_power_minus_one,
    _lucas_mod,
    _subresultant,
    _trace_poly,
    int_poly_gcd,
    irreducible_factor_degrees,
    resultant,
)
from .primes import _CACHE_SIZE, PrimeSet, prime_factors, primes_up_to, require_prime

__all__ = [
    "CoverOrder",
    "PrimeSet",
    "HfkDimBound",
    "fox_order",
    "order_from_tilde",
    "is_zp_homology_sphere",
    "skp_set",
    "skp_from_tilde",
    "admissible",
    "admissible_primes",
    "hfk_dim_upper",
]


class CoverOrder(_Value):
    """|H1| of the n-fold branched cyclic cover; order 0 means infinite."""

    _fields = ("n", "order")

    def __init__(self, n: int, order: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "order", order)
        if n < 1:
            raise ValueError("cover index must be >= 1")
        if order < 0:
            raise ValueError("order must be >= 0")

    @property
    def infinite(self) -> bool:
        return self.order == 0


def order_from_tilde(f: IntPoly, n: int) -> CoverOrder:
    """|Res_Z(t**n - 1, f)| for any integer polynomial f; the zero f gives 0.

    One route serves every f.  With den = |f(1)| for odd n and |f(1) f(-1)|
    for even n, den = 0 means f shares the root 1 or -1 with t**n - 1: order
    0 at once.  As |Res(t**n - 1, t)| = 1, factors t are stripped when f(0) =
    0 (a knot's f is passed on as it is), and a constant c gives |c|**n.
    A palindromic f of degree 2d is f(t) = t**d D(t + 1/t), deg D = d, lc D
    = lc f (``_trace_poly``), and its roots pair as alpha, 1/alpha over the
    roots beta of D.  As (alpha**n - 1)(alpha**-n - 1) = 2 - V_n(beta) for
    V_n(t + 1/t) = t**n + t**-n, the order is |lc**n prod 2 - V_n(beta)|.
    Half of it is a square (Plans 1953).  With m = n // 2, s = t**(1/2),
    x - 2 = (s - 1/s)**2 and x**2 - 4 = (t - 1/t)**2: 2 - V_(2m+1) =
    -(s**(2m+1) - s**-(2m+1))**2 = -(x - 2) W**2 for W = (s**(2m+1) -
    s**-(2m+1)) / (s - 1/s) = sum of t**j over |j| <= m, and 2 - V_2m =
    -(t**m - t**-m)**2 = -(x**2 - 4) U**2 for U = (t**m - t**-m) / (t - 1/t).
    Multiplied out, A = (x - 2) W = V_(m+1) - V_m (odd n) or A = (x**2 - 4) U
    = V_(m+1) - V_(m-1) (even n), monic of degree N = m + 1, so Res(D, A)**2
    = lc**(2N) prod (beta - 2)**2 W(beta)**2 is the order times |D(2)| =
    |f(1)|, or times |D(2) D(-2)| = |f(1) f(-1)| for even n: den.
    Any other f of degree d, f(0) != 0, goes through f f*, f* = t**d f(1/t),
    palindromic of degree 2d: the roots of f* are the 1/alpha, so |Res(t**n
    - 1, f*)| = |f(0)**n prod (alpha**-n - 1)| = |Res(t**n - 1, f)|, and
    Res(D, A)**2 for D = ``_trace_poly``(f f*) is the order squared times
    den**2.  The order is |Res(D, A)|**e / den, e = 2 for a palindromic f and
    1 otherwise, an exact division, checked.
    ``_lucas_mod`` gives g / a**k = A mod b in lowest terms for b = +-D, a =
    lc(b) > 0.  For N >= d the chain of (A, b) is entered after its first
    step: the pseudo-remainder a**(N-d+1-k) g (integral, g / a**k being in
    lowest terms), with scalars a and a**(N-d); for N < d, g = A and the
    chain starts at (D, g).  A zero resultant needs a common factor of D, g.
    """
    if n < 1:
        raise ValueError("cover index must be >= 1")
    c = f.coeffs
    even, odd = sum(c[::2]), sum(c[1::2])  # f(1) = even + odd, f(-1) = even - odd
    den = abs(even + odd if n % 2 else (even + odd) * (even - odd))
    if den == 0:
        return CoverOrder(n=n, order=0)
    if c[0] == 0:
        f = IntPoly(c[next(i for i, x in enumerate(c) if x) :])
    if f.degree < 1:
        return CoverOrder(n=n, order=abs(f.lc) ** n)
    if f.degree % 2 == 0 and f.coeffs == f.coeffs[::-1]:
        D, e = _trace_poly(f), 2
    else:
        D, e = _trace_poly(f * IntPoly(f.coeffs[::-1])), 1
    b = D.coeffs if D.lc > 0 else tuple(-c for c in D.coeffs)
    R, k = _lucas_mod(b, n)
    g, N = IntPoly(R), n // 2 + 1
    a, d = b[-1], D.degree
    if N < d:
        res = resultant(D, g)
    else:
        res = _subresultant(b, [a ** (N - d + 1 - k) * c for c in g.coeffs], a, a ** (N - d))
    if res == 0:
        if int_poly_gcd(D, g).degree < 1:
            raise ArithmeticError("zero resultant without a common factor")
        return CoverOrder(n=n, order=0)
    return CoverOrder(n=n, order=_divexact(abs(res) ** e, den))


# LRU: a hit moves to the back; each step is one atomic call, so threads at worst recompute
_orders: OrderedDict[tuple[IntPoly, int], CoverOrder] = OrderedDict()


def _cached_order(f: IntPoly, n: int) -> CoverOrder:
    order = _orders.pop((f, n), None) or order_from_tilde(f, n)
    if len(_orders) >= _CACHE_SIZE:  # never on a hit, which was just popped
        _orders.popitem(last=False)
    _orders[f, n] = order
    return order


def fox_order(K: Knot, n: int) -> CoverOrder:
    """Order of H1 of the n-fold branched cyclic cover of the knot;
    computed once per (polynomial, n)."""
    return _cached_order(K.tilde, n)


def is_zp_homology_sphere(K: Knot, n: int, p: int) -> bool:
    """Whether the n-fold branched cyclic cover has no p-torsion and finite H1.

    H1(cover; Z/p) = H1(cover) (x) Z/p, so the answer is "order nonzero and
    prime to p".  When ``fox_order(K, n)`` is already memoized (``cover``
    and most callers ask for it first) that rule answers at once.
    Otherwise no order is computed, as it may have ~n bits: |H1| =
    |Res(t**n - 1, f)| for the knot polynomial f, and t**n - 1 is monic,
    so p divides |H1| (or H1 is infinite) exactly when t**n - 1 and f mod p
    share a factor.  Their gcd is taken on the packed F_p[t] kernel with
    t**n reduced mod (f mod p) by square-and-multiply, so t**n - 1 is never
    built, the cost is O(m**2 log n) for m = deg(f mod p), and n may be huge.
    """
    require_prime(p)
    if n < 1:
        raise ValueError("cover index must be >= 1")
    if all(c % p == 0 for c in K.tilde.coeffs):  # impossible for value 1 at t=1; bad data
        raise ValueError(f"{K.name}: polynomial vanishes mod {p}")
    known = _orders.get((K.tilde, n))
    if known is not None:  # order 0, an infinite H1, is divisible by p
        return known.order % p != 0
    return _gcd_t_power_minus_one(ModPoly.reduce(K.tilde, p), n).degree == 0


@lru_cache(maxsize=_CACHE_SIZE)
def _unit_group_primes(p: int, d: int) -> PrimeSet:
    # the primes dividing p**d - 1, the order of the unit group of F_(p**d)
    return prime_factors(p**d - 1)


@lru_cache(maxsize=_CACHE_SIZE)
def _skp_of_reduction(fbar: ModPoly) -> PrimeSet:
    out = PrimeSet(())
    for d in irreducible_factor_degrees(fbar).degrees():
        out = out.union(_unit_group_primes(fbar.p, d))
    return out


@lru_cache(maxsize=_CACHE_SIZE)
def skp_from_tilde(f: IntPoly, p: int) -> PrimeSet:
    """Obstruction primes from the mod-p irreducible factor degrees of f.

    Every prime dividing p**d - 1 for some factor degree d is included; the
    factor t is stripped first and multiplicities are irrelevant.  Results
    are cached per (f, p); the set depends only on f mod p, so each
    reduction mod p is factored once, and each p**d - 1 once per (p, d).
    """
    require_prime(p)
    fbar = ModPoly.reduce(f, p)
    if fbar.is_zero:
        raise ValueError(f"polynomial vanishes identically mod {p}; bad data")
    return _skp_of_reduction(fbar)


def skp_set(K: Knot, p: int) -> PrimeSet:
    """The finite prime set S(K, p) gating p-torsion in branched covers."""
    return skp_from_tilde(K.tilde, p)


def admissible(n: int, s: PrimeSet) -> bool:
    """True iff n is a multiple of no element of s."""
    return all(n % q for q in s)


def admissible_primes(K: Knot, p: int, limit: int) -> list[int]:
    """All primes n <= limit admissible for S(K, p); always contains p."""
    if limit < 2:
        raise ValueError("limit must be >= 2")
    s = skp_set(K, p)
    return [n for n in primes_up_to(limit) if admissible(n, s)]


class HfkDimBound(_Value):
    """Upper bounds for dim HFK of the lifted knot in the n-fold cover of a
    knot with arc index delta: the tight (delta!)**n / 2**(delta-1), rounded
    up when not integral, and the loose (delta!)**n."""

    _fields = ("tight", "loose")

    def __init__(self, tight: int, loose: int):
        object.__setattr__(self, "tight", tight)
        object.__setattr__(self, "loose", loose)


def hfk_dim_upper(delta: int, n: int) -> HfkDimBound:
    """Arc-index bound on dim HFK over the n-fold branched cyclic cover."""
    if delta < 2:
        raise ValueError("arc index must be >= 2")
    if n < 1:
        raise ValueError("cover index must be >= 1")
    loose = math.factorial(delta) ** n
    denom = 2 ** (delta - 1)
    tight = -(-loose // denom)  # exact when divisible, else ceiling
    return HfkDimBound(tight=tight, loose=loose)
