"""Homology of branched cyclic covers and the prime obstruction set.

The order of H1 of the n-fold branched cyclic cover is the absolute value of
the integer resultant of t**n - 1 with the degree-2d polynomial attached to
the knot; order 0 encodes an infinite group.  That polynomial is
palindromic, so its roots pair as alpha, 1/alpha, and the order is the
resultant of 2 - V_n with its degree-d trace polynomial D (the proof is in
``order_from_tilde``): V_n is reduced mod D by the Lucas ladder in Z[x],
and one subresultant chain of degree d is left; t**n - 1 is never built.
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
    _gcd_t_power_minus_one,
    _lucas_mod,
    _subresultant,
    _t_power_mod,
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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.n == other.n and self.order == other.order
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.order))

    @property
    def infinite(self) -> bool:
        return self.order == 0


def order_from_tilde(f: IntPoly, n: int) -> CoverOrder:
    """|Res_Z(t**n - 1, f)| for a nonzero integer polynomial f.

    A knot's f is palindromic of degree 2d: f(t) = t**d D(t + 1/t) with
    deg D = d and lc D = lc f (``_trace_poly``).  Its roots pair as alpha,
    1/alpha over the roots beta = alpha + 1/alpha of D, and (alpha**n - 1)
    (alpha**-n - 1) = 2 - V_n(beta) for V_n(t + 1/t) = t**n + t**-n, so
    Res(t**n - 1, f) and Res(D, 2 - V_n) are both lc**n prod 2 - V_n(beta).
    With m = d, A = 2 - V_n, b = +-D and a = lc(b) > 0, the Lucas ladder
    gives R / a**k = V_n mod b in lowest terms and g = 2 a**k - R.  Any
    other f keeps m = deg f, A = t**n - 1, b = +-f, R / a**k = t**n mod b
    and g = R - a**k.  Either way g / a**k = A mod b, so for n >= m the
    chain of (A, b) is entered after its first step: the pseudo-remainder
    a**(n-m+1-k) g (integral, R / a**k being in lowest terms), with scalars
    a and a**(n-m).  For n < m, g = A and the chain starts at (D or f, g).
    A zero resultant must come from a shared factor of b and g = a**k A mod b.
    """
    if n < 1:
        raise ValueError("cover index must be >= 1")
    if f.degree < 1:  # Res(t**n - 1, c) = c**n; the zero f shares every factor
        return CoverOrder(n=n, order=abs(f(0)) ** n)
    if f.degree % 2 == 0 and f.coeffs == f.coeffs[::-1]:
        f = _trace_poly(f)
        R, k = _lucas_mod(f, n)
        g = IntPoly((2 * abs(f.lc) ** k,)) - IntPoly(R)
    else:
        R, k = _t_power_mod(f, n)
        g = IntPoly(R) - IntPoly((abs(f.lc) ** k,))
    a, m = abs(f.lc), f.degree
    if n < m:
        res = resultant(f, g)
    else:
        b = f.coeffs if f.lc > 0 else tuple(-c for c in f.coeffs)
        B = [a ** (n - m + 1 - k) * c for c in g.coeffs]
        res = _subresultant(b, B, a, a ** (n - m))
    if res == 0:
        if int_poly_gcd(f, g).degree < 1:
            raise ArithmeticError("zero resultant without a common factor")
        return CoverOrder(n=n, order=0)
    return CoverOrder(n=n, order=abs(res))


# LRU: a hit moves to the back; each step is one atomic call, so threads at worst recompute
_orders: OrderedDict[tuple[IntPoly, int], CoverOrder] = OrderedDict()


def _cached_order(f: IntPoly, n: int) -> CoverOrder:
    order = _orders.pop((f, n), None) or order_from_tilde(f, n)
    if len(_orders) >= _CACHE_SIZE:  # never on a hit, which was just popped
        _orders.popitem(last=False)
    _orders[f, n] = order
    return order


_cached_order.cache_clear = _orders.clear


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
