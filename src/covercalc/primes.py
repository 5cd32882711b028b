"""Integer primality testing and factorization into distinct primes.

``is_prime`` is Miller-Rabin with the witnesses 2, 3, ..., 41, which are
proven complete below PSI_13 = 3317044064679887385961981 (Sorenson-Webster).
PSI_13 = 1287836182261 * 2575672364521 is a strong pseudoprime to every one
of them, so at and above that bound the answer is only probable.  A
user-supplied prime p is therefore accepted only when p < PSI_13
(``require_prime``), and every accepted p is proven prime.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._value import _Value

# Witnesses certifying Miller-Rabin for all n < PSI_13, the least strong
# pseudoprime to all of them; the first twelve already cover every 64-bit integer.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3_317_044_064_679_887_385_961_981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# bounds the memory of every memo cache in the package in a long-running
# process, and is well above the working set of one filter run over a table:
# an LRU cache smaller than a cyclic working set evicts every entry before reuse
_CACHE_SIZE = 4096


def _miller_rabin(n: int, a: int) -> bool:
    # returns True if n passes the strong-pseudoprime test to base a
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@lru_cache(maxsize=_CACHE_SIZE)
def is_prime(n: int) -> bool:
    """Primality test, a proof for all n below PSI_13."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    return all(_miller_rabin(n, a) for a in _MR_WITNESSES if a < n)


def require_prime(p: int) -> None:
    """Raise ValueError unless p is a prime proven by ``is_prime``: the check
    on every user-supplied prime, which rejects p >= PSI_13."""
    if not is_prime(p):
        raise ValueError(f"{p}: not a prime")
    if p >= PSI_13:
        raise ValueError(f"{p}: primality is proven only below {PSI_13}")


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by sieve."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, b in enumerate(sieve) if b]


def _pollard_rho(n: int) -> int:
    # Brent's cycle variant, one gcd per product of 128 differences (a batch
    # whose gcd is n is replayed); n odd composite, no prime-power guard needed
    for c in range(1, 100):
        y, r, q, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = math.gcd(q, n)
                k += 128
            r *= 2
        if d == n:
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(x - ys, n)
        if d != n:
            return d
    raise ArithmeticError(f"pollard rho failed on {n}")  # pragma: no cover


def _factor_into(n: int, out: set[int]) -> None:
    while n % 2 == 0:
        out.add(2)
        n //= 2
    for p in range(3, 10_000, 2):
        if p * p > n:
            break
        while n % p == 0:
            out.add(p)
            n //= p
    if n == 1:
        return
    if is_prime(n):
        out.add(n)
        return
    d = _pollard_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


class PrimeSet(_Value):
    """A finite set of primes, kept strictly increasing."""

    _fields = ("primes",)

    def __init__(self, primes: tuple[int, ...]):
        object.__setattr__(self, "primes", primes)
        for q in primes:
            if not is_prime(q):
                raise ValueError(f"{q} is not prime")
        if any(a >= b for a, b in zip(primes, primes[1:])):
            raise ValueError("primes must be strictly increasing")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.primes == other.primes
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.primes,))

    @classmethod
    def of(cls, primes) -> "PrimeSet":
        return cls(tuple(sorted(set(primes))))

    def __iter__(self):
        return iter(self.primes)

    def __len__(self) -> int:
        return len(self.primes)

    def __contains__(self, q: int) -> bool:
        return q in self.primes

    def issubset(self, other: "PrimeSet") -> bool:
        return set(self.primes) <= set(other.primes)

    def union(self, other: "PrimeSet") -> "PrimeSet":
        # both operands are already validated, so the primality checks of
        # __init__ are skipped
        out = object.__new__(PrimeSet)
        object.__setattr__(out, "primes", tuple(sorted(set(self.primes + other.primes))))
        return out

    def product(self) -> int:
        return math.prod(self.primes)


def prime_factors(m: int) -> PrimeSet:
    """Distinct prime divisors of m >= 1 (trial division, then Pollard rho)."""
    if m < 1:
        raise ValueError("prime_factors requires m >= 1")
    found: set[int] = set()
    _factor_into(m, found)
    return PrimeSet.of(found)
