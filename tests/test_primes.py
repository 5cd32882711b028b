import math
import random

import pytest

from covercalc.primes import (
    PSI_13,
    PrimeSet,
    _pollard_rho,
    is_prime,
    prime_factors,
    primes_up_to,
    require_prime,
)

from oracles import brent_rho_stepwise, is_prime_trial


def test_prime_factors_fixed_values():
    assert prime_factors(3).primes == (3,)
    assert prime_factors(15).primes == (3, 5)
    assert prime_factors(720).primes == (2, 3, 5)
    assert prime_factors(1).primes == ()


def test_prime_factors_rejects_zero():
    with pytest.raises(ValueError):
        prime_factors(0)


def test_prime_factors_product_divides():
    rng = random.Random(1)
    for _ in range(300):
        m = rng.randint(1, 10**9)
        ps = prime_factors(m)
        assert m % ps.product() == 0
        assert all(is_prime(q) for q in ps)


def test_prime_factors_beyond_64_bits():
    a, b = 10**10 + 19, 10**11 + 3  # both prime
    assert prime_factors(a * b).primes == (a, b)
    m89 = 2**89 - 1  # Mersenne prime
    assert prime_factors(m89).primes == (m89,)


def _seeded_prime(rng, bits):
    while True:
        q = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        if is_prime(q):
            return q


def test_prime_factors_of_explicit_products_of_20_to_40_bit_primes():
    # rho has to split every product below: p q, p**2 q (a prime power needs
    # no guard) and p p' q
    rng = random.Random(67)
    for i in range(12):
        small = _seeded_prime(rng, rng.randint(20, 32))
        primes = [small, _seeded_prime(rng, rng.randint(33, 40))]
        primes += [[], [small], [_seeded_prime(rng, rng.randint(20, 32))]][i % 3]
        m = math.prod(primes)
        assert prime_factors(m) == PrimeSet.of(primes), primes
        d = _pollard_rho(m)
        assert 1 < d < m and m % d == 0, (primes, d)


def test_pollard_rho_matches_the_stepwise_walk_on_semiprimes():
    # for n = p q a batch whose gcd is n is replayed step by step, so the
    # batched walk stops where the stepwise one does, with the same factor
    primes = [q for q in range(3, 400) if is_prime_trial(q)]
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            assert _pollard_rho(p * q) == brent_rho_stepwise(p * q), (p, q)


def test_prime_factors_of_mersenne_67():
    assert prime_factors(2**67 - 1).primes == (193707721, 761838257287)


def test_is_prime_against_trial_division():
    for n in range(2000):
        assert is_prime(n) == is_prime_trial(n), n
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_require_prime_accepts_only_proven_primes():
    # PSI_13 = 1287836182261 * 2575672364521 is a strong pseudoprime to every
    # witness, so is_prime wrongly calls it prime; require_prime stops there.
    # PSI_12, the least strong pseudoprime to 2, ..., 37, is caught by 41.
    p, q = 1287836182261, 2575672364521
    assert is_prime(p) and is_prime(q) and PSI_13 == p * q
    assert is_prime(PSI_13)
    for n in (PSI_13, 2**89 - 1, 2**127 - 1):
        with pytest.raises(ValueError, match="proven only below"):
            require_prime(n)
    psi_12 = 318665857834031151167461
    assert not is_prime(psi_12)
    for n in (psi_12, 1, 9, 2**67 - 1):
        with pytest.raises(ValueError, match="not a prime"):
            require_prime(n)
    for n in (2, 3, 2**61 - 1, p, q):
        require_prime(n)


def test_primes_up_to():
    assert primes_up_to(20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_up_to(1) == []


def test_prime_set_validation_and_ops():
    s = PrimeSet.of([5, 2, 3, 3])
    assert s.primes == (2, 3, 5)
    assert 3 in s and 7 not in s
    assert PrimeSet.of([3]).issubset(s)
    assert s.union(PrimeSet.of([7])).primes == (2, 3, 5, 7)
    assert s.product() == 30
    with pytest.raises(ValueError):
        PrimeSet((4,))
    with pytest.raises(ValueError):
        PrimeSet((3, 2))
