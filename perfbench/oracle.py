"""Answer checkers for the benchmark, independent of the code they check.

Nothing here calls into covercalc's arithmetic: cover orders are checked as
det(C^n - I) of the companion matrix over large prime fields, obstruction
sets come from exhaustive factoring against enumerated irreducibles with
plain coefficient lists, and divisibility from integer long division.
Filter verdicts are rebuilt from base knots through connected-sum
multiplicativity: orders multiply and obstruction sets unite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

from inputs import poly_mul

# The largest primes below 2**61 (a Mersenne prime), 2**62, 2**63 and 2**64.
CHECK_PRIMES = (2**61 - 1, 2**62 - 57, 2**63 - 25, 2**64 - 59)
FILTER_PRIMES = (2, 3, 5)
FILTER_MAX_N = 30


# ------------------------------------------------------ polynomials over F_q


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _mulmod(a, b, g, q):
    # a*b mod (monic g) over F_q; a, b already reduced
    m = len(g) - 1
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    for k in range(len(out) - 1, m - 1, -1):
        c = out[k]
        if c:
            for i in range(m):
                out[k - m + i] = (out[k - m + i] - c * g[i]) % q
    return _trim(out[:m])


def res_cyclic_mod(f, n, q):
    """Res(f, t^n - 1) mod q as lc(f)^n * det(C^n - I), C the companion
    matrix of f over F_q (q must not divide the leading coefficient)."""
    m = len(f) - 1
    lc = f[-1] % q
    inv = pow(lc, -1, q)
    g = [c * inv % q for c in f]  # monic
    t = _pmod([0, 1], g, q)
    # column j of C^n holds the coordinates of t^(n+j) mod g
    col, base, e = [1] if m else [], t, n
    while e:
        if e & 1:
            col = _mulmod(col, base, g, q)
        base = _mulmod(base, base, g, q)
        e >>= 1
    cols = []
    for _ in range(m):
        cols.append(col + [0] * (m - len(col)))
        col = _mulmod(col, t, g, q)
    a = [[(cols[j][i] - (i == j)) % q for j in range(m)] for i in range(m)]
    return pow(lc, n, q) * _det_mod(a, q) % q


def _det_mod(a, q):
    n = len(a)
    det = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k] % q
        inv = pow(a[k][k], -1, q)
        for i in range(k + 1, n):
            f = a[i][k] * inv % q
            if f:
                row, prow = a[i], a[k]
                for j in range(k, n):
                    row[j] = (row[j] - f * prow[j]) % q
    return det % q


def order_matches(f, n, order):
    """Whether |Res(t^n - 1, f)| == order holds modulo every check prime."""
    for q in CHECK_PRIMES[:2]:
        r = res_cyclic_mod(f, n, q)
        if order % q not in (r, -r % q):
            return False
    return True


def exact_cover_order(f, n):
    """|Res(t^n - 1, f)| exactly, by CRT over the check primes."""
    bound = sum(abs(c) for c in f) ** n  # |prod f(zeta)| over n-th roots of 1
    mod, value = 1, 0
    for q in CHECK_PRIMES:
        r = res_cyclic_mod(f, n, q)
        # combine value (mod mod) with r (mod q)
        value += mod * ((r - value) * pow(mod, -1, q) % q)
        mod *= q
        if mod > 2 * bound:
            break
    else:
        raise ArithmeticError("check primes too few for an exact order")
    if value > mod // 2:
        value -= mod
    return abs(value)


# ----------------------------------------------------------- cover-sweep


def check_cover_row(f, n, order, sphere, modular=True):
    """Problems with one ``cover`` row: order as an int (0 = infinite) and
    the Z/p-sphere flags keyed by p; ``modular`` also checks the order
    modulo the large primes.  Returns a list of messages."""
    bad = []
    for p, flag in sphere.items():
        if flag != (order != 0 and order % p != 0):
            bad.append(f"n={n}: Z/{p}-sphere flag {flag} disagrees with order {order}")
    if modular and not order_matches(f, n, order):
        bad.append(f"n={n}: order {order} != det(C^n - I) mod check primes")
    return bad


# ---------------------------------------------------- factoring over F_p


def _pmod(a, g, p):
    # remainder of a by monic g over F_p
    a = list(a)
    m = len(g) - 1
    for k in range(len(a) - 1, m - 1, -1):
        c = a[k]
        if c:
            for i in range(m + 1):
                a[k - m + i] = (a[k - m + i] - c * g[i]) % p
    return _trim(a[:m])


def _pdiv(a, g, p):
    a = list(a)
    m = len(g) - 1
    q = [0] * (len(a) - m)
    for k in range(len(a) - 1, m - 1, -1):
        c = a[k]
        q[k - m] = c
        if c:
            for i in range(m + 1):
                a[k - m + i] = (a[k - m + i] - c * g[i]) % p
    return q


@lru_cache(maxsize=None)
def irreducibles(p, max_degree):
    """Every monic irreducible over F_p of degree <= max_degree, by sieve."""
    found = []
    for d in range(1, max_degree + 1):
        for tail in product(range(p), repeat=d):
            f = list(tail) + [1]
            if all(_pmod(f, g, p) for g in found if 2 * (len(g) - 1) <= d):
                found.append(f)
    return tuple(found)


def factor_degrees(f, p):
    """Distinct degrees of the irreducible factors of f over F_p, factor t
    excluded, by trial division against every irreducible of degree
    <= deg/2; the cofactor left over is then irreducible."""
    a = _trim([c % p for c in f])
    while a and a[0] == 0:
        a.pop(0)
    if len(a) <= 1:
        return set()
    inv = pow(a[-1], -1, p)
    a = [c * inv % p for c in a]
    degrees = set()
    for g in irreducibles(p, (len(a) - 1) // 2):
        if len(g) > len(a):
            break
        while not _pmod(a, g, p):
            degrees.add(len(g) - 1)
            a = _pdiv(a, g, p)
    if len(a) > 1:
        degrees.add(len(a) - 1)
    return degrees


def distinct_prime_factors(m):
    out, d = set(), 2
    while d * d <= m:
        while m % d == 0:
            out.add(d)
            m //= d
        d += 1
    if m > 1:
        out.add(m)
    return out


def obstruction_set(f, p):
    """S(K, p): every prime dividing p^d - 1 over the factor degrees d."""
    out = set()
    for d in factor_degrees(f, p):
        out |= distinct_prime_factors(p**d - 1)
    return frozenset(out)


# ------------------------------------------------------------ filter-table


def divides(den, num):
    """Whether den divides num in Z[t], for a primitive den, by integer long
    division that stops at the first inexact quotient term (Gauss's lemma
    makes that exact)."""
    num = list(num)
    m = len(den) - 1
    if len(num) - 1 < m:
        return not any(num)
    for k in range(len(num) - 1 - m, -1, -1):
        c, r = divmod(num[k + m], den[-1])
        if r:
            return False
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    return not any(num)


class FilterReference:
    """Reference ribbon-filter verdicts for knots that are connected sums of
    base knots, built from per-base invariants only."""

    def __init__(self, base_records):
        self.base = {r["name"]: r for r in base_records}
        self.skp = {(name, p): obstruction_set(r["alexander"], p)
                    for name, r in self.base.items() for p in FILTER_PRIMES}
        self.orders = {(name, n): exact_cover_order(r["alexander"], n)
                       for name, r in self.base.items()
                       for n in range(1, FILTER_MAX_N + 1)}

    def knot(self, summands):
        poly = [1]
        for s in summands:
            poly = poly_mul(poly, self.base[s]["alexander"])
        return {
            "summands": summands,
            "poly": poly,
            "genus": sum(self.base[s]["genus"] for s in summands),
            "fibered": all(self.base[s]["fibered"] for s in summands),
            "skp": {p: frozenset().union(*(self.skp[s, p] for s in summands))
                    for p in FILTER_PRIMES},
        }

    def order(self, k, n):
        return math.prod(self.orders[s, n] for s in k["summands"])

    def passes(self, j, k):
        """Whether candidate j survives every check of ``obstruct(j, k)``."""
        div = divides(j["poly"], k["poly"])
        if not div:
            return False
        if j["fibered"] and len(j["poly"]) // 2 > k["genus"]:
            return False
        if any(not j["skp"][p] <= k["skp"][p] for p in FILTER_PRIMES):
            return False
        union = frozenset().union(*k["skp"].values())
        for n in range(1, FILTER_MAX_N + 1):
            if all(n % q for q in union):
                oj, ok = self.order(j, n), self.order(k, n)
                if oj and ok and ok % oj:
                    return False
        return True

    def predecessors(self, target, table):
        """Expected ``filter_predecessors`` result; table is a list of
        (name, summands) pairs in table order, target one such pair."""
        k = self.knot(target[1])
        rows = list(table)
        if target[0] not in {name for name, _ in rows}:
            rows.append(target)
        return [name for name, summands in rows if self.passes(self.knot(summands), k)]


# ----------------------------------------------------------- table-ingest


def check_ingest(expected, outcome):
    """Problems with one load: ``expected`` is a list of (name, alexander)
    pairs or None for a corrupted document; ``outcome`` is the same list as
    loaded, or the string "rejected" for a KnotTableError."""
    if expected is None:
        return [] if outcome == "rejected" else [f"corrupted document accepted: {outcome!r}"]
    if outcome != expected:
        return [f"loaded {outcome!r}, expected {expected!r}"]
    return []
