"""Prime generation and testing, desk scale.

A plain sieve for enumerating primes up to a bound and a deterministic
Miller-Rabin test for isolated queries.  The witness set {2, 3, 5, 7, 11,
13, 17, 19, 23, 29, 31, 37} is proven correct for all n below
psi_12 = 318665857834031151167461 (Sorenson and Webster 2015), and psi_12
itself, 399165290221 * 798330580441, passes it.  So a caller that must not
take a composite for a prime keeps n below that bound; the CLI refuses any
p it tests above 10^18.
"""

from __future__ import annotations

from itertools import compress
from math import isqrt

__all__ = ["sieve", "is_prime"]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def sieve(limit: int) -> list[int]:
    """All primes p <= limit, ascending."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), flags))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the fixed witness set."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
