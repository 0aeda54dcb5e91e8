"""Primality, primitive roots, log tables, and split-prime streams.

Everything here works with plain Python ints except the log table, whose
arrays are sized by a prime l; only the dense reference trace route of
spectra builds one.  It refuses moduli above LOG_TABLE_CAP, which also
keeps the float64 products of jacobi exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest modulus l for which the log table and the factorials of jacobi
# are built.  l**2 <= 2**52 keeps the float64 products of jacobi exact.
LOG_TABLE_CAP = 1 << 26

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# (bound, k): the first k bases decide every n below bound.  Each bound is
# the least strong pseudoprime to those k bases (Jaeschke; Sorenson-Webster).
_MR_BOUNDS = ((2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
              (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
              (3825123056546413051, 9))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the bases n's size needs, correct below 2**64."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = next((k for bound, k in _MR_BOUNDS if n < bound), len(_MR_BASES))
    for a in _MR_BASES[:bases]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[int]:
    """Prime factors of n with multiplicity, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def generator_test(q: int):
    """Predicate: g has order q - 1 mod q; then q is prime, and g = 0 (mod q) fails."""
    cofactors = [(q - 1) // f for f in set(factorize(q - 1))]
    return lambda g: pow(g, q - 1, q) == 1 and all(pow(g, e, q) != 1 for e in cofactors)


def primitive_root(q: int) -> int:
    """Smallest positive primitive root modulo the prime q.

    As q is prime, every g in [1, q) has g**(q-1) = 1, so the cofactors
    (q-1)/f decide, the one of the least prime f first: it rejects half of
    the candidates.
    """
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    cofactors = [(q - 1) // f for f in dict.fromkeys(factorize(q - 1))]
    return next(g for g in range(1, q) if all(pow(g, e, q) != 1 for e in cofactors))


@dataclass(frozen=True)
class LogTable:
    """Discrete logarithms of F_l* to a primitive root g.

    powers[k] = g**k mod l for k in [0, l-2]; dlog[v] = k with g**k = v.
    Both arrays are immutable views that workers may share read-only.
    """

    powers: np.ndarray
    dlog: np.ndarray


def build_log_table(l: int, g: int) -> LogTable:
    """Dense log table mod l, its powers filled by doubling: x[k:2k] = x[:k] g**k."""
    if l > LOG_TABLE_CAP:  # before generator_test, which factors l - 1
        raise ValueError(f"modulus {l} exceeds the log-table cap {LOG_TABLE_CAP}")
    if not generator_test(l)(g):
        raise ValueError(f"{g} is not a primitive root mod {l}")
    x, k = np.ones(l - 1, dtype=np.int64), 1
    while k < l - 1:
        x[k:2 * k] = x[:min(k, l - 1 - k)] * pow(g, k, l) % l
        k *= 2
    powers = x.astype(np.int32)
    dlog = np.zeros(l, dtype=np.int32)
    dlog[powers] = np.arange(l - 1, dtype=np.int32)
    powers.setflags(write=False)
    dlog.setflags(write=False)
    return LogTable(powers=powers, dlog=dlog)


def split_primes(p: int, bound: int | None = None, count: int | None = None):
    """Yield the primes l = 1 + 2ip ascending, optionally capped.

    bound caps the value of l, count caps how many primes are yielded;
    either may be None for an endless stream.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p={p} is not an odd prime")
    if count is not None and count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    emitted = 0
    i = 1
    while count is None or emitted < count:
        l = 1 + 2 * i * p
        if bound is not None and l > bound:
            return
        if is_prime(l):
            yield l
            emitted += 1
        i += 1

