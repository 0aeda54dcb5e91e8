"""Primality, primitive roots, coset indices, log tables, and split-prime streams.

Everything here works with plain Python ints except the arrays sized by a
prime l, which are dense numpy arrays: every Jacobi-sum accumulation
consumes all l-2 coset indices ind(v) = log_g(v) mod p of a prime pair, so
a full array amortizes better than any per-query method.  coset_index
builds exactly that array from the first half of the powers of g, since
-1 = g**((l-1)/2) lies in C_0 for a split prime l = 1 + 2ip and so
ind(l - v) = ind(v); the full log table serves the dense reference routes.
Both come from one meet-in-the-middle powering and refuse moduli above
LOG_TABLE_CAP to keep the memory footprint bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest modulus l for which the dense arrays may be built.  It keeps the
# int64 block product of two powers below l**2 <= 2**52 < 2**63.
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
    """Smallest positive primitive root modulo the prime q."""
    if not is_prime(q):
        raise ValueError(f"q={q} is not prime")
    return next(filter(generator_test(q), range(1, q)))


@dataclass(frozen=True)
class LogTable:
    """Discrete logarithms of F_l* to a primitive root g.

    powers[k] = g**k mod l for k in [0, l-2]; dlog[v] = k with g**k = v.
    Both arrays are immutable views that workers may share read-only.
    """

    powers: np.ndarray
    dlog: np.ndarray


def _power_blocks(l: int, g: int, m: int, count: int) -> np.ndarray:
    """g**(t*m + j) mod l at [t, j], int64, for every block t that starts below count.

    Meet in the middle: one run of m small powers and one of the block
    powers g**(t*m), multiplied out in one pass.  The last block may run
    past exponent count - 1; past l - 2 the powers repeat as g**(k - (l-1)).
    """
    if l > LOG_TABLE_CAP:
        raise ValueError(f"modulus {l} exceeds the log-table cap {LOG_TABLE_CAP}")
    if not generator_test(l)(g):
        raise ValueError(f"{g} is not a primitive root mod {l}")
    small, big = [1], [1]
    for _ in range(m - 1):
        small.append(small[-1] * g % l)
    gm = pow(g, m, l)
    for _ in range((count - 1) // m):
        big.append(big[-1] * gm % l)
    blocks = np.multiply.outer(np.array(big), np.array(small))
    blocks %= l  # in place: a fresh int64 array as large doubles the page faults
    return blocks


def build_log_table(l: int, g: int) -> LogTable:
    """Dense log table mod l in one O(l) pass of meet-in-the-middle powering."""
    powers = _power_blocks(l, g, max(1, int(l ** 0.5)), l - 1).reshape(-1)[: l - 1]
    dlog = np.zeros(l, dtype=np.int32)
    dlog[powers] = np.arange(l - 1, dtype=np.int32)
    powers = powers.astype(np.int32)  # scattered through while still intp
    powers.setflags(write=False)
    dlog.setflags(write=False)
    return LogTable(powers=powers, dlog=dlog)


def coset_index(l: int, g: int, p: int) -> np.ndarray:
    """ind[v] = log_g(v) mod p for v in [1, l-1], read-only; ind[0] is unused.

    2p must divide l - 1, as it does for every split prime l = 1 + 2ip.
    The entries take the least unsigned dtype that holds p: uint8 below
    p = 256, uint16 above.  Only g**k for k < h = (l-1)/2 is formed: with a
    block length m divisible by p, g**(t*m + j) has index j mod p, so one
    row pattern is scattered through every block, and a block running past
    h - 1 rewrites the same values, since g**(k + h) = -g**k and p divides
    h.  -1 = g**h lies in C_0, so ind(l - v) = ind(v), and one minimum with
    the mirrored array fills in each entry left at the sentinel p.
    """
    if p < 1 or (l - 1) % (2 * p):
        raise ValueError(f"2p with p={p} does not divide l - 1 = {l - 1}")
    h = (l - 1) // 2
    m = p * max(1, round(l ** 0.5 / p))
    blocks = _power_blocks(l, g, m, h)
    index = np.full(l, p, dtype=np.min_scalar_type(p))
    index[blocks] = np.arange(m) % p
    np.minimum(index[1:], index[:0:-1], out=index[1:])
    index.setflags(write=False)
    return index


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

