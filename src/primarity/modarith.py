"""Primality, primitive roots, log tables, cyclotomic numbers, and split-prime streams.

Everything here works with plain Python ints except the arrays sized by a
prime l, which only spectra's trace route and the dense reference routes
build: the cyclotomic numbers, counted from log_g(v) mod p over half the
residues, and the full log table.  Both read one stream of powers in
cache-sized chunks and refuse moduli above LOG_TABLE_CAP, which also
keeps the float64 products of jacobi exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

# Largest modulus l for which the dense arrays and the factorials of jacobi
# are built.  l**2 <= 2**52 keeps the float64 products of jacobi exact.
LOG_TABLE_CAP = 1 << 26

_CHUNK = 4096  # entries per chunk of powers: two int64 buffers stay in L2

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


def _power_chunks(l: int, g: int, count: int, m: int):
    """Check l, then yield (k, x) with x[j] = g**(k + j) mod l, int64, for k < count.

    x is one buffer of a multiple of m near _CHUNK entries, rewritten in
    place; the last chunk may run past count - 1, and past l - 2 the powers
    repeat.  The first is met in the middle; each later one is the last
    times g**n, reduced as x - (x // l) * l, since numpy divides by a scalar
    without the hardware division per entry that x % l makes.
    """
    if l > LOG_TABLE_CAP:
        raise ValueError(f"modulus {l} exceeds the log-table cap {LOG_TABLE_CAP}")
    n = m * -(-min(_CHUNK, count) // m)
    small, big = [1], [1]
    for _ in range(isqrt(n) - 1):
        small.append(small[-1] * g % l)
    ga = small[-1] * g % l
    for _ in range((n - 1) // len(small)):
        big.append(big[-1] * ga % l)
    x = np.multiply.outer(np.array(big), np.array(small)).reshape(-1)[:n]
    q = np.empty_like(x)
    gn = pow(g, n, l)

    def chunks():
        for k in range(0, count, n):
            if k:
                np.multiply(x, gn, out=x)
            np.floor_divide(x, l, out=q)
            np.multiply(q, l, out=q)
            np.subtract(x, q, out=x)
            yield k, x

    return chunks()


def build_log_table(l: int, g: int) -> LogTable:
    """Dense log table mod l, filled chunk by chunk from the powers of g."""
    chunks = _power_chunks(l, g, l - 1, 1)  # the cap first: generator_test factors l - 1
    if not generator_test(l)(g):
        raise ValueError(f"{g} is not a primitive root mod {l}")
    powers = np.empty(l - 1, dtype=np.int32)
    dlog = np.zeros(l, dtype=np.int32)
    for k, x in chunks:
        x = x[: l - 1 - k]
        dlog[x] = np.arange(k, k + len(x), dtype=np.int32)
        powers[k:k + len(x)] = x
    powers.setflags(write=False)
    dlog.setflags(write=False)
    return LogTable(powers=powers, dlog=dlog)


def cyclotomic_numbers(p: int, l: int) -> np.ndarray:
    """N[d][m] = #{y in C_d : 1 + y in C_m} mod l, read-only; C_d holds the
    g**k with k = d (mod p), g the least primitive root of l.

    2p must divide l - 1, as for every split prime l = 1 + 2ip, so -1 = g**h,
    h = (l-1)/2, lies in C_0 and the coset index ind(v) = log_g(v) mod p
    has ind(l - v) = ind(v).  Only ind[1..h] is built, in the least unsigned
    dtype that holds p: each chunk of g**k, k < h, folds to min(v, l - v)
    and, as p divides its length, takes one pattern of k mod p; a chunk past
    h - 1 rewrites the same values, as p divides h.  The pairs (y, 1 + y),
    y in [1, h-1], are consecutive entries of ind and l - 1 - y has the
    transposed cell, so a count B of d*p + m over them gives N = B + B.T
    plus the cell (ind(h), ind(h)) of y = h, its own mirror.  B sums a
    bincount per chunk of max(2**15, 8*p*p) cells, so no temporary but ind
    grows with l and the p*p counts cost at most an eighth of each chunk.
    """
    if p < 1 or (l - 1) % (2 * p):
        raise ValueError(f"2p with p={p} does not divide l - 1 = {l - 1}")
    h = (l - 1) // 2
    chunks = _power_chunks(l, primitive_root(l), h, p)
    index = np.zeros(h + 1, dtype=np.min_scalar_type(p))
    for k, x in chunks:
        if not k:
            pattern = np.tile(np.arange(p, dtype=index.dtype), len(x) // p)
        index[np.minimum(x, l - x)] = pattern
    size = max(1 << 15, 8 * p * p)
    buf = np.empty(min(size, h - 1), dtype=np.intp)  # bincount copies any other dtype to intp
    B = np.zeros((p, p), dtype=np.intp)
    for y in range(1, h, size):
        cells = buf[:min(size, h - y)]
        np.multiply(index[y:y + len(cells)], p, out=cells, dtype=np.intp)
        cells += index[y + 1:y + 1 + len(cells)]
        B += np.bincount(cells, minlength=p * p).reshape(p, p)
    N = B + B.T
    N[index[h], index[h]] += 1
    N.setflags(write=False)
    return N


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

