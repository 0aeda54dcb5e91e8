"""Plain-Python arithmetic the benchmark checks the program's outputs with.

Nothing here imports primarity: primitive roots and polynomial products
mod Phi_p are written out with Python ints and lists so that a fault in the
package's numpy routes cannot hide in its own checks.  Primality comes from
the test suite's trial-division oracle.
"""

from __future__ import annotations

from oracles import is_prime_naive


def primitive_root(q: int) -> int:
    """Smallest primitive root of the prime q."""
    factors = set()
    m, d = q - 1, 2
    while d * d <= m:
        while m % d == 0:
            factors.add(d)
            m //= d
        d += 1
    if m > 1:
        factors.add(m)
    g = 2
    while any(pow(g, (q - 1) // f, q) == 1 for f in factors):
        g += 1
    return g


def split_primes(p: int, start: int = 1):
    """The primes l = 1 (mod 2p) with l >= start, ascending, without end."""
    i = max(1, -(-(start - 1) // (2 * p)))
    while True:
        l = 1 + 2 * i * p
        if is_prime_naive(l):
            yield l
        i += 1


def reduce_phi(vec: list[int], p: int) -> list[int]:
    """Length p-1 representative mod (p, Phi_p) of a raw coefficient list."""
    folded = [0] * p
    for k, c in enumerate(vec):
        folded[k % p] += c
    top = folded[p - 1]
    return [(c - top) % p for c in folded[: p - 1]]


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    raw = [0] * (2 * p - 3)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                raw[i + j] += x * y
    return reduce_phi(raw, p)


def galois(a: list[int], s: int, p: int) -> list[int]:
    """Image of a under x -> x**s."""
    out = [0] * p
    for k, c in enumerate(a):
        out[k * s % p] += c
    return reduce_phi(out, p)


def one(p: int) -> list[int]:
    return [1] + [0] * (p - 2)


def exponent_set(J: list[int], p: int) -> set[int]:
    """Even n in [2, p-3] with prod_{a<=(p-1)/2} sigma_a(J^(a^(n-1) mod p)) = 1."""
    powers = [one(p), J]
    for _ in range(p - 2):
        powers.append(mul(powers[-1], J, p))
    hits = set()
    for n in range(2, p - 2, 2):
        S = one(p)
        for a in range(1, (p - 1) // 2 + 1):
            S = mul(S, galois(powers[pow(a, n - 1, p)], a, p), p)
        if S == one(p):
            hits.add(n)
    return hits


def relations_hold(J: list[int], p: int) -> bool:
    """Augmentation 1 and vanishing 1st, 2nd and 4th coefficient moments mod p."""
    if sum(J) % p != 1:
        return False
    return all(sum(k**d * c for k, c in enumerate(J)) % p == 0 for d in (1, 2, 4))
