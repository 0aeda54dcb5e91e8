"""Bernoulli quotients B_n / n mod p and the irregular exponents of p.

x / (e**x - 1) = sum B_k x**k / k! is the inverse of (e**x - 1) / x, whose
coefficients 1/(k+1)! are units mod p below x**(p-2).  Inverting it term by
term mod p gives B_n / n for every even n <= p-3 (Buhler, Crandall, Ernvall
and Metsankyla, Math. Comp. 1993, without the FFT).  By Kummer's congruence
B_{1, omega^(n-1)} = B_n / n mod p for the Teichmuller character omega; the
even n in [2, p-3] where it vanishes are the irregular exponents of p.
Nothing here reads a Jacobi sum; vandiver meets the two sides.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .modarith import is_prime


@lru_cache(maxsize=1)  # b1_omega callers loop over n at one p
def _bn_over_n(p: int) -> tuple[int, ...]:
    """B_n / n mod p for n = 2, 4, ..., p-3, in order.

    With f_k = 1/(k+1)!, b_k = B_k / k! = -sum_{j=1..k} f_j b_(k-j) from
    b_0 = 1, one int64 dot per k, and B_n / n = b_n (n-1)!.  Raises
    ArithmeticError unless b_k = 0 at every odd k in [3, p-4], as B_k is.
    """
    if p >= 1 << 21:  # the dots sum fewer than p terms below p**2 each
        raise ValueError(f"p={p} is not below 2**21, the int64 bound of the series")
    fact = [1]  # k! mod p for k <= p-2
    for k in range(1, p - 1):
        fact.append(fact[-1] * k % p)
    f = np.array([pow(v, -1, p) for v in fact[1:]], dtype=np.int64)
    b = np.zeros(p - 2, dtype=np.int64)  # b_k for k <= p-3
    b[0] = 1
    for k in range(1, p - 2):
        b[k] = -int(np.dot(b[:k], f[k:0:-1])) % p
    if b[3 : p - 3 : 2].any():
        raise ArithmeticError(f"B_k / k! is not 0 mod p={p} at some odd k in [3, {p - 4}]")
    return tuple(int(b[n]) * fact[n - 1] % p for n in range(2, p - 2, 2))


def b1_omega(p: int, m: int) -> int:
    """B_{1, omega^m} mod p for odd m with 1 <= m <= p-4, that is B_(m+1) / (m+1)."""
    if m % 2 == 0 or not 1 <= m <= p - 4:
        raise ValueError(f"m={m} must be odd and within [1, {p - 4}]")
    return _bn_over_n(p)[(m - 1) // 2]


def irregularity_report(p: int) -> tuple[int, ...]:
    """Ascending even n in [2, p-3] with B_n / n = 0 mod p, as many as the
    irregularity index of p; p = 3 has none and gets the empty tuple."""
    if p < 3 or not is_prime(p):
        raise ValueError(f"p={p} is not an odd prime")
    return tuple(n for n, b in zip(range(2, p - 2, 2), _bn_over_n(p)) if b == 0)
