"""Generalized Bernoulli numbers B_{1, omega^m} and irregular exponents.

The Teichmuller character omega is evaluated mod p**2, where it is simply
a -> a**p.  For odd m the first Bernoulli number of omega^m is

    B_{1, omega^m} = (1/p) * sum_{a=1}^{p-1} omega(a)**m * a  (mod p),

and the even n in [2, p-3] with B_{1, omega^(n-1)} = 0 mod p are exactly
the irregular exponents of p (Kummer: B_{1, omega^(n-1)} = B_n / n mod p).
"""

from __future__ import annotations

from .jacobi import ExponentSet, check_exponent
from .modarith import is_prime


def teichmuller(a: int, p: int) -> int:
    """omega(a) mod p**2, the (p-1)st root of unity lifting a."""
    if a % p == 0:
        raise ValueError(f"a={a} is divisible by p={p}")
    return pow(a, p, p * p)


def b1_omega(p: int, m: int) -> int:
    """B_{1, omega^m} mod p for odd m with 1 <= m <= p-4."""
    if m % 2 == 0 or not 1 <= m <= p - 4:
        raise ValueError(f"m={m} must be odd and within [1, {p - 4}]")
    return next(_b1_omegas(p, m))


def _b1_omegas(p: int, m0: int):
    """B_{1, omega^m} mod p for odd m = m0, m0+2, ..., p-4, in order.

    omega(a) is computed once per a, and each term omega(a)**m * a steps
    to the next m by one product with omega(a)**2.
    """
    p2 = p * p
    omegas = [pow(a, p, p2) for a in range(1, p)]
    terms = [pow(w, m0, p2) * a % p2 for a, w in enumerate(omegas, 1)]
    steps = [w * w % p2 for w in omegas]
    for m in range(m0, p - 3, 2):
        tot = sum(terms) % p2
        if tot % p != 0:
            # the character sum is divisible by p for every odd m != -1 mod p-1
            raise ArithmeticError(f"character sum for p={p}, m={m} not divisible by p")
        yield tot // p
        terms = [t * s % p2 for t, s in zip(terms, steps)]


def irregularity_report(p: int) -> ExponentSet:
    """ExponentSet of the even n in [2, p-3] with B_{1, omega^(n-1)} = 0 mod p.

    Its size is the irregularity index of p.  Any odd prime p is accepted;
    p = 3 has no such n and gets the empty set.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p={p} is not an odd prime")
    hits = tuple(n for n, b in zip(range(2, p - 2, 2), _b1_omegas(p, 1)) if b == 0)
    return ExponentSet(p, hits)


def b_c_factor(p: int, c: int, n: int) -> int:
    """(c - omega^(p-n)(c)) * B_{1, omega^(n-1)} mod p."""
    if not 2 <= c <= p - 1:
        raise ValueError(f"c={c} out of range [2, {p - 1}]")
    check_exponent(p, n)
    omega_c = pow(teichmuller(c, p), p - n, p * p)
    return (c - omega_c) * b1_omega(p, n - 1) % p
