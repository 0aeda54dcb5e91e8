"""Arithmetic in F_p[x]/Phi_p(x), the cyclotomic ring with both p's equal.

Elements are coefficient vectors of length p-1 over F_p, eagerly reduced:
construction, multiplication, and Galois action all land back in canonical
position.  Reduction uses x**p = 1 first (fold by blocks of p) and then
eliminates x**(p-1) = -(x**(p-2) + ... + 1), which keeps the hot path to a
single convolution plus two vector operations.
"""

from __future__ import annotations

import numpy as np


def reduce_mod_phi(vec: np.ndarray, p: int) -> np.ndarray:
    """Canonical length p-1 representative of a raw coefficient vector."""
    folded = np.zeros(p, dtype=np.int64)
    n = len(vec)
    for start in range(0, n, p):
        blk = vec[start : start + p]
        folded[: len(blk)] += blk
        folded %= p
    return (folded[: p - 1] - folded[p - 1]) % p


class CycModP:
    """One element of F_p[x]/Phi_p(x), stored as int64 coefficients.

    coeffs[k] is the coefficient of x**k, 0 <= k <= p-2, values in [0, p).
    """

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs) -> None:
        if p >= 1 << 21:  # the int64 bound of __mul__
            raise ValueError(f"p={p} is not below 2**21, the int64 bound of products")
        arr = np.asarray(coeffs, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("coefficients must be a vector")
        if len(arr) == p - 1 and 0 <= arr.min(initial=0) and arr.max(initial=0) < p:
            self.coeffs = arr.copy()
        else:
            self.coeffs = reduce_mod_phi(arr % p, p)
        self.p = p

    def __mul__(self, other: "CycModP") -> "CycModP":
        if self.p != other.p:
            raise ValueError(f"mixed rings: p={self.p} vs p={other.p}")
        # convolution peaks below (p-1) * (p-1)**2 < 2**63 for p < 2**21
        raw = np.convolve(self.coeffs, other.coeffs) % self.p
        return CycModP(self.p, reduce_mod_phi(raw, self.p))

    def galois(self, a: int) -> "CycModP":
        """Image under x -> x**a; a must be invertible mod p."""
        a %= self.p
        if a == 0:
            raise ValueError("galois index must be nonzero mod p")
        out = np.zeros(self.p, dtype=np.int64)
        out[np.arange(self.p - 1) * a % self.p] = self.coeffs  # k -> k*a is one-to-one
        return CycModP(self.p, (out[: self.p - 1] - out[self.p - 1]) % self.p)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycModP):
            return NotImplemented
        return self.p == other.p and bool((self.coeffs == other.coeffs).all())

    def render(self) -> str:
        """Readable polynomial, highest power first, PARI spelling."""
        return render_poly([int(v) for v in self.coeffs])

    def __repr__(self) -> str:
        return f"CycModP(p={self.p}, {self.render()})"


def render_poly(coeffs: list[int]) -> str:
    """PARI-style string for sum coeffs[k]*x**k, highest power first."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        else:
            xk = "x" if k == 1 else f"x^{k}"
            terms.append(xk if c == 1 else f"{c}*{xk}")
    return " + ".join(terms) if terms else "0"
