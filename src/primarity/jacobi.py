"""Jacobi sums of prime order characters and their twisted components.

For a prime pair l = 1 + 2ip the character chi of order p on F_l* built
from a primitive root g gives Jacobi sums J_i = J(chi**i, chi).  The twist
J = J_1 * ... * J_(c-1) collapses the Gauss-sum ratio g(chi)**c / g(chi**c)
into ring arithmetic, and the components

    S_n = prod_{a=1}^{(p-1)/2} sigma_a(J**(a**(n-1) mod p))

decide p-primarity: n is recorded exactly when S_n = 1.  All of this lives
in F_p[x]/Phi_p(x) via cycring.  Every J_i, exact ones included, is read
off one table of cyclotomic numbers N[d][m] = #{y in C_d : 1 + y in C_m},
C_d the coset of g**d modulo pth powers, counted once per pair from the
coset indices of modarith.coset_index; spectra builds trace polynomials
from the same table.  l - 1 = 2ip makes -1 = g**(ip) a member of C_0, so
y -> -1 - y maps the pair (y, 1 + y) to the cell (m, d) of its mirror:
N = N.T (Dickson's (i, j) = (j, i) for even (l-1)/p), and one bincount B
of the lower half of the pairs gives N = B + B.T plus one self-mirrored
cell.  The counts of J_i are wrapped anti-diagonal sums of N with its
rows reordered by d -> i*d, read as column sums of a reshaped [R | R].

Exponent sets never multiply out S_n.  Mod p, Phi_p = (x-1)**(p-1) and J
has augmentation 1, so log J = sum_{k<=p-2} (-1)**(k+1) (J-1)**k / k is
exact, additive and Galois-equivariant.  sigma_a scales the moment m_d(v) =
sum_k k**d v_k by a**d, and J sigma_-1(J) = l = 1 kills the even moments of
log J, so S_n = 1 exactly when m_(p-n)(log J) = 0 (mod p).  The log itself
is never formed: theta = x d/dx is a derivation of F_p[x]/(x**p - 1) with
m_d(theta v) = m_(d+1)(v), and J sigma_-1(J) = 1 makes sigma_-1(J) the
inverse of J modulo Phi_p, so theta log J = theta J * sigma_-1(J) and

    m_(p-n)(log J) = m_(p-n-1)(theta J * sigma_-1(J)).

Both sides change by multiples of Phi_p only, which every m_e with
0 <= e <= p-2 kills, so the product is taken in F_p[x]/Phi_p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cycring import CycModP
from .modarith import coset_index, generator_test, is_prime, primitive_root


@dataclass(frozen=True)
class ExponentSet:
    """Even exponents n in [2, p-3] singled out for a fixed prime pair."""

    p: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(sorted(self.members)))

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, n: int) -> bool:
        return n in self.members

    def is_empty(self) -> bool:
        return not self.members

    def intersection(self, other: "ExponentSet") -> "ExponentSet":
        if self.p != other.p:
            raise ValueError(f"mixed primes: {self.p} vs {other.p}")
        return ExponentSet(self.p, tuple(set(self.members) & set(other.members)))

    def render(self) -> str:
        """Comma-joined ascending members, empty string for the empty set."""
        return ",".join(str(n) for n in self.members)


def check_pair(p: int, l: int) -> None:
    """Raise ValueError unless p is an odd prime and l a prime with l = 1 (mod p)."""
    if not is_prime(p) or p < 3:
        raise ValueError(f"p={p} is not an odd prime")
    if not is_prime(l):
        raise ValueError(f"l={l} is not prime")
    if l % p != 1:
        raise ValueError(f"l={l} does not split: l % p = {l % p}")


def pair_key(p: int, l: int, c: int | None = None,
             g: int | None = None) -> tuple[int, int, int, int]:
    """(p, l, c, g) of a valid pair, c and g defaulting to the least primitive roots.

    The pair is checked first: primitive_root factors l-1 by trial division.
    """
    check_pair(p, l)
    if c is None:
        c = primitive_root(p)
    # p=3 has no primitive root below p-1; its exponent range is empty anyway
    if not (2 <= c <= p - 2 or (p == 3 and c == 2)):
        raise ValueError(f"c={c} out of range for p={p}")
    if not generator_test(p)(c):
        raise ValueError(f"c={c} is not a primitive root mod {p}")
    return p, l, c, primitive_root(l) if g is None else g


def cyclotomic_numbers(index: np.ndarray, p: int) -> np.ndarray:
    """N[d][m] = #{y in C_d : 1 + y in C_m} mod l = len(index), read-only.

    index is modarith.coset_index(l, g, p), so 2p divides l - 1.  The
    pairs (y, 1 + y) are consecutive entries of it, and since -1 lies in
    C_0, the pair y' = l - 1 - y has the cell (ind(y + 1), ind(y)), the
    transpose.  So a count B of d*p + m over the lower pairs, y in [1, h-1]
    with h = (l-1)/2, gives N = B + B.T plus the cell (ind(h), ind(h)) of
    y = h, whose partner h + 1 = -h is its own mirror.  B sums a bincount
    per chunk of max(2**15, 8*p*p) cells, so no temporary grows with l and
    the p*p counts of each cost at most an eighth of its cells.
    """
    l = len(index)
    if (l - 1) % (2 * p):
        raise ValueError(f"2p with p={p} does not divide len(index) - 1 = {l - 1}")
    h = (l - 1) // 2
    size = max(1 << 15, 8 * p * p)
    buf = np.empty(min(size, h - 1), dtype=np.intp)  # bincount copies any other dtype to intp
    for y in range(1, h, size):
        cells = buf[:min(size, h - y)]
        np.multiply(index[y:y + len(cells)], p, out=cells, dtype=np.intp)
        cells += index[y + 1:y + 1 + len(cells)]
        counts = np.bincount(cells, minlength=p * p).reshape(p, p)
        B = counts if y == 1 else B + counts
    N = B + B.T
    N[index[h], index[h]] += 1
    N.setflags(write=False)
    return N


@dataclass(frozen=True)
class TwistContext:
    """Everything fixed while one prime pair (p, l) is analyzed."""

    p: int
    l: int
    c: int
    g: int
    cyclotomic: np.ndarray  # cyclotomic_numbers(...) for the root g

    @classmethod
    def build(cls, p: int, l: int, c: int | None = None, g: int | None = None) -> "TwistContext":
        """Validate the pair and count its cyclotomic numbers."""
        p, l, c, g = pair_key(p, l, c, g)
        return cls(p=p, l=l, c=c, g=g,
                   cyclotomic=cyclotomic_numbers(coset_index(l, g, p), p))


def jacobi_counts(ctx: TwistContext, i: int) -> np.ndarray:
    """Exact counts t with J_i = -sum_e t[e] x**e, e in [0, p), read off N.

    The term y = g**k of J_i with y in C_d and 1 - y in C_m has exponent
    log(1 - y) + i*k = m + i*d (mod p).  log(-1) = (l-1)/2 = ip puts -1 in
    C_0, so y -> -y keeps C_d, and N[d][m] also counts the y in C_d with
    1 - y in C_m.  With k = i*d and the rows R[k] = N[k/i mod p], t[e] is
    the wrapped anti-diagonal sum of R[k][(e - k) % p] over k.  One row
    gather, each row twice, gives [R | R].  Flattened from entry p on and
    cut into rows of 2p - 1, its row k begins at [R | R][k][p - k], so
    its first p entries are R[k][(e - k) % p], e = 0..p-1, and t is the
    sum of those columns.
    """
    p = ctx.p
    if not 1 <= i <= p - 2:
        raise ValueError(f"i={i} out of range [1, {p - 2}]")
    RR = ctx.cyclotomic[np.repeat(np.arange(p) * pow(i, -1, p) % p, 2)].reshape(p, 2 * p)
    return RR.reshape(-1)[p:].reshape(p, 2 * p - 1)[:, :p].sum(axis=0)


def jacobi_sum(ctx: TwistContext, i: int) -> CycModP:
    """J_i reduced into F_p[x]/Phi_p."""
    return CycModP(ctx.p, -jacobi_counts(ctx, i))


def twist_product(ctx: TwistContext) -> CycModP:
    """J = J_1 * ... * J_(c-1), the twisted Jacobi-sum product."""
    J = jacobi_sum(ctx, 1)
    for i in range(2, ctx.c):
        J = J * jacobi_sum(ctx, i)
    return J


def check_exponent(p: int, n: int) -> None:
    """Raise ValueError unless n is even and within [2, p-3]."""
    if n % 2 != 0 or not 2 <= n <= p - 3:
        raise ValueError(f"n={n} must be even and within [2, {p - 3}]")


def exponent_set(ctx: TwistContext) -> ExponentSet:
    """All even n in [2, p-3] with S_n = 1, that is with m_(p-n-1)(theta J / J) = 0."""
    p = ctx.p
    J = twist_product(ctx)
    k = np.arange(p - 1, dtype=np.int64)
    w = CycModP(p, k * J.coeffs) * J.galois(p - 1)
    col, hits = np.ones_like(k), []
    for n in range(p - 3, 1, -2):
        col = col * k * k % p  # k**(p-n-1) mod p; p**3 < 2**63 as CycModP needs p < 2**21
        if int(col @ w.coeffs) % p == 0:
            hits.append(n)
    return ExponentSet(p, tuple(hits))


def exponent_set_for(p: int, l: int, c: int | None = None, g: int | None = None) -> ExponentSet:
    """Convenience wrapper building the context and discarding it."""
    return exponent_set(TwistContext.build(p, l, c=c, g=g))
