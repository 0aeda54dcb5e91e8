"""Jacobi sums of prime order characters and their twisted components.

For a prime pair l = 1 + 2ip the character chi of order p on F_l* built
from a primitive root g gives Jacobi sums J_i = J(chi**i, chi).  The twist
J = J_1 * ... * J_(c-1) collapses the Gauss-sum ratio g(chi)**c / g(chi**c)
into ring arithmetic, and the components

    S_n = prod_{a=1}^{(p-1)/2} sigma_a(J**(a**(n-1) mod p))

decide p-primarity: n is recorded exactly when S_n = 1.  All of this lives
in F_p[x]/Phi_p(x) via cycring.  Every J_i, exact ones included, is read
off its counts t_i[e] = #{y : chi**i(y) chi(1 - y) = zeta**e}, which sum to
l - 2.  With M = (l-1)/p, which is even, and h = g**M, the Jacobi-sum
congruence (Ireland-Rosen, ch. 14) maps zeta -> h**b, b in [1, p-1], to
sum_e t_i[e] h**(b*e) = -binom(bM, AM) mod l, A = -i*b mod p, which is 0
when A > b.  One inverse DFT of length p mod l of these values, from
jacobi_values, gives every t_i[e] in [0, l) exactly from the factorials
(kM)! mod l, and residue_symbols.classify reads S_n off the same values.
The same values are the Jacobi sums J(a, b) of the characters y**(aM) and
y**(bM), so one 2D inverse DFT of size p x p turns them into the
cyclotomic numbers that spectra's trace route reads; both DFTs are int64
products mod l, summed in blocks by _dot_mod.

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
0 <= e <= p-2 kills, so the product is taken in F_p[x]/Phi_p.  Each J
must pass derivation_check first, or exponent_set raises ArithmeticError.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat

import numpy as np

from .cycring import CycModP
from .modarith import LOG_TABLE_CAP, generator_test, is_prime, primitive_root

_CHUNK = 1 << 13  # entries per chunk of a grid or table that grows with l or p


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
    if g is not None and not generator_test(l)(g):
        raise ValueError(f"{g} is not a primitive root mod {l}")
    return p, l, c, primitive_root(l) if g is None else g


def _powers(x: int, n: int, q: int) -> np.ndarray:
    """x**k mod q for k in [0, n), int64."""
    return np.array(list(accumulate(repeat(x, n - 1), lambda a, y: a * y % q, initial=1)),
                    dtype=np.int64)


def _hankel(row: np.ndarray) -> np.ndarray:
    """View H[u, v] = row[(u + v) mod m] of a row of length m, on one doubled
    copy of it."""
    twice = np.tile(row, 2)
    return np.ndarray((len(row), len(row)), twice.dtype, twice, 0, twice.strides * 2)


def _mulmod(x: np.ndarray, y: np.ndarray, l: int) -> None:
    """x = x*y - rint(x*y/l) l in place, for float64 integers with |x*y| < 2**52
    and l <= 2**26: every step is exact, and |x| <= l/2 + 1 after."""
    x *= y
    q = x * (1 / l)
    np.rint(q, out=q)
    q *= l
    x -= q


def _block_products(p: int, l: int) -> list[int]:
    """(kM + 1)...((k+1)M) mod l for k < (p-1)/2, M = (l-1)/p, in float64.

    A block splits into groups of S integers n .. n+S-1, the last one short
    of R = M mod S.  With z = 2n + S - 1, members t and S-1-t multiply to
    (z**2 - (2t+1)**2)/4, so one reduced z**2 serves the group, and each
    block takes 4**(-M/2) once.  Row g, column k of a chunk of about _CHUNK
    entries holds group g of block k; the short row takes only its first
    R/2 factors, and halving products end the rows.  S = 2 while all pairs
    fit one chunk, where numpy calls set the cost, and 16 beyond.  As
    z < l, z**2 < l**2 <= 2**52, and products of reduced factors stay
    below 2**51.
    """
    M, K = (l - 1) // p, (p - 1) // 2
    S = 16 if K * M > 2 * _CHUNK else 2
    G, R = divmod(M, S)
    rows = G + (R > 0)
    width = min(rows, max(1, _CHUNK // K))
    starts = np.arange(2, 2 * K * M, 2 * M, dtype=float)  # 2n, n = kM + 1
    for g in range(0, rows, width):
        w = min(width, rows - g)
        short = R > 0 and g + w == rows
        z = np.add.outer(np.arange(2 * S * g + S - 1, 2 * S * (g + w), 2 * S, dtype=float), starts)
        if short:
            z[-1] -= S - R
        _mulmod(z, z, l)
        prod = z - 1
        for t in range(1, S // 2):
            part = prod[:w - (short and 2 * t >= R)]
            _mulmod(part, z[:len(part)] - (2 * t + 1) ** 2, l)
        if g:
            _mulmod(acc[:w], prod, l)
        else:
            acc = prod
    while len(acc) > 1:
        half = (len(acc) + 1) // 2
        _mulmod(acc[:len(acc) - half], acc[half:], l)
        acc = acc[:half]
    return (acc[0].astype(np.int64) * pow(4, -(M // 2), l) % l).tolist()


def _factorials(p: int, l: int) -> np.ndarray:
    """F[k] = (kM)! mod l for k in [0, 2p-2], read-only: the upper half from one
    inversion by Wilson's theorem, F[k] F[p-k] = -1, and 0 past p, as kM >= l."""
    if l > LOG_TABLE_CAP:
        raise ValueError(f"modulus {l} exceeds the log-table cap {LOG_TABLE_CAP}")
    blocks = _block_products(p, l)
    F = [1]
    for b in blocks:
        F.append(F[-1] * b % l)
    inv, upper = pow(F[-1], -1, l), []
    for b in reversed(blocks):  # inv = 1/F[k], k = (p-1)/2 .. 1
        upper.append(l - inv)
        inv = inv * b % l
    F = np.array(F + upper + [l - 1] + [0] * (p - 2), dtype=np.int64)
    F.setflags(write=False)
    return F


def jacobi_values(p: int, l: int, F: np.ndarray, i, b) -> np.ndarray:
    """J_i(h**b) mod l, h = g**M, from the factorials F, for i in [0, p) and
    b in [1, p) that broadcast.

    It is binom(bM, AM) = F[b] F[p-A] F[p-b+A], A = -i*b mod p, as 1/F[k] =
    -F[p-k], which is 0 exactly when A > b; at b = 0 it is 1, not J_i(1),
    and it is 1 at i = 0 and i = p - 1, where A = 0 and A = b.
    """
    A = i * (p - b) % p
    return F[b] * F[p - A] % l * F[A + (p - b)] % l


def _dot_mod(x: np.ndarray, y: np.ndarray, l: int) -> np.ndarray:
    """x @ y mod l for int64 x and y with entries in [0, l), summed in blocks
    of the inner axis that keep int64 sums below 2**63."""
    S, step = np.zeros((len(x), y.shape[1]), dtype=np.int64), (2**63 - 1 - l) // (l - 1) ** 2
    for u in range(0, len(y), step):
        S = (S + x[:, u:u + step] @ y[u:u + step]) % l
    return S


def _counts(p: int, l: int, c: int, g: int, F: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Rows t_i, i in indices, of the counts of J_i from the factorials F, read-only.

    With b = c**u and e = c**v, h**(-b*e) is entry u + v of one doubled
    row, so the DFT of the values J_i(h**b) = -sum_e t_i[e] h**(b*e) is one
    _dot_mod with a windowed view of it, symmetric in u and v.  t_i[0] is
    l - 2 less the rest; were it negative, the counts would not sum to
    l - 2, and ArithmeticError is raised.
    """
    b = _powers(c, p - 1, p)
    window = _hankel(_powers(pow(g, (l - 1) // p, l), p, l)[p - b])
    B = jacobi_values(p, l, F, indices[:, None], b) * pow(p, -1, l) % l
    t = np.empty((len(B), p), dtype=np.int64)
    t[:, b] = ((l - 2) * pow(p, -1, l) - _dot_mod(B, window, l)) % l
    t[:, 0] = l - 2 - t[:, 1:].sum(axis=1)
    if (t[:, 0] < 0).any():
        raise ArithmeticError(f"the counts of (p, l, c, g) = {p, l, c, g} do not sum to l - 2")
    t.setflags(write=False)
    return t


def _cyclotomic_numbers(p: int, l: int) -> np.ndarray:
    """N[d][m] = #{y in C_d : 1 + y in C_m} for a split prime l = 1 + 2ip, read-only.

    C_d = {y : y**M = w**d}, where w = a**M for the least a >= 2 with
    a**M != 1; any root of order p labels the cosets, and R_l does not see
    the labels.  With chi**a(y) = y**(aM) and -1 a pth power, as M is even,
    the Jacobi sums J(a, b) = sum_y chi**a(y) chi**b(1 - y) are
    sum_(d,m) N[d][m] w**(ad + bm) mod l.  They are l - 2 at a = b = 0, -1
    where a, b or a + b is 0, and -jacobi_values(a/b, b) elsewhere, which
    also gives -1 at a = 0 and a = -b.  So N = W J W / p**2 mod l, with
    W[d, a] = w**(-ad), is exact, as every N[d][m] < l.
    """
    F = _factorials(p, l)
    M = (l - 1) // p
    w = next(x for x in (pow(a, M, l) for a in range(2, l)) if x != 1)
    k = np.arange(p)
    J = np.empty((p, p), dtype=np.int64)
    J[k[:, None] * k[1:] % p, k[1:]] = l - jacobi_values(p, l, F, k[:, None], k[1:])
    J[:, 0] = l - 1
    J[0, 0] = l - 2
    W = _powers(w, p, l)[k[:, None] * (p - k) % p]
    N = _dot_mod(_dot_mod(W, J, l), W, l) * pow(p * p, -1, l) % l
    N.setflags(write=False)
    return N


@dataclass(frozen=True)
class TwistContext:
    """Everything fixed while one prime pair (p, l) is analyzed."""

    p: int
    l: int
    c: int
    g: int
    factorials: np.ndarray  # _factorials(p, l)
    counts: np.ndarray  # row i-1 holds jacobi_counts(ctx, i), i in [1, c-1]

    @classmethod
    def build(cls, p: int, l: int, c: int | None = None, g: int | None = None) -> "TwistContext":
        """Validate the pair, then find its factorials and the counts of J_1 .. J_(c-1)."""
        p, l, c, g = pair_key(p, l, c, g)
        F = _factorials(p, l)
        return cls(p=p, l=l, c=c, g=g, factorials=F, counts=_counts(p, l, c, g, F, np.arange(1, c)))


def jacobi_counts(ctx: TwistContext, i: int) -> np.ndarray:
    """Exact counts t with J_i = -sum_e t[e] x**e, e in [0, p): held for i < c, else one DFT."""
    p = ctx.p
    if not 1 <= i <= p - 2:
        raise ValueError(f"i={i} out of range [1, {p - 2}]")
    if i < ctx.c:
        return ctx.counts[i - 1]
    return _counts(p, ctx.l, ctx.c, ctx.g, ctx.factorials, np.array([i]))[0]


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


def derivation_check(p: int, J: CycModP) -> bool:
    """Whether J has the relations of every twisted Jacobi sum, augmentation
    m_0 = 1 and m_1 = m_2 = m_4 = 0, at each d <= p-2, where m_d is defined
    mod Phi_p.  The moments are int64 dots of p-1 terms below p**2 each."""
    k = np.arange(p - 1, dtype=np.int64)
    k2 = k * k % p
    cols = {0: np.ones_like(k), 1: k, 2: k2, 4: k2 * k2 % p}
    return all(int(col @ J.coeffs) % p == int(d == 0) for d, col in cols.items() if d <= p - 2)


def exponent_set(ctx: TwistContext) -> tuple[int, ...]:
    """Ascending even n in [2, p-3] with S_n = 1, that is with m_(p-n-1)(theta J / J) = 0.

    The moments m_e, e = 2, 4, ..., p-3, are one product with k**e mod p,
    gathered from the powers of c at log_c(k)*e mod p-1 in row blocks; as
    e is even, k and p - k share a column.  Sums stay below p**3 < 2**63.
    """
    p = ctx.p
    J = twist_product(ctx)
    if not derivation_check(p, J):
        raise ArithmeticError(f"the twist product of (p, l, c, g) = {p, ctx.l, ctx.c, ctx.g} "
                              "breaks a derivation relation")
    k = np.arange(p - 1, dtype=np.int64)
    w = np.append((CycModP(p, k * J.coeffs % p) * J.galois(p - 1)).coeffs, 0)
    half = (p - 1) // 2
    w = w[1:half + 1] + w[:half:-1]
    powers = _powers(ctx.c, p - 1, p)
    log = np.empty(p, dtype=np.int64)
    log[powers] = np.arange(p - 1)
    e = np.arange(2, p - 2, 2, dtype=np.int64)
    moments = np.empty_like(e)
    rows = max(1, _CHUNK // half)
    for r in range(0, len(e), rows):
        exps = e[r:r + rows, None] * log[1:half + 1]
        exps -= exps // (p - 1) * (p - 1)
        moments[r:r + rows] = powers[exps] @ w
    return tuple((p - 1 - e[moments % p == 0])[::-1].tolist())


def exponent_set_for(p: int, l: int, c: int | None = None,
                     g: int | None = None) -> tuple[int, ...]:
    """Convenience wrapper building the context and discarding it."""
    return exponent_set(TwistContext.build(p, l, c=c, g=g))
