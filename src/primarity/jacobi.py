"""Jacobi sums of prime order characters and their twisted components.

For a prime pair l = 1 + 2ip the character chi of order p on F_l* built
from a primitive root g gives Jacobi sums J_i = J(chi**i, chi).  The twist
J = J_1 * ... * J_(c-1) collapses the Gauss-sum ratio g(chi)**c / g(chi**c)
into ring arithmetic, and the components

    S_n = prod_{a=1}^{(p-1)/2} sigma_a(J**(a**(n-1) mod p))

decide p-primarity: n is recorded exactly when S_n = 1.  Every J_i, exact
ones included, is read off its counts t_i[e] = #{y : chi**i(y) chi(1 - y)
= zeta**e}, which sum to l - 2.  With M = (l-1)/p, which is even, and h =
g**M, the Jacobi-sum congruence (Ireland-Rosen, ch. 14) maps zeta -> h**b,
b in [1, p-1], to sum_e t_i[e] h**(b*e) = -binom(bM, AM) mod l, A = -i*b
mod p, which is 0 when A > b.  One inverse DFT of length p mod l of these
values, from jacobi_values, gives every t_i[e] in [0, l) exactly from the
factorials (kM)! mod l, and residue_symbols.classify reads S_n off the
same values.  The same values are the Jacobi sums J(a, b) of the
characters y**(aM) and y**(bM), so one 2D inverse DFT of size p x p turns
them into the cyclotomic numbers that spectra's trace route reads; both
DFTs are int64 products mod l, summed in blocks by _dot_mod.  The
factorials and the cyclotomic numbers take a list of split primes of one
p, so one set of numpy calls serves a chunk of a trace catalog;
TwistContext.build and a single trace pass a list of one.

Exponent sets never multiply out S_n.  Mod p, Phi_p = (x-1)**(p-1) and J
has augmentation 1, so log J = sum_{k<=p-2} (-1)**(k+1) (J-1)**k / k is
exact, additive and Galois-equivariant.  sigma_a scales the moment m_d(v) =
sum_k k**d v_k by a**d, and J sigma_-1(J) = l = 1 kills the even moments of
log J, so S_n = 1 exactly when m_(p-n)(log J) = 0 (mod p).  As J_i =
sigma_i(-G) (-G) / sigma_(i+1)(-G) for the Gauss sum G of chi (Ireland-Rosen,
ch. 14), m_d(log J_i) = f_i(d) m_d(log(-G)) with f_i(d) = 1 + i**d - (i+1)**d,
and the twist's factor c - c**d is never 0 at odd d <= p-2.  So J_i decides
n for i = a - 1, a the least a >= 2 with a**n != 1: f_i(p-n) = a (1 - a**-n)
!= 0.  theta = x d/dx is a derivation with m_d(theta v) =
m_(d+1)(v), and sigma_-1(J_i) inverts J_i mod Phi_p, so by Leibniz's rule

    m_(e+1)(log J_i) = m_e(theta J_i * sigma_-1(J_i)) = e! sum_j a_j b_(e-j)

with a_j = m_(j+1)(J_i)/j! and b_j = (-1)**j m_j(J_i)/j!: one convolution of
the moments m_0 .. m_(p-2) of J_i, which first pass the derivation relations.
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


def _powers(x, n: int, q) -> np.ndarray:
    """x**k mod q for k in [0, n) along the first axis, int64, for ints x and q or
    arrays of one shape."""
    return np.array(list(accumulate(repeat(x, n - 1), lambda a, y: a * y % q, initial=x ** 0)),
                    dtype=np.int64)


def _hankel(twice: np.ndarray) -> np.ndarray:
    """View H[u, v] = twice[u + v], u, v in [0, m), of a contiguous row of length 2m."""
    return np.ndarray((len(twice) // 2,) * 2, twice.dtype, twice, 0, twice.strides * 2)


def _mulmod(x: np.ndarray, y: np.ndarray, l) -> None:
    """x = x*y - rint(x*y/l) l in place, for float64 integers with |x*y| < 2**52
    and l <= 2**26, an int or moduli that broadcast against x: every step is
    exact, and |x| <= l/2 + 1 after."""
    x *= y
    q = x * (1 / l)
    np.rint(q, out=q)
    q *= l
    x -= q


def _block_products(p: int, ls: list[int]) -> list[list[int]]:
    """Row j: (kM + 1)...((k+1)M) mod l for k < (p-1)/2, l = ls[j], M = (l-1)/p, in float64.

    A block splits into groups of S integers n .. n+S-1.  With z = 2n + S - 1,
    members t and S-1-t multiply to (z**2 - (2t+1)**2)/4, so one reduced
    z**2 serves the group, and each block takes 4**(-M/2) once.  Column
    (j, k) of a chunk of about _CHUNK entries holds block k of ls[j] and
    row g its group g, reduced mod its own l; the constants of the columns
    are scalars for one l.  Past the last whole group of a block, group g
    has cnt = M - gS < S integers: it takes z = 2n + cnt - 1 and the pairs
    t with 2t < cnt, none when cnt <= 0.  So pair t enters every row below
    ceil((M - 2t)/S) at the least M of ls and is masked in the ragged rows
    up to that number at the largest M, which only several l have.  Halving
    products end the rows, in int64 once the grid has at most _CHUNK // 4
    entries, where numpy calls set the cost.  S = 2 while all pairs fit one
    chunk, where they do as well, and 16 beyond.  As z < l in every group,
    z**2 < l**2 <= 2**52, and products of reduced factors stay below 2**51,
    as do int64 products of residues.
    """
    K = (p - 1) // 2
    Ms = [(l - 1) // p for l in ls]
    S = 16 if K * sum(Ms) > 2 * _CHUNK else 2
    least, most = min(Ms), max(Ms)
    starts = [np.arange(2, 2 * K * M, 2 * M, dtype=float) for M in Ms]  # 2n, n = kM + 1
    if len(ls) == 1:
        mod, quarter, starts = ls[0], pow(4, -(least // 2), ls[0]), starts[0]
    else:
        quarters = [pow(4, -(M // 2), l) for M, l in zip(Ms, ls)]
        mod, quarter, size = (np.repeat(x, K) for x in (ls, quarters, Ms))
        starts = np.concatenate(starts)
    width, rows = max(1, _CHUNK // len(starts)), -(-most // S)
    for g in range(0, rows, width):
        w = min(width, rows - g)
        z = np.add.outer(np.arange(2 * S * g + S - 1, 2 * S * (g + w), 2 * S, dtype=float), starts)
        r = max(least // S - g, 0)  # the first row of the chunk past a whole group
        if r < w and least == most:  # every short group in one row
            z[r:] -= S - least % S
        elif r < w:
            over = np.arange(S * (g + r + 1), S * (g + w + 1), S)[:, None] - size  # S - cnt
            z[r:] -= np.maximum(over, 0)
        _mulmod(z, z, mod)
        for t in range(S // 2):
            some = min(-((2 * t - most) // S) - g, w)  # rows of the chunk with pair t in some column
            every = max(-((2 * t - least) // S) - g, 0) if least < most else some
            part = z[:some] - (2 * t + 1) ** 2
            if every < some:
                part[every:][over[every - r:some - r] >= S - 2 * t] = 1
            if t:
                _mulmod(prod[:some], part, mod)
            else:
                prod = part
            del part  # so the next factor reuses its memory, as a temporary would
        if g:
            _mulmod(acc[:w], prod, mod)
        else:
            acc = prod
    while len(acc) > 1 and acc.size > _CHUNK // 4:
        half = (len(acc) + 1) // 2
        _mulmod(acc[:len(acc) - half], acc[half:], mod)
        acc = acc[:half]
    acc = acc.astype(np.int64)
    while len(acc) > 1:  # two numpy calls a halving, not the five of _mulmod
        half = (len(acc) + 1) // 2
        low = acc[:len(acc) - half]
        low *= acc[half:]
        low %= mod
        acc = acc[:half]
    return (acc[0] * quarter % mod).reshape(len(ls), K).tolist()


def _factorials(p: int, ls: list[int]) -> np.ndarray:
    """Row j: F[k] = (kM)! mod l for k in [0, 2p-2], l = ls[j], read-only: the
    upper half from one inversion by Wilson's theorem, F[k] F[p-k] = -1, and
    0 past p, as kM >= l."""
    if max(ls) > LOG_TABLE_CAP:
        raise ValueError(f"modulus {max(ls)} exceeds the log-table cap {LOG_TABLE_CAP}")
    rows = []
    for l, blocks in zip(ls, _block_products(p, ls)):
        F = [1]
        for b in blocks:
            F.append(F[-1] * b % l)
        inv, upper = pow(F[-1], -1, l), []
        for b in reversed(blocks):  # inv = 1/F[k], k = (p-1)/2 .. 1
            upper.append(l - inv)
            inv = inv * b % l
        rows.append(F + upper + [l - 1] + [0] * (p - 2))
    F = np.array(rows, dtype=np.int64)
    F.setflags(write=False)
    return F


def jacobi_values(p: int, l, F: np.ndarray, i, b) -> np.ndarray:
    """J_i(h**b) mod l, h = g**M, from the factorials F, for i in [0, p) and
    b in [1, p) that broadcast; F may also hold one column of factorials
    per l, with l the row of their moduli.

    It is binom(bM, AM) = F[b] F[p-A] F[p-b+A], A = -i*b mod p, as 1/F[k] =
    -F[p-k], which is 0 exactly when A > b; at b = 0 it is 1, not J_i(1),
    and it is 1 at i = 0 and i = p - 1, where A = 0 and A = b.
    """
    A = i * (p - b) % p
    return F[b] * F[p - A] % l * F[A + (p - b)] % l


def _dot_mod(x: np.ndarray, y: np.ndarray, l) -> np.ndarray:
    """x @ y mod l for int64 x and y with entries in [0, l), stacks of matrices
    included, and l <= LOG_TABLE_CAP an int or an array that broadcasts
    against the product, summed in blocks of the inner axis that keep int64
    sums below 2**63 at the cap."""
    S, step = 0, (2**63 - 1 - LOG_TABLE_CAP) // (LOG_TABLE_CAP - 1) ** 2
    for u in range(0, y.shape[-2], step):
        S = (S + x[..., u:u + step] @ y[..., u:u + step, :]) % l
    return S


def _counts(ctx: TwistContext, indices) -> np.ndarray:
    """Rows t_i, i in indices, of the counts of J_i from the factorials, read-only.

    With b = c**u and e = c**v, h**(-b*e) is entry u + v of one doubled
    row, so the DFT of the values J_i(h**b) = -sum_e t_i[e] h**(b*e) is one
    _dot_mod with a windowed view of it, symmetric in u and v.  t_i[0] is
    l - 2 less the rest; were it negative, the counts would not sum to
    l - 2, and ArithmeticError is raised.
    """
    p, l, c, g = ctx.p, ctx.l, ctx.c, ctx.g
    b = _powers(c, p - 1, p)
    window = _hankel(np.tile(_powers(pow(g, (l - 1) // p, l), p, l)[p - b], 2))
    B = jacobi_values(p, l, ctx.factorials, np.array(indices)[:, None], b) * pow(p, -1, l) % l
    t = np.empty((len(B), p), dtype=np.int64)
    t[:, b] = ((l - 2) * pow(p, -1, l) - _dot_mod(B, window, l)) % l
    t[:, 0] = l - 2 - t[:, 1:].sum(axis=1)
    if (t[:, 0] < 0).any():
        raise ArithmeticError(f"the counts of (p, l, c, g) = {p, l, c, g} do not sum to l - 2")
    t.setflags(write=False)
    return t


def _cyclotomic_numbers(p: int, ls: list[int]) -> np.ndarray:
    """N[j, d, m] = #{y in C_d : 1 + y in C_m} for each split prime l = ls[j] of p, read-only.

    C_d = {y : y**M = w**d}, where w = a**M for the least a >= 2 with
    a**M != 1; any root of order p labels the cosets, and R_l does not see
    the labels.  With chi**a(y) = y**(aM) and -1 a pth power, as M is even,
    the Jacobi sums J(a, b) = sum_y chi**a(y) chi**b(1 - y) are
    sum_(d,m) N[d][m] w**(ad + bm) mod l.  They are l - 2 at a = b = 0, -1
    where a, b or a + b is 0, and -jacobi_values(a/b, b) elsewhere, which
    also gives -1 at a = 0 and a = -b.  So N = W J W / p**2 mod l, with
    W[d, a] = w**(-ad), is exact, as every N[d][m] < l; one stack of
    products mod each l serves the whole chunk.
    """
    F = _factorials(p, ls)
    ws = [next(x for x in (pow(a, (l - 1) // p, l) for a in range(2, l)) if x != 1) for l in ls]
    L = np.array(ls)
    k = np.arange(p)
    J = np.empty((p, p, len(ls)), dtype=np.int64)  # the l last, as in F.T
    J[k[:, None] * k[1:] % p, k[1:]] = L - jacobi_values(p, L, F.T, k[:, None], k[1:])
    J[:, 0] = L - 1
    J[0, 0] = L - 2
    W = _powers(np.array(ws), p, L).T[:, k[:, None] * (p - k) % p]
    L, scale = L[:, None, None], np.array([pow(p * p, -1, l) for l in ls])[:, None, None]
    N = _dot_mod(_dot_mod(W, J.transpose(2, 0, 1), L), W, L) * scale % L
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

    @classmethod
    def build(cls, p: int, l: int, c: int | None = None, g: int | None = None) -> "TwistContext":
        """Validate the pair, then find its factorials."""
        p, l, c, g = pair_key(p, l, c, g)
        return cls(p=p, l=l, c=c, g=g, factorials=_factorials(p, [l])[0])


def jacobi_counts(ctx: TwistContext, i: int) -> np.ndarray:
    """Exact counts t with J_i = -sum_e t[e] x**e, e in [0, p)."""
    if not 1 <= i <= ctx.p - 2:
        raise ValueError(f"i={i} out of range [1, {ctx.p - 2}]")
    return _counts(ctx, [i])[0]


def jacobi_sum(ctx: TwistContext, i: int) -> CycModP:
    """J_i reduced into F_p[x]/Phi_p."""
    return CycModP(ctx.p, -jacobi_counts(ctx, i))


def twist_product(ctx: TwistContext) -> CycModP:
    """J = J_1 * ... * J_(c-1), the twisted Jacobi-sum product."""
    J, *rest = (CycModP(ctx.p, -t) for t in _counts(ctx, range(1, ctx.c)))
    for Ji in rest:
        J = J * Ji
    return J


def check_exponent(p: int, n: int) -> None:
    """Raise ValueError unless n is even and within [2, p-3]."""
    if n % 2 != 0 or not 2 <= n <= p - 3:
        raise ValueError(f"n={n} must be even and within [2, {p - 3}]")


def _moments(p: int, c: int, t: np.ndarray) -> np.ndarray:
    """m_d(J_i) = -sum_k k**d t_i[k] mod p, d in [0, p-2], for each row t_i of counts t:
    with k = c**u, ud = C(u+d, 2) - C(u, 2) - C(d, 2) (Bluestein), one int64 product,
    sums below p**3 < 2**63, with a Hankel view of r[s] = c**C(s, 2) = -r[s + p - 1]."""
    cu = _powers(c, p - 1, p)
    tri = np.arange(p - 1) * np.arange(-1, p - 2) // 2 % (p - 1)  # C(s, 2)
    r, inv = cu[tri], cu[-tri % (p - 1)]
    m = (t[:, cu] * inv % p) @ _hankel(np.concatenate([r, p - r])) % p * inv
    m[:, 0] += t[:, 0]  # k = 0 enters m_0 alone
    return -m % p


def exponent_set(ctx: TwistContext) -> tuple[int, ...]:
    """Ascending even n in [2, p-3] with S_n = 1, read off m_(p-n)(log J_i) for i = a - 1
    and the least a >= 2 with a**n != 1; the rows read, J_1 always, are checked first."""
    p = ctx.p
    if p >= 1 << 21:
        raise ValueError(f"p={p} is not below 2**21, the int64 bound of the moment products")
    n = np.arange(2, p - 2, 2)
    i, a = np.zeros_like(n), 2
    while not i.all():
        i[(i == 0) & (_powers(a, p - 2, p)[n] != 1)] = a - 1
        a += 1
    rows = sorted({1, *i.tolist()})
    m = _moments(p, ctx.c, _counts(ctx, rows))
    ds = [d for d in (0, 1, 2, 4) if d <= p - 2]
    for row, mi in zip(rows, m):
        if mi[ds].tolist() != [int(d == 0) for d in ds]:
            raise ArithmeticError(f"the Jacobi sum J_{row} of (p, l, c, g) = "
                                  f"{p, ctx.l, ctx.c, ctx.g} breaks a derivation relation")
    fact = np.array(list(accumulate(range(1, p), lambda x, k: x * k % p, initial=1)))
    sign = (-1) ** np.arange(p - 2)
    inv = -sign * fact[:1:-1]  # 1/j! = (-1)**(j+1) (p-1-j)!, Wilson
    logs = np.array([np.convolve(mi[1:] * inv % p, sign * mi[:-1] * inv % p)[:p - 2] % p
                     * fact[:p - 2] % p for mi in m])  # m_(e+1)(log J_i), by Leibniz
    return tuple(n[logs[np.searchsorted(rows, i), p - n - 1] == 0].tolist())


def exponent_set_for(p: int, l: int, c: int | None = None,
                     g: int | None = None) -> tuple[int, ...]:
    """Convenience wrapper building the context and discarding it."""
    return exponent_set(TwistContext.build(p, l, c=c, g=g))
