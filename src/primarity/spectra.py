"""Linear spans of Jacobi-sum vectors and Gaussian period trace polynomials.

Viewed as vectors over F_p, the twisted Jacobi sums of the split primes of
p satisfy four universal relations (augmentation 1, and first, second and
fourth moments zero), so their span cannot exceed p-4; rank_scan watches
the span actually get there.  The trace side factors l in the degree p
subfield of Q(zeta_l): R_l is the characteristic polynomial of the
Gaussian periods over F_p, and the number of distinct R_l as l grows is
the spectrum the heuristic probability speaks about.

Two independent routes compute R_l.  The dense route multiplies out
prod(x - eta_b) inside F_p[y]/Phi_l(y) and is the reference.  The fast
route never touches degree l-1 arithmetic: one O(l) pass tallies the coset
transition counts N[d][m] = #{y in C_d : 1 + y in C_m}, which drive exact
integer power sums of the periods and then Newton's identities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .cycring import CycModP, render_poly
from .jacobi import TwistContext, twist_product
from .modarith import (
    build_log_table,
    multiplicative_order,
    primitive_root,
    split_primes,
)
from .records import JsonlStore, ordered_map, write_csv


class RankAccumulator:
    """Incremental Gaussian elimination over F_p, width p-1."""

    def __init__(self, p: int) -> None:
        self.p = p
        self.basis: list[np.ndarray] = []
        self.pivots: list[int] = []
        self.history: list[tuple[int, int]] = []

    @property
    def rank(self) -> int:
        return len(self.basis)

    def add(self, vec, label: int | None = None) -> bool:
        """Reduce vec against the basis; keep it if independent."""
        p = self.p
        if isinstance(vec, CycModP):
            vec = vec.coeffs
        v = np.asarray(vec, dtype=np.int64).copy() % p
        if len(v) != p - 1:
            raise ValueError(f"vector width {len(v)} != {p - 1}")
        for row, c in zip(self.basis, self.pivots):
            if v[c]:
                v = (v - v[c] * pow(int(row[c]), -1, p) % p * row) % p
        nz = np.nonzero(v)[0]
        fresh = len(nz) > 0
        if fresh:
            self.basis.append(v)
            self.pivots.append(int(nz[0]))
        if label is not None:
            self.history.append((label, self.rank))
        return fresh


def derivation_check(p: int, J: CycModP) -> bool:
    """Universal relations of a twisted Jacobi sum: augmentation 1 and
    vanishing first, second and fourth moments of the coefficients."""
    k = np.arange(p - 1, dtype=object)
    a = J.coeffs
    if int(a.sum()) % p != 1:
        return False
    return all(int((k**d * a).sum()) % p == 0 for d in (1, 2, 4))


def rank_scan(
    p: int,
    stream: Iterable[int] | None = None,
    target: int | None = None,
    c: int | None = None,
) -> tuple[bool, int | None, tuple[tuple[int, int], ...]]:
    """Feed Jacobi-sum vectors into the accumulator until target rank.

    Returns (reached, l_p, history) where l_p is the split prime whose
    vector completed the target and history logs (l, rank) pairs.
    """
    if target is None:
        target = p - 4
    if stream is None:
        stream = split_primes(p)
    acc = RankAccumulator(p)
    for l in stream:
        J = twist_product(TwistContext.build(p, l, c=c))
        acc.add(J, label=l)
        if acc.rank >= target:
            return True, l, tuple(acc.history)
    return False, None, tuple(acc.history)


def conjugate_rank(p: int, l: int, c: int | None = None) -> int:
    """Rank of the p-1 Galois conjugates of one twisted Jacobi sum."""
    J = twist_product(TwistContext.build(p, l, c=c))
    acc = RankAccumulator(p)
    for a in range(1, p):
        acc.add(J.galois(a))
    return acc.rank


def write_rank_csv(p: int, history: Iterable[tuple[int, int]], fh) -> None:
    """Rank history as CSV; the ratio column l / (p**2 log p**2) is derived."""
    scale = p * p * math.log(p * p)
    write_csv(fh, ("l", "rank", "ratio"), ([l, r, f"{l / scale:.4f}"] for l, r in history))


def export_rank_csv(p: int, history: Iterable[tuple[int, int]], path: str | Path) -> None:
    """Rank history as a CSV file, as write_rank_csv writes it."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        write_rank_csv(p, history, fh)


@dataclass(frozen=True)
class TracePolynomial:
    """Characteristic polynomial R_l of the Gaussian periods over F_p."""

    p: int
    l: int
    coeffs: tuple[int, ...]  # low -> high, length p+1
    residue_degree: int

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.p + 1:
            raise ValueError(f"need {self.p + 1} coefficients, got {len(self.coeffs)}")
        if any(not 0 <= c < self.p for c in self.coeffs):
            raise ValueError("coefficients must be reduced mod p")
        if self.coeffs[self.p] != 1 or self.coeffs[self.p - 1] != 1:
            # prod(x - eta_b) is monic and sum(eta_b) = -1
            raise ValueError("trace polynomial must start x^p + x^(p-1)")

    CSV_HEADER = ("l", "f", "R")
    key = property(attrgetter("p", "l"))

    def render(self) -> str:
        return render_poly(list(self.coeffs))

    def row(self) -> list:
        return [self.l, self.residue_degree, self.render()]

    def to_json(self) -> str:
        return json.dumps(
            {"p": self.p, "l": self.l, "f": self.residue_degree,
             "R": list(self.coeffs)}
        )

    @classmethod
    def from_json(cls, line: str) -> "TracePolynomial":
        d = json.loads(line)
        return cls(p=d["p"], l=d["l"], coeffs=tuple(d["R"]), residue_degree=d["f"])


def residue_degree(p: int, l: int) -> int:
    """Residue degree of l in the degree p subfield: p or 1."""
    o = multiplicative_order(p % l, l)

    def vp(x: int) -> int:
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    return p if vp(o) == vp(l - 1) else 1


def _periods(p: int, l: int) -> list[np.ndarray]:
    """eta_b = sum_j y**(g**(b+jp)) as canonical vectors in F_p[y]/Phi_l."""
    table = build_log_table(l, primitive_root(l))
    etas = []
    for b in range(p):
        full = np.zeros(l, dtype=np.int64)
        np.add.at(full, table.powers[b::p], 1)
        etas.append((full[: l - 1] - full[l - 1]) % p)
    return etas


def _trace_dense(p: int, l: int) -> list[int]:
    """Reference route: expand prod(x - eta_b) with ring coefficients."""
    etas = _periods(p, l)

    def red(v: np.ndarray) -> np.ndarray:
        folded = np.zeros(l, dtype=np.int64)
        for s in range(0, len(v), l):
            blk = v[s : s + l]
            folded[: len(blk)] += blk
        return (folded[: l - 1] - folded[l - 1]) % p

    Q = [np.zeros(l - 1, dtype=np.int64)]
    Q[0][0] = 1
    for eta in etas:
        nxt = [np.zeros(l - 1, dtype=np.int64) for _ in range(len(Q) + 1)]
        for k, qk in enumerate(Q):
            nxt[k + 1] = (nxt[k + 1] + qk) % p
            nxt[k] = (nxt[k] - red(np.convolve(qk, eta))) % p
        Q = nxt
    coeffs = []
    for k, qk in enumerate(Q):
        if qk[1:].any():
            raise ArithmeticError(f"coefficient of x^{k} did not collapse to F_p")
        coeffs.append(int(qk[0]) % p)
    return coeffs


def _trace_fast(p: int, l: int) -> list[int]:
    """Coset-count route: exact power sums of the periods, then Newton.

    eta_i * eta_j expands through N[j-i][m] plus M when -1 lands in the
    right coset, so powers of eta_0 stay in the redundant basis
    (constant, eta_0, ..., eta_(p-1)) with exact integer weights.
    """
    table = build_log_table(l, primitive_root(l))
    M = (l - 1) // p
    y = np.arange(1, l, dtype=np.int64)
    d = table.dlog[y] % p
    y1 = (1 + y) % l
    nz = y1 != 0
    m = table.dlog[y1[nz]] % p
    N = np.zeros((p, p), dtype=np.int64)
    np.add.at(N, (d[nz], m), 1)
    coset_minus_one = int(table.dlog[l - 1] % p)

    psums = {1: -1}  # sum of all periods is -1
    cur_c = 0
    cur_b = [0] * p
    cur_b[0] = 1
    for t in range(2, p + 1):
        new_c = 0
        new_b = [0] * p
        if cur_c:
            new_b[0] += cur_c
        for i in range(p):
            bi = cur_b[i]
            if not bi:
                continue
            delta = (-i) % p
            if coset_minus_one == delta:
                new_c += bi * M
            row = N[delta]
            for mm in range(p):
                if row[mm]:
                    new_b[(i + mm) % p] += bi * int(row[mm])
        cur_c, cur_b = new_c, new_b
        psums[t] = p * cur_c - sum(cur_b)

    e = [1]
    for k in range(1, p + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * psums[i] for i in range(1, k + 1))
        q, r = divmod(acc, k)
        if r:
            raise ArithmeticError(f"Newton identity not integral at k={k}")
        e.append(q)
    coeffs = [0] * (p + 1)
    for k in range(p + 1):
        coeffs[p - k] = (-1) ** k * e[k] % p
    return coeffs


def trace_polynomial(p: int, l: int, method: str = "dense") -> TracePolynomial:
    """R_l by the requested route; both routes agree everywhere."""
    if method == "dense":
        coeffs = _trace_dense(p, l)
    elif method == "fast":
        coeffs = _trace_fast(p, l)
    else:
        raise ValueError(f"unknown method {method!r}")
    return TracePolynomial(
        p=p, l=l, coeffs=tuple(coeffs), residue_degree=residue_degree(p, l)
    )


class TraceCatalog(JsonlStore):
    """Trace polynomials keyed by (p, l); both routes give the same record."""

    record = TracePolynomial


def trace_stream(
    p: int,
    ls: Iterable[int],
    method: str = "fast",
    cache: TraceCatalog | None = None,
) -> Iterator[TracePolynomial]:
    """One TracePolynomial per l, replaying cached entries verbatim."""
    return ordered_map(lambda key: trace_polynomial(*key, method=method),
                       ((p, l) for l in ls), store=cache)


def distinct_trace_count(
    p: int,
    bound: int,
    method: str = "fast",
    cache: TraceCatalog | None = None,
) -> tuple[int, list[TracePolynomial]]:
    """Count distinct R_l over split primes l <= bound.

    Returns the count and the first occurrence of each distinct polynomial
    in stream order.
    """
    seen: set[tuple[int, ...]] = set()
    firsts: list[TracePolynomial] = []
    for tp in trace_stream(p, split_primes(p, bound=bound), method=method, cache=cache):
        if tp.coeffs not in seen:
            seen.add(tp.coeffs)
            firsts.append(tp)
    return len(firsts), firsts


def heuristic_probability(p: int) -> float:
    """Chance two random exponent sets of split primes intersect trivially.

    Binomial model: each of the N = (p-3)/2 slots joins a set with
    probability 1/p; the bracket is the hypergeometric miss probability.
    """
    N = (p - 3) // 2
    lg = math.lgamma

    def logC(n: int, k: int) -> float:
        return lg(n + 1) - lg(k + 1) - lg(n - k + 1)

    q = 1.0 / p
    tot = 0.0
    for j in range(N + 1):
        for k in range(N + 1):
            w = math.exp(
                logC(N, j) + logC(N, k)
                + (2 * N - j - k) * math.log1p(-q) + (j + k) * math.log(q)
            )
            if j + k > N:
                br = 1.0
            else:
                br = 1.0 - math.exp(lg(N - k + 1) + lg(N - j + 1) - lg(N + 1) - lg(N - k - j + 1))
            tot += w * br
    return tot
