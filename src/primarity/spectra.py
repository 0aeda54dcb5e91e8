"""Linear spans of Jacobi-sum vectors and Gaussian period trace polynomials.

Viewed as vectors over F_p, the twisted Jacobi sums of the split primes of
p satisfy four universal relations, augmentation 1 and moments m_1 = m_2 =
m_4 = 0, which jacobi.exponent_set checks on each J_i it reads and which
pass to products by Leibniz's rule, so their span cannot exceed p-4;
rank_scan adds one coefficient vector per split prime until the rank is
p-4.  The trace side factors p in the degree p subfield of Q(zeta_l): R_l is
the characteristic polynomial of the Gaussian periods over F_p, and the
number of distinct R_l as l grows is the spectrum the heuristic speaks about.

R_l is computed from the cyclotomic numbers N[d][m] = #{y in C_d : 1 + y
in C_m}, one 2D inverse DFT mod l of the Jacobi-sum values of jacobi
(jacobi._cyclotomic_numbers), which only this route reads: they drive
exact integer power sums of the periods, and Newton's identities turn
those into coefficients without any degree l-1 arithmetic or any array
of size l.  trace_stream computes the cyclotomic numbers of a chunk of
split primes in one call and the power sums one l at a time.  The dense
route, which multiplies out prod(x - eta_b) inside F_p[y]/Phi_l(y) from
a log table, is kept as the reference the fast route is tested against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from itertools import islice, takewhile
from operator import attrgetter
from typing import Iterable, Iterator

import numpy as np

from .cycring import render_poly
from .jacobi import TwistContext, _cyclotomic_numbers, check_pair, twist_product
from .modarith import LOG_TABLE_CAP, build_log_table, primitive_root, split_primes
from .records import JsonlStore, ordered_map, write_csv

_BATCH_CELLS = 1 << 16  # cells B * p * p of the cyclotomic numbers of one chunk of trace_stream
_BATCH_MAX = 64  # split primes per chunk, which bounds the ragged rows of the factorial grid


class RankAccumulator:
    """Incremental Gaussian elimination over F_p, width p-1.

    The basis stays in reduced row-echelon form: basis[:, pivots] is the
    identity, so a vector reduces in one product, v - v[pivots] @ basis, and
    a new row, zero at the old pivots, clears its pivot column from the old
    rows in its nonzero columns only.  The reducing product sums up to
    rank * (p-1)**2 < p**3, inside int64 for p < 2**21; larger p are refused.
    The first fresh row allocates room for all p-1 rows, so none is ever
    copied; basis and pivots are views of the first rank rows.
    """

    def __init__(self, p: int) -> None:
        if p >= 2**21:
            raise ValueError(f"p={p} is not below 2**21, the int64 bound of products")
        self.p = p
        self.rank = 0
        self._rows = np.zeros((0, p - 1), dtype=np.int64)
        self._pivots = np.zeros(0, dtype=np.intp)
        self.history: list[tuple[int, int]] = []

    basis = property(lambda self: self._rows[: self.rank])
    pivots = property(lambda self: self._pivots[: self.rank])

    def add(self, vec, label: int | None = None) -> bool:
        """Reduce vec against the basis; keep it if independent."""
        p = self.p
        v = np.asarray(vec, dtype=np.int64) % p
        if len(v) != p - 1:
            raise ValueError(f"vector width {len(v)} != {p - 1}")
        basis = self.basis
        v = (v - v[self.pivots] @ basis) % p
        nz = np.flatnonzero(v)
        fresh = len(nz) > 0
        if fresh:
            c = int(nz[0])
            v = v * pow(int(v[c]), -1, p) % p
            basis[:, nz] = (basis[:, nz] - np.outer(basis[:, c], v[nz])) % p
            if not self.rank:
                self._rows = np.zeros((p - 1, p - 1), dtype=np.int64)
                self._pivots = np.zeros(p - 1, dtype=np.intp)
            self._rows[self.rank], self._pivots[self.rank] = v, c
            self.rank += 1
        if label is not None:
            self.history.append((label, self.rank))
        return fresh


def rank_scan(
    p: int, stream: Iterable[int] | None = None, c: int | None = None
) -> tuple[bool, int | None, tuple[tuple[int, int], ...]]:
    """Feed Jacobi-sum vectors into the accumulator until rank p-4.

    Returns (reached, l_p, history) where l_p is the split prime whose
    vector completed rank p-4 and history logs (l, rank) pairs.
    """
    if stream is None:
        stream = split_primes(p)
    acc = RankAccumulator(p)
    for l in stream:
        acc.add(twist_product(TwistContext.build(p, l, c=c)).coeffs, label=l)
        if acc.rank >= p - 4:
            return True, l, tuple(acc.history)
    return False, None, tuple(acc.history)


def write_rank_csv(p: int, history: Iterable[tuple[int, int]], fh) -> None:
    """Rank history as CSV; the ratio column l / (p**2 log p**2) is derived."""
    scale = p * p * math.log(p * p)
    write_csv(fh, ("l", "rank", "ratio"), ([l, r, f"{l / scale:.4f}"] for l, r in history))


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
    """Residue degree of p in the degree p subfield of Q(zeta_l): 1 or p.

    Frobenius at p acts through p mod l on Gal = F_l*, and the subfield is
    fixed by the pth powers, so f = 1 exactly when p is a pth power mod l.
    """
    return 1 if pow(p, (l - 1) // p, l) == 1 else p


def _periods(p: int, l: int) -> list[np.ndarray]:
    """eta_b = sum_j y**(g**(b+jp)) as canonical vectors in F_p[y]/Phi_l."""
    table = build_log_table(l, primitive_root(l))
    etas = []
    for b in range(p):
        full = np.zeros(l, dtype=np.int64)
        full[table.powers[b::p]] = 1  # distinct powers of g
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


def _trace_fast(p: int, l: int, rows: list[list[int]]) -> list[int]:
    """Coset-count route: exact power sums of the periods, then Newton, from
    the cyclotomic numbers rows = N[d][m] of the pair.

    eta_i * eta_j expands through N[j-i][m], plus M = (l-1)/p when i = j
    because -1 lies in C_0, so powers of eta_0 stay in the redundant basis
    (constant, eta_0, ..., eta_(p-1)) with exact integer weights.
    """
    M = (l - 1) // p
    psums = [None, -1]  # the periods sum to -1
    cur_c, cur_b = 0, [1] + [0] * (p - 1)  # eta_0
    for _ in range(2, p + 1):
        new_b = [cur_c] + [0] * (p - 1)
        for i, bi in enumerate(cur_b):
            if bi:
                for m, n in enumerate(rows[-i % p]):
                    new_b[(i + m) % p] += bi * n
        cur_c, cur_b = cur_b[0] * M, new_b
        psums.append(p * cur_c - sum(cur_b))

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


def _fast_traces(p: int, ls: list[int]) -> list[TracePolynomial]:
    """R_l by the fast route for pairs (p, l) already checked, one batch of
    cyclotomic numbers for all of ls."""
    return [TracePolynomial(p=p, l=l, coeffs=tuple(_trace_fast(p, l, rows)),
                            residue_degree=residue_degree(p, l))
            for l, rows in zip(ls, _cyclotomic_numbers(p, ls).tolist())]


def trace_polynomial(p: int, l: int, method: str = "fast") -> TracePolynomial:
    """R_l for an odd prime p and a prime l = 1 (mod p).

    method "dense" selects the reference route; both routes agree everywhere.
    """
    check_pair(p, l)
    if method == "fast":
        return _fast_traces(p, [l])[0]
    if method != "dense":
        raise ValueError(f"unknown method {method!r}")
    return TracePolynomial(
        p=p, l=l, coeffs=tuple(_trace_dense(p, l)), residue_degree=residue_degree(p, l)
    )


def _computable(p: int, l: int) -> bool:
    """Whether check_pair and the log-table cap let the fast route take (p, l)."""
    try:
        check_pair(p, l)
    except ValueError:
        return False
    return l <= LOG_TABLE_CAP


class TraceCatalog(JsonlStore):
    """Trace polynomials keyed by (p, l)."""

    record = TracePolynomial


def trace_stream(
    p: int, ls: Iterable[int], cache: TraceCatalog | None = None
) -> Iterator[TracePolynomial]:
    """One TracePolynomial per l, replaying cached entries verbatim.

    The l are read in chunks of up to _BATCH_CELLS // p**2, at least one and
    at most _BATCH_MAX, and the ones the cache misses are computed in one
    batch, up to the first that check_pair or the log-table cap refuses.
    That one is left to trace_polynomial, so its ValueError comes after the
    records before it, and records are stored and yielded in stream order.
    """
    size = max(1, min(_BATCH_MAX, _BATCH_CELLS // (p * p)))
    fresh: dict[tuple[int, int], TracePolynomial] = {}

    def keys() -> Iterator[tuple[int, int]]:
        it = iter(ls)
        while chunk := list(islice(it, size)):
            missing = (l for l in chunk if cache is None or cache.get(p, l) is None)
            todo = list(takewhile(partial(_computable, p), missing))
            fresh.clear()
            if todo:
                fresh.update((tp.key, tp) for tp in _fast_traces(p, todo))
            yield from ((p, l) for l in chunk)

    return ordered_map(lambda key: fresh.get(key) or trace_polynomial(*key), keys(), store=cache)


def distinct_trace_count(
    p: int, bound: int, cache: TraceCatalog | None = None
) -> tuple[int, list[TracePolynomial]]:
    """Count distinct R_l over split primes l <= bound.

    Returns the count and the first occurrence of each distinct polynomial
    in stream order.
    """
    seen: set[tuple[int, ...]] = set()
    firsts: list[TracePolynomial] = []
    for tp in trace_stream(p, split_primes(p, bound=bound), cache=cache):
        if tp.coeffs not in seen:
            seen.add(tp.coeffs)
            firsts.append(tp)
    return len(firsts), firsts


def heuristic_probability(p: int) -> float:
    """Chance that two random exponent sets of split primes share a member.

    Binomial model: each of the N = (p-3)/2 slots joins a set with
    probability 1/p, so a slot lies in both with probability 1/p**2 and the
    sets are disjoint with probability (1 - 1/p**2)**N.
    """
    return -math.expm1((p - 3) // 2 * math.log1p(-1 / p**2))
