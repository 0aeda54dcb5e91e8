"""Criterion checks built on exponent sets of split primes.

Criterion (a) certifies p once one split prime l has an exponent set
disjoint from the irregular exponents of p.  Criterion (b) avoids Bernoulli
numbers entirely: it intersects exponent sets along the stream of split
primes and certifies p as soon as the running intersection is empty.  Both
produce a CriterionVerdict; a scan that exhausts its budget first reports
the criterion as not established rather than failed.

Criteria and scans persist per-pair results as append-only JSON lines keyed
by (p, l, c, g), so runs resume without recomputing any pair.  Pairs are
computed only when the stream reaches them, at most `jobs` at a time, and
fold back into stream order so results never depend on the job count.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .bernoulli import irregularity_report
from .jacobi import ExponentSet, exponent_set_for, pair_key
from .modarith import split_primes
from .records import JsonlStore, ordered_map

DEFAULT_MAX_STEPS = 64


@dataclass(frozen=True)
class ScanRecord:
    """Exponent set of one (p, l) pair plus the parameters that fixed it."""

    p: int
    l: int
    c: int
    g: int
    expp: tuple[int, ...]
    ms: int

    CSV_HEADER = ("p", "l", "c", "g", "expp", "ms")
    key = property(attrgetter("p", "l", "c", "g"))

    def exponent_set(self) -> ExponentSet:
        return ExponentSet(self.p, self.expp)

    def row(self) -> list:
        return [self.p, self.l, self.c, self.g, ",".join(str(n) for n in self.expp), self.ms]

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, line: str) -> "ScanRecord":
        d = json.loads(line)
        return cls(**{**d, "expp": tuple(d["expp"])})


class ScanCache(JsonlStore):
    """Scan records keyed by (p, l, c, g)."""

    record = ScanRecord

    # perfbench/tracing.py times loading and appending by these two names
    def __init__(self, path: str | Path) -> None:
        super().__init__(path)

    def put(self, rec: ScanRecord) -> None:
        super().put(rec)


def _pair_record(args: tuple[int, int, int, int]) -> ScanRecord:
    """Worker body: one exponent set, timed."""
    p, l, c, g = args
    t0 = time.perf_counter()
    es = exponent_set_for(p, l, c=c, g=g)
    ms = int(round((time.perf_counter() - t0) * 1000))
    return ScanRecord(p=p, l=l, c=c, g=g, expp=es.members, ms=ms)


def scan_pairs(
    p: int,
    ls: Iterable[int],
    c: int | None = None,
    jobs: int = 1,
    cache: ScanCache | None = None,
) -> Iterator[ScanRecord]:
    """Yield one ScanRecord per l, in the order the stream supplies them.

    Cached pairs are replayed verbatim; missing ones are computed when the
    stream reaches them, with jobs > 1 fanning them out to a process pool.
    """
    yield from ordered_map(_pair_record, (pair_key(p, l, c) for l in ls), jobs, cache)


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of a criterion run for one prime p.

    The criterion holds exactly when the intersection is empty.  Mode a
    keeps the exponent set of its one witness and the irregular exponents
    of p; p is regular when the latter are known and empty.  A mode b run
    that does not hold ran out of split primes first: undetermined.
    """

    p: int
    mode: str
    witnesses: tuple[int, ...]
    intersection: ExponentSet
    exponents: ExponentSet | None = None
    irregular: ExponentSet | None = None

    def __post_init__(self) -> None:
        if not self.witnesses:
            raise ValueError("verdict without witnesses")

    CSV_HEADER = ("p", "mode", "holds", "steps", "witnesses", "intersection")

    holds = property(lambda self: self.intersection.is_empty())
    steps = property(lambda self: len(self.witnesses))
    regular = property(lambda self: self.irregular is not None and self.irregular.is_empty())
    undetermined = property(lambda self: self.mode == "b" and not self.holds)

    def status(self) -> str:
        return "established" if self.holds else "not established"

    def row(self) -> list:
        return [self.p, self.mode, self.holds, self.steps,
                ",".join(str(l) for l in self.witnesses), self.intersection.render()]

    def to_json(self) -> str:
        return json.dumps(
            {"p": self.p, "mode": self.mode, "holds": self.holds,
             "steps": self.steps, "witnesses": list(self.witnesses),
             "intersection": list(self.intersection.members),
             "regular": self.regular, "undetermined": self.undetermined}
        )

    def render(self) -> str:
        """One summary line per verdict."""
        parts = [f"p={self.p}", f"mode={self.mode}"]
        if self.mode == "a":
            parts.append(f"l={self.witnesses[0]}")
            parts.append(f"expp={{{self.exponents.render()}}}")
            parts.append(f"e0={{{self.irregular.render()}}}")
        else:
            parts.append(f"N={self.steps}")
            parts.append("witnesses=" + ",".join(str(l) for l in self.witnesses))
        parts.append(f"inter={{{self.intersection.render()}}}")
        parts.append(f"status={self.status()}")
        if self.regular:
            parts.append("(regular prime)")
        return " ".join(parts)


def criterion_a(p: int, l: int | None = None, c: int | None = None,
                cache: ScanCache | None = None) -> CriterionVerdict:
    """Check E_l(p) against the irregular exponents of p."""
    if l is None:
        l = next(split_primes(p, count=1))
    (rec,) = scan_pairs(p, [l], c=c, cache=cache)
    e_l = rec.exponent_set()
    e_0 = irregularity_report(p)
    return CriterionVerdict(p=p, mode="a", witnesses=(l,), intersection=e_l.intersection(e_0),
                            exponents=e_l, irregular=e_0)


def criterion_b(
    p: int,
    stream: Iterable[int] | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    c: int | None = None,
    jobs: int = 1,
    cache: ScanCache | None = None,
) -> CriterionVerdict:
    """Intersect exponent sets along the split-prime stream until empty.

    Certainty only comes from an empty intersection; hitting max_steps
    first leaves the criterion undetermined for this stream prefix.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if stream is None:
        stream = split_primes(p)
    witnesses: list[int] = []
    inter: ExponentSet | None = None
    for rec in scan_pairs(p, islice(stream, max_steps), c=c, jobs=jobs, cache=cache):
        witnesses.append(rec.l)
        es = rec.exponent_set()
        inter = es if inter is None else inter.intersection(es)
        if inter.is_empty():
            break
    if inter is None:
        raise ValueError(f"stream supplied no split primes for p={p}")
    return CriterionVerdict(p=p, mode="b", witnesses=tuple(witnesses), intersection=inter)


def minimal_empty_l(
    p: int,
    bound: int | None = None,
    c: int | None = None,
    jobs: int = 1,
    cache: ScanCache | None = None,
) -> tuple[int, int] | None:
    """First split prime with an empty exponent set, as (l, N).

    N counts every split prime examined, in ascending order, including the
    hit itself.  Returns None if the bound is exhausted first.
    """
    stream = split_primes(p, bound=bound)
    n = 0
    for rec in scan_pairs(p, stream, c=c, jobs=jobs, cache=cache):
        n += 1
        if not rec.expp:
            return rec.l, n
    return None


@dataclass(frozen=True)
class DensityTable:
    """How often each exponent occurred over a stretch of split primes.

    counts[j] is the number of processed primes whose exponent set contained
    n = 2*(j+1); processed counts all pairs and hits the total number of
    exponent occurrences, which is sum(counts).
    """

    p: int
    counts: tuple[int, ...]
    processed: int
    last_l: int

    hits = property(lambda self: sum(self.counts))

    def render_vector(self) -> str:
        return "[" + ",".join(str(v) for v in self.counts) + "]"


def density_scan(
    p: int,
    count: int | None = None,
    bound: int | None = None,
    c: int | None = None,
    jobs: int = 1,
    cache: ScanCache | None = None,
    on_hit: Callable[[int, int, int, tuple[int, ...]], None] | None = None,
) -> DensityTable:
    """Tally exponent occurrences over a stretch of split primes.

    The stretch is the first `count` split primes, those up to `bound`, or
    both caps together; at least one must be given.  on_hit, when given,
    fires after each pair with a nonempty exponent set, receiving
    (processed, hits, l, counts-so-far).
    """
    if count is None and bound is None:
        raise ValueError("density_scan needs a count or a bound")
    counts = [0] * ((p - 3) // 2)
    processed = 0
    last_l = 0
    stream = split_primes(p, bound=bound, count=count)
    for rec in scan_pairs(p, stream, c=c, jobs=jobs, cache=cache):
        processed += 1
        last_l = rec.l
        if rec.expp:
            for n in rec.expp:
                counts[n // 2 - 1] += 1
            if on_hit is not None:
                on_hit(processed, sum(counts), rec.l, tuple(counts))
    return DensityTable(p=p, counts=tuple(counts), processed=processed, last_l=last_l)
