"""Command line driver for the criterion checks and the experiments.

Subcommands: expp (exponent sets), vandiver (criterion verdicts), scan
(density tallies), rank (Jacobi-sum rank milestones), trace (trace
polynomial catalogs), symbol (exact pth-power classification).  Text
output follows the print format of the underlying programs so rows can be
diffed against published tables; json and csv are the machine interfaces.

Configuration precedence: command-line flag, then environment variable,
then built-in default.  Recognized variables: PRIMARITY_JOBS (worker
processes of whichever route the subcommand runs), PRIMARITY_CACHE_DIR,
PRIMARITY_FORMAT.  main resolves jobs, cache_dir, format and resume onto
the parsed namespace once, for every subcommand, and each handler reads
only that namespace; an --l, one pair per p, resolves jobs to 1, as a
pool would only add its start-up, and is refused beside --l-max or --count.
The parser itself is built once per process, on the first call of main, and
every call parses into a fresh namespace.

Exit codes: 0 success (criterion established where one was asked), 2
invalid input or resource refusal, 3 criterion undetermined at the given
bounds, 4 I/O failure.  Record streams are printed by _emit, which computes
the first record before it prints anything, a text title included, so
input rejected on the first record leaves stdout empty.  Caches are
JSON-lines files under --cache-dir; loading an existing cache requires
--resume, which replays cached records verbatim and makes reruns
byte-identical.  trace computes every R_l, a single --l included, by the
cyclotomic-number route of spectra.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain, islice
from pathlib import Path
from typing import Iterator

from .jacobi import check_exponent, check_pair
from .modarith import is_prime, split_primes
from .records import ordered_map, write_csv
from .residue_symbols import SymbolCache, SymbolReport, symbol_key, symbol_report
from .spectra import TraceCatalog, TracePolynomial, rank_scan, trace_stream, write_rank_csv
from .vandiver import (
    DEFAULT_MAX_STEPS,
    CriterionVerdict,
    ScanCache,
    ScanRecord,
    _join,
    criterion_a,
    criterion_b,
    density_scan,
    scan_pairs,
)


def _open_cache(args: argparse.Namespace, filename: str, factory):
    """Cache handle under --cache-dir, guarded by the --resume latch."""
    if args.cache_dir is None:
        return None
    path = Path(args.cache_dir) / filename
    if path.exists() and path.stat().st_size > 0 and not args.resume:
        raise ValueError(f"cache {path} exists; pass --resume to reuse it")
    return factory(path)


def _check_p(p: int, least: int) -> None:
    """Raise ValueError unless p is a prime >= least."""
    if not is_prime(p) or p < least:
        kind = "an odd prime" if least == 3 else f"a prime >= {least}"
        raise ValueError(f"p={p} is not {kind}")


def _prime_range(args: argparse.Namespace) -> Iterator[int]:
    """Primes from --p to --p-max, checked when the iteration starts: the
    range must not be inverted, an --l must split every one of them, and an
    --l-max must reach a split prime of every one of them."""
    _check_p(args.p, 3)
    p_max = args.p if args.p_max is None else args.p_max
    if p_max < args.p:
        raise ValueError(f"--p-max {p_max} is below --p {args.p}")
    primes = list(filter(is_prime, range(args.p, p_max + 1)))
    for q in primes:
        if args.l is not None:
            check_pair(q, args.l)
        elif args.l_max is not None and next(split_primes(q, bound=args.l_max), None) is None:
            raise ValueError(f"--l-max {args.l_max} is below the first split prime of p={q}")
    yield from primes


def _l_stream(args: argparse.Namespace, p: int):
    if args.l is not None:
        return [args.l]
    count = 1 if args.l_max is None and args.count is None else args.count
    return split_primes(p, bound=args.l_max, count=count)


def _l_or_l_max(args: argparse.Namespace):
    """The --l pair alone, or the split primes of --p up to --l-max."""
    if args.l is not None:
        return [args.l]
    if args.l_max is None:
        raise ValueError(f"{args.command} needs --l or --l-max")
    return split_primes(args.p, bound=args.l_max)


def _emit(args: argparse.Namespace, header: tuple[str, ...], records, text=None,
          title: str | None = None) -> None:
    """Print records as text lines, JSON lines, or CSV rows under header.

    The first record is computed before anything is printed, the text
    title included, so input rejected on the first record leaves stdout
    empty.
    """
    records = iter(records)
    records = chain(list(islice(records, 1)), records)
    if args.format == "csv":
        write_csv(sys.stdout, header, (rec.row() for rec in records))
        return
    if title is not None and args.format == "text":
        print(title)
    for rec in records:
        print(rec.to_json() if args.format == "json" else text(rec))


def _expp_text(rec: ScanRecord) -> str:
    line = f"p={rec.p} el={rec.l} c={rec.c} g={rec.g}"
    return f"{line} expp:{_join(rec.expp)}" if rec.expp else line


def cmd_expp(args: argparse.Namespace) -> int:
    cache = _open_cache(args, "scan.jsonl", ScanCache)
    records = chain.from_iterable(
        scan_pairs(p, _l_stream(args, p), c=args.c, jobs=args.jobs, cache=cache)
        for p in _prime_range(args))
    _emit(args, ScanRecord.CSV_HEADER, records, _expp_text)
    return 0


def cmd_vandiver(args: argparse.Namespace) -> int:
    for flag in ("l",) if args.mode == "b" else ("l_max", "count"):
        if getattr(args, flag) is not None:
            raise ValueError(f"--{flag.replace('_', '-')} does not apply to --mode {args.mode}")
    cache = _open_cache(args, "scan.jsonl", ScanCache)
    unmet: list[int] = []

    def verdicts():
        for p in _prime_range(args):
            if args.mode == "a":
                verdict = criterion_a(p, l=args.l, c=args.c, cache=cache)
            else:
                steps = DEFAULT_MAX_STEPS if args.count is None else args.count
                verdict = criterion_b(p, stream=split_primes(p, bound=args.l_max),
                                      max_steps=steps, c=args.c, jobs=args.jobs, cache=cache)
            if not verdict.holds:
                unmet.append(p)
            yield verdict

    _emit(args, CriterionVerdict.CSV_HEADER, verdicts(), CriterionVerdict.render)
    return 3 if unmet else 0


def cmd_scan(args: argparse.Namespace) -> int:
    p = args.p
    _check_p(p, 5)
    if args.count is None and args.l_max is None:
        raise ValueError("scan needs --count or --l-max")
    cache = _open_cache(args, "scan.jsonl", ScanCache)
    if args.format == "text":
        def on_hit(processed: int, hits: int, l: int, counts: tuple[int, ...]) -> None:
            print(f"{processed} {hits} {l} [{_join(counts)}]")

        table = density_scan(p, count=args.count, bound=args.l_max, c=args.c,
                             jobs=args.jobs, cache=cache, on_hit=on_hit)
        print(f"p={p} processed={table.processed} hits={table.hits} "
              f"last={table.last_l} counts={table.render_vector()}")
        return 0
    stream = split_primes(p, bound=args.l_max, count=args.count)
    _emit(args, ScanRecord.CSV_HEADER,
          scan_pairs(p, stream, c=args.c, jobs=args.jobs, cache=cache))
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    p = args.p
    _check_p(p, 7)
    stream = None if args.l_max is None else split_primes(p, bound=args.l_max)
    reached, lp, history = rank_scan(p, stream=stream, c=args.c)
    rank = history[-1][1] if history else 0
    if args.format == "json":
        print(json.dumps({"p": p, "r": rank, "elp": lp,
                          "history": [list(h) for h in history]}))
    elif args.format == "csv":
        write_rank_csv(p, history, sys.stdout)
    else:
        print(f"p={p} r={rank} elp={lp if reached else '-'}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    ls = _l_or_l_max(args)
    cache = _open_cache(args, "trace.jsonl", TraceCatalog)
    distinct: set[tuple[int, ...]] = set()

    def text(tp: TracePolynomial) -> str:
        distinct.add(tp.coeffs)
        return f"el={tp.l} f={tp.residue_degree} R={tp.render()}"

    _emit(args, TracePolynomial.CSV_HEADER, trace_stream(args.p, ls, cache=cache), text)
    if args.l is None and args.format == "text":
        print(f"p={args.p} distinct={len(distinct)}")
    return 0


def _symbol_text(rep: SymbolReport) -> str:
    return "\n".join([f"p={rep.p} el={rep.l} v={rep.v} u={rep.u}", *rep.lines()])


def cmd_symbol(args: argparse.Namespace) -> int:
    p, n = args.p, args.n
    _check_p(p, 5)
    check_exponent(p, n)
    ls = _l_or_l_max(args)
    cache = _open_cache(args, "symbols.jsonl", SymbolCache)
    keys = (symbol_key(p, n, l, args.c) for l in ls)
    _emit(args, SymbolReport.CSV_HEADER, ordered_map(symbol_report, keys, args.jobs, cache),
          _symbol_text, title=f"p={p} n={n}")
    return 0


_FLAGS = {
    "mode": dict(choices=("a", "b"), default="b", help="criterion variant (default b)"),
    "p": dict(type=int, required=True, help="base prime p"),
    "p-max": dict(type=int, help="scan primes p..p-max"),
    "l": dict(type=int, help="explicit split prime l"),
    "l-max": dict(type=int, help="bound on split primes l"),
    "count": dict(type=int, help="how many split primes to process"),
    "c": dict(type=int, help="twist parameter (default: smallest primitive root)"),
    "n": dict(type=int, required=True, help="even exponent n in [2, p-3]"),
    "jobs": dict(type=int, help="worker processes (env PRIMARITY_JOBS)"),
    "cache-dir": dict(help="directory for JSON-lines caches (env PRIMARITY_CACHE_DIR)"),
    "format": dict(choices=("text", "json", "csv"), help="output format (env PRIMARITY_FORMAT)"),
    "resume": dict(action="store_true", help="reuse an existing cache file"),
}

_PLUMBING = ("jobs", "cache-dir", "format", "resume")

_COMMANDS = (
    ("expp", cmd_expp, "exponent sets of split primes",
     ("p", "p-max", "l", "l-max", "count", "c", *_PLUMBING)),
    ("vandiver", cmd_vandiver, "criterion (a)/(b) verdicts",
     ("mode", "p", "p-max", "l", "l-max", "count", "c", *_PLUMBING)),
    ("scan", cmd_scan, "density tally over split primes",
     ("p", "l-max", "count", "c", *_PLUMBING)),
    ("rank", cmd_rank, "rank milestone of Jacobi-sum vectors",
     ("p", "l-max", "c", "format")),
    ("trace", cmd_trace, "Gaussian period trace polynomials",
     ("p", "l", "l-max", "cache-dir", "format", "resume")),
    ("symbol", cmd_symbol, "exact pth-power classification",
     ("p", "n", "l", "l-max", "c", *_PLUMBING)),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primarity",
        description="Vandiver criterion checks via Jacobi-sum twists of Gauss sums.",
    )
    # subcommands without a plumbing flag still read its environment variable
    parser.set_defaults(jobs=None, cache_dir=None, format=None, resume=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, flags in _COMMANDS:
        sp = sub.add_parser(name, help=help_text)
        for flag in flags:
            sp.add_argument(f"--{flag}", **_FLAGS[flag])
        sp.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # flag, then environment variable, then default
        if args.jobs is None:
            raw = os.environ.get("PRIMARITY_JOBS", "1")
            try:
                args.jobs = int(raw)
            except ValueError:
                raise ValueError(f"PRIMARITY_JOBS={raw!r} is not an integer") from None
        if args.jobs < 1:
            raise ValueError("worker counts must be at least 1")
        if getattr(args, "l", None) is not None:
            for flag in ("l_max", "count"):
                if getattr(args, flag, None) is not None:
                    raise ValueError(f"--l excludes --{flag.replace('_', '-')}")
            args.jobs = 1
        args.cache_dir = args.cache_dir or os.environ.get("PRIMARITY_CACHE_DIR")
        args.format = args.format or os.environ.get("PRIMARITY_FORMAT", "text")
        if args.format not in ("text", "json", "csv"):
            raise ValueError(f"unknown format {args.format!r}")
        return args.func(args)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
