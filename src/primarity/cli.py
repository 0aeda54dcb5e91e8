"""Command line driver for the criterion checks and the experiments.

Subcommands: expp (exponent sets), vandiver (criterion verdicts), scan
(density tallies), rank (Jacobi-sum rank milestones), trace (trace
polynomial catalogs), symbol (exact pth-power classification).  Text
output follows the print format of the underlying programs so rows can be
diffed against published tables; json and csv are the machine interfaces.

Configuration precedence: command-line flag, then environment variable,
then built-in default.  Recognized variables: PRIMARITY_JOBS (worker
processes of whichever route the subcommand runs), PRIMARITY_CACHE_DIR,
PRIMARITY_FORMAT.

Exit codes: 0 success (criterion established where one was asked), 2
invalid input or resource refusal, 3 criterion undetermined at the given
bounds, 4 I/O failure.  Input rejected on the first record leaves stdout
empty.  Caches are JSON-lines files under --cache-dir; loading an existing
cache requires --resume, which replays cached records verbatim and makes
reruns byte-identical.  trace computes every R_l, a single --l included,
by the cyclotomic-number route of spectra.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
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
    criterion_a,
    criterion_b,
    density_scan,
    scan_pairs,
)

_ENV_PREFIX = "PRIMARITY_"


@dataclass(frozen=True)
class RunConfig:
    """Resolved plumbing options shared by all subcommands."""

    jobs: int
    cache_dir: str | None
    format: str
    resume: bool

    @classmethod
    def resolve(cls, args: argparse.Namespace) -> "RunConfig":
        """Apply the flag > environment > default precedence."""
        jobs = _pick_int(getattr(args, "jobs", None), "JOBS", 1)
        if jobs < 1:
            raise ValueError("worker counts must be at least 1")
        cache_dir = getattr(args, "cache_dir", None) or os.environ.get(
            _ENV_PREFIX + "CACHE_DIR"
        )
        fmt = getattr(args, "format", None) or os.environ.get(
            _ENV_PREFIX + "FORMAT", "text"
        )
        if fmt not in ("text", "json", "csv"):
            raise ValueError(f"unknown format {fmt!r}")
        return cls(
            jobs=jobs,
            cache_dir=cache_dir,
            format=fmt,
            resume=bool(getattr(args, "resume", False)),
        )


def _pick_int(flag_value: int | None, env_name: str, default: int) -> int:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(_ENV_PREFIX + env_name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{_ENV_PREFIX}{env_name}={raw!r} is not an integer") from None


def _open_cache(cfg: RunConfig, filename: str, factory):
    """Cache handle under --cache-dir, guarded by the --resume latch."""
    if cfg.cache_dir is None:
        return None
    path = Path(cfg.cache_dir) / filename
    if path.exists() and path.stat().st_size > 0 and not cfg.resume:
        raise ValueError(f"cache {path} exists; pass --resume to reuse it")
    return factory(path)


def _prime_range(args: argparse.Namespace) -> Iterator[int]:
    """Primes from --p to --p-max, checked when the iteration starts."""
    p = args.p
    if not is_prime(p) or p < 3:
        raise ValueError(f"p={p} is not an odd prime")
    p_max = p if args.p_max is None else args.p_max
    yield from (q for q in range(p, p_max + 1) if is_prime(q))


def _l_stream(args: argparse.Namespace, p: int):
    if args.l is not None:
        return [args.l]
    count = 1 if args.l_max is None and args.count is None else args.count
    return split_primes(p, bound=args.l_max, count=count)


def _emit(cfg: RunConfig, header: tuple[str, ...], records, text=None) -> None:
    """Print records as text lines, JSON lines, or CSV rows under header.

    The first record is computed before anything is printed, so input
    rejected on the first record leaves stdout empty.
    """
    records = iter(records)
    records = chain(list(islice(records, 1)), records)
    if cfg.format == "csv":
        write_csv(sys.stdout, header, (rec.row() for rec in records))
        return
    for rec in records:
        print(rec.to_json() if cfg.format == "json" else text(rec))


def _expp_text(rec: ScanRecord) -> str:
    line = f"p={rec.p} el={rec.l} c={rec.c} g={rec.g}"
    return line + " expp:" + ",".join(str(n) for n in rec.expp) if rec.expp else line


def cmd_expp(args: argparse.Namespace, cfg: RunConfig) -> int:
    cache = _open_cache(cfg, "scan.jsonl", ScanCache)
    records = chain.from_iterable(
        scan_pairs(p, _l_stream(args, p), c=args.c, jobs=cfg.jobs, cache=cache)
        for p in _prime_range(args))
    _emit(cfg, ScanRecord.CSV_HEADER, records, _expp_text)
    return 0


def cmd_vandiver(args: argparse.Namespace, cfg: RunConfig) -> int:
    cache = _open_cache(cfg, "scan.jsonl", ScanCache)
    unmet: list[int] = []

    def verdicts():
        for p in _prime_range(args):
            if args.mode == "a":
                verdict = criterion_a(p, l=args.l, c=args.c, cache=cache)
            else:
                steps = DEFAULT_MAX_STEPS if args.count is None else args.count
                verdict = criterion_b(p, stream=split_primes(p, bound=args.l_max),
                                      max_steps=steps, c=args.c, jobs=cfg.jobs, cache=cache)
            if not verdict.holds:
                unmet.append(p)
            yield verdict

    _emit(cfg, CriterionVerdict.CSV_HEADER, verdicts(), CriterionVerdict.render)
    return 3 if unmet else 0


def cmd_scan(args: argparse.Namespace, cfg: RunConfig) -> int:
    p = args.p
    if not is_prime(p) or p < 5:
        raise ValueError(f"p={p} is not a prime >= 5")
    if args.count is None and args.l_max is None:
        raise ValueError("scan needs --count or --l-max")
    cache = _open_cache(cfg, "scan.jsonl", ScanCache)
    if cfg.format == "text":
        def on_hit(processed: int, hits: int, l: int, counts: tuple[int, ...]) -> None:
            print(f"{processed} {hits} {l} [" + ",".join(str(v) for v in counts) + "]")

        table = density_scan(p, count=args.count, bound=args.l_max, c=args.c,
                             jobs=cfg.jobs, cache=cache, on_hit=on_hit)
        print(f"p={p} processed={table.processed} hits={table.hits} "
              f"last={table.last_l} counts={table.render_vector()}")
        return 0
    stream = split_primes(p, bound=args.l_max, count=args.count)
    _emit(cfg, ScanRecord.CSV_HEADER,
          scan_pairs(p, stream, c=args.c, jobs=cfg.jobs, cache=cache))
    return 0


def cmd_rank(args: argparse.Namespace, cfg: RunConfig) -> int:
    p = args.p
    if not is_prime(p) or p < 7:
        raise ValueError(f"p={p} must be a prime >= 7 for a meaningful rank scan")
    stream = split_primes(p, bound=args.l_max) if args.l_max else None
    reached, lp, history = rank_scan(p, stream=stream, c=args.c)
    rank = history[-1][1] if history else 0
    if cfg.format == "json":
        print(json.dumps({"p": p, "r": rank, "elp": lp,
                          "history": [list(h) for h in history]}))
    elif cfg.format == "csv":
        write_rank_csv(p, history, sys.stdout)
    else:
        print(f"p={p} r={rank} elp={lp if reached else '-'}")
    return 0


def cmd_trace(args: argparse.Namespace, cfg: RunConfig) -> int:
    p = args.p
    if args.l is None and args.l_max is None:
        raise ValueError("trace needs --l or --l-max")
    cache = _open_cache(cfg, "trace.jsonl", TraceCatalog)
    ls = [args.l] if args.l is not None else split_primes(p, bound=args.l_max)
    distinct: set[tuple[int, ...]] = set()

    def text(tp: TracePolynomial) -> str:
        distinct.add(tp.coeffs)
        return f"el={tp.l} f={tp.residue_degree} R={tp.render()}"

    _emit(cfg, TracePolynomial.CSV_HEADER, trace_stream(p, ls, cache=cache), text)
    if args.l is None and cfg.format == "text":
        print(f"p={p} distinct={len(distinct)}")
    return 0


def _symbol_text(rep: SymbolReport) -> str:
    return "\n".join([f"p={rep.p} el={rep.l} v={rep.v} u={rep.u}", *rep.lines()])


def cmd_symbol(args: argparse.Namespace, cfg: RunConfig) -> int:
    p, n = args.p, args.n
    if not is_prime(p) or p < 5:
        raise ValueError(f"p={p} is not a prime >= 5")
    check_exponent(p, n)
    if args.l is None and args.l_max is None:
        raise ValueError("symbol needs --l or --l-max")
    if args.l is not None:
        check_pair(p, args.l)
    cache = _open_cache(cfg, "symbols.jsonl", SymbolCache)
    ls = [args.l] if args.l is not None else split_primes(p, bound=args.l_max)
    if cfg.format == "text":
        print(f"p={p} n={n}")
    keys = (symbol_key(p, n, l, args.c) for l in ls)
    jobs = cfg.jobs if args.l is None else 1  # no pool for a single row
    _emit(cfg, SymbolReport.CSV_HEADER,
          ordered_map(symbol_report, keys, jobs, cache), _symbol_text)
    return 0


def _add_flags(sp: argparse.ArgumentParser, *names: str) -> None:
    flags = {
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
    for name in names:
        sp.add_argument(f"--{name}", **flags[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primarity",
        description="Vandiver criterion checks via Jacobi-sum twists of Gauss sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("expp", help="exponent sets of split primes")
    _add_flags(sp, "p", "p-max", "l", "l-max", "count", "c", "jobs",
               "cache-dir", "format", "resume")
    sp.set_defaults(func=cmd_expp)

    sp = sub.add_parser("vandiver", help="criterion (a)/(b) verdicts")
    sp.add_argument("--mode", choices=("a", "b"), default="b",
                    help="criterion variant (default b)")
    _add_flags(sp, "p", "p-max", "l", "l-max", "count", "c", "jobs",
               "cache-dir", "format", "resume")
    sp.set_defaults(func=cmd_vandiver)

    sp = sub.add_parser("scan", help="density tally over split primes")
    _add_flags(sp, "p", "l-max", "count", "c", "jobs",
               "cache-dir", "format", "resume")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("rank", help="rank milestone of Jacobi-sum vectors")
    _add_flags(sp, "p", "l-max", "c", "format")
    sp.set_defaults(func=cmd_rank)

    sp = sub.add_parser("trace", help="Gaussian period trace polynomials")
    _add_flags(sp, "p", "l", "l-max", "cache-dir", "format", "resume")
    sp.set_defaults(func=cmd_trace)

    sp = sub.add_parser("symbol", help="exact pth-power classification")
    _add_flags(sp, "p", "n", "l", "l-max", "c", "jobs",
               "cache-dir", "format", "resume")
    sp.set_defaults(func=cmd_symbol)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.resolve(args)
        return args.func(args, cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
