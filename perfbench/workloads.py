"""The four primarity workloads: inputs from a seed, rounds of operations,
and the checks made on their outputs once timing has ended.

A round is the same list of operations every time, so a run of any length
attempts whole rounds and each operation's share of failures is fixed.
Every operation that has a subcommand goes through primarity.cli.main, so
argument parsing, row formatting and cache plumbing stay in the timed
path; norm_l_power has none and is called through the library.

The seed picks the order of the primes in criterion-sweep and symbol37,
the stretch of the p=37 high range that is scanned, and the samples
re-derived by the checks.  The set of primes each workload touches is
otherwise fixed, because the cost of one operation grows steeply with p
and l and a seed that changed them would change the throughput it
reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
import shutil
from dataclasses import dataclass
from itertools import islice, takewhile
from pathlib import Path
from typing import Callable

import reference
from oracles import is_prime_naive


@dataclass(frozen=True)
class Op:
    """One timed operation; key is the same in every round."""

    key: str
    fn: Callable[[], tuple[int, str, str]]
    primary: bool = False
    secondary: bool = False
    counted: bool = True  # False for the benchmark's own probes between operations


def cli_op(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    """Run primarity.cli.main(argv), returning (exit code, stdout, stderr)."""
    from primarity import cli

    argv = [str(a) for a in argv]

    def run() -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    return run


class Workload:
    name = ""
    primary_units = 0    # results per round behind primary_per_s
    secondary_units = 0  # results per round behind secondary_per_s
    known_faults: frozenset[str] = frozenset()  # op keys that fail by a known program fault

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")

    def prepare(self, workdir: Path) -> None:
        """Untimed work the rounds need, done once before timing starts."""
        self.workdir = workdir

    def ops(self, r: int) -> list[Op]:
        raise NotImplementedError

    def end_round(self, r: int) -> None:
        """Untimed bookkeeping after round r."""

    def check(self, outs: dict[str, tuple[int, str, str]]) -> dict[str, str]:
        """Failed checks on the first round's outputs, as op key -> reason."""
        raise NotImplementedError


# --- criterion-sweep -------------------------------------------------------


_VERDICT_A = re.compile(
    r"p=(\d+) mode=a l=(\d+) expp=\{([\d,]*)\} e0=\{([\d,]*)\} "
    r"inter=\{([\d,]*)\} status=(established|not established)( \(regular prime\))?")
_VERDICT_B = re.compile(
    r"p=(\d+) mode=b N=(\d+) witnesses=([\d,]+) inter=\{([\d,]*)\} "
    r"status=(established|not established)")


def _ints(text: str) -> set[int]:
    return {int(x) for x in text.split(",") if x}


class CriterionSweep(Workload):
    """vandiver --mode a and --mode b for every prime 37 <= p <= 67."""

    name = "criterion-sweep"
    P_MAX = 67
    SAMPLES = 4

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.primes = [p for p in range(37, self.P_MAX + 1) if is_prime_naive(p)]
        self.rng.shuffle(self.primes)
        self.primary_units = len(self.primes)
        self.secondary_units = len(self.primes)
        self.sample_seed = self.rng.randrange(1 << 30)

    def ops(self, r: int) -> list[Op]:
        out = []
        for p in self.primes:
            out.append(Op(f"a:{p}", cli_op(["vandiver", "--p", p, "--mode", "a"]), primary=True))
            out.append(Op(f"b:{p}", cli_op(["vandiver", "--p", p, "--mode", "b"]),
                          primary=True, secondary=True))
        return out

    def check(self, outs):
        from _goldens import FIRST_SPLIT
        from oracles import bn_over_n_mod_p, jacobi_charsum
        from primarity.jacobi import TwistContext, jacobi_sum, twist_product

        bad: dict[str, str] = {}
        witnesses: dict[int, list[int]] = {}
        for p in self.primes:
            first_l, first_set = FIRST_SPLIT[p]
            m = _VERDICT_A.fullmatch(outs[f"a:{p}"][1].strip())
            if m is None:
                bad[f"a:{p}"] = "unparsed mode (a) row"
            else:
                irregular = {n for n in range(2, p - 2, 2) if bn_over_n_mod_p(n, p) == 0}
                if m.group(6) != "established":
                    bad[f"a:{p}"] = "criterion (a) not established"
                elif int(m.group(2)) != first_l or _ints(m.group(3)) != first_set:
                    bad[f"a:{p}"] = "first split prime or its exponent set differs from FIRST_SPLIT"
                elif _ints(m.group(4)) != irregular:
                    bad[f"a:{p}"] = "irregular exponents differ from B_n/n mod p"
                elif _ints(m.group(5)) != first_set & irregular:
                    bad[f"a:{p}"] = "intersection is not expp & e0"
            m = _VERDICT_B.fullmatch(outs[f"b:{p}"][1].strip())
            if m is None:
                bad[f"b:{p}"] = "unparsed mode (b) row"
                continue
            ws = [int(x) for x in m.group(3).split(",")]
            witnesses[p] = ws
            if m.group(5) != "established" or m.group(4):
                bad[f"b:{p}"] = "criterion (b) not established"
            elif ws[0] != first_l or int(m.group(2)) != len(ws):
                bad[f"b:{p}"] = "witness stream does not start at FIRST_SPLIT or N is off"

        rng = random.Random(self.sample_seed)
        for _ in range(self.SAMPLES):
            p = rng.choice(sorted(witnesses))
            l = rng.choice(witnesses[p])
            i = rng.randrange(1, p - 1)
            g = reference.primitive_root(l)
            ctx = TwistContext.build(p, l)
            want = [v % p for v in jacobi_charsum(p, l, g, i)]
            if ctx.g != g or list(jacobi_sum(ctx, i).coeffs) != want:
                bad[f"b:{p}"] = f"jacobi_sum({p}, {l}, i={i}) differs from the character sum"
            elif not reference.relations_hold([int(v) for v in twist_product(ctx).coeffs], p):
                bad[f"b:{p}"] = f"twist product at ({p}, {l}) breaks the moment relations"
        return bad


# --- scan37-high -----------------------------------------------------------


_EXPP_ROW = re.compile(r"p=37 el=(\d+) c=(\d+) g=(\d+)(?: expp:([\d,]+))?")

# The torn-cache resume always works on these two rows, whatever the seed:
# a complete record of the first and half a record of the second, as a
# kill in the middle of the append leaves the file.
TORN_ROWS = (742073, 742369)


class Scan37High(Workload):
    """Exponent sets of p=37 for consecutive split primes near 750000."""

    name = "scan37-high"
    WINDOW = 24
    SAMPLES = 2
    known_faults = frozenset({"torn"})

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from _goldens import SCAN37_HIGH

        golden = sorted(SCAN37_HIGH)
        start = golden[self.rng.randrange(len(golden) - self.WINDOW + 1)]
        self.ls = list(islice(reference.split_primes(37, start), self.WINDOW))
        self.primary_units = self.secondary_units = self.WINDOW
        self.samples = self.rng.sample(self.ls, self.SAMPLES)
        self.c = reference.primitive_root(37)
        lines = [json.dumps({"p": 37, "l": l, "c": self.c, "g": reference.primitive_root(l),
                             "expp": sorted(SCAN37_HIGH[l]), "ms": 0})
                 for l in TORN_ROWS]
        torn_line = lines[1][: len(lines[1]) // 2]
        self.torn_text = lines[0] + "\n" + torn_line
        # the known fault: the cache loader hands the torn line to json.loads
        try:
            json.loads(torn_line)
        except json.JSONDecodeError as exc:
            self.torn_error = f"error: {exc}\n"
        self.torn_want = self._row(TORN_ROWS[1], sorted(SCAN37_HIGH[TORN_ROWS[1]]))

    def _row(self, l: int, expp: list[int]) -> str:
        row = f"p=37 el={l} c={self.c} g={reference.primitive_root(l)}"
        return row + (" expp:" + ",".join(map(str, expp)) if expp else "") + "\n"

    def _dirs(self, r: int) -> tuple[Path, Path]:
        return self.workdir / f"round{r}", self.workdir / f"torn{r}"

    def ops(self, r: int) -> list[Op]:
        cache, torn = self._dirs(r)
        cache.mkdir()
        torn.mkdir()
        (torn / "scan.jsonl").write_text(self.torn_text, encoding="ascii")
        base = ["expp", "--p", 37, "--cache-dir", cache, "--resume", "--l"]
        # every cold call after the first finds the cache file, hence --resume;
        # the pair is not in it yet, so it is computed and appended
        out = [Op(f"cold:{l}", cli_op(base + [l]), primary=True) for l in self.ls]
        out.append(Op("count-cold", lambda: self._count(cache), counted=False))
        out += [Op(f"warm:{l}", cli_op(base + [l]), secondary=True) for l in self.ls]
        out.append(Op("count-warm", lambda: self._count(cache), counted=False))
        out.append(Op("torn", cli_op(["expp", "--p", 37, "--cache-dir", torn, "--resume",
                                      "--l", TORN_ROWS[1]])))
        return out

    @staticmethod
    def _count(cache: Path) -> tuple[int, str, str]:
        """Lines in the round's cache, so a replay that recomputes shows."""
        text = (cache / "scan.jsonl").read_text(encoding="ascii")
        return 0, f"{text.count(chr(10))}\n", ""

    def end_round(self, r: int) -> None:
        for d in self._dirs(r):
            shutil.rmtree(d)

    def check(self, outs):
        from _goldens import SCAN37_HIGH
        from oracles import jacobi_charsum

        bad: dict[str, str] = {}
        rows: dict[int, set[int]] = {}
        for l in self.ls:
            text = outs[f"cold:{l}"][1]
            m = _EXPP_ROW.fullmatch(text.strip())
            if m is None or int(m.group(1)) != l:
                bad[f"cold:{l}"] = "unparsed expp row"
                continue
            rows[l] = _ints(m.group(4) or "")
            if int(m.group(2)) != self.c or int(m.group(3)) != reference.primitive_root(l):
                bad[f"cold:{l}"] = "c or g is not the smallest primitive root"
            elif l in SCAN37_HIGH and rows[l] != SCAN37_HIGH[l]:
                bad[f"cold:{l}"] = "exponent set differs from SCAN37_HIGH"
            if outs[f"warm:{l}"][1] != text:
                bad[f"warm:{l}"] = "warm replay is not byte-identical to the cold pass"
        if outs["count-cold"][1] != f"{self.WINDOW}\n":
            bad.update({f"cold:{l}": "cold pass did not append one cache line per pair"
                        for l in self.ls})
        if outs["count-warm"][1] != outs["count-cold"][1]:
            bad.update({f"warm:{l}": "warm replay appended to the cache" for l in self.ls})
        rc, out, err = outs["torn"]
        if rc == 0 and out != self.torn_want:
            bad["torn"] = "resume after a torn line differs from the cold row"
        elif rc != 0 and (rc, err) != (2, self.torn_error):
            bad["torn"] = f"resume after a torn line failed other than by the torn line (exit {rc})"

        for l in self.samples:
            if l not in rows:
                continue
            g = reference.primitive_root(l)
            J = reference.one(37)
            for i in range(1, self.c):
                J = reference.mul(J, [v % 37 for v in jacobi_charsum(37, l, g, i)], 37)
            if reference.exponent_set(J, 37) != rows[l]:
                bad[f"cold:{l}"] = "exponent set differs from the defining product S_n"
        return bad


# --- symbol37 --------------------------------------------------------------


_SYMBOL_LINES = {
    "local_at_p": "Sn local pth power at P",
    "local_at_L": "Sn local pth power at L",
    "non_local_at_L": "Sn NON local pth power at L",
    "global_pth_power": "Sn GLOBAL pth power",
}


class Symbol37(Workload):
    """Exact classification of S_32 at p=37, and norms of the reduced components."""

    name = "symbol37"
    P, N = 37, 32
    # the first two split primes of 37 plus the other SYMBOL37 rows
    LS = (149, 223, 6883, 7253, 32783)

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.ls = list(self.LS)
        self.rng.shuffle(self.ls)
        self.primary_units = self.secondary_units = len(self.ls)

    def prepare(self, workdir: Path) -> None:
        """The l-content-reduced components the norm operations take as input."""
        from primarity.jacobi import TwistContext
        from primarity.residue_symbols import exact_twist_component, l_content

        super().prepare(workdir)
        self.reduced = {}
        for l in self.ls:
            S = exact_twist_component(TwistContext.build(self.P, l), self.N)
            self.reduced[l] = l_content(S, l)[1]

    def _norm(self, l: int) -> Callable[[], tuple[int, str, str]]:
        from primarity.residue_symbols import norm_l_power

        def run():
            sign, e = norm_l_power(self.reduced[l], l)
            return 0, f"{sign} {e}\n", ""

        return run

    def ops(self, r: int) -> list[Op]:
        out = []
        for l in self.ls:
            out.append(Op(f"symbol:{l}", cli_op(["symbol", "--p", self.P, "--n", self.N,
                                                 "--l", l]), primary=True))
            out.append(Op(f"norm:{l}", self._norm(l), secondary=True))
        return out

    def check(self, outs):
        from _goldens import SYMBOL37

        p, n = self.P, self.N
        c = reference.primitive_root(p)
        power_sum = sum(pow(a, n - 1, p) for a in range(1, p))
        bad: dict[str, str] = {}
        for l in self.ls:
            lines = outs[f"symbol:{l}"][1].splitlines()
            m = re.fullmatch(rf"p={p} el={l} v=(\d+) u=(\d+)", lines[1]) if len(lines) > 1 else None
            if lines[:1] != [f"p={p} n={n}"] or m is None:
                bad[f"symbol:{l}"] = "unparsed symbol rows"
                continue
            v, u = int(m.group(1)), int(m.group(2))
            if pow(u, p, l) != 1:
                bad[f"symbol:{l}"] = "u is not a pth root of unity mod l"
            elif l in SYMBOL37 and (
                    (v, u) != SYMBOL37[l][:2]
                    or lines[2:] != [_SYMBOL_LINES[f] for f in SYMBOL37[l][2]]):
                bad[f"symbol:{l}"] = "row differs from SYMBOL37"
            sign, e = map(int, outs[f"norm:{l}"][1].split())
            if sign != 1:
                bad[f"norm:{l}"] = "norm is negative in a CM field"
            elif e != (c - 1) * (p - 1) // 2 * power_sum - v * (p - 1):
                bad[f"norm:{l}"] = "l-power of the norm differs from the content count"
        return bad


# --- spectra-catalog -------------------------------------------------------


_TRACE_ROW = re.compile(r"el=(\d+) f=(\d+) R=(.+)")


class SpectraCatalog(Workload):
    """trace --p 5 over l <= 30000 and rank milestones for five primes."""

    name = "spectra-catalog"
    TRACE_BOUND = 30000
    RANK_PS = (71, 73, 79, 83, 151)
    DENSE_SAMPLES = 3
    DENSE_BOUND = 3000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from _goldens import RANK_MILESTONES_LARGE

        self.trace_ls = self._split(5, self.TRACE_BOUND)
        self.rank_ps = list(self.RANK_PS)
        self.vectors = {P: len(self._split(P, RANK_MILESTONES_LARGE[P])) for P in self.rank_ps}
        self.primary_units = len(self.trace_ls)
        self.secondary_units = sum(self.vectors.values())
        self.dense = self.rng.sample([l for l in self.trace_ls if l <= self.DENSE_BOUND],
                                     self.DENSE_SAMPLES)

    @staticmethod
    def _split(p: int, bound: int) -> list[int]:
        return list(takewhile(lambda l: l <= bound, reference.split_primes(p)))

    def ops(self, r: int) -> list[Op]:
        out = [Op("trace", cli_op(["trace", "--p", 5, "--l-max", self.TRACE_BOUND]), primary=True)]
        out += [Op(f"rank:{P}", cli_op(["rank", "--p", P, "--format", "json"]), secondary=True)
                for P in self.rank_ps]
        return out

    def check(self, outs):
        from _goldens import RANK_MILESTONES_LARGE, TRACE5_CATALOG
        from primarity.spectra import trace_polynomial

        bad: dict[str, str] = {}
        lines = outs["trace"][1].splitlines()
        rows = [_TRACE_ROW.fullmatch(x) for x in lines[:-1]]
        if None in rows or [int(m.group(1)) for m in rows] != self.trace_ls:
            bad["trace"] = "trace rows do not follow the split primes of 5"
        else:
            table = {int(m.group(1)): (int(m.group(2)), m.group(3)) for m in rows}
            seen, firsts = set(), []
            for l, (f, R) in table.items():
                if R not in seen:
                    seen.add(R)
                    firsts.append((l, f, R))
            if firsts != TRACE5_CATALOG or lines[-1] != f"p=5 distinct={len(TRACE5_CATALOG)}":
                bad["trace"] = "first occurrences differ from TRACE5_CATALOG"
            elif any((f == 1) != (pow(5, (l - 1) // 5, l) == 1) or f not in (1, 5)
                     for l, (f, _) in table.items()):
                bad["trace"] = "residue degree disagrees with the power test"
            for l in self.dense:
                tp = trace_polynomial(5, l, method="dense")
                if (tp.residue_degree, tp.render()) != table[l]:
                    bad["trace"] = f"fast route differs from the dense route at l={l}"
        for P in self.rank_ps:
            d = json.loads(outs[f"rank:{P}"][1])
            ranks = [r for _, r in d["history"]]
            if (d["r"], d["elp"]) != (P - 4, RANK_MILESTONES_LARGE[P]):
                bad[f"rank:{P}"] = "rank milestone differs from RANK_MILESTONES_LARGE"
            elif max(ranks) > P - 4 or len(ranks) != self.vectors[P]:
                bad[f"rank:{P}"] = "rank history exceeds p-4 or skips split primes"
        return bad


WORKLOADS = {w.name: w for w in (CriterionSweep, Scan37High, Symbol37, SpectraCatalog)}
