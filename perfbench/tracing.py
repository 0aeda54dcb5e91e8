"""Spans around the public functions of each primarity layer.

install() rebinds every module attribute (and class attribute) that holds
one of the wrapped callables, so calls between modules and calls inside a
module, such as vandiver reaching jacobi.exponent_set_for through its own
import, all pass through a wrapper.  uninstall() puts the originals back.
Nothing under src/ is edited.

A span is (id, parent id, operation id, name, start, end, quantity).  The
quantity carries the computed sizes the per-layer metrics need: (p-1)**2
multiply-adds per F_p[x]/Phi_p product, the bytes of each log table, the
largest coefficient bit length of each exact component, and 1 on each
scan_pairs resume that handed out a freshly computed exponent set.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

MODULES = ("modarith", "cycring", "jacobi", "bernoulli", "vandiver",
           "residue_symbols", "spectra", "cli")

_END = object()


def _log_table_bytes(args, kwargs, table):
    return table.powers.nbytes + table.dlog.nbytes


def _mul_madds(args, kwargs, result):
    return (args[0].p - 1) ** 2


def _coeff_bits(args, kwargs, result):
    return max(c.bit_length() for c in result.coeffs)


# (module, attribute path, span name, quantity).  The quantity is a
# function of (args, kwargs, result), None, or a mode: "gen" marks generator
# functions, whose work happens on each resume rather than on the call;
# "scan" is a generator whose resumes count the fresh sets they hand out;
# "fresh" remembers the sets _pair_record computes.
WRAPPED = (
    ("modarith", "build_log_table", "modarith.build_log_table", _log_table_bytes),
    ("modarith", "split_primes", "modarith.split_primes", "gen"),
    ("cycring", "CycModP.__mul__", "cycring.mul", _mul_madds),
    ("cycring", "CycModP.galois", "cycring.galois", None),
    ("jacobi", "TwistContext.build", "jacobi.TwistContext.build", None),
    ("jacobi", "jacobi_sum", "jacobi.jacobi_sum", None),
    ("jacobi", "twist_product", "jacobi.twist_product", None),
    ("jacobi", "exponent_set", "jacobi.exponent_set", None),
    ("jacobi", "exponent_set_for", "jacobi.exponent_set_for", None),
    ("bernoulli", "irregularity_report", "bernoulli.irregularity_report", None),
    ("vandiver", "ScanCache.__init__", "vandiver.ScanCache.load", None),
    ("vandiver", "ScanCache.put", "vandiver.ScanCache.put", None),
    ("vandiver", "_pair_record", "vandiver.pair_record", "fresh"),
    ("vandiver", "scan_pairs", "vandiver.scan_pairs", "scan"),
    ("vandiver", "criterion_a", "vandiver.criterion_a", None),
    ("vandiver", "criterion_b", "vandiver.criterion_b", None),
    ("residue_symbols", "exact_jacobi_sum", "residue_symbols.exact_jacobi_sum", None),
    ("residue_symbols", "CycBigInt.mul", "residue_symbols.CycBigInt.mul", None),
    ("residue_symbols", "exact_twist_component",
     "residue_symbols.exact_twist_component", _coeff_bits),
    ("residue_symbols", "l_content", "residue_symbols.l_content", None),
    ("residue_symbols", "residue_symbol", "residue_symbols.residue_symbol", None),
    ("residue_symbols", "norm_l_power", "residue_symbols.norm_l_power", None),
    ("residue_symbols", "classify", "residue_symbols.classify", None),
    ("spectra", "trace_polynomial", "spectra.trace_polynomial", None),
    ("spectra", "rank_scan", "spectra.rank_scan", None),
    ("spectra", "RankAccumulator.add", "spectra.RankAccumulator.add", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.first_rows: list[float] = []
        self.op_id = 0
        self._stack: list[int] = []
        self._next_id = 1
        self._fresh: set[int] = set()
        self._restore: list[tuple] = []

    def _enter(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent

    def _exit(self, sid, parent, name, t0, qty) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, self.op_id, name, t0, t1, qty))

    def call(self, name, fn, measure, args, kwargs):
        sid, parent = self._enter()
        qty = 0
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if measure == "fresh":
                self._fresh.add(id(result))
            elif measure is not None:
                qty = measure(args, kwargs, result)
            return result
        finally:
            self._exit(sid, parent, name, t0, qty)

    def resumes(self, name, inner, scan=False):
        """Yield from inner, one span per resume."""
        created = perf_counter()
        first = True
        try:
            while True:
                sid, parent = self._enter()
                t0 = perf_counter()
                item = _END
                try:
                    item = next(inner, _END)
                finally:
                    fresh = scan and item is not _END and id(item) in self._fresh
                    if fresh:
                        self._fresh.discard(id(item))
                    self._exit(sid, parent, name, t0, int(fresh))
                if item is _END:
                    return
                if scan and first:
                    self.first_rows.append(perf_counter() - created)
                first = False
                yield item
        finally:
            inner.close()
            if scan:
                # sets computed but never handed out are wasted; forget them
                self._fresh.clear()

    def _wrapper(self, name, fn, measure):
        tracer = self
        if measure in ("gen", "scan"):
            scan = measure == "scan"

            def traced(*args, **kwargs):
                return tracer.resumes(name, fn(*args, **kwargs), scan=scan)
        else:
            def traced(*args, **kwargs):
                return tracer.call(name, fn, measure, args, kwargs)
        return functools.wraps(fn)(traced)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("primarity")
        modules = [pkg] + [importlib.import_module(f"primarity.{m}") for m in MODULES]
        for mod_name, path, name, measure in WRAPPED:
            mod = importlib.import_module(f"primarity.{mod_name}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrapper(name, raw.__func__, measure))
                else:
                    new = self._wrapper(name, raw, measure)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(mod, path)
            new = self._wrapper(name, orig, measure)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, new)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()
        self._fresh.clear()

    def write(self, path) -> None:
        """Spans as CSV, times in nanoseconds from the first span."""
        base = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="ascii") as fh:
            fh.write("id,parent,op,name,start_ns,end_ns,quantity\n")
            for sid, parent, op, name, t0, t1, qty in self.spans:
                fh.write(f"{sid},{parent},{op},{name},{round((t0 - base) * 1e9)},"
                         f"{round((t1 - base) * 1e9)},{qty}\n")


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds, quantity sum and max.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child = {}
    for sid, parent, _op, _name, t0, t1, _qty in spans:
        if parent:
            child[parent] = child.get(parent, 0.0) + (t1 - t0)
    out: dict[str, dict[str, float]] = {}
    for sid, _parent, _op, name, t0, t1, qty in spans:
        a = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "qty_sum": 0, "qty_max": 0})
        dur = t1 - t0
        a["calls"] += 1
        a["total_s"] += dur
        a["self_s"] += dur - child.get(sid, 0.0)
        a["qty_sum"] += qty
        a["qty_max"] = max(a["qty_max"], qty)
    return out


def layer_metrics(tracer: Tracer, rounds: int, overhead_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, per traced round."""
    agg = aggregate(tracer.spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0)

    def per_round(name, key):
        return get(name, key) / rounds

    computed = per_round("vandiver.pair_record", "calls")
    useful = per_round("vandiver.scan_pairs", "qty_sum")
    first_row = statistics.median(tracer.first_rows) if tracer.first_rows else 0.0
    m = {
        "modarith.build_log_table.calls": (per_round("modarith.build_log_table", "calls"), "count"),
        "modarith.build_log_table.self_s": (per_round("modarith.build_log_table", "self_s"), "s"),
        "modarith.log_table_bytes": (per_round("modarith.build_log_table", "qty_sum"), "bytes"),
        "modarith.split_primes.self_s": (per_round("modarith.split_primes", "self_s"), "s"),
        "cycring.mul.calls": (per_round("cycring.mul", "calls"), "count"),
        "cycring.mul.self_s": (per_round("cycring.mul", "self_s"), "s"),
        "cycring.mul.madds": (per_round("cycring.mul", "qty_sum"), "count"),
        "cycring.galois.calls": (per_round("cycring.galois", "calls"), "count"),
        "cycring.galois.self_s": (per_round("cycring.galois", "self_s"), "s"),
        "jacobi.TwistContext.build.self_s": (per_round("jacobi.TwistContext.build", "self_s"), "s"),
        "jacobi.jacobi_sum.calls": (per_round("jacobi.jacobi_sum", "calls"), "count"),
        "jacobi.jacobi_sum.self_s": (per_round("jacobi.jacobi_sum", "self_s"), "s"),
        "jacobi.twist_product.self_s": (per_round("jacobi.twist_product", "self_s"), "s"),
        "jacobi.exponent_set.calls": (per_round("jacobi.exponent_set", "calls"), "count"),
        "jacobi.exponent_set.self_s": (per_round("jacobi.exponent_set", "self_s"), "s"),
        "jacobi.exponent_set.total_s": (per_round("jacobi.exponent_set", "total_s"), "s"),
        "bernoulli.irregularity_report.calls": (per_round("bernoulli.irregularity_report", "calls"), "count"),
        "bernoulli.irregularity_report.self_s": (per_round("bernoulli.irregularity_report", "self_s"), "s"),
        "vandiver.pairs_computed": (computed, "count"),
        "vandiver.pairs_useful_ratio": (useful / computed if computed else 0.0, "ratio"),
        "vandiver.first_row_s": (first_row, "s"),
        "vandiver.scan_pairs.self_s": (per_round("vandiver.scan_pairs", "self_s"), "s"),
        "vandiver.ScanCache.put.calls": (per_round("vandiver.ScanCache.put", "calls"), "count"),
        "vandiver.ScanCache.put.self_s": (per_round("vandiver.ScanCache.put", "self_s"), "s"),
        "vandiver.ScanCache.load_s": (per_round("vandiver.ScanCache.load", "self_s"), "s"),
        "residue_symbols.exact_jacobi_sum.self_s": (per_round("residue_symbols.exact_jacobi_sum", "self_s"), "s"),
        "residue_symbols.CycBigInt.mul.calls": (per_round("residue_symbols.CycBigInt.mul", "calls"), "count"),
        "residue_symbols.CycBigInt.mul.self_s": (per_round("residue_symbols.CycBigInt.mul", "self_s"), "s"),
        "residue_symbols.exact_twist_component.self_s": (per_round("residue_symbols.exact_twist_component", "self_s"), "s"),
        "residue_symbols.l_content.self_s": (per_round("residue_symbols.l_content", "self_s"), "s"),
        "residue_symbols.residue_symbol.self_s": (per_round("residue_symbols.residue_symbol", "self_s"), "s"),
        "residue_symbols.coeff_bits_max": (get("residue_symbols.exact_twist_component", "qty_max"), "bits"),
        "residue_symbols.norm_l_power.self_s": (per_round("residue_symbols.norm_l_power", "self_s"), "s"),
        "spectra.trace_polynomial.calls": (per_round("spectra.trace_polynomial", "calls"), "count"),
        "spectra.trace_polynomial.self_s": (per_round("spectra.trace_polynomial", "self_s"), "s"),
        "spectra.rank_scan.self_s": (per_round("spectra.rank_scan", "self_s"), "s"),
        "spectra.RankAccumulator.add.calls": (per_round("spectra.RankAccumulator.add", "calls"), "count"),
        "spectra.RankAccumulator.add.self_s": (per_round("spectra.RankAccumulator.add", "self_s"), "s"),
        "cli.main.self_s": (per_round("cli.main", "self_s"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return m
