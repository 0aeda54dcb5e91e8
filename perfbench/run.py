"""Benchmark entry point: one workload, one process, one worker.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a primarity checkout; the package is imported from
src/ and the goldens and oracles from tests/.  With --trace 0 the run
reports the end-to-end metrics of BENCHMARK.json; with --trace 1 it
alternates untraced and traced rounds and reports the per-layer metrics,
including trace.overhead_s, the traced minus the untraced time of a round.
The last line of stdout is the JSON result; a report and, when tracing,
the spans are written under .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 11
CALIBRATE_EVERY = 0.1  # seconds of operations between calibration samples
# Calibration time on the reference machine of README.md.  Timings are
# scaled by CALIBRATION_REF_S / (calibration time around them), so they
# read as seconds at the reference machine's speed.
CALIBRATION_REF_S = 0.0043
# A fresh interpreter that imports numpy and says it is ready, and its
# start-up time on the reference machine.  Set-up is process start and
# imports, file and memory work that the calibration loop does not track,
# so each set-up probe is scaled by SETUP_REF_S / (this probe's time
# around it) instead.
START_PROBE = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
SETUP_REF_S = 0.135


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter loops, big-integer products
    and short numpy calls, the kinds of work primarity does: the fastest of
    three timings, so that a single preemption does not count as a slowdown.

    The mix is the benchmark's own code and never changes, so its time
    tracks only how fast this machine runs at that moment.  The host this
    benchmark was tuned on runs up to 1.8x slower for tens of seconds at a
    time; scaling by the calibration removes most of that from the figures.
    """
    import numpy as np

    short = np.arange(60, dtype=np.int64)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(12000):
            acc = (acc * 31 + i * i) % 1000003
        big = pow(3, 12000) * pow(5, 9000) % (7 ** 4400)
        for _ in range(300):
            conv = np.convolve(short, short) % 61
        if acc < 0 or big < 0 or conv[0] < 0:
            raise AssertionError("unreachable")
        best = min(best, perf_counter() - t0)
    return best


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import primarity, build the inputs, print 'ready' and exit")
    return ap.parse_args(argv)


def machine() -> dict:
    """What a figure depends on, so figures from different machines are not compared."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src" / "primarity").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_revision": git_revision(),
            "src_sha256": digest.hexdigest()}


def git_revision() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(args) -> float:
    """Median time from starting a fresh interpreter to its first timed
    call, each probe scaled by the start-up probes taken around it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    refs = [time_to_ready(START_PROBE)]
    ratios = []
    for _ in range(SETUP_PROBES):
        t = time_to_ready(cmd)
        refs.append(time_to_ready(START_PROBE))
        ratios.append(t / ((refs[-2] + refs[-1]) / 2))
    return SETUP_REF_S * statistics.median(ratios)


def time_to_ready(cmd: list[str]) -> float:
    """Seconds from starting cmd until it prints its 'ready' line."""
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        t = perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != b"ready":
        raise RuntimeError(f"{cmd[1:3]} failed with exit code {rc}")
    return t


def run_round(wl, r, tracer=None):
    """Run round r; returns its ops and key -> (exit code, stdout, stderr,
    seconds, calibration seconds).

    Calibration samples are taken at the start and end of the round and
    after every CALIBRATE_EVERY seconds of operations; each operation is
    paired with the mean of the two samples around it.
    """
    ops = wl.ops(r)
    raw = {}
    samples = [calibrate()]
    since = 0.0
    for op in ops:
        if tracer is not None:
            tracer.op_id += 1
        t0 = perf_counter()
        try:
            rc, out, err = op.fn()
        except Exception:  # a crashing operation fails; the run goes on to report it
            rc, out, err = -1, "", traceback.format_exc()
        dt = perf_counter() - t0
        raw[op.key] = (rc, out, err, dt, len(samples) - 1)
        since += dt
        if since >= CALIBRATE_EVERY:
            samples.append(calibrate())
            since = 0.0
    samples.append(calibrate())
    wl.end_round(r)
    results = {k: (rc, out, err, dt, (samples[i] + samples[i + 1]) / 2)
               for k, (rc, out, err, dt, i) in raw.items()}
    return ops, results


def scaled(result) -> float:
    """An operation's seconds at the reference machine's speed."""
    return result[3] * CALIBRATION_REF_S / result[4]


def main(argv=None) -> int:
    args = parse_args(argv)
    # primarity.cli reads PRIMARITY_JOBS, PRIMARITY_CACHE_DIR and the like;
    # without them every operation runs with the built-in defaults, one
    # worker included, whatever the caller's environment holds
    for key in [k for k in os.environ if k.startswith("PRIMARITY_")]:
        del os.environ[key]
    if not (ROOT / "src" / "primarity" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "_goldens.py").is_file():
        print(f"perfbench: no primarity checkout at {ROOT} (need src/primarity and tests/)",
              file=sys.stderr)
        return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    import primarity.cli  # noqa: F401  (part of what setup_s measures)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_s = measure_setup(args) if args.trace == 0 else None
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        wl.prepare(workdir)
        ops, rounds, traced, tracer, peak_rss_mb = measure(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = {k: v[:3] for k, v in rounds[0].items()}
    bad, attempted, failed = tally(wl, ops, first, rounds + traced)
    correct = not bad

    if args.trace == 0:
        timed = rounds[1:] or rounds  # the first round warms up
        med = {op.key: statistics.median(scaled(res[op.key]) for res in timed) for op in ops}
        primary_s = sum(med[op.key] for op in ops if op.primary)
        secondary_s = sum(med[op.key] for op in ops if op.secondary)
        metrics = {
            "primary_per_s": {"value": wl.primary_units / primary_s, "unit": "1/s"},
            "secondary_per_s": {"value": wl.secondary_units / secondary_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    else:
        from tracing import layer_metrics

        plain = sum(scaled(res[op.key]) for res in rounds[1:] for op in ops)
        slow = sum(scaled(res[op.key]) for res in traced for op in ops)
        overhead = (slow - plain) / len(traced)
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in layer_metrics(tracer, len(traced), overhead).items()}
        tracer.write(OUT_DIR / f"spans-{args.workload}.csv")

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "rounds": len(rounds),
              "traced_rounds": len(traced), "attempted": attempted, "failed": failed,
              "check_failures": bad,
              "known_fault_failures": sorted(k for k in wl.known_faults
                                             if first[k][0] != 0),
              "op_seconds": {op.key: [res[op.key][3] for res in rounds] for op in ops},
              "op_calibration_s": {op.key: [res[op.key][4] for res in rounds] for op in ops},
              "metrics": metrics}
    (OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print("perfbench machine " + json.dumps(report["machine"]))
    for key, why in sorted(bad.items()):
        print(f"perfbench check failed: {key}: {why}")
        if first.get(key, (0,))[0] == -1:
            print(first[key][2], end="")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def tally(wl, ops, first, results):
    """Check the outputs; returns (failed checks as key -> reason,
    operations attempted, operations failed) over all rounds."""
    try:
        bad = wl.check(first)
    except Exception as exc:  # a malformed output must fail the run, not crash it
        bad = {"check": f"{type(exc).__name__}: {exc}"}
    for op in ops:
        if op.counted and first[op.key][0] != 0 and op.key not in wl.known_faults:
            bad.setdefault(op.key, f"exit code {first[op.key][0]}")
    for res in results:
        for op in ops:
            if res[op.key][:2] != first[op.key][:2]:
                bad.setdefault(op.key, "output changed between rounds")
    counted = [op.key for op in ops if op.counted]
    attempted = len(counted) * len(results)
    failed = sum(res[k][0] != 0 or k in bad for res in results for k in counted)
    return bad, attempted, failed


def measure(wl, args):
    """Whole rounds until --seconds have passed.

    With --trace 1 an untraced round warms up first, then traced and
    untraced rounds alternate; the overhead compares the rounds after the
    warm-up, which come in equal numbers.
    """
    rounds, traced = [], []
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    t_start = perf_counter()
    ops, res = run_round(wl, 0)
    rounds.append(res)
    # later rounds repeat the same work; how many run depends on the
    # machine's speed, and they would only add heap fragmentation to the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while perf_counter() - t_start < args.seconds or (tracer is not None and not traced):
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run_round(wl, len(rounds) + len(traced), tracer)[1])
            finally:
                tracer.uninstall()
        rounds.append(run_round(wl, len(rounds) + len(traced))[1])
    return ops, rounds, traced, tracer, peak_rss_mb


if __name__ == "__main__":
    sys.exit(main())
