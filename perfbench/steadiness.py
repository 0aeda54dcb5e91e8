"""Run every workload in two separate sets and say whether they agree.

    python3 perfbench/steadiness.py [--runs 10]

It runs two sets, A and B, over every workload of BENCHMARK.json.  Each set runs BENCHMARK.json's command --runs times per workload with
--trace 0, every run with its own seed (set s, run i uses seed
1000*s + i + 1), one run at a time.  For every workload and end-to-end
metric it prints each set's median and spread (the distance between the
first and third quartile as a share of the median) and checks:

- the spread of each set stays within the metric's bound;
- the two sets' medians differ by no more than the bound, as a share of
  set A's median, in either direction;
- the share of failed operations is exactly the same in both sets.

Exit code 0 when every check holds.  The runs' result lines are kept in
.bench_build/perfbench/steadiness.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    log_path = ROOT / ".bench_build" / "perfbench" / "steadiness.jsonl"
    log_path.parent.mkdir(parents=True, exist_ok=True)

    results: dict[tuple[int, str], list[dict]] = {}
    with open(log_path, "a", encoding="utf-8") as log:
        for s in range(2):
            for i in range(args.runs):
                for name in names:
                    seed = 1000 * s + i + 1
                    res = run_once(bench, name, seed)
                    results.setdefault((s, name), []).append(res)
                    log.write(json.dumps({"set": s, "workload": name, "seed": seed,
                                          "result": res}) + "\n")
                    log.flush()
                    print(f"set {s} run {i} {name}: " + " ".join(
                        f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)

    ok = True
    print(f"\n{'workload':16} {'metric':16} {'median A':>11} {'spread A':>9} "
          f"{'median B':>11} {'spread B':>9} {'B vs A':>8} {'bound':>6}  verdict")
    for name in names:
        shares = set()
        for s in range(2):
            runs = results[(s, name)]
            if not all(r["correct"] for r in runs):
                print(f"{name}: a run of set {s} reported incorrect outputs")
                ok = False
            shares |= {Fraction(r["failed"], r["attempted"]) for r in runs}
        if len(shares) != 1:
            print(f"{name}: failed share differs between runs: {sorted(shares)}")
            ok = False
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            cols, verdicts = [], []
            medians = []
            for s in range(2):
                vals = [r["metrics"][key]["value"] for r in results[(s, name)]]
                med, sp = statistics.median(vals), spread(vals)
                medians.append(med)
                cols += [f"{med:11.5g}", f"{sp:9.2%}"]
                if sp > bound:
                    verdicts.append(f"spread {'AB'[s]} over bound")
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            cols.append(f"{worse:+8.2%}")
            if abs(worse) > bound:
                verdicts.append("A and B medians differ by more than the bound")
            ok &= not verdicts
            print(f"{name:16} {key:16} " + " ".join(cols) + f" {bound:6.2f}  "
                  + ("; ".join(verdicts) or "ok"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
