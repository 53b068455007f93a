"""Steadiness report: run one workload N times, each with another seed, and
print for every end-to-end metric the median, the quartiles and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steady.py --workload cli-mix --runs 10 [--sets 2]

Seeds run 1 to N.  With --sets 2 a second set of N runs on the same seeds
follows straight after the first, and the report adds how far each median
moved from the first set's, |b - a| / a in either direction, against the
same bound.  Results also go to
perfbench/results/steady-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {proc.stderr.strip()[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]

    sets = []
    for s in range(args.sets):
        runs = []
        for r in range(args.runs):
            seed = 1 + r
            out = one_run(args.workload, seed)
            runs.append({k: v["value"] for k, v in out["metrics"].items()})
            print(f"set {s + 1} run {r + 1} seed {seed}: "
                  + " ".join(f"{k}={v:.5g}" for k, v in runs[-1].items()), flush=True)
        sets.append(runs)

    summary = {"workload": args.workload, "runs": args.runs, "sets": []}
    for s, runs in enumerate(sets):
        print(f"\n{args.workload}: set {s + 1}, {args.runs} runs")
        print(f"  {'metric':<16} {'median':>12} {'Q1':>12} {'Q3':>12} {'IQR/med':>9} {'bound':>6} {'IQR/bound':>9}")
        rows = {}
        for m in metrics:
            st = spread([run[m["name"]] for run in runs])
            st["of_bound"] = st["iqr_share"] / m["bound"]
            rows[m["name"]] = st
            print(f"  {m['name']:<16} {st['median']:>12.5g} {st['q1']:>12.5g} {st['q3']:>12.5g} "
                  f"{st['iqr_share']:>9.4f} {m['bound']:>6.2f} {st['of_bound']:>9.3f}")
        summary["sets"].append({"values": runs, "stats": rows})
    if len(sets) > 1:
        print("\n  median drift of each later set from set 1, |b - a| / a, as a share of the bound")
        first = summary["sets"][0]["stats"]
        for s in range(1, len(sets)):
            cur = summary["sets"][s]["stats"]
            for m in metrics:
                a, b = first[m["name"]]["median"], cur[m["name"]]["median"]
                drift = abs(b - a) / a
                print(f"  set {s + 1} {m['name']:<16} {drift:.4f} ({drift / m['bound']:.3f} of bound)")
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"steady-{args.workload}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
