"""sigmalcd benchmark: one workload (or all four) per invocation.

    python3 perfbench/run.py --workload flat-hull --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Each run starts fresh single-threaded worker processes (perfbench/worker.py)
from the root of a checkout that holds `src/sigmalcd`.  With `--trace 0` it
prints every end-to-end metric of BENCHMARK.json; with `--trace 1` every
per-layer metric, measured by wrapping the program's public functions from
outside.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Everything else goes above it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# the measuring worker plus set-up-only workers; setup_s is their median
SETUP_RUNS = 3
# worker time limits, within the 180 s a whole run may take
MAIN_SLACK_S = 90
SETUP_TIMEOUT_S = 30


class BenchError(Exception):
    pass


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "sigmalcd", "__init__.py")):
        raise BenchError(f"no src/sigmalcd under {ROOT}: run from a sigmalcd checkout")


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def spawn_worker(workload: str, seed: int, seconds: float, trace: int, extra: list[str], tag: str,
                 timeout: float) -> dict:
    workdir = os.path.join(HERE, "_work", f"{workload}-s{seed}-{os.getpid()}-{tag}")
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", workdir,
    ] + extra
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker exceeded {timeout}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def nearest_rank(sorted_values: list[float], p: float) -> tuple[float, int]:
    """Value at percentile p and the number of samples beyond it."""
    rank = max(1, math.ceil(p * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(main: dict, setups: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics of one untraced run, and their sample counts.
    Times are at the reference speed: each pass's wall time and latencies,
    and each set-up, divided by the host slowdown measured alongside it."""
    timed = [p for p in main["passes"] if p["kind"] == "timed"]
    probes = set(main["probes"])
    walls = [p["wall"] / p["slowdown"] for p in timed]
    ok_per_pass = [sum(1 for f in p["failed"] if not f) for p in timed]
    # a failed op misses every latency limit, so it sorts last
    lat = sorted(
        math.inf if bad else t / p["slowdown"]
        for p in timed for t, bad in zip(p["latency"], p["failed"])
    )
    p50, beyond50 = nearest_rank(lat, 0.50)
    p90, beyond90 = nearest_rank(lat, 0.90)
    # a percentile that lands on a failed op reads as the whole timed phase
    p50, p90 = (min(v, main["measured_s"]) for v in (p50, p90))
    attempted = sum(len(p["latency"]) for p in timed)
    failed = sum(sum(p["failed"]) for p in timed)
    wrong = sum(1 for p in timed for i, bad in enumerate(p["failed"]) if bad and i not in probes)
    metrics = {
        "verdicts_per_s": statistics.median(ok_per_pass) / statistics.median(walls),
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": main["peak_rss_mb"],
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ok_rate": (attempted - failed) / attempted,
    }
    raw_walls = [p["wall"] for p in timed]
    samples = {
        "passes": len(timed),
        "ops_per_pass": main["ops_per_pass"],
        "attempted": attempted,
        "failed": failed,
        "wrong_answers": wrong,
        "latency_samples": len(lat),
        "beyond_p50": beyond50,
        "beyond_p90": beyond90,
        "setup_runs": [round(s["setup_s"], 4) for s in setups],
        "setup_raw_s": [round(s["setup_raw_s"], 4) for s in setups],
        "pass_wall_scaled_s": [round(w, 4) for w in walls],
        "slowdown": statistics.median(p["slowdown"] for p in timed),
        "raw_verdicts_per_s": statistics.median(ok_per_pass) / statistics.median(raw_walls),
    }
    return metrics, samples


def per_layer(main: dict) -> tuple[dict, dict]:
    traced = [p for p in main["passes"] if p["kind"] == "traced"]
    plain = [p for p in main["passes"] if p["kind"] == "timed"]
    names = traced[0]["layers"].keys()
    metrics = {name: statistics.median(p["layers"][name] for p in traced) for name in names}
    flat = main.get("flat_pass")
    # the flat hull route on the structured instances, in its own traced pass
    metrics["gqc.route.flat_ms"] = flat["wall"] * 1e3 if flat else 0.0
    ops = main["ops_per_pass"]
    vps_traced = ops / statistics.median(p["wall"] / p["slowdown"] for p in traced)
    vps_plain = ops / statistics.median(p["wall"] / p["slowdown"] for p in plain)
    metrics["trace_overhead"] = vps_traced / vps_plain
    attempted = sum(len(p["latency"]) for p in traced + plain)
    failed = sum(sum(p["failed"]) for p in traced + plain)
    samples = {
        "traced_passes": len(traced),
        "untraced_passes": len(plain),
        "attempted": attempted,
        "failed": failed,
        "wrong_answers": sum(
            1 for p in traced + plain for i, bad in enumerate(p["failed"]) if bad and i not in set(main["probes"])
        ),
        "spans_kept": main.get("spans_kept"),
        "spans_file": main.get("spans_file") and os.path.relpath(main["spans_file"], ROOT),
    }
    return metrics, samples


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int, extra: list[str]) -> dict:
    load_start = os.getloadavg()
    if trace:
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        spans = os.path.join(HERE, "results", f"spans-{workload}-s{seed}.tsv")
        main = spawn_worker(workload, seed, seconds, 1, extra + ["--spans-out", spans], "main", seconds + MAIN_SLACK_S)
        metrics, samples = per_layer(main)
        wanted = spec["per_layer"]
    else:
        main = spawn_worker(workload, seed, seconds, 0, extra, "main", seconds + MAIN_SLACK_S)
        setups = [main]
        for i in range(SETUP_RUNS - 1):
            setups.append(spawn_worker(workload, seed, seconds, 0, extra + ["--setup-only"], f"setup{i}", SETUP_TIMEOUT_S))
        metrics, samples = end_to_end(main, setups)
        wanted = spec["end_to_end"]
    load_end = os.getloadavg()
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    return {
        "workload": workload,
        "trace": trace,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
        "samples": samples,
        "failures": main["failures"],
        "probes": [main["ops"][i] for i in main["probes"]],
        "env": dict(main["env"], git_commit=git_commit(), load_start=load_start, load_end=load_end),
    }


def report(res: dict) -> list[str]:
    env, s = res["env"], res["samples"]
    lines = [
        f"== {res['workload']} ({'traced' if res['trace'] else 'untraced'}) seed={env['seed']} commit={env['git_commit']}",
        f"   machine: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} numpy={env['numpy']}",
        f"   load average: start {env['load_start'][0]:.2f}, end {env['load_end'][0]:.2f}",
    ]
    if max(env["load_start"][0], env["load_end"][0]) > (env["nproc"] or 1):
        lines.append(f"   WARNING: load average exceeded nproc={env['nproc']} during the run; timings are suspect")
    if not res["trace"]:
        lines.append(f"   host slowdown {s['slowdown']:.4f} (median probe / nominal); times below are divided by it;"
                     f" unscaled verdicts_per_s {s['raw_verdicts_per_s']:.6g}")
    for name, m in res["metrics"].items():
        note = ""
        if name == "latency_p50_ms":
            note = f"  (n={s['latency_samples']}, {s['beyond_p50']} beyond)"
        elif name == "latency_p90_ms":
            note = f"  (n={s['latency_samples']}, {s['beyond_p90']} beyond)"
            if s["beyond_p90"] < 10:
                note += "  WARNING: fewer than ten samples beyond p90"
        elif name == "verdicts_per_s":
            note = f"  ({s['ops_per_pass']} ops per pass, median of {s['passes']} passes)"
        elif name == "setup_s":
            note = f"  (median of {s['setup_runs']}; unscaled {s['setup_raw_s']})"
        elif name == "ok_rate":
            note = f"  ({s['attempted'] - s['failed']}/{s['attempted']} ops)"
        elif m["unit"] in ("macs-computed", "MB-computed", "words-computed"):
            note = "  (computed from shapes)"
        lines.append(f"   {name:<28} {m['value']:>14.6g} {m['unit']}{note}")
    if res["trace"]:
        lines.append(f"   {s['traced_passes']} traced and {s['untraced_passes']} untraced passes; spans: {s['spans_file']}")
    if res["failures"]:
        lines.append(f"   failed ops ({len(res['failures'])}; the pass is 0 for the first pass's verified answers):")
        for f in res["failures"]:
            probe = "  [robustness probe]" if f["name"] in res["probes"] else ""
            lines.append(f"     pass {f['pass']} op {f['op']} {f['name']}{probe}: {f['reason']}")
    else:
        lines.append("   failed ops: none")
    return lines


def main(argv=None) -> int:
    spec = load_spec()
    workloads = tuple(w["name"] for w in spec["workloads"])
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: self-test sizes")
    ap.add_argument("--inject-wrong", type=int, default=None, help="self-test: corrupt one expected answer")
    args = ap.parse_args(argv)
    try:
        check_checkout()
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        extra = ["--scale", args.scale]
        if args.inject_wrong is not None:
            extra += ["--inject-wrong", str(args.inject_wrong)]
        names = workloads if args.workload == "all" else (args.workload,)
        results = [run_workload(spec, w, args.seed, seconds, args.trace, extra) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    for res in results:
        print("\n".join(report(res)))
        path = os.path.join(HERE, "results", f"{res['workload']}-s{args.seed}-t{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
    # correct: no wrong answer to well-formed input; the malformed-input
    # probes are counted in attempted, failed and ok_rate
    wrong = sum(r["samples"]["wrong_answers"] for r in results)
    wrong += sum(1 for r in results for f in r["failures"] if f["pass"] == "flat")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(r["samples"]["attempted"] for r in results),
        "failed": sum(r["samples"]["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
