"""One workload run in a fresh, single-threaded process.

Started by run.py, never imported by it.  The worker imports `sigmalcd` from
the checkout's `src/`, builds the seeded instances, runs one untimed warm-up
pass, then times whole passes over the fixed instance list until the run's
seconds are used.  Between ops it times a fixed reference loop (see
`HostReference`).  Verification runs after the timed passes, off the clock.
The last line of standard output is one JSON object for run.py.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --trace 0|1 --spawned-at <perf_counter of the parent at spawn>
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Median times of the two reference loops on the host the benchmark was
# tuned on (2-core KVM guest, Intel Xeon, Python 3.11, numpy 2.4).  Scaled
# times read as if the host ran the loops in these times.
REF_DISPATCH_S = 2.2e-3
REF_BULK_S = 0.58e-3
# a probe follows the first op that ends this long after the last probe
PROBE_EVERY_S = 0.05


class HostReference:
    """Fixed loops, sharing no code with sigmalcd, timed between ops.

    On a shared host the speed of the same code drifts by 15-25% over tens
    of seconds, and further from one quarter of an hour to the next.  A
    probe times a dispatch-bound loop (many numpy calls on tiny arrays, like
    scalar field arithmetic) and a bulk loop (a few calls on a large array,
    like the hull and enumeration kernels).  Each is divided by its nominal
    time, and a probe reads the geometric mean of the two.  The median probe
    of a stretch is that stretch's slowdown, and reported times are divided
    by it.  Probe time is excluded from every measured time.

    Timing passes of the four workloads in turn for 150 s, this took the
    pass-to-pass coefficient of variation of structured-criteria from 0.084
    to 0.046, of cli-mix from 0.090 to 0.054 and of flat-hull from 0.045 to
    0.029; that of enum-oracle went from 0.038 to 0.043."""

    def __init__(self):
        self.tiny = np.arange(8, dtype=np.int64)
        self.table = np.arange(64, dtype=np.int64).reshape(8, 8)
        self.large = np.arange(50_000, dtype=np.int64)
        self.buffer = np.empty_like(self.large)
        self.begin()

    def begin(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self.last = 0.0

    def _dispatch(self, rounds: int) -> None:
        x = self.tiny
        for _ in range(rounds):
            x = self.table[x & 7, (x + 1) & 7] % 5

    def _bulk(self, rounds: int) -> None:
        # into a buffer allocated once: fresh large arrays would time the
        # allocator's state, which the program's own allocations set
        for _ in range(rounds):
            np.multiply(self.large, 7, out=self.buffer)
            np.remainder(self.buffer, 13, out=self.buffer)
            int(self.buffer.sum())

    def probe(self) -> None:
        clock = time.perf_counter
        start = clock()
        # untimed first round: bring the loops back into cache, so the probe
        # measures the host rather than what the last op left in the cache
        self._dispatch(30)
        self._bulk(1)
        t0 = clock()
        self._dispatch(300)
        t1 = clock()
        self._bulk(2)
        t2 = clock()
        self.samples.append(((t1 - t0) / REF_DISPATCH_S, (t2 - t1) / REF_BULK_S))
        self.spent += t2 - start
        self.last = t2

    def slowdown(self) -> float:
        ordered = sorted((d * b) ** 0.5 for d, b in self.samples)
        return ordered[len(ordered) // 2]


class Pass:
    """Per-op latencies (s) and answers of one pass, its wall time without
    the probes, and the host slowdown the probes measured during it."""

    def __init__(self, kind: str):
        self.kind = kind  # "warmup", "timed", "traced" or "flat"
        self.latency: list[float] = []
        self.answers: list = []
        self.wall = 0.0
        self.slowdown = 1.0
        self.layers: dict | None = None


def run_pass(ops, kind: str, ref: HostReference, tracer=None, flat: bool = False, keep: bool = False) -> Pass:
    """keep: add to the probes already taken instead of starting afresh."""
    from workloads import describe_exception

    p = Pass(kind)
    clock = time.perf_counter
    if not keep:
        ref.begin()
    spent = ref.spent
    start = clock()
    ref.probe()
    for index, op in enumerate(ops):
        if clock() - ref.last >= PROBE_EVERY_S:
            ref.probe()
        if tracer is not None:
            tracer.op = index
        fn = op.flat if flat else op.call
        t0 = clock()
        try:
            raw = fn()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            p.latency.append(clock() - t0)
            p.answers.append(("exception", describe_exception(exc)))
            continue
        p.latency.append(clock() - t0)
        p.answers.append(raw if flat else op.answer(raw))
    ref.probe()
    p.wall = clock() - start - (ref.spent - spent)
    p.slowdown = ref.slowdown()
    return p


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--inject-wrong", type=int, default=None,
                    help="self-test: corrupt the expected answer of this op index")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    ref = HostReference()
    for _ in range(3):
        ref.probe()
    sys.path.insert(0, SRC)
    import sigmalcd  # noqa: F401  (timed as part of set-up)

    if not os.path.abspath(sigmalcd.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"sigmalcd imported from {sigmalcd.__file__}, not from {SRC}")
    import workloads

    os.makedirs(args.workdir, exist_ok=True)
    try:
        return measure(args, workloads, ref)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def measure(args, workloads, ref: HostReference) -> int:
    ops = workloads.BUILDERS[args.workload](args.seed, args.scale, args.workdir)
    warm = run_pass(ops, "warmup", ref, keep=True)
    gc.collect()
    # set-up at the reference speed, from the probes since the worker started
    setup_raw_s = time.perf_counter() - args.spawned_at - ref.spent
    setup = {"setup_s": setup_raw_s / warm.slowdown, "setup_raw_s": setup_raw_s, "setup_slowdown": warm.slowdown}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    passes: list[Pass] = []
    t_start = time.perf_counter()
    # enough timed ops for ten beyond p90, and two traced passes
    min_passes = max(4 if args.trace else 3, -(-100 // len(ops)))
    while True:
        elapsed = time.perf_counter() - t_start
        done = len(passes)
        if done >= min_passes:
            typical = sorted(p.wall for p in passes)[done // 2]
            if elapsed + typical > args.seconds:
                break
        # traced runs alternate untraced and traced passes, so that machine
        # drift hits both halves of the overhead ratio alike
        traced = tracer is not None and done % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            p = run_pass(ops, "traced" if traced else "timed", ref, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            p.layers = tracer.snapshot()
        passes.append(p)
        gc.collect()
    measured_s = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    flat = None
    if tracer is not None and all(op.flat is not None for op in ops):
        tracer.reset()
        tracer.install()
        try:
            flat = run_pass(ops, "flat", ref, tracer, flat=True)
        finally:
            tracer.uninstall()
        flat.layers = tracer.snapshot()

    # -- verification, off the clock ----------------------------------------
    expected = []
    for index, op in enumerate(ops):
        try:
            exp = op.expected()
        except Exception as exc:
            exp = ("expectation raised", workloads.describe_exception(exc))
        if args.inject_wrong == index:
            exp = ("injected wrong expectation", exp)
        expected.append(exp)

    first = warm.answers
    failures = []  # (pass number, op index, reason)
    ok_first = []
    for index, (got, exp) in enumerate(zip(first, expected)):
        ok = got == exp
        ok_first.append(ok)
        if not ok:
            failures.append((0, index, _reason(got, exp)))
    fail_flags = []
    for number, p in enumerate(passes, start=1):
        flags = []
        for index, got in enumerate(p.answers):
            bad = not ok_first[index]
            if not bad and got != first[index]:
                bad = True
                failures.append((number, index, f"answer {got!r} differs from the first pass {first[index]!r}"))
            flags.append(bad)
        fail_flags.append(flags)
    if flat is not None:
        for index, got in enumerate(flat.answers):
            truth = expected[index][0] if isinstance(expected[index], tuple) else None
            if got != truth:
                failures.append(("flat", index, f"flat route {got!r} != verified {truth!r}"))

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": [op.name for op in ops],
        "ops_per_pass": len(ops),
        "probes": [index for index, op in enumerate(ops) if op.probe],
        **setup,
        "measured_s": measured_s,
        "peak_rss_mb": peak_rss_mb,
        "passes": [
            {"kind": p.kind, "wall": p.wall, "slowdown": p.slowdown, "latency": p.latency, "failed": flags,
             "layers": p.layers}
            for p, flags in zip(passes, fail_flags)
        ],
        "flat_pass": None if flat is None else {"wall": flat.wall, "layers": flat.layers},
        "failures": [
            {"pass": pnum, "op": index, "name": ops[index].name, "reason": reason}
            for pnum, index, reason in failures
        ],
        "env": environment(args.seed),
    }
    if tracer is not None and args.spans_out:
        tracer.dump_spans(args.spans_out)
        result["spans_file"] = args.spans_out
        result["spans_kept"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


def _reason(got, exp) -> str:
    if isinstance(got, tuple) and got and got[0] == "exception":
        return got[1]
    return f"answer {got!r} != expected {exp!r}"


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main())
