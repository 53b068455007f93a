"""The benchmark's own self-test.

    python3 perfbench/selftest.py

1. A tiny-size run of each workload, untraced and traced, must print a last
   line with exactly the keys correct, attempted, failed and metrics, and
   every metric of BENCHMARK.json with its unit.
2. An injected wrong expected answer must lower ok_rate, set correct to
   false and be listed as a failed op with its reason.
3. The tracer must rebind every copy of a wrapped function (names imported
   with `from ... import` into other modules) and restore them all, and
   count a nested parse call once, whether or not its span is kept.
4. In a directory holding only BENCHMARK.json and perfbench/, run.py must
   exit non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FAILED: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILED.append(what)


def run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_names(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(["--workload", workload, "--seed", "3", "--seconds", "1", "--scale", "tiny", "--trace", str(trace)])
            out = last_json(proc)
            what = f"{workload} trace={trace}"
            check(proc.returncode == 0 and out is not None, f"{what}: exits 0 with a JSON last line")
            if out is None:
                continue
            check(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{what}: exactly the four keys")
            check(out["attempted"] >= 1 and isinstance(out["failed"], int), f"{what}: attempted >= 1, failed whole")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            check(got == want, f"{what}: every {key} metric with its unit")
            finite = all(isinstance(v["value"], (int, float)) and v["value"] == v["value"] and abs(v["value"]) != float("inf")
                         for v in out["metrics"].values())
            check(finite, f"{what}: every value a finite number")
            if trace == 0:
                check(out["correct"], f"{what}: verified answers")


def check_injected() -> None:
    proc = run(["--workload", "enum-oracle", "--seed", "3", "--seconds", "1", "--scale", "tiny", "--inject-wrong", "1"])
    out = last_json(proc)
    ok = out is not None and out["metrics"]["ok_rate"]["value"] < 1 and out["failed"] > 0 and not out["correct"]
    check(ok, "injected wrong expectation lowers ok_rate and sets correct false")
    listed = [line for line in proc.stdout.splitlines() if "op 1 " in line and "injected wrong expectation" in line]
    check(bool(listed), "injected wrong expectation is listed as a failed op with its reason")


def check_binding_sites() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracer
    from sigmalcd import abelian, cli, codes, formats, gqc, oracle
    from sigmalcd.field import Field, field
    from tracer import Tracer

    originals = {
        "gqc.hull_dim": gqc.hull_dim, "abelian.hull_dim": abelian.hull_dim,
        "oracle.sigma_dual": oracle.sigma_dual, "cli.parse_code": cli.parse_code,
        "codes.hull_dim": codes.hull_dim, "Field.mul": Field.mul,
    }
    tr = Tracer()
    tr.install()
    try:
        now = {
            "gqc.hull_dim": gqc.hull_dim, "abelian.hull_dim": abelian.hull_dim,
            "oracle.sigma_dual": oracle.sigma_dual, "cli.parse_code": cli.parse_code,
            "codes.hull_dim": codes.hull_dim, "Field.mul": Field.mul,
        }
        check(all(now[k] is not originals[k] for k in originals), "tracer wraps every binding site")
        check(gqc.hull_dim is abelian.hull_dim is codes.hull_dim, "one wrapper shared by all copies of hull_dim")
        F = field(2)
        C = codes.LinearCode(F, 4, [[1, 1, 0, 0]])
        tr.reset()
        gqc.hull_dim(C, None)
        snap = tr.snapshot()
        check(snap["codes.hull_dim.calls"] == 1 and snap["linalg.rref.calls"] >= 1 and snap["field.calls"] > 0,
              "a call through gqc's copy of hull_dim counts in codes, linalg and field")
        # nested parse calls (parse_code -> parse_field) count once, also
        # once the span list is full and spans are no longer kept
        text = formats.dump_code(C)
        for cap in (0, tracer.MAX_SPANS):  # ends on the real cap
            tracer.MAX_SPANS = cap
            tr.reset()
            formats.parse_code(text)
            snap = tr.snapshot()
            check(snap["formats.parse.calls"] == 1 and snap["formats.parse.bytes"] == len(text),
                  f"a nested parse counts once with MAX_SPANS={cap}")
    finally:
        tr.uninstall()
    check(gqc.hull_dim is originals["gqc.hull_dim"] and Field.mul is originals["Field.mul"],
          "uninstall restores the originals")


def check_bare_directory() -> None:
    bare = os.path.join(HERE, "_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        proc = run(["--workload", "cli-mix", "--seed", "1", "--seconds", "1"], cwd=bare)
        check(proc.returncode != 0 and last_json(proc) is None,
              "without src/sigmalcd run.py exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_binding_sites()
    check_bare_directory()
    check_injected()
    check_names(spec)
    print(f"\n{len(FAILED)} check(s) failed" if FAILED else "\nall checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
