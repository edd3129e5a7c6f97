"""symbreak benchmark: the command named in BENCHMARK.json.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --selftest

Run from the root of a checkout: the library is imported from ./src.  Each
workload runs in a fresh child process (bench/worker.py), one at a time.
With --trace 0 the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json; with --trace 1 the metrics
are its per-layer metrics.  The line before it is a JSON run record: the
machine, the versions, the seed and every per-pass sample.  Set-up is
repeated in SETUP_SAMPLES extra child processes and reported as a median.
pass_s and setup_s are rescaled to a reference machine speed by a
calibration timed around each item and each set-up (worker.loop_slowdown,
worker.import_slowdown); the record keeps the wall times as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("tree_truncations", "symmetric_graphs", "random_colourings", "cli_batch")
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 170


def machine():
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "ram_gb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
            "cpu": "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name")), "unknown")
    except OSError:
        pass
    return info


def child(workload, seed, seconds, trace, role, extra=()):
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--role", role, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark worker failed ({role}, exit {proc.returncode})")
    return json.loads(lines[-1])


def run(workload, seed, seconds, trace, extra=()):
    """One benchmark run; returns (record, result)."""
    report = child(workload, seed, seconds, trace, "run", extra)
    failed = len(report["failures"])
    attempted = report["attempted"]
    record = {
        "machine": {**machine(), "numpy": report["numpy"]},
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "pass_wall_s_samples": report["pass_s"], "pass_count": len(report["pass_s"]),
        "item_median_s": report["item_median_s"],
        "failures": report["failures"][:20],
    }
    if trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in report["layers"].items()}
    else:
        setups = [report] + [child(workload, seed, seconds, trace, "setup", extra)
                             for _ in range(SETUP_SAMPLES)]
        record["pass_s_samples"] = report["pass_scaled_s"]
        record["slowdown_samples"] = report["slowdown"]
        record["setup_s_samples"] = [r["setup_s"] for r in setups]
        record["setup_wall_s_samples"] = [r["setup_wall_s"] for r in setups]
        metrics = {
            "pass_s": {"value": statistics.median(report["pass_scaled_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": 1 - failed / attempted, "unit": "fraction"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def unit_of(name):
    if name == "trace.overhead_frac":
        return "fraction"
    if name.endswith("_per_s"):
        return "1/s"
    return "s" if name.endswith("_s") else "count"


def selftest():
    """Every workload once, untraced and traced, against BENCHMARK.json's
    metric lists; then a corrupted closed form must show up as failures."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from run.py's")
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run(workload, 1, 0, trace)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            good = (set(result) == {"correct", "attempted", "failed", "metrics"}
                    and result["correct"] and units == expected[trace]
                    and all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()))
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} {workload} trace={trace} schema and references")
    _, result = run("symmetric_graphs", 1, 0, 0, ["--corrupt-reference"])
    caught = result["failed"] > 0 and result["metrics"]["ok_frac"]["value"] < 1
    ok &= caught
    print(f"{'PASS' if caught else 'FAIL'} corrupted reference counted: "
          f"{result['failed']} of {result['attempted']} failed")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "symbreak", "__init__.py")):
        raise SystemExit("src/symbreak not found: run from a symbreak checkout")
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    record, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
