"""One benchmark process: set up one workload, time it, check it, report JSON.

Started by run.py, never imported.  `--role setup` stops after the set-up
and reports its time; `--role run` also runs one warm-up pass, times passes
over every item for `--seconds` (at least one pass) and checks every result
afterwards.  A calibration runs before each item and after the last, and
pass_s and setup_s are rescaled by it to a reference machine speed.  With
`--trace 1` untraced and traced passes alternate for `--seconds`, and it
reports per-layer metrics instead of end-to-end ones.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

# span or counter name -> per-layer metric, per traced pass
SELF_TIME = {
    "groups.chain_s": "groups.chain",
    "autsearch.tree_s": "autsearch.tree",
    "autsearch.search_s": "autsearch.search",
    "groups.motion_s": "groups.motion",
    "groups.elements_s": "groups.elements",
    "rng.draw_s": "rng.draw",
    "colourings.mc_s": "colourings.mc",
    "colourings.exact_s": "colourings.exact",
    "colourings.stabiliser_s": "colourings.stabiliser",
    "colourings.tree_auto_s": "colourings.tree_auto",
    "topology.measure_s": "topology.measure",
    "topology.balls_s": "topology.balls",
    "conditions.dsc_s": "conditions.dsc",
    "conditions.classes_s": "conditions.classes",
    "graphs.distances_s": "graphs.distances",
    "graphs.generate_s": "graphs.generate",
}
COUNTS = [
    "groups.base_len", "groups.strong_gens", "perms.mul_calls", "perms.inverse_calls",
    "autsearch.tree_calls", "autsearch.search_calls", "autsearch.coloured_calls",
    "autsearch.generators", "groups.motion_enumeration", "groups.motion_backtrack",
    "groups.elements_yielded", "rng.draw_calls", "rng.values_drawn", "colourings.mc_trials",
    "colourings.stabiliser_calls", "conditions.dsc_pairs", "graphs.distances_calls",
]
CLI_SUBCOMMANDS = (
    "autgroup", "motion", "distinguish", "prob-exact", "prob-mc", "rs-bound",
    "metric", "balls", "haar", "dsc", "spheres", "gamma", "product", "layers",
    "growth", "treeauto", "batch",
)
CLI_STARTUP_SAMPLES = 3
# pass_s and setup_s are given in seconds at the speed where each of the two
# calibrations below takes this long
LOOP_REF_S = 0.004
IMPORT_REF_S = 0.120


def loop_slowdown():
    """Time a fixed pure-Python loop; returns its time over LOOP_REF_S.

    The shared host this benchmark was written on switches between speeds up
    to 2x apart for seconds to minutes; the loop slows with it, while no
    change to symbreak can change the loop.  The collector is off so that
    garbage left by the items cannot land in the loop."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table, acc = {}, 0
        for i in range(40000):
            table[i & 255] = acc
            acc += (i * 7) % 13
        sorted(range(6000, 0, -1))
        return (time.perf_counter() - t0) / LOOP_REF_S
    finally:
        if was_enabled:
            gc.enable()


def import_slowdown():
    """Time a fresh `python -c "import numpy"`; returns its time over IMPORT_REF_S.

    Starting a process and importing (reading, mapping and loading files)
    slows down in stretches of its own that the loop above misses: set-up
    times in a row switched between 0.10 and 0.17 s while the loop's time
    held still.  numpy's import is most of symbreak's, and no change to
    symbreak can change it, so the set-up and the CLI calls, each a fresh
    process, are rescaled by this instead."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, check=True, timeout=60)
    return (time.perf_counter() - t0) / IMPORT_REF_S


def scaled(seconds, slowdown_before, slowdown_after):
    """A wall time rescaled to the reference speed, from the calibrations around it."""
    return seconds / ((slowdown_before + slowdown_after) / 2)


def run_pass(items, tracer=None, slowdown=loop_slowdown):
    """Time every item once, with a calibration before the first item and after
    each; returns (seconds, [(seconds, result, error)], slowdowns)."""
    out, cals = [], [slowdown()]
    for item in items:
        t0 = time.perf_counter()
        span = tracer.begin(item.span) if tracer is not None and item.span else None
        try:
            result, error = item.run(), None
        except Exception:  # an item that raises counts as failed, the pass goes on
            result, error = None, traceback.format_exc(limit=3)
        finally:
            if span is not None:
                tracer.end(span)
        out.append((time.perf_counter() - t0, result, error))
        cals.append(slowdown())
    return sum(r[0] for r in out), out, cals


def scaled_total(one_pass):
    """A pass's total with each item rescaled by the calibrations on either side."""
    _, results, _, cals = one_pass
    return sum(scaled(r[0], cals[i], cals[i + 1]) for i, r in enumerate(results))


def timed_passes(items, seconds, tracer=None, slowdown=loop_slowdown):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.enabled = True
        total, results, cals = run_pass(items, tracer, slowdown)
        if tracer is not None:
            tracer.enabled = False
            passes.append((total, results, tracer.take_pass(), cals))
        else:
            passes.append((total, results, None, cals))
    return passes


def mc_trials_per_s(items, results):
    trials = sum(item.trials for item in items)
    busy = sum(r[0] for item, r in zip(items, results) if item.trials)
    return trials / busy if trials else 0.0


def check_all(items, passes):
    failures = []
    for _, results, _, _ in passes:
        for item, (_, result, error) in zip(items, results):
            if error is None:
                try:
                    error = item.check(result)
                except Exception:  # a check that crashes is a failed item
                    error = traceback.format_exc(limit=3)
            if error is not None:
                failures.append(f"{item.name}: {error}")
    return failures


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(trace):
    self_s, incl_s, counts = trace
    out = {name: self_s.get(span, 0.0) for name, span in SELF_TIME.items()}
    out.update({name: counts.get(name, 0) for name in COUNTS})
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}_s"] = incl_s.get(f"cli.{sub}", 0.0)
    out["suites.batch_s"] = incl_s.get("suites.batch", 0.0)
    return out


def cli_startup_s(workdir):
    from workloads import cli_env

    walls = []
    for _ in range(CLI_STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "symbreak", "--help"], cwd=workdir, env=cli_env(),
                       capture_output=True, check=True, timeout=60)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: make one closed form wrong, so its items must fail")
    args = parser.parse_args()

    workdir = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    slowdown_before = import_slowdown()
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import symbreak as sb  # timed: import is part of set-up

    sys.path.insert(0, BENCH)
    import reference
    import workloads

    if args.corrupt_reference:
        true_order = reference.hypercube_order
        reference.hypercube_order = lambda d: true_order(d) + 1
    os.makedirs(workdir, exist_ok=True)
    try:
        items = workloads.build(args.workload, args.seed, sb, workdir)
        setup_s = time.perf_counter() - t0
        setup = {"setup_wall_s": setup_s,
                 "setup_s": scaled(setup_s, slowdown_before, import_slowdown())}
        if args.role == "setup":
            print(json.dumps(setup))
            return
        report = measure(args, sb, items, workdir)
        report.update(setup)
        report["numpy"] = sys.modules["numpy"].__version__
        print(json.dumps(report))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass


def measure(args, sb, items, workdir):
    if not args.trace:
        # the first pass runs slower (lazy imports, first allocations) and is only checked
        # every CLI item is a fresh process, mostly interpreter start and imports
        slowdown = import_slowdown if any(item.argv is not None for item in items) else loop_slowdown
        warm_up = timed_passes(items, 0, slowdown=slowdown)
        passes = timed_passes(items, args.seconds, slowdown=slowdown)
        rss = peak_rss_mb()  # before the references allocate anything
        return {
            "pass_s": [p[0] for p in passes],
            "pass_scaled_s": [scaled_total(p) for p in passes],
            "slowdown": [statistics.median(p[3]) for p in passes],
            "peak_rss_mb": rss,
            "item_median_s": item_medians(items, passes),
            "attempted": len(warm_up + passes) * len(items),
            "failures": check_all(items, warm_up + passes),
        }

    import symbreak.cli  # noqa: F401  (imported before tracing so its bindings get patched)
    from tracer import Tracer
    from workloads import cli_inprocess

    checked = []
    layers = {"cli.startup_s": 0.0, "cli.call_p50_s": 0.0}
    cli_items = [item for item in items if item.argv is not None]
    if cli_items:
        # one pass of fresh processes, then the same calls in this process so
        # that the tracer sees them
        layers["cli.startup_s"] = cli_startup_s(workdir)
        checked += timed_passes(items, 0)
        layers["cli.call_p50_s"] = statistics.median(r[0] for r in checked[0][1])
        for item in cli_items:
            item.run = lambda argv=item.argv: cli_inprocess(sb, argv)
            item.span = "cli." + next(a for a in item.argv if a in CLI_SUBCOMMANDS)
    # untraced and traced passes alternate, so that drift in machine speed
    # does not show up as tracing overhead
    tracer = Tracer(sb)
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        untraced += timed_passes(items, 0)
        tracer.install()
        try:
            traced += timed_passes(items, 0, tracer)
        finally:
            tracer.uninstall()
    layers["colourings.mc_trials_per_s"] = statistics.median(
        mc_trials_per_s(items, p[1]) for p in untraced)
    per_pass = [layer_metrics(p[2]) for p in traced]
    layers.update({name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]})
    layers["trace.overhead_frac"] = (statistics.median(p[0] for p in traced)
                                     / statistics.median(p[0] for p in untraced) - 1)
    passes = checked + untraced + traced
    return {
        "pass_s": [p[0] for p in untraced + traced],
        "layers": layers,
        "item_median_s": item_medians(items, untraced),
        "attempted": len(passes) * len(items),
        "failures": check_all(items, passes),
    }


def item_medians(items, passes):
    """Each item's median time over the passes, rescaled like pass_s."""
    return {item.name: statistics.median(scaled(p[1][i][0], p[3][i], p[3][i + 1]) for p in passes)
            for i, item in enumerate(items)}


if __name__ == "__main__":
    main()
