"""bwmarket benchmark: three closed-loop workloads, checked outputs, optional trace.

    python3 perfbench/run.py --workload {sweep,solve-large,compare,all} \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ./src.  With
``--trace 0`` the run measures the end-to-end metrics; with ``--trace 1`` it
wraps the package's public functions (perfbench/spans.py) and reports
per-layer counts and self times instead.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  Any
failed output check is printed to standard error and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibrator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SCHEMA = "bwmarket-perfbench/1"
SETUP_REPEATS = 21      # a workload may set its own `setup_repeats`

# name -> (unit, better); every workload reports each of these
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Per-layer metrics in the result line: those that are nonzero on every
# workload, counts and times alike.  The layers that some workload bypasses
# (verify_equilibrium, env, agents, tinynet, run_solve and the other harness
# and cli entry points) read 0 there, so their counts and self times are in
# the printed table and in trace.json instead.
PER_LAYER = [
    "game.follower_best_response.calls", "game.follower_best_response.self_s",
    "game.all_followers_respond.calls", "game.all_followers_respond.self_s",
    "game.leader_best_response_map.calls", "game.leader_best_response_map.self_s",
    "game.solve_equilibrium.calls", "game.solve_equilibrium.self_s",
    "game.uav_utility.calls", "game.uav_utility.self_s",
    "game.rsu_utility.calls", "game.rsu_utility.self_s",
    "game.budget_active_share",
    "harness.sample_instance.calls", "harness.sample_instance.self_s",
    "trace.overhead_ratio",
]

# Times `import bwmarket` in a fresh interpreter and prints it calibrated by
# probes that the same process runs right after the import (calibrate.py).
IMPORT_SNIPPET = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import bwmarket
seconds = time.perf_counter() - start
import statistics, calibrate
probe_s = statistics.median(calibrate.probe() for _ in range(5))
print(seconds * calibrate.REFERENCE_PROBE_S / probe_s)
"""


def import_program():
    """Import bwmarket from ./src, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import bwmarket
    except ImportError as exc:
        raise SystemExit(f"error: cannot import bwmarket from {SRC}: {exc}") from None
    if SRC not in Path(bwmarket.__file__).resolve().parents:
        raise SystemExit(f"error: bwmarket was imported from {bwmarket.__file__}, "
                         f"not from {SRC}")


# ---------------------------------------------------------------------------
# environment header
# ---------------------------------------------------------------------------

def blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            path = next(line.split()[-1] for line in fh if "openblas" in line)
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def git_commit():
    """HEAD of ROOT's own git repository; None outside a git checkout."""
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def header(args) -> dict:
    import numpy as np
    return {
        "schema": SCHEMA, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "blas_threads": blas_threads(),
        "git_commit": git_commit(), "src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def import_seconds() -> float:
    """Calibrated time of `import bwmarket` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def measure_setup(cls, seed, workdir):
    """Median over the workload's setup repeats of calibrated import plus
    input generation.  The process keeps to one CPU, so every import and the
    probes that calibrate it run on the same CPU.  The parent's probe timer
    is off while the child imports, so it does not compete with the import."""

    def generated():
        workload = cls(seed, workdir)
        workload.generate()
        return workload

    totals = []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for _ in range(getattr(cls, "setup_repeats", SETUP_REPEATS)):
            workload = None     # free the previous inputs before timing new ones
            imported = import_seconds()
            with Calibrator() as calibrator:
                workload, generate_s, factor = calibrator.timed(generated)
            totals.append(imported + generate_s * factor)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(totals), workload


def warm_up(workload):
    """Run and check the workload's `warmup_units` untimed, with negative
    unit indices, before its timed units."""
    units = []
    for k in range(-getattr(workload, "warmup_units", 0), 0):
        start = time.perf_counter()
        out = workload.run(k)
        units.append(workload.check(k, out, time.perf_counter() - start))
    return units


def run_units(workload, seconds, min_units, tracer=None, count=None):
    """Closed loop: run calibrated units back to back until `seconds` have
    passed, or exactly `count` units when it is given."""
    units = []
    deadline = time.perf_counter() + seconds
    k = 0

    def more():
        if count is not None:
            return len(units) < count
        return len(units) < min_units or time.perf_counter() < deadline

    with Calibrator(None if tracer is None else tracer.exclude) as calibrator:
        while more():
            if tracer is None:
                out, wall, factor = calibrator.timed(workload.run, k)
            else:
                tracer.item = k
                out, wall, factor = calibrator.timed(tracer.wrap("bench.unit", workload.run), k)
            unit = workload.check(k, out, wall)
            unit.scale = factor
            units.append(unit)
            k += 1
    return units


def calibrated_wall(units) -> float:
    """Median calibrated wall time of the run's complete units."""
    complete = [u for u in units if not u.failures] or units
    return statistics.median(u.wall_s * u.scale for u in complete)


def totals(units) -> dict:
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    failures = [f for u in units for f in u.failures]
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "fail_share": (failed + sum(u.inconsistent for u in units)) / attempted,
            "units": [{"wall_s": u.wall_s, "scale": u.scale, "steps": u.steps}
                      for u in units]}


def measure(cls, args, workdir):
    """Untraced run: end-to-end metrics plus the workload's own report."""
    setup_s, workload = measure_setup(cls, args.seed, workdir)
    warm = warm_up(workload)
    units = run_units(workload, args.seconds, getattr(workload, "min_units", 1))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "wall_s": calibrated_wall(units),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    summary = totals(warm + units)
    report = {name: (value, *END_TO_END[name]) for name, value in metrics.items()}
    report["fail_share"] = (summary["fail_share"], "share", "lower")
    report["units"] = (len(units), "count", "info")
    report["unit_wall_s.uncalibrated_median"] = (
        statistics.median(u.wall_s for u in units), "s", "lower")
    report["cpu_slowdown"] = (statistics.median(1.0 / u.scale for u in units), "ratio", "info")
    ops_per_s = sum(u.ops for u in units) / sum(u.wall_s * u.scale for u in units)
    report.update(workload.report(units, ops_per_s))
    return metrics, report, summary


def measure_traced(cls, args, workdir, head):
    """Traced run: per-layer metrics.  Afterwards the same units run again
    untraced, for the tracing overhead."""
    from spans import Tracer

    workload = cls(args.seed, workdir)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.item = "setup"
        tracer.call("bench.setup", workload.generate)
        units = run_units(workload, args.seconds, getattr(workload, "min_units", 1),
                          tracer)
    finally:
        tracer.uninstall()
    reference = run_units(workload, args.seconds, 1, count=len(units))
    layer = tracer.metrics()
    layer["trace.overhead_ratio"] = (statistics.median(
        (t.wall_s * t.scale) / (u.wall_s * u.scale) for t, u in zip(units, reference)),
        "ratio")
    metrics = {name: layer[name][0] for name in PER_LAYER}
    report = {name: (value, unit, "info") for name, (value, unit) in layer.items()}
    tracer.dump(workdir / "trace.json", head, {k: v[0] for k, v in layer.items()})
    return metrics, report, totals(units + reference)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_report(head, report, summary):
    print(json.dumps(head))
    print(f"# {head['workload']}  seed={head['seed']}  trace={head['trace']}  "
          f"attempted={summary['attempted']}  failed={summary['failed']}")
    for name, (value, unit, better) in report.items():
        note = f"{better} is better" if better in ("higher", "lower") else ""
        print(f"  {name:<58} {value:>14.6g} {unit:<8} {note}")
    for failure in summary["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)


def run_one(args) -> int:
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    head = header(args)
    if args.trace:
        metrics, report, summary = measure_traced(cls, args, workdir, head)
        units = {name: report[name][1] for name in PER_LAYER}
    else:
        metrics, report, summary = measure(cls, args, workdir)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    print_report(head, report, summary)
    correct = not summary["failures"]
    (workdir / "result.json").write_text(json.dumps({
        "header": head, "correct": correct, "attempted": summary["attempted"],
        "failed": summary["failed"], "failures": summary["failures"],
        "report": {k: {"value": v, "unit": u, "better": b}
                   for k, (v, u, b) in report.items()},
        "units": summary["units"],
    }, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            raise SystemExit(f"error: workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        status = max(status, done.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "sweep", "solve-large", "compare"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    import_program()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
