"""The benchmark's three workloads: inputs from a seed, one unit of work, checks.

Each workload is closed-loop and single-process.  ``generate()`` builds the
inputs (it is part of set-up), ``run(k)`` does the k-th unit of work and is
the only part that is timed, and ``check(k, out, wall_s)`` verifies that
unit's outputs and turns them into a ``Unit``.  Every unit of a run does the
same work, split into the same named steps, so a step's times can be compared
across the units of a run.  Program calls go through the module
objects (``game.solve_equilibrium``, not a name imported here), so the traced
run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bwmarket import cli, game, harness

MAX_UNITS = 10_000


@dataclass
class Unit:
    """Checked outcome of one unit of work."""

    attempted: int                  # operations tried
    ops: int                        # work completed, in the workload's op unit
    failures: list[str] = field(default_factory=list)   # failed output checks
    failed: int = 0                 # operations with a failed output check
    inconsistent: int = 0           # solver-reported inconsistent equilibria
    steps: dict[str, float] = field(default_factory=dict)  # step -> seconds
    extra: dict = field(default_factory=dict)
    wall_s: float = 0.0
    scale: float = 1.0              # calibration factor for this unit's times


def _unit_seeds(seed: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, MAX_UNITS)]


# ---------------------------------------------------------------------------
# sweep: verified equilibrium sweeps, the Tier-1 trends-test traffic
# ---------------------------------------------------------------------------

class Sweep:
    """One unit is one seed through both trend sweeps: J in 2..6 at I=15 and
    I in 3..15 at J=3, dense markets, 200 verification probes per solve."""

    name = "sweep"
    GRID_J = [2, 3, 4, 5, 6]
    GRID_I = [3, 6, 9, 12, 15]

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def generate(self):
        def market(num_uavs, num_rsus):
            cfg = harness.ExperimentConfig(num_uavs=num_uavs, num_rsus=num_rsus,
                                           episodes=1)
            cfg.ranges["similarity"] = (0.85, 1.0)
            return cfg.validate()
        self.cfg_j = market(15, 2)
        self.cfg_i = market(3, 3)
        self.seeds = _unit_seeds(self.seed)

    def run(self, k):
        s = self.seeds[k]
        recs_j, agg_j = harness.run_sweep(self.cfg_j,
                                          harness.SweepSpec("J", self.GRID_J, [s]))
        recs_i, agg_i = harness.run_sweep(self.cfg_i,
                                          harness.SweepSpec("I", self.GRID_I, [s]))
        return s, recs_j, agg_j, recs_i, agg_i

    def check(self, k, out, wall_s) -> Unit:
        s, recs_j, agg_j, recs_i, agg_i = out
        records = recs_j + recs_i
        unit = Unit(attempted=len(records), ops=0, wall_s=wall_s)
        unit.steps = {f"J={v}": r.wall_ms / 1000.0 for v, r in zip(self.GRID_J, recs_j)}
        unit.steps.update({f"I={v}": r.wall_ms / 1000.0
                           for v, r in zip(self.GRID_I, recs_i)})
        bad = set()
        if len(recs_j) != len(self.GRID_J) or len(recs_i) != len(self.GRID_I):
            unit.failures.append(f"seed {s}: expected one record per grid value")
            bad.update(range(len(records)))
        for idx, r in enumerate(records):
            if not (math.isfinite(r.theoretical) and math.isfinite(r.wall_ms)):
                unit.failures.append(f"seed {s}: non-finite value in {r.run_id}")
                bad.add(idx)
        curve_j = [agg_j[v][0] for v in self.GRID_J]
        curve_i = [agg_i[v][0] for v in self.GRID_I]
        if not all(b <= a + 1e-12 for a, b in zip(curve_j, curve_j[1:])):
            unit.failures.append(f"seed {s}: reward does not fall with J: {curve_j}")
            bad.update(range(len(recs_j)))
        if not all(b >= a - 1e-12 for a, b in zip(curve_i, curve_i[1:])):
            unit.failures.append(f"seed {s}: reward does not rise with I: {curve_i}")
            bad.update(range(len(recs_j), len(records)))
        unit.failed = len(bad)
        unit.ops = unit.attempted - unit.failed
        unit.inconsistent = sum(not r.consistent for idx, r in enumerate(records)
                                if idx not in bad)
        return unit

    def report(self, units: list[Unit], ops_per_s: float) -> dict:
        return {
            "equilibria_per_s": (ops_per_s, "1/s", "higher"),
            **latency_metrics("solve_ms", units),
            # the Tier-1 trends test solves 20 seeds x 10 grid cells of this traffic
            "predicted_trends_test_s": (200.0 / ops_per_s if ops_per_s else math.inf,
                                        "s", "lower"),
        }


# ---------------------------------------------------------------------------
# solve-large: unverified solves of 100 x 10 markets
# ---------------------------------------------------------------------------

REFERENCE = Path(__file__).with_name("reference_solve_large.json")


def large_instance(instance_seed: int):
    return harness.sample_instance({"similarity": (0.5, 1.0)}, 100, 10, instance_seed)


class SolveLarge:
    """One unit is one pass of ``solve_equilibrium`` over a pool of POOL
    instances drawn from the recorded reference seeds."""

    name = "solve-large"
    POOL = 48
    setup_repeats = 11      # set-up takes ~0.5 s and is steady with fewer repeats

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def generate(self):
        with open(REFERENCE) as fh:
            reference = json.load(fh)["instances"]
        picks = np.random.default_rng(self.seed).choice(len(reference), self.POOL,
                                                        replace=False)
        self.reference = [reference[int(p)] for p in picks]
        self.instances = [large_instance(ref["seed"]) for ref in self.reference]

    def run(self, k):
        clock = time.perf_counter
        out = []
        for inst in self.instances:
            start = clock()
            sol = game.solve_equilibrium(inst)
            out.append((sol, clock() - start))
        return out

    def check(self, k, out, wall_s) -> Unit:
        unit = Unit(attempted=len(out), ops=0, wall_s=wall_s)
        for ref, inst, (sol, seconds) in zip(self.reference, self.instances, out):
            unit.steps[f"seed={ref['seed']}"] = seconds
            problems = check_solution(inst, sol) + compare_reference(ref, sol)
            if problems:
                unit.failed += 1
                unit.failures += [f"instance seed {ref['seed']}: {p}" for p in problems]
            else:
                unit.inconsistent += not sol.consistent
        unit.ops = unit.attempted - unit.failed
        return unit

    def report(self, units: list[Unit], ops_per_s: float) -> dict:
        return {
            "equilibria_per_s": (ops_per_s, "1/s", "higher"),
            **latency_metrics("solve_ms", units),
        }


def mixed_buyers(sol) -> set[int]:
    """Buyers whose price column the solver resolved with a mixed-case
    diagnostic ("uav <i>: mixed-case resolution ...")."""
    return {int(m.group(1)) for d in sol.diagnostics
            if (m := re.match(r"uav (\d+): mixed-case", d))}


def close(a, b) -> bool:
    return bool(np.allclose(a, b, rtol=1e-6, atol=1e-9))


def compare_reference(ref, sol) -> list[str]:
    """Every buyer the reference solved without a diagnostic must get the
    reference's price column and utility, and no diagnostic; seller
    utilities must match wherever the reference solve was consistent.
    Buyers the reference flagged are not compared, so a fix of the
    mixed-case defect passes."""
    problems = []
    flagged = mixed_buyers(sol)
    for i, (column, utility) in enumerate(zip(ref["prices"], ref["uav_utilities"])):
        if i in ref["mixed"]:
            continue
        if i in flagged:
            problems.append(f"buyer {i}: mixed-case diagnostic the reference did not have")
        if not close(sol.prices.prices[:, i], column):
            problems.append(f"buyer {i}: price column differs from the reference")
        elif not close(sol.uav_utilities[i], utility):
            problems.append(f"buyer {i}: utility differs from the reference")
    if ref["consistent"] and not close(sol.rsu_utilities, ref["rsu_utilities"]):
        problems.append("seller utilities differ from the reference")
    return problems


def check_solution(inst, sol) -> list[str]:
    """Box, sign and budget invariants of a solved market."""
    P = sol.prices.prices
    B = sol.demands.demands
    costs, caps = inst.costs()[:, None], inst.price_caps()[:, None]
    budgets = np.array([u.budget for u in inst.uavs])
    problems = []
    if not (np.all(np.isfinite(P)) and np.all(P >= costs) and np.all(P <= caps)):
        problems.append("a price lies outside [c, cap]")
    if not (np.all(np.isfinite(B)) and np.all(B >= 0.0)):
        problems.append("a demand is negative or non-finite")
    elif np.any(np.sum(B * P.T, axis=1) > budgets * (1.0 + 1e-9)):
        problems.append("a buyer spends above its budget")
    if not np.all(np.isfinite(sol.rsu_utilities)):
        problems.append("non-finite seller utility")
    return problems


# ---------------------------------------------------------------------------
# compare: the `bwmarket compare` training flow through the CLI
# ---------------------------------------------------------------------------

ALGORITHMS = ("tiny_madrl", "ppo", "greedy", "random")
EPISODES = 300
NUM_UAVS, NUM_RSUS = 3, 2
COMPARE_CONFIG = f"""\
instance:
  I: {NUM_UAVS}
  J: {NUM_RSUS}
  ranges:
    similarity: [0.85, 1.0]
episodes: {EPISODES}
seeds: [0]
"""


class Compare:
    """One unit is one ``bwmarket compare`` command for one seed, all four
    algorithms.  Units cycle over TRAIN_SEEDS seeds, so every seed is run more
    than once and its CSV can be compared across repeats.  The untimed
    warm-up unit (index -1, the last seed) counts as one of those repeats: the
    first command of a process ran a median 3% (up to 12%) slower than the
    later ones."""

    name = "compare"
    TRAIN_SEEDS = 2
    warmup_units = 1
    min_units = TRAIN_SEEDS

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.digests: dict[int, str] = {}

    def generate(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = self.workdir / "compare.yaml"
        self.config.write_text(COMPARE_CONFIG)
        self.seeds = _unit_seeds(self.seed)[:self.TRAIN_SEEDS]

    def run(self, k):
        s = self.seeds[k % len(self.seeds)]
        # run ids hash the whole config, output directory included, so every
        # repeat of a seed writes to the same place
        out = self.workdir / f"seed{s}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["compare", "--config", str(self.config),
                             "--seed", str(s), "--out", str(out)])
        return s, code, out

    def check(self, k, result, wall_s) -> Unit:
        s, code, out = result
        unit = Unit(attempted=len(ALGORITHMS), ops=0, wall_s=wall_s)
        try:
            if code != 0:
                unit.failures.append(f"seed {s}: exit code {code}")
                unit.failed = len(ALGORITHMS)
                return unit
            runs, digest, problems = read_compare_output(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        unit.failures += [f"seed {s}: {p}" for p in problems]
        known = self.digests.setdefault(s, digest)
        if known != digest:
            unit.failures.append(f"seed {s}: CSV without wall_ms differs between repeats")
        if unit.failures:
            unit.failed = len(ALGORITHMS)
            return unit
        unit.ops = EPISODES * len(ALGORITHMS)
        unit.extra = {"seed": s, "runs": runs}
        unit.steps = {algo: runs[algo]["wall_ms"] / 1000.0 for algo in ALGORITHMS}
        unit.steps["solve, emit and summary"] = wall_s - sum(unit.steps.values())
        return unit

    def report(self, units: list[Unit], ops_per_s: float) -> dict:
        def rate(algos):
            return median([EPISODES * len(algos) / (u.scale * sum(u.steps[a] for a in algos))
                           for u in units if u.extra])

        by_seed = {u.extra["seed"]: u.extra["runs"] for u in units if u.extra}
        out = {
            "train_episodes_per_s.tiny_madrl": (rate(["tiny_madrl"]), "1/s", "higher"),
            "train_episodes_per_s.ppo": (rate(["ppo"]), "1/s", "higher"),
            "train_episodes_per_s.baselines": (rate(["greedy", "random"]), "1/s", "higher"),
            "tiny_frac_theoretical": (
                median([r["tiny_madrl"]["frac"] for r in by_seed.values()]), "ratio", "higher"),
            "ppo_frac_theoretical": (
                median([r["ppo"]["frac"] for r in by_seed.values()]), "ratio", "higher"),
            "tiny_reach80_episode": (
                median([r["tiny_madrl"]["reach80"] for r in by_seed.values()]),
                "episode", "lower"),
        }
        return out


def read_compare_output(out: Path):
    """Per-algorithm wall time, reward fraction and reach-80% episode from the
    files one compare command wrote, plus a digest of the CSV minus wall_ms."""
    problems = []
    text = (out / "results.csv").read_text()
    rows = list(csv.DictReader(io.StringIO(text)))
    summary = json.loads((out / "summary.json").read_text())
    expected = 1 + len(ALGORITHMS) * EPISODES * NUM_RSUS
    if len(rows) != expected:
        problems.append(f"{len(rows)} CSV rows, expected {expected}")
    runs = {}
    for algo in ALGORITHMS:
        mine = [r for r in rows if r["run_id"].startswith(f"{algo}-")]
        rewards = [float(r["reward"]) for r in mine] + [float(r["avg_reward"]) for r in mine]
        if not mine or not all(math.isfinite(v) for v in rewards):
            problems.append(f"{algo}: missing or non-finite rewards")
            continue
        theoretical = float(mine[0]["theoretical"])
        curve = {}
        for r in mine:
            curve[int(r["episode"])] = float(r["avg_reward"])
        hits = [e for e in sorted(curve) if curve[e] >= 0.8 * theoretical]
        percent = summary.get(algo, {}).get("percent_of_theoretical")
        if percent is None:
            problems.append(f"{algo}: no percent_of_theoretical in summary.json")
            continue
        runs[algo] = {
            "wall_ms": float(mine[0]["wall_ms"]),
            "frac": percent / 100.0,
            "reach80": hits[0] if hits else EPISODES,
        }
    stripped = "\n".join(",".join(row[:-1]) for row in csv.reader(io.StringIO(text)))
    if text.splitlines()[0].split(",")[-1] != "wall_ms":
        problems.append("results.csv no longer ends with the wall_ms column")
    return runs, hashlib.sha256(stripped.encode()).hexdigest(), problems


# ---------------------------------------------------------------------------
# shared statistics
# ---------------------------------------------------------------------------

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def median(values) -> float:
    return float(statistics.median(values)) if values else math.nan


def latency_metrics(prefix: str, units: list[Unit]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it,
    over every step of every unit."""
    lat = np.array([1000.0 * t * u.scale for u in units for t in u.steps.values()])
    out = {f"{prefix}_p50": (float(np.median(lat)), "ms", "lower")}
    for p in TAIL_PERCENTILES:
        beyond = int(np.sum(lat > np.percentile(lat, p)))
        if beyond >= 10:
            out[f"{prefix}_tail"] = (float(np.percentile(lat, p)), "ms", "lower")
            out[f"{prefix}_tail.percentile"] = (p, "%", "info")
            out[f"{prefix}_tail.samples"] = (len(lat), "count", "info")
            break
    return out


WORKLOADS = {w.name: w for w in (Sweep, SolveLarge, Compare)}
