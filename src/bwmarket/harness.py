"""Experiment harness: config ingestion, seeded sampling, runs, sweeps, persistence.

One master seed fans out into named, order-independent substreams (instance,
warmup, per-agent policy) so results are reproducible and adding an algorithm
never perturbs instance sampling.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import yaml

from .agents import GreedyAgent, PpoAgent, PpoConfig, RandomAgent, TinyMadrlAgent
from .env import EnvConfig, PricingEnv, theoretical_baseline
from .game import (
    ChannelLink,
    GameInstance,
    RsuProfile,
    SsimTriple,
    UavProfile,
    solve_equilibrium,
    verify_equilibrium,
)
from .tinynet import PruneSchedule

SCHEMA_VERSION = 1

ALGORITHMS = ("tiny_madrl", "ppo", "greedy", "random")

# Default simulation parameter ranges (dB quantities stay in the dB domain).
DEFAULT_RANGES = {
    "noise_dbm": (-116.0, -112.0),
    "channel_gain_db": (-25.0, -22.0),
    "transmit_power_dbm": (20.0, 25.0),
    "similarity": (0.0, 1.0),
    "ssim_threshold": (0.5, 0.55),
    "delta": (10.0, 20.0),
    "budget": (1.0, 10.0),
    "bandwidth_cost": (1.0, 4.0),
    "price_cap": (5.0, 35.0),
}

CSV_COLUMNS = ["run_id", "seed", "episode", "agent_id", "reward", "avg_reward",
               "sparsity", "theoretical", "wall_ms"]


class ConfigError(ValueError):
    pass


def named_rng(master_seed: int, name: str) -> np.random.Generator:
    """Independent stream keyed by (seed, name); insensitive to creation order."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence((master_seed, tag)))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    num_uavs: int = 3
    num_rsus: int = 2
    ranges: dict = field(default_factory=lambda: dict(DEFAULT_RANGES))
    env: EnvConfig = field(default_factory=EnvConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    schedule: PruneSchedule = field(
        default_factory=lambda: PruneSchedule(0.0, 0.5, 150, 30, 5))
    floor_neurons: int = 4
    prune_critic: bool = False
    greedy_levels: int = 16
    greedy_epsilon: float = 0.1
    episodes: int = 300
    seeds: list[int] = field(default_factory=lambda: [0])
    out: str = "results"
    strict: bool = False
    verify_probes: int = 200

    def validate(self):
        for key, (lo, hi) in self.ranges.items():
            if key not in DEFAULT_RANGES:
                raise ConfigError(f"unknown parameter range {key!r}")
            if lo > hi:
                raise ConfigError(f"empty range for {key!r}: [{lo}, {hi}]")
        if self.ranges["bandwidth_cost"][1] > self.ranges["price_cap"][0]:
            raise ConfigError(
                "bandwidth_cost range upper bound exceeds price_cap lower bound; "
                "sampled boxes could be empty")
        if self.num_uavs < 1 or self.num_rsus < 1:
            raise ConfigError("need at least one UAV and one RSU")
        if self.episodes < 1:
            raise ConfigError("episodes must be >= 1")
        if self.greedy_levels < 1:
            raise ConfigError("greedy_levels must be >= 1")
        if not 0.0 <= self.greedy_epsilon <= 1.0:
            raise ConfigError("greedy_epsilon must lie in [0, 1]")
        if self.verify_probes < 0:
            raise ConfigError("verify_probes must be >= 0")
        if not self.seeds:
            raise ConfigError("seeds list is empty")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        return self


# The instance section's keys and the fields they set; no other key sets these.
_INSTANCE_KEYS = {"I": "num_uavs", "J": "num_rsus", "ranges": "ranges"}


def _is_integral(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and float(value).is_integer())


def _load(label: str, hint, value, current=None, keys: dict | None = None):
    """value checked against its field's declared type, as the field stores it.
    A mapping for a dataclass or a dict is applied onto current; keys maps its
    keys to the dataclass's fields (default: every field, by name)."""
    origin, args = get_origin(hint), get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _load(label, args[0], value)
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        return origin(_load(f"{label} entry", args[0], v) for v in value)
    if hint is int and _is_integral(value):
        return int(value)
    if hint is float and type(value) in (int, float) and math.isfinite(value):
        return float(value)  # 0 and 0.0 load, and hash, alike
    if hint in (bool, str) and type(value) is hint:
        return value
    if is_dataclass(hint) and isinstance(value, dict):
        hints = get_type_hints(hint)
        keys = keys or dict(zip(hints, hints))
        changes = {}
        for key, item in value.items():
            path = f"{label}.{key}".lstrip(".")
            if key not in keys:
                raise ConfigError(f"unknown config option {path!r}")
            changes[keys[key]] = _load(path, hints[keys[key]], item,
                                       getattr(current, keys[key]))
        return replace(current, **changes)
    if hint is dict and isinstance(value, dict) and all(  # parameter ranges
            isinstance(p, (list, tuple)) and len(p) == 2
            and all(isinstance(v, (int, float)) for v in p) for p in value.values()):
        return {**current,
                **{k: (float(lo), float(hi)) for k, (lo, hi) in value.items()}}
    kind = ("mapping" if is_dataclass(hint) else {
        int: "whole number", float: "finite number", tuple: "list",
        dict: "mapping of [low, high] pairs"}.get(origin or hint, hint.__name__))
    raise ConfigError(f"{label or 'config'} must be a {kind}, got {value!r}")


def config_from_dict(doc: dict) -> ExperimentConfig:
    doc = dict(doc)
    version = doc.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}")
    cfg = _load("instance", ExperimentConfig, doc.pop("instance", {}),
                ExperimentConfig(), _INSTANCE_KEYS)
    top = {f.name: f.name for f in fields(ExperimentConfig)
           if f.name not in _INSTANCE_KEYS.values()}
    return _load("", ExperimentConfig, doc, cfg, top).validate()


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            message = " ".join(str(exc).split())  # one line
            raise ConfigError(f"{path}: invalid YAML: {message}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    try:
        return config_from_dict(doc)
    except ValueError as exc:  # also the option dataclasses' own checks
        raise ConfigError(f"{path}: {exc}") from None


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable digest of the canonical config serialization, without the output
    directory: one experiment gets one digest wherever it is written."""
    def canon(obj):
        if hasattr(obj, "__dataclass_fields__"):
            return {f.name: canon(getattr(obj, f.name)) for f in fields(obj)}
        if isinstance(obj, dict):
            return {str(k): canon(v) for k, v in sorted(obj.items())}
        if isinstance(obj, (list, tuple)):
            return [canon(v) for v in obj]
        return obj
    doc = canon(cfg)
    del doc["out"]
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Instance sampling
# ---------------------------------------------------------------------------

def sample_instance(ranges: dict, num_uavs: int, num_rsus: int,
                    seed: int | np.random.Generator) -> GameInstance:
    """Uniform per-entity draws from the parameter ranges; deterministic per seed."""
    full = dict(DEFAULT_RANGES)
    full.update(ranges)
    if full["bandwidth_cost"][1] > full["price_cap"][0]:
        raise ConfigError("bandwidth_cost range may exceed price_cap range")
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))
    # One substream per entity index, so seller j (and buyer i) keeps the same
    # parameters whatever the market size; sweeps over I or J stay paired.
    rsu_parent, uav_parent = rng.spawn(2)

    def draw(gen, key):
        lo, hi = full[key]
        return float(gen.uniform(lo, hi))

    # The profiles reject out-of-domain draws (a negative budget, say) with
    # ValueError; the ranges came from the config, so report a ConfigError.
    try:
        rsus = []
        for gen in rsu_parent.spawn(num_rsus):
            link = ChannelLink(draw(gen, "transmit_power_dbm"),
                               draw(gen, "channel_gain_db"), draw(gen, "noise_dbm"))
            rsus.append(RsuProfile(draw(gen, "bandwidth_cost"),
                                   draw(gen, "price_cap"), link))
        uavs = []
        for gen in uav_parent.spawn(num_uavs):
            delta = draw(gen, "delta")
            budget = draw(gen, "budget")
            threshold = draw(gen, "ssim_threshold")
            triples = [SsimTriple(draw(gen, "similarity"), draw(gen, "similarity"),
                                  draw(gen, "similarity")) for _ in range(num_rsus)]
            uavs.append(UavProfile(delta, budget, threshold, triples))
        return GameInstance(uavs, rsus)
    except ValueError as exc:
        raise ConfigError(f"sampled instance rejected: {exc}") from None


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    run_id: str
    config_hash: str
    seed: int
    algorithm: str
    episode_rewards: np.ndarray      # episodes x agents (empty for solve runs)
    sparsity: np.ndarray             # per-episode mean sparsity (may be empty)
    theoretical: float
    consistent: bool
    wall_ms: float

    @property
    def avg_rewards(self) -> np.ndarray:
        """Per-episode reward averaged across agents."""
        if self.episode_rewards.size == 0:
            return np.array([])
        return self.episode_rewards.mean(axis=1)

    def final_average(self, tail_fraction: float = 0.1) -> float:
        avg = self.avg_rewards
        if avg.size == 0:
            return self.theoretical
        k = max(1, int(round(tail_fraction * avg.size)))
        return float(avg[-k:].mean())


def _build_agents(cfg: ExperimentConfig, env: PricingEnv, algorithm: str,
                  seed: int):
    m = env.instance.arrays
    agents = []
    for j in range(env.num_agents):
        low = np.full(env.num_uavs, m.c[j])
        high = np.full(env.num_uavs, m.cap[j])
        rng = named_rng(seed, f"init:{j}")
        if algorithm == "ppo":
            agents.append(PpoAgent(env.observation_dim, low, high, cfg.ppo, rng))
        elif algorithm == "tiny_madrl":
            agents.append(TinyMadrlAgent(env.observation_dim, low, high,
                                         cfg.schedule, cfg.ppo, rng,
                                         cfg.floor_neurons, cfg.prune_critic))
        elif algorithm == "greedy":
            agents.append(GreedyAgent(low, high, cfg.greedy_levels,
                                      cfg.greedy_epsilon))
        elif algorithm == "random":
            agents.append(RandomAgent(low, high))
        else:
            raise ConfigError(f"unknown algorithm {algorithm!r}")
    return agents


class _Run:
    """One algorithm's sellers inside a training group: its row of the group's
    arrays, its agents, its named streams in run_training's draw order, its
    results, and the time its agents take. A learned run acts, records and
    updates through the group's _Stack, which bills it a share of its time."""

    def __init__(self, cfg: ExperimentConfig, env: PricingEnv, algorithm: str,
                 seed: int, row: int):
        self.algorithm = algorithm
        self.row = row
        self.agents = _build_agents(cfg, env, algorithm, seed)
        self.policy_rngs = [named_rng(seed, f"policy:{j}") for j in range(env.num_agents)]
        self.warmup_rng = named_rng(seed, "warmup")
        self.learned = algorithm in ("ppo", "tiny_madrl")
        self.episode_rewards = np.zeros((cfg.episodes, env.num_agents))
        self.sparsity = np.zeros(cfg.episodes)
        self.agent_s = 0.0

    def act(self, obs: np.ndarray, prices: np.ndarray):
        """Write each baseline agent's price row for its observation into prices."""
        start = time.perf_counter()
        for j, agent in enumerate(self.agents):
            prices[self.row, j] = agent.act(obs[self.row, j], self.policy_rngs[j])
        self.agent_s += time.perf_counter() - start

    def record(self, out):
        if self.algorithm == "greedy":
            start = time.perf_counter()
            for agent, margins in zip(self.agents, out.margins[self.row]):
                agent.update(margins)
            self.agent_s += time.perf_counter() - start

    def end_episode(self, episode: int, rewards: np.ndarray):
        self.episode_rewards[episode] = rewards[self.row]
        if self.algorithm == "tiny_madrl":
            start = time.perf_counter()
            for agent in self.agents:
                agent.prune_step(episode)
            self.sparsity[episode] = float(np.mean(
                [a.current_sparsity() for a in self.agents]))
            self.agent_s += time.perf_counter() - start


class _Stack:
    """Every seller of a group's learned runs in one PpoAgent.stack, in run
    order; each seller keeps its run's policy stream. Its time is billed to
    those runs in equal shares."""

    def __init__(self, runs: list[_Run]):
        self.runs = runs
        self.rows = np.array([run.row for run in runs])
        self.agent = PpoAgent.stack([a for run in runs for a in run.agents])
        self.rngs = [rng for run in runs for rng in run.policy_rngs]
        self.agent_s = 0.0

    def begin_episode(self, progress: float):
        start = time.perf_counter()
        self.agent.set_progress(progress)
        self.agent_s += time.perf_counter() - start

    def act(self, obs: np.ndarray, prices: np.ndarray):
        start = time.perf_counter()
        self._obs = obs[self.rows].reshape(len(self.rngs), -1)
        stack_prices, *self._acted = self.agent.act(self._obs, self.rngs)
        prices[self.rows] = stack_prices.reshape(len(self.runs), *prices.shape[1:])
        self.agent_s += time.perf_counter() - start

    def record(self, out):
        start = time.perf_counter()
        u, log_prob, value = self._acted
        self.agent.record(self._obs, u, log_prob, out.rewards[self.rows].reshape(-1),
                          value, out.done)
        self.agent_s += time.perf_counter() - start

    def end_episode(self, episode: int, rewards: np.ndarray):
        start = time.perf_counter()
        self.agent.ppo_update()  # before the tiny runs prune
        self.agent_s += time.perf_counter() - start
        for run in self.runs:
            run.end_episode(episode, rewards)

    def bill(self):
        for run in self.runs:
            run.agent_s += self.agent_s / len(self.runs)


def run_training_group(cfg: ExperimentConfig, algorithms, seed: int,
                       instance: GameInstance | None = None) -> list[RunRecord]:
    """Train one agent per seller for each algorithm, all runs in lock step.

    The runs share one instance, one reference solve and one env with a run
    axis, so a round is one env step for every run. Every learned seller of
    every run sits in one PpoAgent.stack, so a round makes one actor and one
    critic pass for all of them. Each run keeps its own agents and named
    streams, so its record equals the one it gets alone.
    A record's wall_ms is its own agent time (a learned run's share of the
    stack's time included) plus an equal share of the group's shared time
    (sampling, solving, env steps and the loop), so the records' wall_ms sum
    to the group's wall time.
    """
    start = time.perf_counter()
    if instance is None:
        instance = sample_instance(cfg.ranges, cfg.num_uavs, cfg.num_rsus,
                                   named_rng(seed, "instance"))
    env = PricingEnv(instance, cfg.env, runs=len(algorithms))
    baseline, consistent = theoretical_baseline(instance)
    runs = [_Run(cfg, env, algorithm, seed, k) for k, algorithm in enumerate(algorithms)]
    learned = [run for run in runs if run.learned]
    stack = _Stack(learned) if learned else None
    units = [run for run in runs if not run.learned] + ([stack] if stack else [])
    steps = cfg.env.episode_length
    prices = np.empty((len(runs), env.num_agents, env.num_uavs))

    for episode in range(cfg.episodes):
        if stack:
            stack.begin_episode(episode / max(cfg.episodes - 1, 1))
        obs = env.reset([run.warmup_rng for run in runs])
        ep_rewards = np.zeros((len(runs), env.num_agents))
        for _ in range(steps):
            for unit in units:
                unit.act(obs, prices)
            out = env.step(prices)
            if not np.all(np.isfinite(out.rewards)):
                first = np.flatnonzero(~np.isfinite(out.rewards).all(axis=1))[0]
                algorithm = runs[first].algorithm
                raise RuntimeError(
                    f"non-finite reward in episode {episode} ({algorithm})")
            for unit in units:
                unit.record(out)
            ep_rewards += out.rewards
            obs = out.next_observations
        for unit in units:
            unit.end_episode(episode, ep_rewards / steps)

    if stack:
        stack.bill()
    shared_s = time.perf_counter() - start - sum(run.agent_s for run in runs)
    digest = config_hash(cfg)
    return [RunRecord(f"{run.algorithm}-{digest}-{seed}", digest, seed, run.algorithm,
                      run.episode_rewards,
                      run.sparsity if run.algorithm == "tiny_madrl" else np.array([]),
                      baseline, consistent,
                      (run.agent_s + shared_s / len(runs)) * 1000.0)
            for run in runs]


def run_training(cfg: ExperimentConfig, algorithm: str, seed: int,
                 instance: GameInstance | None = None) -> RunRecord:
    """Train one agent per seller for the configured number of episodes."""
    return run_training_group(cfg, [algorithm], seed, instance)[0]


def run_solve(cfg: ExperimentConfig, seed: int,
              instance: GameInstance | None = None) -> RunRecord:
    """Solve and verify the analytic equilibrium for one sampled instance."""
    start = time.perf_counter()
    if instance is None:
        instance = sample_instance(cfg.ranges, cfg.num_uavs, cfg.num_rsus,
                                   named_rng(seed, "instance"))
    sol = solve_equilibrium(instance)
    consistent = sol.consistent
    if consistent and cfg.verify_probes > 0:
        report = verify_equilibrium(instance, sol, cfg.verify_probes,
                                    rng_seed=seed)
        consistent = consistent and report.passed
    if cfg.strict and not consistent:
        raise RuntimeError(f"equilibrium verification failed for seed {seed}")
    wall_ms = (time.perf_counter() - start) * 1000.0
    theoretical = float(np.mean(sol.rsu_utilities))
    cfg_hash = config_hash(cfg)
    return RunRecord(f"solve-{cfg_hash}-{seed}", cfg_hash, seed, "solve",
                     np.zeros((0, 0)), np.array([]), theoretical, consistent, wall_ms)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepSpec:
    parameter: str                  # one of: c, p_bar, I, J
    grid: list                      # I and J values become ints
    seeds: list[int]

    def __post_init__(self):
        if self.parameter not in ("c", "p_bar", "I", "J"):
            raise ConfigError(f"unknown sweep parameter {self.parameter!r}")
        if self.parameter in ("I", "J"):
            if any(not _is_integral(v) or v < 1 for v in self.grid):
                raise ConfigError(f"sweep grid for {self.parameter} must hold "
                                  f"whole numbers >= 1, got {list(self.grid)}")
            self.grid = [int(v) for v in self.grid]
        elif not all(math.isfinite(v) and v > 0 for v in self.grid):
            raise ConfigError(f"sweep grid for {self.parameter} must hold finite "
                              f"positive values, got {list(self.grid)}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("sweep grid must be strictly increasing")


def _apply_sweep_value(cfg: ExperimentConfig, parameter: str, value):
    if parameter in ("I", "J"):
        return replace(cfg, **{_INSTANCE_KEYS[parameter]: value})
    # one scalar cost (or cap) for every seller
    key = "bandwidth_cost" if parameter == "c" else "price_cap"
    return replace(cfg, ranges={**cfg.ranges, key: (float(value), float(value))})


def run_sweep(cfg: ExperimentConfig, spec: SweepSpec):
    """Analytic runs over a parameter grid.

    Returns (records, aggregate) where aggregate maps grid value to the
    mean/sd of the equilibrium average reward across seeds.
    """
    records = []
    aggregate = {}
    for value in spec.grid:
        sub = _apply_sweep_value(cfg, spec.parameter, value)
        cell = []
        for seed in spec.seeds:
            rec = run_solve(sub, seed)
            records.append(rec)
            cell.append(rec.theoretical)
        aggregate[value] = (float(np.mean(cell)), float(np.std(cell)))
    return records, aggregate


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def record_rows(record: RunRecord) -> list[dict]:
    """Flatten a run into CSV rows (fixed column order)."""
    rows = []
    if record.episode_rewards.size == 0:
        rows.append({
            "run_id": record.run_id, "seed": record.seed, "episode": 0,
            "agent_id": "", "reward": repr(record.theoretical),
            "avg_reward": repr(record.theoretical), "sparsity": "",
            "theoretical": repr(record.theoretical),
            "wall_ms": repr(record.wall_ms),
        })
        return rows
    avg = record.avg_rewards
    for episode in range(record.episode_rewards.shape[0]):
        spars = (repr(float(record.sparsity[episode]))
                 if record.sparsity.size else "")
        for agent in range(record.episode_rewards.shape[1]):
            rows.append({
                "run_id": record.run_id, "seed": record.seed, "episode": episode,
                "agent_id": agent,
                "reward": repr(float(record.episode_rewards[episode, agent])),
                "avg_reward": repr(float(avg[episode])),
                "sparsity": spars,
                "theoretical": repr(record.theoretical),
                "wall_ms": repr(record.wall_ms),
            })
    return rows


def emit_results(records: list[RunRecord], out_dir, fmt: str = "csv") -> Path:
    """Write records as CSV or JSONL; re-emission is byte-identical."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [row for rec in sorted(records, key=lambda r: (r.run_id, r.seed))
            for row in record_rows(rec)]
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}")
    path = out_dir / f"results.{fmt}"
    try:
        with open(path, "w", newline="" if fmt == "csv" else None) as fh:
            if fmt == "csv":
                writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
                writer.writeheader()
                writer.writerows(rows)
            else:
                fh.writelines(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
    return path


def parse_results_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_summary(records: list[RunRecord], out_dir) -> Path:
    """summary.json: final average reward and percent-of-theoretical per algorithm."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_algo: dict[str, list[RunRecord]] = {}
    for rec in records:
        by_algo.setdefault(rec.algorithm, []).append(rec)
    summary = {}
    for algo, recs in sorted(by_algo.items()):
        finals = [r.final_average() for r in recs]
        theos = [r.theoretical for r in recs]
        mean_final = float(np.mean(finals))
        mean_theo = float(np.mean(theos))
        summary[algo] = {
            "final_average_reward": mean_final,
            "theoretical": mean_theo,
            "percent_of_theoretical": (100.0 * mean_final / mean_theo
                                       if mean_theo > 0 else None),
            "num_runs": len(recs),
        }
    path = out_dir / "summary.json"
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
