"""Experiment harness: config ingestion, seeded sampling, runs, sweeps, persistence.

One master seed fans out into named, order-independent substreams
(``instance``, and ``init:j`` and ``policy:j`` for each seller j) so results
are reproducible and adding an algorithm never perturbs instance sampling.
A sampled instance is its market arrays, built straight from one row of draws
per seller and per buyer; its profile objects are built only if something
reads them.  A sweep draws each seed's rows once, at its largest market, and
builds every cell from a prefix of them.  Every record takes its reference and
consistent flag from ``theoretical_baseline``; a training group, the one
runner per seed, solves its market once and returns that solve record first.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Annotated

import numpy as np

from . import _domain
from ._domain import ConfigError
from .agents import GreedyAgent, PpoAgent, PpoConfig, RandomAgent, TinyMadrlAgent
from .env import EnvConfig, PricingEnv, theoretical_baseline
from .game import _RSU_DRAWS, _UAV_DRAWS, GameInstance
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


def named_rng(master_seed: int, name: str) -> np.random.Generator:
    """Independent stream keyed by (seed, name); insensitive to creation order."""
    tag = int.from_bytes(hashlib.sha256(name.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence((master_seed, tag)))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    num_uavs: Annotated[int, "[1, inf)"] = 3
    num_rsus: Annotated[int, "[1, inf)"] = 2
    ranges: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_RANGES))
    env: EnvConfig = field(default_factory=EnvConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    schedule: PruneSchedule = field(
        default_factory=lambda: PruneSchedule(0.0, 0.5, 150, 30, 5))
    floor_neurons: Annotated[int, "[1, inf)"] = 4
    prune_critic: bool = False
    greedy_levels: Annotated[int, "[1, inf)"] = 16
    greedy_epsilon: Annotated[float, "[0, 1]"] = 0.1
    episodes: Annotated[int, "[1, inf)"] = 300
    seeds: list[Annotated[int, "[0, inf)"]] = field(default_factory=lambda: [0])
    out: str = "results"

    def validate(self):
        """Check every field; construction does not, so fields may be edited first."""
        _domain.check(self)
        _checked_ranges(self.ranges)
        _checked_seeds("seeds", self.seeds)
        return self


def _checked_seeds(label: str, seeds) -> list[int]:
    """seeds in ExperimentConfig.seeds's declared domain, none repeated."""
    seeds = _domain.checked(label, _domain.hints(ExperimentConfig)["seeds"], seeds)
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"{label} must not repeat, got {seeds}")
    return seeds


def _check_range(key: str, lo: float, hi: float) -> None:
    if not all(math.isfinite(v) for v in (lo, hi, hi - lo)):
        raise ConfigError(f"range for {key!r} must be finite with a finite "
                          f"width: [{lo}, {hi}]")
    if lo > hi:
        raise ConfigError(f"empty range for {key!r}: [{lo}, {hi}]")


# The instance section's keys and the fields they set; no other key sets these.
_INSTANCE_KEYS = {"I": "num_uavs", "J": "num_rsus", "ranges": "ranges"}


def _load(label: str, hint, value, current, keys: dict | None = None):
    """The value read for a field at file key label: a mapping is applied onto current
    (through keys, default each field by name, for a dataclass); else it is checked."""
    if is_dataclass(hint) and isinstance(value, dict):
        hints = _domain.hints(hint)
        keys = keys or dict(zip(hints, hints))
        changes = {}
        for key, item in value.items():
            path = f"{label}.{key}".lstrip(".")
            if key not in keys:
                raise ConfigError(f"unknown config option {path!r}")
            changes[keys[key]] = _load(path, hints[keys[key]], item,
                                       getattr(current, keys[key]))
        return replace(current, **changes)
    if isinstance(current, dict) and isinstance(value, dict):  # partial ranges
        value = {**current, **value}
    return _domain.checked(label, hint, value)


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
    import yaml  # only here, so importing the package does not load it

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
    directory: one experiment gets one digest wherever it is written. A value
    JSON cannot write, such as an unvalidated numpy int, raises TypeError."""
    doc = asdict(cfg)
    del doc["out"]
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Instance sampling
# ---------------------------------------------------------------------------

def sample_instance(ranges: dict, num_uavs: int, num_rsus: int,
                    seed: int | np.random.Generator) -> GameInstance:
    """Uniform per-entity draws from the parameter ranges; deterministic per seed.

    The market's arrays are built straight from the draws, and its profiles
    only when something reads ``uavs`` or ``rsus``.
    """
    full = _checked_ranges(ranges)
    return _market(full, *_unit_draws(seed, num_uavs, num_rsus))


def _checked_ranges(ranges: dict) -> dict:
    """The default ranges updated with ranges, each checked, then cost against cap."""
    for key in ranges:
        if key not in DEFAULT_RANGES:
            raise ConfigError(f"unknown parameter range {key!r}")
    full = {**DEFAULT_RANGES, **ranges}
    for key in DEFAULT_RANGES:
        _check_range(key, *full[key])
    if full["bandwidth_cost"][1] > full["price_cap"][0]:
        raise ConfigError("bandwidth_cost range upper bound exceeds price_cap lower bound; "
                          "sampled boxes could be empty")
    return full


def _unit_draws(seed: int | np.random.Generator, num_uavs: int, num_rsus: int):
    """The unit draws in [0, 1) of every seller's and every buyer's row, in
    the columns _RSU_DRAWS and _UAV_DRAWS name, each row from its own entity's
    substream.

    One substream per entity index, so seller j (and buyer i) keeps the same
    draws whatever the market size, and a buyer's row for fewer sellers is a
    prefix of its row for more: a market is a prefix of any bigger market's
    draws, which run_sweep shares across its cells."""
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))
    rsu_parent, uav_parent = rng.spawn(2)

    def rows(parent, count, width):
        u = np.empty((count, width))
        for gen, row in zip(parent.spawn(count), u):
            gen.random(out=row)
        return u

    return (rows(rsu_parent, num_rsus, len(_RSU_DRAWS)),
            rows(uav_parent, num_uavs, len(_UAV_DRAWS) + 3 * num_rsus))


def _market(full: dict, rsu_units: np.ndarray, uav_units: np.ndarray) -> GameInstance:
    """The market of the unit draws scaled into the checked ranges full, as
    gen.uniform would draw them, bit for bit: one seller per row of
    rsu_units, one buyer per row of uav_units, whose columns past those
    sellers are ignored."""
    def scaled(keys, u):
        lo, hi = np.array([full[key] for key in keys], dtype=float).T
        return lo + (hi - lo) * u[:, :len(keys)]

    # The draws outside a parameter's domain (a negative budget, say) raise
    # ValueError; the ranges came from the config, so report a ConfigError.
    try:
        return GameInstance._from_draws(
            scaled(_RSU_DRAWS, rsu_units),
            scaled(_UAV_DRAWS + ("similarity",) * (3 * len(rsu_units)), uav_units))
    except ValueError as exc:
        raise ConfigError(f"sampled instance rejected: {exc}") from None


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class RunRecord:
    config_hash: str
    seed: int
    algorithm: str
    episode_rewards: np.ndarray      # episodes x agents (empty for solve runs)
    sparsity: np.ndarray             # per-episode mean sparsity (may be empty)
    theoretical: float
    consistent: bool
    wall_ms: float
    _TAIL_FRACTION = 0.1  # final_average's share of the episodes, from the last

    @property
    def run_id(self) -> str:
        return f"{self.algorithm}-{self.config_hash}-{self.seed}"

    @property
    def avg_rewards(self) -> np.ndarray:
        """Per-episode reward averaged across agents."""
        if self.episode_rewards.size == 0:
            return np.array([])
        return self.episode_rewards.mean(axis=1)

    def final_average(self) -> float:
        avg = self.avg_rewards
        if avg.size == 0:
            return self.theoretical
        k = max(1, int(round(self._TAIL_FRACTION * avg.size)))
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
    results, and the time its agents take, as the group's loop measures it. A
    learned run acts, records and updates through the group's _Stack, which
    bills it a share of its time."""

    def __init__(self, cfg: ExperimentConfig, env: PricingEnv, algorithm: str,
                 seed: int, row: int):
        self.algorithm = algorithm
        self.row = row
        self.agents = _build_agents(cfg, env, algorithm, seed)
        self.policy_rngs = [named_rng(seed, f"policy:{j}") for j in range(env.num_agents)]
        self.learned = algorithm in ("ppo", "tiny_madrl")
        self.episode_rewards = np.zeros((cfg.episodes, env.num_agents))
        self.sparsity = np.zeros(cfg.episodes if algorithm == "tiny_madrl" else 0)
        self.agent_s = 0.0

    def act(self, obs: np.ndarray, prices: np.ndarray):
        """Write each baseline agent's price row for its observation into prices."""
        for j, agent in enumerate(self.agents):
            prices[self.row, j] = agent.act(obs[self.row, j], self.policy_rngs[j])

    def record(self, out):
        if self.algorithm == "greedy":
            for agent, margins in zip(self.agents, out.margins[self.row]):
                agent.update(margins)

    def end_episode(self, episode: int, rewards: np.ndarray):
        self.episode_rewards[episode] = rewards[self.row]
        if self.algorithm == "tiny_madrl":
            for agent in self.agents:
                agent.prune_step(episode)
            self.sparsity[episode] = float(np.mean(
                [a.current_sparsity() for a in self.agents]))


class _Stack:
    """Every seller of a group's learned runs in one PpoAgent.stack, in run
    order; each seller keeps its run's policy stream. Its time, as the group's
    loop measures it, is billed to those runs in equal shares."""

    def __init__(self, runs: list[_Run]):
        self.runs = runs
        self.rows = np.array([run.row for run in runs])
        self.agent = PpoAgent.stack([a for run in runs for a in run.agents])
        self.rngs = [rng for run in runs for rng in run.policy_rngs]
        self.agent_s = 0.0

    def act(self, obs: np.ndarray, prices: np.ndarray):
        self._obs = obs[self.rows].reshape(len(self.rngs), -1)
        stack_prices, *self._acted = self.agent.act(self._obs, self.rngs)
        prices[self.rows] = stack_prices.reshape(len(self.runs), *prices.shape[1:])

    def record(self, out):
        u, log_prob, value = self._acted
        self.agent.record(self._obs, u, log_prob, out.rewards[self.rows].reshape(-1),
                          value, out.done)

    def bill(self):
        for run in self.runs:
            run.agent_s += self.agent_s / len(self.runs)


def _sample(cfg: ExperimentConfig, seed: int) -> GameInstance:
    return sample_instance(cfg.ranges, cfg.num_uavs, cfg.num_rsus,
                           named_rng(seed, "instance"))


def _timed(unit, call, *args):
    """call(*args), its duration added to unit.agent_s."""
    start = time.perf_counter()
    call(*args)
    unit.agent_s += time.perf_counter() - start


def run_training_group(cfg: ExperimentConfig, algorithms, seed: int) -> list[RunRecord]:
    """The seed's solve record, then one record per algorithm; the algorithms
    train one agent per seller each, in lock step.

    The runs share the solve's instance and reference and one env with a run
    axis, so a round is one env step for every run. Every learned seller sits
    in one PpoAgent.stack, so a round makes one actor and one critic pass for
    all of them. Each run keeps its own agents and named streams, so its
    record equals the one it gets alone. The config is hashed before any
    work; with no algorithms no env is built. The solve record's wall_ms
    spans sampling, solving and verifying; a training record's is its agent
    time (a learned run's share of the stack's included) plus an equal share
    of the rest: the env, its steps and the loop. All sum to the group's time.
    """
    digest, start = config_hash(cfg), time.perf_counter()
    instance = _sample(cfg, seed)
    solve = _solve_record(seed, instance, start, digest)
    if not algorithms:
        return [solve]
    start += solve.wall_ms / 1000.0  # the rest of the group, shared by its runs
    env = PricingEnv(instance, cfg.env, runs=len(algorithms))
    runs = [_Run(cfg, env, algorithm, seed, k) for k, algorithm in enumerate(algorithms)]
    learned = [run for run in runs if run.learned]
    stack = _Stack(learned) if learned else None
    units = [run for run in runs if not run.learned] + ([stack] if stack else [])
    steps = cfg.env.episode_length
    prices = np.empty((len(runs), env.num_agents, env.num_uavs))

    for episode in range(cfg.episodes):
        if stack:
            _timed(stack, stack.agent.set_progress, episode / max(cfg.episodes - 1, 1))
        obs = env.reset()
        ep_rewards = np.zeros((len(runs), env.num_agents))
        for _ in range(steps):
            for unit in units:
                _timed(unit, unit.act, obs, prices)
            out = env.step(prices)
            if not np.isfinite(out.rewards).all():
                first = np.flatnonzero(~np.isfinite(out.rewards).all(axis=1))[0]
                algorithm = runs[first].algorithm
                raise RuntimeError(
                    f"non-finite reward in episode {episode} ({algorithm})")
            for unit in units:
                _timed(unit, unit.record, out)
            ep_rewards += out.rewards
            obs = out.next_observations
        if stack:
            _timed(stack, stack.agent.ppo_update)  # before the tiny runs prune
        for run in runs:
            _timed(run, run.end_episode, episode, ep_rewards / steps)

    if stack:
        stack.bill()
    share_s = (time.perf_counter() - start - sum(run.agent_s for run in runs)) / len(runs)
    return [solve] + [RunRecord(digest, seed, run.algorithm, run.episode_rewards, run.sparsity,
                                solve.theoretical, solve.consistent,
                                (run.agent_s + share_s) * 1000.0) for run in runs]


def run_training(cfg: ExperimentConfig, algorithm: str, seed: int) -> RunRecord:
    """Train one agent per seller for the configured episodes: a group of one."""
    return run_training_group(cfg, [algorithm], seed)[1]


def run_solve(cfg: ExperimentConfig, seed: int) -> RunRecord:
    """Solve and verify one sampled instance's equilibrium: a group of none."""
    return run_training_group(cfg, (), seed)[0]


def _solve_record(seed: int, instance: GameInstance, start: float, cfg_hash: str) -> RunRecord:
    """The solve record of a sampled instance, timed from start."""
    theoretical, consistent = theoretical_baseline(instance)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return RunRecord(cfg_hash, seed, "solve", np.zeros((0, 0)), np.array([]),
                     theoretical, consistent, wall_ms)


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
        numbers_only = all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                           for v in self.grid)
        if self.parameter in ("I", "J"):
            if not (numbers_only and all(float(v).is_integer() and v >= 1
                                         for v in self.grid)):
                raise ConfigError(f"sweep grid for {self.parameter} must hold "
                                  f"whole numbers >= 1, got {list(self.grid)}")
            self.grid = [int(v) for v in self.grid]
        elif not (numbers_only and all(math.isfinite(v) and v > 0 for v in self.grid)):
            raise ConfigError(f"sweep grid for {self.parameter} must hold finite "
                              f"positive values, got {list(self.grid)}")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("sweep grid must be strictly increasing")
        self.seeds = _checked_seeds("sweep seeds", self.seeds)


def _apply_sweep_value(cfg: ExperimentConfig, parameter: str, value):
    if parameter in ("I", "J"):
        return replace(cfg, **{_INSTANCE_KEYS[parameter]: value})
    # one scalar cost (or cap) for every seller
    key = "bandwidth_cost" if parameter == "c" else "price_cap"
    return replace(cfg, ranges={**cfg.ranges, key: (float(value), float(value))})


def run_sweep(cfg: ExperimentConfig, spec: SweepSpec):
    """Analytic runs over a parameter grid.

    Returns (records, aggregate) where aggregate maps grid value to the
    mean/sd of the equilibrium average reward across seeds. Each record equals
    the cell's own run_solve record, apart from wall_ms.

    Each seed's unit draws are made once, at the grid's largest market, and
    every cell builds its market from a prefix of them in its own ranges,
    which is the market its own sample_instance draws, bit for bit. A
    record's wall_ms is its cell's own time plus an equal share of its seed's
    draw time. Each cell's config is hashed once, for all its seeds.
    """
    subs = [_apply_sweep_value(cfg, spec.parameter, value) for value in spec.grid]
    if not subs:
        return [], {}
    I = max(sub.num_uavs for sub in subs)
    J = max(sub.num_rsus for sub in subs)
    draws = []
    for seed in spec.seeds:
        start = time.perf_counter()
        units = _unit_draws(named_rng(seed, "instance"), I, J)
        draws.append((units, (time.perf_counter() - start) / len(subs)))
    records = []
    aggregate = {}
    for value, sub in zip(spec.grid, subs):
        full = _checked_ranges(sub.ranges)
        cfg_hash = config_hash(sub)
        cell = []
        for seed, ((rsu_units, uav_units), share) in zip(spec.seeds, draws):
            start = time.perf_counter() - share
            instance = _market(full, rsu_units[:sub.num_rsus], uav_units[:sub.num_uavs])
            rec = _solve_record(seed, instance, start, cfg_hash)
            records.append(rec)
            cell.append(rec.theoretical)
        aggregate[value] = (float(np.mean(cell)), float(np.std(cell)))
    return records, aggregate


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def record_rows(record: RunRecord) -> list[dict]:
    """Flatten a run into CSV rows (fixed column order)."""
    rows, run_id = [], record.run_id
    if record.episode_rewards.size == 0:
        rows.append({
            "run_id": run_id, "seed": record.seed, "episode": 0,
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
                "run_id": run_id, "seed": record.seed, "episode": episode,
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
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"unknown format {fmt!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [row for rec in sorted(records, key=lambda r: (r.run_id, r.seed))
            for row in record_rows(rec)]
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
