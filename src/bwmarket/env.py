"""Episodic multi-agent environment wrapping the pricing game.

Each seller is an agent whose action is its per-buyer price row.  A step
computes the buyers' exact best responses, pays each seller its margin as the
reward, and shifts a length-L history of normalized (price row, demand column)
pairs that forms each agent's observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .game import (
    DemandMatrix,
    GameInstance,
    _market_arrays,
    _respond,
    _seller_margins,
    solve_equilibrium,
)

WARMUP_ZEROS = "zeros"
WARMUP_UNIFORM = "uniform_random"


def default_demand_scale(instance: GameInstance) -> float:
    """Upper bound on any single demand: delta_max * ln(1/min threshold) / c_min."""
    delta_max = max(u.delta for u in instance.uavs)
    th_min = min(u.ssim_threshold for u in instance.uavs)
    c_min = min(r.bandwidth_cost for r in instance.rsus)
    return delta_max * math.log(1.0 / th_min) / c_min


@dataclass
class EnvConfig:
    history_length: int = 2
    episode_length: int = 10
    demand_scale: float | None = None  # None: derived from the instance
    warmup_policy: str = WARMUP_ZEROS

    def __post_init__(self):
        if self.history_length < 1:
            raise ValueError("history_length must be >= 1")
        if self.episode_length < self.history_length:
            raise ValueError("episode_length must be >= history_length")
        if self.warmup_policy not in (WARMUP_ZEROS, WARMUP_UNIFORM):
            raise ValueError(f"unknown warmup policy {self.warmup_policy!r}")


@dataclass
class StepOutcome:
    next_observations: list[np.ndarray]
    rewards: np.ndarray
    demands: DemandMatrix
    done: bool
    demand_clipped: bool = False


class PricingEnv:
    """Sequential single-writer environment; one agent per seller."""

    def __init__(self, instance: GameInstance, config: EnvConfig | None = None):
        self.instance = instance
        self.config = config or EnvConfig()
        self.num_agents = instance.num_rsus
        self.num_uavs = instance.num_uavs
        self._market = _market_arrays(instance)
        self.demand_scale = (self.config.demand_scale
                             if self.config.demand_scale is not None
                             else default_demand_scale(instance))
        if self.demand_scale <= 0:
            raise ValueError("demand_scale must be positive")
        self._history: list[list[tuple[np.ndarray, np.ndarray]]] = []
        self._t = 0

    @property
    def observation_dim(self) -> int:
        return 2 * self.num_uavs * self.config.history_length

    def reset(self, seed: int | np.random.Generator | None = None) -> list[np.ndarray]:
        """Fill the history per the warmup policy; deterministic given the seed."""
        rng = (seed if isinstance(seed, np.random.Generator)
               else np.random.default_rng(seed))
        L = self.config.history_length
        self._t = 0
        if self.config.warmup_policy == WARMUP_ZEROS:
            zero = np.zeros(self.num_uavs)
            self._history = [[(zero.copy(), zero.copy()) for _ in range(L)]
                             for _ in range(self.num_agents)]
        else:
            self._history = [[] for _ in range(self.num_agents)]
            for _ in range(L):
                prices = rng.uniform(self._market.c[:, None], self._market.cap[:, None],
                                     size=(self.num_agents, self.num_uavs))
                demands = _respond(self.instance, self._market, prices).demands
                for j in range(self.num_agents):
                    self._history[j].append(
                        (self._norm_prices(prices[j], j),
                         self._norm_demands(demands[:, j])[0]))
        return self.observations()

    def _norm_prices(self, price_row: np.ndarray, agent: int) -> np.ndarray:
        return price_row / self._market.cap[agent]

    def _norm_demands(self, demand_col: np.ndarray) -> tuple[np.ndarray, bool]:
        scaled = demand_col / self.demand_scale
        clipped = bool(np.any(scaled > 1.0))
        return np.clip(scaled, 0.0, 1.0), clipped

    def observations(self) -> list[np.ndarray]:
        """Per-agent flat vector: L (price row, demand column) pairs, newest last."""
        obs = []
        for j in range(self.num_agents):
            parts = []
            for p_norm, b_norm in self._history[j]:
                parts.append(p_norm)
                parts.append(b_norm)
            obs.append(np.concatenate(parts))
        return obs

    def clamp_action(self, price_row, agent: int) -> np.ndarray:
        return np.clip(np.asarray(price_row, dtype=float),
                       self._market.c[agent], self._market.cap[agent])

    def step(self, joint_prices) -> StepOutcome:
        """Advance one game round given each agent's price row (clamped into its box)."""
        prices = np.stack([self.clamp_action(row, j)
                           for j, row in enumerate(joint_prices)])
        demands = _respond(self.instance, self._market, prices)
        rewards = _seller_margins(prices, demands.demands, self._market.c)
        clipped = False
        for j in range(self.num_agents):
            b_norm, c = self._norm_demands(demands.demands[:, j])
            clipped = clipped or c
            self._history[j].pop(0)
            self._history[j].append((self._norm_prices(prices[j], j), b_norm))
        self._t += 1
        done = self._t >= self.config.episode_length
        return StepOutcome(self.observations(), rewards, demands, done, clipped)


def theoretical_baseline(instance: GameInstance) -> tuple[float, bool]:
    """Mean seller utility at the analytic equilibrium; flag is False on an
    inconsistent solve."""
    sol = solve_equilibrium(instance)
    return float(np.mean(sol.rsu_utilities)), sol.consistent
