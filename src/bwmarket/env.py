"""Episodic multi-agent environment wrapping the pricing game.

Each seller is an agent whose action is its per-buyer price row.  A step
computes the buyers' exact best responses, pays each seller its margin as the
reward, and shifts the history forward by one slot.  The history is one
(agents, L, 2, buyers) array of normalized (price row, demand column) pairs,
newest last; an agent's observation is its slice, flattened.

``PricingEnv(instance, config, runs=E)`` steps E independent runs on the same
instance in lock step: every array gains a leading run axis (prices E x J x I,
history E x J x L x 2 x I), and one step solves all E markets in one kernel
call.  With ``runs=None`` there is no run axis; it is the same code path.

What a run takes from its market is derived here from the instance alone: the
demand scale is the market's own bound on any demand, and the reference is
``theoretical_baseline``'s solved and verified equilibrium.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ._domain import check
from .game import (GameInstance, _batched_follower_demands, _margins, solve_equilibrium,
                   verify_equilibrium)


def default_demand_scale(instance: GameInstance) -> float:
    """Upper bound on any single demand: delta_max * ln(1/min threshold) / c_min.
    A demand is below delta * S / p, with S <= ln(1/threshold) and p >= c."""
    m = instance.arrays
    th_min = float(np.min(instance.ssim_thresholds))
    return float(np.max(m.delta) * math.log(1.0 / th_min) / np.min(m.c))


@dataclass
class EnvConfig:
    history_length: Annotated[int, "[1, inf)"] = 2
    episode_length: Annotated[int, "[1, inf)"] = 10

    def __post_init__(self):
        check(self)
        if self.episode_length < self.history_length:
            raise ValueError("episode_length must be >= history_length")


@dataclass(eq=False)
class StepOutcome:
    """One round's result; with a run axis every array gains a leading E."""

    next_observations: np.ndarray   # agents x observation_dim
    rewards: np.ndarray             # agents
    demands: np.ndarray             # buyers x agents
    done: bool
    demand_clipped: bool            # in any run; False, by demand_scale's bound
    margins: np.ndarray             # agents x buyers; row sums are the rewards


class PricingEnv:
    """Sequential single-writer environment; one agent per seller, and
    optionally E runs of them stepped together (see the module docstring)."""

    def __init__(self, instance: GameInstance, config: EnvConfig | None = None,
                 runs: int | None = None):
        if runs is not None and runs < 1:
            raise ValueError("runs must be >= 1")
        self.instance = instance
        self.config = config or EnvConfig()
        self.runs = runs
        self.num_agents = instance.num_rsus
        self.num_uavs = instance.num_uavs
        self._market = instance.arrays
        # an extreme hand-built market can overflow the bound
        self.demand_scale = default_demand_scale(instance)
        if not 0.0 < self.demand_scale < math.inf:
            raise ValueError("demand_scale must be finite and positive")
        self._lead = () if runs is None else (runs,)
        # [run x] agent x time slot (newest last) x (price, demand) x buyer, normalized
        self._history = np.zeros(self._lead + (self.num_agents,
                                               self.config.history_length,
                                               2, self.num_uavs))
        self._t = 0

    @property
    def observation_dim(self) -> int:
        return 2 * self.num_uavs * self.config.history_length

    def reset(self) -> np.ndarray:
        """Start an episode from an all-zero history."""
        self._t = 0
        self._history[:] = 0.0
        return self.observations()

    def _shift(self, prices: np.ndarray, demands: np.ndarray) -> bool:
        """Drop the oldest slot, write the normalized newest one; True if any
        normalized demand exceeds 1, which demand_scale's bound rules out."""
        history = self._history
        history[..., :-1, :, :] = history[..., 1:, :, :]
        np.divide(prices, self._market.cap[:, None], out=history[..., -1, 0, :])
        np.divide(demands.swapaxes(-1, -2), self.demand_scale, out=history[..., -1, 1, :])
        return bool((history[..., -1, 1, :] > 1.0).any())

    def observations(self) -> np.ndarray:
        """One fresh row per agent: L (price row, demand column) pairs, newest last."""
        return self._history.reshape(self._lead + (self.num_agents, -1)).copy()

    def step(self, joint_prices) -> StepOutcome:
        """Advance one game round given each agent's price row (clamped into
        its box), for every run at once when there is a run axis."""
        prices = np.asarray(joint_prices, dtype=float, order="C")
        shape = self._lead + (self.num_agents, self.num_uavs)
        if prices.shape != shape:
            raise ValueError(f"expected shape {shape}, got {prices.shape}")
        # np.clip(prices, c, cap) bit for bit, since 0 < c <= cap. np.maximum
        # returns a fresh array, so the caller's prices are never written
        prices = np.maximum(prices, self._market.c[:, None])
        np.minimum(prices, self._market.cap[:, None], out=prices)
        demands = _batched_follower_demands(prices, self._market)[0]
        margins = _margins(prices, demands, self._market.c)
        clipped = self._shift(prices, demands)
        self._t += 1
        done = self._t >= self.config.episode_length
        return StepOutcome(self.observations(), np.add.reduce(margins, axis=-1), demands,
                           done, clipped, margins)


def theoretical_baseline(instance: GameInstance) -> tuple[float, bool]:
    """Mean seller utility at the analytic equilibrium, and whether it holds:
    the solve is consistent and verify_equilibrium passes it. The check runs
    on every solve, so every solve, sweep and training record takes its
    reference and its consistent flag from here."""
    sol = solve_equilibrium(instance)
    verified = verify_equilibrium(instance, sol).passed
    return float(np.mean(sol.rsu_utilities)), sol.consistent and verified
