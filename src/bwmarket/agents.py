"""Pricing policies over the environment: PPO, PPO + dynamic pruning, bandit, random.

Each seller trains its own actor-critic pair on its local observation; there is
no parameter sharing or centralized critic.  The Tiny variant interleaves the
PPO updates with the cubic sparsity schedule and compacts the actor at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tinynet import (
    PrunableMlp,
    PruneSchedule,
    compact,
    sparsity_at,
    update_masks,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass
class PpoConfig:
    discount: float = 0.95
    clip: float = 0.2
    actor_lr: float = 3e-3
    critic_lr: float = 1e-2
    rollout_size: int = 80
    update_epochs: int = 10
    policy_std: float = 0.3        # exploration std in squashed [0,1] units
    final_policy_std: float = 0.02
    action_headroom: float = 1.0   # squashed range overshoot past the price cap
    hidden_sizes: tuple[int, ...] = (64, 64)
    normalize_advantages: bool = True
    normalize_rewards: bool = True  # divide by a running max inside the agent

    def __post_init__(self):
        if not 0.0 <= self.discount < 1.0:
            raise ValueError("discount must lie in [0, 1)")
        if not 0.0 < self.clip < 1.0:
            raise ValueError("clip must lie in (0, 1)")
        if self.policy_std <= 0 or self.final_policy_std <= 0:
            raise ValueError("exploration std must be positive")
        if self.action_headroom < 0.0:
            raise ValueError("action headroom must be nonnegative")
        if self.rollout_size < 1 or self.update_epochs < 1:
            raise ValueError("rollout_size and update_epochs must be >= 1")
        if not self.hidden_sizes or min(self.hidden_sizes) < 1:
            raise ValueError("hidden_sizes must be a non-empty list of sizes >= 1")


@dataclass
class RolloutBuffer:
    """On-policy record store, cleared after every update."""

    capacity: int
    observations: list = field(default_factory=list)
    actions: list = field(default_factory=list)       # squashed [0,1] actions
    log_probs: list = field(default_factory=list)
    rewards: list = field(default_factory=list)
    values: list = field(default_factory=list)
    dones: list = field(default_factory=list)

    def add(self, obs, action, log_prob, reward, value, done):
        self.observations.append(np.asarray(obs, dtype=float))
        self.actions.append(np.asarray(action, dtype=float))
        self.log_probs.append(float(log_prob))
        self.rewards.append(float(reward))
        self.values.append(float(value))
        self.dones.append(bool(done))

    def __len__(self):
        return len(self.rewards)

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    def clear(self):
        for name in ("observations", "actions", "log_probs", "rewards",
                     "values", "dones"):
            getattr(self, name).clear()


def compute_advantages(buffer: RolloutBuffer, discount: float,
                       normalize: bool = False):
    """Monte-Carlo returns truncated at episode boundaries; advantage = G - V."""
    n = len(buffer)
    returns = np.zeros(n)
    running = 0.0
    for t in reversed(range(n)):
        if buffer.dones[t]:
            running = 0.0
        running = buffer.rewards[t] + discount * running
        returns[t] = running
    advantages = returns - np.asarray(buffer.values)
    if normalize and n > 1:
        std = advantages.std()
        if std > 1e-8:
            advantages = (advantages - advantages.mean()) / std
    return advantages, returns


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class PpoAgent:
    """Gaussian policy over squashed (0,1) actions mapped affinely into the price box."""

    def __init__(self, obs_dim: int, box_low, box_high,
                 config: PpoConfig | None = None,
                 rng: np.random.Generator | None = None):
        self.config = config or PpoConfig()
        self.box_low = np.asarray(box_low, dtype=float)
        self.box_high = np.asarray(box_high, dtype=float)
        self.action_dim = len(self.box_low)
        rng = rng or np.random.default_rng()
        sizes = [obs_dim, *self.config.hidden_sizes, self.action_dim]
        self.actor = PrunableMlp.create(sizes, rng=rng)
        self.critic = PrunableMlp.create([obs_dim, *self.config.hidden_sizes, 1],
                                         rng=rng)
        self.buffer = RolloutBuffer(self.config.rollout_size)
        self.std = self.config.policy_std
        self._reward_scale = 1.0
        self.update_count = 0
        self.aborted_updates = 0

    # -- exploration ---------------------------------------------------------

    def set_progress(self, fraction: float):
        """Linearly anneal the exploration std over training (fraction in [0,1])."""
        f = min(max(fraction, 0.0), 1.0)
        self.std = (self.config.policy_std
                    + f * (self.config.final_policy_std - self.config.policy_std))

    # -- acting --------------------------------------------------------------

    def _policy_mean(self, obs):
        z, _ = self.actor.forward(obs)
        return _sigmoid(z)

    def _log_prob(self, u, mean):
        resid = (u - mean) / self.std
        return np.sum(-0.5 * resid ** 2 - math.log(self.std) - _LOG_SQRT_2PI,
                      axis=-1)

    def act(self, obs, rng: np.random.Generator, deterministic: bool = False):
        """Returns (price_row, squashed_action, log_prob, value)."""
        mean = self._policy_mean(obs)
        if deterministic:
            u = mean.copy()
        else:
            u = np.clip(mean + self.std * rng.standard_normal(self.action_dim),
                        0.0, 1.0)
        log_prob = float(self._log_prob(u, mean))
        value_out, _ = self.critic.forward(obs)
        # The squashed range overshoots the cap so the mean can saturate at a
        # boundary optimum; the overshoot is clipped back into the box.
        span = (1.0 + self.config.action_headroom) * (self.box_high - self.box_low)
        prices = np.minimum(self.box_low + u * span, self.box_high)
        return prices, u, log_prob, float(value_out[0])

    def record(self, obs, action, log_prob, reward, value, done):
        if self.config.normalize_rewards:
            self._reward_scale = max(self._reward_scale, abs(reward))
        self.buffer.add(obs, action, log_prob, reward / self._reward_scale, value,
                        done)

    # -- updating ------------------------------------------------------------

    def _snapshot(self):
        return ([l.weights.copy() for l in self.actor.layers],
                [l.weights.copy() for l in self.critic.layers])

    def _restore(self, snap):
        for l, w in zip(self.actor.layers, snap[0]):
            l.weights[...] = w
        for l, w in zip(self.critic.layers, snap[1]):
            l.weights[...] = w

    def ppo_update(self) -> dict | None:
        """Clipped-surrogate actor ascent + squared-error critic descent.

        No-op until the rollout buffer is full; the buffer is cleared after a
        successful update.  A non-finite loss aborts and restores the weights.
        """
        if not self.buffer.full:
            return None
        cfg = self.config
        X = np.stack(self.buffer.observations)
        U = np.stack(self.buffer.actions)
        logp_old = np.asarray(self.buffer.log_probs)
        advantages, returns = compute_advantages(
            self.buffer, cfg.discount, normalize=cfg.normalize_advantages)
        n = len(self.buffer)
        snap = self._snapshot()
        diag = {"actor_loss": [], "critic_loss": [], "mean_ratio": []}

        for _ in range(cfg.update_epochs):
            # actor: maximize mean min(f*A, clip(f)*A)
            Z, cache = self.actor.forward(X)
            mean = _sigmoid(Z)
            logp_new = self._log_prob(U, mean)
            ratio = np.exp(logp_new - logp_old)
            eta = np.clip(ratio, 1.0 - cfg.clip, 1.0 + cfg.clip)
            surrogate = np.minimum(ratio * advantages, eta * advantages)
            actor_loss = float(np.mean(surrogate))
            unclipped = ratio * advantages <= eta * advantages
            dL_dlogp = np.where(unclipped, ratio * advantages, 0.0) / n
            dZ = (dL_dlogp[:, None] * (U - mean) / self.std ** 2
                  * mean * (1.0 - mean))

            # critic: minimize mean (V - G)^2
            V, vcache = self.critic.forward(X)
            critic_loss = float(np.mean((V[:, 0] - returns) ** 2))
            dV = (2.0 * (V[:, 0] - returns) / n)[:, None]

            if not (np.isfinite(actor_loss) and np.isfinite(critic_loss)
                    and np.all(np.isfinite(dZ))):
                self._restore(snap)
                self.aborted_updates += 1
                return {"aborted": True}

            a_grads, _ = self.actor.backward(cache, dZ)
            c_grads, _ = self.critic.backward(vcache, dV)
            for layer, g in zip(self.actor.layers, a_grads):
                layer.weights += cfg.actor_lr * g
            for layer, g in zip(self.critic.layers, c_grads):
                layer.weights -= cfg.critic_lr * g

            diag["actor_loss"].append(actor_loss)
            diag["critic_loss"].append(critic_loss)
            diag["mean_ratio"].append(float(np.mean(ratio)))

        self.buffer.clear()
        self.update_count += 1
        diag["aborted"] = False
        return diag


class TinyMadrlAgent(PpoAgent):
    """PPO plus the dynamic structured-pruning schedule on the actor network.

    The critic trains unpruned by default; the final schedule epoch compacts
    the actor and reports the physically smaller model.
    """

    def __init__(self, obs_dim: int, box_low, box_high,
                 schedule: PruneSchedule,
                 config: PpoConfig | None = None,
                 rng: np.random.Generator | None = None,
                 floor_neurons: int = 4,
                 prune_critic: bool = False):
        super().__init__(obs_dim, box_low, box_high, config, rng)
        self.schedule = schedule
        self.floor_neurons = floor_neurons
        self.prune_critic = prune_critic
        self.compact_actor: PrunableMlp | None = None

    def current_sparsity(self) -> float:
        total = sum(self.actor.hidden_sizes())
        active = sum(m.sum() for m in self.actor.masks)
        return 1.0 - active / total

    def tiny_madrl_step(self, epoch: int) -> dict:
        """One training epoch: PPO update, then scheduled mask refresh/compaction."""
        diag = self.ppo_update() or {}
        pruned = False
        if self.schedule.is_update_epoch(epoch):
            threshold = update_masks(self.actor, self.schedule, epoch,
                                     self.floor_neurons)
            if self.prune_critic:
                update_masks(self.critic, self.schedule, epoch, self.floor_neurons)
            diag["threshold"] = threshold
            pruned = True
        if epoch == self.schedule.end_epoch:
            self.compact_actor = compact(self.actor)
        diag.update({
            "epoch": epoch,
            "pruned": pruned,
            "sparsity": self.current_sparsity(),
            "scheduled_sparsity": sparsity_at(self.schedule, epoch),
        })
        return diag


class GreedyAgent:
    """Epsilon-greedy bandit over discretized prices, one arm table per buyer.

    Uses only its own observed margins, never the buyers' private parameters.
    """

    def __init__(self, box_low, box_high, num_levels: int = 16,
                 epsilon: float = 0.1):
        self.box_low = np.asarray(box_low, dtype=float)
        self.box_high = np.asarray(box_high, dtype=float)
        self.num_uavs = len(self.box_low)
        self.num_levels = num_levels
        self.epsilon = epsilon
        self.levels = np.linspace(0.0, 1.0, num_levels)
        self.means = np.zeros((self.num_uavs, num_levels))
        self.counts = np.zeros((self.num_uavs, num_levels), dtype=int)
        self._last_choice = np.zeros(self.num_uavs, dtype=int)
        self._buyers = np.arange(self.num_uavs)

    def act(self, observation, rng: np.random.Generator) -> np.ndarray:
        prices = np.empty(self.num_uavs)
        for i in range(self.num_uavs):
            if self.counts[i].sum() == 0 or rng.uniform() < self.epsilon:
                k = int(rng.integers(self.num_levels))
            else:
                k = int(np.argmax(self.means[i]))
            self._last_choice[i] = k
            prices[i] = (self.box_low[i]
                         + self.levels[k] * (self.box_high[i] - self.box_low[i]))
        # low + 1.0 * (high - low) can round one ulp above high
        return np.minimum(prices, self.box_high)

    def update(self, per_uav_margins) -> None:
        """Feed back the (price - cost) * demand margin earned per buyer."""
        arm = (self._buyers, self._last_choice)   # one arm per buyer
        self.counts[arm] += 1
        self.means[arm] += ((np.asarray(per_uav_margins, dtype=float) - self.means[arm])
                            / self.counts[arm])


class RandomAgent:
    """Uniform pricing inside the box."""

    def __init__(self, box_low, box_high):
        self.box_low = np.asarray(box_low, dtype=float)
        self.box_high = np.asarray(box_high, dtype=float)

    def act(self, observation, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.box_low, self.box_high)
