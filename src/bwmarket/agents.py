"""Pricing policies over the environment: PPO, PPO + dynamic pruning, bandit, random.

Each seller trains its own actor-critic pair on its local observation; there is
no parameter sharing or centralized critic.  The Tiny variant interleaves the
PPO updates with the cubic sparsity schedule and compacts the actor at the end.
A stack of PPO agents (PpoAgent.stack) keeps the sellers' nets, rollouts and
updates apart on a leading axis and runs each step for all of them at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from ._domain import check
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
    discount: Annotated[float, "[0, 1)"] = 0.95
    clip: Annotated[float, "(0, 1)"] = 0.2
    actor_lr: Annotated[float, "(0, inf)"] = 3e-3
    critic_lr: Annotated[float, "(0, inf)"] = 1e-2
    rollout_size: Annotated[int, "[1, inf)"] = 80
    update_epochs: Annotated[int, "[1, inf)"] = 10
    policy_std: Annotated[float, "(0, inf)"] = 0.3  # exploration std in squashed [0,1] units
    final_policy_std: Annotated[float, "(0, inf)"] = 0.02
    action_headroom: Annotated[float, "[0, inf)"] = 1.0  # squashed overshoot past the cap
    hidden_sizes: tuple[Annotated[int, "[1, inf)"], ...] = (64, 64)

    def __post_init__(self):
        check(self)


class RolloutBuffer:
    """On-policy record store with preallocated rows, discarded after every update.

    The first add allocates one array per field with room for capacity rows,
    shaped by that add's arguments. A stack of K sellers adds one row per
    seller at once, with a (K,) log_prob, into (K, capacity, ...) arrays.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.size = 0
        self._arrays = None
        self._lead = 0     # number of seller axes before the row axis

    def add(self, obs, action, log_prob, reward, value, done):
        row = (obs, action, log_prob, reward, value, done)
        if self._arrays is None:   # later rows are cast as they are stored
            row = ([np.asarray(v, dtype=float) for v in row[:-1]]
                   + [np.asarray(done, dtype=bool)])
            sellers = row[2].shape     # log_prob has one entry per seller
            self._lead = len(sellers)
            self._arrays = [np.empty((*sellers, self.capacity, *v.shape[self._lead:]),
                                     v.dtype) for v in row]
        rows = (slice(None),) * self._lead
        if self.size == self._arrays[0].shape[self._lead]:
            # rows recorded past capacity before the next update are kept too
            self._arrays = [np.concatenate([a, np.empty_like(a)], axis=self._lead)
                            for a in self._arrays]
        for a, v in zip(self._arrays, row):
            a[rows + (self.size,)] = v
        self.size += 1

    def rollout(self):
        """Views of the rows added so far: (observations, actions, log_probs,
        rewards, values, dones), each with the row axis after the seller axes."""
        rows = (slice(None),) * self._lead + (slice(self.size),)
        return tuple(a[rows] for a in self._arrays)

    def __len__(self):
        return self.size

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    def clear(self):
        self.size = 0


def compute_advantages(buffer: RolloutBuffer, discount: float):
    """Monte-Carlo returns truncated at episode boundaries; advantage = G - V,
    standardised to mean 0 and std 1 over the rollout when it has more than
    one row and a spread above 1e-8.

    A stacked buffer gives (K, n) advantages and returns, one row per seller,
    each row standardised on its own.
    """
    n = len(buffer)
    _, _, _, rewards, values, dones = buffer.rollout()
    returns = np.zeros(rewards.shape)
    running = np.zeros(rewards.shape[:-1])
    for t in reversed(range(n)):
        running = rewards[..., t] + discount * np.where(dones[..., t], 0.0, running)
        returns[..., t] = running
    advantages = returns - values
    if n > 1:
        std = advantages.std(axis=-1, keepdims=True)
        spread = std > 1e-8
        centred = advantages - advantages.mean(axis=-1, keepdims=True)
        advantages = np.where(spread, centred / np.where(spread, std, 1.0), advantages)
    return advantages, returns


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class PpoAgent:
    """Gaussian policy over squashed (0,1) actions mapped affinely into the price box.

    PpoAgent.stack makes one agent over K sellers on a leading axis; the
    methods below serve both, the one seller being the case without that axis.
    """

    def __init__(self, obs_dim: int, box_low, box_high, config: PpoConfig,
                 rng: np.random.Generator):
        self.config = config
        self.box_low = np.asarray(box_low, dtype=float)
        self.box_high = np.asarray(box_high, dtype=float)
        self.action_dim = len(self.box_low)
        sizes = [obs_dim, *self.config.hidden_sizes, self.action_dim]
        self.actor = PrunableMlp.create(sizes, rng=rng)
        self.critic = PrunableMlp.create([obs_dim, *self.config.hidden_sizes, 1],
                                         rng=rng)
        self.buffer = RolloutBuffer(self.config.rollout_size)
        self.std = self.config.policy_std
        self._reward_scale = 1.0
        self.update_count = 0
        self.aborted_updates = 0
        self._sellers = [self]   # whose nets ppo_update trains, in stack order

    @staticmethod
    def stack(agents: list["PpoAgent"]) -> "PpoAgent":
        """One agent over the given agents' sellers, stacked on a leading axis.

        The stack's actor and critic take over the agents' nets
        (PrunableMlp.stack), so each agent's nets become views of its slice:
        pruning an agent prunes its slice, and the stack's updates reach the
        agent. The stack acts for every seller with one pass per net, taking
        (K, obs_dim) observations and one generator per seller, and records
        (K,) rewards into its own buffer; its ppo_update trains each agent on
        its slice of that rollout and counts into the agent's counters. The
        agents' own buffers stay empty.
        """
        config = agents[0].config
        if any(agent.config != config for agent in agents):
            raise ValueError("stacked agents must share one PpoConfig")
        stack = PpoAgent.__new__(PpoAgent)
        stack.config = config
        stack.box_low = np.stack([agent.box_low for agent in agents])
        stack.box_high = np.stack([agent.box_high for agent in agents])
        stack.action_dim = agents[0].action_dim
        stack.actor = PrunableMlp.stack([agent.actor for agent in agents])
        stack.critic = PrunableMlp.stack([agent.critic for agent in agents])
        stack.buffer = RolloutBuffer(config.rollout_size)
        stack.std = agents[0].std
        stack._reward_scale = np.array([agent._reward_scale for agent in agents])
        stack.update_count = stack.aborted_updates = 0   # the agents count
        stack._sellers = list(agents)
        return stack

    # -- exploration ---------------------------------------------------------

    def set_progress(self, fraction: float):
        """Linearly anneal the exploration std over training (fraction in [0,1])."""
        f = min(max(fraction, 0.0), 1.0)
        self.std = (self.config.policy_std
                    + f * (self.config.final_policy_std - self.config.policy_std))
        for seller in self._sellers:
            seller.std = self.std

    # -- acting --------------------------------------------------------------

    def _policy_mean(self, obs):
        z, _ = self.actor.forward(obs)
        return _sigmoid(z)

    def _log_prob(self, u, mean):
        resid = (u - mean) / self.std
        return np.add.reduce(-0.5 * resid ** 2 - math.log(self.std) - _LOG_SQRT_2PI,
                             axis=-1)

    def act(self, obs, rng, deterministic: bool = False):
        """Returns (price_row, squashed_action, log_prob, value).

        A stack takes one generator per seller, each drawing its seller's
        noise, and returns each item with a leading seller axis.
        """
        mean = self._policy_mean(obs)
        if deterministic:
            u = mean.copy()
        else:
            if isinstance(rng, np.random.Generator):
                noise = rng.standard_normal(self.action_dim)
            else:   # each seller's row from its own stream, in seller order
                noise = np.empty((len(rng), self.action_dim))
                for r, row in zip(rng, noise):
                    r.standard_normal(out=row)
            # np.clip(mean + std * noise, 0, 1) bit for bit, in place on the
            # fresh sum: the sum is never -0.0, as the sigmoid's mean is not
            u = mean + self.std * noise
            np.maximum(u, 0.0, out=u)
            np.minimum(u, 1.0, out=u)
        log_prob = self._log_prob(u, mean)
        value_out, _ = self.critic.forward(obs)
        # The squashed range overshoots the cap so the mean can saturate at a
        # boundary optimum; the overshoot is clipped back into the box.
        span = (1.0 + self.config.action_headroom) * (self.box_high - self.box_low)
        prices = np.minimum(self.box_low + u * span, self.box_high)
        return prices, u, log_prob, value_out[..., 0]

    def record(self, obs, action, log_prob, reward, value, done):
        """Store the step with its reward divided by the running max |reward|."""
        # fmax, like max(), keeps the scale when the reward is NaN
        self._reward_scale = np.fmax(self._reward_scale, np.abs(reward))
        self.buffer.add(obs, action, log_prob, reward / self._reward_scale, value,
                        done)

    # -- updating ------------------------------------------------------------

    def _snapshot(self):
        return [l.weights.copy() for l in (*self.actor.layers, *self.critic.layers)]

    def _restore(self, snap, sellers):
        """Put the snapshot's weights back for the sellers flagged in sellers."""
        for l, w in zip((*self.actor.layers, *self.critic.layers), snap):
            np.copyto(l.weights, w, where=sellers[..., None, None])

    def ppo_update(self) -> dict | list[dict] | None:
        """Clipped-surrogate actor ascent + squared-error critic descent.

        No-op until the rollout buffer is full. The rollout is then used once
        and discarded, also when the update aborts: a non-finite loss restores
        the seller's weights and ends its update. A stack updates all sellers
        at once, each on its own slice, and returns their diagnostics as a list.
        """
        if not self.buffer.full:
            return None
        cfg = self.config
        X, U, logp_old, _, _, _ = self.buffer.rollout()
        advantages, returns = compute_advantages(self.buffer, cfg.discount)
        self.buffer.clear()
        n = advantages.shape[-1]
        snap = self._snapshot()
        live = np.ones(advantages.shape[:-1], dtype=bool)   # not aborted
        history = {"actor_loss": [], "critic_loss": [], "mean_ratio": []}
        for _ in range(cfg.update_epochs):
            # actor: maximize mean min(f*A, clip(f)*A)
            Z, cache = self.actor.forward(X)
            mean = _sigmoid(Z)
            logp_new = self._log_prob(U, mean)
            ratio = np.exp(logp_new - logp_old)
            # np.clip(ratio, 1 - clip, 1 + clip), in place on a fresh array
            eta = np.maximum(ratio, 1.0 - cfg.clip)
            np.minimum(eta, 1.0 + cfg.clip, out=eta)
            fa, ea = ratio * advantages, eta * advantages
            actor_loss = np.add.reduce(np.minimum(fa, ea), axis=-1) / n   # the mean
            dL_dlogp = np.where(fa <= ea, fa, 0.0) / n   # the unclipped terms
            dZ = (dL_dlogp[..., None] * (U - mean) / self.std ** 2
                  * mean * (1.0 - mean))

            # critic: minimize mean (V - G)^2
            V, vcache = self.critic.forward(X)
            error = V[..., 0] - returns
            critic_loss = np.add.reduce(error ** 2, axis=-1) / n
            dV = (2.0 * error / n)[..., None]

            finite = (np.isfinite(actor_loss) & np.isfinite(critic_loss)
                      & np.isfinite(dZ).all(axis=(-2, -1)))
            if not np.all(finite[live]):
                self._restore(snap, live & ~finite)
                live &= finite
                if not live.any():
                    break
            a_grads = self.actor.backward(cache, dZ)
            c_grads = self.critic.backward(vcache, dV)
            step = live[..., None, None]   # an aborted seller keeps its weights
            for layer, g in zip(self.actor.layers, a_grads):
                g *= cfg.actor_lr
                np.add(layer.weights, g, out=layer.weights, where=step)
            for layer, g in zip(self.critic.layers, c_grads):
                g *= cfg.critic_lr
                np.subtract(layer.weights, g, out=layer.weights, where=step)
            history["actor_loss"].append(actor_loss)
            history["critic_loss"].append(critic_loss)
            history["mean_ratio"].append(np.add.reduce(ratio, axis=-1) / n)

        diags = []
        for k, seller in zip(np.ndindex(live.shape), self._sellers):
            if live[k]:
                seller.update_count += 1
                diags.append({name: [float(epoch[k]) for epoch in epochs]
                              for name, epochs in history.items()} | {"aborted": False})
            else:
                seller.aborted_updates += 1
                diags.append({"aborted": True})
        return diags if live.ndim else diags[0]


class TinyMadrlAgent(PpoAgent):
    """PPO plus the dynamic structured-pruning schedule on the actor network.

    The critic trains unpruned by default; the final schedule epoch compacts
    the actor and reports the physically smaller model.
    """

    def __init__(self, obs_dim: int, box_low, box_high, schedule: PruneSchedule,
                 config: PpoConfig, rng: np.random.Generator,
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
        diag.update(self.prune_step(epoch))
        return diag

    def prune_step(self, epoch: int) -> dict:
        """The schedule's part of an epoch: a mask refresh on its update
        epochs, compaction at its end. A stacked seller runs it after the
        stack's update."""
        diag = {}
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
        self._row_starts = np.arange(self.num_uavs) * num_levels

    def act(self, observation, rng: np.random.Generator) -> np.ndarray:
        # the uniform draw is made only for a buyer with a played arm, so the
        # draws stay a per-buyer loop
        tried = self.counts.any(axis=1)
        best = self.means.argmax(axis=1)
        for i in range(self.num_uavs):
            if not tried[i] or rng.random() < self.epsilon:
                self._last_choice[i] = rng.integers(self.num_levels)
            else:
                self._last_choice[i] = best[i]
        prices = (self.box_low
                  + self.levels[self._last_choice] * (self.box_high - self.box_low))
        # low + 1.0 * (high - low) can round one ulp above high
        return np.minimum(prices, self.box_high)

    def update(self, per_uav_margins) -> None:
        """Feed back the (price - cost) * demand margin earned per buyer."""
        arm = self._row_starts + self._last_choice   # one flat arm per buyer
        counts, means = self.counts.reshape(-1), self.means.reshape(-1)
        n, mean = counts[arm] + 1, means[arm]
        counts[arm] = n
        means[arm] = mean + (np.asarray(per_uav_margins, dtype=float) - mean) / n


class RandomAgent:
    """Uniform pricing inside the box."""

    def __init__(self, box_low, box_high):
        self.box_low = np.asarray(box_low, dtype=float)
        self.box_high = np.asarray(box_high, dtype=float)
        self.span = self.box_high - self.box_low

    def act(self, observation, rng: np.random.Generator) -> np.ndarray:
        # rng.uniform(low, high) draws low + (high - low) * random(), but pays
        # numpy's broadcasting set-up on every call
        return self.box_low + self.span * rng.random(self.span.shape)
