"""Tests for the pricing agents: PPO, the pruned variant, bandit, random."""

import numpy as np
import pytest

from bwmarket.agents import (
    GreedyAgent,
    PpoAgent,
    PpoConfig,
    RandomAgent,
    RolloutBuffer,
    TinyMadrlAgent,
    compute_advantages,
)
from bwmarket.harness import ExperimentConfig, config_from_dict, run_training
from bwmarket.tinynet import PruneSchedule

from _oracles import reference_greedy_act


def make_agent(obs_dim=4, action_dim=2, seed=0, **overrides):
    cfg = PpoConfig(**overrides)
    low = np.full(action_dim, 1.0)
    high = np.full(action_dim, 9.0)
    return PpoAgent(obs_dim, low, high, cfg, np.random.default_rng(seed))


def fill_on_policy(agent, rng, num_steps):
    """Collect experiences from the agent's own policy into its buffer."""
    for t in range(num_steps):
        obs = rng.uniform(0.0, 1.0, 4)
        _, u, logp, value = agent.act(obs, rng)
        done = (t + 1) % 4 == 0
        agent.record(obs, u, logp, rng.uniform(0.5, 1.5), value, done)


class TestAdvantages:
    def test_single_terminal_step(self):
        buf = RolloutBuffer(capacity=1)
        buf.add(np.zeros(2), np.zeros(1), 0.0, 1.0, 0.25, True)
        adv, ret = compute_advantages(buf, discount=0.9)
        assert ret[0] == 1.0
        assert adv[0] == pytest.approx(0.75)

    def test_two_step_discounting(self):
        buf = RolloutBuffer(capacity=2)
        buf.add(np.zeros(2), np.zeros(1), 0.0, 1.0, 0.0, False)
        buf.add(np.zeros(2), np.zeros(1), 0.0, 1.0, 0.0, True)
        _, ret = compute_advantages(buf, discount=0.5)
        np.testing.assert_allclose(ret, [1.5, 1.0])

    def test_episode_boundary_resets_return(self):
        buf = RolloutBuffer(capacity=4)
        for done in (False, True, False, True):
            buf.add(np.zeros(2), np.zeros(1), 0.0, 2.0, 0.0, done)
        _, ret = compute_advantages(buf, discount=0.9)
        np.testing.assert_allclose(ret, [3.8, 2.0, 3.8, 2.0])

    def test_normalization_zero_mean_unit_std(self):
        buf = RolloutBuffer(capacity=8)
        rng = np.random.default_rng(0)
        for _ in range(8):
            buf.add(np.zeros(2), np.zeros(1), 0.0, rng.uniform(), rng.uniform(),
                    False)
        adv, _ = compute_advantages(buf, discount=0.9)
        assert adv.mean() == pytest.approx(0.0, abs=1e-12)
        assert adv.std() == pytest.approx(1.0, abs=1e-12)


class TestPpoConfig:
    @pytest.mark.parametrize("field, value", [
        ("actor_lr", -1.0), ("critic_lr", 0.0), ("actor_lr", float("nan")),
        ("critic_lr", float("inf")),
    ])
    def test_learning_rate_must_be_finite_and_positive(self, field, value):
        # a negative actor rate would step against the surrogate objective
        with pytest.raises(ValueError, match=f"^{field} must be (> 0|a finite number), got"):
            PpoConfig(**{field: value})

    def test_config_file_learning_rate_checked(self):
        with pytest.raises(ValueError, match=r"^ppo\.actor_lr must be > 0, got -1\.0$"):
            config_from_dict({"ppo": {"actor_lr": -1.0}})


class TestRolloutBuffer:
    def test_rows_past_capacity_are_kept(self):
        buf = RolloutBuffer(capacity=1)
        for done in (False, True, False, True, False):
            buf.add(np.zeros(2), np.zeros(1), 0.0, 2.0, 0.0, done)
        assert buf.full and len(buf) == 5
        _, ret = compute_advantages(buf, discount=0.9)
        np.testing.assert_allclose(ret, [3.8, 2.0, 3.8, 2.0, 2.0])

    def test_stacked_rows_match_separate_buffers(self):
        rng = np.random.default_rng(16)
        stacked, alone = RolloutBuffer(3), [RolloutBuffer(3) for _ in range(2)]
        for t in range(4):
            obs, action = rng.uniform(size=(2, 5)), rng.uniform(size=(2, 3))
            log_prob, reward, value = rng.uniform(size=(3, 2))
            stacked.add(obs, action, log_prob, reward, value, t == 1)
            for k, buf in enumerate(alone):
                buf.add(obs[k], action[k], log_prob[k], reward[k], value[k], t == 1)
        for field, fields in zip(stacked.rollout(), zip(*(b.rollout() for b in alone))):
            np.testing.assert_array_equal(field, np.stack(fields))
        # each seller's advantages are standardised over its own row
        both = compute_advantages(stacked, 0.9)
        for k, buf in enumerate(alone):
            for a, b in zip(both, compute_advantages(buf, 0.9)):
                np.testing.assert_array_equal(a[k], b)


class TestActing:
    def test_prices_stay_in_box(self):
        agent = make_agent()
        rng = np.random.default_rng(1)
        for _ in range(200):
            prices, u, _, _ = agent.act(rng.uniform(0, 1, 4), rng)
            assert np.all(prices >= agent.box_low - 1e-12)
            assert np.all(prices <= agent.box_high + 1e-12)
            assert np.all(u >= 0.0) and np.all(u <= 1.0)

    def test_zero_weight_actor_prices_midpoint(self):
        agent = make_agent(action_headroom=0.0)
        for layer in agent.actor.layers:
            layer.weights[...] = 0.0
        prices, u, _, _ = agent.act(np.ones(4), np.random.default_rng(0),
                                    deterministic=True)
        np.testing.assert_allclose(u, 0.5)
        np.testing.assert_allclose(prices, 5.0)

    def test_headroom_saturates_at_cap(self):
        agent = make_agent(action_headroom=1.0)
        for layer in agent.actor.layers:
            layer.weights[...] = 0.0
        prices, _, _, _ = agent.act(np.ones(4), np.random.default_rng(0),
                                    deterministic=True)
        np.testing.assert_allclose(prices, agent.box_high)

    def test_deterministic_action_is_policy_mean(self):
        agent = make_agent()
        obs = np.linspace(0, 1, 4)
        _, u, _, _ = agent.act(obs, np.random.default_rng(0), deterministic=True)
        np.testing.assert_array_equal(u, agent._policy_mean(obs))

    def test_std_anneals_linearly(self):
        agent = make_agent(policy_std=0.3, final_policy_std=0.1)
        agent.set_progress(0.5)
        assert agent.std == pytest.approx(0.2)
        agent.set_progress(2.0)
        assert agent.std == pytest.approx(0.1)


class TestPpoUpdate:
    def test_noop_until_buffer_full(self):
        agent = make_agent(rollout_size=8)
        assert agent.ppo_update() is None

    def test_first_epoch_ratio_is_one(self):
        agent = make_agent(rollout_size=8, update_epochs=1)
        fill_on_policy(agent, np.random.default_rng(2), 8)
        diag = agent.ppo_update()
        assert diag["mean_ratio"][0] == pytest.approx(1.0, abs=1e-10)

    def test_first_epoch_actor_loss_is_the_mean_advantage(self):
        # at ratio 1 the surrogate is the advantage itself: the update
        # ascends the standardised G - V, whose mean is 0 although the raw
        # G - V's is not
        agent = make_agent(rollout_size=8, update_epochs=1)
        fill_on_policy(agent, np.random.default_rng(2), 8)
        _, returns = compute_advantages(agent.buffer, agent.config.discount)
        raw = returns - agent.buffer.rollout()[4]
        assert abs(np.mean(raw)) > 0.1
        diag = agent.ppo_update()
        assert diag["actor_loss"][0] == pytest.approx(0.0, abs=1e-10)

    def test_recorded_rewards(self):
        # the agent divides each reward by the running max of |reward| so far
        agent = make_agent()
        rng = np.random.default_rng(7)
        for reward in (0.5, 4.0, -8.0, 2.0):
            _, u, logp, value = agent.act(np.zeros(4), rng)
            agent.record(np.zeros(4), u, logp, reward, value, False)
        np.testing.assert_array_equal(agent.buffer.rollout()[3], [0.5, 1.0, -1.0, 0.25])

    def test_buffer_cleared_after_update(self):
        agent = make_agent(rollout_size=8, update_epochs=1)
        fill_on_policy(agent, np.random.default_rng(3), 8)
        agent.ppo_update()
        assert len(agent.buffer) == 0
        assert agent.update_count == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_loss_restores_weights(self):
        agent = make_agent(rollout_size=8, update_epochs=1)
        fill_on_policy(agent, np.random.default_rng(4), 8)
        agent.actor.layers[0].weights[0, 0] = np.inf
        before = [l.weights.copy() for l in agent.actor.layers]
        diag = agent.ppo_update()
        assert diag["aborted"]
        assert agent.aborted_updates == 1
        for layer, w in zip(agent.actor.layers, before):
            np.testing.assert_array_equal(layer.weights, w)

    def test_aborted_update_discards_its_rollout(self):
        agent = make_agent(rollout_size=8, update_epochs=1)
        rng = np.random.default_rng(6)
        fill_on_policy(agent, rng, 7)
        _, u, logp, value = agent.act(np.zeros(4), rng)
        agent.record(np.full(4, np.nan), u, logp, 1.0, value, True)
        assert agent.ppo_update()["aborted"]
        assert len(agent.buffer) == 0
        fill_on_policy(agent, rng, 8)
        assert not agent.ppo_update()["aborted"]
        assert (agent.update_count, agent.aborted_updates) == (1, 1)

    def test_update_changes_weights(self):
        agent = make_agent(rollout_size=8, update_epochs=2)
        fill_on_policy(agent, np.random.default_rng(5), 8)
        before = [l.weights.copy() for l in agent.actor.layers]
        agent.ppo_update()
        changed = any(not np.array_equal(l.weights, w)
                      for l, w in zip(agent.actor.layers, before))
        assert changed


class TestStack:
    """PpoAgent.stack acts, records and updates each seller as it would alone."""

    @staticmethod
    def sellers(seed):
        return [make_agent(seed=seed + j, rollout_size=8, update_epochs=3)
                for j in range(2)]

    @staticmethod
    def nan_value_in_second_update_epoch(net, seller):
        """Make net's second rollout-batch forward return NaN for one seller."""
        forward, calls = net.forward, []

        def patched(x):
            out, cache = forward(x)
            if np.ndim(x) == net.layers[0].weights.ndim:  # a rollout, not one act
                calls.append(x)
                if len(calls) == 2:
                    out = out.copy()
                    out[seller] = np.nan
            return out, cache

        net.forward = patched

    def train(self, alone, members, stack, rollouts):
        rng = np.random.default_rng(20)
        rngs_alone = [np.random.default_rng(30 + j) for j in range(2)]
        rngs_stack = [np.random.default_rng(30 + j) for j in range(2)]
        for t in range(8 * rollouts):
            obs = rng.uniform(0.0, 1.0, (2, 4))
            rewards = rng.uniform(0.5, 1.5, 2)
            done = (t + 1) % 4 == 0
            stacked = stack.act(obs, rngs_stack)
            stack.record(obs, *stacked[1:3], rewards, stacked[3], done)
            for j, agent in enumerate(alone):
                acted = agent.act(obs[j], rngs_alone[j])
                for item, items in zip(acted, stacked):
                    np.testing.assert_array_equal(items[j], item)
                agent.record(obs[j], *acted[1:3], rewards[j], acted[3], done)
            if (t + 1) % 8 == 0:
                diags = stack.ppo_update()
                assert diags == [agent.ppo_update() for agent in alone]
        for a, b in zip(alone, members):
            assert (a.update_count, a.aborted_updates) == (b.update_count,
                                                           b.aborted_updates)
            for la, lb in zip((*a.actor.layers, *a.critic.layers),
                              (*b.actor.layers, *b.critic.layers)):
                np.testing.assert_array_equal(la.weights, lb.weights)

    def test_stack_equals_separate_agents(self):
        alone, members = self.sellers(40), self.sellers(40)
        stack = PpoAgent.stack(members)
        stack.set_progress(0.5)
        for agent in alone:
            agent.set_progress(0.5)
        self.train(alone, members, stack, rollouts=3)
        assert [m.std for m in members] == [a.std for a in alone]

    def test_abort_restores_and_skips_only_its_seller(self):
        """Seller 0 aborts in the second epoch, after every seller has stepped."""
        alone, members = self.sellers(50), self.sellers(50)
        stack = PpoAgent.stack(members)
        before = [l.weights.copy() for l in members[0].actor.layers]
        self.nan_value_in_second_update_epoch(stack.critic, 0)
        self.nan_value_in_second_update_epoch(alone[0].critic, Ellipsis)
        self.train(alone, members, stack, rollouts=1)
        assert [m.aborted_updates for m in members] == [1, 0]
        for layer, w in zip(members[0].actor.layers, before):
            np.testing.assert_array_equal(layer.weights, w)


class TestTinyMadrl:
    def _pair(self, schedule):
        cfg = PpoConfig(rollout_size=8, update_epochs=2, hidden_sizes=(16, 16))
        low, high = np.full(2, 1.0), np.full(2, 9.0)
        ppo = PpoAgent(4, low, high, cfg, np.random.default_rng(7))
        tiny = TinyMadrlAgent(4, low, high, schedule, cfg,
                              np.random.default_rng(7))
        return ppo, tiny

    def test_pruning_off_matches_plain_ppo(self):
        schedule = PruneSchedule(0.0, 0.0, 0, 4, 1)
        ppo, tiny = self._pair(schedule)
        for epoch in range(3):
            rng_a = np.random.default_rng(100 + epoch)
            rng_b = np.random.default_rng(100 + epoch)
            fill_on_policy(ppo, rng_a, 8)
            fill_on_policy(tiny, rng_b, 8)
            ppo.ppo_update()
            tiny.tiny_madrl_step(epoch)
        for la, lb in zip(ppo.actor.layers, tiny.actor.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_sparsity_tracks_schedule(self):
        schedule = PruneSchedule(0.0, 0.5, 0, 2, 1)
        _, tiny = self._pair(schedule)
        fill_on_policy(tiny, np.random.default_rng(8), 8)
        diag = tiny.tiny_madrl_step(2)
        assert diag["scheduled_sparsity"] == pytest.approx(0.5)
        assert tiny.current_sparsity() == pytest.approx(0.5, abs=1.0 / 32)

    def test_compacted_at_schedule_end(self):
        schedule = PruneSchedule(0.0, 0.5, 0, 2, 1)
        _, tiny = self._pair(schedule)
        for epoch in range(3):
            fill_on_policy(tiny, np.random.default_rng(9 + epoch), 8)
            tiny.tiny_madrl_step(epoch)
        assert tiny.compact_actor is not None
        assert sum(tiny.compact_actor.hidden_sizes()) < 32

    def test_prune_critic(self):
        # target 0.5 masks 16 of the critic's 32 hidden neurons, above a floor
        # of 2 per layer; target 0.9 would leave 3 in all, so a floor of 4
        # binds in both layers
        cfg = PpoConfig(rollout_size=8, update_epochs=2, hidden_sizes=(16, 16))
        low, high = np.full(2, 1.0), np.full(2, 9.0)
        for target, floor in ((0.5, 2), (0.9, 4)):
            for prune_critic in (True, False):
                tiny = TinyMadrlAgent(4, low, high, PruneSchedule(0.0, target, 0, 2, 1),
                                      cfg, np.random.default_rng(7), floor, prune_critic)
                for epoch in range(3):
                    fill_on_policy(tiny, np.random.default_rng(9 + epoch), 8)
                    tiny.tiny_madrl_step(epoch)
                active = [int(m.sum()) for m in tiny.critic.masks]
                assert tiny.current_sparsity() > 0.0
                if not prune_critic:
                    assert all(np.all(m == 1.0) for m in tiny.critic.masks)
                elif target == 0.5:
                    assert sum(active) == 16 and min(active) >= floor, active
                else:
                    assert active == [floor, floor]


class TestGreedy:
    def test_cold_start_uniformish(self):
        agent = GreedyAgent(np.zeros(1), np.ones(1), num_levels=4, epsilon=0.0)
        rng = np.random.default_rng(10)
        picks = set()
        for _ in range(50):
            agent.act(None, rng)
            picks.add(int(agent._last_choice[0]))
        assert len(picks) == 4

    def test_exploits_best_arm(self):
        agent = GreedyAgent(np.zeros(1), np.ones(1), num_levels=4, epsilon=0.0)
        agent.counts[0] = [1, 1, 1, 1]
        agent.means[0] = [0.1, 0.9, 0.3, 0.2]
        rng = np.random.default_rng(11)
        prices = agent.act(None, rng)
        assert prices[0] == pytest.approx(agent.levels[1])

    def test_epsilon_one_always_explores(self):
        agent = GreedyAgent(np.zeros(1), np.ones(1), num_levels=8, epsilon=1.0)
        agent.counts[0, :] = 1
        agent.means[0, 3] = 100.0
        rng = np.random.default_rng(12)
        picks = {int(agent.act(None, rng) is not None and agent._last_choice[0])
                 for _ in range(200)}
        assert len(picks) > 1

    def test_running_mean_update(self):
        agent = GreedyAgent(np.zeros(1), np.ones(1), num_levels=2)
        agent._last_choice[0] = 1
        agent.update([5.0])
        agent._last_choice[0] = 1
        agent.update([7.0])
        assert agent.means[0, 1] == pytest.approx(6.0)
        assert agent.counts[0, 1] == 2

    def test_update_matches_per_buyer_running_mean(self):
        """Same counts and means, bit for bit, as updating each buyer's played
        arm on its own."""
        rng = np.random.default_rng(16)
        agent = GreedyAgent(np.ones(5), np.full(5, 9.0), num_levels=6)
        counts, means = np.zeros((5, 6), dtype=int), np.zeros((5, 6))
        for _ in range(3000):
            agent._last_choice[:] = rng.integers(6, size=5)
            margins = rng.uniform(0.0, 5.0, 5) * (rng.random(5) < 0.7)
            agent.update(margins)
            for i, k in enumerate(agent._last_choice):
                counts[i, k] += 1
                means[i, k] += (margins[i] - means[i, k]) / counts[i, k]
        np.testing.assert_array_equal(agent.counts, counts, strict=True)
        assert agent.means.tobytes() == means.tobytes()

    def test_every_level_prices_inside_box(self):
        # cost 1-4, cap 5-35 as sampled by default; low + 1.0 * (high - low)
        # rounds above high in a few percent of such boxes
        rng = np.random.default_rng(13)
        low, high = rng.uniform(1.0, 4.0, 2000), rng.uniform(5.0, 35.0, 2000)
        agent = GreedyAgent(low, high, num_levels=16, epsilon=0.0)
        agent.counts[:] = 1
        for k in range(agent.num_levels):
            agent.means[:] = 0.0
            agent.means[:, k] = 1.0
            prices = agent.act(None, rng)
            assert np.all((low <= prices) & (prices <= high)), k


    def test_act_matches_per_buyer_loop(self):
        """Same prices, arms and draws as pricing each buyer on its own."""
        rng = np.random.default_rng(14)
        low, high = rng.uniform(1.0, 4.0, 6), rng.uniform(5.0, 35.0, 6)
        agent, oracle = (GreedyAgent(low, high, num_levels=7, epsilon=0.3)
                         for _ in range(2))
        rng_a, rng_b = np.random.default_rng(15), np.random.default_rng(15)
        for _ in range(300):
            np.testing.assert_array_equal(agent.act(None, rng_a),
                                          reference_greedy_act(oracle, rng_b))
            np.testing.assert_array_equal(agent._last_choice, oracle._last_choice)
            margins = rng.uniform(0.0, 5.0, 6) * (rng.uniform(size=6) < 0.7)
            agent.update(margins)
            oracle.update(margins)
        assert rng_a.uniform() == rng_b.uniform()


class TestRandom:
    def test_mean_at_box_center(self):
        agent = RandomAgent(np.full(1, 2.0), np.full(1, 10.0))
        rng = np.random.default_rng(13)
        draws = np.array([agent.act(None, rng)[0] for _ in range(100000)])
        center, half_width = 6.0, 4.0
        sigma = half_width / np.sqrt(3.0) / np.sqrt(draws.size)
        assert abs(draws.mean() - center) < 3 * sigma
        assert draws.min() >= 2.0 and draws.max() <= 10.0

    def test_act_matches_uniform_draws(self):
        """Draw by draw the prices of rng.uniform(low, high) on the same seed,
        leaving the stream at the same position."""
        rng = np.random.default_rng(16)
        low, high = rng.uniform(1.0, 4.0, 5), rng.uniform(5.0, 35.0, 5)
        agent = RandomAgent(low, high)
        rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)
        for _ in range(500):
            np.testing.assert_array_equal(agent.act(None, rng_a),
                                          rng_b.uniform(low, high), strict=True)
        assert rng_a.random() == rng_b.random()


class TestLearning:
    def test_ppo_reaches_most_of_theoretical(self):
        cfg = ExperimentConfig(num_uavs=1, num_rsus=1, episodes=150)
        cfg.ranges["similarity"] = (0.85, 1.0)
        fracs = []
        for seed in range(5):
            rec = run_training(cfg, "ppo", seed)
            assert rec.theoretical > 0
            fracs.append(rec.avg_rewards[-15:].mean() / rec.theoretical)
        assert np.median(fracs) >= 0.8
