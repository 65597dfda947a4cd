"""Tests for the episodic pricing environment."""

import numpy as np
import pytest

from bwmarket.env import (
    EnvConfig,
    PricingEnv,
    default_demand_scale,
    theoretical_baseline,
)
from bwmarket import env as env_module, game
from bwmarket.game import rsu_utility

from _oracles import ReferencePricingEnv, random_instance, simple_instance


@pytest.fixture
def symmetric():
    return simple_instance(J=2, budget=2.0)


class TestReset:
    def test_zero_warmup_zero_observations(self, symmetric):
        env = PricingEnv(symmetric, EnvConfig(history_length=3, episode_length=5))
        obs = env.reset()
        assert len(obs) == 2
        for o in obs:
            assert o.shape == (env.observation_dim,)
            assert np.all(o == 0.0)


class TestStep:
    def test_cost_prices_zero_rewards(self, symmetric):
        env = PricingEnv(symmetric, EnvConfig(history_length=1, episode_length=3))
        env.reset()
        out = env.step([np.full(1, 1.0), np.full(1, 1.0)])
        np.testing.assert_array_equal(out.rewards, [0.0, 0.0])

    def test_equilibrium_prices_match_solver_rewards(self, symmetric):
        env = PricingEnv(symmetric, EnvConfig(history_length=1, episode_length=3))
        env.reset()
        out = env.step([np.full(1, 5.0), np.full(1, 5.0)])
        np.testing.assert_allclose(out.rewards, [0.8, 0.8], atol=1e-9)

    def test_reward_memoryless(self, symmetric):
        env = PricingEnv(symmetric, EnvConfig(history_length=1, episode_length=5))
        env.reset()
        a = env.step([np.full(1, 3.0), np.full(1, 4.0)])
        b = env.step([np.full(1, 3.0), np.full(1, 4.0)])
        np.testing.assert_array_equal(a.rewards, b.rewards)

    def test_reward_equals_rsu_utility_bit_for_bit(self):
        rng = np.random.default_rng(2)
        inst = random_instance(rng, I=3, J=2)
        env = PricingEnv(inst, EnvConfig(history_length=1, episode_length=4))
        env.reset()
        prices = [rng.uniform(inst.costs()[j], inst.price_caps()[j], 3)
                  for j in range(2)]
        out = env.step(prices)
        for j in range(2):
            expected = rsu_utility(inst, j, prices[j], out.demands[:, j])
            assert out.rewards[j] == expected

    def test_out_of_box_actions_clamped(self, symmetric):
        env = PricingEnv(symmetric, EnvConfig(history_length=1, episode_length=3))
        env.reset()
        out = env.step([np.full(1, 1000.0), np.full(1, -5.0)])
        # clamped to cap 35 and cost 1: reward of agent 1 is zero margin
        assert out.rewards[1] == 0.0
        # one buyer, so the newest pair is the last two entries [price, demand]
        newest_price = env.observations()[0][-2]
        assert newest_price == pytest.approx(1.0)  # 35/35

    def test_callers_prices_left_unchanged(self, symmetric):
        # a float C-contiguous array is the caller's own after np.asarray, so
        # the clamp must not write into it
        env = PricingEnv(symmetric, EnvConfig(history_length=1, episode_length=3), runs=2)
        env.reset()
        prices = np.array([[[1000.0], [-5.0]], [[5.0], [np.inf]]])
        before = prices.copy()
        env.step(prices)
        assert prices.tobytes() == before.tobytes()

    def test_wrong_price_shape_rejected(self):
        inst = random_instance(np.random.default_rng(8), I=2, J=2)
        env = PricingEnv(inst, EnvConfig(history_length=1, episode_length=3))
        env.reset()
        with pytest.raises(ValueError):
            env.step([5.0, 6.0])  # one price per seller, not a J x I matrix

    def test_done_after_episode_length(self, symmetric):
        env = PricingEnv(symmetric, EnvConfig(history_length=1, episode_length=2))
        env.reset()
        act = [np.full(1, 5.0), np.full(1, 5.0)]
        assert not env.step(act).done
        assert env.step(act).done


class TestHistory:
    def test_history_order_newest_last(self, symmetric):
        env = PricingEnv(symmetric, EnvConfig(history_length=2, episode_length=5))
        env.reset()
        env.step([np.full(1, 2.0), np.full(1, 2.0)])
        env.step([np.full(1, 10.0), np.full(1, 10.0)])
        obs = env.observations()[0].reshape(2, 2, 1)
        assert obs[0, 0, 0] == pytest.approx(2.0 / 35.0)
        assert obs[1, 0, 0] == pytest.approx(10.0 / 35.0)

    def test_determinism_full_rollout(self):
        rng = np.random.default_rng(3)
        inst = random_instance(rng, I=2, J=2)
        cfg = EnvConfig(history_length=2, episode_length=4)
        actions = [[rng.uniform(inst.costs()[j], inst.price_caps()[j], 2)
                    for j in range(2)] for _ in range(4)]

        def rollout():
            env = PricingEnv(inst, cfg)
            env.reset()
            outs = [env.step(a) for a in actions]
            return outs

        a, b = rollout(), rollout()
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.rewards, y.rewards)
            for ox, oy in zip(x.next_observations, y.next_observations):
                np.testing.assert_array_equal(ox, oy)

    def test_observation_entries_in_unit_interval(self):
        rng = np.random.default_rng(4)
        inst = random_instance(rng, I=2, J=3)
        cfg = EnvConfig(history_length=3, episode_length=6)
        env = PricingEnv(inst, cfg)
        env.reset()
        for _ in range(4):
            acts = [rng.uniform(inst.costs()[j], inst.price_caps()[j], 2)
                    for j in range(3)]
            out = env.step(acts)
            for o in out.next_observations:
                assert np.all(o >= 0.0) and np.all(o <= 1.0)


class TestMatchesReference:
    @pytest.mark.parametrize("cut", [False, True], ids=["full", "cut"])
    @pytest.mark.parametrize("L", [1, 2, 3])
    @pytest.mark.parametrize("I,J", [(1, 1), (3, 2), (2, 3), (4, 3)])
    @pytest.mark.parametrize("prices", ["random", "corner"])
    def test_rollout_bit_for_bit(self, cut, L, I, J, prices):
        """Observations, rewards, demand_clipped and done equal the per-agent
        list bookkeeping exactly, and a returned observation never changes.
        A cut first episode stops after L + 1 steps, before done, so the
        second reset discards a history of real prices mid-episode. At the
        cost corner demands are largest, and the env's unclipped write still
        equals the reference's clipped one."""
        rng = np.random.default_rng(100 * I + 10 * J + L)
        # floor 0.5 leaves some links unusable; 0.85 makes every buyer demand
        inst = random_instance(rng, I=I, J=J, min_component=0.5 if prices == "random" else 0.85)
        cfg = EnvConfig(history_length=L, episode_length=L + 4)
        env = PricingEnv(inst, cfg)
        ref = ReferencePricingEnv(inst, cfg, env.demand_scale)
        c, cap = inst.costs(), inst.price_caps()
        for episode in range(2):  # the second reset must discard the first episode
            steps = L + 1 if cut and episode == 0 else cfg.episode_length
            previous = env.reset()
            kept = previous.copy()
            np.testing.assert_array_equal(previous, ref.reset())
            for _ in range(steps):
                # a wider box than [c, cap], so clamping fires on both sides;
                # at the corner every price is clamped up to its seller's cost
                high = cap + 5.0 if prices == "random" else c
                actions = [rng.uniform(c[j] - 1.0, high[j], I) for j in range(J)]
                out = env.step(actions)
                obs, rewards, clipped, done = ref.step(actions)
                np.testing.assert_array_equal(out.next_observations, obs)
                np.testing.assert_array_equal(out.rewards, rewards)
                assert out.demand_clipped == clipped
                assert out.done == done
                np.testing.assert_array_equal(previous, kept)
                previous, kept = out.next_observations, out.next_observations.copy()
            assert done == (steps == cfg.episode_length)


class TestRunAxis:
    @pytest.mark.parametrize("cut", [False, True], ids=["full", "cut"])
    @pytest.mark.parametrize("prices", ["random", "corner"])
    @pytest.mark.parametrize("I,J", [(3, 2), (12, 3)])
    def test_stack_equals_single_envs(self, cut, I, J, prices):
        """runs=3 steps each run bit for bit as a single env and the list
        bookkeeping do: observations, rewards, margins, demands,
        demand_clipped and done, over two episodes. A cut first
        episode stops after 3 of its 5 steps, before done. The corner
        prices every link at or below its seller's cost."""
        E = 3
        rng = np.random.default_rng(10 * I + J)
        inst = random_instance(rng, I=I, J=J, min_component=0.5 if prices == "random" else 0.85)
        cfg = EnvConfig(history_length=2, episode_length=5)
        stack = PricingEnv(inst, cfg, runs=E)
        singles = [PricingEnv(inst, cfg) for _ in range(E)]
        refs = [ReferencePricingEnv(inst, cfg, stack.demand_scale) for _ in range(E)]
        c, cap = inst.costs(), inst.price_caps()
        for episode in range(2):
            steps = 3 if cut and episode == 0 else cfg.episode_length
            obs = stack.reset()
            assert obs.shape == (E, J, stack.observation_dim)
            for k in range(E):
                np.testing.assert_array_equal(obs[k], singles[k].reset())
                np.testing.assert_array_equal(obs[k], refs[k].reset())
            for _ in range(steps):
                # a wider box than [c, cap], so clamping fires on both sides
                high = cap[:, None] + 5.0 if prices == "random" else c[:, None]
                drawn = rng.uniform(c[:, None] - 1.0, high, size=(E, J, I))
                out = stack.step(drawn)
                game._check_demands(out.demands, np.clip(drawn, c[:, None], cap[:, None]),
                                    inst.arrays.budget)
                for k in range(E):
                    one = singles[k].step(drawn[k])
                    for got, want in [(out.next_observations[k], one.next_observations),
                                      (out.rewards[k], one.rewards),
                                      (out.margins[k], one.margins),
                                      (out.demands[k], one.demands)]:
                        np.testing.assert_array_equal(got, want, strict=True)
                    ref_obs, ref_rewards, ref_clipped, ref_done = refs[k].step(drawn[k])
                    np.testing.assert_array_equal(out.next_observations[k], ref_obs)
                    np.testing.assert_array_equal(out.rewards[k], ref_rewards)
                    assert one.demand_clipped is ref_clipped is False
                    assert one.done == ref_done
                assert out.demand_clipped is False
                assert out.done is one.done
            assert out.done == (steps == cfg.episode_length)

    def test_prices_need_the_run_axis(self, symmetric):
        env = PricingEnv(symmetric, runs=2)
        env.reset()
        with pytest.raises(ValueError, match="expected shape"):
            env.step(np.full((2, 2), 5.0))


class TestBaseline:
    def test_symmetric_baseline(self, symmetric):
        value, consistent = theoretical_baseline(symmetric)
        assert consistent
        assert value == pytest.approx(0.8, abs=1e-6)

    def test_zero_surplus_baseline(self):
        inst = simple_instance(J=2, ssim=0.4, threshold=0.5)
        value, consistent = theoretical_baseline(inst)
        assert value == 0.0
        assert consistent

    @pytest.mark.parametrize("consistent", [True, False])
    @pytest.mark.parametrize("passed", [True, False])
    def test_reference_holds_only_when_solved_and_verified(self, monkeypatch, symmetric,
                                                           consistent, passed):
        """The flag is the solve's consistent flag and the verification's
        verdict together, and the verification runs on every solve."""
        sol = game.solve_equilibrium(symmetric)
        sol.consistent = consistent
        checked = []

        def verify(instance, solution):
            checked.append(solution)
            return game.VerificationReport([] if passed else [(0, 1.0)], [], 0.0)

        monkeypatch.setattr(env_module, "solve_equilibrium", lambda instance: sol)
        monkeypatch.setattr(env_module, "verify_equilibrium", verify)
        value, holds = theoretical_baseline(symmetric)
        assert holds is (consistent and passed)
        assert checked == [sol]
        assert value == float(np.mean(sol.rsu_utilities))

    def test_baseline_nonnegative_random(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            inst = random_instance(rng, I=2, J=2)
            value, _ = theoretical_baseline(inst)
            assert value >= -1e-12


class TestConfig:
    def test_invalid_history(self):
        with pytest.raises(ValueError):
            EnvConfig(history_length=0)

    def test_episode_shorter_than_history(self):
        with pytest.raises(ValueError):
            EnvConfig(history_length=5, episode_length=3)

    def test_default_demand_scale_positive(self, symmetric):
        assert default_demand_scale(symmetric) > 0


class TestDemandScale:
    @pytest.mark.parametrize("floor", [0.0, 0.5, 0.85, 0.99])
    def test_cost_corner_observations_within_bounds(self, floor):
        """The demand scale is the market's own bound on any demand: with
        every price at its seller's cost, where demands are largest, every
        observation of sampled markets lies in [0, 1] and no demand is
        clipped. A floor of 0.99 puts every link near full similarity."""
        rng = np.random.default_rng(int(100 * floor))
        for I, J in [(1, 1), (3, 2), (2, 3), (8, 4)] * 10:
            inst = random_instance(rng, I=I, J=J, min_component=floor)
            env = PricingEnv(inst, EnvConfig(history_length=2, episode_length=2), runs=2)
            assert env.demand_scale == default_demand_scale(inst)
            env.reset()
            corner = np.broadcast_to(inst.costs()[:, None], (2, J, I))
            for _ in range(2):
                out = env.step(corner)
                assert out.demand_clipped is False
                assert np.all(out.next_observations >= 0.0)
                assert np.all(out.next_observations <= 1.0)
