"""Tests for the game-theoretic core: utilities, best responses, equilibrium."""

import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwmarket import game, harness
from bwmarket.game import (
    CASE_BUDGET_ACTIVE,
    CASE_BUDGET_INACTIVE,
    ChannelLink,
    DemandMatrix,
    GameInstance,
    PriceMatrix,
    RsuProfile,
    SsimTriple,
    UavProfile,
    all_followers_respond,
    follower_best_response,
    leader_best_response_map,
    rsu_utility,
    solve_equilibrium,
    uav_utility,
    verify_equilibrium,
)
from bwmarket.env import EnvConfig, PricingEnv
from bwmarket.harness import (ExperimentConfig, RunRecord, SweepSpec, run_sweep,
                              sample_instance)
from bwmarket.tinynet import DenseLayer

from _oracles import (
    grid_follower_utility,
    link_with_efficiency,
    random_instance,
    reference_all_followers_respond,
    reference_binding_prices,
    reference_follower_best_response,
    reference_leader_gap,
    reference_leader_map,
    reference_solve_equilibrium,
    simple_instance,
)

LN2 = math.log(2.0)


def one_link_log_quality(luminance: float, threshold: float = 0.5,
                         contrast: float = 1.0, structure: float = 1.0) -> float:
    """The log-quality S of a one-buyer, one-seller market with the given SSIM
    components."""
    uav = UavProfile(10.0, 2.0, threshold, [SsimTriple(luminance, contrast, structure)])
    inst = GameInstance([uav], [RsuProfile(1.0, 5.0, link_with_efficiency(1.0))])
    return float(inst.arrays.S[0, 0])


# =====================================================================
# Channel / SSIM / quality primitives
# =====================================================================
class TestLinkAndSsim:
    def test_snr_zero_db_gives_unit_efficiency(self):
        link = ChannelLink(10.0, -5.0, 5.0)  # SNR = 0 dB -> tau = 1
        assert link.spectrum_efficiency == pytest.approx(1.0, abs=1e-12)

    def test_tau_three_gives_two(self):
        snr_db = 10.0 * math.log10(3.0)
        link = ChannelLink(snr_db, 0.0, 0.0)
        assert link.spectrum_efficiency == pytest.approx(2.0, abs=1e-12)

    def test_high_snr_table_values(self):
        # m = 20 dBm, g = -25 dB, noise = -112 dBm -> SNR = 107 dB
        # frozen from an mpmath evaluation of log2(1 + 10^10.7)
        link = ChannelLink(20.0, -25.0, -112.0)
        assert link.spectrum_efficiency == pytest.approx(35.5446306153236, abs=1e-7)

    def test_efficiency_cached_consistent(self):
        link = ChannelLink(22.0, -23.0, -114.0)
        snr_db = 22.0 - 23.0 + 114.0
        expected = math.log2(1.0 + 10.0 ** (snr_db / 10.0))
        assert abs(link.spectrum_efficiency - expected) < 1e-12

    @pytest.mark.parametrize("power_dbm", [3083.0, 5000.0, math.inf])
    def test_snr_past_float_range_rejected(self, power_dbm):
        # 10^(snr/10) overflows a float from about 3083 dB on
        message = f"infinite spectrum efficiency from SNR {power_dbm} dB"
        with pytest.raises(ValueError, match=message):
            ChannelLink(power_dbm, 0.0, 0.0)

    def test_ssim_unique_maximum(self):
        # a perfect link's SSIM is 1, so S = ln(1 / threshold)
        assert one_link_log_quality(1.0, 0.5) == math.log(1.0 / 0.5)

    def test_ssim_product(self):
        # the composite SSIM is l * c * s
        assert one_link_log_quality(0.9, 0.5, 0.8, 0.7) == pytest.approx(
            math.log(0.504 / 0.5), abs=1e-12)
        assert one_link_log_quality(0.9, 0.5, 0.8, 0.0) == -math.inf

    def test_ssim_component_validation(self):
        with pytest.raises(ValueError):
            SsimTriple(1.2, 0.5, 0.5)

    def test_log_quality_at_threshold_is_zero(self):
        assert one_link_log_quality(0.5) == pytest.approx(0.0)

    def test_log_quality_ln2(self):
        assert one_link_log_quality(1.0) == pytest.approx(LN2)

    def test_log_quality_below_threshold_negative(self):
        assert one_link_log_quality(0.4) == pytest.approx(math.log(0.8))
        assert one_link_log_quality(0.4) < 0

    def test_log_quality_zero_ssim_is_minus_inf(self):
        assert one_link_log_quality(0.0) == -math.inf


class TestGameInstance:
    def test_profiles_are_read_at_construction(self):
        """A hand-built market copies its profiles' values when it is built:
        changing them afterwards moves no array, no comparison and no solve."""
        def market():
            uav = UavProfile(10.0, 2.0, 0.5,
                             [SsimTriple(1.0, 1.0, 1.0), SsimTriple(0.9, 0.95, 1.0)])
            rsus = [RsuProfile(1.0, 35.0, link_with_efficiency(q)) for q in (10.0, 8.0)]
            return [uav], rsus

        uavs, rsus = market()
        inst = GameInstance(uavs, rsus)
        uavs[0].budget = 20.0
        uavs[0].per_rsu_ssim[1] = SsimTriple(0.1, 1.0, 1.0)
        uavs.append(UavProfile(12.0, 3.0, 0.5, [SsimTriple(1.0, 1.0, 1.0)] * 2))
        rsus[0].price_cap = 30.0
        fresh = GameInstance(*market())
        assert inst == fresh and repr(inst) == repr(fresh)
        assert inst != GameInstance(uavs, rsus)
        for a, b in zip(inst.arrays, fresh.arrays):
            assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(solve_equilibrium(inst).prices.prices,
                                      solve_equilibrium(fresh).prices.prices)

    def test_equality_reads_every_row(self):
        """Markets that differ in one buyer's value, or in one seller's, are
        unequal."""
        def market(budget=2.0, cap=35.0):
            return GameInstance([UavProfile(10.0, budget, 0.5, [SsimTriple(1.0, 1.0, 1.0)])],
                                [RsuProfile(1.0, cap, link_with_efficiency(10.0))])

        assert market() == market()
        assert market(budget=3.0) != market() and market(cap=30.0) != market()
        assert market() == simple_instance(J=1) and market() != simple_instance(J=2)
        assert market() != "market"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_hand_built_copy_of_a_sampled_market(self, data):
        """GameInstance(s.uavs, s.rsus) is the sampled market s: equal, with
        the same repr and every array byte the same."""
        ranges = data.draw(st.sampled_from([{}, {"similarity": (0.85, 1.0)},
                                            {"similarity": (0.0, 0.3)}]))
        I, J = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 6))
        sampled = sample_instance(ranges, I, J, data.draw(st.integers(0, 2**32 - 1)))
        copy = GameInstance(sampled.uavs, sampled.rsus)
        assert copy == sampled and repr(copy) == repr(sampled)
        for a, b in zip(copy.arrays, sampled.arrays):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        np.testing.assert_array_equal(copy.ssim_thresholds, sampled.ssim_thresholds)


# =====================================================================
# Utility functions
# =====================================================================
class TestUtilities:
    def test_zero_demand_zero_utility(self):
        inst = simple_instance(J=2)
        assert uav_utility(inst, 0, [0.0, 0.0], [2.0, 2.0]) == 0.0

    def test_single_link_utility_value(self):
        inst = simple_instance(J=1, budget=100.0)
        b = 10.0 * LN2 / 2.0 - 0.1
        expected = 10.0 * math.log1p(b * 10.0) * LN2 - 2.0 * b
        assert uav_utility(inst, 0, [b], [2.0]) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(17.84, abs=0.01)

    def test_high_price_makes_positive_demand_negative(self):
        inst = simple_instance(J=1, budget=100.0)
        # threshold price delta*q*S ~ 69.31; above it any b > 0 loses
        for b in [0.01, 0.1, 1.0]:
            assert uav_utility(inst, 0, [b], [70.0]) < 0.0
        assert uav_utility(inst, 0, [0.0], [70.0]) == 0.0

    def test_rsu_utility_zero_demand(self):
        inst = simple_instance(J=1)
        assert rsu_utility(inst, 0, [5.0], [0.0]) == 0.0

    def test_rsu_utility_single_term(self):
        inst = simple_instance(J=1, cost=1.0)
        assert rsu_utility(inst, 0, [5.0], [0.2]) == pytest.approx(0.8)

    def test_rsu_utility_zero_margin(self):
        inst = simple_instance(J=1, cost=1.0)
        assert rsu_utility(inst, 0, [1.0], [7.3]) == 0.0

    # at price 0 the buyer's utility is its immersion term delta*ln(1 + b*q)*S
    def test_immersion_zero_demand(self):
        inst = simple_instance(J=1)
        assert uav_utility(inst, 0, [0.0], [0.0]) == 0.0

    def test_immersion_at_threshold_zero(self):
        inst = simple_instance(J=1, ssim=0.5, threshold=0.5)
        assert uav_utility(inst, 0, [3.0], [0.0]) == pytest.approx(0.0)

    def test_immersion_value(self):
        inst = simple_instance(J=1, q=1.0)
        assert uav_utility(inst, 0, [1.0], [0.0]) == pytest.approx(10.0 * LN2 * LN2, rel=1e-9)
        assert 10.0 * LN2 * LN2 == pytest.approx(4.805, abs=0.01)


# =====================================================================
# Follower best response
# =====================================================================
class TestFollowerBestResponse:
    def test_single_rsu_budget_inactive(self):
        inst = simple_instance(J=1, budget=100.0)
        sol = follower_best_response(inst, 0, [2.0])
        assert sol.case_label == CASE_BUDGET_INACTIVE
        assert sol.demands[0] == pytest.approx(10.0 * LN2 / 2.0 - 0.1, rel=1e-12)
        assert sol.lam == 0.0

    def test_symmetric_budget_active_anchor(self):
        # KKT anchor: two symmetric sellers, budget binds, demands (0.5, 0.5)
        inst = simple_instance(J=2, budget=2.0)
        sol = follower_best_response(inst, 0, [2.0, 2.0])
        assert sol.case_label == CASE_BUDGET_ACTIVE
        np.testing.assert_allclose(sol.demands, [0.5, 0.5], atol=1e-9)
        spend = 2.0 * sol.demands.sum()
        assert abs(spend - 2.0) < 1e-10

    def test_price_above_choke_gives_zero(self):
        inst = simple_instance(J=1, budget=100.0)
        sol = follower_best_response(inst, 0, [70.0])
        assert sol.demands[0] == 0.0
        assert sol.case_label == CASE_BUDGET_INACTIVE

    def test_negative_quality_excluded(self):
        uav = UavProfile(10.0, 100.0, 0.5,
                         [SsimTriple(1.0, 1.0, 1.0), SsimTriple(0.4, 1.0, 1.0)])  # S_1 < 0
        inst = GameInstance([uav], simple_instance(J=2).rsus)
        assert inst.arrays.S[0, 1] < 0
        sol = follower_best_response(inst, 0, [2.0, 2.0])
        assert sol.demands[1] == 0.0
        assert 1 not in sol.support

    def test_all_quality_nonpositive_degenerate(self):
        inst = simple_instance(J=2, ssim=0.4, threshold=0.5)
        sol = follower_best_response(inst, 0, [2.0, 2.0])
        assert np.all(sol.demands == 0.0)
        assert sol.case_label == CASE_BUDGET_INACTIVE
        assert sol.degenerate

    def test_kkt_stationarity_and_complementarity(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(200):
            inst = random_instance(rng, I=1, J=3, min_component=0.85)
            cs, caps = inst.costs(), inst.price_caps()
            p = rng.uniform(cs, caps)
            sol = follower_best_response(inst, 0, p)
            if sol.case_label != CASE_BUDGET_ACTIVE:
                continue
            checked += 1
            q = inst.arrays.q
            S = inst.arrays.S[0]
            delta = inst.uavs[0].delta
            for j in sol.support:
                resid = (delta * q[j] * S[j] / (1.0 + sol.demands[j] * q[j])
                         - p[j] * (1.0 + sol.lam))
                assert abs(resid) < 1e-8
            spend = float(p @ sol.demands)
            assert abs(sol.lam * (spend - inst.uavs[0].budget)) < 1e-8
        assert checked > 20

    def test_oracle_equivalence_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            J = int(rng.integers(1, 4))
            inst = random_instance(rng, I=1, J=J)
            p = rng.uniform(inst.costs(), inst.price_caps())
            sol = follower_best_response(inst, 0, p)
            exact = uav_utility(inst, 0, sol.demands, p)
            grid = grid_follower_utility(inst, 0, p, n=200)
            assert exact >= grid - 1e-2

    def test_demand_monotone_in_price(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            inst = random_instance(rng, I=1, J=3)
            cs, caps = inst.costs(), inst.price_caps()
            p = rng.uniform(cs, caps)
            j = int(rng.integers(3))
            sol_lo = follower_best_response(inst, 0, p)
            p_hi = p.copy()
            p_hi[j] = rng.uniform(p[j], caps[j])
            sol_hi = follower_best_response(inst, 0, p_hi)
            assert sol_hi.demands[j] <= sol_lo.demands[j] + 1e-10


class TestAllFollowersRespond:
    def test_identical_uavs_identical_rows(self):
        uav = simple_instance(J=2).uavs[0]
        inst = GameInstance([uav, uav], simple_instance(J=2).rsus)
        assert inst.num_uavs == 2
        P = np.full((2, 2), 2.0)
        dm = all_followers_respond(inst, P)
        np.testing.assert_allclose(dm.demands[0], dm.demands[1])

    def test_single_uav_delegates(self):
        inst = simple_instance(J=2)
        P = np.array([[3.0], [4.0]])
        dm = all_followers_respond(inst, P)
        sol = follower_best_response(inst, 0, P[:, 0])
        np.testing.assert_allclose(dm.demands[0], sol.demands)


def edge_market(rng, I, J, lead=()):
    """A drawn I x J market m and (*lead, I, J) buyer price rows p at the
    kernel's edges. Links are unusable (-inf), have S <= 0 or are usable;
    prices sit inside [c/2, cap], at the choke price delta*q*S or past it.
    About half the buyers with demand get a budget equal to their exact slack
    spend at the first price matrix; tie marks them."""
    c = rng.uniform(1.0, 4.0, J)
    sim = np.where(rng.random((I, J)) < 0.15, 0.0, rng.uniform(0.3, 1.0, (I, J)))
    m = game._market_arrays(rng.uniform(0.5, 40.0, J), c, rng.uniform(c, 35.0),
                            sim, np.full(I, 0.5), rng.uniform(1.0, 20.0, I),
                            rng.uniform(0.1, 20.0, I))
    choke = m.delta[:, None] * m.q * np.where(m.S > 0.0, m.S, 0.0)
    p = rng.uniform(0.5 * c, m.cap, lead + (I, J))
    at = rng.integers(0, 3, p.shape)    # 0: inside, 1: at the choke, 2: past it
    p = np.where((at == 1) & (choke > 0.0), choke, p)
    p = np.where((at == 2) & (choke > 0.0), choke * rng.uniform(1.0, 2.0, p.shape), p)

    *_, cand, _, _ = game._budget_split(p, m)
    spend = game._row_sums((p * cand).reshape(-1, I, J)[0])
    tie = (spend > 0.0) & (rng.random(I) < 0.5)
    return m._replace(budget=np.where(tie, spend, m.budget)), p, tie


class TestBatchedFollower:
    """The water-filling kernel and every public path that runs it against
    the buyer-by-buyer reference solver."""

    @staticmethod
    def check_against_reference(inst, prices):
        """The kernel == the reference on every buyer column of a (K, J, I)
        price stack, each column passed with the stack's own strides, and the
        kernel gives the same bits for the stack's values laid out as strided
        buyer columns and as contiguous buyer rows; on every third price
        matrix, follower_best_response (every field), all_followers_respond
        and, for a C-contiguous stack, env.step (demands and rewards) equal the
        reference too. Returns the kernel's exits and the first water-filling
        multiplier over the usable links (the lambda the reference loop starts
        from)."""
        q, _, _, S, delta, budget = inst.arrays
        out = game._batched_follower_demands(prices, inst.arrays)
        demands, lam, exits = out
        rows = np.ascontiguousarray(np.swapaxes(prices, -1, -2))
        for layout in (np.ascontiguousarray(prices), np.swapaxes(rows, -1, -2)):
            for got, want in zip(game._batched_follower_demands(layout, inst.arrays), out):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        usable = np.isfinite(S) & (S > 0.0)
        want = [[reference_follower_best_response(inst, i, P[:, i])
                 for i in range(inst.num_uavs)] for P in prices]
        want_demands = np.array([[w.demands for w in row] for row in want])
        np.testing.assert_array_equal(demands, want_demands, strict=True)
        np.testing.assert_array_equal(lam, [[w.lam for w in row] for row in want])
        np.testing.assert_array_equal(exits == game._BINDING,
                                      [[w.case_label == CASE_BUDGET_ACTIVE for w in row]
                                       for row in want])
        np.testing.assert_array_equal((exits == game._NO_DEMAND) & ~usable.any(axis=1),
                                      [[w.degenerate for w in row] for row in want])

        env = PricingEnv(inst, EnvConfig(history_length=1, episode_length=1))
        env.reset()
        for k in range(0, len(prices), 3):
            P = prices[k]
            for i, w in enumerate(want[k]):
                got = follower_best_response(inst, i, P[:, i])
                np.testing.assert_array_equal(got.demands, w.demands, strict=True)
                assert got.case_label == w.case_label
                assert type(got.lam) is float and got.lam == w.lam
                assert got.support == w.support
                assert got.degenerate is w.degenerate
            np.testing.assert_array_equal(all_followers_respond(inst, P).demands,
                                          want_demands[k], strict=True)
            if prices.flags.c_contiguous:
                # env.step stacks the agents' price rows into a contiguous matrix
                out = env.step(list(P))
                np.testing.assert_array_equal(out.demands, want_demands[k],
                                              strict=True)
                np.testing.assert_array_equal(out.rewards, [
                    rsu_utility(inst, j, P[j], want_demands[k][:, j])
                    for j in range(len(P))], strict=True)
        first_lam = (delta * np.where(usable, S, 0.0).sum(axis=1)
                     / (budget + np.where(usable, rows / q, 0.0).sum(axis=-1)) - 1.0)
        return exits, first_lam

    def test_matches_scalar_solver_exactly(self):
        # J up to 10, and each stack twice: strided buyer columns (P[:, i], the
        # final demands and the verifier's buyer half) and contiguous buyer rows
        # (the solver's candidate price rows and the verifier's search trials),
        # which must give the same bits
        # (the masked water-filling steps every row of a call until the last
        # one settles, so a row that exits on the first step, keeping all its
        # usable links, beside a row whose support shrinks is recomputed
        # after it has settled)
        rng = np.random.default_rng(17)
        reached = {"slack": False, "binding": False, "no usable link": False,
                   "first-step and later exits in one call": False}
        for trial in range(120):
            J = 1 + trial % 10
            inst = random_instance(rng, I=3, J=J,
                                   min_component=0.85 if trial % 20 < 10 else 0.0)
            cs, caps = inst.costs()[:, None], inst.price_caps()[:, None]
            inside = rng.uniform(cs, caps, size=(20, J, 3))
            corners = np.where(rng.random((4, J, 3)) < 0.5, caps, cs)
            box = np.broadcast_to(np.stack([cs, caps]), (2, J, 3))
            stack = np.concatenate([inside, corners, box])
            buyer_rows = np.ascontiguousarray(np.swapaxes(stack, 1, 2))
            for prices in (stack, np.swapaxes(buyer_rows, 1, 2)):
                exits, _ = self.check_against_reference(inst, prices)
            S = inst.arrays.S
            usable = np.isfinite(S) & (S > 0.0)
            unusable = ~usable.any(axis=1)
            demands = game._batched_follower_demands(stack, inst.arrays)[0]
            whole = ((demands > 0) == usable).all(axis=-1)   # support never shrank
            binding = exits == game._BINDING
            reached["first-step and later exits in one call"] |= bool(
                np.any(binding & whole) and np.any(binding & ~whole))
            reached["slack"] |= bool(np.any(exits == game._SLACK))
            reached["binding"] |= bool(np.any(exits == game._BINDING))
            reached["no usable link"] |= bool(np.any((exits == game._NO_DEMAND)
                                                     & unusable))
        assert all(reached.values()), reached

    def test_matches_scalar_solver_when_first_lambda_is_nonpositive(self):
        # random_instance markets never start the water-filling at lambda <= 0:
        # that needs a usable link priced past its choke point beside a
        # binding one. Here link 1 (S = 0.01, choke price 1) is priced at 30,
        # so lambda starts at -0.27, is floored at 1e-15 and link 1 drops out.
        rsus = [RsuProfile(1.0, 35.0, link_with_efficiency(10.0)) for _ in range(2)]
        uav = UavProfile(10.0, 6.5, 0.5, [SsimTriple(1.0, 1.0, 1.0),
                                          SsimTriple(0.5 * math.exp(0.01), 1.0, 1.0)])
        inst = GameInstance([uav], rsus)
        exits, first_lam = self.check_against_reference(inst, np.array([[[1.0], [30.0]]]))
        assert exits[0, 0] == game._BINDING
        assert first_lam[0, 0] < 0.0

    def test_matches_scalar_solver_on_a_search_level(self, monkeypatch):
        # the verifier's first search level on a dense 15 x 6 market: 33 grid
        # points for each of the 6 sellers, 2,970 buyer rows in one call, laid
        # out as the verifier lays them out
        inst = sample_instance({"similarity": (0.85, 1.0)}, 15, 6, 1)
        sol = solve_equilibrium(inst)
        kernel, stacks = game._batched_follower_demands, []

        def spy(prices, m):
            stacks.append(prices)
            return kernel(prices, m)

        monkeypatch.setattr(game, "_batched_follower_demands", spy)
        verify_equilibrium(inst, sol)
        monkeypatch.undo()
        level = next(p for p in stacks if p.ndim == 4)
        assert level.shape == (6, 33, 6, 15)
        exits, _ = self.check_against_reference(inst, level.reshape(-1, 6, 15))
        assert np.mean(exits == game._BINDING) > 0.9

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_reference_on_drawn_edge_markets(self, data):
        # The reference keeps the lambda <= 0 fallback and the empty-support
        # exit that the kernel dropped: equal outputs show neither one fires.
        # Links are unusable (SSIM 0), have S <= 0, or are usable; prices sit
        # at cost, at cap, inside the box or past the choke price delta*q*S;
        # budgets sit near each buyer's unconstrained spend, the kernel's own
        # sum, so that a scale of 1.0 is an exact tie.
        J = data.draw(st.integers(1, 6), label="J")
        I = data.draw(st.integers(1, 4), label="I")
        rsus = []
        for _ in range(J):
            c = data.draw(st.floats(1.0, 4.0))
            rsus.append(RsuProfile(c, data.draw(st.floats(c, 35.0)),
                                   link_with_efficiency(data.draw(st.floats(0.5, 40.0)))))
        q = np.array([r.link.spectrum_efficiency for r in rsus])
        uavs, P = [], np.empty((J, I))
        for i in range(I):
            delta = data.draw(st.floats(10.0, 20.0))
            threshold = data.draw(st.floats(0.5, 0.55))
            triples, S = [], np.zeros(J)
            for j, r in enumerate(rsus):
                link = data.draw(st.sampled_from(["unusable", "S <= 0", "usable"]))
                s = {"unusable": 0.0,
                     "S <= 0": data.draw(st.floats(0.01, threshold)),
                     "usable": data.draw(st.floats(threshold, 1.0, exclude_min=True))}[link]
                triples.append(SsimTriple(s, 1.0, 1.0))
                S[j] = math.log(s / threshold) if s > 0 else -math.inf
                choke = delta * q[j] * S[j]
                at = data.draw(st.sampled_from(["cost", "cap", "inside", "past choke"]))
                if at == "past choke" and choke < r.price_cap:
                    P[j, i] = data.draw(st.floats(max(choke, r.bandwidth_cost), r.price_cap))
                else:
                    P[j, i] = {"cost": r.bandwidth_cost, "cap": r.price_cap}.get(
                        at, data.draw(st.floats(r.bandwidth_cost, r.price_cap)))
            usable = S > 0
            cand = np.where(usable & (P[:, i] < delta * q * np.where(usable, S, 0.0)),
                            delta * np.where(usable, S, 0.0) / P[:, i] - 1.0 / q, 0.0)
            cand = np.maximum(cand, 0.0)
            spend = float(np.sum(P[:, i] * cand))
            if spend > 0:
                scale = data.draw(st.sampled_from([0.3, 0.9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.5]))
                budget = spend * scale
            else:
                budget = data.draw(st.floats(0.1, 20.0))
            uavs.append(UavProfile(delta, budget, threshold, triples))
        inst = GameInstance(uavs, rsus)
        strided = np.swapaxes(np.ascontiguousarray(P.T)[None], 1, 2)
        for prices in (P[None], strided):
            self.check_against_reference(inst, prices)
        for i in range(I):
            w = reference_follower_best_response(inst, i, P[:, i])
            assert not w.degenerate or not np.any(inst.arrays.S[i] > 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_budget_split_is_the_kernels_first_stage(self, data):
        # _budget_split's slack and binding rows are the kernel's _SLACK and
        # _BINDING exits, and a slack row's candidates are the kernel's
        # demands bit for bit, on price stacks with 0-2 leading axes (up to
        # 512 rows, so short rows take _row_sums' column path) and J up to 9
        # (the reduce path), on edge_market's links, prices and budgets; a
        # budget at the exact slack spend must be slack.
        lead = tuple(data.draw(st.lists(st.integers(1, 8), max_size=2), label="lead"))
        I = data.draw(st.integers(1, 8), label="I")
        J = data.draw(st.integers(1, 9), label="J")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        m, p, tie = edge_market(rng, I, J, lead)

        *_, cand, slack, binding = game._budget_split(p, m)
        demands, _, exits = game._batched_follower_demands(np.swapaxes(p, -1, -2), m)
        np.testing.assert_array_equal(slack, exits == game._SLACK, strict=True)
        np.testing.assert_array_equal(binding, exits == game._BINDING, strict=True)
        assert cand[slack].tobytes() == demands[slack].tobytes()
        assert slack.reshape(-1, I)[0][tie].all()

    @staticmethod
    def positive_and_below_choke_split(p, m):
        """The reference: _budget_split with its candidate mask written as the
        positive links and p below the choke price delta*q*S."""
        q, S, delta = m.q, m.S, m.delta
        positive = S > 0.0
        S = np.where(positive, S, 0.0)
        d = delta[:, None]
        dS, dqS, inv_q = d * S, d * q * S, 1.0 / q
        cand = np.where(positive & (p < dqS), dS / p - inv_q, 0.0)
        cand = np.maximum(cand, 0.0)
        wants = game._row_sums(cand > 0) > 0
        slack = wants & (game._row_sums(p * cand) <= m.budget)
        return positive, S, dS, inv_q, cand, slack, wants & ~slack

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_budget_split_needs_no_positive_mask(self, data):
        # S is 0.0 off the positive links, so there p < delta*q*S only for
        # p < 0, whose candidate floors to +0.0: _budget_split equals the
        # form that also masks by the positive links, byte for byte, on
        # edge_market's -inf and S <= 0 links (and S = +-0.0 ones) priced at
        # p <= 0, -0.0, +-inf or NaN, beside its own prices
        lead = tuple(data.draw(st.lists(st.integers(1, 8), max_size=2), label="lead"))
        I = data.draw(st.integers(1, 8), label="I")
        J = data.draw(st.integers(1, 9), label="J")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        m, p, _ = edge_market(rng, I, J, lead)
        zero = rng.random((I, J)) < 0.1
        m = m._replace(S=np.where(zero, rng.choice([0.0, -0.0], (I, J)), m.S))
        special = np.array([0.0, -0.0, -1e-300, -1.5, -np.inf, np.inf, np.nan])
        pick = rng.random(p.shape) < np.where(m.S > 0.0, 0.1, 0.6)
        p = np.where(pick, rng.choice(special, p.shape), p)

        with np.errstate(divide="ignore", invalid="ignore"):
            got = game._budget_split(p, m)
            want = self.positive_and_below_choke_split(p, m)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_demand_never_rises_with_its_own_price(self, data):
        # raising p_ji alone by a factor in [1 + 1e-9, 2] never raises b_ij by
        # more than 1e-12 relative, on edge_market's links, prices and
        # budgets; at a budget equal to the slack spend, the least raise tips
        # the buyer into binding
        I = data.draw(st.integers(1, 8), label="I")
        J = data.draw(st.integers(1, 9), label="J")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        m, p, _ = edge_market(rng, I, J)

        # price matrix k + 1 raises link k of every buyer; matrix 0 is the base
        factor = np.where(rng.random((J, I)) < 0.25, 1.0 + 1e-9,
                          rng.uniform(1.0 + 1e-9, 2.0, (J, I)))
        raised = np.repeat(p[None], J + 1, axis=0)
        for k in range(J):
            raised[k + 1, :, k] *= factor[k]
        demands = game._batched_follower_demands(np.swapaxes(raised, -1, -2), m)[0]
        before = demands[0]
        after = np.stack([demands[k + 1, :, k] for k in range(J)], axis=-1)
        assert (after <= before + 1e-12 * before).all(), np.max(after - before)


class TestSupportSums:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_masked_sum_of_each_row(self, data):
        # values of mixed sign and magnitude, so that any other summation
        # order shows in the last bits; densities 0 and 1 give empty and full
        # rows, up to 1,100 rows take _row_sums' column path, a leading
        # batch shape is summed like the kernel's, and the values are
        # contiguous or strided
        J = data.draw(st.integers(1, 10), label="J")
        batch = tuple(data.draw(st.lists(st.integers(0, 3), max_size=2), label="batch"))
        rows = data.draw(st.one_of(st.integers(0, 12), st.integers(1000, 1100)), label="rows")
        shape = batch + (rows, J)
        density = data.draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]), label="density")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        support = rng.random(shape) < density
        wide = shape[:-1] + (2 * J,)
        raw = rng.standard_normal(wide) * 10.0 ** rng.integers(-8, 9, wide)
        strided = data.draw(st.booleans(), label="strided")
        values = raw[..., ::2] if strided else np.ascontiguousarray(raw[..., :J])
        got = game._support_sums(values, support)
        assert got.shape == shape[:-1]
        for row in np.ndindex(shape[:-1]):
            masked = np.sum(np.where(support[row], values[row], 0.0))
            assert got[row].tobytes() == masked.tobytes(), row
            if J <= 7:   # a row of fewer than 8 entries: the gathered sum's bits
                gathered = np.add.reduce(values[row][support[row]])
                assert got[row].tobytes() == gathered.tobytes(), row


class TestRowSums:
    SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         np.inf, -np.inf, np.nan, -np.nan])

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_bytes_equal_the_reduce(self, data):
        # row counts on both sides of the column path's gate, spread over
        # leading batch axes; floats of mixed sign, magnitudes spanning
        # 1e-300 to 1e300 or a few decades (where any other order shows in the
        # last bits), the special values and whole rows of -0.0; or bools,
        # counted as the kernel counts its positive candidates
        J = data.draw(st.integers(1, 12), label="J")
        gate = game._COLUMN_SUM_ROWS
        rows = data.draw(st.sampled_from([0, 1, gate - 1, gate, 3000]), label="rows")
        lead = data.draw(st.sampled_from([d for d in (1, 2, 3, 5) if rows % d == 0]),
                         label="lead")
        batches = [(rows,), (lead, rows // lead), (lead, 1, rows // lead)]
        batch = data.draw(st.sampled_from(batches + [()] * (rows == 1)), label="batch")
        shape = batch + (J,)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        wide = batch + (2 * J,)
        if data.draw(st.booleans(), label="bool"):
            raw = rng.random(wide) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))
        else:
            decades = data.draw(st.sampled_from([8, 300]), label="decades")
            raw = (rng.choice([-1.0, 1.0], wide)
                   * 10.0 ** rng.uniform(-decades, decades, wide))
            share = data.draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]), label="specials")
            raw = np.where(rng.random(wide) < share, rng.choice(self.SPECIALS, wide), raw)
            raw[rng.random(batch) < 0.1] = -0.0
        layout = data.draw(st.sampled_from(["contiguous", "strided", "transposed"]),
                           label="layout")
        x = {"contiguous": np.ascontiguousarray(raw[..., :J]), "strided": raw[..., ::2],
             "transposed": np.asfortranarray(raw[..., :J])}[layout]
        with np.errstate(invalid="ignore", over="ignore"):
            got, want = game._row_sums(x), np.add.reduce(x, axis=-1)
        assert got.dtype == want.dtype and np.shape(got) == np.shape(want) == shape[:-1]
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# =====================================================================
# Leader best responses
# =====================================================================
class TestLeaderResponses:
    def test_unconstrained_price_closed_form(self):
        inst = simple_instance(J=1, budget=1e9)
        p_star = float(game._slack_prices(inst.arrays)[0, 0])
        assert p_star == pytest.approx(math.sqrt(10.0 * LN2 * 10.0 * 1.0), rel=1e-12)
        # 1-D oracle: (p - c) * demand(p) is maximized at p_star
        grid = np.linspace(1.0, 35.0, 4000)
        vals = [(p - 1.0) * max(10.0 * LN2 / p - 0.1, 0.0) for p in grid]
        assert abs(grid[int(np.argmax(vals))] - p_star) < 0.02

    def test_unconstrained_price_sqrt_homogeneity(self):
        inst_1 = simple_instance(J=1, cost=1.0)
        inst_4 = simple_instance(J=1, cost=4.0)
        p1 = game._slack_prices(inst_1.arrays)[0, 0]
        p4 = game._slack_prices(inst_4.arrays)[0, 0]
        assert p4 == pytest.approx(2.0 * p1, rel=1e-12)

    def test_link_without_positive_log_quality_prices_at_cost(self):
        # S < 0 on link 0 and -inf (SSIM 0) on link 1: neither has a slack price
        uav = UavProfile(10.0, 2.0, 0.5,
                         [SsimTriple(0.4, 1.0, 1.0), SsimTriple(0.0, 1.0, 1.0)])
        inst = GameInstance([uav], simple_instance(J=2, cost=3.0).rsus)
        assert inst.arrays.S[0, 0] < 0 and inst.arrays.S[0, 1] == -math.inf
        np.testing.assert_array_equal(game._slack_prices(inst.arrays), [[3.0, 3.0]])

    def test_symmetric_fixed_point_is_five(self):
        inst = simple_instance(J=2, budget=2.0)
        p = np.array([1.0, 1.0])
        for _ in range(200):
            p = leader_best_response_map(inst, 0, p)
        np.testing.assert_allclose(p, [5.0, 5.0], atol=1e-9)

    def test_standard_function_properties(self):
        # positivity / monotonicity / scalability of the unclamped map
        rng = np.random.default_rng(23)
        for _ in range(1000):
            inst = random_instance(rng, I=1, J=3, min_component=0.85)
            S = inst.arrays.S[0]
            assert np.all(np.isfinite(S) & (S > 0))
            p = rng.uniform(inst.costs(), inst.price_caps())
            phi = leader_best_response_map(inst, 0, p, clamp=False)
            assert np.all(phi > 0)
            p_up = p.copy()
            j = int(rng.integers(3))
            p_up[j] += rng.uniform(0.1, 5.0)
            phi_up = leader_best_response_map(inst, 0, p_up, clamp=False)
            assert np.all(phi_up >= phi - 1e-12)
            assert np.any(phi_up > phi)
            chi = rng.uniform(1.01, 3.0)
            phi_scaled = leader_best_response_map(inst, 0, chi * p, clamp=False)
            assert np.all(chi * phi > phi_scaled - 1e-12)

    def test_map_matches_reference_exactly(self):
        # the batched map, one row at a time, against the seller-by-seller
        # formulas; floor 0 gives unusable links and lone usable links, whose
        # coordinate falls back to the slack-budget price
        rng = np.random.default_rng(29)
        for trial in range(200):
            J = 1 + trial % 10
            inst = random_instance(rng, I=2, J=J,
                                   min_component=0.85 if trial % 20 < 10 else 0.0)
            cs, caps = inst.costs(), inst.price_caps()
            for p in (rng.uniform(cs, caps), cs, caps):
                for i in range(2):
                    np.testing.assert_array_equal(leader_best_response_map(inst, i, p),
                                                  reference_leader_map(inst, i, p))

    def test_fixed_points_of_a_stack_match_each_row_alone(self, monkeypatch):
        # rows certify their roots after different numbers of steps; a
        # certified row stays in the stack, unchanged, while the others go
        # on; a budget of 2 steps leaves some rows uncertified
        rng = np.random.default_rng(31)
        spread = uncertified = False
        for budget in (2, game._ROOT_STEPS):
            monkeypatch.setattr(game, "_ROOT_STEPS", budget)
            for trial in range(40):
                J = 1 + trial % 10
                inst = random_instance(rng, I=6, J=J,
                                       min_component=0.85 if trial % 4 < 2 else 0.0)
                m = inst.arrays.buyers(np.flatnonzero((inst.arrays.S > 0.0).any(axis=1)))
                p_s = np.clip(game._slack_prices(m), m.c, m.cap)
                stack = game._leader_roots(m, p_s)
                for i in range(len(m.S)):
                    alone = game._leader_roots(m.buyers([i]), p_s[[i]])
                    for a, b in zip(stack[:4], alone[:4]):   # then the price function
                        np.testing.assert_array_equal(a[i], b[0], strict=True)
                spread |= len(set(stack[1].tolist())) > 1
                uncertified |= not stack[3].all()
        assert spread and uncertified

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_roots_match_iterated_oracle_on_drawn_markets(self, data):
        # up to 12 sellers with caps 4-40 and budgets 0.1-20, so that some
        # fixed points sit at a cap; links are usable, have S <= 0 or are
        # unusable (SSIM 0), and a buyer may have one usable link only, whose
        # price is its clamped slack price
        J = data.draw(st.integers(1, 12), label="J")
        I = data.draw(st.integers(1, 4), label="I")
        rsus = []
        for _ in range(J):
            c = data.draw(st.floats(0.5, 4.0))
            rsus.append(RsuProfile(c, data.draw(st.floats(4.0, 40.0)),
                                   link_with_efficiency(data.draw(st.floats(1.0, 40.0)))))
        uavs = []
        for _ in range(I):
            lone = data.draw(st.one_of(st.none(), st.none(), st.integers(0, J - 1)),
                             label="lone usable link")
            kinds = ["unusable", "S <= 0"] + ["usable"] * (4 if lone is None else 0)
            triples = []
            for j in range(J):
                link = "usable" if j == lone else data.draw(st.sampled_from(kinds))
                s = {"unusable": 0.0, "S <= 0": data.draw(st.floats(0.01, 0.5)),
                     "usable": data.draw(st.floats(0.5, 1.0, exclude_min=True))}[link]
                triples.append(SsimTriple(s, 1.0, 1.0))
            delta, budget = data.draw(st.floats(1.0, 20.0)), data.draw(st.floats(0.1, 20.0))
            uavs.append(UavProfile(delta, budget, 0.5, triples))
        inst = GameInstance(uavs, rsus)
        assert_solution_close(solve_equilibrium(inst), reference_solve_equilibrium(inst))

        # every binding buyer's root certifies, and the oracle's g changes
        # sign across SOLVE_RTOL around the X its prices spend
        m = inst.arrays
        p_s = np.clip(game._slack_prices(m), m.c, m.cap)
        exits = game._batched_follower_demands(p_s.T, m)[2]
        binding = np.flatnonzero(exits == game._BINDING)
        p, steps, width, certified, _ = game._leader_roots(m.buyers(binding), p_s[binding])
        assert certified.all() and (width <= game._ROOT_RTOL).all()
        for i, row in zip(binding.tolist(), p):
            X = float(np.sum(np.where(m.S[i] > 0.0, row / m.q, 0.0)))
            assert reference_leader_gap(inst, i, X * (1.0 - SOLVE_RTOL)) > 0.0
            assert reference_leader_gap(inst, i, X * (1.0 + SOLVE_RTOL)) < 0.0


# =====================================================================
# Equilibrium solve + verification
# =====================================================================
def degraded_seller_solution():
    """Symmetric anchor with seller 0 repriced at cost: not an equilibrium."""
    inst = simple_instance(J=2, budget=2.0)
    sol = solve_equilibrium(inst)
    # degrade seller 0 to pricing at cost: it must find an improving deviation
    sol.prices.prices[0, :] = inst.costs()[0]
    sol.demands = all_followers_respond(inst, sol.prices)
    sol.rsu_utilities = np.array([
        rsu_utility(inst, j, sol.prices.prices[j], sol.demands.demands[:, j])
        for j in range(2)
    ])
    return inst, sol


def solved(inst):
    return inst, solve_equilibrium(inst)


def understate(sol):
    """Lower a solution's recorded utilities, so that the posted margins and
    best responses beat them and a verifier report carries their own margins
    and utilities."""
    sol.rsu_utilities = 0.9 * sol.rsu_utilities
    sol.uav_utilities = sol.uav_utilities - 0.5 * np.abs(sol.uav_utilities)


def trends_market(I, J, seed, understated):
    """A market of the trends sweeps: every link usable, budgets mostly
    binding; its solution understated (understate) if asked."""
    inst, sol = solved(sample_instance({"similarity": (0.85, 1.0)}, I, J, seed))
    if understated:
        understate(sol)
    return inst, sol


# (id, build): a market and its solution; an understated solution
# (understate) makes every seller and buyer report a violation
VERIFY_CASES = [
    ("anchor", lambda: solved(simple_instance(J=2, budget=2.0))),
    ("degraded-seller", degraded_seller_solution),
    ("zero-surplus", lambda: solved(simple_instance(J=2, ssim=0.4, threshold=0.5))),
] + [
    (f"market-I{I}-J{J}{'-understated' if low else ''}",
     lambda I=I, J=J, seed=seed, low=low: trends_market(I, J, seed, low))
    for I, J, seed, low in [(15, 2, 0, False), (15, 6, 1, False), (15, 6, 2, True),
                            (3, 3, 3, True), (15, 3, 4, False), (9, 3, 5, True)]
] + [
    # the largest cells of perfbench's two sweep grids
    ("sweep-I15-J6-understated", lambda: trends_market(15, 6, 7, True)),
    ("sweep-I12-J3-understated", lambda: trends_market(12, 3, 8, True)),
]

# The largest shortfall of the verifier's search (game._best_deviations) from
# best_deviation seen is 1.1e-6 of the largest seller utility, on sampled
# 100 x 10 markets (similarity 0.5-1, seeds 0-7), and 1.05e-6 over 1,023
# entries of 150 small markets at solved or drawn prices; a search margin may
# fall short of the oracle's by this tolerance, in those units.
SEARCH_TOL = 2e-6


def assert_same_solution(got, want):
    """Every field of two EquilibriumSolutions equal, bit for bit and in layout."""
    for name, a, b in (("prices", got.prices.prices, want.prices.prices),
                       ("demands", got.demands.demands, want.demands.demands)):
        np.testing.assert_array_equal(a, b, err_msg=name, strict=True)
        assert a.strides == b.strides, name
    for name in ("rsu_utilities", "uav_utilities"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name),
                                      err_msg=name, strict=True)
    for name in ("per_uav_case", "iterations", "residual", "consistent", "diagnostics"):
        a, b = getattr(got, name), getattr(want, name)
        assert type(a) is type(b) and a == b, (name, a, b)


# The solved-market digests: one sha256 per (ranges, market size) over every
# field of solve_equilibrium and of a verify_equilibrium report on the
# understated solution (understate). solved_digests.json holds 12 seeds
# of J <= 7 markets and wide_solved_digests.json 8 seeds of J = 8..12
# markets, where numpy's pairwise sum makes the masked order the defined one.
# Both were recorded with the binding buyers' prices from one certified
# scalar root each (game._leader_roots), every spend summed by _row_sums of
# the products, the kink buyers priced on their budget kink (of the 36
# groups, only "dense 3x2" had a mixed-case solve before, and only its solve
# part and its seller violations moved), the verifier's buyer half scoring
# each buyer's exact best response (the buyer violations of every group moved)
# and its seller half searching each price entry on a grid (only the reports
# moved: the solve part of every digest kept its bits).
SOLVED_DIGESTS = Path(__file__).with_name("solved_digests.json")
WIDE_SOLVED_DIGESTS = Path(__file__).with_name("wide_solved_digests.json")
SOLVED_RANGES = {"default": {}, "half": {"similarity": (0.5, 1.0)},
                 "dense": {"similarity": (0.85, 1.0)}}
SOLVED_SIZES = ((4, 1), (3, 2), (6, 3), (5, 4), (8, 5), (15, 6), (5, 7))
WIDE_SOLVED_SIZES = ((3, 8), (9, 9), (5, 10), (12, 11), (6, 12))


def solved_digests(seeds=range(12), sizes=SOLVED_SIZES) -> dict:
    """sha256 of the arrays (dtype, shape, bytes) and the repr of the other
    fields of each seed's solution and report, one digest per (ranges, I x J)."""
    out = {}
    for name, ranges in SOLVED_RANGES.items():
        for I, J in sizes:
            digest = hashlib.sha256()
            for seed in seeds:
                inst = sample_instance(ranges, I, J, seed)
                sol = solve_equilibrium(inst)
                for a in (sol.prices.prices, sol.demands.demands, sol.rsu_utilities,
                          sol.uav_utilities):
                    digest.update(f"{a.dtype}{a.shape}".encode())
                    digest.update(a.tobytes())
                digest.update(repr((sol.per_uav_case, sol.iterations, sol.residual,
                                    sol.consistent, sol.diagnostics)).encode())
                understate(sol)
                report = verify_equilibrium(inst, sol)
                digest.update(repr((report.rsu_violations, report.uav_violations,
                                    report.max_violation)).encode())
            out[f"{name} {I}x{J}"] = digest.hexdigest()
    return out


# solve_equilibrium against the oracle iterated to its tight step
# (_oracles.FIXED_POINT_TOL): prices, demands and utilities within SOLVE_RTOL
# of the oracle's, relative to each entry; a demand's error also scales with
# its buyer's largest demand, since b = delta*S/(p*(1 + lambda)) - 1/q loses
# digits where b is small.
SOLVE_RTOL = 1e-10


def uncertified_buyers(sol) -> set:
    """The buyers with a "root not certified" diagnostic; there is no other
    kind."""
    flagged = {int(m.group(1)) for d in sol.diagnostics
               if (m := re.match(r"uav (\d+): root not certified", d))}
    assert len(flagged) == len(sol.diagnostics), sol.diagnostics
    return flagged


def assert_solution_close(got, want):
    """Two EquilibriumSolutions alike: arrays within SOLVE_RTOL, the same
    cases and consistency, and a "root not certified" diagnostic for the same
    buyers."""
    np.testing.assert_allclose(got.prices.prices, want.prices.prices, rtol=SOLVE_RTOL,
                               atol=0.0, err_msg="prices")
    D = want.demands.demands
    np.testing.assert_array_less(
        np.abs(got.demands.demands - D),
        SOLVE_RTOL * np.maximum(np.abs(D), D.max(axis=1, keepdims=True)) + 1e-300)
    for name in ("rsu_utilities", "uav_utilities"):
        a, b = getattr(got, name), getattr(want, name)
        np.testing.assert_allclose(a, b, rtol=SOLVE_RTOL, atol=SOLVE_RTOL * np.max(np.abs(b)),
                                   err_msg=name)
    assert got.per_uav_case == want.per_uav_case
    assert got.consistent == want.consistent
    assert uncertified_buyers(got) == uncertified_buyers(want)


ORACLE_FLOORS = (0.0, 0.5, 0.85)
# Newton step budgets of the binding buyers' roots (game._ROOT_STEPS): 0 and 1
# leave every root uncertified (the first step only evaluates g at the top of
# the bracket), 3 some, 10,000 none
ROOT_STEP_BUDGETS = (0, 1, 3, 10_000)


def oracle_grid(floor_index, budget_index):
    """One market per I in 1..15 at one similarity floor and step budget,
    J running through 1..10 across the floors and budgets."""
    offset = 4 * floor_index + budget_index
    return [sample_instance({"similarity": (ORACLE_FLOORS[floor_index], 1.0)},
                            I, 1 + (3 * I + offset) % 10, 100 * offset + I)
            for I in range(1, 16)]


class TestEquilibrium:
    @pytest.mark.parametrize("floor_index", range(len(ORACLE_FLOORS)),
                             ids=[f"floor{f}" for f in ORACLE_FLOORS])
    @pytest.mark.parametrize("budget_index", range(len(ROOT_STEP_BUDGETS)),
                             ids=[f"iters{n}" for n in ROOT_STEP_BUDGETS])
    def test_solve_matches_reference_loop(self, floor_index, budget_index, monkeypatch):
        # the solve agrees with the iterated oracle; with a step budget, a
        # buyer whose root certified within it keeps its column bit for bit,
        # slack, binding or kink, and one whose root did not keeps the
        # bracket's midpoint with a "root not certified" diagnostic, in an
        # inconsistent solve. 10,000 steps is more than any root takes.
        budget = ROOT_STEP_BUDGETS[budget_index]
        flagged_by_budget = 0
        for inst in oracle_grid(floor_index, budget_index):
            full = solve_equilibrium(inst)
            assert_solution_close(full, reference_solve_equilibrium(inst))
            assert full.consistent and not full.diagnostics
            monkeypatch.setattr(game, "_ROOT_STEPS", budget)
            capped = solve_equilibrium(inst)
            monkeypatch.undo()
            assert capped.iterations <= budget
            if budget >= full.iterations:
                assert_same_solution(capped, full)
                continue
            flagged = uncertified_buyers(capped)
            assert flagged and not capped.consistent
            P, D = capped.prices.prices, capped.demands.demands
            for i in range(inst.num_uavs):
                if i in flagged:
                    assert capped.per_uav_case[i] == CASE_BUDGET_ACTIVE
                    continue
                np.testing.assert_array_equal(P[:, i], full.prices.prices[:, i])
                np.testing.assert_array_equal(D[i], full.demands.demands[i])
                assert capped.per_uav_case[i] == full.per_uav_case[i]
            flagged_by_budget += len(flagged)
        # no root certifies within 0 or 1 steps, and every grid has binding buyers
        assert flagged_by_budget > 0 or budget > 1

    @pytest.mark.parametrize("build, kinks", [
        (lambda: simple_instance(J=2, budget=2.0), []),
        (lambda: simple_instance(J=2, ssim=0.4, threshold=0.5), []),
        (lambda: simple_instance(J=1, budget=1e9), []),
        # one kink buyer with one seller at its cost (S < 0) ...
        (lambda: sample_instance({}, 5, 3, seed=192), [2]),
        # ... and two among 100 buyers
        (lambda: sample_instance({"similarity": (0.5, 1.0)}, 100, 10, 3), [19, 73]),
    ], ids=["anchor", "zero-surplus", "huge-budget", "kink-seed192", "kink-100x10"])
    def test_solve_matches_reference_special(self, build, kinks):
        inst = build()
        want = reference_solve_equilibrium(inst)
        got = solve_equilibrium(inst)
        assert_solution_close(got, want)
        assert want.consistent and got.consistent and not got.diagnostics
        # the kink buyers, and only they, spend their whole budget at the
        # kink X_k = delta*sum S - R with a root that leaves it slack
        assert kink_buyers(inst) == kinks
        for i in kinks:
            assert got.per_uav_case[i] == CASE_BUDGET_ACTIVE

    def test_solves_match_recorded_digests(self):
        """Every bit of 252 solves and verifier reports on J = 1..7 markets
        (12 seeds x 7 sizes x 3 range sets) is what the scalar roots gave."""
        assert solved_digests() == json.loads(SOLVED_DIGESTS.read_text())["digests"]

    def test_wide_solves_match_recorded_digests(self):
        """Every bit of 120 solves and verifier reports on J = 8..12 markets
        (8 seeds x 5 sizes x 3 range sets) is what the scalar roots gave."""
        recorded = json.loads(WIDE_SOLVED_DIGESTS.read_text())
        assert solved_digests(range(recorded["seeds"]), WIDE_SOLVED_SIZES) == recorded["digests"]

    @staticmethod
    def solve_passes(monkeypatch, inst):
        """A solve's calls to the budget split and to the kernel, in order, as
        ("split", buyer rows' shape) and ("kernel", prices' shape); the split
        the kernel runs inside itself is not listed. The solve may call no
        other follower pass on its answer."""
        kernel, split = game._batched_follower_demands, game._budget_split
        calls, in_kernel = [], []

        def counted_kernel(prices, m):
            calls.append(("kernel", prices.shape))
            in_kernel.append(True)
            try:
                return kernel(prices, m)
            finally:
                in_kernel.pop()

        def counted_split(p, m):
            if not in_kernel:
                calls.append(("split", p.shape))
            return split(p, m)

        def refused(*args):
            raise AssertionError("all_followers_respond called by the solve")

        monkeypatch.setattr(game, "_batched_follower_demands", counted_kernel)
        monkeypatch.setattr(game, "_budget_split", counted_split)
        monkeypatch.setattr(game, "all_followers_respond", refused)
        solve_equilibrium(inst)
        return calls

    def test_solve_splits_once_and_water_fills_the_roots(self, monkeypatch):
        """A solve without kink buyers returns the demands of the columns it
        solved: one budget split over every buyer's slack column (a slack
        buyer keeps its candidates), one kernel pass on the binding buyers'
        roots, and no follower pass on the answer."""
        inst = sample_instance({"similarity": (0.5, 1.0)}, 100, 10, 0)
        assert kink_buyers(inst) == []
        binding = solve_equilibrium(inst).per_uav_case.count(CASE_BUDGET_ACTIVE)
        assert 0 < binding < 100
        assert self.solve_passes(monkeypatch, inst) == [("split", (100, 10)),
                                                        ("kernel", (10, binding))]

    def test_kink_buyers_take_a_second_kernel_pass_alone(self, monkeypatch):
        inst = sample_instance({"similarity": (0.5, 1.0)}, 100, 10, 3)
        binding = solve_equilibrium(inst).per_uav_case.count(CASE_BUDGET_ACTIVE)
        assert len(kink_buyers(inst)) == 2 < binding < 100
        assert self.solve_passes(monkeypatch, inst) == [("split", (100, 10)),
                                                        ("kernel", (10, binding)),
                                                        ("kernel", (10, 2))]

    def test_a_third_seller_can_raise_the_mean_seller_reward(self):
        # perfbench's sweep cells at I = 15 (similarity 0.85-1) for unit seed
        # 1873717704, which fails that benchmark's "reward does not fall with
        # J" check: both solves are equilibria, and the mean seller reward
        # rises with the third seller, whose cost is low and cap high
        rewards = []
        for J in (2, 3):
            cfg = ExperimentConfig(num_uavs=15, num_rsus=J, episodes=1)
            cfg.ranges["similarity"] = (0.85, 1.0)
            cfg = cfg.validate()
            record = harness.run_solve(cfg, 1873717704)
            assert record.consistent
            inst = harness._sample(cfg, 1873717704)
            sol = solve_equilibrium(inst)
            assert max(deviation_gains(inst, sol).values()) <= 1e-9
            rewards.append(record.theoretical)
        assert rewards == [pytest.approx(12.3218, abs=1e-4), pytest.approx(12.3761, abs=1e-4)]
        assert (inst.arrays.c[2], inst.arrays.cap[2]) == (pytest.approx(1.5367, abs=1e-4),
                                                          pytest.approx(18.0702, abs=1e-4))

    def test_symmetric_anchor(self):
        inst = simple_instance(J=2, budget=2.0)
        sol = solve_equilibrium(inst)
        assert sol.consistent
        np.testing.assert_allclose(sol.prices.prices, 5.0, atol=1e-6)
        np.testing.assert_allclose(sol.demands.demands, 0.2, atol=1e-7)
        np.testing.assert_allclose(sol.rsu_utilities, 0.8, atol=1e-6)
        spend = float(sol.prices.prices[:, 0] @ sol.demands.demands[0])
        assert abs(spend - 2.0) < 1e-6
        assert sol.per_uav_case[0] == CASE_BUDGET_ACTIVE

    def test_single_rsu_huge_budget(self):
        inst = simple_instance(J=1, budget=1e9)
        sol = solve_equilibrium(inst)
        expected_p = min(max(math.sqrt(10.0 * LN2 * 10.0), 1.0), 35.0)
        assert sol.prices.prices[0, 0] == pytest.approx(expected_p, rel=1e-9)
        expected_b = 10.0 * LN2 / expected_p - 0.1
        assert sol.demands.demands[0, 0] == pytest.approx(expected_b, rel=1e-9)
        assert sol.per_uav_case[0] == CASE_BUDGET_INACTIVE

    def test_zero_surplus_instance(self):
        inst = simple_instance(J=2, ssim=0.4, threshold=0.5)
        sol = solve_equilibrium(inst)
        assert np.all(sol.demands.demands == 0.0)
        np.testing.assert_allclose(sol.prices.prices[:, 0], inst.costs())
        assert np.all(sol.rsu_utilities == 0.0)
        assert np.all(sol.uav_utilities == 0.0)

    def test_self_consistency_and_sign_random(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            inst = random_instance(rng, I=2, J=3)
            sol = solve_equilibrium(inst)
            recomputed = all_followers_respond(inst, sol.prices)
            np.testing.assert_allclose(sol.demands.demands, recomputed.demands,
                                       atol=1e-8)
            assert np.all(sol.rsu_utilities >= -1e-12)

    def test_fixed_point_stationarity(self):
        inst = simple_instance(J=2, budget=2.0)
        sol = solve_equilibrium(inst)
        p = sol.prices.prices[:, 0]
        phi = np.clip(leader_best_response_map(inst, 0, p),
                      inst.costs(), inst.price_caps())
        assert float(np.max(np.abs(phi - p))) < 1e-8

    def test_verify_equilibrium_clean(self):
        inst = simple_instance(J=2, budget=2.0)
        sol = solve_equilibrium(inst)
        report = verify_equilibrium(inst, sol)
        assert report.passed
        assert report.max_violation == 0.0

    def test_verify_detects_non_equilibrium(self):
        inst, sol = degraded_seller_solution()
        report = verify_equilibrium(inst, sol)
        assert any(j == 0 for j, _ in report.rsu_violations)

    def test_verify_zero_surplus_trivial(self):
        inst = simple_instance(J=2, ssim=0.4, threshold=0.5)
        sol = solve_equilibrium(inst)
        report = verify_equilibrium(inst, sol)
        assert report.passed

    @pytest.mark.parametrize("case", VERIFY_CASES, ids=[c[0] for c in VERIFY_CASES])
    def test_verify_matches_the_oracles(self, case):
        # each seller's violation is the one that best_deviation's margins
        # give, within SEARCH_TOL, and each buyer's is its reference best
        # response's gain, bit for bit
        inst, sol = case[1]()
        got = verify_equilibrium(inst, sol)
        P, c = sol.prices.prices, inst.arrays.c
        posted = game._margins(P, reference_all_followers_respond(inst, P).demands, c)
        best = np.array([[max(best_deviation(inst, sol, j, i), posted[j, i])
                          for i in range(inst.num_uavs)] for j in range(inst.num_rsus)])
        scale = max(1.0, float(np.max(np.abs(sol.rsu_utilities))))
        want = np.maximum((best.sum(axis=1) - sol.rsu_utilities) / scale, 0.0).tolist()
        assert [j for j, _ in got.rsu_violations] == [j for j, w in enumerate(want) if w > 1e-6]
        for j, w in got.rsu_violations:
            assert w == pytest.approx(want[j], rel=0.0, abs=SEARCH_TOL)
        uav_violations = []
        for i, base in enumerate(sol.uav_utilities.tolist()):
            response = reference_follower_best_response(inst, i, P[:, i]).demands
            w = max(0.0, (uav_utility(inst, i, response, P[:, i]) - base) / max(1.0, abs(base)))
            uav_violations += [(i, w)] * (w > 1e-6)
            want.append(w)
        assert got.uav_violations == uav_violations
        assert got.max_violation == pytest.approx(max(want), rel=0.0, abs=SEARCH_TOL)

    # (I, J, seed): flagged sellers. Each list is the sellers whose violation
    # from best_deviation's margins (as test_verify_matches_the_oracles builds
    # it) exceeds 1e-6; the closest unflagged one is seller 4 of 100 x 10 seed
    # 7 at 9.8e-7 and the closest flagged one seller 1 of seed 6 at 1.12e-6
    SINGLE_ENTRY_MARKETS = {
        **{(100, 10, seed): sellers for seed, sellers in enumerate([
            [8, 9], [1, 3], [2, 9], [1, 2, 3, 4], [1, 3], [7], [0, 1, 9], [1]])},
        **{(15, 6, seed): [] for seed in range(20)},
        (15, 6, 6): [1], (15, 6, 8): [0], (15, 6, 9): [1], (15, 6, 11): [2],
        (15, 6, 17): [0],
    }

    @pytest.mark.parametrize("ranges, I, J, seed, sellers", [
        ({"similarity": (0.5, 1.0)} if I == 100 else {}, I, J, seed, sellers)
        for (I, J, seed), sellers in SINGLE_ENTRY_MARKETS.items()
    ] + [
        ({}, 3, 2, 9, [1]),      # the strict xfail's market
    ], ids=[f"{I}x{J}-seed{seed}" for I, J, seed in SINGLE_ENTRY_MARKETS] + ["3x2-seed9"])
    def test_verify_flags_single_entry_deviations(self, ranges, I, J, seed, sellers):
        # each flagged seller gains by moving its price to one buyer alone
        # (a rival-less link, see TestKink), and no other seller is flagged;
        # random probes, which move a seller's whole row at once, passed every
        # 100 x 10 market (similarity 0.5-1) here
        inst = sample_instance(ranges, I, J, seed)
        report = verify_equilibrium(inst, solve_equilibrium(inst))
        assert [j for j, _ in report.rsu_violations] == sellers

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_search_finds_the_oracles_gain(self, data):
        # on small sampled markets, at the solved prices or at prices drawn in
        # the box, every entry's search margin is at least best_deviation's
        # less SEARCH_TOL of the largest seller margin (at least 1)
        I, J = data.draw(st.integers(1, 4), label="I"), data.draw(st.integers(1, 4), label="J")
        ranges = data.draw(st.sampled_from([{}, {"similarity": (0.5, 1.0)},
                                            {"similarity": (0.85, 1.0)}]), label="ranges")
        inst = sample_instance(ranges, I, J, data.draw(st.integers(0, 10**6), label="seed"))
        sol, m = solve_equilibrium(inst), inst.arrays
        if data.draw(st.booleans(), label="drawn prices"):
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="prices"))
            sol.prices.prices[:] = rng.uniform(m.c[:, None], m.cap[:, None], (J, I))
            sol.demands = all_followers_respond(inst, sol.prices)
        P = sol.prices.prices
        scale = max(1.0, float(np.max(game._margins(P, sol.demands.demands, m.c).sum(axis=1))))
        got = game._best_deviations(P, m)
        for j in range(J):
            for i in range(I):
                want = best_deviation(inst, sol, j, i)
                assert got[j, i] >= want - SEARCH_TOL * scale, (j, i, got[j, i], want)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda d: d - 1.0, "negative demand"),
        (lambda d: d + 1e3, "exceeds budget"),
    ], ids=["negative", "overspend"])
    def test_verify_rejects_bad_follower_output(self, monkeypatch, corrupt, message):
        # the solve runs on the true kernel, so only the verifier's own
        # demand check can raise
        inst = simple_instance(J=2, budget=2.0)
        sol = solve_equilibrium(inst)
        kernel = game._batched_follower_demands

        def corrupted(*args):
            demands, lam, exits = kernel(*args)
            return corrupt(demands), lam, exits

        monkeypatch.setattr(game, "_batched_follower_demands", corrupted)
        with pytest.raises(ValueError, match=message):
            verify_equilibrium(inst, sol)


def kink_buyers(inst) -> list:
    """The buyers whose budget binds at their slack column and whose certified
    root leaves it slack in the kernel: solve_equilibrium's kink rows."""
    m = inst.arrays
    p_s = np.clip(game._slack_prices(m), m.c, m.cap)
    exits = game._batched_follower_demands(p_s.T, m)[2]
    binding = np.flatnonzero(exits == game._BINDING)
    mb = m.buyers(binding)
    p, _, _, certified, _ = game._leader_roots(mb, p_s[binding])
    exits_root = game._batched_follower_demands(p.T, mb)[2]
    return binding[certified & (exits_root != game._BINDING)].tolist()


def best_deviation(inst, sol, j, i) -> float:
    """Seller j's best margin on buyer i over its price p_ji in [c_j, cap_j],
    every other price as solved: a 20,001-point scan through the kernel, then
    a golden-section refinement through the reference follower across the
    best point's two grid steps, to a bracket of 1e-12 relative."""
    c = inst.arrays.c[j]
    column = sol.prices.prices[:, i]
    grid = np.linspace(c, inst.arrays.cap[j], 20_001)
    P = np.repeat(column[None, :, None], len(grid), axis=0)
    P[:, j, 0] = grid
    scan = (grid - c) * game._batched_follower_demands(P, inst.arrays.buyers([i]))[0][:, 0, j]

    def margin(x):
        p = column.copy()
        p[j] = x
        return (x - c) * reference_follower_best_response(inst, i, p).demands[j]

    k = int(np.argmax(scan))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    r = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - r * (hi - lo), lo + r * (hi - lo)
    fa, fb = margin(a), margin(b)
    while hi - lo > 1e-12 * hi:
        if fa >= fb:
            hi, b, fb = b, a, fa
            a = hi - r * (hi - lo)
            fa = margin(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + r * (hi - lo)
            fb = margin(b)
    return max(float(scan[k]), fa, fb)


def deviation_gains(inst, sol) -> dict:
    """Each seller's best gain on each buyer it sells to (best_deviation),
    relative to its solved margin on that buyer, by (seller, buyer)."""
    out = {}
    for i, j in zip(*np.nonzero(inst.arrays.S > 0.0)):
        base = (sol.prices.prices[j, i] - inst.arrays.c[j]) * sol.demands.demands[i, j]
        out[int(j), int(i)] = (best_deviation(inst, sol, j, i) - base) / max(base, 1e-300)
    return out


def compare_market(seed):
    """perfbench's compare market (3 x 2, similarity 0.85-1), sampled as
    training samples it."""
    cfg = ExperimentConfig(num_uavs=3, num_rsus=2, episodes=1)
    cfg.ranges["similarity"] = (0.85, 1.0)
    return harness._sample(cfg.validate(), seed)


KINK_MARKETS = {"seed192": lambda: sample_instance({}, 5, 3, seed=192),
                **{f"compare{s}": lambda s=s: compare_market(s) for s in (72, 134, 167)}}


class TestKink:
    """A buyer whose budget binds at its slack column, and whose certified
    root leaves it slack, is priced on its budget kink."""

    @pytest.mark.parametrize("name", KINK_MARKETS)
    def test_kink_markets_are_equilibria(self, name):
        # consistent, no diagnostics, and no seller gains on any buyer by
        # moving its own price alone
        inst = KINK_MARKETS[name]()
        sol = solve_equilibrium(inst)
        assert kink_buyers(inst)
        assert sol.consistent and not sol.diagnostics
        gains = deviation_gains(inst, sol)
        assert gains and max(gains.values()) <= 1e-9, gains
        assert verify_equilibrium(inst, sol).max_violation == 0.0

    def test_kink_columns_spend_the_kink(self):
        # sum_j p_j/q_j = X_k = delta*sum S - R over the positive links, and
        # every seller the same fraction theta in [0, 1] of the way from its
        # clipped slack price to its binding price at X_k (the reference's)
        markets = [build() for build in KINK_MARKETS.values()]
        markets += [sample_instance({"similarity": (0.5, 1.0)}, 100, 10, s) for s in range(4)]
        seen = 0
        for inst in markets:
            sol = solve_equilibrium(inst)
            m = inst.arrays
            for i in kink_buyers(inst):
                positive = m.S[i] > 0.0
                X = m.delta[i] * np.sum(m.S[i][positive]) - m.budget[i]
                p = sol.prices.prices[:, i]
                assert np.sum(p[positive] / m.q[positive]) == pytest.approx(X, rel=1e-12)
                p_s = np.where(positive, np.sqrt(m.delta[i] * np.where(positive, m.S[i], 0.0)
                                                 * m.q * m.c), m.c)
                p_s = np.clip(p_s, m.c, m.cap)
                p_b = reference_binding_prices(inst, i, X)
                x_s, x_b = (np.sum(v[positive] / m.q[positive]) for v in (p_s, p_b))
                theta = (X - x_s) / (x_b - x_s)
                assert 0.0 <= theta <= 1.0
                np.testing.assert_allclose(p, p_s + theta * (p_b - p_s), rtol=1e-10)
                assert sol.per_uav_case[i] == CASE_BUDGET_ACTIVE
                seen += 1
        assert seen >= 6

    def test_kink_prices_move_continuously_with_the_budget(self):
        # buyer 2 of seed 192 alone, its budget from 0.5R to 2R: slack,
        # kink and binding columns in turn, without a jump between them
        inst = sample_instance({}, 5, 3, seed=192)
        uav = inst.uavs[2]
        budgets = np.linspace(0.5 * uav.budget, 2.0 * uav.budget, 3001)
        market = GameInstance([replace(uav, budget=float(b)) for b in budgets], inst.rsus)
        sol = solve_equilibrium(market)
        assert sol.consistent
        assert 0 < len(kink_buyers(market)) < len(budgets)
        assert np.max(np.abs(np.diff(sol.prices.prices, axis=1))) <= 1.0

    @pytest.mark.xfail(strict=True, reason=(
        "a positive link without a positive rival keeps its slack price under a "
        "binding budget (the leader map's fallback); its best response is "
        "min(q(delta*S - R), cap)"))
    def test_lone_positive_link_under_a_binding_budget(self):
        # seed 9: seller 1 gains 2.1% on buyer 1 by moving from 13.17 to its cap
        inst = sample_instance({}, 3, 2, 9)
        sol = solve_equilibrium(inst)
        assert max(deviation_gains(inst, sol).values()) <= 1e-9


class TestRowSumPaths:
    """Every sum through _row_sums gives the same bits on the column path and
    on the reduce: everything taken one way (gate 1) equals everything taken
    the other (a gate above any call)."""

    GATES = (1, 10**9)

    def test_sweep_records(self, monkeypatch):
        # perfbench's two sweep grids, dense markets, every solve verified
        def market(I, J):
            cfg = ExperimentConfig(num_uavs=I, num_rsus=J, episodes=1, seeds=[0, 1, 2])
            cfg.ranges["similarity"] = (0.85, 1.0)
            return cfg.validate()
        runs = []
        for gate in self.GATES:
            monkeypatch.setattr(game, "_COLUMN_SUM_ROWS", gate)
            out = []
            for cfg, spec in ((market(15, 2), ("J", [2, 3, 4, 5, 6])),
                              (market(3, 3), ("I", [3, 6, 9, 12, 15]))):
                records, aggregate = run_sweep(cfg, SweepSpec(*spec, cfg.seeds))
                out.append(repr(aggregate))
                out += [(r.run_id, r.config_hash, r.seed, r.algorithm, r.consistent,
                         float(r.theoretical).hex(), r.episode_rewards.tobytes(),
                         r.sparsity.tobytes()) for r in records]
            runs.append(out)
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("case", VERIFY_CASES, ids=[c[0] for c in VERIFY_CASES])
    def test_verify_reports(self, case, monkeypatch):
        inst, sol = case[1]()
        reports = []
        for gate in self.GATES:
            monkeypatch.setattr(game, "_COLUMN_SUM_ROWS", gate)
            got = verify_equilibrium(inst, sol)
            reports.append((got.max_violation.hex(),
                            [(j, v.hex()) for j, v in got.rsu_violations],
                            [(i, v.hex()) for i, v in got.uav_violations]))
        assert reports[0] == reports[1]


# =====================================================================
# Type invariants
# =====================================================================
def scaled_ranges(k: float) -> dict:
    """Dense markets with delta in [10k, 20k] and budgets in [k, 10k]."""
    return {"similarity": (0.85, 1.0), "delta": (10.0 * k, 20.0 * k),
            "budget": (k, 10.0 * k)}


class TestMatrixTypes:
    def test_price_matrix_box_enforced(self):
        inst = simple_instance(J=2)
        with pytest.raises(ValueError):
            PriceMatrix(np.array([[0.5], [2.0]]), inst)
        with pytest.raises(ValueError):
            PriceMatrix(np.array([[36.0], [2.0]]), inst)

    def test_demand_matrix_nonnegative(self):
        inst = simple_instance(J=2)
        with pytest.raises(ValueError):
            DemandMatrix(np.array([[-0.1, 0.0]]), inst)

    def test_demand_matrix_budget_slack(self):
        inst = simple_instance(J=2, budget=2.0)
        P = np.full((2, 1), 2.0)
        with pytest.raises(ValueError):
            DemandMatrix(np.array([[1.0, 1.0]]), inst, prices=P)

    def test_demand_matrix_budget_slack_scales_with_the_budget(self):
        # 1e-9 of the budget over it passes, 2e-9 does not; under a budget of
        # 1 the slack stays 1e-9 absolute
        P = np.full((2, 1), 2.0)
        for budget, fits, over in ((1e8, 1e8 * (1 + 5e-10), 1e8 * (1 + 2e-9)),
                                   (0.5, 0.5 + 9e-10, 0.5 + 2e-9)):
            inst = simple_instance(J=2, budget=budget)
            DemandMatrix(np.full((1, 2), fits / 4.0), inst, prices=P)
            with pytest.raises(ValueError, match="spend exceeds budget"):
                DemandMatrix(np.full((1, 2), over / 4.0), inst, prices=P)

    @pytest.mark.parametrize("k", [1e7, 1e10])
    def test_scaled_budgets_solve_and_verify(self, k):
        """Markets whose budgets run to 10k (k up to 1e10) solve and verify:
        their exact demands' spend can round above the budget by more than an
        absolute 1e-9, so the spend check's slack scales with the budget."""
        for seed in range(5):
            inst = sample_instance(scaled_ranges(k), 8, 4, seed)
            sol = solve_equilibrium(inst)
            assert sol.consistent, sol.diagnostics
            assert verify_equilibrium(inst, sol).passed

    def test_demand_matrix_checks_every_stacked_market(self):
        inst = simple_instance(J=2, budget=2.0)
        P = np.full((3, 2, 1), 2.0)
        fits = np.full((3, 1, 2), 0.25)
        assert DemandMatrix(fits, inst, prices=P).demands.shape == (3, 1, 2)
        for bad in (-0.1, 1.0):  # a negative demand, an overspend
            stack = fits.copy()
            stack[2] = bad
            with pytest.raises(ValueError):
                DemandMatrix(stack, inst, prices=P)
        with pytest.raises(ValueError, match="expected shape"):
            DemandMatrix(np.zeros((3, 2, 1)), inst)

    def test_array_records_compare_by_identity(self):
        """The records that hold arrays compare by identity: == on two equal
        records is False, not numpy's "truth value of an array is ambiguous"."""
        inst = simple_instance(J=2)
        env = PricingEnv(inst, EnvConfig(history_length=1, episode_length=1))
        env.reset()
        run = lambda: RunRecord("h", 0, "solve", np.zeros((0, 2)), np.zeros(0),
                                1.0, True, 1.0)
        builds = [lambda: solve_equilibrium(inst),
                  lambda: solve_equilibrium(inst).prices,
                  lambda: solve_equilibrium(inst).demands,
                  lambda: follower_best_response(inst, 0, [2.0, 3.0]),
                  lambda: env.step([np.array([2.0]), np.array([3.0])]),
                  run,
                  lambda: DenseLayer(np.ones((2, 3)))]
        for build in builds:
            a, b = build(), build()
            assert a == a and not (a == b) and a != b, type(a)

    def test_nan_price_rejected(self):
        inst = simple_instance(J=2)
        with pytest.raises(ValueError, match="outside its"):
            PriceMatrix(np.array([[np.nan], [2.0]]), inst)

    def test_nan_demands_rejected(self):
        inst = simple_instance(J=2, budget=2.0)
        with pytest.raises(ValueError, match="negative demand"):
            DemandMatrix(np.full((1, 2), np.nan), inst)
        with pytest.raises(ValueError, match="spend exceeds budget"):
            DemandMatrix(np.zeros((1, 2)), inst, prices=np.array([[np.nan], [2.0]]))

    def test_followers_reject_a_nan_price(self):
        with pytest.raises(ValueError):
            all_followers_respond(simple_instance(J=2), np.array([[np.nan], [2.0]]))

    @pytest.mark.parametrize("field", ["delta", "budget", "bandwidth_cost", "price_cap"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_profiles_reject_non_finite_values(self, field, value):
        uav = dict(delta=10.0, budget=2.0, ssim_threshold=0.5,
                   per_rsu_ssim=[SsimTriple(1.0, 1.0, 1.0)])
        rsu = dict(bandwidth_cost=1.0, price_cap=5.0, link=link_with_efficiency(1.0))
        profile, kwargs = (UavProfile, uav) if field in uav else (RsuProfile, rsu)
        kwargs[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            profile(**kwargs)

    def test_rsu_profile_empty_box_rejected(self):
        with pytest.raises(ValueError):
            RsuProfile(5.0, 4.0, link_with_efficiency(10.0))

    def test_game_instance_shape_checks(self):
        with pytest.raises(ValueError):
            GameInstance([], [RsuProfile(1.0, 5.0, link_with_efficiency(1.0))])
        with pytest.raises(ValueError):
            GameInstance(
                [UavProfile(10.0, 2.0, 0.5, [SsimTriple(1, 1, 1)])],
                [RsuProfile(1.0, 5.0, link_with_efficiency(1.0)) for _ in range(2)],
            )
