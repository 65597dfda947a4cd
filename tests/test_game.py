"""Tests for the game-theoretic core: utilities, best responses, equilibrium."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwmarket import game
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
    leader_unconstrained_price,
    log_quality_row,
    rsu_utility,
    solve_equilibrium,
    ssim,
    uav_utility,
    verify_equilibrium,
)
from bwmarket.env import EnvConfig, PricingEnv
from bwmarket.harness import sample_instance

from _oracles import (
    grid_follower_utility,
    link_with_efficiency,
    random_instance,
    reference_follower_best_response,
    reference_leader_map,
    reference_solve_equilibrium,
    reference_verify_equilibrium,
    simple_instance,
)

LN2 = math.log(2.0)


def one_link_log_quality(luminance: float, threshold: float = 0.5) -> float:
    """log_quality_row of a one-buyer, one-seller market with the given SSIM."""
    uav = UavProfile(10.0, 2.0, threshold, [SsimTriple(luminance, 1.0, 1.0)])
    inst = GameInstance([uav], [RsuProfile(1.0, 5.0, link_with_efficiency(1.0))])
    return float(log_quality_row(inst, 0)[0])


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

    def test_ssim_unique_maximum(self):
        assert ssim(SsimTriple(1.0, 1.0, 1.0)) == 1.0

    def test_ssim_product(self):
        assert ssim(SsimTriple(0.9, 0.8, 0.7)) == pytest.approx(0.504, abs=1e-12)

    def test_ssim_weighted(self):
        assert ssim(SsimTriple(0.5, 1.0, 1.0, weights=(2.0, 1.0, 1.0))) == pytest.approx(0.25)

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
        inst = simple_instance(J=2, budget=100.0)
        inst.uavs[0].per_rsu_ssim[1] = SsimTriple(0.4, 1.0, 1.0)  # S < 0
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
            q = inst.efficiencies()
            S = log_quality_row(inst, 0)
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
        inst = simple_instance(J=2)
        inst.uavs.append(UavProfile(10.0, 2.0, 0.5,
                                    [SsimTriple(1.0, 1.0, 1.0) for _ in range(2)]))
        P = np.full((2, 2), 2.0)
        dm = all_followers_respond(inst, P)
        np.testing.assert_allclose(dm.demands[0], dm.demands[1])

    def test_single_uav_delegates(self):
        inst = simple_instance(J=2)
        P = np.array([[3.0], [4.0]])
        dm = all_followers_respond(inst, P)
        sol = follower_best_response(inst, 0, P[:, 0])
        np.testing.assert_allclose(dm.demands[0], sol.demands)


class TestBatchedFollower:
    """The water-filling kernel and every public path that runs it against
    the buyer-by-buyer reference solver."""

    @staticmethod
    def check_against_reference(inst, prices):
        """The kernel == the reference on every buyer column of a (K, J, I)
        price stack, each column passed with the stack's own strides; on every
        third price matrix, so do follower_best_response (every field),
        all_followers_respond and, for a C-contiguous stack, env.step (demands
        and rewards). Returns the kernel's exits and the first water-filling
        multiplier over the usable links (the lambda the reference loop starts
        from)."""
        q, _, _, S, delta, budget = inst.arrays
        demands, lam, exits = game._batched_follower_demands(prices, q, S, delta, budget)
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
        env.reset(seed=0)
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
                np.testing.assert_array_equal(out.demands.demands, want_demands[k],
                                              strict=True)
                np.testing.assert_array_equal(out.rewards, [
                    rsu_utility(inst, j, P[j], want_demands[k][:, j])
                    for j in range(len(P))], strict=True)
        rows = np.swapaxes(prices, -1, -2)
        first_lam = (delta * np.where(usable, S, 0.0).sum(axis=1)
                     / (budget + np.where(usable, rows / q, 0.0).sum(axis=-1)) - 1.0)
        return exits, first_lam

    def test_matches_scalar_solver_exactly(self):
        # J up to 10, and each stack twice: strided buyer columns (P[:, i], the
        # final demands and the verifier's probes) and contiguous buyer rows
        # (the solver's candidate price rows); BLAS sums the two differently
        rng = np.random.default_rng(17)
        reached = {"slack": False, "binding": False, "no usable link": False}
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
            unusable = ~(np.isfinite(S) & (S > 0.0)).any(axis=1)
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

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_reference_on_drawn_edge_markets(self, data):
        # The reference keeps the lambda <= 0 fallback and the empty-support
        # exit that the kernel dropped: equal outputs show neither one fires.
        # Links are unusable (SSIM 0), have S <= 0, or are usable; prices sit
        # at cost, at cap, inside the box or past the choke price delta*q*S;
        # budgets sit near each buyer's unconstrained spend.
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
            spend = float(P[:, i] @ np.maximum(cand, 0.0))
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


class TestPackedSums:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_each_row_sums_its_support_as_numpy_does(self, data):
        # values of mixed sign and magnitude, so that any other summation
        # order shows in the last bits; densities 0 and 1 give empty and full
        # rows, and a leading batch shape is flattened like the kernel's
        J = data.draw(st.integers(1, 10), label="J")
        batch = tuple(data.draw(st.lists(st.integers(0, 3), max_size=2), label="batch"))
        shape = batch + (data.draw(st.integers(0, 12), label="rows"), J)
        density = data.draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]), label="density")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        support = rng.random(shape) < density
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        got = game._packed_sums(values, game._pack(support))
        assert got.shape == shape[:-1]
        for row in np.ndindex(shape[:-1]):
            want = np.add.reduce(values[row][support[row]])
            assert got[row].tobytes() == want.tobytes(), row


# =====================================================================
# Leader best responses
# =====================================================================
class TestLeaderResponses:
    def test_unconstrained_price_closed_form(self):
        inst = simple_instance(J=1, budget=1e9)
        p_star = leader_unconstrained_price(inst, 0, 0)
        assert p_star == pytest.approx(math.sqrt(10.0 * LN2 * 10.0 * 1.0), rel=1e-12)
        # 1-D oracle: (p - c) * demand(p) is maximized at p_star
        grid = np.linspace(1.0, 35.0, 4000)
        vals = [(p - 1.0) * max(10.0 * LN2 / p - 0.1, 0.0) for p in grid]
        assert abs(grid[int(np.argmax(vals))] - p_star) < 0.02

    def test_unconstrained_price_sqrt_homogeneity(self):
        inst_1 = simple_instance(J=1, cost=1.0)
        inst_4 = simple_instance(J=1, cost=4.0)
        p1 = leader_unconstrained_price(inst_1, 0, 0)
        p4 = leader_unconstrained_price(inst_4, 0, 0)
        assert p4 == pytest.approx(2.0 * p1, rel=1e-12)

    def test_unconstrained_price_no_surplus_raises(self):
        inst = simple_instance(J=1, ssim=0.4, threshold=0.5)
        with pytest.raises(ValueError):
            leader_unconstrained_price(inst, 0, 0)

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
            S = log_quality_row(inst, 0)
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

    def test_fixed_points_of_a_stack_match_each_row_alone(self):
        # rows converge after different numbers of iterations; a converged
        # row stays in the stack, frozen, while the others go on
        rng = np.random.default_rng(31)
        spread = False
        for trial in range(40):
            J = 1 + trial % 10
            inst = random_instance(rng, I=6, J=J,
                                   min_component=0.85 if trial % 4 < 2 else 0.0)
            m = inst.arrays
            slack = game._slack_prices(m)
            start = rng.uniform(m.c, m.cap, (6, J))
            for max_iterations in (4, game.FIXED_POINT_MAX_ITER):
                p, iterations, residual = game._leader_fixed_points(
                    start, m, slack, game.FIXED_POINT_TOL, max_iterations)
                for i in range(6):
                    p_i, iterations_i, residual_i = game._leader_fixed_points(
                        start[[i]], m.buyers([i]), slack[[i]], game.FIXED_POINT_TOL,
                        max_iterations)
                    np.testing.assert_array_equal(p[i], p_i[0], strict=True)
                    assert iterations[i] == iterations_i[0]
                    assert residual[i] == residual_i[0]
                spread |= len(set(iterations.tolist())) > 1
        assert spread


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


def trends_market(I, J, seed, understate):
    """A market of the trends sweeps: every link usable, budgets mostly binding.

    understate lowers the recorded utilities, so that probes beat them and the
    report carries the probes' own margins and utilities.
    """
    inst, sol = solved(sample_instance({"similarity": (0.85, 1.0)}, I, J, seed))
    if understate:
        sol.rsu_utilities = 0.9 * sol.rsu_utilities
        sol.uav_utilities = sol.uav_utilities - 0.5 * np.abs(sol.uav_utilities)
    return inst, sol


# (id, build, num_probes, rng_seed, rel_tol)
VERIFY_CASES = [
    ("anchor", lambda: solved(simple_instance(J=2, budget=2.0)), 300, 3, 1e-6),
    ("degraded-seller", degraded_seller_solution, 300, 3, 1e-6),
    ("zero-surplus", lambda: solved(simple_instance(J=2, ssim=0.4, threshold=0.5)),
     100, 5, 1e-6),
] + [
    (f"market-I{I}-J{J}{'-understated' if low else ''}",
     lambda I=I, J=J, seed=seed, low=low: trends_market(I, J, seed, low),
     20, seed, 1e-6)
    for I, J, seed, low in [(15, 2, 0, False), (15, 6, 1, False), (15, 6, 2, True),
                            (3, 3, 3, True), (15, 3, 4, False), (9, 3, 5, True)]
]


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


ORACLE_FLOORS = (0.0, 0.5, 0.85)
ORACLE_ITERATIONS = (0, 1, 3, game.FIXED_POINT_MAX_ITER)


def oracle_grid(floor_index, iterations_index):
    """One market per I in 1..15 at one similarity floor and iteration cap,
    J running through 1..10 across the floors and caps."""
    offset = 4 * floor_index + iterations_index
    return [sample_instance({"similarity": (ORACLE_FLOORS[floor_index], 1.0)},
                            I, 1 + (3 * I + offset) % 10, 100 * offset + I)
            for I in range(1, 16)]


class TestEquilibrium:
    @pytest.mark.parametrize("floor_index", range(len(ORACLE_FLOORS)),
                             ids=[f"floor{f}" for f in ORACLE_FLOORS])
    @pytest.mark.parametrize("iterations_index", range(len(ORACLE_ITERATIONS)),
                             ids=[f"iters{n}" for n in ORACLE_ITERATIONS])
    def test_solve_matches_reference_loop(self, floor_index, iterations_index):
        max_iterations = ORACLE_ITERATIONS[iterations_index]
        for inst in oracle_grid(floor_index, iterations_index):
            assert_same_solution(solve_equilibrium(inst, max_iterations=max_iterations),
                                 reference_solve_equilibrium(inst,
                                                             max_iterations=max_iterations))

    @pytest.mark.parametrize("build, mixed", [
        (lambda: simple_instance(J=2, budget=2.0), {}),
        (lambda: simple_instance(J=2, ssim=0.4, threshold=0.5), {}),
        (lambda: simple_instance(J=1, budget=1e9), {}),
        # the slack candidate kept (its case is budget_active) ...
        (lambda: sample_instance({}, 5, 3, seed=192), {2: CASE_BUDGET_ACTIVE}),
        # ... and the binding candidate kept with a slack budget
        (lambda: sample_instance({"similarity": (0.5, 1.0)}, 100, 10, 3),
         {19: CASE_BUDGET_INACTIVE, 73: CASE_BUDGET_INACTIVE}),
    ], ids=["anchor", "zero-surplus", "huge-budget", "mixed-case-seed192",
            "mixed-case-100x10"])
    def test_solve_matches_reference_special(self, build, mixed):
        inst = build()
        for max_iterations in ORACLE_ITERATIONS:
            want = reference_solve_equilibrium(inst, max_iterations=max_iterations)
            assert_same_solution(solve_equilibrium(inst, max_iterations=max_iterations),
                                 want)
        # the default solve resolves these buyers' mixed cases as labelled
        for i, case in mixed.items():
            assert any(d.startswith(f"uav {i}: mixed-case") for d in want.diagnostics)
            assert want.per_uav_case[i] == case
        assert want.consistent == (not mixed)

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
        report = verify_equilibrium(inst, sol, num_probes=300, rng_seed=3)
        assert report.passed
        assert report.max_violation <= 1e-6

    def test_verify_detects_non_equilibrium(self):
        inst, sol = degraded_seller_solution()
        report = verify_equilibrium(inst, sol, num_probes=300, rng_seed=3)
        assert any(j == 0 for j, _ in report.rsu_violations)

    def test_verify_zero_surplus_trivial(self):
        inst = simple_instance(J=2, ssim=0.4, threshold=0.5)
        sol = solve_equilibrium(inst)
        report = verify_equilibrium(inst, sol, num_probes=100, rng_seed=5)
        assert report.passed

    @pytest.mark.parametrize("case", VERIFY_CASES, ids=[c[0] for c in VERIFY_CASES])
    def test_verify_matches_reference_loop(self, case, monkeypatch):
        _, build, num_probes, rng_seed, rel_tol = case
        inst, sol = build()
        want = reference_verify_equilibrium(inst, sol, num_probes, rng_seed, rel_tol)
        # the default batch, then blocks of one to a few probes
        for block_rows in (game._PROBE_BLOCK_ROWS, 16):
            monkeypatch.setattr(game, "_PROBE_BLOCK_ROWS", block_rows)
            got = verify_equilibrium(inst, sol, num_probes, rng_seed, rel_tol)
            assert got.num_probes == want.num_probes
            assert got.rsu_violations == want.rsu_violations
            assert got.uav_violations == want.uav_violations
            assert got.max_violation == want.max_violation

    @pytest.mark.parametrize("corrupt, message", [
        (lambda d: d - 1.0, "negative demand"),
        (lambda d: d + 1e3, "exceeds budget"),
    ], ids=["negative", "overspend"])
    def test_verify_rejects_bad_follower_output(self, monkeypatch, corrupt, message):
        kernel = game._batched_follower_demands

        def corrupted(*args):
            demands, lam, exits = kernel(*args)
            return corrupt(demands), lam, exits

        monkeypatch.setattr(game, "_batched_follower_demands", corrupted)
        inst = simple_instance(J=2, budget=2.0)
        with pytest.raises(ValueError, match=message):
            verify_equilibrium(inst, solve_equilibrium(inst), num_probes=5)


# =====================================================================
# Type invariants
# =====================================================================
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
