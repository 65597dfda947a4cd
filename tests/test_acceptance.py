"""End-to-end acceptance checks: anchors, properties, trends, reproducibility.

Each test covers one headline criterion and prints a single PASS/FAIL line,
so a -s run doubles as a checklist.
"""

import time

import numpy as np

from bwmarket.game import (
    follower_best_response,
    leader_best_response_map,
    solve_equilibrium,
    uav_utility,
    verify_equilibrium,
)
from bwmarket.harness import (
    ExperimentConfig,
    SweepSpec,
    emit_results,
    run_sweep,
    run_training,
    run_training_group,
    sample_instance,
)
from bwmarket.tinynet import PrunableMlp, PruneSchedule, compact, sparsity_at, update_masks

from _oracles import grid_follower_utility, random_instance, simple_instance


def report(name: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def market_config(**overrides) -> ExperimentConfig:
    """Dense market: every link viable, budgets mostly binding."""
    cfg = ExperimentConfig(**overrides)
    cfg.ranges["similarity"] = (0.85, 1.0)
    return cfg


class TestFollowerOracle:
    def test_best_response_matches_grid_search(self):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        ok = True
        for trial in range(100):
            J = int(rng.integers(1, 4))
            inst = random_instance(rng, I=1, J=J,
                                   min_component=0.85 if trial % 2 else 0.0)
            caps, costs = inst.price_caps(), inst.costs()
            prices = rng.uniform(costs, caps)
            sol = follower_best_response(inst, 0, prices)
            b = sol.demands
            spend = float(prices @ b)
            ok &= spend <= inst.uavs[0].budget * (1.0 + 1e-9) + 1e-12
            ok &= bool(np.all(b >= 0.0))
            util = uav_utility(inst, 0, b, prices)
            ok &= util >= grid_follower_utility(inst, 0, prices) - 1e-2
        elapsed = time.perf_counter() - start
        report(f"follower oracle equivalence ({elapsed:.1f} s)",
               ok and elapsed < 60.0)


class TestClosedFormAnchors:
    def test_kkt_demand_anchor(self):
        inst = simple_instance(J=2, budget=2.0)
        sol = follower_best_response(inst, 0, np.array([2.0, 2.0]))
        spend = float(np.array([2.0, 2.0]) @ sol.demands)
        ok = (np.allclose(sol.demands, [0.5, 0.5], atol=1e-10)
              and abs(spend - 2.0) < 1e-10)
        report("KKT anchor: demands (0.5, 0.5), budget binding", ok)

    def test_equilibrium_anchor_verifies(self):
        start = time.perf_counter()
        inst = simple_instance(J=2, budget=2.0)
        sol = solve_equilibrium(inst)
        ok = (np.allclose(sol.prices.prices, 5.0, atol=1e-6)
              and np.allclose(sol.demands.demands, 0.2, atol=1e-6)
              and np.allclose(sol.rsu_utilities, 0.8, atol=1e-6))
        rep = verify_equilibrium(inst, sol)
        elapsed = time.perf_counter() - start
        ok = ok and rep.passed and rep.max_violation <= 1e-6
        report(f"equilibrium anchor, no profitable deviation ({elapsed:.1f} s)",
               ok and elapsed < 5.0)


class TestStandardFunction:
    def test_positivity_monotonicity_scalability(self):
        rng = np.random.default_rng(1)
        failures = 0
        for _ in range(1000):
            inst = random_instance(rng, I=1, J=int(rng.integers(2, 5)),
                                   min_component=0.85)
            caps, costs = inst.price_caps(), inst.costs()
            p = rng.uniform(costs, caps)
            phi = leader_best_response_map(inst, 0, p, clamp=False)
            if not np.all(phi > 0):
                failures += 1
                continue
            q = p + rng.uniform(0.0, 1.0, p.size) * (caps - p)
            if not np.all(leader_best_response_map(inst, 0, q, clamp=False)
                          >= phi - 1e-9):
                failures += 1
                continue
            alpha = 1.0 + rng.uniform(0.1, 2.0)
            if not np.all(alpha * phi
                          > leader_best_response_map(inst, 0, alpha * p,
                                                     clamp=False)):
                failures += 1
        report("standard-function suite: 1000 points per property",
               failures == 0)


class TestGradients:
    def test_finite_difference_agreement(self):
        start = time.perf_counter()
        ok = True
        for seed in range(5):
            rng = np.random.default_rng(seed)
            net = PrunableMlp.create([3, 8, 8, 2], rng=rng)
            for masked in (False, True):
                if masked:
                    for m in net.masks:
                        m[rng.uniform(size=m.size) < 0.3] = 0.0
                x = rng.standard_normal((4, 3))
                target = rng.standard_normal((4, 2))

                def loss(nt):
                    out, _ = nt.forward(x)
                    return 0.5 * float(np.sum((out - target) ** 2))

                out, cache = net.forward(x)
                grads = net.backward(cache, out - target)
                eps = 1e-6
                for li, layer in enumerate(net.layers):
                    idx = (rng.integers(layer.weights.shape[0]),
                           rng.integers(layer.weights.shape[1]))
                    orig = layer.weights[idx]
                    layer.weights[idx] = orig + eps
                    up = loss(net)
                    layer.weights[idx] = orig - eps
                    down = loss(net)
                    layer.weights[idx] = orig
                    fd = (up - down) / (2 * eps)
                    scale = max(abs(fd), abs(grads[li][idx]), 1e-8)
                    ok &= abs(fd - grads[li][idx]) / scale < 1e-4
        elapsed = time.perf_counter() - start
        report(f"gradient check, 5 nets masked+unmasked ({elapsed:.1f} s)",
               ok and elapsed < 10.0)


class TestPruning:
    def test_schedule_endpoints_and_compaction(self):
        schedule = PruneSchedule(0.0, 0.5, 10, 20, 2)
        ok = (sparsity_at(schedule, 10) == 0.0
              and sparsity_at(schedule, 10 + 20 * 2) == 0.5)
        rng = np.random.default_rng(2)
        net = PrunableMlp.create([6, 64, 64, 3], rng=rng)
        for epoch in range(10, 51, 2):
            update_masks(net, schedule, epoch, floor_neurons=4)
        small = compact(net)
        remaining = sum(small.hidden_sizes())
        ok &= 60 <= remaining <= 68
        x = rng.standard_normal((100, 6))
        full_out, _ = net.forward(x)
        small_out, _ = small.forward(x)
        ok &= bool(np.max(np.abs(full_out - small_out)) <= 1e-12)
        report(f"pruning schedule and compaction ({remaining}/128 kept)", ok)


class TestTrainingComparison:
    def test_tiny_madrl_vs_baselines(self):
        start = time.perf_counter()
        cfg = market_config(num_uavs=3, num_rsus=2, episodes=300)
        finals = {}
        reach80 = {}
        algos = ("tiny_madrl", "ppo", "greedy", "random")
        groups = [run_training_group(cfg, algos, seed) for seed in range(5)]
        for k, algo in enumerate(algos):
            fracs, reach = [], []
            for rec in (group[1 + k] for group in groups):  # after the solve record
                curve = rec.avg_rewards / rec.theoretical
                fracs.append(rec.final_average() / rec.theoretical)
                hits = np.nonzero(curve >= 0.8)[0]
                reach.append(int(hits[0]) if hits.size else cfg.episodes)
            finals[algo] = float(np.median(fracs))
            reach80[algo] = float(np.median(reach))
        elapsed = time.perf_counter() - start
        ok = (finals["tiny_madrl"] >= 0.85
              and finals["tiny_madrl"] >= finals["random"]
              and finals["tiny_madrl"] >= finals["greedy"]
              and reach80["tiny_madrl"] <= reach80["ppo"]
              and elapsed < 600.0)
        report(
            "training comparison: tiny {:.3f}, ppo {:.3f}, greedy {:.3f}, "
            "random {:.3f} of theoretical ({:.0f} s)".format(
                finals["tiny_madrl"], finals["ppo"], finals["greedy"],
                finals["random"], elapsed), ok)


class TestEquilibriumTrends:
    def test_reward_declines_with_cost(self):
        cfg = market_config(num_uavs=3, num_rsus=2, episodes=1)
        cfg.seeds = list(range(20))
        grid = [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        _, agg = run_sweep(cfg, SweepSpec("c", grid, cfg.seeds))
        curve = [agg[v][0] for v in grid]
        ok = all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))
        report("average reward non-increasing in bandwidth cost", ok)

    def test_reward_trends_with_market_size(self):
        start = time.perf_counter()
        cfg_j = market_config(num_uavs=15, num_rsus=2, episodes=1)
        cfg_j.seeds = list(range(20))
        grid_j = [2, 3, 4, 5, 6]
        _, agg_j = run_sweep(cfg_j, SweepSpec("J", grid_j, cfg_j.seeds))
        curve_j = [agg_j[v][0] for v in grid_j]

        cfg_i = market_config(num_uavs=3, num_rsus=3, episodes=1)
        cfg_i.seeds = list(range(20))
        grid_i = [3, 6, 9, 12, 15]
        _, agg_i = run_sweep(cfg_i, SweepSpec("I", grid_i, cfg_i.seeds))
        curve_i = [agg_i[v][0] for v in grid_i]
        elapsed = time.perf_counter() - start

        ok = (all(b <= a + 1e-12 for a, b in zip(curve_j, curve_j[1:]))
              and all(b >= a - 1e-12 for a, b in zip(curve_i, curve_i[1:]))
              and elapsed < 120.0)
        report(f"reward falls with sellers, rises with buyers ({elapsed:.0f} s)",
               ok)


class TestDemandOpposition:
    def test_raising_a_price_never_raises_its_demand(self):
        rng = np.random.default_rng(3)
        ok = True
        for trial in range(1000):
            J = int(rng.integers(1, 4))
            inst = random_instance(rng, I=1, J=J,
                                   min_component=0.85 if trial % 4 else 0.0)
            caps, costs = inst.price_caps(), inst.costs()
            prices = rng.uniform(costs, caps)
            j = int(rng.integers(J))
            before = follower_best_response(inst, 0, prices).demands[j]
            bumped = prices.copy()
            bumped[j] += rng.uniform(0.0, 1.0) * (caps[j] - prices[j])
            after = follower_best_response(inst, 0, bumped).demands[j]
            ok &= after <= before + 1e-9
        report("demand moves against price on 1000 instances", ok)


class TestReproducibility:
    def test_identical_runs_identical_csv(self, tmp_path):
        cfg = market_config(num_uavs=2, num_rsus=2, episodes=5)
        cfg.env.history_length = 1
        cfg.env.episode_length = 10
        cfg.ppo.rollout_size = 10
        cfg.ppo.update_epochs = 2
        cfg.ppo.hidden_sizes = (8, 8)
        cfg.schedule = PruneSchedule(0.0, 0.5, 1, 2, 1)

        def rows(sub):
            rec = run_training(cfg, "tiny_madrl", seed=0)
            path = emit_results([rec], tmp_path / sub, fmt="csv")
            return [line.rsplit(",", 1)[0]
                    for line in path.read_text().splitlines()]

        ok = rows("first") == rows("second")
        report("byte-identical training CSV (wall clock excluded)", ok)
