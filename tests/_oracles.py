"""Independent brute-force oracles and instance builders shared by the tests."""

from __future__ import annotations

import math

import numpy as np

from bwmarket.game import (
    CASE_BUDGET_ACTIVE,
    CASE_BUDGET_INACTIVE,
    FIXED_POINT_MAX_ITER,
    FIXED_POINT_TOL,
    ChannelLink,
    EquilibriumSolution,
    GameInstance,
    PriceMatrix,
    RsuProfile,
    SsimTriple,
    UavProfile,
    VerificationReport,
    all_followers_respond,
    follower_best_response,
    log_quality_row,
    rsu_utility,
    uav_utility,
)


def link_with_efficiency(q: float) -> ChannelLink:
    """Link whose spectrum efficiency equals q (up to float rounding)."""
    snr_db = 10.0 * math.log10(2.0 ** q - 1.0)
    return ChannelLink(transmit_power_dbm=snr_db, channel_gain_db=0.0, noise_dbm=0.0)


def simple_instance(J: int = 2, delta: float = 10.0, ssim: float = 1.0,
                    threshold: float = 0.5, q: float = 10.0, cost: float = 1.0,
                    cap: float = 35.0, budget: float = 2.0) -> GameInstance:
    """Symmetric 1-UAV instance with S = ln(ssim/threshold) on every link."""
    rsus = [RsuProfile(cost, cap, link_with_efficiency(q)) for _ in range(J)]
    uav = UavProfile(delta, budget, threshold,
                     [SsimTriple(ssim, 1.0, 1.0) for _ in range(J)])
    return GameInstance([uav], rsus)


def random_instance(rng: np.random.Generator, I: int, J: int,
                    min_component: float = 0.0) -> GameInstance:
    """Random market drawn from the simulation parameter ranges.

    min_component raises the floor of the similarity components; 0.85 makes
    every log-quality positive (product >= 0.614 > max threshold 0.55).
    """
    rsus = []
    for _ in range(J):
        link = ChannelLink(
            transmit_power_dbm=rng.uniform(20.0, 25.0),
            channel_gain_db=rng.uniform(-25.0, -22.0),
            noise_dbm=rng.uniform(-116.0, -112.0),
        )
        cost = rng.uniform(1.0, 4.0)
        rsus.append(RsuProfile(cost, rng.uniform(5.0, 35.0), link))
    uavs = []
    for _ in range(I):
        triples = [SsimTriple(rng.uniform(min_component, 1.0),
                              rng.uniform(min_component, 1.0),
                              rng.uniform(min_component, 1.0))
                   for _ in range(J)]
        uavs.append(UavProfile(
            delta=rng.uniform(10.0, 20.0),
            budget=rng.uniform(1.0, 20.0),
            ssim_threshold=rng.uniform(0.5, 0.55),
            per_rsu_ssim=triples,
        ))
    return GameInstance(uavs, rsus)


def grid_follower_utility(instance: GameInstance, uav_index: int,
                          price_row, n: int = 200) -> float:
    """Brute-force follower optimum: separable utility over a budget-feasible grid."""
    p = np.asarray(price_row, dtype=float)
    q = instance.efficiencies()
    S = log_quality_row(instance, uav_index)
    uav = instance.uavs[uav_index]
    delta, R = uav.delta, uav.budget
    J = instance.num_rsus
    if J > 3:
        raise ValueError("grid oracle supports J <= 3")

    grids, utils = [], []
    for j in range(J):
        Sj = S[j] if np.isfinite(S[j]) else 0.0
        b_check = delta * Sj / p[j] - 1.0 / q[j] if Sj > 0 else 0.0
        upper = min(R / p[j], max(b_check, 0.0))
        g = np.linspace(0.0, max(upper, 0.0), n)
        grids.append(g)
        utils.append(np.where(g > 0, delta * np.log1p(g * q[j]) * Sj, 0.0) - p[j] * g)

    shape = [1] * J
    total_u = np.zeros([1] * J)
    total_spend = np.zeros([1] * J)
    for j in range(J):
        sh = shape.copy()
        sh[j] = n
        total_u = total_u + utils[j].reshape(sh)
        total_spend = total_spend + (p[j] * grids[j]).reshape(sh)
    feasible = total_spend <= R + 1e-12
    return float(np.max(np.where(feasible, total_u, -np.inf)))


def reference_verify_equilibrium(instance: GameInstance, solution: EquilibriumSolution,
                                 num_probes: int = 1000, rng_seed: int = 0,
                                 rel_tol: float = 1e-6) -> VerificationReport:
    """Probe-by-probe no-profitable-deviation check, one scalar solve per buyer.

    The reference for verify_equilibrium: the same probes in the same order,
    each seller probe re-solved through all_followers_respond and each buyer
    probe scored through uav_utility.
    """
    rng = np.random.default_rng(rng_seed)
    P = solution.prices.prices
    I, J = instance.num_uavs, instance.num_rsus
    cs = instance.costs()
    caps = instance.price_caps()
    budgets = np.array([u.budget for u in instance.uavs])

    rsu_violations: list[tuple[int, float]] = []
    max_violation = 0.0
    scale = max(1.0, float(np.max(np.abs(solution.rsu_utilities))))
    for j in range(J):
        base = solution.rsu_utilities[j]
        worst = 0.0
        for _ in range(num_probes):
            trial = P.copy()
            trial[j] = rng.uniform(cs[j], caps[j], size=I)
            demands = all_followers_respond(instance, trial)
            v = rsu_utility(instance, j, trial[j], demands.demands[:, j])
            worst = max(worst, (v - base) / scale)
        if worst > rel_tol:
            rsu_violations.append((j, worst))
        max_violation = max(max_violation, worst)

    uav_violations: list[tuple[int, float]] = []
    for i in range(I):
        base = solution.uav_utilities[i]
        p_i = P[:, i]
        worst = 0.0
        uscale = max(1.0, abs(base))
        for _ in range(num_probes):
            b = rng.uniform(0.0, 1.0, size=J)
            b *= rng.uniform(0.0, budgets[i]) / max(float(p_i @ b), 1e-12)
            u = uav_utility(instance, i, b, p_i)
            worst = max(worst, (u - base) / uscale)
        if worst > rel_tol:
            uav_violations.append((i, worst))
        max_violation = max(max_violation, worst)

    return VerificationReport(num_probes, rsu_violations, uav_violations, max_violation)


def reference_leader_map(instance: GameInstance, uav_index: int,
                         price_vector) -> np.ndarray:
    """Clamped sellers' best-response map for one buyer, coordinate by coordinate.

    The reference for game.leader_best_response_map and the batched map of
    solve_equilibrium: the same formulas in the same order, one seller at a time.
    """
    p = np.asarray(price_vector, dtype=float)
    q = instance.efficiencies()
    cs = instance.costs()
    caps = instance.price_caps()
    S = log_quality_row(instance, uav_index)
    uav = instance.uavs[uav_index]
    R = uav.budget
    positive = np.isfinite(S) & (S > 0.0)

    out = cs.astype(float).copy()
    sum_S = float(np.sum(S[positive]))
    sum_pq = float(np.sum(p[positive] / q[positive]))
    for j in range(instance.num_rsus):
        if not positive[j]:
            continue
        denom = sum_S - S[j]
        if denom <= 0.0:
            rsu = instance.rsus[j]
            out[j] = math.sqrt(uav.delta * S[j] * rsu.link.spectrum_efficiency
                               * rsu.bandwidth_cost)
            continue
        other = sum_pq - p[j] / q[j]
        out[j] = math.sqrt(q[j] * cs[j] * S[j] * (R + other) / denom)
    return np.clip(out, cs, caps)


def _reference_uav_prices(instance: GameInstance, uav_index: int,
                          tolerance: float, max_iterations: int):
    """One buyer's equilibrium price column:
    (prices, case, iterations, residual, consistent, diagnostic)."""
    q = instance.efficiencies()
    cs = instance.costs()
    caps = instance.price_caps()
    S = log_quality_row(instance, uav_index)
    delta = instance.uavs[uav_index].delta
    positive = np.isfinite(S) & (S > 0.0)

    if not np.any(positive):
        return cs.copy(), CASE_BUDGET_INACTIVE, 0, 0.0, True, None

    # slack-budget candidate
    p_tilde = cs.copy()
    p_tilde[positive] = np.sqrt(delta * S[positive] * q[positive] * cs[positive])
    p_tilde = np.clip(p_tilde, cs, caps)
    fr_tilde = follower_best_response(instance, uav_index, p_tilde)
    if fr_tilde.case_label == CASE_BUDGET_INACTIVE:
        return p_tilde, CASE_BUDGET_INACTIVE, 0, 0.0, True, None

    # binding-budget candidate: fixed point of the clamped best-response map
    p = p_tilde.copy()
    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        p_next = reference_leader_map(instance, uav_index, p)
        residual = float(np.max(np.abs(p_next - p)))
        p = p_next
        if residual < tolerance:
            break
    fr_hat = follower_best_response(instance, uav_index, p)
    if fr_hat.case_label == CASE_BUDGET_ACTIVE and residual < tolerance:
        return p, CASE_BUDGET_ACTIVE, iterations, residual, True, None

    # case assumptions contradicted: keep the self-consistent candidate, else
    # the more profitable one with a diagnostic
    def total_margin(prices, demands):
        return float(np.sum((prices - cs) * demands))

    inactive_ok = fr_tilde.case_label == CASE_BUDGET_INACTIVE
    active_ok = fr_hat.case_label == CASE_BUDGET_ACTIVE and residual < tolerance
    if active_ok and not inactive_ok:
        return p, CASE_BUDGET_ACTIVE, iterations, residual, True, None
    if inactive_ok and not active_ok:
        return p_tilde, CASE_BUDGET_INACTIVE, iterations, 0.0, True, None
    v_tilde = total_margin(p_tilde, fr_tilde.demands)
    v_hat = total_margin(p, fr_hat.demands)
    diag = (f"uav {uav_index}: mixed-case resolution "
            f"(slack-margin {v_tilde:.6g}, binding-margin {v_hat:.6g})")
    if v_hat >= v_tilde:
        return p, fr_hat.case_label, iterations, residual, False, diag
    return p_tilde, fr_tilde.case_label, iterations, 0.0, False, diag


def reference_solve_equilibrium(instance: GameInstance, tolerance: float = FIXED_POINT_TOL,
                                max_iterations: int = FIXED_POINT_MAX_ITER
                                ) -> EquilibriumSolution:
    """Buyer-by-buyer equilibrium solve through the scalar solvers.

    The reference for solve_equilibrium: each buyer's leader subgame solved
    on its own with reference_leader_map and follower_best_response, then
    all_followers_respond and the per-seller and per-buyer utilities.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    I, J = instance.num_uavs, instance.num_rsus
    P = np.zeros((J, I))
    cases, diagnostics = [], []
    iterations = 0
    residual = 0.0
    consistent = True
    for i in range(I):
        p_i, case, iters, res, ok, diag = _reference_uav_prices(
            instance, i, tolerance, max_iterations)
        P[:, i] = p_i
        cases.append(case)
        iterations = max(iterations, iters)
        residual = max(residual, res)
        consistent = consistent and ok
        if diag:
            diagnostics.append(diag)

    prices = PriceMatrix(P, instance)
    demands = all_followers_respond(instance, prices)
    rsu_utils = np.array([
        rsu_utility(instance, j, P[j], demands.demands[:, j]) for j in range(J)
    ])
    uav_utils = np.array([
        uav_utility(instance, i, demands.demands[i], P[:, i]) for i in range(I)
    ])
    return EquilibriumSolution(prices, demands, rsu_utils, uav_utils, cases,
                               iterations, residual, consistent, diagnostics)
