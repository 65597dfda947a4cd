"""Independent brute-force oracles and instance builders shared by the tests."""

from __future__ import annotations

import math

import numpy as np

from bwmarket.game import (
    CASE_BUDGET_ACTIVE,
    CASE_BUDGET_INACTIVE,
    ChannelLink,
    DemandMatrix,
    EquilibriumSolution,
    FollowerSolution,
    GameInstance,
    PriceMatrix,
    RsuProfile,
    SsimTriple,
    UavProfile,
    _MarketArrays,
    rsu_utility,
    uav_utility,
)
from bwmarket.harness import DEFAULT_RANGES
from bwmarket.tinynet import PrunableMlp, PruneSchedule, neuron_importance, sparsity_at

# The iterated oracle's own stopping rule: a step below FIXED_POINT_TOL in
# every price, at most FIXED_POINT_MAX_ITER map steps. A tight step, since
# the iterate's distance to the fixed point is about the step times
# k / (1 - k) for a contraction factor k, which nears 1 when a buyer's budget
# is small against its spend.
FIXED_POINT_TOL = 1e-13
FIXED_POINT_MAX_ITER = 10_000


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


def reference_market_arrays(instance: GameInstance) -> _MarketArrays:
    """The market's arrays from its profiles in scalar math, one entry at a
    time: each link's S = math.log(l * c * s / threshold) of its SSIM
    components, and -inf where that SSIM is 0."""
    rsus, uavs = instance.rsus, instance.uavs

    def log_quality(t: SsimTriple, threshold: float) -> float:
        sim = t.luminance * t.contrast * t.structure
        return math.log(sim / threshold) if sim > 0.0 else -math.inf

    return _MarketArrays(*(np.array(v, dtype=float) for v in (
        [r.link.spectrum_efficiency for r in rsus], [r.bandwidth_cost for r in rsus],
        [r.price_cap for r in rsus],
        [[log_quality(t, u.ssim_threshold) for t in u.per_rsu_ssim] for u in uavs],
        [u.delta for u in uavs], [u.budget for u in uavs])))


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
    q = instance.arrays.q
    S = instance.arrays.S[uav_index]
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


def reference_follower_best_response(instance: GameInstance, uav_index: int,
                                     price_row) -> FollowerSolution:
    """Exact budget-constrained demand maximizer for one buyer, one buyer at a time.

    The reference for game._batched_follower_demands and everything built on
    it. Unconstrained candidates b_j = delta*S_j/p_j - 1/q_j are accepted when
    their spend np.sum(p * cand) fits the budget; otherwise a support-set
    water-filling computes the binding-budget multiplier, dropping sellers
    whose demand goes nonpositive and recomputing until the support is
    self-consistent. The spend and each sum over the support are np.sum over
    the whole J-wide row (0.0 off the support): the kernel's summation order.
    """
    p = np.asarray(price_row, dtype=float)
    q = instance.arrays.q
    S = instance.arrays.S[uav_index]
    uav = instance.uavs[uav_index]
    delta, R = uav.delta, uav.budget
    J = instance.num_rsus

    zeros = np.zeros(J)
    positive = np.isfinite(S) & (S > 0.0)

    # unconstrained candidates: positive only where marginal value beats price
    cand = np.where(positive & (p < delta * q * np.where(positive, S, 0.0)),
                    delta * np.where(positive, S, 0.0) / p - 1.0 / q, 0.0)
    cand = np.maximum(cand, 0.0)

    if not np.any(cand > 0):
        return FollowerSolution(zeros, CASE_BUDGET_INACTIVE, 0.0, frozenset(),
                                degenerate=not np.any(positive))

    if float(np.sum(p * cand)) <= R:
        support = frozenset(np.flatnonzero(cand > 0).tolist())
        return FollowerSolution(cand, CASE_BUDGET_INACTIVE, 0.0, support)

    # budget binds: water-filling over the shrinking support set
    support = np.flatnonzero(positive)
    while support.size > 0:
        on = np.isin(np.arange(J), support)
        lam = (delta * float(np.sum(np.where(on, S, 0.0)))
               / (R + float(np.sum(np.where(on, p / q, 0.0)))) - 1.0)
        if lam <= 0.0:
            # reduced support fits the budget after all: fall back to candidates
            b = zeros.copy()
            b[support] = np.maximum(delta * S[support] / p[support] - 1.0 / q[support], 0.0)
            if float(np.sum(p * b)) <= R:
                sup = frozenset(np.flatnonzero(b > 0).tolist())
                return FollowerSolution(b, CASE_BUDGET_INACTIVE, 0.0, sup)
            lam = max(lam, 1e-15)
        b_sup = delta * S[support] / (p[support] * (1.0 + lam)) - 1.0 / q[support]
        if np.all(b_sup > 0):
            b = zeros.copy()
            b[support] = b_sup
            return FollowerSolution(b, CASE_BUDGET_ACTIVE, lam,
                                    frozenset(support.tolist()))
        support = support[b_sup > 0]

    return FollowerSolution(zeros, CASE_BUDGET_INACTIVE, 0.0, frozenset(),
                            degenerate=True)


def reference_all_followers_respond(instance: GameInstance, prices) -> DemandMatrix:
    """Every buyer's reference best response to its price column (J x I prices in)."""
    P = prices.prices if isinstance(prices, PriceMatrix) else np.asarray(prices, dtype=float)
    demands = np.stack([
        reference_follower_best_response(instance, i, P[:, i]).demands
        for i in range(instance.num_uavs)
    ])
    return DemandMatrix(demands, instance, prices=P)


def reference_leader_map(instance: GameInstance, uav_index: int,
                         price_vector) -> np.ndarray:
    """Clamped sellers' best-response map for one buyer, coordinate by coordinate.

    The reference for game.leader_best_response_map: the same formulas in the
    same order, one seller at a time, and the map that the iterated oracle
    solve (reference_solve_equilibrium) iterates. The sums over the positive
    links are np.sum over the whole J-wide row, 0.0 off those links: the
    game's summation order.
    """
    p = np.asarray(price_vector, dtype=float)
    q = instance.arrays.q
    cs = instance.costs()
    caps = instance.price_caps()
    S = instance.arrays.S[uav_index]
    uav = instance.uavs[uav_index]
    R = uav.budget
    positive = np.isfinite(S) & (S > 0.0)

    out = cs.astype(float).copy()
    sum_S = float(np.sum(np.where(positive, S, 0.0)))
    sum_pq = float(np.sum(np.where(positive, p / q, 0.0)))
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


def reference_binding_prices(instance: GameInstance, uav_index: int,
                             X: float) -> np.ndarray:
    """One buyer's binding-budget prices p_j(X), seller by seller, X being
    sum_j p_j/q_j over the positive links.

    A link with positive log-quality and positive rival sum D_j prices at
    q_j x_j clamped to [c_j, cap_j], where x_j = (-a_j + sqrt(a_j^2 +
    4 a_j (R + X)))/2 solves x_j^2 = a_j (R + X - x_j) with
    a_j = c_j S_j / (q_j D_j): reference_leader_map's fixed-point condition
    in x_j = p_j/q_j. A lone positive link prices at its clamped slack price,
    any other link at c_j.
    """
    q = instance.arrays.q
    cs = instance.costs()
    caps = instance.price_caps()
    S = instance.arrays.S[uav_index]
    uav = instance.uavs[uav_index]
    positive = np.isfinite(S) & (S > 0.0)
    sum_S = float(np.sum(np.where(positive, S, 0.0)))
    out = cs.astype(float).copy()
    for j in np.flatnonzero(positive).tolist():
        denom = sum_S - S[j]
        if denom <= 0.0:
            p = math.sqrt(uav.delta * S[j] * q[j] * cs[j])
        else:
            a = cs[j] * S[j] / (q[j] * denom)
            p = q[j] * (-a + math.sqrt(a * a + 4.0 * a * (uav.budget + X))) / 2.0
        out[j] = min(max(p, cs[j]), caps[j])
    return out


def reference_leader_gap(instance: GameInstance, uav_index: int, X: float) -> float:
    """g(X) = sum_j p_j(X)/q_j - X for one buyer's binding leader subgame,
    with reference_binding_prices' p_j(X), over the positive links. g is
    positive below the subgame's fixed point and negative above it."""
    S = instance.arrays.S[uav_index]
    p = reference_binding_prices(instance, uav_index, X)
    positive = np.isfinite(S) & (S > 0.0)
    return float(np.sum(p[positive] / instance.arrays.q[positive])) - X


def reference_kink_prices(instance: GameInstance, uav_index: int,
                          p_slack: np.ndarray) -> np.ndarray:
    """One buyer's price column on its budget kink X_k = delta*sum S - R over
    the positive links, from its clipped slack prices p_slack: every seller
    the same fraction theta of the way to its binding price p_j(X_k) (in
    [0, 1], 1 when the two columns spend alike), so that the column spends
    sum_j p_j/q_j = X_k."""
    q = instance.arrays.q
    S = instance.arrays.S[uav_index]
    uav = instance.uavs[uav_index]
    positive = np.isfinite(S) & (S > 0.0)
    X_k = uav.delta * float(np.sum(S[positive])) - uav.budget
    p_bind = reference_binding_prices(instance, uav_index, X_k)
    x_slack = float(np.sum(p_slack[positive] / q[positive]))
    x_bind = float(np.sum(p_bind[positive] / q[positive]))
    theta = 1.0
    if x_bind > x_slack:
        theta = min(max((X_k - x_slack) / (x_bind - x_slack), 0.0), 1.0)
    return np.clip(p_slack + theta * (p_bind - p_slack), instance.costs(),
                   instance.price_caps())


def _reference_uav_prices(instance: GameInstance, uav_index: int):
    """One buyer's equilibrium price column:
    (prices, case, iterations, residual, consistent, diagnostic).

    The clamped slack column when the budget does not bind there; else the
    iterated leader map's fixed point when the budget binds there; else the
    kink column (reference_kink_prices). A map that does not settle within
    FIXED_POINT_MAX_ITER steps keeps its last iterate, with a diagnostic.
    The case is budget_active whenever the budget binds at the slack column."""
    q = instance.arrays.q
    cs = instance.costs()
    caps = instance.price_caps()
    S = instance.arrays.S[uav_index]
    delta = instance.uavs[uav_index].delta
    positive = np.isfinite(S) & (S > 0.0)

    if not np.any(positive):
        return cs.copy(), CASE_BUDGET_INACTIVE, 0, 0.0, True, None

    # slack-budget candidate
    p_tilde = cs.copy()
    p_tilde[positive] = np.sqrt(delta * S[positive] * q[positive] * cs[positive])
    p_tilde = np.clip(p_tilde, cs, caps)
    fr_tilde = reference_follower_best_response(instance, uav_index, p_tilde)
    if fr_tilde.case_label == CASE_BUDGET_INACTIVE:
        return p_tilde, CASE_BUDGET_INACTIVE, 0, 0.0, True, None

    # binding-budget candidate: fixed point of the clamped best-response map
    p = p_tilde.copy()
    residual = np.inf
    iterations = 0
    for iterations in range(1, FIXED_POINT_MAX_ITER + 1):
        p_next = reference_leader_map(instance, uav_index, p)
        residual = float(np.max(np.abs(p_next - p)))
        p = p_next
        if residual < FIXED_POINT_TOL:
            break
    if residual >= FIXED_POINT_TOL:
        return (p, CASE_BUDGET_ACTIVE, iterations, residual, False,
                f"uav {uav_index}: root not certified (last step {residual:.3g})")
    fr_hat = reference_follower_best_response(instance, uav_index, p)
    if fr_hat.case_label == CASE_BUDGET_ACTIVE:
        return p, CASE_BUDGET_ACTIVE, iterations, residual, True, None

    # the budget is slack at the fixed point: the kink, where the buyer
    # spends its whole budget
    return (reference_kink_prices(instance, uav_index, p_tilde), CASE_BUDGET_ACTIVE,
            iterations, residual, True, None)


def reference_solve_equilibrium(instance: GameInstance) -> EquilibriumSolution:
    """Buyer-by-buyer equilibrium solve through the scalar solvers.

    The reference for solve_equilibrium: each buyer's leader subgame solved
    on its own by iterating reference_leader_map to a step below
    FIXED_POINT_TOL, with reference_follower_best_response, then
    reference_all_followers_respond and the per-seller and per-buyer
    utilities. Its iterations and residual are the map's steps and last step.
    """
    I, J = instance.num_uavs, instance.num_rsus
    P = np.zeros((J, I))
    cases, diagnostics = [], []
    iterations = 0
    residual = 0.0
    consistent = True
    for i in range(I):
        p_i, case, iters, res, ok, diag = _reference_uav_prices(instance, i)
        P[:, i] = p_i
        cases.append(case)
        iterations = max(iterations, iters)
        residual = max(residual, res)
        consistent = consistent and ok
        if diag:
            diagnostics.append(diag)

    prices = PriceMatrix(P, instance)
    demands = reference_all_followers_respond(instance, prices)
    rsu_utils = np.array([
        rsu_utility(instance, j, P[j], demands.demands[:, j]) for j in range(J)
    ])
    uav_utils = np.array([
        uav_utility(instance, i, demands.demands[i], P[:, i]) for i in range(I)
    ])
    return EquilibriumSolution(prices, demands, rsu_utils, uav_utils, cases,
                               iterations, residual, consistent, diagnostics)


class ReferencePricingEnv:
    """PricingEnv's history bookkeeping as J lists of L (price row, demand
    column) pairs, one agent at a time; the reference for the array history.

    Takes the same instance, EnvConfig and demand scale; buyers respond through
    reference_all_followers_respond and rewards are rsu_utility per seller.
    """

    def __init__(self, instance: GameInstance, config, demand_scale: float):
        self.instance = instance
        self.config = config
        self.demand_scale = demand_scale
        self.costs = instance.costs()
        self.caps = instance.price_caps()
        self.history: list[list[tuple[np.ndarray, np.ndarray]]] = []
        self.t = 0

    def _norm_demands(self, demand_col):
        scaled = demand_col / self.demand_scale
        return np.clip(scaled, 0.0, 1.0), bool(np.any(scaled > 1.0))

    def reset(self) -> list[np.ndarray]:
        J, I = self.instance.num_rsus, self.instance.num_uavs
        self.t = 0
        zero = np.zeros(I)
        self.history = [[(zero.copy(), zero.copy())
                         for _ in range(self.config.history_length)] for _ in range(J)]
        return self.observations()

    def observations(self) -> list[np.ndarray]:
        return [np.concatenate([part for pair in agent for part in pair])
                for agent in self.history]

    def step(self, joint_prices):
        """(observations, rewards, demand_clipped, done) after one round."""
        prices = np.stack([
            np.clip(np.asarray(row, dtype=float), self.costs[j], self.caps[j])
            for j, row in enumerate(joint_prices)])
        demands = reference_all_followers_respond(self.instance, prices).demands
        rewards = np.array([rsu_utility(self.instance, j, prices[j], demands[:, j])
                            for j in range(len(prices))])
        clipped = False
        for j, agent in enumerate(self.history):
            b_norm, c = self._norm_demands(demands[:, j])
            clipped = clipped or c
            agent.pop(0)
            agent.append((prices[j] / self.caps[j], b_norm))
        self.t += 1
        return (self.observations(), rewards, clipped,
                self.t >= self.config.episode_length)


def reference_greedy_act(agent, rng: np.random.Generator) -> np.ndarray:
    """GreedyAgent.act buyer by buyer: each buyer's arm test, draws and price
    on their own."""
    prices = np.empty(agent.num_uavs)
    for i in range(agent.num_uavs):
        if agent.counts[i].sum() == 0 or rng.uniform() < agent.epsilon:
            k = int(rng.integers(agent.num_levels))
        else:
            k = int(np.argmax(agent.means[i]))
        agent._last_choice[i] = k
        prices[i] = (agent.box_low[i]
                     + agent.levels[k] * (agent.box_high[i] - agent.box_low[i]))
    return np.minimum(prices, agent.box_high)


def reference_sample_instance(ranges: dict, num_uavs: int, num_rsus: int,
                              seed) -> GameInstance:
    """Entity-by-entity sampling with one scalar uniform draw per parameter.

    The reference for harness.sample_instance: the same substreams, each
    parameter drawn on its own in the order the profiles list them.
    """
    full = dict(DEFAULT_RANGES)
    full.update(ranges)
    rng = (seed if isinstance(seed, np.random.Generator)
           else np.random.default_rng(seed))
    rsu_parent, uav_parent = rng.spawn(2)

    def draw(gen, key):
        lo, hi = full[key]
        return float(gen.uniform(lo, hi))

    rsus = []
    for gen in rsu_parent.spawn(num_rsus):
        link = ChannelLink(draw(gen, "transmit_power_dbm"),
                           draw(gen, "channel_gain_db"), draw(gen, "noise_dbm"))
        rsus.append(RsuProfile(draw(gen, "bandwidth_cost"), draw(gen, "price_cap"), link))
    uavs = []
    for gen in uav_parent.spawn(num_uavs):
        delta = draw(gen, "delta")
        budget = draw(gen, "budget")
        threshold = draw(gen, "ssim_threshold")
        triples = [SsimTriple(draw(gen, "similarity"), draw(gen, "similarity"),
                              draw(gen, "similarity")) for _ in range(num_rsus)]
        uavs.append(UavProfile(delta, budget, threshold, triples))
    return GameInstance(uavs, rsus)


def reference_update_masks(net: PrunableMlp, schedule: PruneSchedule, epoch: int,
                           floor_neurons: int = 4) -> float:
    """Re-mask hidden neurons from a sorted list of (score, layer, index) tuples.

    The reference for tinynet.update_masks: the k = round(w(t) * N) lowest
    tuples are masked, so ties break by (layer, index); a layer left with
    fewer than floor_neurons active gets its top scorers back, ties by index.
    Returns the smallest surviving score, inf when all are masked, 0 when
    none is.
    """
    w = sparsity_at(schedule, epoch)
    scores = neuron_importance(net)
    pooled = [(scores[k][n], k, n)
              for k in range(net.num_hidden_layers)
              for n in range(len(scores[k]))]
    pooled.sort()
    total = len(pooled)
    k_mask = int(round(w * total))

    masks = [np.ones(len(s)) for s in scores]
    for score, layer, idx in pooled[:k_mask]:
        masks[layer][idx] = 0.0
    threshold = pooled[k_mask][0] if k_mask < total else float("inf")
    if k_mask == 0:
        threshold = 0.0

    for k, m in enumerate(masks):
        active = int(m.sum())
        if active < floor_neurons:
            order = np.lexsort((np.arange(len(m)), -scores[k]))
            for idx in order[:floor_neurons]:
                m[idx] = 1.0
    for old, new in zip(net.masks, masks):
        old[...] = new
    return threshold
