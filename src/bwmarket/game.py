"""Stackelberg bandwidth market: utilities, best responses, and the exact equilibrium.

Sellers (RSUs) lead by posting per-buyer bandwidth prices inside a regulated
box [c, p_bar]; buyers (UAVs) follow with a budget-constrained concave demand
problem solved in closed form through KKT water-filling.  The leader subgames
decouple per buyer; each is solved by iterating the sellers' best-response
map, which is a standard function (positive, monotone, scalable), so its fixed
point is unique.  solve_equilibrium runs all buyers' subgames at once.

Every solver reads the market's dense arrays, GameInstance.arrays, built once
per instance.  One water-filling kernel, _batched_follower_demands, solves
every buyer best response: follower_best_response is its one-row call, and
all_followers_respond, solve_equilibrium and verify_equilibrium call it on
whole price matrices.  The buyer utility and the seller margin are written
once each, in _buyer_utilities and _margins.

Terms that do not depend on the prices are built once and then only read.
The kernel builds the masked S, delta*S, delta*q*S and 1/q once per call on
the I x J market, and water-fills only the rows whose budget binds, gathered
once and shrunk as rows exit.  _leader_terms builds the leader map's terms
(the gather plan of the positive links, their rival sums, q*c*S and the
fallback prices) once per solve for all binding buyers, and
leader_best_response_map builds them for its one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

FIXED_POINT_TOL = 1e-9
FIXED_POINT_MAX_ITER = 10_000
KKT_TOL = 1e-8

CASE_BUDGET_INACTIVE = "budget_inactive"
CASE_BUDGET_ACTIVE = "budget_active"


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass
class ChannelLink:
    """Downlink from one seller, parameterized in the dB domain.

    Spectrum efficiency (bits/s/Hz) is derived once at construction:
    q = log2(1 + 10^((power + gain - noise)/10)).
    """

    transmit_power_dbm: float
    channel_gain_db: float
    noise_dbm: float
    spectrum_efficiency: float = field(init=False)

    def __post_init__(self):
        snr_db = self.transmit_power_dbm + self.channel_gain_db - self.noise_dbm
        self.spectrum_efficiency = math.log2(1.0 + 10.0 ** (snr_db / 10.0))
        if not (self.spectrum_efficiency > 0 and math.isfinite(self.spectrum_efficiency)):
            raise ValueError(f"non-positive spectrum efficiency from SNR {snr_db} dB")


@dataclass
class SsimTriple:
    """Luminance/contrast/structure similarity components with exponent weights."""

    luminance: float
    contrast: float
    structure: float
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        for name, v in (("luminance", self.luminance), ("contrast", self.contrast),
                        ("structure", self.structure)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} component {v} outside [0, 1]")
        if any(w <= 0 for w in self.weights):
            raise ValueError("similarity weights must be positive")


@dataclass
class UavProfile:
    """One buyer: immersion-scaled satisfaction factor, budget, and link quality."""

    delta: float
    budget: float
    ssim_threshold: float
    per_rsu_ssim: list[SsimTriple]

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        if not 0.0 < self.ssim_threshold < 1.0:
            raise ValueError("ssim_threshold must lie in (0, 1)")


@dataclass
class RsuProfile:
    """One seller: unit bandwidth cost, price cap, and its radio link."""

    bandwidth_cost: float
    price_cap: float
    link: ChannelLink

    def __post_init__(self):
        if self.bandwidth_cost <= 0:
            raise ValueError("bandwidth_cost must be positive")
        if self.bandwidth_cost > self.price_cap:
            raise ValueError("empty price box: cost exceeds cap")


@dataclass
class GameInstance:
    """Full market description: I buyers, J sellers. Its dense arrays are
    built from the profiles on first use and cached (``arrays``), so the
    profiles must not change after a GameInstance's first use."""

    uavs: list[UavProfile]
    rsus: list[RsuProfile]

    def __post_init__(self):
        if not self.uavs or not self.rsus:
            raise ValueError("need at least one UAV and one RSU")
        J = len(self.rsus)
        for k, uav in enumerate(self.uavs):
            if len(uav.per_rsu_ssim) != J:
                raise ValueError(f"uav {k}: per_rsu_ssim length != {J}")

    @property
    def num_uavs(self) -> int:
        return len(self.uavs)

    @property
    def num_rsus(self) -> int:
        return len(self.rsus)

    @cached_property
    def arrays(self) -> _MarketArrays:
        """The market's dense arrays, built on first use and read-only."""
        m = _MarketArrays(
            np.array([r.link.spectrum_efficiency for r in self.rsus]),
            np.array([r.bandwidth_cost for r in self.rsus]),
            np.array([r.price_cap for r in self.rsus]),
            np.array([log_quality_row(self, i) for i in range(self.num_uavs)]),
            np.array([u.delta for u in self.uavs], dtype=float),
            np.array([u.budget for u in self.uavs], dtype=float))
        for a in m:
            a.setflags(write=False)
        return m

    def costs(self) -> np.ndarray:
        return self.arrays.c.copy()

    def price_caps(self) -> np.ndarray:
        return self.arrays.cap.copy()

    def efficiencies(self) -> np.ndarray:
        return self.arrays.q.copy()


@dataclass
class PriceMatrix:
    """J x I seller prices, entrywise inside each seller's [cost, cap] box."""

    prices: np.ndarray

    def __init__(self, prices, instance: GameInstance):
        prices = np.asarray(prices, dtype=float)
        J, I = instance.num_rsus, instance.num_uavs
        if prices.shape != (J, I):
            raise ValueError(f"expected shape {(J, I)}, got {prices.shape}")
        cs = instance.arrays.c[:, None]
        caps = instance.arrays.cap[:, None]
        if np.any(prices < cs - 1e-12) or np.any(prices > caps + 1e-12):
            raise ValueError("price entry outside its [cost, cap] box")
        self.prices = np.clip(prices, cs, caps)


@dataclass
class DemandMatrix:
    """I x J nonnegative buyer demands, per-buyer spend within budget; a stack
    of them (..., I, J) against a stack of J x I prices is checked alike."""

    demands: np.ndarray

    def __init__(self, demands, instance: GameInstance, prices: np.ndarray | None = None):
        demands = np.asarray(demands, dtype=float)
        I, J = instance.num_uavs, instance.num_rsus
        if demands.shape[-2:] != (I, J):
            raise ValueError(f"expected shape (..., {I}, {J}), got {demands.shape}")
        _check_demands(demands, prices, instance)
        self.demands = demands


def _check_demands(demands: np.ndarray, prices: np.ndarray | None,
                   instance: GameInstance) -> None:
    """Reject negative demands and, given J x I prices, any spend over budget.

    Takes I x J demands with any leading batch shape (prices alike, ... x J x I).
    """
    if np.any(demands < 0):
        raise ValueError("negative demand entry")
    if prices is not None:
        spend = np.sum(demands * np.swapaxes(prices, -1, -2), axis=-1)
        if np.any(spend > instance.arrays.budget + 1e-9):
            raise ValueError("per-UAV spend exceeds budget")


@dataclass
class FollowerSolution:
    """One buyer's exact best response to a posted price row."""

    demands: np.ndarray
    case_label: str
    lam: float
    support: frozenset[int]
    degenerate: bool = False


@dataclass
class EquilibriumSolution:
    prices: PriceMatrix
    demands: DemandMatrix
    rsu_utilities: np.ndarray
    uav_utilities: np.ndarray
    per_uav_case: list[str]
    iterations: int
    residual: float
    consistent: bool
    diagnostics: list[str] = field(default_factory=list)


@dataclass
class VerificationReport:
    num_probes: int
    rsu_violations: list[tuple[int, float]]
    uav_violations: list[tuple[int, float]]
    max_violation: float

    @property
    def passed(self) -> bool:
        return not self.rsu_violations and not self.uav_violations


class _MarketArrays(NamedTuple):
    """A market as dense arrays: per seller the efficiency q, cost c and cap
    (J,); per buyer row the log-quality S (rows x J, -inf on an unusable link),
    delta and budget R. GameInstance.arrays holds every buyer row, read-only."""

    q: np.ndarray
    c: np.ndarray
    cap: np.ndarray
    S: np.ndarray
    delta: np.ndarray
    budget: np.ndarray

    def buyers(self, rows) -> _MarketArrays:
        """The same market restricted to the given buyer rows."""
        return self._replace(S=self.S[rows], delta=self.delta[rows],
                             budget=self.budget[rows])


# ---------------------------------------------------------------------------
# Utility operations
# ---------------------------------------------------------------------------

def ssim(triple: SsimTriple) -> float:
    """Composite similarity l^alpha * c^beta * s^nu in [0, 1]."""
    a, b, v = triple.weights
    return triple.luminance ** a * triple.contrast ** b * triple.structure ** v


def log_quality_row(instance: GameInstance, uav_index: int) -> np.ndarray:
    """Per-seller log-quality for one buyer; -inf marks an unusable (SSIM=0) link."""
    uav = instance.uavs[uav_index]
    out = np.empty(instance.num_rsus)
    for j, triple in enumerate(uav.per_rsu_ssim):
        s = ssim(triple)
        out[j] = -np.inf if s <= 0.0 else math.log(s / uav.ssim_threshold)
    return out


def _buyer_utilities(m: _MarketArrays, demands, prices) -> np.ndarray:
    """Surplus sum_j delta*ln(1 + b_j q_j)*S_j - p_j b_j of every demand row
    (..., J) against its price row, for the buyer rows of m broadcast against
    them; each utility is a sum over one contiguous row."""
    S = np.where(np.isfinite(m.S), m.S, 0.0)
    gain = np.where(demands > 0, m.delta[:, None] * np.log1p(demands * m.q) * S, 0.0)
    return np.sum(np.ascontiguousarray(gain - prices * demands), axis=-1)


def _margins(prices: np.ndarray, demands: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Per-buyer seller margins (p_ji - c_j) * b_ij as contiguous (..., J, I)
    rows, from (..., J, I) prices, (..., I, J) demands and the sellers' costs
    c; a seller's margin is the sum of its row."""
    return np.ascontiguousarray((prices - c[:, None]) * np.swapaxes(demands, -1, -2))


def uav_utility(instance: GameInstance, uav_index: int,
                demand_row, price_row) -> float:
    """Buyer surplus: sum_j delta*ln(1 + b_j q_j)*S_j - p_j b_j."""
    b = np.asarray(demand_row, dtype=float)
    p = np.asarray(price_row, dtype=float)
    return float(_buyer_utilities(instance.arrays.buyers([uav_index]), b, p)[0])


def rsu_utility(instance: GameInstance, rsu_index: int,
                price_row, demand_column) -> float:
    """Seller margin: sum_i (p_i - c) * b_i."""
    p = np.asarray(price_row, dtype=float)
    b = np.asarray(demand_column, dtype=float)
    return float(np.sum(_margins(p[None], b[:, None], instance.arrays.c[[rsu_index]])))


# ---------------------------------------------------------------------------
# Follower (buyer) best response
# ---------------------------------------------------------------------------

# Exits of the water-filling, as reported by _batched_follower_demands.
_NO_DEMAND, _SLACK, _BINDING = range(3)


def _rowdot(x, y) -> np.ndarray:
    """x[..., k, :] @ y[..., k, :] for every k, bit for bit as the 1-D product.

    Stacked row @ column products go to the same BLAS dot as a 1-D ``@``, with
    each operand's own stride. BLAS sums unit and non-unit strides in
    different orders, so a spend depends on the price layout a caller passes.
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _pack(support: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gather plan of _packed_sums for a boolean (..., J) support.

    Per support size k, the flat indices of the rows of that size and the
    flat indices of their k support entries in ascending order.
    """
    J = support.shape[-1]
    entries = np.flatnonzero(support)         # row by row, each ascending
    row = entries // J
    # support sizes in the smallest integer type, which a stable sort sorts
    # by radix
    sizes = np.bincount(row, minlength=support.size // J).astype(np.min_scalar_type(J))
    by_size = np.argsort(sizes, kind="stable")
    entries = entries[np.argsort(sizes[row], kind="stable")]
    plan, r, e = [], 0, 0
    for k, n in enumerate(np.bincount(sizes, minlength=J + 1).tolist()):
        if k and n:
            plan.append((by_size[r:r + n], entries[e:e + n * k].reshape(n, k)))
        r, e = r + n, e + n * k
    return plan


def _packed_sums(values: np.ndarray, plan) -> np.ndarray:
    """np.sum(values[k][support[k]]) for every row k, in numpy's own order.

    plan is _pack(support). Each row is gathered to its support (ascending
    index) and the rows are summed in groups of one support size, so each sum
    runs over the same contiguous elements as np.sum on the gathered support
    and rounds the same way. A row with an empty support sums to 0.
    """
    v = values.reshape(-1)
    out = np.zeros(values.shape[:-1])
    flat_out = out.reshape(-1)
    for rows, gather in plan:
        flat_out[rows] = np.add.reduce(v[gather], axis=1)
    return out


def _batched_follower_demands(prices: np.ndarray, q: np.ndarray, S: np.ndarray,
                              delta: np.ndarray, budget: np.ndarray):
    """Every buyer's exact best response to a stack of J x I price matrices.

    prices is (..., J, I); q is (J,); S is the I x J log-quality matrix, -inf
    on an unusable link; delta and budget are (I,). Returns the demands
    (..., I, J), the budget multiplier (..., I) and the exit taken (..., I),
    one of _NO_DEMAND, _SLACK and _BINDING.

    The unconstrained candidates b_j = delta*S_j/p_j - 1/q_j are kept when
    their spend p @ b fits the budget. Otherwise the budget binds and each
    row runs a water-filling over its own shrinking support (Palomar &
    Fonollosa, IEEE TSP 2005): lambda = delta*sum S / (R + sum p/q) - 1, then
    b = delta*S/(p*(1 + lambda)) - 1/q, dropping the links whose demand is
    nonpositive until the support is self-consistent. Each buyer's spend is
    a dot product over its price column with the column's own stride, and
    each support sum rounds as np.sum does, so the result equals a
    buyer-by-buyer solve bit for bit.
    """
    rows = np.swapaxes(prices, -1, -2)        # strided like prices[:, i]
    p = np.ascontiguousarray(rows)            # so cand and b come out contiguous
    I, J = S.shape
    # price-independent terms, once per call on the I x J market
    positive = np.isfinite(S) & (S > 0.0)
    S = np.where(positive, S, 0.0)
    d = delta[:, None]
    dS, dqS, inv_q = d * S, d * q * S, 1.0 / q

    cand = np.where(positive & (p < dqS), dS / p - inv_q, 0.0)
    cand = np.maximum(cand, 0.0)
    demands = np.zeros(p.shape)
    lam = np.zeros(p.shape[:-1])
    exits = np.full(p.shape[:-1], _NO_DEMAND)

    wants = (cand > 0).any(axis=-1)
    slack = wants & (_rowdot(rows, cand) <= budget)
    demands[slack] = cand[slack]
    exits[slack] = _SLACK

    # budget binds: water-filling on the open rows only, gathered once, each
    # shrinking its own support and scattered back when it exits. Only the
    # first step can find lambda <= 0 (a usable link priced past its choke
    # point), and its demands at lambda = 0 are the slack candidates, which
    # overspend; so lambda is floored at 1e-15. Every later support still
    # holds the optimal support S*, so it never empties and its unconstrained
    # spend exceeds R, which makes lambda > 0.
    flat = np.flatnonzero(wants & ~slack)     # flat (..., I) index of each open row
    buyer = flat % I
    # np.take and np.compress move whole rows far faster than fancy indexing
    p_o = np.take(p.reshape(-1, J), flat, axis=0)
    del p, cand     # the open rows' copies replace them: no higher peak memory
    support, S_o = (np.take(x, buyer, axis=0) for x in (positive, S))
    delta_o, budget_o = delta[buyer], budget[buyer]
    p_over_q = p_o / q
    demands_flat, lam_flat, exits_flat = (demands.reshape(-1, J), lam.reshape(-1),
                                          exits.reshape(-1))
    while flat.size:
        plan = _pack(support)
        lam_k = (delta_o * _packed_sums(S_o, plan)
                 / (budget_o + _packed_sums(p_over_q, plan)) - 1.0)
        lam_k = np.where(lam_k > 0.0, lam_k, 1e-15)
        b = delta_o[:, None] * S_o / (p_o * (1.0 + lam_k[:, None])) - inv_q
        keep = support & (b > 0)
        done = (keep == support).all(axis=-1)
        exit_ = flat[done]
        demands_flat[exit_] = np.compress(done, np.where(support, b, 0.0), axis=0)
        lam_flat[exit_] = lam_k[done]
        exits_flat[exit_] = _BINDING
        if done.all():
            break
        go = ~done
        flat, delta_o, budget_o = flat[go], delta_o[go], budget_o[go]
        support, S_o, p_o, p_over_q = (np.compress(go, x, axis=0)
                                       for x in (keep, S_o, p_o, p_over_q))
    return demands, lam, exits


def follower_best_response(instance: GameInstance, uav_index: int,
                           price_row) -> FollowerSolution:
    """Exact budget-constrained demand maximizer for one buyer.

    A one-row call of _batched_follower_demands; the support is the links
    with positive demand, and the solution is degenerate when the buyer has no
    usable link.
    """
    m = instance.arrays.buyers([uav_index])
    # one price column, with the caller's stride, as the kernel's J x 1 matrix
    demands, lam, exits = _batched_follower_demands(
        np.asarray(price_row, dtype=float)[:, None], m.q, m.S, m.delta, m.budget)
    b = demands[0]
    case = CASE_BUDGET_ACTIVE if exits[0] == _BINDING else CASE_BUDGET_INACTIVE
    return FollowerSolution(b, case, float(lam[0]), frozenset(np.flatnonzero(b > 0).tolist()),
                            degenerate=not np.any(np.isfinite(m.S) & (m.S > 0.0)))


def all_followers_respond(instance: GameInstance, prices) -> DemandMatrix:
    """Every buyer's best response to its price column (J x I prices in, or a
    stack of them, ... x J x I), in one kernel call and one check."""
    P = prices.prices if isinstance(prices, PriceMatrix) else np.asarray(prices, dtype=float)
    m = instance.arrays
    demands = _batched_follower_demands(P, m.q, m.S, m.delta, m.budget)[0]
    return DemandMatrix(demands, instance, prices=P)


# ---------------------------------------------------------------------------
# Leader (seller) best responses
# ---------------------------------------------------------------------------

def _slack_prices(m: _MarketArrays) -> np.ndarray:
    """Each seller's profit-maximizing price sqrt(delta*S*q*c) for every buyer
    row when the budget is slack, unclipped; c on a link without positive
    log-quality."""
    with np.errstate(invalid="ignore"):
        slack = np.sqrt(m.delta[:, None] * m.S * m.q * m.c)
    return np.where(m.S > 0.0, slack, m.c)


class _LeaderTerms(NamedTuple):
    """The price-independent terms of the leader map on n buyer rows (n x J
    unless noted): q (J,), the gather plan of the positive links, the budget
    column R (n x 1), q*c*S, the rival sums sum_S - S, where the formula
    applies (positive link and positive rival sum), and the fallback there
    (the slack price on a positive link without rivals, else c)."""

    q: np.ndarray
    plan: list
    budget: np.ndarray
    qcS: np.ndarray
    denom: np.ndarray
    formula: np.ndarray
    fallback: np.ndarray


def _leader_terms(m: _MarketArrays, slack: np.ndarray) -> _LeaderTerms:
    """The leader map's terms on the buyer rows of m; slack is _slack_prices(m)."""
    positive = m.S > 0.0
    plan = _pack(positive)
    denom = _packed_sums(m.S, plan)[:, None] - m.S
    return _LeaderTerms(m.q, plan, m.budget[:, None], m.q * m.c * m.S, denom,
                        positive & (denom > 0.0), np.where(positive, slack, m.c))


def _leader_map(p: np.ndarray, t: _LeaderTerms) -> np.ndarray:
    """Sellers' unclamped best-response map on every buyer row of p (n x J).

    Row r, coordinate j maps to
    sqrt(q_j c_j S_rj (R_r + sum_{k!=j} p_rk/q_k) / sum_{k!=j} S_rk), the sums
    over the links with positive log-quality; a coordinate without such a
    competitor maps to its slack price, a link without positive log-quality to
    c_j. t is _leader_terms of the n buyer rows. Each entry is evaluated in
    the order written here, so it equals the seller-by-seller formula bit for
    bit.
    """
    p_over_q = p / t.q
    other = _packed_sums(p_over_q, t.plan)[:, None] - p_over_q
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sqrt(t.qcS * (t.budget + other) / t.denom)
    return np.where(t.formula, out, t.fallback)


def leader_unconstrained_price(instance: GameInstance, rsu_index: int,
                               uav_index: int) -> float:
    """Profit-maximizing price sqrt(delta*S*q*c) when the buyer's budget is slack."""
    m = instance.arrays.buyers([uav_index])
    S = m.S[0, rsu_index]
    if not (np.isfinite(S) and S > 0):
        raise ValueError("no profitable price: buyer never demands from this seller")
    return float(_slack_prices(m)[0, rsu_index])


def leader_best_response_map(instance: GameInstance, uav_index: int,
                             price_vector, clamp: bool = True) -> np.ndarray:
    """Sellers' joint best-response map for one buyer under a binding budget.

    Coordinate j maps to sqrt(q_j c_j S_j (R + sum_{k!=j} p_k/q_k) / sum_{k!=j} S_k),
    restricted to sellers with positive log-quality; a coordinate without
    positive-quality competitors falls back to the slack-budget price.
    """
    p = np.asarray(price_vector, dtype=float)
    m = instance.arrays.buyers([uav_index])
    out = _leader_map(p[None], _leader_terms(m, _slack_prices(m)))[0]
    return np.clip(out, m.c, m.cap) if clamp else out


def _leader_fixed_points(p: np.ndarray, m: _MarketArrays, slack: np.ndarray,
                         tolerance: float, max_iterations: int):
    """Iterate the clamped leader map from every buyer row of p (n x J).

    A row is frozen once it moves by less than tolerance; the others go on,
    up to max_iterations. Rows are independent subgames, so each stops where
    its own one-buyer iteration stops; the fixed point of a standard function
    is unique and reached from any start (Yates 1995). Every row is mapped on
    each iteration, from the map's terms built once, and a frozen row keeps
    its prices. Returns the prices, the iterations and the last residual of
    every row (inf for a row never iterated).
    """
    terms = _leader_terms(m, slack)
    iterations = np.zeros(len(p), dtype=int)
    residual = np.full(len(p), np.inf)
    open_ = np.ones(len(p), dtype=bool)
    for k in range(1, max_iterations + 1):
        if not open_.any():
            break
        p_next = np.clip(_leader_map(p, terms), m.c, m.cap)
        res = np.max(np.abs(p_next - p), axis=1)
        p = np.where(open_[:, None], p_next, p)
        residual[open_], iterations[open_] = res[open_], k
        open_ &= ~(res < tolerance)
    return p, iterations, residual


def solve_equilibrium(instance: GameInstance, tolerance: float = FIXED_POINT_TOL,
                      max_iterations: int = FIXED_POINT_MAX_ITER) -> EquilibriumSolution:
    """Exact Stackelberg equilibrium: per-buyer price columns + true follower demands.

    The buyers' leader subgames are independent and are solved together on the
    market's arrays. Each buyer's column is its slack-budget price when the
    buyer's budget does not bind there; otherwise it is the fixed point of the
    clamped leader map, iterated for all binding buyers at once, each frozen as
    it converges. If the budget case contradicts both candidates, the more
    profitable one is kept with a diagnostic and the solve is inconsistent.
    Every buyer's result equals a buyer-by-buyer solve bit for bit.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    m = instance.arrays
    I = len(m.S)

    # slack-budget candidates (buyer rows, contiguous like a scalar price row)
    slack = _slack_prices(m)
    p_tilde = np.clip(slack, m.c, m.cap)
    d_tilde, _, exits = _batched_follower_demands(p_tilde.T, m.q, m.S, m.delta, m.budget)

    # binding-budget candidates: fixed points of the clamped best-response map
    binding = np.flatnonzero(exits == _BINDING)
    mb = m.buyers(binding)
    p_hat, iters, res = _leader_fixed_points(p_tilde[binding], mb, slack[binding],
                                             tolerance, max_iterations)
    d_hat, _, exits_hat = _batched_follower_demands(p_hat.T, mb.q, mb.S, mb.delta,
                                                    mb.budget)
    hat_active = exits_hat == _BINDING
    ok = hat_active & (res < tolerance)

    # case assumptions contradicted on both candidates: keep the more
    # profitable one, with a diagnostic
    take_hat = ok.copy()
    diagnostics = []
    for k in np.flatnonzero(~ok):
        i = binding[k]
        v_tilde = float(np.sum((p_tilde[i] - m.c) * d_tilde[i]))
        v_hat = float(np.sum((p_hat[k] - m.c) * d_hat[k]))
        diagnostics.append(f"uav {i}: mixed-case resolution "
                           f"(slack-margin {v_tilde:.6g}, binding-margin {v_hat:.6g})")
        take_hat[k] = v_hat >= v_tilde

    buyer_prices = p_tilde.copy()
    buyer_prices[binding[take_hat]] = p_hat[take_hat]
    active = np.zeros(I, dtype=bool)
    active[binding] = ~take_hat | hat_active
    iterations = np.zeros(I, dtype=int)
    iterations[binding] = iters
    residual = np.zeros(I)
    residual[binding] = np.where(take_hat, res, 0.0)

    # final demands on the J x I matrix, whose columns are strided as P[:, i]
    prices = PriceMatrix(np.ascontiguousarray(buyer_prices.T), instance)
    P = prices.prices
    demands = all_followers_respond(instance, prices)
    D = demands.demands
    cases = [CASE_BUDGET_ACTIVE if a else CASE_BUDGET_INACTIVE for a in active]
    return EquilibriumSolution(prices, demands, _margins(P, D, m.c).sum(axis=1),
                               _buyer_utilities(m, D, P.T), cases,
                               int(np.max(iterations, initial=0)),
                               float(np.max(residual, initial=0.0)),
                               bool(ok.all()), diagnostics)


# ---------------------------------------------------------------------------
# Equilibrium verification
# ---------------------------------------------------------------------------

# Buyer rows per batched solve in verify_equilibrium: the kernel's temporaries
# grow with the batch, and past ~1000 rows a bigger batch barely runs faster.
_PROBE_BLOCK_ROWS = 1024


def verify_equilibrium(instance: GameInstance, solution: EquilibriumSolution,
                       num_probes: int = 1000, rng_seed: int = 0,
                       rel_tol: float = 1e-6) -> VerificationReport:
    """Numerical no-profitable-deviation check of the equilibrium definition.

    For each seller, random unilateral price-row perturbations (with followers
    re-solved) must not improve its margin; for each buyer, random feasible
    demand rows must not beat its equilibrium utility.

    Each seller's probes are drawn at once and solved as one batch, in blocks
    of at most 1024 buyer rows to bound memory; each buyer's probes are scored
    as one array. The draws come in the order of a probe-by-probe loop (seller
    by seller, then buyer by buyer), so a given rng_seed gives the report that
    loop gives. A probe whose followers return a negative demand or overspend
    a budget raises ValueError.
    """
    rng = np.random.default_rng(rng_seed)
    P = solution.prices.prices
    I, J = instance.num_uavs, instance.num_rsus
    m = instance.arrays

    rsu_violations: list[tuple[int, float]] = []
    max_violation = 0.0
    scale = max(1.0, float(np.max(np.abs(solution.rsu_utilities))))
    block = max(1, _PROBE_BLOCK_ROWS // I)
    for j in range(J):
        draws = rng.uniform(m.c[j], m.cap[j], size=(num_probes, I))
        margins = np.empty(num_probes)
        for start in range(0, num_probes, block):
            probe = draws[start:start + block]
            trial = np.repeat(P[None], len(probe), axis=0)
            trial[:, j] = probe
            demands = _batched_follower_demands(trial, m.q, m.S, m.delta, m.budget)[0]
            _check_demands(demands, trial, instance)
            margins[start:start + block] = _margins(trial, demands, m.c)[:, j].sum(axis=-1)
        worst = float(np.max((margins - solution.rsu_utilities[j]) / scale,
                             initial=0.0))
        if worst > rel_tol:
            rsu_violations.append((j, worst))
        max_violation = max(max_violation, worst)

    uav_violations: list[tuple[int, float]] = []
    for i in range(I):
        base = solution.uav_utilities[i]
        p_i = P[:, i]
        draws = rng.random((num_probes, J + 1))   # direction, then spend share
        spend = draws[:, J] * m.budget[i]
        direction = draws[:, :J]
        b = direction * (spend / np.maximum(_rowdot(direction, p_i), 1e-12))[:, None]
        utilities = _buyer_utilities(m.buyers([i]), b, p_i)
        worst = float(np.max((utilities - base) / max(1.0, abs(base)), initial=0.0))
        if worst > rel_tol:
            uav_violations.append((i, worst))
        max_violation = max(max_violation, worst)

    return VerificationReport(num_probes, rsu_violations, uav_violations, max_violation)
