"""Stackelberg bandwidth market: utilities, best responses, and the exact equilibrium.

Sellers (RSUs) lead by posting per-buyer bandwidth prices inside a regulated
box [c, p_bar]; buyers (UAVs) follow with a budget-constrained concave demand
problem solved in closed form through KKT water-filling.  The leader subgames
decouple per buyer; each is solved by iterating the sellers' best-response
map, which is a standard function (positive, monotone, scalable), so its fixed
point is unique.  solve_equilibrium runs all buyers' subgames at once on the
market's dense arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """Full market description: I buyers, J sellers."""

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

    def costs(self) -> np.ndarray:
        return np.array([r.bandwidth_cost for r in self.rsus])

    def price_caps(self) -> np.ndarray:
        return np.array([r.price_cap for r in self.rsus])

    def efficiencies(self) -> np.ndarray:
        return np.array([r.link.spectrum_efficiency for r in self.rsus])


@dataclass
class PriceMatrix:
    """J x I seller prices, entrywise inside each seller's [cost, cap] box."""

    prices: np.ndarray

    def __init__(self, prices, instance: GameInstance):
        prices = np.asarray(prices, dtype=float)
        J, I = instance.num_rsus, instance.num_uavs
        if prices.shape != (J, I):
            raise ValueError(f"expected shape {(J, I)}, got {prices.shape}")
        cs = instance.costs()[:, None]
        caps = instance.price_caps()[:, None]
        if np.any(prices < cs - 1e-12) or np.any(prices > caps + 1e-12):
            raise ValueError("price entry outside its [cost, cap] box")
        self.prices = np.clip(prices, cs, caps)


@dataclass
class DemandMatrix:
    """I x J nonnegative buyer demands, per-buyer spend within budget."""

    demands: np.ndarray

    def __init__(self, demands, instance: GameInstance, prices: np.ndarray | None = None):
        demands = np.asarray(demands, dtype=float)
        I, J = instance.num_uavs, instance.num_rsus
        if demands.shape != (I, J):
            raise ValueError(f"expected shape {(I, J)}, got {demands.shape}")
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
        budgets = np.array([u.budget for u in instance.uavs])
        if np.any(spend > budgets + 1e-9):
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
    """A market as dense arrays: per seller q, c, cap (J,); per buyer the
    log-quality S (rows x J, -inf on an unusable link), delta and budget."""

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


def _market_arrays(instance: GameInstance, uavs=None) -> _MarketArrays:
    """Arrays of the market, with buyer rows for every UAV or the listed ones."""
    uavs = range(instance.num_uavs) if uavs is None else uavs
    return _MarketArrays(
        instance.efficiencies(), instance.costs(), instance.price_caps(),
        np.array([log_quality_row(instance, i) for i in uavs]),
        np.array([instance.uavs[i].delta for i in uavs], dtype=float),
        np.array([instance.uavs[i].budget for i in uavs], dtype=float))


# ---------------------------------------------------------------------------
# Utility operations
# ---------------------------------------------------------------------------

def spectrum_efficiency(link: ChannelLink) -> float:
    """Bits/s/Hz of the link, log2(1 + SNR) with SNR from dB-domain parameters."""
    return link.spectrum_efficiency


def ssim(triple: SsimTriple) -> float:
    """Composite similarity l^alpha * c^beta * s^nu in [0, 1]."""
    a, b, v = triple.weights
    return triple.luminance ** a * triple.contrast ** b * triple.structure ** v


def log_quality(uav: UavProfile, rsu_index: int) -> float:
    """Log-scaled quality margin ln(SSIM / threshold); positive iff above threshold."""
    s = ssim(uav.per_rsu_ssim[rsu_index])
    if s <= 0.0:
        raise ValueError(f"unusable link: SSIM is 0 for rsu {rsu_index}")
    return math.log(s / uav.ssim_threshold)


def log_quality_row(instance: GameInstance, uav_index: int) -> np.ndarray:
    """Per-seller log-quality for one buyer; -inf marks an unusable (SSIM=0) link."""
    uav = instance.uavs[uav_index]
    out = np.empty(instance.num_rsus)
    for j, triple in enumerate(uav.per_rsu_ssim):
        s = ssim(triple)
        out[j] = -np.inf if s <= 0.0 else math.log(s / uav.ssim_threshold)
    return out


def uav_utility(instance: GameInstance, uav_index: int,
                demand_row, price_row) -> float:
    """Buyer surplus: sum_j delta*ln(1 + b_j q_j)*S_j - p_j b_j."""
    b = np.asarray(demand_row, dtype=float)
    p = np.asarray(price_row, dtype=float)
    q = instance.efficiencies()
    S = log_quality_row(instance, uav_index)
    delta = instance.uavs[uav_index].delta
    gain = np.where(b > 0, delta * np.log1p(b * q) * np.where(np.isfinite(S), S, 0.0), 0.0)
    return float(np.sum(gain - p * b))


def rsu_utility(instance: GameInstance, rsu_index: int,
                price_row, demand_column) -> float:
    """Seller margin: sum_i (p_i - c) * b_i."""
    p = np.asarray(price_row, dtype=float)
    b = np.asarray(demand_column, dtype=float)
    c = instance.rsus[rsu_index].bandwidth_cost
    return float(np.sum((p - c) * b))


def immersion_metric(instance: GameInstance, uav_index: int,
                     rsu_index: int, demand: float) -> float:
    """Delta-scaled immersion term delta * ln(1 + b*q) * S for a single link."""
    if demand < 0:
        raise ValueError("demand must be nonnegative")
    if demand == 0.0:
        return 0.0
    q = instance.rsus[rsu_index].link.spectrum_efficiency
    S = log_quality(instance.uavs[uav_index], rsu_index)
    return instance.uavs[uav_index].delta * math.log1p(demand * q) * S


# ---------------------------------------------------------------------------
# Follower (buyer) best response
# ---------------------------------------------------------------------------

def follower_best_response(instance: GameInstance, uav_index: int,
                           price_row) -> FollowerSolution:
    """Exact budget-constrained demand maximizer for one buyer.

    Unconstrained candidates b_j = delta*S_j/p_j - 1/q_j are accepted when the
    total spend fits the budget; otherwise a support-set water-filling computes
    the binding-budget multiplier, dropping sellers whose demand goes
    nonpositive and recomputing until the support is self-consistent.
    """
    p = np.asarray(price_row, dtype=float)
    q = instance.efficiencies()
    S = log_quality_row(instance, uav_index)
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

    if float(p @ cand) <= R:
        support = frozenset(np.flatnonzero(cand > 0).tolist())
        return FollowerSolution(cand, CASE_BUDGET_INACTIVE, 0.0, support)

    # budget binds: water-filling over the shrinking support set
    support = np.flatnonzero(positive)
    while support.size > 0:
        lam = delta * float(np.sum(S[support])) / (R + float(np.sum(p[support] / q[support]))) - 1.0
        if lam <= 0.0:
            # reduced support fits the budget after all: fall back to candidates
            b = zeros.copy()
            b[support] = np.maximum(delta * S[support] / p[support] - 1.0 / q[support], 0.0)
            if float(p @ b) <= R:
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


def all_followers_respond(instance: GameInstance, prices) -> DemandMatrix:
    """Stack every buyer's best response to its price column (J x I prices in)."""
    P = prices.prices if isinstance(prices, PriceMatrix) else np.asarray(prices, dtype=float)
    demands = np.stack([
        follower_best_response(instance, i, P[:, i]).demands
        for i in range(instance.num_uavs)
    ])
    return DemandMatrix(demands, instance, prices=P)


# Exits of follower_best_response, as reported by _batched_follower_demands.
_NO_DEMAND, _SLACK, _BINDING, _FALLBACK, _EMPTY_SUPPORT = range(5)


def _rowdot(x, y) -> np.ndarray:
    """x[..., k, :] @ y[..., k, :] for every k, bit for bit as the 1-D product.

    Stacked row @ column products go to the same BLAS dot as a 1-D ``@``, with
    each operand's own stride; BLAS sums unit and non-unit strides in
    different orders, so callers pass rows laid out as the scalar code's.
    """
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _pack(support: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gather plan of _packed_sums for a boolean (..., J) support.

    Per support size k, the flat indices of the rows of that size and the
    flat indices of their k support entries in ascending order.
    """
    J = support.shape[-1]
    s = support.reshape(-1, J)
    flat = np.argsort(~s, axis=1, kind="stable") + J * np.arange(len(s))[:, None]
    sizes = s.sum(axis=1)
    by_size = np.argsort(sizes, kind="stable")
    ends = np.cumsum(np.bincount(sizes, minlength=J + 1))
    plan = []
    for k in np.flatnonzero(ends[1:] > ends[:-1]) + 1:
        rows = by_size[ends[k - 1]:ends[k]]
        plan.append((rows, flat[rows, :k]))
    return plan


def _packed_sums(values: np.ndarray, plan) -> np.ndarray:
    """np.sum(values[k][support[k]]) for every row k, in numpy's own order.

    plan is _pack(support). Each row is gathered to its support (ascending
    index) and the rows are summed in groups of one support size, so each sum
    runs over the same contiguous elements as in the scalar code and rounds
    the same way. A row with an empty support sums to 0.
    """
    v = values.reshape(-1)
    out = np.zeros(values.shape[:-1])
    flat_out = out.reshape(-1)
    for rows, gather in plan:
        flat_out[rows] = np.add.reduce(v[gather], axis=1)
    return out


def _batched_follower_demands(prices: np.ndarray, q: np.ndarray, S: np.ndarray,
                              delta: np.ndarray, budget: np.ndarray):
    """follower_best_response for every buyer of a stack of J x I price matrices.

    prices is (..., J, I); q is (J,); S is the I x J log-quality matrix, -inf
    on an unusable link; delta and budget are (I,). Returns the demands
    (..., I, J), the budget multiplier (..., I) and the exit taken (..., I),
    one of _NO_DEMAND, _SLACK, _BINDING, _FALLBACK and _EMPTY_SUPPORT. Every
    step repeats the scalar solver's arithmetic in its order, so each buyer's
    row equals follower_best_response on its price column bit for bit.
    """
    rows = np.swapaxes(prices, -1, -2)        # strided like prices[:, i]
    p = np.ascontiguousarray(rows)            # so cand and b come out contiguous
    positive = np.broadcast_to(np.isfinite(S) & (S > 0.0), p.shape)
    S = np.where(positive, S, 0.0)
    d = delta[:, None]

    cand = np.where(positive & (p < d * q * S), d * S / p - 1.0 / q, 0.0)
    cand = np.maximum(cand, 0.0)
    demands = np.zeros(p.shape)
    lam = np.zeros(p.shape[:-1])
    exits = np.full(p.shape[:-1], _NO_DEMAND)

    wants = (cand > 0).any(axis=-1)
    slack = wants & (_rowdot(rows, cand) <= budget)
    demands[slack] = cand[slack]
    exits[slack] = _SLACK

    # budget binds: water-filling, each open row shrinking its own support
    open_ = wants & ~slack
    support = positive & open_[..., None]
    p_over_q = p / q
    while open_.any():
        plan = _pack(support)
        lam_k = (delta * _packed_sums(S, plan)
                 / (budget + _packed_sums(p_over_q, plan)) - 1.0)
        low = open_ & (lam_k <= 0.0)
        if low.any():
            # reduced support fits the budget after all: fall back to candidates
            b = np.where(support, np.maximum(d * S / p - 1.0 / q, 0.0), 0.0)
            fits = low & (_rowdot(rows, b) <= budget)
            demands[fits] = b[fits]
            exits[fits] = _FALLBACK
            open_ &= ~fits
        # floor lambda <= 0 at 1e-15 as the scalar solver does; this also
        # covers closed rows, whose empty support gives lambda = -1
        lam_k = np.where(lam_k > 0.0, lam_k, 1e-15)
        b = d * S / (p * (1.0 + lam_k[..., None])) - 1.0 / q
        keep = support & (b > 0)
        binding = open_ & (keep == support).all(axis=-1)
        demands[binding] = np.where(support, b, 0.0)[binding]
        lam[binding] = lam_k[binding]
        exits[binding] = _BINDING
        open_ &= ~binding
        support = keep & open_[..., None]
        emptied = open_ & ~support.any(axis=-1)
        exits[emptied] = _EMPTY_SUPPORT
        open_ &= ~emptied
    return demands, lam, exits


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


def _leader_map(p: np.ndarray, m: _MarketArrays, slack: np.ndarray,
                plan, sum_S: np.ndarray) -> np.ndarray:
    """Sellers' unclamped best-response map on every buyer row of p (n x J).

    Row r, coordinate j maps to
    sqrt(q_j c_j S_rj (R_r + sum_{k!=j} p_rk/q_k) / sum_{k!=j} S_rk), the sums
    over the links with positive log-quality; a coordinate without such a
    competitor maps to its slack price, a link without positive log-quality to
    c_j. m holds the n buyer rows, slack is _slack_prices(m), plan is _pack of
    the positive links and sum_S their S sums. Each entry is evaluated in the
    order written here, so it equals the seller-by-seller formula bit for bit.
    """
    p_over_q = p / m.q
    other = _packed_sums(p_over_q, plan)[:, None] - p_over_q
    denom = sum_S[:, None] - m.S
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sqrt(m.q * m.c * m.S * (m.budget[:, None] + other) / denom)
    out = np.where(denom > 0.0, out, slack)
    return np.where(m.S > 0.0, out, m.c)


def leader_unconstrained_price(instance: GameInstance, rsu_index: int,
                               uav_index: int) -> float:
    """Profit-maximizing price sqrt(delta*S*q*c) when the buyer's budget is slack."""
    m = _market_arrays(instance, [uav_index])
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
    m = _market_arrays(instance, [uav_index])
    plan = _pack(m.S > 0.0)
    out = _leader_map(p[None], m, _slack_prices(m), plan, _packed_sums(m.S, plan))[0]
    return np.clip(out, m.c, m.cap) if clamp else out


def _leader_fixed_points(p: np.ndarray, m: _MarketArrays, slack: np.ndarray,
                         tolerance: float, max_iterations: int):
    """Iterate the clamped leader map from every buyer row of p (n x J).

    A row is frozen once it moves by less than tolerance; the others go on,
    up to max_iterations. Rows are independent subgames, so each stops where
    its own one-buyer iteration stops; the fixed point of a standard function
    is unique and reached from any start (Yates 1995). Returns the prices, the
    iterations and the last residual of every row (inf for a row never
    iterated).
    """
    p = p.copy()
    iterations = np.zeros(len(p), dtype=int)
    residual = np.full(len(p), np.inf)
    open_rows = np.arange(len(p))
    p_open, m_open = p, None
    for k in range(1, max_iterations + 1):
        if not open_rows.size:
            break
        if m_open is None:      # the open set changed: repack its positive links
            m_open = m.buyers(open_rows)
            slack_open = slack[open_rows]
            plan = _pack(m_open.S > 0.0)
            sum_S = _packed_sums(m_open.S, plan)
        p_next = np.clip(_leader_map(p_open, m_open, slack_open, plan, sum_S), m.c, m.cap)
        res = np.max(np.abs(p_next - p_open), axis=1)
        p[open_rows], residual[open_rows], iterations[open_rows] = p_next, res, k
        p_open = p_next
        done = res < tolerance
        if done.any():
            open_rows, p_open, m_open = open_rows[~done], p_next[~done], None
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
    m = _market_arrays(instance)
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
    D = _batched_follower_demands(P, m.q, m.S, m.delta, m.budget)[0]
    demands = DemandMatrix(D, instance, prices=P)
    # each utility is a sum over one contiguous row, as in rsu_utility and uav_utility
    rsu_utils = np.sum(np.ascontiguousarray((P - m.c[:, None]) * D.T), axis=1)
    S_finite = np.where(np.isfinite(m.S), m.S, 0.0)
    gain = np.where(D > 0, m.delta[:, None] * np.log1p(D * m.q) * S_finite, 0.0)
    uav_utils = np.sum(np.ascontiguousarray(gain - P.T * D), axis=1)
    cases = [CASE_BUDGET_ACTIVE if a else CASE_BUDGET_INACTIVE for a in active]
    return EquilibriumSolution(prices, demands, rsu_utils, uav_utils, cases,
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
    q, cs, caps, S, deltas, budgets = _market_arrays(instance)

    rsu_violations: list[tuple[int, float]] = []
    max_violation = 0.0
    scale = max(1.0, float(np.max(np.abs(solution.rsu_utilities))))
    block = max(1, _PROBE_BLOCK_ROWS // I)
    for j in range(J):
        draws = rng.uniform(cs[j], caps[j], size=(num_probes, I))
        margins = np.empty(num_probes)
        for start in range(0, num_probes, block):
            probe = draws[start:start + block]
            trial = np.repeat(P[None], len(probe), axis=0)
            trial[:, j] = probe
            demands = _batched_follower_demands(trial, q, S, deltas, budgets)[0]
            _check_demands(demands, trial, instance)
            margins[start:start + block] = np.sum(
                (trial[:, j] - cs[j]) * demands[..., j], axis=1)
        worst = float(np.max((margins - solution.rsu_utilities[j]) / scale,
                             initial=0.0))
        if worst > rel_tol:
            rsu_violations.append((j, worst))
        max_violation = max(max_violation, worst)

    uav_violations: list[tuple[int, float]] = []
    S_finite = np.where(np.isfinite(S), S, 0.0)
    for i in range(I):
        base = solution.uav_utilities[i]
        p_i = P[:, i]
        draws = rng.random((num_probes, J + 1))   # direction, then spend share
        spend = draws[:, J] * budgets[i]
        direction = draws[:, :J]
        b = direction * (spend / np.maximum(_rowdot(direction, p_i), 1e-12))[:, None]
        gain = np.where(b > 0, deltas[i] * np.log1p(b * q) * S_finite[i], 0.0)
        utilities = np.sum(gain - p_i * b, axis=1)
        worst = float(np.max((utilities - base) / max(1.0, abs(base)), initial=0.0))
        if worst > rel_tol:
            uav_violations.append((i, worst))
        max_violation = max(max_violation, worst)

    return VerificationReport(num_probes, rsu_violations, uav_violations, max_violation)
