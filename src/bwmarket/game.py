"""Stackelberg bandwidth market: utilities, best responses, and the exact equilibrium.

Sellers (RSUs) lead by posting per-buyer bandwidth prices inside a regulated
box [c, p_bar]; buyers (UAVs) follow with a budget-constrained concave demand
problem solved in closed form through KKT water-filling.  The leader subgames
decouple per buyer; a binding buyer's is the unique fixed point of a standard
function, the sellers' best-response map, found as one certified scalar root
(_leader_roots), and a buyer whose budget binds at its slack prices but not
at that root is priced on its budget kink.  solve_equilibrium runs all
buyers' subgames at once.

Every solver reads the market's dense arrays, GameInstance.arrays, built once
per instance by one builder from its rows of per-entity values: one row per
seller and one per buyer (_RSU_DRAWS, _UAV_DRAWS).  A sampled instance
(GameInstance._from_draws) passes its draws; a hand-built one,
GameInstance(uavs, rsus), copies its profiles' values into the same rows when
it is constructed.  The builder checks the rows in a few vector operations
against the same field checks the profiles make, and the profiles are built
from the rows only when they are read; no solver reads them.

One water-filling kernel, _batched_follower_demands, solves every buyer best
response: follower_best_response is its one-row call, and
all_followers_respond, solve_equilibrium and verify_equilibrium call it on
whole price matrices.  The kernel's first stage, _budget_split, gives each
buyer's unconstrained candidates and whether its budget binds; a solve runs
it alone on the slack columns, then one kernel pass on the binding buyers'
roots, and a second on the kink columns when there are any, and returns its
columns' own demands.  A buyer's answer depends only on the values of the
prices it is posted, not on how the caller lays them out in memory.  The
buyer utility and the seller margin are written once each, in
_buyer_utilities and _margins.

Terms that do not depend on the prices are built once and then only read.
The kernel builds the masked S, delta*S, delta*q*S and 1/q once per call on
the I x J market, and water-fills every row of the call in place, each
masked by its own support (empty where the budget does not bind), until no
step drops a link.  _rivals builds the leader map's terms (the positive
links, their rival sums and where the formula applies) once per solve for all
binding buyers, whose roots _leader_roots finds together from their clipped
slack columns, and leader_best_response_map builds them for its one row.
Every sum over a buyer's support, in the water-filling, the leader map and
the root's equation, is one masked sum over the whole row, _support_sums.
It, every spend (the sum of the products p_j b_j, in the kernel's budget
case and the demand check) and the verifier's other sums over a buyer's
links are _row_sums: np.add.reduce's bits, one vector add per column on many
rows of J < 8, so no result depends on a BLAS kernel's summation order.

verify_equilibrium draws no random numbers.  Its seller half,
_best_deviations, searches every seller's price to every buyer alone, on
fixed grid levels, with one kernel call per level on all the sellers' trial
rows, laid out as contiguous buyer rows so that the kernel copies nothing.
Its buyer half is one kernel call on the solution's prices, which also gives
the posted margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

CASE_BUDGET_INACTIVE = "budget_inactive"
CASE_BUDGET_ACTIVE = "budget_active"


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

def _spectrum_efficiency(snr_db: float) -> float:
    """Spectrum efficiency q = log2(1 + 10^(snr_db/10)) in scalar math; inf
    where 10^(snr_db/10) overflows a float (an SNR above about 3083 dB)."""
    try:
        return math.log2(1.0 + 10.0 ** (snr_db / 10.0))
    except OverflowError:
        return math.inf


# The domain of each entity's fields, as (ok, message, value) checks in the
# order the entity makes them. ok is written with & and abs, so it takes one
# entity's floats or arrays of entities alike, and NaN fails it; message
# names the failing value with {}.

def _link_checks(snr_db, q) -> list:
    return [(q > 0, "non-positive spectrum efficiency from SNR {} dB", snr_db),
            (abs(q) < math.inf, "infinite spectrum efficiency from SNR {} dB", snr_db)]


def _triple_checks(luminance, contrast, structure) -> list:
    return [((v >= 0.0) & (v <= 1.0), f"{name} component {{}} outside [0, 1]", v)
            for name, v in (("luminance", luminance), ("contrast", contrast),
                            ("structure", structure))]


def _uav_checks(delta, budget, ssim_threshold) -> list:
    return [(abs(delta) < math.inf, "delta must be finite, got {}", delta),
            (delta > 0, "delta must be positive", None),
            (abs(budget) < math.inf, "budget must be finite, got {}", budget),
            (budget > 0, "budget must be positive", None),
            ((ssim_threshold > 0.0) & (ssim_threshold < 1.0),
             "ssim_threshold must lie in (0, 1)", None)]


def _rsu_checks(bandwidth_cost, price_cap) -> list:
    return [(abs(bandwidth_cost) < math.inf, "bandwidth_cost must be finite, got {}",
             bandwidth_cost),
            (bandwidth_cost > 0, "bandwidth_cost must be positive", None),
            (abs(price_cap) < math.inf, "price_cap must be finite, got {}", price_cap),
            (bandwidth_cost <= price_cap, "empty price box: cost exceeds cap", None)]


def _check(checks) -> None:
    """Raise ValueError for one entity's first failed check."""
    for ok, message, value in checks:
        if not ok:
            raise ValueError(message.format(value))


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
        self.spectrum_efficiency = _spectrum_efficiency(snr_db)
        _check(_link_checks(snr_db, self.spectrum_efficiency))


@dataclass
class SsimTriple:
    """Luminance/contrast/structure similarity components; the composite SSIM
    of a link is their product l * c * s."""

    luminance: float
    contrast: float
    structure: float

    def __post_init__(self):
        _check(_triple_checks(self.luminance, self.contrast, self.structure))


@dataclass
class UavProfile:
    """One buyer: immersion-scaled satisfaction factor, budget, and link quality."""

    delta: float
    budget: float
    ssim_threshold: float
    per_rsu_ssim: list[SsimTriple]

    def __post_init__(self):
        _check(_uav_checks(self.delta, self.budget, self.ssim_threshold))


@dataclass
class RsuProfile:
    """One seller: unit bandwidth cost, price cap, and its radio link."""

    bandwidth_cost: float
    price_cap: float
    link: ChannelLink

    def __post_init__(self):
        _check(_rsu_checks(self.bandwidth_cost, self.price_cap))


def _check_market_size(num_uavs: int, num_rsus: int) -> None:
    if num_uavs < 1 or num_rsus < 1:
        raise ValueError("need at least one UAV and one RSU")


# The columns of a seller's and of a buyer's row of draws (GameInstance.
# _from_draws); a buyer's row goes on with its luminance, contrast and
# structure towards each seller in turn.
_RSU_DRAWS = ("transmit_power_dbm", "channel_gain_db", "noise_dbm", "bandwidth_cost",
              "price_cap")
_UAV_DRAWS = ("delta", "budget", "ssim_threshold")


def _rsu_profiles(rsu_draws: np.ndarray) -> list[RsuProfile]:
    """The sellers' profiles from their draw rows (see GameInstance._from_draws)."""
    return [RsuProfile(cost, cap, ChannelLink(power, gain, noise))
            for power, gain, noise, cost, cap in rsu_draws.tolist()]


def _uav_profiles(uav_draws: np.ndarray) -> list[UavProfile]:
    """The buyers' profiles from their draw rows (see GameInstance._from_draws)."""
    links = range(0, uav_draws.shape[1] - 3, 3)
    return [UavProfile(delta, budget, threshold,
                       [SsimTriple(*similarity[k:k + 3]) for k in links])
            for delta, budget, threshold, *similarity in uav_draws.tolist()]


def _rsu_rows(rsus: list[RsuProfile]) -> np.ndarray:
    """The sellers' draw rows (J x 5) from their profiles."""
    return np.array([[r.link.transmit_power_dbm, r.link.channel_gain_db, r.link.noise_dbm,
                      r.bandwidth_cost, r.price_cap] for r in rsus], dtype=float)


def _uav_rows(uavs: list[UavProfile]) -> np.ndarray:
    """The buyers' draw rows (I x (3 + 3J)) from their profiles."""
    return np.array([[u.delta, u.budget, u.ssim_threshold,
                      *(x for t in u.per_rsu_ssim
                        for x in (t.luminance, t.contrast, t.structure))]
                     for u in uavs], dtype=float)


class GameInstance:
    """Full market description: I buyers (uavs), J sellers (rsus), and the
    market's dense arrays (``arrays``), read-only.

    Every instance is built from its draw rows, one per entity (see
    _from_draws). GameInstance(uavs, rsus) copies its profiles' values into
    those rows when it is constructed, so changing a profile afterwards
    changes nothing the instance computes or compares. ``uavs`` and ``rsus``
    are profiles built from the rows when first read. Two instances are
    equal when their rows are.
    """

    def __init__(self, uavs: list[UavProfile], rsus: list[RsuProfile]):
        _check_market_size(len(uavs), len(rsus))
        J = len(rsus)
        for k, uav in enumerate(uavs):
            if len(uav.per_rsu_ssim) != J:
                raise ValueError(f"uav {k}: per_rsu_ssim length != {J}")
        self._build(_rsu_rows(rsus), _uav_rows(uavs))

    @classmethod
    def _from_draws(cls, rsu_draws: np.ndarray, uav_draws: np.ndarray) -> GameInstance:
        """A market built from per-entity draws, one row per entity: rsu_draws
        is J x 5 and uav_draws I x (3 + 3J), in the columns _RSU_DRAWS and
        _UAV_DRAWS name."""
        inst = cls.__new__(cls)
        inst._build(rsu_draws, uav_draws)
        return inst

    def _build(self, rsu_draws: np.ndarray, uav_draws: np.ndarray) -> None:
        """Set the draw rows, the arrays and the SSIM thresholds. Draws outside
        the domain raise the ValueError that building the profiles raises,
        for the first invalid entity, sellers first."""
        (I, _), (J, _) = uav_draws.shape, rsu_draws.shape
        power, gain, noise, cost, cap = rsu_draws.T
        delta, budget, threshold = uav_draws[:, :3].T
        luminance, contrast, structure = np.moveaxis(uav_draws[:, 3:].reshape(I, J, 3), -1, 0)
        snr_db = power + gain - noise
        q = np.array([_spectrum_efficiency(x) for x in snr_db.tolist()])
        checks = (_link_checks(snr_db, q) + _rsu_checks(cost, cap)
                  + _triple_checks(luminance, contrast, structure)
                  + _uav_checks(delta, budget, threshold))
        if not all(ok.all() for ok, _, _ in checks):
            _rsu_profiles(rsu_draws)    # raise the first invalid entity's error
            _uav_profiles(uav_draws)
        _check_market_size(I, J)
        self._draws = rsu_draws, uav_draws
        self.arrays = _market_arrays(q, cost, cap, luminance * contrast * structure,
                                     threshold, delta, budget)
        self.ssim_thresholds = _read_only(threshold)

    @cached_property
    def uavs(self) -> list[UavProfile]:
        """The buyers, built from their draw rows on first access."""
        return _uav_profiles(self._draws[1])

    @cached_property
    def rsus(self) -> list[RsuProfile]:
        """The sellers, built from their draw rows on first access."""
        return _rsu_profiles(self._draws[0])

    @property
    def num_uavs(self) -> int:
        return len(self.arrays.delta)

    @property
    def num_rsus(self) -> int:
        return len(self.arrays.q)

    def costs(self) -> np.ndarray:
        return self.arrays.c.copy()

    def price_caps(self) -> np.ndarray:
        return self.arrays.cap.copy()

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(uavs={self.uavs!r}, rsus={self.rsus!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(np.array_equal, self._draws, other._draws))

    __hash__ = None


@dataclass(eq=False)
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
        if not (prices >= cs - 1e-12).all() or not (prices <= caps + 1e-12).all():
            raise ValueError("price entry outside its [cost, cap] box")
        self.prices = np.clip(prices, cs, caps)


@dataclass(eq=False)
class DemandMatrix:
    """I x J nonnegative buyer demands, per-buyer spend within budget; a stack
    of them (..., I, J) against a stack of J x I prices is checked alike."""

    demands: np.ndarray

    def __init__(self, demands, instance: GameInstance, prices: np.ndarray | None = None):
        demands = np.asarray(demands, dtype=float)
        I, J = instance.num_uavs, instance.num_rsus
        if demands.shape[-2:] != (I, J):
            raise ValueError(f"expected shape (..., {I}, {J}), got {demands.shape}")
        _check_demands(demands, prices, instance.arrays.budget)
        self.demands = demands


def _check_demands(demands: np.ndarray, prices: np.ndarray | None,
                   budget: np.ndarray) -> None:
    """Reject negative demands and, given J x I prices, any spend over the
    buyers' budgets (I,) by more than 1e-9 of the budget (1e-9 absolute for a
    budget under 1); a NaN demand or spend is rejected too.

    Takes I x J demands with any leading batch shape (prices alike, ... x J x I).
    """
    if not (demands >= 0).all():
        raise ValueError("negative demand entry")
    if prices is not None:
        spend = _row_sums(demands * np.swapaxes(prices, -1, -2))
        if not (spend <= budget + 1e-9 * np.maximum(budget, 1.0)).all():
            raise ValueError("per-UAV spend exceeds budget")


@dataclass(eq=False)
class FollowerSolution:
    """One buyer's exact best response to a posted price row."""

    demands: np.ndarray
    case_label: str
    lam: float
    support: frozenset[int]
    degenerate: bool = False


@dataclass(eq=False)
class EquilibriumSolution:
    prices: PriceMatrix
    demands: DemandMatrix
    rsu_utilities: np.ndarray
    uav_utilities: np.ndarray
    per_uav_case: list[str]
    iterations: int         # the most Newton steps of a binding buyer's root
    residual: float         # the widest relative bracket of a binding buyer's root
    consistent: bool
    diagnostics: list[str] = field(default_factory=list)


@dataclass
class VerificationReport:
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


def _read_only(values) -> np.ndarray:
    """A read-only float copy of values."""
    a = np.array(values, dtype=float)
    a.setflags(write=False)
    return a


def _market_arrays(q, c, cap, sim, threshold, delta, budget) -> _MarketArrays:
    """A market's read-only arrays from its per-entity values: q, c and cap per
    seller; the composite SSIM sim (I x J) and threshold, delta and budget per
    buyer. Each log-quality S = ln(sim / threshold) is taken in scalar math,
    entry by entry (numpy's vector log rounds some entries differently), and
    is -inf on a link whose SSIM is 0."""
    sim = np.asarray(sim, dtype=float)
    usable = sim > 0.0
    ratio = np.where(usable, sim / np.asarray(threshold)[:, None], 1.0)
    logs = np.fromiter(map(math.log, ratio.ravel().tolist()), float, ratio.size)
    S = np.where(usable, logs.reshape(ratio.shape), -np.inf)
    return _MarketArrays(*map(_read_only, (q, c, cap, S, delta, budget)))


# ---------------------------------------------------------------------------
# Utility operations
# ---------------------------------------------------------------------------

def _buyer_utilities(m: _MarketArrays, demands, prices) -> np.ndarray:
    """Surplus sum_j delta*ln(1 + b_j q_j)*S_j - p_j b_j of every demand row
    (..., J) against its price row, for the buyer rows of m broadcast against
    them; each utility is a sum over one contiguous row."""
    S = np.where(np.isfinite(m.S), m.S, 0.0)
    gain = np.where(demands > 0, m.delta[:, None] * np.log1p(demands * m.q) * S, 0.0)
    return _row_sums(np.ascontiguousarray(gain - prices * demands))


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


# _row_sums adds a short row's columns from this many rows on. On 2 cores the
# reduce wins at 32 rows (2.1 us against 2.5-6.5 us, J = 2..7) and the columns
# from 256 at every J <= 7 (J = 2: 4.9 -> 1.9 us, J = 6: 5.7 -> 4.2 us, J = 7:
# 5.9 -> 4.8 us; at 3,000 rows and J = 6, 65 -> 19 us).
_COLUMN_SUM_ROWS = 256


def _row_sums(x: np.ndarray) -> np.ndarray:
    """np.add.reduce(x, axis=-1) bit for bit. numpy adds a row of fewer than 8
    entries left to right from 0.0, so on many such rows this adds the
    columns in order into zeros (a bool x counts into ints, as the reduce
    does): J vector operations in place of one short reduction per row."""
    J = x.shape[-1]
    if J >= 8 or x.size < _COLUMN_SUM_ROWS * J:
        return np.add.reduce(x, axis=-1)
    out = np.zeros(x.shape[:-1], np.int_ if x.dtype == bool else x.dtype)
    for k in range(J):
        out += x[..., k]
    return out


def _support_sums(values: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Each row's sum over its support: values (..., J) masked by the boolean
    support to 0.0 off it and summed over the whole row by _row_sums.

    numpy sums a row of fewer than 8 entries left to right, and adding an
    exact 0.0 changes no bit, so for J <= 7 this equals np.sum over the
    gathered support entries bit for bit. From J = 8 on, numpy's pairwise
    sum groups the row's terms by position, so the zeros can move the last
    bits; this masked order is then the defined one. An empty support sums
    to 0.
    """
    return _row_sums(np.where(support, values, 0.0))


def _budget_split(p: np.ndarray, m: _MarketArrays):
    """The water-filling kernel's first stage: every buyer's unconstrained
    candidates and whether its budget binds, on contiguous buyer price rows p
    (..., I, J) for the market's I buyer rows m.

    Returns the positive links (I x J), S masked to 0.0 off them, delta*S and
    1/q (the price-independent terms, once per call), the candidates
    b_j = delta*S_j/p_j - 1/q_j floored at 0 (0 off the positive links and
    from the choke price delta*q*S on), and the slack and binding rows
    (..., I): a row with a positive candidate is slack when their spend
    sum_j p_j b_j fits the budget, else binding.
    """
    q, S, delta = m.q, m.S, m.delta
    positive = S > 0.0
    S = np.where(positive, S, 0.0)
    d = delta[:, None]
    dS, dqS, inv_q = d * S, d * q * S, 1.0 / q

    # dqS is 0.0 off the positive links, so p < dqS holds there only for
    # p < 0, whose candidate 0.0/p - 1/q floors to 0.0 below
    cand = np.where(p < dqS, dS / p - inv_q, 0.0)
    cand = np.maximum(cand, 0.0)
    wants = _row_sums(cand > 0) > 0
    slack = wants & (_row_sums(p * cand) <= m.budget)
    return positive, S, dS, inv_q, cand, slack, wants & ~slack


def _batched_follower_demands(prices: np.ndarray, m: _MarketArrays):
    """Every buyer's exact best response to a stack of J x I price matrices.

    prices is (..., J, I) and m holds the market's I buyer rows. Returns the
    demands (..., I, J), the budget multiplier (..., I) and the exit taken
    (..., I), one of _NO_DEMAND, _SLACK and _BINDING.

    The unconstrained candidates b_j = delta*S_j/p_j - 1/q_j are kept when
    their spend sum_j p_j b_j fits the budget (_budget_split). Otherwise the
    budget binds and the row water-fills over its own shrinking support
    (Palomar & Fonollosa, IEEE TSP 2005): lambda = delta*sum S / (R + sum p/q)
    - 1, then b = delta*S/(p*(1 + lambda)) - 1/q, dropping the links whose
    demand is nonpositive until the support is self-consistent. Every row
    steps at once, each masked by its own support (empty on the rows that do
    not bind), until no step drops a link; a settled row gets the same lambda
    and demands again on each later step. Each price column is copied to a
    contiguous buyer row, and the spend and each support sum are _row_sums
    over the whole row, so a buyer's answer depends only on its price values
    and equals a buyer-by-buyer solve in the same order bit for bit.
    """
    p = np.ascontiguousarray(np.swapaxes(prices, -1, -2))   # buyer rows
    positive, S, dS, inv_q, cand, slack, binding = _budget_split(p, m)
    delta, budget = m.delta, m.budget

    # budget binds: water-filling until no link drops. Only the first step
    # can find lambda <= 0 (a usable link priced past its choke point), and
    # its demands at lambda = 0 are the slack candidates, which overspend; so
    # lambda is floored at 1e-15. Every later support still holds the optimal
    # support S*, so it never empties and its unconstrained spend exceeds R,
    # which makes lambda > 0. The support starts as the binding rows' positive
    # links, so a call in which no budget binds takes no step.
    p_over_q = p / m.q
    support = positive & binding[..., None]
    lam = b = 0.0
    dropped = support.any()
    while dropped:
        lam = (delta * _support_sums(S, support)
               / (budget + _support_sums(p_over_q, support)) - 1.0)
        lam = np.where(lam > 0.0, lam, 1e-15)
        b = dS / (p * (1.0 + lam[..., None])) - inv_q
        kept = b > 0
        dropped = (support > kept).any()     # a support link with b <= 0 or NaN
        if dropped:
            support &= kept
    demands = np.where(support, b, np.where(slack[..., None], cand, 0.0))
    exits = np.where(binding, _BINDING, np.where(slack, _SLACK, _NO_DEMAND))
    return demands, np.where(binding, lam, 0.0), exits


def follower_best_response(instance: GameInstance, uav_index: int,
                           price_row) -> FollowerSolution:
    """Exact budget-constrained demand maximizer for one buyer.

    A one-row call of _batched_follower_demands; the support is the links
    with positive demand, and the solution is degenerate when the buyer has no
    usable link.
    """
    m = instance.arrays.buyers([uav_index])
    # one price column as the kernel's J x 1 matrix
    demands, lam, exits = _batched_follower_demands(
        np.asarray(price_row, dtype=float)[:, None], m)
    b = demands[0]
    case = CASE_BUDGET_ACTIVE if exits[0] == _BINDING else CASE_BUDGET_INACTIVE
    return FollowerSolution(b, case, float(lam[0]), frozenset(np.flatnonzero(b > 0).tolist()),
                            degenerate=not np.any(m.S > 0.0))


def all_followers_respond(instance: GameInstance, prices) -> DemandMatrix:
    """Every buyer's best response to its price column (J x I prices in, or a
    stack of them, ... x J x I), in one kernel call and one check."""
    P = prices.prices if isinstance(prices, PriceMatrix) else np.asarray(prices, dtype=float)
    demands = _batched_follower_demands(P, instance.arrays)[0]
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


def _rivals(m: _MarketArrays):
    """The leader map's price-independent masks and sums on the buyer rows of
    m (n x J): the positive links, their rival sums sum_S - S over the
    positive links (_support_sums over the whole row), and where the formula
    applies (a positive link with a positive rival sum)."""
    positive = m.S > 0.0
    denom = _support_sums(m.S, positive)[:, None] - m.S
    return positive, denom, positive & (denom > 0.0)


def leader_best_response_map(instance: GameInstance, uav_index: int,
                             price_vector, clamp: bool = True) -> np.ndarray:
    """Sellers' joint best-response map for one buyer under a binding budget.

    Coordinate j maps to sqrt(q_j c_j S_j (R + sum_{k!=j} p_k/q_k) / sum_{k!=j} S_k),
    restricted to sellers with positive log-quality; a coordinate without
    positive-quality competitors falls back to the slack-budget price, a link
    without positive log-quality to c_j. Each entry is evaluated in the order
    written here, each sum over the positive links as _support_sums, so it
    equals the seller-by-seller formula in that order bit for bit.
    """
    m = instance.arrays.buyers([uav_index])
    positive, denom, formula = _rivals(m)
    p_over_q = np.asarray(price_vector, dtype=float)[None] / m.q
    other = _support_sums(p_over_q, positive)[:, None] - p_over_q
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sqrt(m.q * m.c * m.S * (m.budget[:, None] + other) / denom)
    out = np.where(formula, out, _slack_prices(m))[0]
    return np.clip(out, m.c, m.cap) if clamp else out


# _leader_roots' budget of steps; no root of sampled 3x2 to 100x10 markets took over 6
_ROOT_STEPS = 64
_ROOT_RTOL = 1e-12       # the relative bracket width that certifies a root


def _leader_roots(m: _MarketArrays, p_s: np.ndarray):
    """The clamped leader map's fixed point on every buyer row of m, as one
    scalar root each; p_s is the rows' clipped slack column,
    np.clip(_slack_prices(m), c, cap).

    In x_j = p_j/q_j and X = sum_j x_j over the positive links, a formula
    link's condition x_j^2 = a_j (R + X - x_j), a_j = c_j S_j / (q_j D_j) with
    D_j its rival sum, has the rising root x_j(X) = (-a_j + sqrt(a_j^2 +
    4 a_j (R + X)))/2 (here without the cancellation), clipped to
    [c_j, cap_j]/q_j; every other link keeps its p_s: c, or on a positive
    link without a positive rival the leader map's fallback, the clipped
    slack price. So g(X) = sum_j p_j(X)/q_j - X has g(0) > 0 >= g(hi) at
    hi = sum_j cap_j/q_j and one root (Yates 1995).
    Safeguarded Newton from hi: each step goes a quarter of the target width
    past the Newton point, so that the steps straddle the root, or bisects if
    that leaves the bracket [lo, hi] (g(lo) > 0 >= g(hi)). A row stops, unchanged
    from then on, once hi - lo <= _ROOT_RTOL * hi, so it equals its solve
    alone bit for bit. Returns each row's prices at the bracket's midpoint,
    steps, relative width (hi - lo)/hi and whether it stopped (certified),
    and the price function X -> p(X) itself, one X per row, which
    solve_equilibrium reads at a buyer's budget kink.
    """
    positive, denom, formula = _rivals(m)
    q, c, cap, R = m.q, m.c, m.cap, m.budget[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(formula, c * m.S / (q * denom), 1.0)
    a2, a4, aa = 2.0 * a, 4.0 * a, a * a     # so a step computes only what moves with X

    def prices(X):
        s = R + X[:, None]
        r = np.sqrt(aa + a4 * s)
        p = q * (a2 * s / (a + r))
        np.maximum(p, c, out=p)
        np.minimum(p, cap, out=p)
        return np.where(formula, p, p_s), r

    X = hi = _support_sums(cap / q, positive)
    lo, steps, open_ = np.zeros(len(a)), np.zeros(len(a), dtype=int), np.ones(len(a), bool)
    for _ in range(_ROOT_STEPS):
        if not open_.any():
            break
        p, r = prices(X)
        g = _support_sums(p / q, positive) - X
        dg = _support_sums(a / r, formula & (p > c) & (p < cap)) - 1.0
        lo, hi = np.where(open_ & (g > 0.0), X, lo), np.where(open_ & (g <= 0.0), X, hi)
        steps += open_
        tol = _ROOT_RTOL * hi
        open_ &= hi - lo > tol
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = X - g / dg + np.where(g > 0.0, 0.25, -0.25) * tol
        inside = (dg < 0.0) & (newton > lo) & (newton < hi)
        X = np.where(inside, newton, 0.5 * (lo + hi))
    return (prices(0.5 * (lo + hi))[0], steps, (hi - lo) / hi, ~open_,
            lambda X: prices(X)[0])


def solve_equilibrium(instance: GameInstance) -> EquilibriumSolution:
    """Exact Stackelberg equilibrium: per-buyer price columns + true follower demands.

    The buyers' leader subgames are independent and are solved together on
    the market's arrays. A buyer's column is its clipped slack price p^S when
    its budget does not bind there; else the fixed point of the clamped
    leader map, a certified root of _leader_roots, when the budget binds
    there; else its budget kink, sum_j x_j = X_k = delta*sum S - R over the
    positive links (x = p/q), where it spends its whole budget at lambda = 0.

    Each seller's margin is concave in its own price on both sides of the
    kink, and its slope drops there (binding demand is less price-elastic),
    so the kink equilibria of a column are the box x^S_j <= x_j <= x^B_j(X_k),
    x^B being _leader_roots' price function, cut by sum_j x_j = X_k: a set
    once two sellers can move. The solve takes the point with every seller
    the same fraction theta = (X_k - sum x^S)/(sum x^B - sum x^S), clipped to
    [0, 1], of the way from p^S_j to p^B_j(X_k); it is continuous with the
    slack column at theta = 0 and with the root at theta = 1.

    A root that does not certify is kept with a diagnostic, and the solve is
    inconsistent. The kernel's slack test (_budget_split) on the slack
    columns sorts the buyers: a slack buyer keeps its candidates, the
    kernel's demands there. One kernel pass on the roots, and a second on
    the kink columns alone when there are any, give every other buyer the
    demands of its own column. A buyer's case is budget_active when its
    budget binds at its slack column: it spends it all on a root and on the
    kink alike. Every buyer's result equals a buyer-by-buyer solve bit for
    bit.
    """
    m = instance.arrays

    # slack columns, one price row per buyer: a slack buyer keeps its candidates
    prices = np.clip(_slack_prices(m), m.c, m.cap)
    *_, cand, is_slack, is_binding = _budget_split(prices, m)
    demands = np.where(is_slack[:, None], cand, 0.0)

    # binding buyers: fixed points of the clamped best-response map
    binding = np.flatnonzero(is_binding)
    mb = m.buyers(binding)
    p_hat, steps, width, certified, price_at = _leader_roots(mb, prices[binding])
    d_hat, _, exits_hat = _batched_follower_demands(p_hat.T, mb)

    # a certified root that leaves the budget slack: the kink column instead
    kink = certified & (exits_hat != _BINDING)
    if kink.any():
        mk = mb.buyers(kink)
        X = mb.delta * _support_sums(mb.S, mb.S > 0.0) - mb.budget
        p_s, p_b, X = prices[binding[kink]], price_at(X)[kink], X[kink]
        x_s, x_b = (_support_sums(p / m.q, mk.S > 0.0) for p in (p_s, p_b))
        theta = np.clip(np.divide(X - x_s, x_b - x_s, out=np.ones_like(X), where=x_b > x_s),
                        0.0, 1.0)
        p_hat[kink] = np.clip(p_s + theta[:, None] * (p_b - p_s), m.c, m.cap)
        d_hat[kink] = _batched_follower_demands(p_hat[kink].T, mk)[0]
    diagnostics = [f"uav {i}: root not certified (relative bracket {w:.3g})"
                   for i, w in zip(binding[~certified].tolist(), width[~certified].tolist())]
    prices[binding], demands[binding] = p_hat, d_hat

    prices = PriceMatrix(np.ascontiguousarray(prices.T), instance)
    P = prices.prices
    demands = DemandMatrix(demands, instance, prices=P)
    D = demands.demands
    cases = [CASE_BUDGET_ACTIVE if b else CASE_BUDGET_INACTIVE for b in is_binding.tolist()]
    return EquilibriumSolution(prices, demands, _margins(P, D, m.c).sum(axis=1),
                               _buyer_utilities(m, D, P.T), cases,
                               int(np.max(steps, initial=0)),
                               float(np.max(width, initial=0.0)),
                               bool(certified.all()), diagnostics)


# ---------------------------------------------------------------------------
# Equilibrium verification
# ---------------------------------------------------------------------------

# The deviation search's grid levels, as points per level: the first spans
# each seller's box [c_j, cap_j], and each later one the two cells beside the
# last level's best point, so the last level's step is (cap_j - c_j) / 2,048.
# On sampled 100 x 10 markets its best margins fell short of a 20,001-point
# grid's by at most 1.1e-6 of the largest seller utility.
_SEARCH_LEVELS = (33, 17, 17)


def _best_deviations(P: np.ndarray, m: _MarketArrays) -> np.ndarray:
    """Each seller's best margin (p - c_j) * b_ij on each buyer (J x I) over
    its own price p to that buyer on the _SEARCH_LEVELS grids, every other
    price as in the J x I prices P. A buyer's demands depend only on its own
    price column, so setting seller j's whole row to a grid point prices every
    buyer's entry j at once: a level is one kernel call on J x G trial
    matrices. A trial whose followers return a negative demand or overspend a
    budget raises ValueError."""
    J, I = P.shape
    seller = np.arange(J)
    lo, hi = (np.broadcast_to(v[:, None], (J, I)) for v in (m.c, m.cap))
    best = 0.0
    for G in _SEARCH_LEVELS:
        grid = np.linspace(lo, hi, G, axis=1)                 # J x G x I
        rows = np.broadcast_to(P.T, (J, G, I, J)).copy()      # contiguous buyer rows
        rows[seller, :, :, seller] = grid
        trial = np.swapaxes(rows, -1, -2)
        demands = _batched_follower_demands(trial, m)[0]
        _check_demands(demands, trial, m.budget)
        margins = (grid - m.c[:, None, None]) * demands[seller, :, :, seller]
        best = np.maximum(best, margins.max(axis=1))
        k = margins.argmax(axis=1)[:, None]
        lo = np.take_along_axis(grid, np.maximum(k - 1, 0), axis=1)[:, 0]
        hi = np.take_along_axis(grid, np.minimum(k + 1, G - 1), axis=1)[:, 0]
    return best


def verify_equilibrium(instance: GameInstance, solution: EquilibriumSolution,
                       rel_tol: float = 1e-6) -> VerificationReport:
    """Numerical no-profitable-deviation check of the equilibrium definition;
    it draws no random numbers.

    The buyers' subgames are independent, so a seller's best unilateral
    deviation is its best price to each buyer alone (_best_deviations).
    Seller j's violation is (sum_i max(best_ji, posted margin_ji) -
    rsu_utilities[j]) / scale, scale = max(1, max |rsu_utilities|), floored
    at 0; the sum runs in the solve's order, so a solve's own seller whose
    search finds no gain reports exactly 0, and a recorded utility below the
    posted margins is flagged. Each buyer's exact best response to the
    solution's prices must not beat its equilibrium utility, relative to
    max(1, |utility|). A solve's own buyers pass with a violation of exactly
    0: their demands come from the same kernel on the same prices, whose one
    call also gives the posted margins.
    """
    P, m = solution.prices.prices, instance.arrays
    demands = _batched_follower_demands(P, m)[0]

    scale = max(1.0, float(np.max(np.abs(solution.rsu_utilities))))
    margins = np.maximum(_best_deviations(P, m), _margins(P, demands, m.c))
    worst_rsu = np.maximum((margins.sum(axis=1) - solution.rsu_utilities) / scale, 0.0)
    rsu_violations = [(j, w) for j, w in enumerate(worst_rsu.tolist()) if w > rel_tol]

    best = _buyer_utilities(m, demands, P.T)
    base = solution.uav_utilities
    worst_uav = np.maximum((best - base) / np.maximum(1.0, np.abs(base)), 0.0)
    uav_violations = [(i, w) for i, w in enumerate(worst_uav.tolist()) if w > rel_tol]
    max_violation = max([0.0, *worst_rsu.tolist(), *worst_uav.tolist()])
    return VerificationReport(rsu_violations, uav_violations, max_violation)
