"""Closed-form rate model and memory-allocation optimizer.

The protocol distributes entangled pairs in rounds: the sender emits a
train of N photons (one per memory slot committed to the round, period
T_em), the receiver latches arrivals with Bell-state measurements, and a
classical confirmation returns after one round trip.  Slots recycle only on
confirmation, so with transmission eta and BSM success p the long-run pair
rate of one link is

    r = p * eta * N / t_rt.

Radial motion adds a per-photon arrival drift dt = v_r * T_em / c within a
train; photons whose accumulated drift exceeds the acceptance window w
cannot latch, which caps the useful train length at w * c / (|v_r| * T_em)
and gives the corrected rate

    r* = p * (eta / t_rt) * min(m_S, w * c / (|v_r| * T_em)).

A ground-satellite-ground link swaps onboard, so its rate is the minimum
of the two leg rates; splitting the m_S satellite slots to equalize the two
arguments of that minimum maximizes it.  With x = t_rt_A / eta_A and
y = t_rt_B / eta_B the real-valued optimum is m_A = m_S * x / (x + y), and
the integer-valued optimum is

    m_A = ceil((m_S - 1) * x / (x + y)),   m_B = m_S - m_A,

which exhaustive search confirms is the integer argmax.

Each formula is written once, as a private array kernel that takes numpy
columns over profile samples or plain floats alike.  The profile-level
series evaluate the kernels on whole columns and the public scalar
functions wrap them, so the two agree bit for bit.  Float expressions keep
one evaluation order: p * m * eta / t_rt for a dual leg, p * eta * N / t_rt
for a single link.  All operations here are pure and deterministic.

Known gap: the closed form takes a round to last t_rt and a train to hold
the unfloored cap, while the engine's rounds last ``_round_duration``,
(N - 1) * T_em + t_rt, and latch at most ``_eligible`` photons; so it
overstates the engine's mean rate by a margin that grows with N, on the
demo pass under the dynamic split 1.3 % at m_S = 100 and 7.7 % at 1000.
The exact per-bin moments of :mod:`satqlink.validation` follow the engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Iterable

import numpy as np

from .constants import (
    C_LIGHT,
    DEFAULT_COINCIDENCE_WINDOW,
    DEFAULT_EMISSION_PERIOD,
    DEFAULT_P_BSM,
)
from .errors import ConfigError, GridMismatchError, NoOverlapError, NoVisibilityError
from .passes import _SLOTS, PassProfile, _check_fields, _kind_fault, _within, _write_csv

__all__ = [
    "LinkParams",
    "LinkState",
    "AllocationResult",
    "round_trip_time",
    "differential_shift",
    "max_train_length",
    "single_link_rate",
    "corrected_rate",
    "dual_rate",
    "allocate_real",
    "allocate_int",
    "best_static_split",
    "allocation_series",
    "rate_series",
    "link_state_at",
    "write_rate_csv",
]


@dataclass(frozen=True)
class LinkParams:
    """Protocol and hardware constants of one optical link.

    ``m_sat`` is the satellite memory available to the link as a whole; a
    dual link splits it between its legs per the allocation policy.
    ``m_ground`` defaults to ``m_sat``, the assumption being that ground
    stations are at least as well equipped as the satellite.
    """

    m_sat: int = field(metadata=_within(_SLOTS))
    m_ground: int | None = field(default=None, metadata=_within(_SLOTS))
    emission_period_s: float = field(default=DEFAULT_EMISSION_PERIOD, metadata=_within("(0, inf)"))
    acceptance_window_s: float = field(default=DEFAULT_COINCIDENCE_WINDOW, metadata=_within("(0, inf)"))
    p_bsm: float = field(default=DEFAULT_P_BSM, metadata=_within("(0, 1]"))
    processing_delay_s: float = field(default=0.0, metadata=_within("[0, inf)"))
    light_speed_mps: float = field(default=C_LIGHT, metadata=_within("[1, inf)"))  # 5e-324 made round trips inf

    def __post_init__(self) -> None:
        _check_fields(self)
        if self.m_ground is None:
            object.__setattr__(self, "m_ground", int(self.m_sat))
        if self.m_sat > self.m_ground:
            raise ConfigError(
                f"m_sat ({self.m_sat}) must not exceed m_ground ({self.m_ground})"
            )

    def with_m_sat(self, m_sat: int) -> "LinkParams":
        """Copy with a different satellite slot count (m_ground tracks it when defaulted)."""
        m_ground = None if self.m_ground == self.m_sat else max(self.m_ground, m_sat)
        return replace(self, m_sat=m_sat, m_ground=m_ground)


@dataclass(frozen=True)
class LinkState:
    """Channel state of one leg at one instant: transmission, round trip, range rate."""

    eta: float = field(metadata=_within("[0, 1]"))
    t_rt_s: float = field(metadata=_within("(0, inf)"))
    v_r_mps: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(self)


# --------------------------------------------------------------------------
# array kernels: each formula of the model, on numpy columns or plain floats


def _round_trip(distance_m, params: LinkParams):
    """Classical confirmation delay: 2 * distance / c plus processing."""
    return 2.0 * distance_m / params.light_speed_mps + params.processing_delay_s


def _drift_bound(v_r_mps, params: LinkParams):
    """Unfloored train-length cap w * c / (|v_r| * T_em); inf where v_r = 0."""
    w_c = params.acceptance_window_s * params.light_speed_mps
    with np.errstate(divide="ignore", over="ignore"):
        return w_c / (np.abs(v_r_mps) * params.emission_period_s)


def _capped_train(v_r_mps, params: LinkParams):
    """Train length under the drift cap, unfloored: min(m_sat, w * c / (|v_r| * T_em))."""
    return np.minimum(float(params.m_sat), _drift_bound(v_r_mps, params))


def _eligible(v_r_mps, n, params: LinkParams, drift: bool):
    """Photons of an n-photon train that can latch: min(floor(w * c / (|v_r| * T_em)) + 1, m_sat, n), as int64.

    Photon k (0-based; the first is re-synchronized each round) stays in the window while k * |v_r| * T_em <= w * c.
    """
    bound = np.where(drift, _drift_bound(v_r_mps, params), np.inf)
    return np.minimum(np.minimum(np.floor(bound) + 1.0, float(params.m_sat)), n).astype(np.int64)


def _round_duration(n, t_rt, params: LinkParams):
    """Time from a round's first emission to its confirmation: (n - 1) * T_em + t_rt."""
    return (n - 1) * params.emission_period_s + t_rt


def _single_rate(eta, t_rt, n_train, params: LinkParams):
    """Pair rate of one link: p * eta * N / t_rt."""
    return params.p_bsm * eta * n_train / t_rt


def _dual_rate(eta_a, t_a, eta_b, t_b, m_a, m_b, params_a: LinkParams, params_b: LinkParams):
    """Swapped two-leg rate: min(p_A * m_A * eta_A / t_A, p_B * m_B * eta_B / t_B)."""
    return np.minimum(params_a.p_bsm * m_a * eta_a / t_a, params_b.p_bsm * m_b * eta_b / t_b)


def _loads(eta_a, t_a, eta_b, t_b):
    """Per-leg loads x = t_A / eta_A and y = t_B / eta_B that the splits weigh."""
    return t_a / eta_a, t_b / eta_b


def _split_real(x, y, m_s):
    """Leg A's real slot share equalizing the leg rates: m_S * x / (x + y)."""
    return m_s * x / (x + y)


def _split_int(x, y, m_s):
    """Leg A's integer slot share maximizing the min-rate: ceil((m_S - 1) * x / (x + y))."""
    return np.ceil((m_s - 1) * x / (x + y)).astype(np.int64)


# --------------------------------------------------------------------------
# scalar API: each wrapper refuses the numbers its formula cannot take; the kernels check nothing


def round_trip_time(distance_m: float, params: LinkParams) -> float:
    """Classical confirmation delay: 2 * distance / c plus processing."""
    if _kind_fault(float, distance_m) or not 0.0 < distance_m < np.inf:
        raise ConfigError(f"distance_m must be a finite number > 0: {distance_m!r}", "distance_m")
    return _round_trip(distance_m, params)


def differential_shift(v_r_mps: float, params: LinkParams) -> float:
    """Per-photon arrival-time drift within a train, signed: v_r * T_em / c."""
    if _kind_fault(float, v_r_mps) or not -np.inf < v_r_mps < np.inf:
        raise ConfigError(f"v_r_mps must be a finite number: {v_r_mps!r}", "v_r_mps")
    return v_r_mps * params.emission_period_s / params.light_speed_mps


def max_train_length(v_r_mps: float, params: LinkParams) -> float:
    """Largest useful photon train under drift: floor(w * c / (|v_r| * T_em)).

    Returns ``math.inf`` for v_r = 0 (no drift, unbounded train).
    """
    if _kind_fault(float, v_r_mps) or not -np.inf < v_r_mps < np.inf:
        raise ConfigError(f"v_r_mps must be a finite number: {v_r_mps!r}", "v_r_mps")
    return float(np.floor(_drift_bound(v_r_mps, params)))


def single_link_rate(state: LinkState, n_train: float, params: LinkParams) -> float:
    """Pair rate of one link running trains of ``n_train`` photons: p * eta * N / t_rt."""
    if _kind_fault(float, n_train) or not 1.0 <= n_train < np.inf:
        raise ConfigError(f"n_train must be a finite number >= 1: {n_train!r}", "n_train")
    return _single_rate(state.eta, state.t_rt_s, n_train, params)


def corrected_rate(state: LinkState, params: LinkParams) -> float:
    """Single-link rate with the drift cap applied to the train length.

    r* = p * eta * min(m_sat, w * c / (|v_r| * T_em)) / t_rt; the cap is
    used unfloored here, matching the closed-form envelope rather than the
    integer train the simulator runs.  It is the same kernel as
    :func:`single_link_rate`, so the two agree bit-for-bit wherever the cap
    is inactive.
    """
    n_train = _capped_train(state.v_r_mps, params)
    return float(_single_rate(state.eta, state.t_rt_s, n_train, params))


def dual_rate(
    state_a: LinkState,
    state_b: LinkState,
    m_a: float,
    m_b: float,
    params_a: LinkParams,
    params_b: LinkParams | None = None,
) -> float:
    """End-to-end rate of a swapped two-leg link: min of the leg rates.

    min(p_A * m_A * eta_A / t_A, p_B * m_B * eta_B / t_B).  A zero slot
    share yields rate zero for that leg and hence for the pair.
    """
    if params_b is None:
        params_b = params_a
    for name, share in (("m_a", m_a), ("m_b", m_b)):
        if _kind_fault(float, share) or not 0.0 <= share < np.inf:
            raise ConfigError(f"{name} must be a finite number >= 0: {share!r}", name)
    sa, sb = state_a, state_b
    return float(_dual_rate(sa.eta, sa.t_rt_s, sb.eta, sb.t_rt_s, m_a, m_b, params_a, params_b))


def _load_ratios(state_a: LinkState, state_b: LinkState) -> tuple[float, float]:
    if state_a.eta <= 0.0 or state_b.eta <= 0.0:
        raise NoVisibilityError(
            f"memory allocation needs both legs transmitting, got eta=({state_a.eta}, {state_b.eta})"
        )
    return _loads(state_a.eta, state_a.t_rt_s, state_b.eta, state_b.t_rt_s)


def allocate_real(state_a: LinkState, state_b: LinkState, m_s: int) -> tuple[float, float]:
    """Real-valued slot split equalizing the two leg rates.

    With x = t_A/eta_A and y = t_B/eta_B: m_A = m_S * x / (x + y),
    m_B = m_S - m_A.  This maximizes the min-rate over all real splits
    summing to m_S.
    """
    if _kind_fault(int, m_s) or not _within(_SLOTS)["inside"](m_s):
        raise ConfigError(f"m_s must be an integer in {_SLOTS}: {m_s!r}", "m_s")
    m_a = _split_real(*_load_ratios(state_a, state_b), m_s)
    return m_a, m_s - m_a


def allocate_int(state_a: LinkState, state_b: LinkState, m_s: int) -> tuple[int, int]:
    """Integer slot split maximizing the min-rate.

    m_A = ceil((m_S - 1) * x / (x + y)) and m_B = m_S - m_A, which equals
    floor((m_S - 1) * y / (x + y) + 1) up to float ties; exhaustive search
    over integer splits confirms optimality.  Both legs always receive at
    least one slot.
    """
    if _kind_fault(int, m_s) or m_s < 2 or not _within(_SLOTS)["inside"](m_s):
        raise ConfigError(f"integer allocation needs an integer m_s >= 2 in {_SLOTS}: {m_s!r}", "m_s")
    m_a = int(_split_int(*_load_ratios(state_a, state_b), m_s))
    return m_a, m_s - m_a


# --------------------------------------------------------------------------
# profile-level series


def link_state_at(profile: PassProfile, i: int, params: LinkParams) -> LinkState:
    """Channel state of sample ``i``: eta from the profile, t_rt from its range."""
    return LinkState(
        eta=float(profile.eta[i]),
        t_rt_s=round_trip_time(float(profile.distance_m[i]), params),
        v_r_mps=float(profile.radial_velocity_mps[i]),
    )


def _check_aligned(profile_a: PassProfile, profile_b: PassProfile) -> None:
    if profile_a.n_samples != profile_b.n_samples:
        raise GridMismatchError(
            f"profiles differ in length: {profile_a.n_samples} vs {profile_b.n_samples}"
        )
    if abs(profile_a.step_s - profile_b.step_s) > PassProfile.GRID_TOL_S:
        raise GridMismatchError("profiles differ in sample step")
    if np.any(np.abs(profile_a.t_s - profile_b.t_s) > PassProfile.GRID_TOL_S):
        raise GridMismatchError("profiles are not on the same time grid")
    if profile_a.epoch != profile_b.epoch:
        raise GridMismatchError(
            f"profiles have different epochs: {profile_a.epoch} vs {profile_b.epoch}"
        )


def _transmitting(profile: PassProfile) -> np.ndarray:
    return profile.visible & (profile.eta > 0)


def _covisible(profile_a, profile_b, params):
    """Mask of the samples where both legs transmit, and there each leg's eta and round trip."""
    _check_aligned(profile_a, profile_b)
    both = _transmitting(profile_a) & _transmitting(profile_b)
    t_a = _round_trip(profile_a.distance_m[both], params)
    t_b = _round_trip(profile_b.distance_m[both], params)
    return both, profile_a.eta[both], t_a, profile_b.eta[both], t_b


def _dual_rate_series(profile_a, profile_b, m_a, m_b, params) -> np.ndarray:
    """Dual rate under per-sample slot shares ``m_a``, ``m_b``; zero unless both legs transmit."""
    both, eta_a, t_a, eta_b, t_b = _covisible(profile_a, profile_b, params)
    out = np.zeros(profile_a.n_samples)
    out[both] = _dual_rate(eta_a, t_a, eta_b, t_b, m_a[both], m_b[both], params, params)
    return out


def _split_totals(profile_a, profile_b, params) -> np.ndarray:
    """Dual rate summed over the co-visible samples for every fixed split m_A = 0..m_S, m_S = ``params.m_sat``.

    One vector per sample is added in sample order, so each total is the
    same float as a sequential sum over samples; ``np.sum`` would add
    pairwise and can move the argmax.
    """
    if params.m_sat < 2:
        raise ConfigError(f"splitting m_sat between two legs needs m_sat >= 2: {params.m_sat}", "m_sat")
    both, eta_a, t_a, eta_b, t_b = _covisible(profile_a, profile_b, params)
    if not both.any():
        raise NoOverlapError(
            f"stations {profile_a.station} and {profile_b.station} are never co-visible"
        )
    m_a = np.arange(params.m_sat + 1)
    m_b = params.m_sat - m_a
    totals = np.zeros(params.m_sat + 1)
    for sample in zip(eta_a.tolist(), t_a.tolist(), eta_b.tolist(), t_b.tolist()):
        totals += _dual_rate(*sample, m_a, m_b, params, params)
    return totals


def best_static_split(
    profile_a: PassProfile,
    profile_b: PassProfile,
    params: LinkParams,
) -> tuple[int, int]:
    """Fixed split of the slot count ``params.m_sat`` with the largest integrated pair count over the pass pair.

    Exhaustive over integer splits: the dual rate is summed over all
    co-visible samples for every m_A and the best total wins (ties broken
    toward the smaller m_A).  A split picked at the single best instant can
    lose integrated pairs on pairs with asymmetric visibility, so the
    search integrates rather than sampling a peak.  Raises
    :class:`NoOverlapError` when the legs are never co-visible.
    """
    # argmax returns the first maximum, the smaller m_A on ties
    m_a = int(np.argmax(_split_totals(profile_a, profile_b, params)))
    return m_a, params.m_sat - m_a


@dataclass(frozen=True, eq=False)
class AllocationResult:
    """Per-sample memory splits and the rates they achieve over a pass pair.

    Real and integer splits follow the equal-rate optimum at co-visible
    samples.  Where only one leg is visible all slots go to that leg (pairs
    can still be banked there); where neither is visible the split falls
    back to an even division.  Rates are zero outside co-visibility.
    ``static_split`` and ``static_rate`` describe the best fixed split of
    the same pass pair.
    """

    t_s: np.ndarray
    m_A_real: np.ndarray
    m_B_real: np.ndarray
    m_A_int: np.ndarray
    m_B_int: np.ndarray
    rate_real: np.ndarray
    rate_int: np.ndarray
    static_split: tuple[int, int]
    static_rate: np.ndarray

    def __post_init__(self) -> None:
        m_s = self.static_split[0] + self.static_split[1]
        if np.any(np.abs(self.m_A_real + self.m_B_real - m_s) > 1e-9):
            raise ConfigError("real splits must sum to m_s at every sample")
        if np.any(self.m_A_int + self.m_B_int != m_s):
            raise ConfigError("integer splits must sum to m_s at every sample")
        if np.any(self.rate_int > self.rate_real + 1e-9):
            raise ConfigError("integer-split rate exceeds real-split rate")

    def to_json_dict(self) -> dict:
        """Summary with fields named exactly as the dataclass fields."""
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}


def allocation_series(
    profile_a: PassProfile,
    profile_b: PassProfile,
    params: LinkParams,
) -> AllocationResult:
    """Evaluate real, integer, and static splits of the slot count ``params.m_sat`` at every sample.

    The integer series is what a dynamically re-allocating satellite would
    run (one re-evaluation per sample); the static series uses
    :func:`best_static_split`.  Single-visible samples put every slot on
    the visible leg; fully dark samples split evenly (integer series gives
    the extra slot to leg A).
    """
    split = best_static_split(profile_a, profile_b, params)  # first: it refuses m_sat < 2 before reading the profiles
    both, eta_a, t_a, eta_b, t_b = _covisible(profile_a, profile_b, params)
    m_s = params.m_sat

    vis_a = _transmitting(profile_a)
    dark = ~(vis_a | _transmitting(profile_b))
    m_a_real = np.where(vis_a, float(m_s), 0.0)
    m_a_real[dark] = m_s / 2.0
    m_a_int = np.where(vis_a, m_s, 0).astype(np.int64)
    m_a_int[dark] = m_s - m_s // 2
    x, y = _loads(eta_a, t_a, eta_b, t_b)
    m_a_real[both] = _split_real(x, y, m_s)
    m_a_int[both] = _split_int(x, y, m_s)

    def rate(m_a: np.ndarray, m_b: np.ndarray) -> np.ndarray:
        return _dual_rate_series(profile_a, profile_b, m_a, m_b, params)

    n = profile_a.n_samples
    return AllocationResult(
        t_s=profile_a.t_s.copy(),
        m_A_real=m_a_real,
        m_B_real=m_s - m_a_real,
        m_A_int=m_a_int,
        m_B_int=m_s - m_a_int,
        rate_real=rate(m_a_real, m_s - m_a_real),
        rate_int=rate(m_a_int, m_s - m_a_int),
        static_split=split,
        static_rate=rate(np.full(n, split[0]), np.full(n, split[1])),
    )


def rate_series(
    profile: PassProfile,
    params: LinkParams,
    use_drift_correction: bool = True,
) -> np.ndarray:
    """Analytic single-link rate at every sample; zero where not visible.

    With the drift correction the series is the corrected rate; without it
    the plain rate with N = m_sat.
    """
    on = _transmitting(profile)
    n_train = _capped_train(profile.radial_velocity_mps[on], params) if use_drift_correction else params.m_sat
    out = np.zeros(profile.n_samples)
    out[on] = _single_rate(profile.eta[on], _round_trip(profile.distance_m[on], params), n_train, params)
    return out


def write_rate_csv(
    destination,
    t_s: Iterable[float],
    rate: Iterable[float],
    m_a: Iterable[int] | None = None,
    m_b: Iterable[int] | None = None,
) -> None:
    """Write a rate series as ``t_s,rate_pairs_per_s[,m_A,m_B]`` CSV; give both splits or neither."""
    if (m_a is None) != (m_b is None):
        raise ConfigError("write_rate_csv needs both m_a and m_b, or neither")
    columns = [np.asarray(t_s, dtype=float), np.asarray(rate, dtype=float)]
    if m_a is not None:
        columns += [np.asarray(m_a), np.asarray(m_b)]
    _write_csv(destination, "t_s,rate_pairs_per_s" + ",m_A,m_B" * (m_a is not None), columns)
