"""Discrete-event simulation of the entanglement distribution protocol.

One link leg runs rounds back to back: commit N memory slots (the minimum
of the free slot counts at the two ends), emit N photons at the emission
period, wait one round trip for the classical confirmation, then recycle.
Per photon, success requires surviving the channel (uniform draw < eta),
latching at the receiver (uniform draw < p_bsm), and staying inside the
acceptance window despite the arrival-time drift accumulated from radial
motion.  Channel state is sampled from the pass profile with zero-order
hold at round start; the whole train uses that state, including the
round-trip distance that fixes the confirmation time.

Dual runs drive two legs against a shared satellite memory according to an
allocation policy, and swap onboard: whenever both legs hold confirmed
pairs, one pair from each is consumed and an end-to-end pair is emitted at
that instant.  That is one first-in-first-out rule in both buffer modes:
the i-th end-to-end pair appears when the later of the two legs' i-th
confirmed pairs confirms, so swap times are a pure function of the two
confirmation streams, and pairs left over on the longer leg never swap.
By default confirmed pairs vacate their memory slot into an unbounded
application buffer awaiting the swap.  With ``retain_until_swap`` the
satellite half of a confirmed pair keeps its slot until the swap consumes
it, so a leg running ahead of its partner throttles itself once its share
of the memory fills up; this is the mode that reflects a finite onboard
memory end to end.

Determinism: every run is a pure function of (config, seed).  Each leg
draws from its own PCG64 stream derived from the seed and the leg index,
and every emitted photon consumes exactly two uniforms, loss first, latch
second, drifted or not, so counts are reproducible across platforms and
across the vectorized and event-driven code paths.  Under that contract a
block draw of k photons equals k single-photon draws, which lets both paths
draw ahead: the vectorized path a block of rounds at a time, the event loop
a chunk of photons at a time.  Within one profile sample every photon of a
leg sees the same channel, so the event loop counts a round's successes as
the difference of two entries of the prefix sum of a window's success mask.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .analytics import LinkParams, _round_trip, allocation_series
from .errors import ConfigError, DataFormatError, ReplayError
from .passes import PassProfile, _text_io

__all__ = [
    "ENGINE_VERSION",
    "SimConfig",
    "Round",
    "SimResult",
    "RoundLog",
    "run_single",
    "run_dual",
    "run",
    "replay",
    "write_sim_csv",
    "read_sim_csv",
    "write_round_log",
    "read_round_log",
]

ENGINE_VERSION = "satqlink-engine-1"

_POLICIES = ("single", "static", "dynamic_int")


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run.

    ``policy`` is ``single`` (one profile, the whole memory), ``static``
    (two profiles, fixed ``static_split``), or ``dynamic_int`` (two
    profiles, integer-optimal split re-evaluated at every profile sample).
    Both legs of a dual run must quote the same ``m_sat`` (the shared
    satellite memory).
    """

    profiles: tuple[PassProfile, ...]
    link_params: tuple[LinkParams, ...]
    policy: str
    rng_seed: int
    static_split: tuple[int, int] | None = None
    bin_width_s: float = 1.0
    drift: bool = True
    capture_rounds: bool = False
    retain_until_swap: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "profiles", tuple(self.profiles))
        object.__setattr__(self, "link_params", tuple(self.link_params))
        if self.policy not in _POLICIES:
            raise ConfigError(f"unknown policy {self.policy!r}, want one of {_POLICIES}")
        want_legs = 1 if self.policy == "single" else 2
        if len(self.profiles) != want_legs:
            raise ConfigError(
                f"policy {self.policy} needs {want_legs} profile(s), got {len(self.profiles)}"
            )
        if len(self.link_params) != len(self.profiles):
            raise ConfigError("need one LinkParams per profile")
        if not isinstance(self.rng_seed, numbers.Integral):
            raise ConfigError(f"rng_seed must be an integer: {self.rng_seed!r}")
        if not 0 <= int(self.rng_seed) < 2**64:
            raise ConfigError(f"rng_seed must fit in 64 bits: {self.rng_seed}")
        if self.bin_width_s <= 0.0:
            raise ConfigError("bin_width_s must be > 0")
        if want_legs == 2:
            from .analytics import _check_aligned

            _check_aligned(self.profiles[0], self.profiles[1])
            if self.link_params[0].m_sat != self.link_params[1].m_sat:
                raise ConfigError("dual legs must share one satellite memory size m_sat")
        if self.policy == "static":
            if self.static_split is None:
                raise ConfigError("static policy needs static_split")
            a, b = self.static_split
            if a < 1 or b < 1 or a + b != self.m_s:
                raise ConfigError(
                    f"static_split {self.static_split} must be positive and sum to m_sat={self.m_s}"
                )
        elif self.static_split is not None:
            raise ConfigError("static_split is only meaningful for the static policy")
        if self.retain_until_swap and self.policy == "single":
            raise ConfigError("retain_until_swap applies to dual runs only")

    @property
    def m_s(self) -> int:
        return int(self.link_params[0].m_sat)

    @property
    def n_legs(self) -> int:
        return len(self.profiles)

    def echo_dict(self) -> dict:
        """Provenance echo written next to every result."""
        return {
            "engine_version": ENGINE_VERSION,
            "policy": self.policy,
            "rng_seed": int(self.rng_seed),
            "bin_width_s": self.bin_width_s,
            "drift": self.drift,
            "retain_until_swap": self.retain_until_swap,
            "static_split": list(self.static_split) if self.static_split else None,
            "stations": [p.station for p in self.profiles],
            "epoch": self.profiles[0].epoch,
            "legs": [
                {
                    "m_sat": pr.m_sat,
                    "m_ground": pr.m_ground,
                    "emission_period_s": pr.emission_period_s,
                    "acceptance_window_s": pr.acceptance_window_s,
                    "p_bsm": pr.p_bsm,
                    "processing_delay_s": pr.processing_delay_s,
                    "light_speed_mps": pr.light_speed_mps,
                }
                for pr in self.link_params
            ],
        }


@dataclass(frozen=True)
class Round:
    """One confirmed protocol round.

    ``outcomes`` is one character per emitted photon in emission order:
    ``S`` latched, ``L`` lost (channel or latch failure), ``D`` drifted out
    of the acceptance window.  It is only recorded when the run captures
    rounds; ``n_success`` is always present.
    """

    leg: int
    index: int
    start_time_s: float
    train_length: int
    v_r_at_start_mps: float
    confirm_time_s: float
    n_success: int
    outcomes: str | None = None


@dataclass
class SimResult:
    """Per-bin confirmed-pair counts of one run.

    ``pairs_per_leg[i][k]`` counts leg i pairs confirmed in bin k;
    ``pairs_end_to_end`` counts swapped pairs by swap time (all zero for a
    single-link run).  Bins start at t = 0 and have uniform width.
    """

    bin_width_s: float
    pairs_per_leg: tuple[np.ndarray, ...]
    pairs_end_to_end: np.ndarray
    seed: int
    policy: str
    config_echo: dict
    engine_version: str = ENGINE_VERSION
    rounds: list[Round] | None = None

    def __post_init__(self) -> None:
        n = self.pairs_end_to_end.size
        for leg in self.pairs_per_leg:
            if leg.size != n:
                raise ConfigError("per-leg and end-to-end bins must share one grid")
            if np.any(leg < 0):
                raise ConfigError("negative pair count")
        if np.any(self.pairs_end_to_end < 0):
            raise ConfigError("negative pair count")
        if self.pairs_per_leg and n and self.total_end_to_end > min(
            int(leg.sum()) for leg in self.pairs_per_leg
        ):
            raise ConfigError("swapped pairs exceed a leg total")

    @property
    def n_bins(self) -> int:
        return int(self.pairs_end_to_end.size)

    @property
    def bin_start_s(self) -> np.ndarray:
        return np.arange(self.n_bins, dtype=float) * self.bin_width_s

    @property
    def totals_per_leg(self) -> tuple[int, ...]:
        return tuple(int(leg.sum()) for leg in self.pairs_per_leg)

    @property
    def total_end_to_end(self) -> int:
        return int(self.pairs_end_to_end.sum())

    def summary_dict(self) -> dict:
        return {
            "engine_version": self.engine_version,
            "seed": int(self.seed),
            "policy": self.policy,
            "bin_width_s": self.bin_width_s,
            "n_bins": self.n_bins,
            "totals_per_leg": list(self.totals_per_leg),
            "total_end_to_end": self.total_end_to_end,
            "config": self.config_echo,
        }


# --------------------------------------------------------------------------
# round scheduling
#
# With an unbounded application buffer the round sequence of a leg is a pure
# function of the profile and the per-sample slot allocation: each round
# starts the instant the previous one confirms, holding the channel state of
# the sample its start falls in.  The analytic validator reuses this builder,
# which is what makes its per-bin moments exact for the simulator.


@dataclass(frozen=True)
class _Block:
    """A run of back-to-back rounds sharing one profile sample."""

    starts: np.ndarray
    dt: float
    n: int
    eligible: int
    eta: float
    p_bsm: float
    v_r: float

    @property
    def k(self) -> int:
        return int(self.starts.size)

    def confirm_times(self) -> np.ndarray:
        return self.starts + self.dt


@dataclass(frozen=True)
class _LegSchedule:
    blocks: tuple[_Block, ...]


def _eligible_count(n: int, v_r: float, params: LinkParams, drift: bool) -> int:
    """Photons whose drift stays inside the window: k * |dt_shift| <= w.

    Photon indices are 0-based and the first photon is re-synchronized each
    round, so the count is floor(w c / (|v_r| T_em)) + 1, capped at n.
    """
    shift = abs(v_r) * params.emission_period_s
    # a |v_r| so small that the shift underflows to 0 or the bound overflows
    # to inf drifts no photon out
    if not drift or shift == 0.0:
        return n
    bound = params.acceptance_window_s * params.light_speed_mps / shift
    return n if bound >= n else int(math.floor(bound)) + 1


def _next_true(mask: np.ndarray) -> np.ndarray:
    """Index of the first true entry at or after each position (size + 1 entries, size if none)."""
    n = mask.size
    idx = np.where(np.append(mask, True), np.arange(n + 1), n)
    return np.minimum.accumulate(idx[::-1])[::-1]


def _sample_start(j: int, t_grid0: float, step: float) -> float:
    """First time the engine's sample arithmetic, ``int((t - t_grid0) // step)``, puts in sample j.

    Usually ``t_grid0 + j * step``; on grids such as step 0.1 s that time can
    floor into sample j - 1, and a jump to it would never leave that sample.
    """
    t = t_grid0 + j * step
    while int((t - t_grid0) // step) < j:
        t = math.nextafter(t, math.inf)
    return t


def _leg_schedule(
    profile: PassProfile,
    params: LinkParams,
    capacity: np.ndarray,
    drift: bool,
) -> _LegSchedule:
    """Round schedule of one leg under full slot recycling.

    ``capacity`` gives the leg's satellite slot share per profile sample;
    the round size is its minimum with the ground memory.  Rounds start
    only in visible samples with at least one slot; the cursor jumps over
    ineligible stretches to the next eligible sample start.
    """
    t_grid0 = float(profile.t_s[0])
    step = profile.step_s
    n_samples = profile.n_samples
    cover_end = t_grid0 + n_samples * step
    t_rt = _round_trip(profile.distance_m, params)
    eligible_sample = profile.visible & (capacity >= 1)
    t_em = params.emission_period_s

    nxt = _next_true(eligible_sample)
    blocks: list[_Block] = []
    if not np.any(eligible_sample):
        return _LegSchedule(blocks=())
    t = _sample_start(int(nxt[0]), t_grid0, step)
    while t < cover_end - 1e-12:
        i = int((t - t_grid0) // step)
        if i >= n_samples:
            break
        if not eligible_sample[i]:
            j = int(nxt[i])
            if j >= n_samples:
                break
            t = _sample_start(j, t_grid0, step)
            continue
        n = min(int(capacity[i]), int(params.m_ground))
        dt = (n - 1) * t_em + float(t_rt[i])
        # accumulate start times round by round, classifying each with the
        # same floor arithmetic, so the event-driven path lands on bitwise
        # identical rounds
        starts: list[float] = [t]
        t += dt
        while t < cover_end - 1e-12 and int((t - t_grid0) // step) == i:
            starts.append(t)
            t += dt
        v_r = float(profile.radial_velocity_mps[i])
        blocks.append(
            _Block(
                starts=np.asarray(starts),
                dt=dt,
                n=n,
                eligible=_eligible_count(n, v_r, params, drift),
                eta=float(profile.eta[i]),
                p_bsm=params.p_bsm,
                v_r=v_r,
            )
        )
    return _LegSchedule(blocks=tuple(blocks))


def _leg_rng(seed: int, leg: int) -> np.random.Generator:
    """Independent per-leg stream: PCG64 keyed on (seed, leg index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=int(seed), spawn_key=(leg,))))


def _outcome_string(ok: np.ndarray, eligible: int) -> str:
    chars = np.where(ok, b"S", b"L").astype("S1")
    if eligible < chars.size:
        chars[eligible:] = b"D"
    return chars.tobytes().decode("ascii")


def _simulate_leg(
    schedule: _LegSchedule,
    rng: np.random.Generator,
    leg: int,
    capture: bool,
) -> tuple[np.ndarray, np.ndarray, list[Round] | None]:
    """Run a precomputed schedule; returns (confirm_times, successes, rounds)."""
    conf_parts: list[np.ndarray] = []
    succ_parts: list[np.ndarray] = []
    rounds: list[Round] | None = [] if capture else None
    idx = 0
    for b in schedule.blocks:
        u = rng.random((b.k, b.n, 2))
        ok = (u[:, :, 0] < b.eta) & (u[:, :, 1] < b.p_bsm)
        if b.eligible < b.n:
            ok[:, b.eligible :] = False
        succ = ok.sum(axis=1).astype(np.int64)
        starts = b.starts
        conf = starts + b.dt
        conf_parts.append(conf)
        succ_parts.append(succ)
        if rounds is not None:
            for j in range(b.k):
                rounds.append(
                    Round(
                        leg=leg,
                        index=idx + j,
                        start_time_s=float(starts[j]),
                        train_length=b.n,
                        v_r_at_start_mps=b.v_r,
                        confirm_time_s=float(conf[j]),
                        n_success=int(succ[j]),
                        outcomes=_outcome_string(ok[j], b.eligible),
                    )
                )
        idx += b.k
    if conf_parts:
        return np.concatenate(conf_parts), np.concatenate(succ_parts), rounds
    return np.empty(0), np.empty(0, dtype=np.int64), rounds


def _bin_counts(times: np.ndarray, weights: np.ndarray, width: float, n_bins: int) -> np.ndarray:
    """Sum ``weights`` into bins of ``width`` starting at t = 0, in the weights' dtype."""
    out = np.zeros(n_bins, dtype=weights.dtype)
    if times.size:
        np.add.at(out, np.floor_divide(times, width).astype(np.int64), weights)
    return out


def _capacity_series(config: SimConfig) -> list[np.ndarray]:
    """Per-sample satellite slot share for each leg under the policy."""
    n = config.profiles[0].n_samples
    if config.policy == "single":
        return [np.full(n, config.m_s, dtype=np.int64)]
    if config.policy == "static":
        a, b = config.static_split  # type: ignore[misc]
        return [np.full(n, a, dtype=np.int64), np.full(n, b, dtype=np.int64)]
    alloc = allocation_series(
        config.profiles[0],
        config.profiles[1],
        config.m_s,
        config.link_params[0],
        config.link_params[1],
    )
    return [alloc.m_A_int.astype(np.int64), alloc.m_B_int.astype(np.int64)]


# --------------------------------------------------------------------------
# run entry points


def run_single(config: SimConfig) -> SimResult:
    """Simulate one satellite-ground link over its pass profile."""
    if config.policy != "single":
        raise ConfigError(f"run_single needs policy 'single', got {config.policy!r}")
    schedule = _leg_schedule(
        config.profiles[0], config.link_params[0], _capacity_series(config)[0], config.drift
    )
    conf, succ, rounds = _simulate_leg(
        schedule, _leg_rng(config.rng_seed, 0), 0, config.capture_rounds
    )
    return _result(config, [conf], [succ], rounds)


def run_dual(config: SimConfig) -> SimResult:
    """Simulate both legs and onboard swapping under the allocation policy."""
    if config.policy not in ("static", "dynamic_int"):
        raise ConfigError(f"run_dual needs a dual policy, got {config.policy!r}")
    if config.retain_until_swap:
        return _run_dual_event(config)
    return _run_dual_fast(config)


def run(config: SimConfig) -> SimResult:
    """Dispatch on the policy."""
    return run_single(config) if config.policy == "single" else run_dual(config)


def _result(
    config: SimConfig,
    conf: Sequence[np.ndarray],
    succ: Sequence[np.ndarray],
    rounds: list[Round] | None,
) -> SimResult:
    """Bin each leg's confirmations (times ``conf``, pairs ``succ``) and the swaps.

    The i-th end-to-end pair appears at the later of the two legs' i-th
    confirmed pairs, so no swap falls past the last confirmation's bin.
    """
    width = config.bin_width_s
    tops = [float(c.max()) for c in conf if c.size]
    n_bins = int(math.floor(max(0.0, *tops) / width)) + 1 if tops else 0
    swaps = np.empty(0)
    if len(conf) == 2:
        t_a, t_b = (np.repeat(c, s) for c, s in zip(conf, succ))
        n = min(t_a.size, t_b.size)
        swaps = np.maximum(t_a[:n], t_b[:n])
    return SimResult(
        bin_width_s=width,
        pairs_per_leg=tuple(_bin_counts(c, s, width, n_bins) for c, s in zip(conf, succ)),
        pairs_end_to_end=_bin_counts(swaps, np.ones(swaps.size, dtype=np.int64), width, n_bins),
        seed=config.rng_seed,
        policy=config.policy,
        config_echo=config.echo_dict(),
        rounds=rounds,
    )


def _run_dual_fast(config: SimConfig) -> SimResult:
    """Unbounded-buffer dual run: legs are independent given the allocation."""
    caps = _capacity_series(config)
    conf: list[np.ndarray] = []
    succ: list[np.ndarray] = []
    rounds: list[Round] | None = [] if config.capture_rounds else None
    for leg in range(2):
        sched = _leg_schedule(config.profiles[leg], config.link_params[leg], caps[leg], config.drift)
        c, s, r = _simulate_leg(sched, _leg_rng(config.rng_seed, leg), leg, config.capture_rounds)
        conf.append(c)
        succ.append(s)
        if rounds is not None and r is not None:
            rounds.extend(r)
    return _result(config, conf, succ, rounds)


# photons per PCG64 draw and per success prefix sum, per leg; the buffers
# are allocated once per run, so the event loop allocates no array
_CHUNK_ROWS = 2**12
_WINDOW_ROWS = 2048


class _PhotonStream:
    """One leg's photons: uniforms drawn a chunk ahead, read a window at a time.

    In the current window, held at one ``eta``, ``ok[k]`` is the success of
    photon k and ``prefix[k]`` the successes among photons 0..k-1.
    """

    __slots__ = ("rng", "u", "pos", "ok", "latch", "counts", "prefix", "sample", "off", "size")

    def __init__(self, rng: np.random.Generator, max_n: int) -> None:
        self.rng = rng
        self.u = np.empty((_CHUNK_ROWS + max_n, 2))  # row = (loss, latch) uniforms
        self.pos = self.u.shape[0]  # row of the window's first photon; nothing drawn yet
        width = max(_WINDOW_ROWS, max_n)
        self.ok = np.empty(width, dtype=bool)
        self.latch = np.empty(width, dtype=bool)
        self.counts = np.zeros(width + 1, dtype=np.int64)
        self.prefix = [0] * (width + 1)
        self.sample = -1  # profile sample of the window
        self.off = 0  # photons of the window already emitted
        self.size = 0

    def window(self, sample: int, n: int, eta: float, p_bsm: float) -> None:
        """Open a window of at least ``n`` photons after those already emitted."""
        self.pos += self.off
        left = self.u.shape[0] - self.pos
        if left < n:
            self.u[:left] = self.u[self.pos :]
            self.rng.random(out=self.u[left:])
            self.pos = 0
        m = min(max(_WINDOW_ROWS, n), self.u.shape[0] - self.pos)
        u = self.u[self.pos : self.pos + m]
        ok = self.ok[:m]
        np.less(u[:, 0], eta, out=ok)
        ok &= np.less(u[:, 1], p_bsm, out=self.latch[:m])
        np.cumsum(ok, out=self.counts[1 : m + 1])
        self.prefix[1 : m + 1] = self.counts[1 : m + 1].tolist()
        self.sample, self.off, self.size = sample, 0, m


def _run_dual_event(config: SimConfig) -> SimResult:
    """Event-driven dual run used when confirmed pairs retain their slots.

    The legs interact through the swap (a confirmation on one leg can free
    slots on both), so rounds cannot be prescheduled.  Events are processed
    in (time, confirmation-before-start, leg) order; a leg blocked on slots
    wakes at the partner's next confirmation or the next sample boundary.
    A leg has at most one round in flight, so at a start its free slots are
    its allocation minus its buffered pairs (retained) or the allocation
    itself (unbounded); an allocation never exceeds m_sat <= m_ground, so
    that is the train length.  Swaps are consumed here for slot accounting only;
    their times follow from the confirmations.

    Photons are drawn a chunk at a time; one draw of k rows consumes the
    leg's stream exactly as k single-photon draws do.  While a leg stays in
    one profile sample its photons share one ``eta``, so a success mask and
    its prefix sum are built once per window of photons, and a round of n
    photons (the first ``eligible`` of them able to latch) starting at
    window offset o has ``prefix[o + eligible] - prefix[o]`` successes.
    """
    caps = _capacity_series(config)
    profiles = config.profiles
    step = profiles[0].step_s
    t_grid0 = float(profiles[0].t_s[0])
    n_samples = profiles[0].n_samples
    cover_end = t_grid0 + n_samples * step
    retain = config.retain_until_swap

    # per-leg constants and per-sample lookups as plain lists (hot loop)
    eta: list[list[float]] = []
    t_rt: list[list[float]] = []
    v_r: list[list[float]] = []
    next_vis: list[list[int]] = []
    alloc: list[list[int]] = []
    cap_e: list[list[int]] = []  # drift-eligible photons of an m_sat train
    t_em: list[float] = []
    for leg in range(2):
        p = profiles[leg]
        params = config.link_params[leg]
        visible = np.asarray(p.visible, dtype=bool)
        eta.append(p.eta.tolist())
        t_rt.append(_round_trip(p.distance_m, params).tolist())
        v_r.append(p.radial_velocity_mps.tolist())
        next_vis.append(_next_true(visible).tolist())
        alloc.append(caps[leg].tolist())
        cap_e.append([_eligible_count(config.m_s, v, params, config.drift) for v in v_r[leg]])
        t_em.append(params.emission_period_s)

    streams = [_PhotonStream(_leg_rng(config.rng_seed, leg), config.m_s) for leg in range(2)]

    # leg state: next event time, whether it is a confirmation, finished
    ev = [cover_end, cover_end]
    confirming = [False, False]
    done = [False, False]
    buffered = [0, 0]  # confirmed pairs awaiting a swap
    round_idx = [0, 0]
    conf_times: list[list[float]] = [[], []]
    conf_succ: list[list[int]] = [[], []]
    rounds: list[Round] | None = [] if config.capture_rounds else None

    for leg in range(2):
        j = next_vis[leg][0]
        if j < n_samples:
            ev[leg] = _sample_start(j, t_grid0, step)
        else:
            done[leg] = True

    while True:
        if done[0]:
            if done[1]:
                break
            leg = 1
        elif done[1] or ev[0] < ev[1] or (ev[0] == ev[1] and (confirming[0] or not confirming[1])):
            leg = 0
        else:
            leg = 1
        other = 1 - leg
        t = ev[leg]
        if confirming[leg]:
            confirming[leg] = False
            buffered[leg] += conf_succ[leg][-1]
            k = buffered[0] if buffered[0] < buffered[1] else buffered[1]
            if k > 0:
                buffered[0] -= k
                buffered[1] -= k
                # freed slots may unblock a waiting leg immediately
                if not confirming[other] and ev[other] > t:
                    ev[other] = t
            continue  # ev[leg] == t: the next round may begin at once

        # start attempt
        if t >= cover_end - 1e-12:
            done[leg] = True
            continue
        i = int((t - t_grid0) // step)
        if i >= n_samples:
            done[leg] = True
            continue
        j = next_vis[leg][i]
        if j != i:  # not visible
            if j >= n_samples:
                done[leg] = True
            else:
                ev[leg] = _sample_start(j, t_grid0, step)
            continue
        n = alloc[leg][i] - buffered[leg] if retain else alloc[leg][i]
        if n < 1:
            # wake at the partner's confirmation (a swap may free slots) or
            # at the next sample boundary (the allocation may grow)
            wake = _sample_start(i + 1, t_grid0, step)
            if confirming[other] and ev[other] < wake:
                wake = max(ev[other], t)
            ev[leg] = wake
            continue
        eligible = cap_e[leg][i]
        if eligible > n:
            eligible = n
        stream = streams[leg]
        if stream.sample != i or stream.off + n > stream.size:
            stream.window(i, n, eta[leg][i], config.link_params[leg].p_bsm)
        off = stream.off
        n_success = stream.prefix[off + eligible] - stream.prefix[off]
        stream.off = off + n
        conf_t = t + (n - 1) * t_em[leg] + t_rt[leg][i]
        # a leg's rounds confirm in the order they start
        conf_times[leg].append(conf_t)
        conf_succ[leg].append(n_success)
        confirming[leg] = True
        ev[leg] = conf_t
        if rounds is not None:
            rounds.append(
                Round(
                    leg=leg,
                    index=round_idx[leg],
                    start_time_s=t,
                    train_length=n,
                    v_r_at_start_mps=v_r[leg][i],
                    confirm_time_s=conf_t,
                    n_success=n_success,
                    outcomes=_outcome_string(stream.ok[off : off + n], eligible),
                )
            )
        round_idx[leg] += 1

    if rounds is not None:
        rounds.sort(key=lambda r: (r.confirm_time_s, r.leg, r.index))
    return _result(
        config,
        [np.asarray(c) for c in conf_times],
        [np.asarray(s, dtype=np.int64) for s in conf_succ],
        rounds,
    )


# --------------------------------------------------------------------------
# replay and serialization


@dataclass(frozen=True)
class RoundLog:
    """A round log read back from disk: header echo plus the rounds."""

    engine_version: str
    seed: int
    policy: str
    bin_width_s: float
    rounds: tuple[Round, ...]


def replay(config: SimConfig, log: RoundLog | Sequence[Round]) -> SimResult:
    """Rebuild per-bin counts from a round log without re-simulating.

    Rounds are taken in confirmation order and swaps are rebuilt with the
    engine's first-in-first-out rule, which reproduces both buffer modes
    exactly.  A log from a different engine version is refused.
    """
    if isinstance(log, RoundLog):
        if log.engine_version != ENGINE_VERSION:
            raise ReplayError(
                f"log from engine {log.engine_version!r}, this is {ENGINE_VERSION!r}"
            )
        rounds: Sequence[Round] = log.rounds
    else:
        rounds = log
    if rounds is None:
        raise ReplayError("no rounds to replay; run with capture_rounds=True")
    ordered = sorted(rounds, key=lambda r: (r.confirm_time_s, r.leg, r.index))
    n_legs = config.n_legs
    conf: list[list[float]] = [[] for _ in range(n_legs)]
    succ: list[list[int]] = [[] for _ in range(n_legs)]
    for r in ordered:
        if not 0 <= r.leg < n_legs:
            raise ReplayError(f"round references leg {r.leg} of a {n_legs}-leg config")
        conf[r.leg].append(r.confirm_time_s)
        succ[r.leg].append(r.n_success)
    return _result(
        config,
        [np.asarray(c) for c in conf],
        [np.asarray(s, dtype=np.int64) for s in succ],
        list(ordered),
    )


_SIM_CSV_HEADER = "bin_start_s,pairs_legA,pairs_legB,pairs_end_to_end"


def write_sim_csv(result: SimResult, destination: str | Path | TextIO) -> None:
    """Write per-bin counts; single-link runs carry zeros in the unused columns."""
    with _text_io(destination, "w") as (fh, _):
        fh.write(_SIM_CSV_HEADER + "\n")
        leg_a = result.pairs_per_leg[0]
        leg_b = (
            result.pairs_per_leg[1]
            if len(result.pairs_per_leg) > 1
            else np.zeros(result.n_bins, dtype=np.int64)
        )
        starts = result.bin_start_s
        for i in range(result.n_bins):
            fh.write(
                f"{starts[i]:.12g},{int(leg_a[i])},{int(leg_b[i])},{int(result.pairs_end_to_end[i])}\n"
            )


def read_sim_csv(source: str | Path | TextIO) -> dict[str, np.ndarray]:
    """Read counts written by :func:`write_sim_csv` into column arrays."""
    with _text_io(source, "r") as (fh, where):
        header = fh.readline().rstrip("\n")
        if header != _SIM_CSV_HEADER:
            raise DataFormatError(f"{where}: row 1: bad header {header!r}")
        starts: list[float] = []
        cols: list[list[int]] = [[], [], []]
        row = 1
        for line in fh:
            row += 1
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise DataFormatError(f"{where}: row {row}: expected 4 fields, got {len(parts)}")
            try:
                starts.append(float(parts[0]))
                for k in range(3):
                    cols[k].append(int(parts[k + 1]))
            except ValueError as exc:
                raise DataFormatError(f"{where}: row {row}: {exc}") from exc
    return {
        "bin_start_s": np.asarray(starts),
        "pairs_legA": np.asarray(cols[0], dtype=np.int64),
        "pairs_legB": np.asarray(cols[1], dtype=np.int64),
        "pairs_end_to_end": np.asarray(cols[2], dtype=np.int64),
    }


def write_round_log(result: SimResult, destination: str | Path | TextIO) -> None:
    """Write the round log as newline-delimited JSON, one header then one record per round."""
    if result.rounds is None:
        raise ConfigError("result has no round log; run with capture_rounds=True")
    with _text_io(destination, "w") as (fh, _):
        header = {
            "engine_version": result.engine_version,
            "seed": int(result.seed),
            "policy": result.policy,
            "bin_width_s": result.bin_width_s,
        }
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for r in result.rounds:
            rec = {
                "leg": r.leg,
                "index": r.index,
                "start_time_s": r.start_time_s,
                "train_length": r.train_length,
                "v_r_at_start_mps": r.v_r_at_start_mps,
                "confirm_time_s": r.confirm_time_s,
                "n_success": r.n_success,
            }
            if r.outcomes is not None:
                rec["outcomes"] = r.outcomes
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_round_log(source: str | Path | TextIO) -> RoundLog:
    """Read a log written by :func:`write_round_log`."""
    with _text_io(source, "r") as (fh, where):
        first = fh.readline()
        if not first.strip():
            raise DataFormatError(f"{where}: empty round log")
        try:
            header = json.loads(first)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{where}: row 1: {exc}") from exc
        for key in ("engine_version", "seed", "policy", "bin_width_s"):
            if key not in header:
                raise DataFormatError(f"{where}: header missing {key!r}")
        rounds: list[Round] = []
        row = 1
        for line in fh:
            row += 1
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                rounds.append(
                    Round(
                        leg=int(rec["leg"]),
                        index=int(rec["index"]),
                        start_time_s=float(rec["start_time_s"]),
                        train_length=int(rec["train_length"]),
                        v_r_at_start_mps=float(rec["v_r_at_start_mps"]),
                        confirm_time_s=float(rec["confirm_time_s"]),
                        n_success=int(rec["n_success"]),
                        outcomes=rec.get("outcomes"),
                    )
                )
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise DataFormatError(f"{where}: row {row}: {exc}") from exc
    return RoundLog(
        engine_version=str(header["engine_version"]),
        seed=int(header["seed"]),
        policy=str(header["policy"]),
        bin_width_s=float(header["bin_width_s"]),
        rounds=tuple(rounds),
    )
