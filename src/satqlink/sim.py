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
a chunk of photons at a time.  Each uniform takes one 64-bit output of the
stream, so advancing it by 2j outputs equals drawing j photons and
discarding them; the vectorized path skips long drifted tails that way.
Within one profile sample every photon of a leg sees the same channel, so
the event loop finds a window's successful photons once, as a sorted list
of offsets, and counts a round's successes by walking it.  The event loop
also lets a leg run ahead of the strict event order through rounds its
partner cannot affect; each leg's rounds, and so the counts, are those of
the strict order.

Both paths record a run in one round table per leg: start time, confirm
time and successes per round, and per block (a maximal run of consecutive
rounds with one profile sample and one train length) the sample, the train
length and the drift-eligible count; outcome strings only when capturing.
The vectorized path schedules the table first and fills the successes a
block at a time; the event loop appends to it round by round.  Binning,
``SimResult.rounds``, the round log, :func:`replay` and the validator's
exact moments all read that table.

The round log is read back into columns, which :func:`replay` uses; a
:class:`Round` is built only when ``SimResult.rounds`` or ``RoundLog.rounds`` is read.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from array import array
from dataclasses import asdict, dataclass, field, replace
from itertools import islice
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .analytics import LinkParams, _drift_bound, _round_trip, allocation_series
from .errors import ConfigError, DataFormatError, ReplayError
from .passes import PassProfile, _check_finite, _read_csv, _text_io, _write_csv

__all__ = [
    "ENGINE_VERSION",
    "SimConfig",
    "Round",
    "SimResult",
    "RoundLog",
    "run",
    "replay",
    "write_sim_csv",
    "read_sim_csv",
    "write_round_log",
    "read_round_log",
]

ENGINE_VERSION = "satqlink-engine-1"

_POLICIES = ("single", "static", "dynamic_int")


def _check_run(policy: str, n_legs: int, m_s: int, static_split: tuple[int, int] | None,
               retain_until_swap: bool, bin_width_s: float) -> None:
    """The run rules of :class:`SimConfig` and of the experiment file, which may leave the split to a search."""
    if policy not in _POLICIES:
        raise ConfigError(f"unknown policy {policy!r}, want one of {_POLICIES}", "policy")
    want = 1 if policy == "single" else 2
    if n_legs != want:
        raise ConfigError(f"policy {policy} needs {want} leg(s), got {n_legs}", "policy")
    if want == 2 and m_s < 2:
        raise ConfigError(f"policy {policy} shares m_sat between two legs: m_sat must be >= 2, got {m_s}",
                          "policy")
    if static_split is not None:
        if policy != "static":
            raise ConfigError(f"static_split is only meaningful for the static policy, not {policy}",
                              "static_split")
        if len(static_split) != 2 or min(static_split) < 1 or sum(static_split) != m_s:
            raise ConfigError(f"static_split {tuple(static_split)} must be positive and sum to m_sat={m_s}",
                              "static_split")
    if retain_until_swap and want == 1:
        raise ConfigError("retain_until_swap applies to dual runs only", "retain_until_swap")
    if bin_width_s <= 0.0:
        raise ConfigError(f"bin_width_s must be > 0: {bin_width_s}", "bin_width_s")


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
    # per-leg slot shares set by _seed_configs; replace() drops them
    _caps: tuple[np.ndarray, ...] | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_finite(self)
        object.__setattr__(self, "profiles", tuple(self.profiles))
        object.__setattr__(self, "link_params", tuple(self.link_params))
        if not self.profiles or len(self.link_params) != len(self.profiles):
            raise ConfigError("need at least one profile, with one LinkParams each")
        _check_run(self.policy, self.n_legs, self.m_s, self.static_split, self.retain_until_swap,
                   self.bin_width_s)
        if self.policy == "static" and self.static_split is None:  # an experiment may leave it to the search
            raise ConfigError("static policy needs static_split", "static_split")
        if not isinstance(self.rng_seed, numbers.Integral):
            raise ConfigError(f"rng_seed must be an integer: {self.rng_seed!r}")
        if not 0 <= int(self.rng_seed) < 2**64:
            raise ConfigError(f"rng_seed must fit in 64 bits: {self.rng_seed}")
        if self.n_legs == 2:
            from .analytics import _check_aligned

            _check_aligned(self.profiles[0], self.profiles[1])
            if self.link_params[0].m_sat != self.link_params[1].m_sat:
                raise ConfigError("dual legs must share one satellite memory size m_sat")

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
            "legs": [asdict(pr) for pr in self.link_params],
        }


@dataclass(frozen=True, slots=True)
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
    ``rounds`` is built on demand from the run's round table.
    """

    bin_width_s: float
    pairs_per_leg: tuple[np.ndarray, ...]
    pairs_end_to_end: np.ndarray
    seed: int
    policy: str
    config_echo: dict
    engine_version: str = ENGINE_VERSION
    _tables: tuple[_RoundTable, ...] | None = field(default=None, repr=False, compare=False)
    _by_confirm: bool = field(default=False, repr=False, compare=False)

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
    def rounds(self) -> list[Round] | None:
        """Every round, or None when the run did not capture rounds."""
        if self._tables is None:
            return None
        return [Round(*row) for row in _scalar_rows(_table_columns(self._tables, self._by_confirm))]

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
# the round table and the unbounded-buffer schedule
#
# With an unbounded application buffer the round sequence of a leg is a pure
# function of the profile and the per-sample slot allocation: each round
# starts the instant the previous one confirms, holding the channel state of
# the sample its start falls in.  The analytic validator reads the table of
# that schedule, which is what makes its per-bin moments exact for the engine.


@dataclass
class _RoundTable:
    """One leg's rounds as columns, in the order the leg ran them.

    Per round: ``start``, ``confirm`` and ``successes``.  Per block, a
    maximal run of consecutive rounds sharing (sample, n): the round count
    ``k``, the profile ``sample``, the train length ``n``, the drift-eligible
    count ``eligible`` and the sample's radial velocity ``v_r``.  When the
    run captures, ``outcomes`` holds one string per round.  A table rebuilt
    from rounds by :func:`replay` has one block per round, with ``sample``
    and ``eligible`` -1.
    """

    start: np.ndarray
    confirm: np.ndarray
    successes: np.ndarray | None
    k: np.ndarray
    sample: np.ndarray
    n: np.ndarray
    eligible: np.ndarray
    v_r: np.ndarray
    outcomes: list[str | None] | None = None


_ROWS = 8192  # rows per conversion to Python scalars and per chunk of a log write or read


def _round_columns(rounds: Sequence[Round]) -> tuple:
    """The :class:`Round` fields as columns, in field order: seven int64/float64 arrays, an outcomes list."""
    nums = (np.fromiter(map(attrgetter(key), rounds), dtype=kind, count=len(rounds))
            for key, kind in _LOG_FIELDS.items())
    return (*nums, [r.outcomes for r in rounds])


def _scalar_rows(columns: Sequence) -> Iterator[tuple]:
    """Rows of :func:`_round_columns` columns as tuples of Python scalars, converted ``_ROWS`` at a time."""
    *nums, outcomes = columns
    for lo in range(0, len(outcomes), _ROWS):
        yield from zip(*(c[lo : lo + _ROWS].tolist() for c in nums), outcomes[lo : lo + _ROWS])


def _table_columns(tables: Sequence[_RoundTable], by_confirm: bool) -> tuple:
    """:class:`Round` fields of every round as :func:`_round_columns` gives them.

    Rows run leg by leg, or in (confirm, leg, index) order with ``by_confirm``.
    """
    parts = [
        (np.full(t.start.size, leg), np.arange(t.start.size), t.start, np.repeat(t.n, t.k),
         np.repeat(t.v_r, t.k), t.confirm, t.successes)
        for leg, t in enumerate(tables)
    ]
    cols = [np.concatenate(c) for c in zip(*parts)]
    outcomes = [o for t in tables for o in t.outcomes]
    if by_confirm:
        order = np.lexsort((cols[1], cols[0], cols[5]))
        cols = [c[order] for c in cols]
        outcomes = [outcomes[i] for i in order.tolist()]
    return (*cols, outcomes)


def _eligible_cap(profile: PassProfile, params: LinkParams, drift: bool) -> np.ndarray:
    """Drift-eligible photons of an m_sat train at each sample.

    Photon indices are 0-based and the first photon is re-synchronized each
    round, so photon k stays in the window while k * |v_r| * T_em <= w c:
    floor(bound) + 1 photons, capped at m_sat (also where the bound is inf).
    A train of n photons has min(cap, n) eligible.
    """
    if not drift:
        return np.full(profile.n_samples, params.m_sat, dtype=np.int64)
    bound = _drift_bound(profile.radial_velocity_mps, params)
    return np.minimum(np.floor(bound) + 1.0, float(params.m_sat)).astype(np.int64)


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


def _block_starts(
    t: float, dt: float, i: int, t_grid0: float, step: float, t_end: float
) -> tuple[np.ndarray, float]:
    """Start times of the block whose first round starts at ``t`` in sample i, and the start after it.

    Rounds start at t, t + dt, (t + dt) + dt, ... while a start floors into
    sample i and precedes ``t_end``; ``np.cumsum`` adds in that order, so
    each start is the float the event loop reaches.  Starts come a sample's
    worth at a time, cut at the first that leaves the block: the next
    block's start.
    """
    size = int((t_grid0 + (i + 1) * step - t) / dt) + 2
    parts: list[np.ndarray] = []
    while True:
        c = np.full(size, dt)
        c[0] = t
        np.cumsum(c, out=c)
        leaves = (c >= t_end) | (np.floor_divide(c - t_grid0, step) != i)
        leaves[0] &= bool(parts)  # the caller placed the first start in the block
        cut = int(leaves.argmax()) if leaves.any() else size
        parts.append(c[:cut])
        if cut < size:
            return np.concatenate(parts), float(c[cut])
        t = float(c[-1]) + dt


def _leg_schedule(profile: PassProfile, params: LinkParams, capacity: np.ndarray, drift: bool) -> _RoundTable:
    """Round table of one leg under full slot recycling, without successes.

    ``capacity`` gives the leg's satellite slot share per profile sample;
    the round size is its minimum with the ground memory.  Rounds start
    only in visible samples with at least one slot; the cursor jumps over
    ineligible stretches to the next eligible sample start.
    """
    t_grid0 = float(profile.t_s[0])
    step = profile.step_s
    n_samples = profile.n_samples
    t_end = t_grid0 + n_samples * step - 1e-12
    t_rt = _round_trip(profile.distance_m, params)
    eligible_sample = profile.visible & (capacity >= 1)
    t_em = params.emission_period_s

    nxt = _next_true(eligible_sample)
    starts: list[np.ndarray] = []
    blocks: list[tuple[int, int, int]] = []  # (sample, n, rounds)
    dts: list[float] = []
    t = _sample_start(int(nxt[0]), t_grid0, step)
    while t < t_end:
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
        block, t = _block_starts(t, dt, i, t_grid0, step, t_end)
        starts.append(block)
        blocks.append((i, n, block.size))
        dts.append(dt)
    sample, n_col, k = np.asarray(blocks, dtype=np.int64).reshape(-1, 3).T
    start = np.concatenate(starts) if starts else np.empty(0)
    eligible = np.minimum(_eligible_cap(profile, params, drift)[sample], n_col)
    confirm = start + np.repeat(np.asarray(dts, dtype=float), k)
    return _RoundTable(start, confirm, None, k, sample, n_col, eligible, profile.radial_velocity_mps[sample])


def _leg_rng(seed: int, leg: int) -> np.random.Generator:
    """Independent per-leg stream: PCG64 keyed on (seed, leg index)."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=int(seed), spawn_key=(leg,))))


def _outcome_chars(ok: np.ndarray, n: int) -> str:
    """``S``/``L`` per photon of ``ok``'s rows, each padded with ``D`` to ``n`` photons; rows concatenated."""
    chars = np.full((*ok.shape[:-1], n), b"D", dtype="S1")
    chars[..., : ok.shape[-1]] = np.where(ok, b"S", b"L")
    return chars.tobytes().decode("ascii")


# uniforms of a round's drifted tail from which _draw advances the stream
# past them instead of drawing them: drawing a round on its own and one PCG64
# advance cost about 2.2 us a round, as much as a block draw spends on ~600
# uniforms (numpy 2.4, x86-64); the measured crossover lies between 512 and 768
_ADVANCE_MIN = 512


def _draw(table: _RoundTable, eta: np.ndarray, p_bsm: float, rng: np.random.Generator, capture: bool) -> None:
    """Fill a scheduled table's successes, and outcomes when capturing, a block at a time.

    A drifted photon cannot succeed, so only the first ``eligible`` photons
    of a round are compared; where a round's drifted tail is long and no
    outcome strings are built, its uniforms are skipped with an advance.
    """
    table.successes = np.empty(table.start.size, dtype=np.int64)
    table.outcomes = [] if capture else None
    lo = 0
    for k, i, n, e in zip(*(c.tolist() for c in (table.k, table.sample, table.n, table.eligible))):
        if capture or 2 * (n - e) < _ADVANCE_MIN:
            u = rng.random((k, n, 2))
        else:
            u = np.empty((k, e, 2))
            for row in u:
                rng.random(out=row)
                rng.bit_generator.advance(2 * (n - e))
        ok = (u[:, :e, 0] < eta[i]) & (u[:, :e, 1] < p_bsm)
        table.successes[lo : lo + k] = ok.sum(axis=1)
        if table.outcomes is not None:
            chars = _outcome_chars(ok, n)
            table.outcomes.extend(chars[j * n : (j + 1) * n] for j in range(k))
        lo += k


def _bin_counts(times: np.ndarray, weights: np.ndarray, width: float, n_bins: int) -> np.ndarray:
    """Sum ``weights`` into bins of ``width`` starting at t = 0, in the weights' dtype."""
    out = np.zeros(n_bins, dtype=weights.dtype)
    if times.size:
        np.add.at(out, np.floor_divide(times, width).astype(np.int64), weights)
    return out


def _capacity_series(config: SimConfig) -> list[np.ndarray]:
    """Per-sample satellite slot share for each leg under the policy."""
    if config._caps is not None:
        return list(config._caps)
    n = config.profiles[0].n_samples
    if config.policy == "single":
        return [np.full(n, config.m_s, dtype=np.int64)]
    if config.policy == "static":
        a, b = config.static_split  # type: ignore[misc]
        return [np.full(n, a, dtype=np.int64), np.full(n, b, dtype=np.int64)]
    alloc = allocation_series(*config.profiles, config.m_s, *config.link_params)
    return [alloc.m_A_int.astype(np.int64), alloc.m_B_int.astype(np.int64)]


def _seed_configs(config: SimConfig, seeds: Iterable[int]) -> list[SimConfig]:
    """``config`` at each seed, all sharing one computation of the slot shares: no seed changes them."""
    caps = tuple(_capacity_series(config))
    configs = [replace(config, rng_seed=seed) for seed in seeds]
    for c in configs:
        object.__setattr__(c, "_caps", caps)
    return configs


# --------------------------------------------------------------------------
# run entry points


def run(config: SimConfig) -> SimResult:
    """Simulate the config's legs and, for two legs, the onboard swaps under its policy."""
    return _run_dual_event(config) if config.retain_until_swap else _run_scheduled(config)


def _result(config: SimConfig, tables: Sequence[_RoundTable], by_confirm: bool = False) -> SimResult:
    """Bin each leg's confirmations and the swaps; keep the tables if they hold outcomes.

    The i-th end-to-end pair appears at the later of the two legs' i-th
    confirmed pairs, so no swap falls past the last confirmation's bin.
    ``by_confirm`` orders the result's rounds by (confirm, leg, index)
    instead of leg by leg.
    """
    width = config.bin_width_s
    conf = [t.confirm for t in tables]
    succ = [t.successes for t in tables]
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
        _tables=tuple(tables) if tables[0].outcomes is not None else None,
        _by_confirm=by_confirm,
    )


def _run_scheduled(config: SimConfig) -> SimResult:
    """Unbounded-buffer run of one or two legs: legs are independent given the allocation."""
    caps = _capacity_series(config)
    tables = []
    for leg in range(config.n_legs):
        profile = config.profiles[leg]
        table = _leg_schedule(profile, config.link_params[leg], caps[leg], config.drift)
        _draw(table, profile.eta, config.link_params[leg].p_bsm, _leg_rng(config.rng_seed, leg),
              config.capture_rounds)
        tables.append(table)
    return _result(config, tables)


# photons per PCG64 draw and per success window, per leg
_CHUNK_ROWS = 2**12
_WINDOW_ROWS = 2048


class _PhotonStream:
    """One leg's photons: uniforms drawn a chunk ahead, read a window at a time.

    A window holds at least ``_WINDOW_ROWS`` photons at one ``eta``; when
    capturing, ``text[k]`` is ``S`` or ``L`` for its photon k, else ``text`` is None.
    """

    __slots__ = ("rng", "u", "pos", "text", "passed")

    def __init__(self, rng: np.random.Generator, max_n: int, capture: bool) -> None:
        self.rng = rng
        self.u = np.empty((_CHUNK_ROWS + max_n, 2))  # row = (loss, latch) uniforms
        self.pos = self.u.shape[0]  # row of the window's first photon; nothing drawn yet
        self.text = "" if capture else None
        # per-window mask buffers, reused: temporaries raised a run's peak RSS by about 1 MiB
        self.passed = np.empty((2, max(_WINDOW_ROWS, max_n)), dtype=bool)

    def window(self, used: int, n: int, eta: float, p_bsm: float) -> list[int]:
        """Pass the ``used`` photons of the last window; open one of at least ``n``.

        Returns its successful photons' offsets in ascending order, then its size.
        """
        self.pos += used
        left = self.u.shape[0] - self.pos
        if left < n:
            self.u[:left] = self.u[self.pos :]
            self.rng.random(out=self.u[left:])
            self.pos = 0
        u = self.u[self.pos : self.pos + min(max(_WINDOW_ROWS, n), self.u.shape[0] - self.pos)]
        passed = np.less(u.T, ((eta,), (p_bsm,)), out=self.passed[:, : len(u)])  # channel, latch
        ok = passed[0]
        ok &= passed[1]
        if self.text is not None:
            self.text = _outcome_chars(ok, ok.size)
        return [*np.flatnonzero(ok).tolist(), ok.size]


def _run_dual_event(config: SimConfig) -> SimResult:
    """Event-driven dual run used when confirmed pairs retain their slots.

    The legs interact through the swap (a confirmation on one leg can free
    slots on both), so rounds cannot be prescheduled: the loop appends each
    round to its leg's table as it starts.  Events are taken in (time,
    confirmation-before-start, leg) order; a leg blocked on slots wakes at
    the partner's next confirmation or the next sample boundary.  A leg has
    at most one round in flight, so at a start its free slots are its
    allocation minus its buffered pairs (retained) or the allocation itself
    (unbounded); an allocation never exceeds m_sat <= m_ground, so that is
    the train length.  Swaps are consumed here for slot accounting only;
    their times follow from the confirmations.

    A picked leg runs ahead of that order while its partner cannot change
    what it does.  After every confirmation one leg holds no pair, and no
    swap involves a leg holding none, so such a leg's round with no success
    confirms with no effect: it starts its next round at once (a partner
    waking at that confirmation would only block again).  Otherwise it
    takes its confirmation at once when the partner is done or acts later,
    and then its next start unless the partner confirms at that instant.
    Each leg so runs the rounds of the strict order; ``_result`` sorts them.

    Photons are drawn a chunk at a time; one draw of k rows consumes the
    leg's stream exactly as k single-photon draws do.  While a leg stays in
    one profile sample its photons share one ``eta``, so a window's
    successful photons are listed once by offset; a round of n photons at
    offset o counts those below ``o + eligible`` and passes its drifted tail.
    """
    profiles = config.profiles
    step = profiles[0].step_s
    t_grid0 = float(profiles[0].t_s[0])
    n_samples = profiles[0].n_samples
    t_end = t_grid0 + n_samples * step - 1e-12
    retain = config.retain_until_swap
    capture = config.capture_rounds

    # per-leg constants and per-sample lookups as plain lists (hot loop)
    links = config.link_params
    eta = [p.eta.tolist() for p in profiles]
    t_rt = [_round_trip(p.distance_m, lk).tolist() for p, lk in zip(profiles, links)]
    next_vis = [_next_true(np.asarray(p.visible, dtype=bool)).tolist() for p in profiles]
    alloc = [c.tolist() for c in _capacity_series(config)]
    cap_e = [_eligible_cap(p, lk, config.drift).tolist() for p, lk in zip(profiles, links)]

    streams = [_PhotonStream(_leg_rng(config.rng_seed, leg), config.m_s, capture) for leg in range(2)]

    # leg state: next event time, whether it is a confirmation, finished,
    # confirmed pairs awaiting a swap
    ev, confirming, done, buffered = [t_grid0] * 2, [False] * 2, [False] * 2, [0, 0]
    # per leg, the round table as the loop builds it: start, confirm and
    # successes (and outcomes) per round, (first round, sample, n) per block
    starts, confirms, successes = ([array(kind), array(kind)] for kind in "ddq")
    blocks, outcomes = [[], []], [[], []]
    # per leg, kept while the other runs: its window's hits, the pointer past
    # those before offset off, sample, photons emitted and size; its block's sample and n
    held = [([0], 0, -1, 0, 0, -1, -1)] * 2

    while True:
        if done[0] and done[1]:
            break
        ahead0 = ev[0] < ev[1] or (ev[0] == ev[1] and (confirming[0] or not confirming[1]))
        leg = 0 if not done[0] and (done[1] or ahead0) else 1
        other = 1 - leg
        # the leg's lookups and its stream's window, held in locals while it runs
        eta_l, rt_l, vis_l, alloc_l, cap_l = eta[leg], t_rt[leg], next_vis[leg], alloc[leg], cap_e[leg]
        t_em, p_bsm = links[leg].emission_period_s, links[leg].p_bsm
        start_l, conf_l, succ_l, out_l = starts[leg], confirms[leg], successes[leg], outcomes[leg]
        stream = streams[leg]
        hits, h, w_sample, off, size, block_i, block_n = held[leg]
        t = ev[leg]
        while True:
            if confirming[leg]:
                confirming[leg] = False
                buffered[leg] += succ_l[-1]
                k = buffered[0] if buffered[0] < buffered[1] else buffered[1]
                if k > 0:
                    buffered[0] -= k
                    buffered[1] -= k
                    # freed slots may unblock a waiting partner immediately
                    if not confirming[other] and ev[other] > t:
                        ev[other] = t
                if confirming[other] and ev[other] <= t:
                    break  # the partner's confirmation at t goes before this leg's start

            # start attempt
            i = int((t - t_grid0) // step)
            if i != w_sample or t >= t_end:  # past the end or off the window's (visible) sample
                j = vis_l[i] if i < n_samples and t < t_end else n_samples
                if j >= n_samples:
                    done[leg] = True
                    break
                if j != i:  # not visible: wait for the next visible sample
                    ev[leg] = _sample_start(j, t_grid0, step)
                    break
            n = alloc_l[i] - buffered[leg] if retain else alloc_l[i]
            if n < 1:
                # wake at the partner's confirmation (a swap may free slots) or
                # at the next sample boundary (the allocation may grow)
                wake = _sample_start(i + 1, t_grid0, step)
                if confirming[other] and ev[other] < wake:
                    wake = max(ev[other], t)
                ev[leg] = wake
                break
            eligible = cap_l[i] if cap_l[i] < n else n
            if w_sample != i or off + n > size:
                hits = stream.window(off, n, eta_l[i], p_bsm)
                h, w_sample, off, size = 0, i, 0, hits[-1]
            while hits[h] < off:  # pass the hits of the last round's drifted tail
                h += 1
            h0 = h
            end = off + eligible
            while hits[h] < end:  # the round's successes
                h += 1
            n_success = h - h0
            if capture:
                out_l.append(stream.text[off : off + eligible] + "D" * (n - eligible))
            off += n
            conf_t = t + ((n - 1) * t_em + rt_l[i])  # _leg_schedule's t + dt
            # a leg's rounds confirm in the order they start
            start_l.append(t)
            conf_l.append(conf_t)
            succ_l.append(n_success)
            if i != block_i or n != block_n:
                block_i, block_n = i, n
                blocks[leg].append((len(start_l) - 1, i, n))
            t = conf_t
            if n_success == 0 and buffered[leg] == 0:
                continue  # the confirmation adds no pair and cannot swap: start again at once
            confirming[leg] = True
            ev[leg] = conf_t
            # run ahead while the confirmation is next in event order anyway
            if not (done[other] or conf_t < ev[other]):
                break
        held[leg] = hits, h, w_sample, off, size, block_i, block_n

    tables = []
    for leg, p in enumerate(profiles):
        first, sample, n_col = np.asarray(blocks[leg], dtype=np.int64).reshape(-1, 3).T
        start = np.asarray(starts[leg])
        tables.append(_RoundTable(
            start, np.asarray(confirms[leg]), np.asarray(successes[leg]),
            np.diff(first, append=start.size), sample, n_col, np.minimum(np.take(cap_e[leg], sample), n_col),
            p.radial_velocity_mps[sample], outcomes[leg] if capture else None,
        ))
    return _result(config, tables, by_confirm=True)


# --------------------------------------------------------------------------
# replay and serialization


@dataclass(frozen=True, eq=False)
class RoundLog:
    """A round log read back from disk: header echo plus the rounds, kept as columns in file order."""

    engine_version: str
    seed: int
    policy: str
    bin_width_s: float
    _columns: tuple = field(repr=False)

    @property
    def rounds(self) -> tuple[Round, ...]:
        """Every round, built from the columns on each access."""
        return tuple(Round(*row) for row in _scalar_rows(self._columns))

    def __eq__(self, other: object) -> bool:
        header = attrgetter("engine_version", "seed", "policy", "bin_width_s")
        return (isinstance(other, RoundLog) and header(self) == header(other)
                and self._columns[-1] == other._columns[-1]
                and all(map(np.array_equal, self._columns[:-1], other._columns[:-1])))


def replay(config: SimConfig, log: RoundLog | Sequence[Round]) -> SimResult:
    """Rebuild per-bin counts from a round log without re-simulating.

    Each leg's rounds are taken in (confirm, index) order and swaps are
    rebuilt with the engine's first-in-first-out rule, which reproduces both
    buffer modes exactly.  The result's rounds are numbered by that order.
    A log from another engine version is refused, and so is a round that no log can hold.
    """
    if log is None:
        raise ReplayError("no rounds to replay; run with capture_rounds=True")
    if isinstance(log, RoundLog):
        if log.engine_version != ENGINE_VERSION:
            raise ReplayError(f"log from engine {log.engine_version!r}, this is {ENGINE_VERSION!r}")
        columns = log._columns
    else:
        for pos, r in enumerate(log):  # a value no round log holds
            for key, kind in _ROUND_FIELDS.items():
                if fault := _field_fault(kind, value := getattr(r, key)):
                    raise ReplayError(f"rounds[{pos}].{key} {fault}: {value!r}")
        columns = _round_columns(log)
    leg, index, start, n, v_r, conf, succ, outcomes = columns
    stray = np.flatnonzero(leg >= config.n_legs)
    if stray.size:
        raise ReplayError(f"round references leg {leg[stray[0]]} of a {config.n_legs}-leg config")
    tables = []
    for i in range(config.n_legs):
        mine = np.flatnonzero(leg == i)
        order = mine[np.lexsort((index[mine], conf[mine]))]
        unknown = np.full(order.size, -1)
        tables.append(_RoundTable(
            start[order], conf[order], succ[order], np.ones(order.size, dtype=np.int64), unknown,
            n[order], unknown, v_r[order], [outcomes[j] for j in order.tolist()],
        ))
    return _result(config, tables, by_confirm=True)


_SIM_CSV_HEADER = "bin_start_s,pairs_legA,pairs_legB,pairs_end_to_end"


def write_sim_csv(result: SimResult, destination: str | Path | TextIO) -> None:
    """Write per-bin counts; single-link runs carry zeros in the unused columns."""
    legs = (*result.pairs_per_leg, np.zeros(result.n_bins, dtype=np.int64))[:2]
    _write_csv(destination, _SIM_CSV_HEADER, (result.bin_start_s, *legs, result.pairs_end_to_end))


def read_sim_csv(source: str | Path | TextIO) -> dict[str, np.ndarray]:
    """Read counts written by :func:`write_sim_csv` into column arrays.

    Bin starts must be finite and counts integers >= 0; a bad cell raises
    DataFormatError citing its row and column.
    """
    columns = _read_csv(source, _SIM_CSV_HEADER, (float, int, int, int))[3]
    return dict(zip(_SIM_CSV_HEADER.split(","), columns))


# one record of the round log, keys in sorted order; %s takes a value's text, or the outcomes member or ""
_LOG_RECORD = (
    '{"confirm_time_s": %s, "index": %s, "leg": %s, "n_success": %s, %s'
    '"start_time_s": %s, "train_length": %s, "v_r_at_start_mps": %s}\n'
)
_LOG_OUTCOMES = '"outcomes": %s, '  # the outcomes member; %s takes the JSON-escaped string


def _float_texts(*columns: np.ndarray) -> list[list[str]]:
    """``repr`` of each float of equal-sized columns, once per distinct bit pattern: -0.0 and 0.0 stay apart."""
    bits, inverse = np.unique(np.concatenate(columns).view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[inverse]
    return [part.tolist() for part in np.split(texts, len(columns))]


def write_round_log(result: SimResult, destination: str | Path | TextIO) -> None:
    """Write the round log as newline-delimited JSON, one header then one record per round.

    Records follow the order of ``result.rounds`` and list their keys sorted, numbers as ``repr``
    writes them and outcomes JSON-escaped; they are formatted ``_ROWS`` rounds at a time.
    """
    if result._tables is None:
        raise ConfigError("result has no round log; run with capture_rounds=True")
    with _text_io(destination, "w") as (fh, _):
        header = dict(engine_version=result.engine_version, seed=int(result.seed),
                      policy=result.policy, bin_width_s=result.bin_width_s)
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        *nums, outcomes = _table_columns(result._tables, result._by_confirm)
        for lo in range(0, len(outcomes), _ROWS):
            leg, index, start, n, v_r, conf, succ = (c[lo : lo + _ROWS] for c in nums)
            start, conf, v_r = _float_texts(start, conf, v_r)  # a confirm time is mostly the next start
            out = ["" if o is None else _LOG_OUTCOMES % encode_basestring(o) for o in outcomes[lo : lo + _ROWS]]
            fh.write("".join(map(_LOG_RECORD.__mod__, zip(
                conf, index.tolist(), leg.tolist(), succ.tolist(), out, start, n.tolist(), v_r))))


# the keys of a round log record and the types of their Round fields
_LOG_FIELDS = dict(leg=int, index=int, start_time_s=float, train_length=int,
                   v_r_at_start_mps=float, confirm_time_s=float, n_success=int)
_ROUND_FIELDS = {**_LOG_FIELDS, "outcomes": str}


def _field_fault(kind: type, value) -> str | None:
    """What keeps ``value`` out of a round log's ``kind`` column, or None.

    An ``int`` value is an int (not a bool) in [0, 2**63), a ``float`` value a finite int or
    float, and a ``str`` value (the outcomes) a str or None.
    """
    if kind is str:
        return None if isinstance(value, (str, type(None))) else "is not a string"
    if type(value) not in (int, kind):
        return "is not an integer" if kind is int else "is not a number"
    if kind is int:
        return "is negative" if value < 0 else None if value < 2**63 else "does not fit a 64-bit column"
    try:
        return None if math.isfinite(value) else "is not finite"
    except OverflowError:
        return "does not fit a 64-bit column"


def _record_layout() -> tuple:
    """The writer's record line with outcomes, as ``(keys, pieces, delimiters)``.

    ``pieces`` are the fixed texts around the value slots, each as (ASCII bytes, k, off): the
    piece starts ``off`` bytes before the k-th quote or newline of its line.  ``keys`` names the
    slot after each piece but the last, "outcomes" the outcome text; ``delimiters`` counts the
    quotes and the newline of one line.
    """
    texts = (_LOG_RECORD % (*["%s"] * 4, _LOG_OUTCOMES % '"%s"', *["%s"] * 3)).split("%s")
    keys = [re.search(r'"(\w+)": "?$', t)[1] for t in texts[:-1]]
    pieces, k = [], 0
    for t in texts:
        pieces.append((np.frombuffer(t.encode(), np.uint8), k, min(i for i, c in enumerate(t) if c in '"\n')))
        k += t.count('"') + t.count("\n")
    return keys, pieces, k


_LOG_KEYS, _LOG_PIECES, _LOG_DELIMS = _record_layout()
_LOG_PAD = 64  # spaces after a chunk's bytes, so that every window gathered from them fits
_FLOAT_WIDTH = 32  # the widest float text the byte path reads; repr writes at most 24 characters
_POW10 = 10 ** np.arange(17, -1, -1)  # place values of an integer of at most 18 digits, which fits an int64
# float texts one per line, each a JSON number but "-0", which JSON reads as the integer 0
_FLOAT_LINES = re.compile(rb"(?:(?!-0\n)-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?\n)*")


def _int_values(b: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray | None:
    """The integers in ``b[s:e]`` per row, if each is ``0|[1-9][0-9]{0,17}``, else None."""
    w = e - s
    if not ((w >= 1) & (w <= _POW10.size) & ((b[s] != 48) | (w == 1))).all():
        return None
    width = int(w.max())
    # each text right-aligned in a row of digit values, zeros before it; uint8 wraps below "0"
    digits = (sliding_window_view(b, width)[e - width] - 48) * (np.arange(width) >= width - w[:, None])
    return None if (digits >= 10).any() else digits @ _POW10[-width:]


def _layout_columns(text: str, n: int) -> tuple | None:
    """:func:`_round_columns` columns of ``n`` record lines in the writer's layout, else None.

    The lines must be ASCII without a backslash, and each must hold outcomes.  Their quotes
    and newlines locate every fixed piece, and one compare per piece checks it; no other byte
    is a control character.  Value texts are gathered into rows of one width and checked
    against JSON's number grammar: integers of at most 18 digits are parsed exactly, floats by
    numpy's cast and must be finite.  A start time equal to the previous row's confirm time,
    or a v_r equal to the previous row's, is parsed once.
    """
    if not text.isascii() or "\\" in text:
        return None
    b = np.frombuffer((text if text.endswith("\n") else text + "\n").encode() + b" " * _LOG_PAD, np.uint8)
    delims = np.flatnonzero((b == 34) | (b == 10))
    if delims.size != n * _LOG_DELIMS or np.count_nonzero(b < 32) != n:
        return None
    pos = delims.reshape(n, _LOG_DELIMS)
    starts = [pos[:, k] - off for _, k, off in _LOG_PIECES]
    if not (starts[0] == np.r_[0, pos[:-1, -1] + 1]).all():  # the first piece starts its line
        return None
    for (piece, _, _), s in zip(_LOG_PIECES, starts):
        if not (sliding_window_view(b, piece.size)[s] == piece).all():
            return None
    slots = {key: (s + piece.size, e)
             for key, (piece, _, _), s, e in zip(_LOG_KEYS, _LOG_PIECES, starts, starts[1:])}

    ints = [key for key in _LOG_KEYS if _LOG_FIELDS.get(key) is int]
    values = _int_values(b, *(np.concatenate(c) for c in zip(*map(slots.get, ints))))
    if values is None:
        return None
    nums = dict(zip(ints, np.split(values, len(ints))))
    conf, start, v_r = (slots[key] for key in ("confirm_time_s", "start_time_s", "v_r_at_start_mps"))
    width = max(int((e - s).max()) for s, e in (conf, start, v_r))
    if not 0 < width <= _FLOAT_WIDTH:
        return None
    # each text left-aligned in a row of bytes, zeros after it
    conf, start, v_r = (sliding_window_view(b, width)[s] * (np.arange(width) < (e - s)[:, None])
                        for s, e in (conf, start, v_r))
    new_start = np.r_[True, (start[1:] != conf[:-1]).any(1)]
    new_v_r = np.r_[True, (v_r[1:] != v_r[:-1]).any(1)]
    texts = np.concatenate((conf, start[new_start], v_r[new_v_r])).view(f"S{width}")[:, 0]
    if not _FLOAT_LINES.fullmatch(b"\n".join(texts.tolist()) + b"\n"):
        return None
    values = texts.astype(np.float64)
    if not np.isfinite(values).all():
        return None
    nums["confirm_time_s"] = values[:n]
    nums["start_time_s"] = values[np.where(new_start, n + np.cumsum(new_start) - 1, np.arange(n) - 1)]
    nums["v_r_at_start_mps"] = values[n + np.count_nonzero(new_start) + np.cumsum(new_v_r) - 1]
    outcomes = [text[i:j] for i, j in zip(*(c.tolist() for c in slots["outcomes"]))]
    return (*map(nums.get, _LOG_FIELDS), outcomes)


def _log_object(line: str, where: str, row: int, keys: Iterable[str]) -> dict:
    """One NDJSON line of a round log as a JSON object holding ``keys``; errors cite the row."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{where}: row {row}: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataFormatError(f"{where}: row {row}: expected a JSON object, got {line.strip()[:40]}")
    for key in keys:
        if key not in obj:
            raise DataFormatError(f"{where}: row {row}: missing {key!r}")
    return obj


def _log_round(rec: dict, where: str, row: int) -> Round:
    """The round of one log record: integers in [0, 2**63), finite numbers, string outcomes."""
    fields = {}
    for key, kind in _ROUND_FIELDS.items():
        if _field_fault(kind, value := rec.get(key)):
            want = {int: "an integer >= 0", float: "a finite number", str: "a string"}[kind]
            raise DataFormatError(f"{where}: row {row}: {key} must be {want}, got {value!r}")
        fields[key] = float(value) if kind is float else value
    return Round(**fields)


def _log_rows(lines: Sequence[str], where: str, row: int) -> list[Round]:
    """The rounds of record lines read one by one as JSON, the first at ``row``; blank lines skip."""
    return [_log_round(_log_object(line, where, r, _LOG_FIELDS), where, r)
            for r, line in enumerate(lines, start=row) if line.strip()]


def _log_chunk(lines: Sequence[str], where: str, row: int) -> tuple:
    """Columns of record lines, the first at ``row``: by :func:`_layout_columns`, else by :func:`_log_rows`."""
    columns = _layout_columns("".join(lines), len(lines))
    return _round_columns(_log_rows(lines, where, row)) if columns is None else columns


def read_round_log(source: str | Path | TextIO) -> RoundLog:
    """Read a round log, ``_ROWS`` lines at a time; a bad row raises DataFormatError citing it."""
    with _text_io(source, "r") as (fh, where):
        first = fh.readline()
        if not first.strip():
            raise DataFormatError(f"{where}: empty round log")
        header = _log_object(first, where, 1, ("engine_version", "seed", "policy", "bin_width_s"))
        try:
            seed, bin_width_s = int(header["seed"]), float(header["bin_width_s"])
        except (TypeError, ValueError, OverflowError) as exc:
            raise DataFormatError(f"{where}: row 1: {exc}") from exc
        chunks = [_round_columns(())]
        row = 2
        while lines := list(islice(fh, _ROWS)):
            chunks.append(_log_chunk(lines, where, row))
            row += len(lines)
    *nums, outcomes = zip(*chunks)
    return RoundLog(str(header["engine_version"]), seed, str(header["policy"]), bin_width_s,
                    (*map(np.concatenate, nums), [o for part in outcomes for o in part]))
