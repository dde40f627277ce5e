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
second, drifted or not, so counts are reproducible across platforms.  Each
buffer mode runs on one code path, unbounded buffers on the vectorized one
and ``retain_until_swap`` on the event loop; the tests hold both to one
strict-order event reference.  Under that contract a block draw of k
photons equals k single-photon draws, which lets both paths draw ahead: the
vectorized path a block of rounds at a time, the event loop a chunk of
photons at a time.
Each uniform takes one 64-bit output of the stream, so advancing it by 2j
outputs equals drawing j photons and discarding them; the vectorized path
skips long drifted tails that way.  Within one profile sample every photon
of a leg sees the same channel, so the event loop finds a window's
successful photons once, as a sorted list of offsets, and counts a round's
successes by walking it.  The event loop also lets a leg run ahead of the
strict event order through rounds its partner cannot affect; each leg's
rounds, and so the counts, are those of the strict order.

Both paths record a run in one round table per leg: start time, confirm
time and successes per round, and per block (a maximal run of consecutive
rounds with one profile sample and one train length) the sample, the train
length and the drift-eligible count.  The vectorized path draws the
successes a block at a time onto a schedule that one plan per command
builds once and every seed shares; the event loop only counts, appending
to its table round by round.  When a run captures, :func:`_draw` alone
writes the outcome strings on both paths, over each leg's finished table
from a fresh stream of the same seed: under the contract, the photons the
run used.  Binning, ``SimResult.rounds``, the round log, :func:`replay` and
the validator's exact moments all read these tables, and the moments read
the very schedule the runs draw on.

The round log is read back into columns, which :func:`replay` uses; a
:class:`Round` is built only when ``SimResult.rounds`` or ``RoundLog.rounds`` is read.
"""

from __future__ import annotations

import io
import json
import math
import re
from array import array
from dataclasses import asdict, dataclass, field, replace
from itertools import chain, repeat
from json.encoder import encode_basestring
from operator import attrgetter
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .analytics import LinkParams, _check_aligned, _eligible, _round_duration, _round_trip, allocation_series
from .errors import ConfigError, DataFormatError, ReplayError
from .passes import _MAX_GRID, PassProfile, _check_fields, _json_object, _read_csv, _text_io, _write_csv

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


def _check_run(policy: str, n_legs: int, static_split: tuple[int, int] | None, retain_until_swap: bool,
               bin_width_s: float, pass_end_s: float, link: LinkParams, d_max: float) -> None:
    """The run rules of :class:`SimConfig` and of the experiment file, which may leave the split to a search.

    At most ``_MAX_GRID`` bins may run to the last confirmation: at most one round, (m_sat - 1) * T_em plus
    the round trip at ``d_max``, the largest distance of any leg, after ``pass_end_s``.
    """
    if policy not in _POLICIES:
        raise ConfigError(f"unknown policy {policy!r}, want one of {_POLICIES}", "policy")
    want = 1 if policy == "single" else 2
    if n_legs != want:
        raise ConfigError(f"policy {policy} needs {want} leg(s), got {n_legs}", "policy")
    if want == 2 and link.m_sat < 2:
        raise ConfigError(f"policy {policy} shares m_sat between two legs: m_sat must be >= 2, got {link.m_sat}",
                          "policy")
    if static_split is not None:
        if policy != "static":
            raise ConfigError(f"static_split is only meaningful for the static policy, not {policy}",
                              "static_split")
        if min(static_split) < 1 or sum(static_split) != link.m_sat:  # a pair of integers, by _check_fields
            raise ConfigError(f"static_split {tuple(static_split)} must be positive and sum to m_sat={link.m_sat}",
                              "static_split")
    if retain_until_swap and want == 1:
        raise ConfigError("retain_until_swap applies to dual runs only", "retain_until_swap")
    if bin_width_s <= 0.0:
        raise ConfigError(f"bin_width_s must be > 0: {bin_width_s}", "bin_width_s")
    end = pass_end_s + _round_duration(link.m_sat, _round_trip(d_max, link), link)
    if end / bin_width_s > _MAX_GRID:
        raise ConfigError(f"bin_width_s {bin_width_s} makes more than {_MAX_GRID} bins up to {end:g} s, "
                          "the last confirmation time the pass allows", "bin_width_s")


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run.

    ``policy`` is ``single`` (one profile, the whole memory), ``static``
    (two profiles, fixed ``static_split``), or ``dynamic_int`` (two
    profiles, integer-optimal split re-evaluated at every profile sample).
    """

    profiles: tuple[PassProfile, ...]
    link: LinkParams
    policy: str
    rng_seed: int
    static_split: tuple[int, int] | None = None
    bin_width_s: float = 1.0
    drift: bool = True
    capture_rounds: bool = False
    retain_until_swap: bool = False

    def __post_init__(self) -> None:
        _check_fields(self)
        object.__setattr__(self, "profiles", tuple(self.profiles))
        if not self.profiles:
            raise ConfigError("need at least one profile", "profiles")
        grid = self.profiles[0]  # rounds start before the end of its last sample
        _check_run(self.policy, self.n_legs, self.static_split, self.retain_until_swap, self.bin_width_s,
                   float(grid.t_s[0]) + grid.n_samples * grid.step_s, self.link,
                   max(float(p.distance_m.max()) for p in self.profiles))
        for p in self.profiles:  # no round is shorter than the round trip at its start
            with np.errstate(divide="ignore", over="ignore"):
                rounds = float(np.sum(p.step_s / _round_trip(p.distance_m[p.visible], self.link) + 1.0))
            if rounds > _MAX_GRID:
                raise ConfigError(f"leg {p.station} could run {rounds:.6g} rounds, more than {_MAX_GRID}", "link")
        if self.policy == "static" and self.static_split is None:  # an experiment may leave it to the search
            raise ConfigError("static policy needs static_split", "static_split")
        if not 0 <= int(self.rng_seed) < 2**64:
            raise ConfigError(f"rng_seed must fit in 64 bits: {self.rng_seed}", "rng_seed")
        if self.n_legs == 2:
            _check_aligned(self.profiles[0], self.profiles[1])

    @property
    def m_s(self) -> int:
        return int(self.link.m_sat)

    @property
    def n_legs(self) -> int:
        return len(self.profiles)

    def echo_dict(self) -> dict:
        """Provenance echo written next to every result."""
        return {
            "drift": self.drift,
            "retain_until_swap": self.retain_until_swap,
            "static_split": list(self.static_split) if self.static_split else None,
            "stations": [p.station for p in self.profiles],
            "epoch": self.profiles[0].epoch,
            "legs": [asdict(self.link)] * self.n_legs,
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


@dataclass(eq=False)
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
    _tables: tuple[_RoundTable, ...] | None = field(default=None, repr=False)

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
        """Every round, leg by leg, or None when the run did not capture rounds."""
        if self._tables is None:
            return None
        return [Round(*row) for row in _scalar_rows(_table_columns(self._tables))]

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
        """The run's entry in a manifest, whose top level holds the engine version, policy, bin width and config."""
        return {
            "seed": int(self.seed),
            "n_bins": self.n_bins,
            "totals_per_leg": list(self.totals_per_leg),
            "total_end_to_end": self.total_end_to_end,
        }


# --------------------------------------------------------------------------
# the round table and the unbounded-buffer schedule
#
# With an unbounded application buffer the round sequence of a leg is a pure
# function of the profile and the per-sample slot allocation: each round
# starts the instant the previous one confirms, holding the channel state of
# the sample its start falls in.  The analytic validator reads the table of
# that schedule, from the same plan as the runs, which is what makes its
# per-bin moments exact for the engine.


@dataclass
class _RoundTable:
    """One leg's rounds as columns, in the order the leg ran them.

    Per round: ``start``, ``confirm`` and ``successes``.  Per block, a
    maximal run of consecutive rounds sharing (sample, n): the round count
    ``k``, the profile ``sample``, the train length ``n``, the drift-eligible
    count ``eligible`` and the sample's radial velocity ``v_r``.  When the
    run captures, ``outcomes`` holds one string per round.  A table rebuilt
    from a round log by :func:`replay` has one block per round, with ``sample``
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


_ROWS = 8192  # rows per conversion to Python scalars and per chunk of a round log write


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


def _table_columns(tables: Sequence[_RoundTable]) -> tuple:
    """:class:`Round` fields of every round as :func:`_round_columns` gives them, leg by leg."""
    parts = [
        (np.full(t.start.size, leg), np.arange(t.start.size), t.start, np.repeat(t.n, t.k),
         np.repeat(t.v_r, t.k), t.confirm, t.successes)
        for leg, t in enumerate(tables)
    ]
    return (*(np.concatenate(c) for c in zip(*parts)), [o for t in tables for o in t.outcomes])


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
        dt = _round_duration(n, float(t_rt[i]), params)
        block, t = _block_starts(t, dt, i, t_grid0, step, t_end)
        starts.append(block)
        blocks.append((i, n, block.size))
        dts.append(dt)
    sample, n_col, k = np.asarray(blocks, dtype=np.int64).reshape(-1, 3).T
    start = np.concatenate(starts) if starts else np.empty(0)
    v_r = profile.radial_velocity_mps[sample]
    confirm = start + np.repeat(np.asarray(dts, dtype=float), k)
    return _RoundTable(start, confirm, None, k, sample, n_col, _eligible(v_r, n_col, params, drift), v_r)


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


def _draw(table: _RoundTable, eta: np.ndarray, p_bsm: float, rng: np.random.Generator,
          capture: bool) -> tuple[np.ndarray, list[str] | None]:
    """A scheduled table's successes, and outcomes when capturing, drawn a block at a time.

    A drifted photon cannot succeed, so only the first ``eligible`` photons
    of a round are compared; where a round's drifted tail is long, its
    uniforms are skipped with an advance.  Outcome strings pad every round
    with ``D`` past its eligible photons, so capturing changes neither.
    The table itself is only read.
    """
    successes = np.empty(table.start.size, dtype=np.int64)
    outcomes = [] if capture else None
    lo = 0
    for k, i, n, e in zip(*(c.tolist() for c in (table.k, table.sample, table.n, table.eligible))):
        if 2 * (n - e) < _ADVANCE_MIN:
            u = rng.random((k, n, 2))
        else:
            u = np.empty((k, e, 2))
            for row in u:
                rng.random(out=row)
                rng.bit_generator.advance(2 * (n - e))
        ok = (u[:, :e, 0] < eta[i]) & (u[:, :e, 1] < p_bsm)
        successes[lo : lo + k] = ok.sum(axis=1)
        if outcomes is not None:
            chars = _outcome_chars(ok, n)
            outcomes.extend(chars[j * n : (j + 1) * n] for j in range(k))
        lo += k
    return successes, outcomes


def _bin_counts(times: np.ndarray, weights: np.ndarray, width: float, n_bins: int) -> np.ndarray:
    """Sum ``weights`` into bins of ``width`` starting at t = 0, in the weights' dtype."""
    out = np.zeros(n_bins, dtype=weights.dtype)
    if times.size:
        np.add.at(out, np.floor_divide(times, width).astype(np.int64), weights)
    return out


def _capacity_series(config: SimConfig) -> list[np.ndarray]:
    """Per-sample satellite slot share for each leg under the policy, as int64."""
    if config.policy == "dynamic_int":
        alloc = allocation_series(*config.profiles, config.link)
        return [alloc.m_A_int, alloc.m_B_int]
    shares = config.static_split or (config.m_s,)  # single: the whole memory
    return [np.full(config.profiles[0].n_samples, m, dtype=np.int64) for m in shares]


@dataclass(frozen=True)
class _Plan:
    """What no seed changes: each leg's slot shares and, unless retaining, its schedule without successes."""

    caps: tuple[np.ndarray, ...]
    schedules: tuple[_RoundTable, ...] | None


def _plan(config: SimConfig, caps: Sequence[np.ndarray] | None = None) -> _Plan:
    """The plan of ``config`` at any seed and capture setting; ``caps`` are shares already allocated."""
    caps = tuple(_capacity_series(config) if caps is None else caps)
    return _Plan(caps, None if config.retain_until_swap else
                 tuple(_leg_schedule(p, config.link, cap, config.drift) for p, cap in zip(config.profiles, caps)))


# --------------------------------------------------------------------------
# run entry points


def run(config: SimConfig, *, plan: _Plan | None = None) -> SimResult:
    """Simulate the config's legs and, for two legs, the onboard swaps under its policy.

    ``plan``, built by :func:`_plan` for this config at any seed, saves building it again.
    """
    plan = _plan(config) if plan is None else plan
    return _run_dual_event(config, plan) if config.retain_until_swap else _run_scheduled(config, plan)


def _result(config: SimConfig, tables: Sequence[_RoundTable]) -> SimResult:
    """Bin each leg's confirmations and the swaps; keep the tables if they hold outcomes.

    The i-th end-to-end pair appears at the later of the two legs' i-th
    confirmed pairs, so no swap falls past the last confirmation's bin.
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
        _tables=tuple(tables) if tables[0].outcomes is not None else None,
    )


def _run_scheduled(config: SimConfig, plan: _Plan) -> SimResult:
    """Unbounded-buffer run of one or two legs: legs are independent given the plan's schedules."""
    tables = []
    for leg, table in enumerate(plan.schedules):
        successes, outcomes = _draw(table, config.profiles[leg].eta, config.link.p_bsm,
                                    _leg_rng(config.rng_seed, leg), config.capture_rounds)
        tables.append(replace(table, successes=successes, outcomes=outcomes))  # the plan's table stays bare
    return _result(config, tables)


# photons per PCG64 draw and per success window, per leg
_CHUNK_ROWS = 2**12
_WINDOW_ROWS = 2048


class _PhotonStream:
    """One leg's photons: uniforms drawn a chunk ahead, read a window of at least ``_WINDOW_ROWS`` at one ``eta``."""

    __slots__ = ("rng", "u", "pos", "passed", "limits")

    def __init__(self, rng: np.random.Generator, max_n: int, p_bsm: float) -> None:
        self.rng = rng
        self.u = np.empty((_CHUNK_ROWS + max_n, 2))  # row = (loss, latch) uniforms
        self.pos = self.u.shape[0]  # row of the window's first photon; nothing drawn yet
        # per-window buffers, reused: temporaries raised a run's peak RSS by about 1 MiB, and
        # converting the thresholds to an array took a third of a window's time
        self.passed = np.empty((2, max(_WINDOW_ROWS, max_n)), dtype=bool)
        self.limits = np.array([[0.0], [p_bsm]])  # (channel, latch) thresholds

    def window(self, used: int, n: int, eta: float) -> list[int]:
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
        self.limits[0, 0] = eta
        passed = np.less(u.T, self.limits, out=self.passed[:, : len(u)])  # channel, latch
        ok = passed[0]
        ok &= passed[1]
        hits = ok.nonzero()[0].tolist()
        hits.append(ok.size)
        return hits


def _run_dual_event(config: SimConfig, plan: _Plan) -> SimResult:
    """Event-driven dual run used when confirmed pairs retain their slots.

    The legs interact through the swap (a confirmation on one leg can free
    slots on both), so rounds cannot be prescheduled: the loop appends each
    round to its leg's table as it starts.  Events are taken in (time,
    confirmation-before-start, leg) order; a leg blocked on slots wakes at
    the partner's next confirmation or the next sample boundary.  A leg has
    at most one round in flight, so at a start its free slots are its
    allocation minus its buffered pairs; an allocation never exceeds
    m_sat <= m_ground, so that is the train length.  Swaps are consumed here
    for slot accounting only; their times follow from the confirmations.

    A picked leg runs ahead of that order while its partner cannot change
    what it does.  After every confirmation one leg holds no pair, and no
    swap involves a leg holding none, so such a leg's round with no success
    confirms with no effect: it starts its next round at once (a partner
    waking at that confirmation would only block again).  Otherwise it
    takes its confirmation at once when the partner is done or acts later,
    and then its next start unless the partner confirms at that instant.
    Each leg so runs the rounds of the strict order.

    Most rounds have no success, and one start sets up a run of them: while
    the sample, and so n and eligible, stay fixed, the rounds at offsets
    o, o + n, ... of the window are cut alike, so the first hit h with
    ``(h - o) % n < eligible`` (else the window's end) is preceded by
    ``(h - o) // n`` rounds without a success.  They run in one tight loop,
    each starting at the last one's confirmation, until one is left, the
    next start leaves the sample or reaches the pass end, or, while the leg
    holds pairs, a confirmation reaches the partner's next event; the round
    holding the hit then runs as a single round.

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

    lk = config.link
    # per leg, the round table as the loop builds it: start, confirm and
    # successes per round, (first round, sample, n) per block
    tables = [(array("d"), array("d"), array("q"), []) for _ in range(2)]
    # per leg, its constants and per-sample lookups as plain lists (hot loop), its stream and its table
    lanes = [
        (p.eta.tolist(), _round_trip(p.distance_m, lk).tolist(), _next_true(np.asarray(p.visible, dtype=bool)).tolist(),
         cap.tolist(), _eligible(p.radial_velocity_mps, lk.m_sat, lk, config.drift).tolist(), lk.emission_period_s,
         _PhotonStream(_leg_rng(config.rng_seed, leg), config.m_s, lk.p_bsm), *table)
        for leg, (p, cap, table) in enumerate(zip(profiles, plan.caps, tables))
    ]

    # leg state: next event time, whether it is a confirmation, finished,
    # confirmed pairs awaiting a swap
    ev, confirming, done, buffered = [t_grid0] * 2, [False] * 2, [False] * 2, [0, 0]
    # per leg, kept while the other runs: its window's hits, the pointer past
    # those before offset off, sample, photons emitted and size; its block's sample and n
    held = [([0], 0, -1, 0, 0, -1, -1)] * 2

    while True:
        if done[0] and done[1]:
            break
        ahead0 = ev[0] < ev[1] or (ev[0] == ev[1] and (confirming[0] or not confirming[1]))
        leg = 0 if not done[0] and (done[1] or ahead0) else 1
        other = 1 - leg
        # the leg's lookups, table and stream's window, held in locals while it runs
        eta_l, rt_l, vis_l, alloc_l, cap_l, t_em, stream, start_l, conf_l, succ_l, block_l = lanes[leg]
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
            n = alloc_l[i] - buffered[leg]
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
                hits = stream.window(off, n, eta_l[i])
                h, w_sample, off, size = 0, i, 0, hits[-1]
            while hits[h] < off:  # pass the hits of the last round's drifted tail
                h += 1
            # analytics._round_duration written out for speed: test_event_loop_matches_strict_order_reference
            # holds these confirm times, and the schedule's, which calls the kernel, bitwise to one reference
            dt = (n - 1) * t_em + rt_l[i]
            if i != block_i or n != block_n:
                block_i, block_n = i, n
                block_l.append((len(start_l), i, n))
            g = h  # the first hit in some round's eligible prefix, else the window's end
            while hits[g] < size and (hits[g] - off) % n >= eligible:
                g += 1
            q = (hits[g] - off) // n  # rounds before it: none has a success
            if q:
                # a leg holding pairs takes its confirmation as an event once the partner acts first
                lim = ev[other] if buffered[leg] and not done[other] else math.inf
                stop = lim if lim < t_end else t_end
                first, fits = len(start_l), False
                for _ in range(q):
                    start_l.append(t)
                    t += dt
                    if t >= stop or (t - t_grid0) // step != i:  # the start test above, without int()
                        break
                else:
                    fits = off + (q + 1) * n <= size  # the hit's round starts next, inside the window
                ran = len(start_l) - first  # each confirms at the next one's start
                conf_l.extend(start_l[first + 1 :])
                conf_l.append(t)
                succ_l.extend([0] * ran)
                off += ran * n
                if t >= lim:
                    confirming[leg] = True
                    ev[leg] = t
                    break
                if not fits:
                    continue  # the next start leaves the sample or the window, or ends the pass: from the top
            # the round holding hit g, which succeeds
            h = g + 1
            end = off + eligible
            while hits[h] < end:
                h += 1
            off += n
            # a leg's rounds confirm in the order they start
            start_l.append(t)
            t += dt
            conf_l.append(t)
            succ_l.append(h - g)
            confirming[leg] = True
            ev[leg] = t
            # run ahead while the confirmation is next in event order anyway
            if not (done[other] or t < ev[other]):
                break
        held[leg] = hits, h, w_sample, off, size, block_i, block_n

    for leg, (p, (start, confirm, succ, block_l)) in enumerate(zip(profiles, tables)):
        first, sample, n_col = np.asarray(block_l, dtype=np.int64).reshape(-1, 3).T
        start, v_r = np.asarray(start), p.radial_velocity_mps[sample]
        table = tables[leg] = _RoundTable(
            start, np.asarray(confirm), np.asarray(succ), np.diff(first, append=start.size),
            sample, n_col, _eligible(v_r, n_col, lk, config.drift), v_r,
        )
        if config.capture_rounds:  # the leg's stream drawn again over its finished table: the photons it used
            _, table.outcomes = _draw(table, p.eta, lk.p_bsm, _leg_rng(config.rng_seed, leg), True)
    return _result(config, tables)


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


def replay(config: SimConfig, log: RoundLog) -> SimResult:
    """Rebuild per-bin counts from a round log, as :func:`read_round_log` returns it, without re-simulating.

    Each leg's rounds are taken in (confirm, index) order and swaps are
    rebuilt with the engine's first-in-first-out rule, which reproduces both
    buffer modes exactly.  The result's rounds run leg by leg, numbered in
    that order, as a run's do; so a log in any row order, such as an older
    retained log's (confirm, leg, index), rewrites to the run's own log.
    A log from another engine version, or whose header names another seed, policy or bin width than
    ``config``, is refused, and so is a round that confirms before t = 0 or past the ``_MAX_GRID``
    bins every run stays within.
    """
    if not isinstance(log, RoundLog):
        raise ReplayError(f"replay takes a RoundLog from read_round_log, got {type(log).__name__}")
    if log.engine_version != ENGINE_VERSION:
        raise ReplayError(f"log from engine {log.engine_version!r}, this is {ENGINE_VERSION!r}")
    for name, logged, wanted in (("rng_seed", log.seed, config.rng_seed), ("policy", log.policy, config.policy),
                                 ("bin_width_s", log.bin_width_s, config.bin_width_s)):
        if logged != wanted:
            raise ReplayError(f"log header has {name} {logged!r}, config has {wanted!r}")
    leg, index, start, n, v_r, conf, succ, outcomes = log._columns
    stray = np.flatnonzero(leg >= config.n_legs)
    if stray.size:
        raise ReplayError(f"round references leg {leg[stray[0]]} of a {config.n_legs}-leg config")
    late = np.flatnonzero(~((conf >= 0.0) & (conf <= _MAX_GRID * config.bin_width_s)))
    if late.size:
        j = late[0]
        raise ReplayError(f"leg {leg[j]} round {index[j]} confirms at {conf[j]} s, outside the "
                          f"{_MAX_GRID} bins of {config.bin_width_s} s from t = 0")
    tables = []
    for i in range(config.n_legs):
        mine = np.flatnonzero(leg == i)
        order = mine[np.lexsort((index[mine], conf[mine]))]
        unknown = np.full(order.size, -1)
        tables.append(_RoundTable(
            start[order], conf[order], succ[order], np.ones(order.size, dtype=np.int64), unknown,
            n[order], unknown, v_r[order], [outcomes[j] for j in order.tolist()],
        ))
    return _result(config, tables)


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
_LOG_TEXTS = _LOG_RECORD.split("%s")  # the fixed texts around the record's slots
_LOG_QUOTES = (_LOG_OUTCOMES % '"%s"').split("%s")  # and around a string that needs no escaping


def _plain(texts: list) -> bool:
    """Whether ``texts`` are ASCII strings that JSON writes as they are, between quotes."""
    if None in texts or not (text := "".join(texts)).isascii():
        return False
    return '"' not in text and "\\" not in text and not (np.frombuffer(text.encode(), np.uint8) < 32).any()


def _record_text(leg: int, t: _RoundTable, ends: np.ndarray, lo: int, hi: int) -> str:
    """Records ``lo:hi`` of leg ``leg``, whose blocks of ``t`` end at ``ends``, as the log's text, in one join.

    ``repr`` runs once per start time; a confirm time bitwise equal to the next start reuses its text, and
    a block's train length and v_r make one fixed tail.  The outcomes' quotes join the fixed text unless
    one is None or needs escaping.
    """
    head, to_index, to_leg, to_succ, to_member, to_start, to_n, to_v_r, end = _LOG_TEXTS
    s, conf = t.start[lo : hi + 1], t.confirm[lo:hi]  # one start past the chunk, the last confirm time's next
    starts = list(map(repr, s.tolist()))
    confs = starts[1:] + [""]  # the last entry is past the chunk or filled below
    fresh = np.append(conf[: s.size - 1].view(np.int64) != s[1:].view(np.int64), True)[: hi - lo]
    for i, x in zip(np.flatnonzero(fresh).tolist(), conf[fresh].tolist()):
        confs[i] = repr(x)
    b0, b1 = np.searchsorted(ends, [lo, hi - 1], side="right").tolist()
    tails = [f"{to_n}{n}{to_v_r}{v!r}{end}" for n, v in zip(t.n[b0 : b1 + 1].tolist(), t.v_r[b0 : b1 + 1].tolist())]
    counts = np.diff(np.clip(ends[b0 : b1 + 1], lo, hi), prepend=lo).tolist()
    outs = t.outcomes[lo:hi]
    if _plain(outs):
        before, after = to_member + _LOG_QUOTES[0], _LOG_QUOTES[1] + to_start
    else:
        before, after = to_member, to_start
        outs = ["" if o is None else _LOG_OUTCOMES % encode_basestring(o) for o in outs]
    return "".join(chain.from_iterable(zip(
        repeat(head), confs, repeat(to_index), map(str, range(lo, hi)), repeat(f"{to_leg}{leg}{to_succ}"),
        map(str, t.successes[lo:hi].tolist()), repeat(before), outs, repeat(after), starts,
        chain.from_iterable(map(repeat, tails, counts)),
    )))


def write_round_log(result: SimResult, destination: str | Path | TextIO) -> None:
    """Write the round log as newline-delimited JSON, one header then one record per round.

    Records follow the order of ``result.rounds`` and list their keys sorted, numbers as ``repr``
    writes them and outcomes JSON-escaped; they are formatted leg by leg, ``_ROWS`` rounds at a time.
    """
    if result._tables is None:
        raise ConfigError("result has no round log; run with capture_rounds=True")
    with _text_io(destination, "w") as (fh, _):
        header = dict(engine_version=ENGINE_VERSION, seed=int(result.seed),
                      policy=result.policy, bin_width_s=result.bin_width_s)
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for leg, t in enumerate(result._tables):
            ends = np.cumsum(t.k)
            for lo in range(0, t.start.size, _ROWS):
                fh.write(_record_text(leg, t, ends, lo, min(lo + _ROWS, t.start.size)))


# the keys of a round log record and the types of their Round fields
_LOG_FIELDS = dict(leg=int, index=int, start_time_s=float, train_length=int,
                   v_r_at_start_mps=float, confirm_time_s=float, n_success=int)
_ROUND_FIELDS = {**_LOG_FIELDS, "outcomes": str}


def _field_fault(kind: type, value, top: int = 2**63) -> str | None:
    """What keeps ``value`` out of a round log's ``kind`` column, or None.

    An ``int`` value is an int (not a bool) in [0, top), a ``float`` value a finite int or
    float, and a ``str`` value (the outcomes) a str or None.  Nothing is coerced.
    """
    if kind is str:
        return None if isinstance(value, (str, type(None))) else "is not a string"
    if type(value) not in (int, kind):
        return "is not an integer" if kind is int else "is not a number"
    if kind is int:
        return "is negative" if value < 0 else None if value < top else "does not fit a 64-bit column"
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
_LOG_PAD = 64  # spaces after a block's bytes, so that every window gathered from them fits
_FLOAT_WIDTH = 32  # the widest float text the byte path reads; repr writes at most 24 characters
_POW10 = 10 ** np.arange(17, -1, -1)  # place values of an integer of at most 18 digits, which fits an int64
_BLOCK = 2**19  # characters per read of a round log, which then reads on to the end of the line


def _windows(b: np.ndarray, width: int) -> np.ndarray:
    """Every ``width``-byte window of ``b``, the i-th starting at byte i, as one read-only view."""
    return np.ndarray((b.size - width + 1, width), np.uint8, b, 0, (1, 1))


def _int_values(b: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray | None:
    """The integers in ``b[s:e]`` per row, if each is ``0|[1-9][0-9]{0,17}``, else None."""
    w = e - s
    if not ((w >= 1) & (w <= _POW10.size) & ((b[s] != 48) | (w == 1))).all():
        return None
    width = int(w.max())
    # each text right-aligned in a row of digit values, zeros before it; uint8 wraps below "0"
    digits = (_windows(b, width)[e - width] - 48) * (np.arange(width) >= width - w[:, None])
    return None if (digits >= 10).any() else digits @ _POW10[-width:]


def _layout_columns(text: str) -> tuple | None:
    """:func:`_round_columns` columns of record lines in the writer's layout, else None.

    The lines must be ASCII without a backslash, and each must hold outcomes.  Their quotes
    and control characters locate every fixed piece, and one compare per piece checks it, so
    the only control characters are the newlines.  Integers of at most 18 digits are parsed
    exactly.  Float texts are gathered into rows of one width; if all are of number characters,
    the JSON scanner parses them in one call, checking JSON's number grammar, and each must read
    as one finite number.  A start time equal to the previous row's confirm time, or a v_r equal
    to the previous row's, is parsed once.
    """
    if not text.isascii() or "\\" in text:
        return None
    b = np.frombuffer((text if text.endswith("\n") else text + "\n").encode() + b" " * _LOG_PAD, np.uint8)
    delims = np.flatnonzero((b == 34) | (b < 32))  # a control character other than a newline fails a compare
    n = delims.size // _LOG_DELIMS
    if delims.size != n * _LOG_DELIMS:
        return None
    pos = delims.reshape(n, _LOG_DELIMS)
    starts = [pos[:, k] - off for _, k, off in _LOG_PIECES]
    if not (starts[0] == np.r_[0, pos[:-1, -1] + 1]).all():  # the first piece starts its line
        return None
    for (piece, _, _), s in zip(_LOG_PIECES, starts):
        if not (_windows(b, piece.size)[s] == piece).all():
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
    conf, start, v_r = (_windows(b, width)[s] * (np.arange(width) < (e - s)[:, None])
                        for s, e in (conf, start, v_r))
    new_start = np.r_[True, (start[1:] != conf[:-1]).any(1)]
    new_v_r = np.r_[True, (v_r[1:] != v_r[:-1]).any(1)]
    texts = np.concatenate((conf, start[new_start], v_r[new_v_r])).view(f"S{width}")[:, 0]
    joined = b",".join(texts.tolist())
    if joined.translate(None, b"0123456789.eE+-,"):  # a character no JSON number holds
        return None
    try:  # JSON reads "-0" as the integer 0, as the per-row path does
        values = np.array(_json_object(f'{{"v": [{joined.decode()}]}}', "float texts")["v"], dtype=np.float64)
    except DataFormatError:
        return None
    if values.size != texts.size or not np.isfinite(values).all():  # a comma in a text adds a value
        return None
    nums["confirm_time_s"] = values[:n]
    nums["start_time_s"] = values[np.where(new_start, n + np.cumsum(new_start) - 1, np.arange(n) - 1)]
    nums["v_r_at_start_mps"] = values[n + np.count_nonzero(new_start) + np.cumsum(new_v_r) - 1]
    outcomes = [text[i:j] for i, j in zip(*(c.tolist() for c in slots["outcomes"]))]
    return (*map(nums.get, _LOG_FIELDS), outcomes)


_WANTS = {int: "an integer >= 0", float: "a finite number", str: "a string"}
# a log header's keys and value kinds; its seed may be any rng_seed, below 2**64
_HEADER_FIELDS = {"engine_version": str, "seed": int, "policy": str, "bin_width_s": float}


def _log_round(rec: dict, where: str, row: int) -> Round:
    """The round of one log record: integers in [0, 2**63), finite numbers, string outcomes."""
    fields = {}
    for key, kind in _ROUND_FIELDS.items():
        if _field_fault(kind, value := rec.get(key)):
            raise DataFormatError(f"{where}: row {row}: {key} must be {_WANTS[kind]}, got {value!r}")
        fields[key] = float(value) if kind is float else value
    return Round(**fields)


def _log_rows(lines: Sequence[str], where: str, row: int) -> list[Round]:
    """The rounds of record lines read one by one as JSON, the first at ``row``; blank lines skip."""
    return [_log_round(_json_object(line, where, r, _LOG_FIELDS), where, r)
            for r, line in enumerate(lines, start=row) if line.strip()]


def _log_chunk(text: str, where: str, row: int) -> tuple:
    """Columns of record lines, the first at ``row``: by :func:`_layout_columns`, else by :func:`_log_rows`."""
    columns = _layout_columns(text)  # the per-row path splits at "\n" only, as a file is iterated
    return _round_columns(_log_rows(io.StringIO(text).readlines(), where, row)) if columns is None else columns


def read_round_log(source: str | Path | TextIO) -> RoundLog:
    """Read a round log in blocks of ``_BLOCK`` characters; a bad row raises DataFormatError citing it."""
    with _text_io(source, "r") as (fh, where):
        first = fh.readline()
        if not first.strip():
            raise DataFormatError(f"{where}: empty round log")
        header = _json_object(first, where, 1, _HEADER_FIELDS)
        for key, kind in _HEADER_FIELDS.items():
            if (value := header[key]) is None or _field_fault(kind, value, 2**64):
                raise DataFormatError(f"{where}: row 1: {key} must be {_WANTS[kind]}, got {value!r}")
        chunks, row = [_round_columns(())], 2
        while text := fh.read(_BLOCK):
            text += fh.readline()  # the rest of the block's last line
            chunks.append(_log_chunk(text, where, row))
            row += text.count("\n")
    *nums, outcomes = zip(*chunks)
    return RoundLog(header["engine_version"], header["seed"], header["policy"], float(header["bin_width_s"]),
                    (*map(np.concatenate, nums), list(chain.from_iterable(outcomes))))
