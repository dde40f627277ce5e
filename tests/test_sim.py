"""Discrete-event engine: protocol invariants, determinism, replay, buffer modes."""

from __future__ import annotations

import collections
import copy
import dataclasses
import hashlib
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satqlink import (
    ConfigError,
    DataFormatError,
    LinkParams,
    NoOverlapError,
    ReplayError,
    Round,
    SimConfig,
    allocation_series,
    compare,
    predict_bin_moments,
    read_round_log,
    read_sim_csv,
    replay,
    run,
    write_round_log,
    write_sim_csv,
)
from satqlink import sim as sim_mod
from satqlink.experiment import load_experiment

from conftest import DEMO_SPEC, LOG_HEADER_COERCIONS, constant_profile, make_profile, unimodal_pair

T_RT = 0.004  # realized by the constant profile's distance


def link(m_sat=10, p=0.5, w=1.5e-9, t_em=1e-6) -> LinkParams:
    return LinkParams(
        m_sat=m_sat, emission_period_s=t_em, acceptance_window_s=w, p_bsm=p
    )


def single_config(
    n_s=10, eta=1.0, m_sat=10, p=1.0, v_r=0.0, seed=1, drift=True, capture=False, bin_w=1.0
) -> SimConfig:
    profile = constant_profile(n_s, eta, T_RT, v_r_mps=v_r)
    return SimConfig(
        profiles=(profile,),
        link=link(m_sat=m_sat, p=p),
        policy="single",
        rng_seed=seed,
        bin_width_s=bin_w,
        drift=drift,
        capture_rounds=capture,
    )


def test_lossless_channel_is_deterministic():
    # eta = 1, p_bsm = 1: every eligible photon becomes a pair
    result = run(single_config(capture=True))
    assert result.rounds
    assert all(r.n_success == r.train_length == 10 for r in result.rounds)
    assert result.totals_per_leg[0] == 10 * len(result.rounds)
    # back-to-back rounds, each lasting the emission train plus the round trip
    round_period = 9 * 1e-6 + T_RT
    assert len(result.rounds) == pytest.approx(10.0 / round_period, abs=1.0)


def test_lossy_channel_counts_less():
    full = run(single_config(p=1.0)).totals_per_leg[0]
    half = run(single_config(p=0.5)).totals_per_leg[0]
    assert 0 < half < full
    assert half == pytest.approx(full / 2, rel=0.1)


def test_drift_cap_truncates_trains():
    # floor(w c / (|v_r| T_em)) = 64 at 6998 m/s; first photon never drifts
    result = run(single_config(m_sat=100, v_r=6998.0, capture=True))
    assert all(r.n_success == 65 for r in result.rounds)
    assert all(r.train_length == 100 for r in result.rounds)
    if result.rounds[0].outcomes:
        out = result.rounds[0].outcomes
        assert out == "S" * 65 + "D" * 35


def test_drift_cap_inactive_below_bound():
    result = run(single_config(m_sat=50, v_r=6998.0, capture=True))
    assert all(r.n_success == 50 for r in result.rounds)


def test_drift_off_ignores_radial_velocity():
    result = run(single_config(m_sat=100, v_r=6998.0, drift=False, capture=True))
    assert all(r.n_success == 100 for r in result.rounds)


def test_negative_v_r_drifts_identically():
    a = run(single_config(m_sat=100, v_r=6998.0))
    b = run(single_config(m_sat=100, v_r=-6998.0))
    assert np.array_equal(a.pairs_per_leg[0], b.pairs_per_leg[0])


def test_rounds_start_only_in_visible_samples():
    eta = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    profile = make_profile(eta, distance_m=np.full(10, T_RT * 299792458.0 / 2))
    config = SimConfig(
        profiles=(profile,), link=link(p=1.0), policy="single",
        rng_seed=3, capture_rounds=True,
    )
    result = run(config)
    for r in result.rounds:
        assert profile.visible[profile.index_at(r.start_time_s)]
    # the dark gap contributes no confirmations from rounds started inside it
    starts = {profile.index_at(r.start_time_s) for r in result.rounds}
    assert starts.isdisjoint({2, 3, 6})


def test_sim_config_validation():
    profile = constant_profile(5, 0.5, T_RT)
    good = link()
    with pytest.raises(ConfigError):
        SimConfig(profiles=(profile,), link=good, policy="bogus", rng_seed=0)
    with pytest.raises(ConfigError):
        SimConfig(profiles=(profile,), link=good, policy="static", rng_seed=0,
                  static_split=(5, 5))  # static needs two legs
    with pytest.raises(ConfigError):
        SimConfig(profiles=(profile,), link=good, policy="single", rng_seed=-1)
    with pytest.raises(ConfigError, match="integer"):
        SimConfig(profiles=(profile,), link=good, policy="single", rng_seed=1.5)
    with pytest.raises(ConfigError):
        SimConfig(profiles=(profile,), link=good, policy="single", rng_seed=0,
                  retain_until_swap=True)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="bin_width_s is not finite"):
            SimConfig(profiles=(profile,), link=good, policy="single", rng_seed=0,
                      bin_width_s=bad)
        with pytest.raises(ConfigError, match="rng_seed is not finite"):
            SimConfig(profiles=(profile,), link=good, policy="single", rng_seed=bad)
    pair = (profile, constant_profile(5, 0.5, T_RT, station="d"))
    with pytest.raises(ConfigError):
        SimConfig(profiles=pair, link=good, policy="static", rng_seed=0,
                  static_split=(4, 5))
    # the bins run to the last confirmation: at most the longest round past the 5 s pass
    slow = dataclasses.replace(good, processing_delay_s=1e300)
    for lk, width, end in ((slow, 1.0, "1e+300"), (good, 5e-6, "5.00401")):
        with pytest.raises(ConfigError, match=re.escape(f"bin_width_s {width} makes more than 1000000 bins "
                                                        f"up to {end} s")):
            SimConfig(profiles=pair, link=lk, policy="dynamic_int", rng_seed=0, bin_width_s=width)


def test_sim_config_refuses_a_bool_seed():
    profile = constant_profile(5, 0.5, T_RT)
    for seed in (True, False):
        with pytest.raises(ConfigError, match="rng_seed must be an integer") as got:
            SimConfig(profiles=(profile,), link=link(), policy="single", rng_seed=seed)
        assert got.value.field == "rng_seed"


def test_sim_config_bounds_the_rounds_of_a_leg():
    # no round is shorter than the round trip at its start sample: at most step_s / t_rt + 1 rounds per
    # visible sample; over 10 samples, t_rt 1e-5 s allows 1,000,010 rounds and 1.1e-5 s allows 909,100
    for t_rt, refused in ((1e-5, True), (1.1e-5, False), (1e-300, True)):
        profile = constant_profile(10, 0.5, t_rt)
        if refused:
            with pytest.raises(ConfigError, match="leg const could run .* rounds, more than 1000000") as info:
                SimConfig(profiles=(profile,), link=link(m_sat=1), policy="single", rng_seed=0)
            assert info.value.field == "link"
        else:
            SimConfig(profiles=(profile,), link=link(m_sat=1), policy="single", rng_seed=0)


def dual_config(policy="dynamic_int", seed=5, m_sat=10, retain=False, capture=False,
                split=None, n=40):
    rng = np.random.default_rng(seed + 1000)
    pa, pb = unimodal_pair(rng, n=n)
    lk = link(m_sat=m_sat)
    return SimConfig(
        profiles=(pa, pb), link=lk, policy=policy, rng_seed=seed,
        static_split=split, retain_until_swap=retain, capture_rounds=capture,
    )


def test_dual_swap_total_is_min_of_legs():
    for seed in range(4):
        result = run(dual_config(seed=seed))
        a, b = result.totals_per_leg
        assert result.total_end_to_end == min(a, b)


def _assert_same_counts(a, b, case):
    for leg in range(2):
        assert np.array_equal(a.pairs_per_leg[leg], b.pairs_per_leg[leg]), case
    assert np.array_equal(a.pairs_end_to_end, b.pairs_end_to_end), case


def test_dual_scheduled_runs_match_strict_order_reference():
    # unbounded dual runs take the scheduled path, which draws whole blocks of rounds; the reference
    # draws photons in chunks and windows: equal counts, tables and rounds mean equal streams
    for seed in range(6):
        for policy, split in (("dynamic_int", None), ("static", (4, 6))):
            _assert_run_matches_reference(dual_config(policy=policy, seed=seed, split=split, capture=True))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(config=_event_loop_cases(max_samples=60, retain=st.just(False), capture=st.just(True)))
    def agree(config):
        _assert_run_matches_reference(config)

    agree()


def test_fractional_step_grid_terminates():
    # on a 0.1 s grid 0.5 // 0.1 == 4.0: the start of sample 5 floors into
    # sample 4, so a leg jumping over a gap to it, or waking there from a
    # blocked start, must be placed just after it to ever leave sample 4
    assert sim_mod._sample_start(5, 0.0, 0.1) > 0.5
    eta = np.full(20, 0.5)
    gap = np.ones(20, dtype=bool)
    gap[3:5] = False
    pa = make_profile(eta, gap, station="a", step_s=0.1)
    pb = make_profile(eta, np.ones(20, dtype=bool), station="b", step_s=0.1)
    lk = link(m_sat=10)
    for policy, split in (("dynamic_int", None), ("static", (4, 6))):
        for retain in (False, True):
            config = SimConfig(profiles=(pa, pb), link=lk, policy=policy,
                               rng_seed=1, static_split=split, retain_until_swap=retain,
                               capture_rounds=True)
            samples = {int(r.start_time_s // 0.1) for r in run(config).rounds if r.leg == 0}
            assert 5 in samples and not samples & {3, 4}, (policy, retain)


def _reference_eligible(v_r, n, params, drift):
    """Photons of n-photon trains that can latch: min(floor(w * c / (|v_r| * T_em)) + 1, m_sat, n), or min(m_sat, n)."""
    with np.errstate(divide="ignore", over="ignore"):
        bound = params.acceptance_window_s * params.light_speed_mps / (np.abs(v_r) * params.emission_period_s)
    cap = np.minimum(np.floor(bound) + 1.0, float(params.m_sat)) if drift else np.full(np.shape(v_r), params.m_sat)
    return np.minimum(cap, n).astype(np.int64)


def _reference_schedule(profile, params, capacity, drift):
    """The walk of ``sim._leg_schedule`` one round at a time: start, confirm and per-block columns."""
    t_grid0, step, n_samples = float(profile.t_s[0]), profile.step_s, profile.n_samples
    cover_end = t_grid0 + n_samples * step
    t_rt = 2.0 * profile.distance_m / params.light_speed_mps + params.processing_delay_s
    eligible_sample = profile.visible & (capacity >= 1)
    nxt = sim_mod._next_true(eligible_sample)
    starts, confirms, blocks = [], [], []
    t = sim_mod._sample_start(int(nxt[0]), t_grid0, step)
    while t < cover_end - 1e-12:
        i = int((t - t_grid0) // step)
        if i >= n_samples:
            break
        if not eligible_sample[i]:
            j = int(nxt[i])
            if j >= n_samples:
                break
            t = sim_mod._sample_start(j, t_grid0, step)
            continue
        n = min(int(capacity[i]), int(params.m_ground))
        dt = (n - 1) * params.emission_period_s + float(t_rt[i])
        first = len(starts)
        starts.append(t)
        t += dt
        while t < cover_end - 1e-12 and int((t - t_grid0) // step) == i:
            starts.append(t)
            t += dt
        confirms += [s + dt for s in starts[first:]]
        blocks.append((len(starts) - first, i, n))
    k, sample, n_col = np.asarray(blocks, dtype=np.int64).reshape(-1, 3).T
    eligible = _reference_eligible(profile.radial_velocity_mps[sample], n_col, params, drift)
    return dict(start=np.asarray(starts, dtype=float), confirm=np.asarray(confirms, dtype=float),
                k=k, sample=sample, n=n_col, eligible=eligible)


@st.composite
def _schedule_cases(draw):
    """One leg: a random pass on a fractional or whole step grid, per-sample slot shares, a link."""
    n = draw(st.integers(2, 30))
    step = draw(st.sampled_from((0.1, 0.3, 0.7, 1.0, 1 / 3, 0.05)) | st.floats(0.01, 1.0))
    visible = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    m_sat = draw(st.integers(1, 60))
    lk = LinkParams(m_sat=m_sat, m_ground=m_sat + draw(st.integers(0, 5)),
                    emission_period_s=draw(st.sampled_from((1e-6, 7e-5, 2.0**-20))),
                    acceptance_window_s=draw(st.floats(1e-11, 1.5e-9)), p_bsm=0.5,
                    processing_delay_s=0.0)
    if draw(st.booleans()):
        # round trips that divide the step, or exact binary fractions: starts
        # land on sample edges and on values such as 0.5, which floor
        # division puts in sample 4 of a 0.1 s grid and true division in 5
        t_rt = step / draw(st.integers(1, 40)) if draw(st.booleans()) else 2.0 ** -draw(st.integers(1, 6))
        distance = np.full(n, t_rt * lk.light_speed_mps / 2)
    else:
        distance = draw(st.lists(st.floats(3e5, 2e6), min_size=n, max_size=n))
    profile = make_profile(np.full(n, 0.5), visible, distance_m=distance,
                           v_r_mps=draw(st.lists(st.floats(-8e3, 8e3), min_size=n, max_size=n)),
                           step_s=step)
    t0 = draw(st.sampled_from((0.0, 0.1, 12.3, 1e4)))
    profile = dataclasses.replace(profile, t_s=profile.t_s + t0)
    # shares above m_ground are cut to it; a zero share is a gap like an invisible sample
    capacity = np.asarray(draw(st.lists(st.integers(0, 2 * lk.m_ground), min_size=n, max_size=n)))
    if draw(st.booleans()):  # one-photon trains: a round lasts exactly the round trip
        capacity = np.minimum(capacity, 1)
    return profile, lk, capacity, draw(st.booleans())


def _exact_round_trip_case(step, t_rt):
    """One-photon trains whose round trip is an exact binary fraction: starts hit 0.5, 1.0, ... exactly."""
    lk = LinkParams(m_sat=1, emission_period_s=1e-6, acceptance_window_s=1e-9, p_bsm=0.5)
    profile = make_profile(np.full(20, 0.5), np.ones(20, dtype=bool),
                           distance_m=np.full(20, t_rt * lk.light_speed_mps / 2), step_s=step)
    return profile, lk, np.ones(20, dtype=np.int64), True


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_schedule_cases())
@example(case=_exact_round_trip_case(0.1, 0.0625))
@example(case=_exact_round_trip_case(0.1, 0.03125))
@example(case=_exact_round_trip_case(0.3, 0.0625))
def test_schedule_walk_matches_round_by_round_reference(case):
    profile, lk, capacity, drift = case
    table = sim_mod._leg_schedule(profile, lk, capacity, drift)
    want = _reference_schedule(profile, lk, capacity, drift)
    for key, column in want.items():
        got = getattr(table, key)
        assert got.dtype == column.dtype and got.tobytes() == column.tobytes(), key


def _reference_draw(table, eta, p_bsm, rng):
    """Contract 1 drawn in full: two uniforms for every photon of every round, drifted or not."""
    successes, outcomes = [], []
    for k, i, n, e in zip(table.k, table.sample, table.n, table.eligible):
        u = rng.random((k, n, 2))
        ok = (u[:, :, 0] < eta[i]) & (u[:, :, 1] < p_bsm)
        ok[:, e:] = False
        successes += ok.sum(axis=1).tolist()
        outcomes += ["".join("D" if j >= e else "SL"[not hit] for j, hit in enumerate(row)) for row in ok]
    return successes, outcomes


def test_draw_skips_drifted_tails_bitwise():
    # blocks of (rounds, sample, train length, eligible): no drift, a drifted
    # tail just below the advance cut-off, one at it and one far above it
    cut = sim_mod._ADVANCE_MIN // 2  # photons
    n = cut + 40
    blocks = [(3, 0, 50, 50), (4, 1, n, n - cut + 1), (5, 2, n, n - cut), (2, 0, n, 1), (3, 1, 7, 7)]
    k, sample, n_col, eligible = (np.asarray(c, dtype=np.int64) for c in zip(*blocks))
    eta = np.array([0.9, 0.5, 0.2])
    for capture in (False, True):
        table = sim_mod._RoundTable(np.zeros(k.sum()), np.zeros(k.sum()), None, k, sample, n_col,
                                    eligible, np.zeros(k.size))
        rng, ref_rng = sim_mod._leg_rng(7, 0), sim_mod._leg_rng(7, 0)
        table.successes, table.outcomes = sim_mod._draw(table, eta, 0.8, rng, capture)
        successes, outcomes = _reference_draw(table, eta, 0.8, ref_rng)
        assert table.successes.tolist() == successes
        assert table.outcomes == (outcomes if capture else None)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# sha256 of the bins of uncaptured single-leg runs (seeds 0-2) whose rounds
# drift out after 65 of 1000 photons, a tail _draw skips by advancing the stream
LONG_TAIL_DIGEST = "3164166706f1ecd11c60d1691532eab1c5d62b5756bb7ea7858745544662ab24"


def test_uncaptured_long_drift_tail_counts_are_pinned():
    configs = [single_config(eta=0.7, p=0.5, m_sat=1000, v_r=6998.0, seed=seed) for seed in range(3)]
    table = sim_mod._leg_schedule(configs[0].profiles[0], configs[0].link,
                                  sim_mod._capacity_series(configs[0])[0], True)
    assert 2 * int((table.n - table.eligible).min()) >= sim_mod._ADVANCE_MIN
    assert _counts_digest([run(c) for c in configs]) == LONG_TAIL_DIGEST


def test_a_shared_plan_changes_no_counts_and_stays_read_only():
    # one plan, shared by several seeds as simulate shares it, counts as a plan each run builds
    cases = (dual_config(), dual_config(capture=True), dual_config(policy="static", split=(4, 6)),
             single_config(eta=0.7, p=0.5), single_config(eta=0.7, p=0.5, capture=True),
             dual_config(retain=True, capture=True))
    for case in cases:
        plan = sim_mod._plan(case)
        for seed in range(3):
            config = dataclasses.replace(case, rng_seed=seed)
            shared, own = run(config, plan=plan), run(config)
            assert _counts_digest([shared]) == _counts_digest([own]), config
            if config.capture_rounds:
                logs = [io.StringIO(), io.StringIO()]
                write_round_log(shared, logs[0])
                write_round_log(own, logs[1])
                assert logs[0].getvalue() == logs[1].getvalue(), config
            else:
                assert shared.rounds is own.rounds is None
        if case.retain_until_swap:
            assert plan.schedules is None
        else:
            assert all(t.successes is None and t.outcomes is None for t in plan.schedules)


def test_retained_mode_reduces_leg_throughput():
    free = run(dual_config(seed=9))
    held = run(dual_config(seed=9, retain=True))
    assert held.totals_per_leg[0] <= free.totals_per_leg[0]
    assert held.totals_per_leg[1] <= free.totals_per_leg[1]
    assert held.total_end_to_end <= free.total_end_to_end


def test_retained_rounds_respect_slot_accounting():
    audited_with_pairs_held = 0
    for seed in range(10):
        for policy, split in (("dynamic_int", None), ("static", (4, 6))):
            config = dual_config(policy=policy, seed=seed, split=split, retain=True, capture=True)
            rounds = run(config).rounds
            caps = sim_mod._capacity_series(config)
            profile = config.profiles[0]
            confirmations = sorted((r.confirm_time_s, r.leg, r.n_success) for r in rounds)
            buffered = [0, 0]
            c = 0
            for r in sorted(rounds, key=lambda r: (r.start_time_s, r.leg)):
                # confirmations at or before the start, each followed by its swap
                while c < len(confirmations) and confirmations[c][0] <= r.start_time_s:
                    _, leg, n_success = confirmations[c]
                    buffered[leg] += n_success
                    k = min(buffered)
                    buffered = [b - k for b in buffered]
                    c += 1
                i = int((r.start_time_s - profile.t_s[0]) // profile.step_s)
                assert config.profiles[r.leg].visible[i], (seed, policy, r)
                free = int(caps[r.leg][i]) - buffered[r.leg]
                assert r.train_length == min(free, config.link.m_ground), (seed, policy, r)
                assert r.train_length >= 1
                audited_with_pairs_held += buffered[r.leg] > 0
    # the audit is not vacuous: retained pairs shrank many trains
    assert audited_with_pairs_held > 100


class _PrefixStream:
    """The event loop's photon stream before hit lists: a success prefix sum per window."""

    def __init__(self, rng, max_n, capture):
        self.rng = rng
        self.u = np.empty((sim_mod._CHUNK_ROWS + max_n, 2))
        self.pos = self.u.shape[0]
        self.prefix = [0]
        self.text = "" if capture else None
        self.sample, self.off, self.size = -1, 0, 0

    def window(self, sample, n, eta, p_bsm):
        self.pos += self.off
        left = self.u.shape[0] - self.pos
        if left < n:
            self.u[:left] = self.u[self.pos :]
            self.rng.random(out=self.u[left:])
            self.pos = 0
        m = min(max(2048, n), self.u.shape[0] - self.pos)
        u = self.u[self.pos : self.pos + m]
        ok = (u[:, 0] < eta) & (u[:, 1] < p_bsm)
        self.prefix = [0, *np.cumsum(ok).tolist()]
        if self.text is not None:
            self.text = sim_mod._outcome_chars(ok, m)
        self.sample, self.off, self.size = sample, 0, m


def _reference_event_tables(config, ends=None):
    """Round tables of the dual event loop taken strictly in (time, confirmation first, leg) order.

    The loop as it was before legs ran ahead and counted from hit lists;
    each leg's rows are in start order, its blocks rebuilt from them.
    ``ends``, a Counter, counts how runs of rounds without a success end:
    at the next start, off the sample (``sample``), at the pass end
    (``t_end``) or past the window in the same sample (``window``); or,
    while the leg holds pairs, at a confirmation at or past the partner's
    next event (``partner``).
    """
    caps = sim_mod._capacity_series(config)
    profiles, lk = config.profiles, config.link
    step, t_grid0, n_samples = profiles[0].step_s, float(profiles[0].t_s[0]), profiles[0].n_samples
    cover_end = t_grid0 + n_samples * step
    t_end = cover_end - 1e-12
    eta = [p.eta.tolist() for p in profiles]
    t_rt = [sim_mod._round_trip(p.distance_m, lk).tolist() for p in profiles]
    next_vis = [sim_mod._next_true(np.asarray(p.visible, dtype=bool)).tolist() for p in profiles]
    alloc = [c.tolist() for c in caps]
    cap_e = [_reference_eligible(p.radial_velocity_mps, lk.m_sat, lk, config.drift).tolist()
             for p in profiles]
    streams = [_PrefixStream(sim_mod._leg_rng(config.rng_seed, leg), config.m_s, config.capture_rounds)
               for leg in range(2)]
    ev, confirming, done, buffered = [cover_end, cover_end], [False, False], [False, False], [0, 0]
    rows = [[], []]  # per round: start, confirm, successes, sample, n, eligible, outcomes
    for leg in range(2):
        j = next_vis[leg][0]
        if j < n_samples:
            ev[leg] = sim_mod._sample_start(j, t_grid0, step)
        else:
            done[leg] = True
    while not (done[0] and done[1]):
        if done[0]:
            leg = 1
        elif done[1] or ev[0] < ev[1] or (ev[0] == ev[1] and (confirming[0] or not confirming[1])):
            leg = 0
        else:
            leg = 1
        other, t = 1 - leg, ev[leg]
        last = rows[leg][-1] if rows[leg] else None
        quiet = ends is not None and not confirming[leg] and last is not None and last[2] == 0 and last[1] == t
        if confirming[leg]:
            confirming[leg] = False
            buffered[leg] += rows[leg][-1][2]
            k = min(buffered)
            if k > 0:
                buffered = [b - k for b in buffered]
                if not confirming[other] and ev[other] > t:
                    ev[other] = t
            continue
        i = int((t - t_grid0) // step)
        if quiet and i != last[3]:
            ends["sample"] += 1
        elif quiet and t >= t_end:
            ends["t_end"] += 1
        if t >= t_end or i >= n_samples:
            done[leg] = True
            continue
        j = next_vis[leg][i]
        if j != i:
            if j >= n_samples:
                done[leg] = True
            else:
                ev[leg] = sim_mod._sample_start(j, t_grid0, step)
            continue
        n = alloc[leg][i] - buffered[leg] if config.retain_until_swap else alloc[leg][i]
        if n < 1:
            wake = sim_mod._sample_start(i + 1, t_grid0, step)
            if confirming[other] and ev[other] < wake:
                wake = max(ev[other], t)
            ev[leg] = wake
            continue
        eligible = min(cap_e[leg][i], n)
        stream = streams[leg]
        if stream.sample != i or stream.off + n > stream.size:
            if quiet and stream.sample == i:
                ends["window"] += 1
            stream.window(i, n, eta[leg][i], lk.p_bsm)
        off = stream.off
        stream.off = off + n
        conf_t = t + ((n - 1) * lk.emission_period_s + t_rt[leg][i])
        text = None if stream.text is None else stream.text[off : off + eligible] + "D" * (n - eligible)
        succ = stream.prefix[off + eligible] - stream.prefix[off]
        if ends is not None and succ == 0 and buffered[leg] and not done[other] and conf_t >= ev[other]:
            ends["partner"] += 1
        rows[leg].append((t, conf_t, succ, i, n, eligible, text))
        confirming[leg], ev[leg] = True, conf_t
    tables = []
    for p, leg_rows in zip(profiles, rows):
        start, confirm, succ, sample, n, eligible, text = zip(*leg_rows) if leg_rows else ([],) * 7
        first = [r for r in range(len(start)) if r == 0 or (sample[r], n[r]) != (sample[r - 1], n[r - 1])]
        block_sample = np.asarray(sample, dtype=np.int64)[first]
        tables.append(sim_mod._RoundTable(
            np.asarray(start, dtype=float), np.asarray(confirm, dtype=float),
            np.asarray(succ, dtype=np.int64), np.diff(first, append=len(start)).astype(np.int64), block_sample,
            np.asarray(n, dtype=np.int64)[first], np.asarray(eligible, dtype=np.int64)[first],
            p.radial_velocity_mps[block_sample], list(text) if config.capture_rounds else None,
        ))
    return tables


def _quiet_confirmations(tables) -> int:
    """Rounds confirming with no success while their leg holds no pair; the loop starts the next at once."""
    events = sorted((c, leg, s) for leg, t in enumerate(tables)
                    for c, s in zip(t.confirm.tolist(), t.successes.tolist()))
    held, quiet = [0, 0], 0
    for _, leg, s in events:
        quiet += s == 0 and held[leg] == 0
        held[leg] += s
        k = min(held)
        held = [h - k for h in held]
    return quiet


@st.composite
def _event_loop_cases(draw, max_samples=50, retain=st.booleans(), capture=st.booleans()):
    """Two legs on a 0.1 s grid with visibility gaps, any m_sat and m_ground, either policy and, by default, mode."""
    n = draw(st.integers(8, max_samples))
    m_sat = draw(st.integers(2, 40))
    lk = LinkParams(m_sat=m_sat, m_ground=m_sat + draw(st.integers(0, 20)), emission_period_s=1e-6,
                    acceptance_window_s=draw(st.floats(1e-11, 1.5e-9)), p_bsm=draw(st.floats(0.05, 1.0)))
    profiles = []
    for station in ("a", "b"):
        visible = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        visible[0] = True  # one co-visible sample, so the dynamic split exists
        profiles.append(make_profile(
            draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n)), visible,
            distance_m=draw(st.lists(st.floats(3e5, 2e6), min_size=n, max_size=n)),
            v_r_mps=draw(st.lists(st.floats(-8e3, 8e3), min_size=n, max_size=n)),
            station=station, step_s=0.1,
        ))
    a = draw(st.integers(1, m_sat - 1))
    policy, split = draw(st.sampled_from((("dynamic_int", None), ("static", (a, m_sat - a)))))
    return SimConfig(profiles=tuple(profiles), link=lk, policy=policy,
                     rng_seed=draw(st.integers(0, 2**32)), static_split=split,
                     retain_until_swap=draw(retain), capture_rounds=draw(capture))


def _tied_legs_case(retain):
    """Both legs on one constant channel with equal trains: every start and confirmation ties."""
    pa, pb = (constant_profile(20, 0.3, T_RT, station=s, step_s=0.1) for s in ("a", "b"))
    lk = link(m_sat=10, p=0.5)
    return SimConfig(profiles=(pa, pb), link=lk, policy="static", rng_seed=4,
                     static_split=(5, 5), retain_until_swap=retain, capture_rounds=True)


def _assert_run_matches_reference(config, ends=None) -> list:
    """A run's counts, and with capture its tables and rounds, equal the strict-order reference's; returns those.

    ``run`` takes a retaining config to the event loop and any other to the scheduled path.
    """
    want = _reference_event_tables(config, ends)
    result, reference = run(config), sim_mod._result(config, want)
    _assert_same_counts(reference, result, config)
    if config.capture_rounds:
        order = [(r.leg, r.index) for r in result.rounds]  # leg by leg, each leg in round order
        assert all(a < b for a, b in zip(order, order[1:])), config
        assert result.rounds == reference.rounds, config
        for leg, (got, ref) in enumerate(zip(result._tables, want)):
            for key in ("start", "confirm", "successes", "k", "sample", "n", "eligible", "v_r"):
                a, b = getattr(got, key), getattr(ref, key)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (leg, key, config)
            assert got.outcomes == ref.outcomes, (leg, config)
    return want


def test_event_loop_matches_strict_order_reference():
    quiet, refilled = [], []

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(config=_event_loop_cases())
    @example(config=_tied_legs_case(True))
    @example(config=_tied_legs_case(False))
    def agree(config):
        want = _assert_run_matches_reference(config)
        if config.retain_until_swap:  # counted over the runs that reach the event loop
            quiet.append(_quiet_confirmations(want))
            refilled.append(max(int(np.dot(t.k, t.n)) for t in want) > sim_mod._CHUNK_ROWS + config.m_s)

    agree()
    # the cases exercise the run-ahead: some leg started many rounds without a confirmation event
    assert max(quiet) > 100
    # some leg used more photons than one draw of uniforms holds
    assert any(refilled)


def _zero_success_run_cases():
    """Retained dual runs whose runs of rounds without a success end in every way the event loop can end them.

    - ``t_end``: one-photon trains on 3 one-second samples whose 12th confirmation falls
      in the last 1e-12 s of the pass, still in its last sample; no pair confirms at eta 1e-6;
    - ``window``: 20-photon trains, about 5,000 photons a sample, past one draw of uniforms;
    - ``partner``: legs of unequal eta, the likelier one holding pairs for the other,
      with drifted tails, so that a swap regrows a train and moves its eligible prefixes;
    - ``sample``: every case.
    """
    t_end_rt = (3.0 - 0.5e-12) / 12
    # (m_sat, eta per leg, round trip per leg, radial velocity): with the 15 ps acceptance
    # window, 5 photons of a train are eligible at 1 km/s
    cases = ((2, (1e-6, 1e-6), (t_end_rt, t_end_rt), 0.0), (2, (0.9, 0.9), (t_end_rt, t_end_rt), 0.0),
             (40, (2e-3, 1e-3), (4e-3, 4e-3), 0.0), (40, (0.02, 2e-3), (4e-3, 4e-3), 1e3),
             (10, (0.05, 0.01), (4e-3, 6e-3), 0.0), (200, (0.05, 0.01), (4e-3, 6e-3), 1e3))
    for m, etas, t_rts, v_r in cases:
        legs = tuple(constant_profile(3, eta, t_rt, v_r, station=s) for eta, t_rt, s in zip(etas, t_rts, "ab"))
        for seed in range(3):
            for capture in (False, True):
                yield SimConfig(profiles=legs, link=link(m_sat=m, p=0.5, w=1.5e-11), policy="static",
                                rng_seed=seed, static_split=(m // 2, m // 2), retain_until_swap=True,
                                capture_rounds=capture)


def test_zero_success_runs_end_as_the_reference_does():
    ends, photons = collections.Counter(), []
    for config in _zero_success_run_cases():
        want = _assert_run_matches_reference(config, ends)
        photons.append(max(int(np.dot(t.k, t.n)) for t in want))
    # each way ended some run (t_end only where the sample test alone would go on); some leg drew
    # past one chunk of uniforms
    assert min(ends[way] for way in ("sample", "t_end", "window", "partner")) > 0, ends
    assert max(photons) > sim_mod._CHUNK_ROWS + 200


# sha256 of the int64 per-leg and end-to-end bins of retained runs, as
# recorded before the event loop drew photons in chunks and windows
RETAINED_DIGESTS = {
    ("dual", "dynamic_int"): "46dc0bd99876ad7716ea8f47c4d6a4ad53879329a6d28d29babb7f28de1adc55",
    ("dual", "static"): "42dac3dbabf65a0d338c097a0d34d53ed5dee39c93fa3a7596baa5029bc0c347",
    ("calibrated", "dynamic_int"): "b86f5549ade7dba073ff49962817abf22c4fb4e231c25e93e6a3d441929c141d",
    ("calibrated", "static"): "11425dd24739d163d85e32d3851e25d276f6339e7bd63b4bd882b8371d27c6a7",
}


# the same, for retained runs on the demo pass at m_S = 1000 (seed 0, static split 500/500), where 85 %
# of the photons drift out, recorded before the event loop ran rounds without a success in one loop
DRIFT_HEAVY_DIGESTS = {
    "dynamic_int": "d2d0cca49b308148b236cf5fd2d2a3d769e64a41f9b4e98b2248f5816bf03680",
    "static": "0640e40110557c1436e375e18f25c0c99ca4f09297f93f6776a006d23414d35a",
}


def _counts_digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        for bins in (*r.pairs_per_leg, r.pairs_end_to_end):
            h.update(np.ascontiguousarray(bins, dtype=np.int64).tobytes())
    return h.hexdigest()


def test_retained_counts_are_pinned(calibrated_m100):
    (pa, pb), lk = calibrated_m100
    for policy, split, calibrated_split in (("dynamic_int", None, None),
                                            ("static", (4, 6), (50, 50))):
        dual = [run(dual_config(policy=policy, seed=seed, split=split, retain=True))
                for seed in range(10)]
        assert _counts_digest(dual) == RETAINED_DIGESTS[("dual", policy)]
        calibrated = [
            run(SimConfig(profiles=(pa, pb), link=lk, policy=policy, rng_seed=seed,
                          static_split=calibrated_split, retain_until_swap=True))
            for seed in range(2)
        ]
        assert _counts_digest(calibrated) == RETAINED_DIGESTS[("calibrated", policy)]


def test_drift_heavy_retained_counts_are_pinned(calibrated_m1000):
    (pa, pb), lk = calibrated_m1000
    for policy, split in (("dynamic_int", None), ("static", (500, 500))):
        config = SimConfig(profiles=(pa, pb), link=lk, policy=policy, rng_seed=0,
                           static_split=split, retain_until_swap=True)
        assert _counts_digest([run(config)]) == DRIFT_HEAVY_DIGESTS[policy]


def test_drift_heavy_retained_capture_draws_the_photons_the_run_used(calibrated_m1000):
    # drifted tails here reach _draw's advance branch, which the small retained cases never do
    (pa, pb), lk = calibrated_m1000
    result = run(SimConfig(profiles=(pa, pb), link=lk, policy="dynamic_int", rng_seed=0,
                           retain_until_swap=True, capture_rounds=True))
    assert _counts_digest([result]) == DRIFT_HEAVY_DIGESTS["dynamic_int"]
    for leg, (table, profile) in enumerate(zip(result._tables, (pa, pb))):
        assert (2 * (table.n - table.eligible) >= sim_mod._ADVANCE_MIN).any()
        successes, outcomes = _reference_draw(table, profile.eta, lk.p_bsm, sim_mod._leg_rng(0, leg))
        assert table.successes.tolist() == successes
        assert table.outcomes == outcomes
    for r in result.rounds:
        assert r.outcomes.count("S") == r.n_success and len(r.outcomes) == r.train_length


def test_static_policy_respects_split():
    config = dual_config(policy="static", split=(3, 7), capture=True)
    result = run(config)
    for r in result.rounds:
        assert r.train_length <= (3 if r.leg == 0 else 7)


def test_disjoint_visibility_has_no_overlap():
    pa = make_profile(np.array([0.5, 0.5, 0.0, 0.0]), station="a")
    pb = make_profile(np.array([0.0, 0.0, 0.5, 0.5]), station="b")
    lk = link()
    config = SimConfig(profiles=(pa, pb), link=lk, policy="dynamic_int", rng_seed=0)
    with pytest.raises(NoOverlapError):
        run(config)


def test_determinism_byte_identical():
    config = dual_config(seed=21)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_sim_csv(run(config), buf_a)
    write_sim_csv(run(config), buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_seed_changes_outcome():
    a = run(single_config(eta=0.3, p=0.5, seed=1))
    b = run(single_config(eta=0.3, p=0.5, seed=2))
    assert not np.array_equal(a.pairs_per_leg[0], b.pairs_per_leg[0])


def test_bin_width_preserves_totals():
    narrow = run(single_config(eta=0.4, p=0.5, bin_w=0.5))
    wide = run(single_config(eta=0.4, p=0.5, bin_w=5.0))
    assert narrow.totals_per_leg == wide.totals_per_leg
    assert np.all(np.diff(wide.bin_start_s) == 5.0)


def test_replay_reproduces_counts():
    retained = [
        dual_config(policy=policy, seed=seed, split=split, capture=True, retain=True)
        for seed in range(10)
        for policy, split in (("dynamic_int", None), ("static", (4, 6)))
    ]
    for config in (single_config(eta=0.7, p=0.5, capture=True),
                   dual_config(capture=True),
                   *retained):
        original = run(config)
        replayed = replay(config, read_round_log(io.StringIO(_log_of(original))))
        for leg in range(len(original.pairs_per_leg)):
            assert np.array_equal(original.pairs_per_leg[leg], replayed.pairs_per_leg[leg])
        assert np.array_equal(original.pairs_end_to_end, replayed.pairs_end_to_end)


def _greedy_swap_times(conf, succ):
    """Reference swap rule: after each confirmation, in confirmation order, swap min(buffers)."""
    events = sorted(
        (t, leg, i, n) for leg in range(2) for i, (t, n) in enumerate(zip(conf[leg], succ[leg]))
    )
    buffers = [0, 0]
    swaps = []
    for t, leg, _, n in events:
        buffers[leg] += n
        k = min(buffers)
        buffers[0] -= k
        buffers[1] -= k
        swaps += [t] * k
    return swaps


_leg_stream = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 4)), max_size=25
).map(lambda rows: (np.cumsum([d for d, _ in rows], dtype=float), [n for _, n in rows]))


@settings(max_examples=300, deadline=None)
@given(leg_a=_leg_stream, leg_b=_leg_stream)
def test_swap_rule_matches_greedy_consumer(leg_a, leg_b):
    # whole-second confirmation times on unit bins: each bin holds exactly
    # the swaps at its time, so equal bins mean equal (sorted) swap times
    conf = [leg_a[0], leg_b[0]]
    succ = [np.asarray(leg[1], dtype=np.int64) for leg in (leg_a, leg_b)]
    def table(c, s):
        unknown = np.full(c.size, -1)
        return sim_mod._RoundTable(start=c, confirm=c, successes=s, k=np.ones(c.size, dtype=np.int64),
                                   sample=unknown, n=unknown, eligible=unknown, v_r=np.zeros(c.size))

    result = sim_mod._result(dual_config(), [table(c, s) for c, s in zip(conf, succ)])
    want = _greedy_swap_times(conf, succ)
    expected = np.zeros(result.n_bins, dtype=np.int64)
    np.add.at(expected, np.asarray(want, dtype=np.int64), 1)
    assert np.array_equal(result.pairs_end_to_end, expected)
    assert result.total_end_to_end == min(int(s.sum()) for s in succ)


@given(st.lists(st.booleans(), max_size=30))
def test_next_true_matches_backward_scan(flags):
    mask = np.asarray(flags, dtype=bool)
    want = [mask.size] * (mask.size + 1)
    for i in range(mask.size - 1, -1, -1):
        want[i] = i if mask[i] else want[i + 1]
    assert sim_mod._next_true(mask).tolist() == want


def test_round_log_roundtrip_and_version_guard():
    config = dual_config(capture=True)
    result = run(config)
    buf = io.StringIO()
    write_round_log(result, buf)
    buf.seek(0)
    log = read_round_log(buf)
    assert log.seed == config.rng_seed
    assert log.policy == config.policy
    assert tuple(result.rounds) == log.rounds
    replayed = replay(config, log)
    assert np.array_equal(result.pairs_end_to_end, replayed.pairs_end_to_end)
    stale = dataclasses.replace(log, engine_version="other-engine-9")
    with pytest.raises(ReplayError):
        replay(config, stale)
    # the rounds replay reads are those read_round_log checked: anything else is refused by its type
    for other, name in ((None, "NoneType"), (result.rounds, "list"), (log.rounds, "tuple"), (result, "SimResult"),
                        (buf.getvalue(), "str")):
        with pytest.raises(ReplayError, match=f"^replay takes a RoundLog from read_round_log, got {name}$"):
            replay(config, other)


def _log_of(result) -> str:
    buf = io.StringIO()
    write_round_log(result, buf)
    return buf.getvalue()


@pytest.mark.parametrize("config", [
    single_config(eta=0.7, p=0.5, m_sat=100, v_r=6998.0, capture=True),
    dual_config(capture=True),
    dual_config(capture=True, retain=True, n=80),
    dual_config(policy="static", split=(4, 6), capture=True, retain=True, n=80),
], ids=["single", "dual", "retained_dynamic_int", "retained_static"])
def test_replayed_log_rewrites_the_run_log(config):
    # one round order, leg by leg: a log read and replayed writes back its own text
    result = run(config)
    text = _log_of(result)
    replayed = replay(config, read_round_log(io.StringIO(text)))
    assert replayed.rounds == result.rounds
    assert _log_of(replayed) == text
    if config.retain_until_swap:
        # a log in the (confirm, leg, index) order that retained runs once wrote
        header, *records = text.splitlines(keepends=True)
        keys = [(r["confirm_time_s"], r["leg"], r["index"]) for r in map(json.loads, records)]
        by_confirm = header + "".join(line for _, line in sorted(zip(keys, records)))
        assert by_confirm != text
        old = replay(config, read_round_log(io.StringIO(by_confirm)))
        _assert_same_counts(result, old, config)
        assert _log_of(old) == text


def test_replay_refuses_a_config_its_log_header_contradicts():
    # a log replays only under the seed, policy and bin width its header names
    config = dual_config(capture=True)
    result = run(config)
    log = read_round_log(io.StringIO(_log_of(result)))
    for name, value, logged in (("rng_seed", 7, "5"), ("policy", "static", "'dynamic_int'"),
                                ("bin_width_s", 2.0, "1.0")):
        other = dataclasses.replace(config, **{name: value, "static_split": (4, 6) if value == "static" else None})
        with pytest.raises(ReplayError, match=re.escape(f"log header has {name} {logged}, config has {value!r}")):
            replay(other, log)
        own = run(other)
        _assert_same_counts(own, replay(other, read_round_log(io.StringIO(_log_of(own)))), name)
    _assert_same_counts(result, replay(config, log), "matching header")


def test_array_holding_records_compare_by_identity_and_configs_hash():
    # no generated == compares numpy arrays: each comparison is a bool, and a config hashes
    config = dual_config(capture=True)
    same = dataclasses.replace(config)
    result = run(config)
    moments = predict_bin_moments(config)[0]
    alloc = allocation_series(*config.profiles, config.link)
    for record in (result, config.profiles[0], moments, compare(result, moments), alloc):
        assert (record == record) is True
        assert (record == copy.copy(record)) is False
        assert isinstance(hash(record), int)
    assert (run(config) == run(config)) is False
    assert (same == config) is True and hash(same) == hash(config)
    assert (dataclasses.replace(config, rng_seed=6) == config) is False
    assert (dataclasses.replace(config, profiles=tuple(map(copy.copy, config.profiles))) == config) is False
    log = read_round_log(io.StringIO(_log_of(result)))  # a round log keeps its value equality
    assert (log == read_round_log(io.StringIO(_log_of(result)))) is True


def _edited_record(text: str, j: int, key: str, value) -> sim_mod.RoundLog:
    """The round log ``text`` read back with record ``j``'s ``key`` set to ``value``, as json.dumps writes it."""
    header, *records = text.splitlines(keepends=True)
    rec = json.loads(records[j])
    rec[key] = value
    records[j] = json.dumps(rec, ensure_ascii=False) + "\n"
    return read_round_log(io.StringIO("".join([header, *records])))


def test_replay_refuses_confirm_times_off_the_bin_grid():
    # bins start at t = 0 and a run never needs more than _MAX_GRID of them: a time
    # before 0 would fold into the last bins, a huge one ask for a huge array
    config = dual_config(capture=True)
    result = run(config)
    text = _log_of(result)
    j, index = next((j, r.index) for j, r in enumerate(result.rounds) if r.leg == 1 and r.n_success)
    limit = sim_mod._MAX_GRID * config.bin_width_s
    for value in (-5.0, -5e-324, math.nextafter(limit, math.inf), 1e9, 1e300, 1.7e308):
        with pytest.raises(ReplayError, match=re.escape(f"leg 1 round {index} confirms at {value} s, outside the")):
            replay(config, _edited_record(text, j, "confirm_time_s", value))
    # the grid's ends are inside it
    for value in (0.0, limit):
        assert replay(config, _edited_record(text, j, "confirm_time_s", value)).totals_per_leg == result.totals_per_leg


def test_replayed_rounds_write_a_readable_log():
    config = dual_config(capture=True)
    # outcomes that JSON escapes read back unchanged
    odd = 'S"L\\\x01\u00e9\u2028'
    result = replay(config, _edited_record(_log_of(run(config)), 1, "outcomes", odd))
    assert result.rounds[1].outcomes == odd
    buf = io.StringIO()
    write_round_log(result, buf)
    buf.seek(0)
    assert read_round_log(buf).rounds == tuple(result.rounds)


# sha256 of write_round_log bytes in unbounded mode, recorded before the
# engine kept its rounds in one columnar table
ROUND_LOG_DIGESTS = {
    "single": "3352f4259e2cb23f641d42f7a5a1d246046f40a09f241e43ced4fc115b486c56",
    "dynamic_int": "7d4af9bec19f33d96f674457d2f9d4da90cb197bae137ca3264b88790bf6cff5",
    "static": "5dbb8c1fcd29624d6b246215e0b5c4409076fbc49514aafef148a8cbd7f6c48d",
}


# and of retained logs, longer than one chunk of sim._ROWS rows: each is the
# log pinned before the writer formatted a chunk at a time (then in (confirm,
# leg, index) order), with its records stably sorted into leg-by-leg order
RETAINED_ROUND_LOG_DIGESTS = {
    "retained_dynamic_int": "62815f24e6b74a8c7353a20d8eaf85de48024450b08f45dde33c0823b56c85bc",
    "retained_static": "4a69546a3e89f1ff7b72b07f874b7d929ba1236a0abc41c6c48dec3dc874e229",
}


def test_round_logs_are_pinned():
    configs = {
        "single": single_config(eta=0.7, p=0.5, m_sat=100, v_r=6998.0, capture=True),
        "dynamic_int": dual_config(capture=True),
        "static": dual_config(policy="static", split=(4, 6), capture=True),
        "retained_dynamic_int": dual_config(capture=True, retain=True, n=80),
        "retained_static": dual_config(policy="static", split=(4, 6), capture=True, retain=True, n=80),
    }
    digests = {**ROUND_LOG_DIGESTS, **RETAINED_ROUND_LOG_DIGESTS}
    for name, config in configs.items():
        buf = io.StringIO()
        write_round_log(run(config), buf)
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digests[name], name


def test_read_round_log_errors_cite_rows():
    buf = io.StringIO()
    write_round_log(run(single_config(n_s=2, eta=0.5, p=0.5, capture=True)), buf)
    header, good, second, *_ = buf.getvalue().splitlines()

    def read(*lines):
        return read_round_log(io.StringIO("\n".join(lines) + "\n"))

    assert len(read(header, good, second).rounds) == 2
    for bad_header in ("null", "[1, 2]", '{"engine_version": "e", "seed": null, '
                       '"policy": "single", "bin_width_s": 1.0}'):
        with pytest.raises(DataFormatError, match="row 1"):
            read(bad_header, good)
    with pytest.raises(DataFormatError, match="row 1: missing 'seed'"):
        read('{"engine_version": "e", "policy": "single", "bin_width_s": 1.0}')
    for bad_row in ("null", "[1, 2]", "{not json"):
        with pytest.raises(DataFormatError, match="row 3"):
            read(header, good, bad_row)
    field_cases = [
        ('"leg": 0', '"leg": null', "leg must be an integer >= 0"),
        ('"n_success": ', '"n_success": 1e400, "was": ', "n_success must be an integer >= 0"),
        ('"n_success": ', '"n_success": -1, "was": ', "n_success must be an integer >= 0"),
        ('"confirm_time_s": ', '"confirm_time_s": NaN, "was": ', "confirm_time_s must be a finite"),
        ('"start_time_s": ', '"start_time_s": Infinity, "was": ', "start_time_s must be a finite"),
        ('"index": 1', '"idx": 1', "missing 'index'"),
        ('"outcomes": "', '"outcomes": 7, "was": "', "outcomes must be a string"),
    ]
    for old, new, message in field_cases:
        assert old in second
        with pytest.raises(DataFormatError, match=f"row 3: {message}"):
            read(header, good, second.replace(old, new, 1))
    # in place, so that the line keeps the writer's layout
    integer, finite = "an integer >= 0", "a finite number"
    for key, value, want in (("n_success", "99999999999999999999", integer),
                             ("n_success", "9223372036854775808", integer), ("leg", "true", integer),
                             ("index", "1.0", integer), ("start_time_s", "1e400", finite),
                             ("confirm_time_s", "-1e400", finite),
                             ("index", str(2**70), integer), ("start_time_s", str(10**400), finite),
                             ("v_r_at_start_mps", "Infinity", finite), ("start_time_s", "-Infinity", finite),
                             ("confirm_time_s", "NaN", finite), ("index", "-1", integer),
                             ("n_success", "-2", integer), ("outcomes", "7", "a string"),
                             # no value is coerced to its column's type
                             ("index", "1.5", integer), ("train_length", '"3"', integer),
                             ("start_time_s", '"1.0"', finite), ("n_success", "2.0", integer)):
        with pytest.raises(DataFormatError, match=re.escape(f"row 3: {key} must be {want}, got {json.loads(value)!r}")):
            read(header, good, re.sub(f'"{key}": [^,}}]*', f'"{key}": {value}', second))
    # a row past the first _ROWS
    with pytest.raises(DataFormatError, match=f"row {sim_mod._ROWS + 2}: leg must be"):
        read(header, *[good] * sim_mod._ROWS, good.replace('"leg": 0', '"leg": -1'))


@pytest.mark.parametrize("key, text", LOG_HEADER_COERCIONS)
def test_read_round_log_refuses_header_values_it_would_coerce(key, text):
    buf = io.StringIO()
    write_round_log(run(single_config(n_s=2, eta=0.5, p=0.5, capture=True)), buf)
    header, *records = buf.getvalue().splitlines(keepends=True)
    bad = re.sub(f'"{key}": [^,}}]*', f'"{key}": {text}', header)
    assert bad != header
    with pytest.raises(DataFormatError, match=f"^<stream>: row 1: {key} must be "):
        read_round_log(io.StringIO("".join([bad, *records])))


def test_read_round_log_keeps_any_run_seed():
    config = single_config(n_s=2, eta=0.5, p=0.5, capture=True, seed=2**64 - 1)
    buf = io.StringIO()
    write_round_log(run(config), buf)
    log = read_round_log(io.StringIO(buf.getvalue()))
    assert (log.seed, log.policy, log.bin_width_s) == (2**64 - 1, "single", 1.0)
    assert type(log.bin_width_s) is float


_INT_FIELDS = ("leg", "index", "train_length", "n_success")


def _reference_rounds(text: str) -> tuple:
    """Rounds of a round log read one line at a time with json.loads: the reader's contract."""
    fh = io.StringIO(text)
    fh.readline()  # the header, valid in every case here
    rounds = []
    for row, line in enumerate(fh, start=2):
        if not line.strip():
            continue
        def bad(message):
            return DataFormatError(f"<stream>: row {row}: {message}")
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise bad(exc) from exc
        if not isinstance(rec, dict):
            raise bad(f"expected a JSON object, got {line.strip()[:40]}")
        names = [f.name for f in dataclasses.fields(Round)][:-1]
        for name in names:
            if name not in rec:
                raise bad(f"missing {name!r}")
        fields = {}
        for name in names:
            value = rec[name]
            if name in _INT_FIELDS:
                if type(value) is not int or not 0 <= value < 2**63:
                    raise bad(f"{name} must be an integer >= 0, got {value!r}")
            else:
                try:
                    finite = type(value) in (int, float) and math.isfinite(value)
                except OverflowError:  # an integer past the float range
                    finite = False
                if not finite:
                    raise bad(f"{name} must be a finite number, got {value!r}")
                value = float(value)
            fields[name] = value
        outcomes = rec.get("outcomes")
        if not isinstance(outcomes, (str, type(None))):
            raise bad(f"outcomes must be a string, got {outcomes!r}")
        rounds.append(Round(**fields, outcomes=outcomes))
    return tuple(rounds)


def _log_text(legs) -> str:
    """What write_round_log writes for per-leg rounds given as (start, confirm, successes, n, v_r, outcomes)."""
    tables = []
    for start, confirm, succ, n, v_r, outcomes in legs:
        unknown = np.full(len(start), -1)
        tables.append(sim_mod._RoundTable(
            np.asarray(start, dtype=float), np.asarray(confirm, dtype=float), np.asarray(succ, dtype=np.int64),
            np.ones(len(start), dtype=np.int64), unknown, np.asarray(n, dtype=np.int64), unknown,
            np.asarray(v_r, dtype=float), list(outcomes),
        ))
    empty = np.zeros(0, dtype=np.int64)
    result = sim_mod.SimResult(bin_width_s=1.0, pairs_per_leg=(empty, empty), pairs_end_to_end=empty, seed=3,
                               policy="static", _tables=tuple(tables))
    buf = io.StringIO()
    write_round_log(result, buf)
    return buf.getvalue()


_log_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 1e-05, 1e16, 210.0])
_log_ints = st.integers(0, 10**6) | st.sampled_from([10**17, 10**18 - 1])
_FLOAT_TEXTS = ["-0.0", "1e-05", "1e+16", "210", "1E2", "NaN", "Infinity", "1e400", "-1e400", "1" + "0" * 400,
                '"1.5"', "true"]
_INT_TEXTS = ["1000000000000000000", "9223372036854775807", "9223372036854775808", "99999999999999999999",
              "5.0", "true", "-1", "007", "null"]


@st.composite
def _round_log_texts(draw):
    """A writer-made round log, its record lines perturbed, maybe behind a chunk's worth of good lines."""
    legs = []
    for _ in range(2):
        k = draw(st.integers(0, 5))
        floats, ints = (st.lists(s, min_size=k, max_size=k) for s in (_log_floats, _log_ints))
        outcomes = st.lists(st.none() | st.text("SLD", max_size=6), min_size=k, max_size=k)
        legs.append((draw(floats), draw(floats), draw(ints), draw(ints), draw(floats), draw(outcomes)))
    header, *lines = _log_text(legs).splitlines()
    out = []
    for line in lines:
        how = draw(st.sampled_from(["keep"] * 4 + ["reorder", "spaces", "blank", "float", "int", "outcomes"]))
        if how == "reorder":
            rec = json.loads(line)
            line = json.dumps(dict(draw(st.permutations(list(rec.items())))))
        elif how == "spaces":
            line = " " + line.replace(": ", " :  ").replace(", ", " ,") + " "
        elif how == "blank":
            out.append(draw(st.sampled_from(["", "  "])))
        elif how in ("float", "int"):
            keys = [f.name for f in dataclasses.fields(Round)][:-1]
            key = draw(st.sampled_from([k for k in keys if (k in _INT_FIELDS) == (how == "int")]))
            value = draw(st.sampled_from(_FLOAT_TEXTS if how == "float" else _INT_TEXTS))
            line = re.sub(f'"{key}": [^,}}]*', f'"{key}": {value}', line)
        elif how == "outcomes":  # absent, empty or present
            line = re.sub(r'"outcomes": "[SLD]*", ', draw(st.sampled_from(["", '"outcomes": "", '])), line)
        out.append(line)
    pad = draw(st.sampled_from([0, 0, 0, 0, 0, 0, sim_mod._ROWS - 1, sim_mod._ROWS]))
    good = _log_text([([1.0], [1.5], [1], [2], [0.0], ["SL"])]).splitlines()[1]
    return "\n".join([header] + [good] * pad + out) + "\n"


@settings(max_examples=120, deadline=None, derandomize=True)
@given(text=_round_log_texts())
def test_read_round_log_matches_json_reference(text):
    try:
        want = _reference_rounds(text)
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as got:
            read_round_log(io.StringIO(text))
        assert str(got.value) == str(exc)
    else:
        log = read_round_log(io.StringIO(text))
        assert log.rounds == want
        assert log == read_round_log(io.StringIO(text))


def _reference_round_log(result) -> str:
    """write_round_log's bytes built one row at a time with %r from the tables: the writer's contract."""
    header = dict(engine_version=sim_mod.ENGINE_VERSION, seed=result.seed, policy=result.policy,
                  bin_width_s=result.bin_width_s)
    rows = []
    for leg, t in enumerate(result._tables):
        n, v_r = np.repeat(t.n, t.k).tolist(), np.repeat(t.v_r, t.k).tolist()
        for i, (start, conf, succ) in enumerate(zip(t.start.tolist(), t.confirm.tolist(), t.successes.tolist())):
            rows.append((leg, i, start, n[i], v_r[i], conf, succ, t.outcomes[i]))
    lines = [json.dumps(header, sort_keys=True) + "\n"]
    for leg, index, start, n, v_r, conf, succ, out in rows:
        member = "" if out is None else f'"outcomes": {json.dumps(out, ensure_ascii=False)}, '
        lines.append('{"confirm_time_s": %r, "index": %r, "leg": %r, "n_success": %r, %s"start_time_s": %r, '
                     '"train_length": %r, "v_r_at_start_mps": %r}\n' % (conf, index, leg, succ, member, start, n, v_r))
    return "".join(lines)


@st.composite
def _writer_results(draw):
    """A captured result over hand-made tables: repeated values, -0.0 beside 0.0, sometimes past one chunk.

    Confirm times may mostly be the next start, as in a run, with a 0.0 start after a -0.0
    confirm time or the other way round; blocks may be long; outcomes may all be plain or
    mix plain, escaped and None ones in one chunk.
    """
    floats = [-0.0, 0.0, *draw(st.lists(_log_floats | st.sampled_from([5e-324, 2.2e-308, -1e-310]), max_size=6))]
    ints = [0, 10**18 - 1, *draw(st.lists(_log_ints, max_size=4))]
    others = draw(st.lists(st.sampled_from([None, 'S"L', "L\\D", "\x01\n", "\u00e9"]), unique=True))
    outcomes = ["", "SL", "LLD", "S" * 40, *others, *draw(st.lists(st.text(max_size=6), max_size=2))]
    chained, block_edge = draw(st.booleans()), draw(st.sampled_from([0.5, 0.02]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = []
    for _ in range(2):
        k = draw(st.sampled_from([0, 1, 2, 5, 9, sim_mod._ROWS - 1, sim_mod._ROWS + 3]))
        edge = rng.random(k + 1) < block_edge
        edge[0] = edge[-1] = True
        sizes = np.diff(np.flatnonzero(edge))  # blocks of one (sample, n), summing to k
        pick = lambda pool, size: np.asarray(pool)[rng.integers(len(pool), size=size)]  # noqa: E731
        start, confirm = pick(floats, k), pick(floats, k)
        if chained and k:
            follow = np.append(rng.random(k - 1) < 0.9, False)  # the confirm times that are the next start
            confirm[follow] = start[1:][follow[:-1]]
            flip = follow & (confirm == 0.0) & (rng.random(k) < 0.5)
            confirm[flip] = -confirm[flip]  # equal to the next start, but not bitwise
        unknown = np.full(sizes.size, -1)
        tables.append(sim_mod._RoundTable(
            start, confirm, pick(ints, k).astype(np.int64), sizes, unknown,
            pick(ints, sizes.size).astype(np.int64), unknown, pick(floats, sizes.size),
            [outcomes[i] for i in rng.integers(len(outcomes), size=k).tolist()],
        ))
    empty = np.zeros(0, dtype=np.int64)
    return sim_mod.SimResult(bin_width_s=0.5, pairs_per_leg=(empty, empty), pairs_end_to_end=empty, seed=7,
                             policy="dynamic_int", _tables=tuple(tables))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(result=_writer_results())
def test_write_round_log_matches_per_row_reference(result):
    buf = io.StringIO()
    write_round_log(result, buf)
    got, want = buf.getvalue().split("\n"), _reference_round_log(result).split("\n")
    assert len(got) == len(want)
    for row, (line, expected) in enumerate(zip(got, want), start=1):  # a short diff at the first bad row
        assert line == expected, f"row {row}"


def test_round_log_fast_path_reads_writer_layout(monkeypatch):
    # every chunk of a writer-made log parses on the byte path (_layout_columns): the per-row path never runs
    def per_row(lines, where, row):
        raise AssertionError(f"{where}: row {row}: chunk left the writer's layout")

    monkeypatch.setattr(sim_mod, "_log_rows", per_row)
    for config in (dual_config(capture=True, n=80), dual_config(capture=True, retain=True, n=80)):
        result = run(config)
        buf = io.StringIO()
        write_round_log(result, buf)
        buf.seek(0)
        log = read_round_log(buf)
        assert len(log.rounds) > sim_mod._ROWS
        assert log.rounds == tuple(result.rounds)
        _assert_same_counts(result, replay(config, log), config)


def _float_bits(columns) -> list:
    """Round log columns with floats as their bit patterns, so that -0.0 and 0.0 differ."""
    return [c.view(np.int64).tolist() if isinstance(c, np.ndarray) and c.dtype.kind == "f" else list(c)
            for c in columns]


@pytest.mark.parametrize("retain", [False, True], ids=["unbounded", "retained"])
def test_demo_round_logs_take_the_byte_path(monkeypatch, retain):
    # a demo-spec log (m_S=100, seed 0), many chunks long, never reaches the per-row reader
    def per_row(lines, where, row):
        raise AssertionError(f"{where}: row {row}: chunk left the writer's layout")

    config = dataclasses.replace(load_experiment(DEMO_SPEC).sim_config(0), capture_rounds=True,
                                 retain_until_swap=retain)
    result = run(config)
    buf = io.StringIO()
    write_round_log(result, buf)
    buf.seek(0)
    monkeypatch.setattr(sim_mod, "_log_rows", per_row)
    log = read_round_log(buf)
    assert len(log._columns[-1]) > 10 * sim_mod._ROWS
    assert _float_bits(log._columns) == _float_bits(sim_mod._table_columns(result._tables))
    _assert_same_counts(result, replay(config, log), config)


_NUMBER_TEXTS = {
    float: ["01", "-01", "1.", ".5", "+1", "1e", "1e+", "-", "1.5e+-3", "1_0", "1.2.3", "1ee5",  # invalid
            "1E2", "0e0", "-0.0", "1e-05", "1e+16", "123456789012345678", "-0"],  # valid
    int: ["007", "+1", "-0", "1.0", "1e3",  # invalid
          "0", "123456789012345678"],  # valid
}


def _edited_log(old: str, new: str) -> str:
    """A small writer-made log with ``old`` replaced by ``new`` once in its second record line.

    Starts repeat the previous confirm time and v_r repeats, as in a run's log.
    """
    text = _log_text([([0.0, 1.5, 3.0], [1.5, 3.0, 4.5], [1, 0, 2], [2, 2, 2], [7.5, 7.5, 7.5], ["SL", "LL", "SS"]),
                      ([0.5], [2.0], [0], [3], [-7.5], ["LLD"])])
    header, first, second, *rest = text.splitlines(keepends=True)
    assert re.search(old, second)
    return "".join([header, first, re.sub(old, lambda _: new, second, count=1), *rest])


def _read_like_reference(text: str):
    """read_round_log of ``text``, held to _reference_rounds: the same message, or the same rounds bit for bit."""
    try:
        want = _reference_rounds(text)
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as got:
            read_round_log(io.StringIO(text))
        assert str(got.value) == str(exc)
        return None
    got = read_round_log(io.StringIO(text))
    assert got.rounds == want
    assert _float_bits(got._columns) == _float_bits(sim_mod._round_columns(want))
    return got


@pytest.mark.parametrize("key, value", [(key, value) for key, kind in sim_mod._LOG_FIELDS.items()
                                        for value in _NUMBER_TEXTS[kind]])
def test_round_log_number_texts_in_place(monkeypatch, key, value):
    text = _edited_log(f'"{key}": [^,}}]*', f'"{key}": {value}')
    got = _read_like_reference(text)
    # JSON reads -0 as the integer 0: the byte path reads it in a float slot and leaves an int slot's
    # to the per-row reader
    if got is not None and not (value == "-0" and sim_mod._LOG_FIELDS[key] is int):
        monkeypatch.setattr(sim_mod, "_log_rows", None)  # the byte path reads every other valid text
        assert _float_bits(read_round_log(io.StringIO(text))._columns) == _float_bits(got._columns)


@pytest.mark.parametrize("old, new", [('"index"', '"indeX"'), ('"outcomes"', '"outcomeZ"'), (r'^\{', "["),
                                      ("}$", "]"), ("^", "x"), (', "leg"', ',\t"leg"'), ('"LL"', '"L\x01"'),
                                      ('"LL"', '"L\x7f"'), ('"LL"', '"L\\u0041"')])
def test_round_log_fixed_text_in_place(old, new):
    # edits of the writer's fixed text or of an outcome, most keeping the line's length
    _read_like_reference(_edited_log(old, new))


@pytest.mark.parametrize("key", ["confirm_time_s", "start_time_s", "v_r_at_start_mps"])
def test_round_log_float_text_holding_a_comma_is_refused(key):
    # "1,2" passes every fixed-piece compare and is two JSON numbers: the per-row reader refuses the line
    _read_like_reference(_edited_log(f'"{key}": [^,}}]*', f'"{key}": 1,2'))


def _chained_log(rows: int) -> str:
    """A writer-made log of ``rows`` rounds on one leg, each starting at the previous one's confirm time."""
    t = np.arange(rows + 1) * 0.125
    return _log_text([(t[:-1], t[1:], np.arange(rows) % 3, [4] * rows, [7.5] * rows, ["SLLS"] * rows)])


def test_read_round_log_reads_a_line_longer_than_a_block():
    long = "L" * (sim_mod._BLOCK + 5)
    text = _log_text([([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], [0, 1, 0], [2, 2, 2], [7.5] * 3, ["SL", long, "SS"])])
    assert _read_like_reference(text).rounds[1].outcomes == long


def test_read_round_log_reads_crlf_line_ends_from_a_path(tmp_path, monkeypatch):
    monkeypatch.setattr(sim_mod, "_BLOCK", 997)  # blocks end all over the lines, between "\r" and "\n" too
    text = _chained_log(300)
    path = tmp_path / "rounds.ndjson"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    want = _reference_rounds(text)
    got = read_round_log(path)
    assert got.rounds == want
    assert _float_bits(got._columns) == _float_bits(sim_mod._round_columns(want))


@pytest.mark.parametrize("last", ["good", "bad"])
def test_read_round_log_reads_a_last_line_without_newline(last):
    text = _chained_log(5).rstrip("\n")
    _read_like_reference(text if last == "good" else text[:-1])


def test_read_round_log_cites_a_bad_row_just_after_a_block_boundary(monkeypatch):
    text = _chained_log(sim_mod._BLOCK // 150)
    chunk_rows, log_chunk = [], sim_mod._log_chunk

    def spied(text, where, row):
        chunk_rows.append(row)
        return log_chunk(text, where, row)

    monkeypatch.setattr(sim_mod, "_log_chunk", spied)
    read_round_log(io.StringIO(text))
    row = chunk_rows[1]  # the first row of the second block; an edit of it keeps the first block as it is
    lines = text.splitlines(keepends=True)
    for bad in (lines[row - 1].replace('"leg": 0', '"leg": -1'), "{not json\n"):
        edited = "".join([*lines[: row - 1], bad, *lines[row:]])
        chunk_rows.clear()
        with pytest.raises(DataFormatError, match=f"^<stream>: row {row}: "):
            read_round_log(io.StringIO(edited))
        assert chunk_rows[1] == row
        _read_like_reference(edited)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_bytes_to_float_cast_matches_float(values):
    # the round log reader parses float texts with numpy's bytes-to-float64 cast
    texts = [repr(x) for x in values]
    cast = np.array([t.encode() for t in texts]).astype(np.float64)
    assert cast.view(np.int64).tolist() == np.array([float(t) for t in texts]).view(np.int64).tolist()


def test_sim_csv_roundtrip():
    result = run(dual_config(seed=2))
    buf = io.StringIO()
    write_sim_csv(result, buf)
    buf.seek(0)
    cols = read_sim_csv(buf)
    assert np.array_equal(cols["pairs_legA"], result.pairs_per_leg[0])
    assert np.array_equal(cols["pairs_legB"], result.pairs_per_leg[1])
    assert np.array_equal(cols["pairs_end_to_end"], result.pairs_end_to_end)
    assert np.array_equal(cols["bin_start_s"], result.bin_start_s)


def test_read_sim_csv_errors_cite_rows():
    head = "bin_start_s,pairs_legA,pairs_legB,pairs_end_to_end\n"
    for body, message in (
        ("0,1,2,3\n1,x,0,0\n", "row 3, column pairs_legA: not an integer >= 0: 'x'"),
        ("0,1,2,3\n1,-2,0,0\n", "row 3, column pairs_legA: not an integer >= 0: '-2'"),
        ("0,1,2,3\n\n1,0,0,2.5\n", "row 4, column pairs_end_to_end: not an integer >= 0: '2.5'"),
        ("0,1,2,9223372036854775808\n", "row 2, column pairs_end_to_end: not an integer >= 0"),
        ("0,1,2,3\nnan,0,0,0\n", "row 3, column bin_start_s: not finite: 'nan'"),
        ("0,1,2,3\n1,0,0\n", "row 3: expected 4 fields, got 3"),
        ("bin_start_s,pairs_legA\n", "row 1: bad header"),
    ):
        text = body if body.startswith("bin_start_s") else head + body
        with pytest.raises(DataFormatError, match=re.escape(message)):
            read_sim_csv(io.StringIO(text))


def test_expected_rate_long_run():
    # eta 0.5, p 0.5, m 10, t_rt 4 ms: 312.5 pairs/s expected; 20 s window
    result = run(single_config(n_s=20, eta=0.5, p=0.5, seed=11))
    rate = result.totals_per_leg[0] / 20.0
    assert rate == pytest.approx(0.5 * 0.5 * 10 / T_RT, rel=0.05)
