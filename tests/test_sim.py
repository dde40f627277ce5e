"""Discrete-event engine: protocol invariants, determinism, replay, buffer modes."""

from __future__ import annotations

import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satqlink import (
    ConfigError,
    LinkParams,
    NoOverlapError,
    ReplayError,
    RoundLog,
    SimConfig,
    read_round_log,
    read_sim_csv,
    replay,
    run,
    write_round_log,
    write_sim_csv,
)
from satqlink import sim as sim_mod

from conftest import constant_profile, make_profile, unimodal_pair

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
        link_params=(link(m_sat=m_sat, p=p),),
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
        profiles=(profile,), link_params=(link(p=1.0),), policy="single",
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
        SimConfig(profiles=(profile,), link_params=(good,), policy="bogus", rng_seed=0)
    with pytest.raises(ConfigError):
        SimConfig(profiles=(profile,), link_params=(good,), policy="static", rng_seed=0,
                  static_split=(5, 5))  # static needs two legs
    with pytest.raises(ConfigError):
        SimConfig(profiles=(profile,), link_params=(good,), policy="single", rng_seed=-1)
    with pytest.raises(ConfigError, match="integer"):
        SimConfig(profiles=(profile,), link_params=(good,), policy="single", rng_seed=1.5)
    with pytest.raises(ConfigError):
        SimConfig(profiles=(profile,), link_params=(good,), policy="single", rng_seed=0,
                  retain_until_swap=True)
    pair = (profile, constant_profile(5, 0.5, T_RT, station="d"))
    with pytest.raises(ConfigError):
        SimConfig(profiles=pair, link_params=(good, good), policy="static", rng_seed=0,
                  static_split=(4, 5))
    with pytest.raises(ConfigError):
        SimConfig(profiles=pair, link_params=(good, link(m_sat=20)), policy="dynamic_int",
                  rng_seed=0)


def dual_config(policy="dynamic_int", seed=5, m_sat=10, retain=False, capture=False,
                split=None, n=40):
    rng = np.random.default_rng(seed + 1000)
    pa, pb = unimodal_pair(rng, n=n)
    lk = link(m_sat=m_sat)
    return SimConfig(
        profiles=(pa, pb), link_params=(lk, lk), policy=policy, rng_seed=seed,
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


@st.composite
def _unbounded_dual_configs(draw):
    """Two legs on one grid: random eta, visibility gaps, distances, drift, m_sat, m_ground."""
    n = draw(st.integers(8, 60))
    m_sat = draw(st.integers(2, 40))
    lk = LinkParams(
        m_sat=m_sat,
        m_ground=m_sat + draw(st.integers(0, 20)),
        emission_period_s=1e-6,
        acceptance_window_s=draw(st.floats(1e-11, 1.5e-9)),
        p_bsm=draw(st.floats(0.05, 1.0)),
    )

    def column(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n))

    profiles = []
    for station in ("a", "b"):
        visible = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        visible[0] = True  # one co-visible sample, so the dynamic split exists
        profiles.append(make_profile(
            column(1e-3, 1.0), visible, distance_m=column(3e5, 2e6),
            v_r_mps=column(-8e3, 8e3), station=station, step_s=0.1,
        ))
    a = draw(st.integers(1, m_sat - 1))
    policy, split = draw(st.sampled_from((("dynamic_int", None), ("static", (a, m_sat - a)))))
    return SimConfig(profiles=tuple(profiles), link_params=(lk, lk), policy=policy,
                     rng_seed=draw(st.integers(0, 2**32)), static_split=split)


def test_dual_fast_and_event_paths_agree():
    for seed in range(6):
        for policy, split in (("dynamic_int", None), ("static", (4, 6))):
            config = dual_config(policy=policy, seed=seed, split=split)
            fast = sim_mod._run_dual_fast(config)
            event = sim_mod._run_dual_event(config)
            _assert_same_counts(fast, event, (seed, policy))

    refilled = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(config=_unbounded_dual_configs())
    def agree(config):
        # the event loop draws photons in chunks and windows; the fast path
        # draws whole blocks of rounds: equal counts mean equal streams
        _assert_same_counts(sim_mod._run_dual_fast(config), sim_mod._run_dual_event(config), config)
        caps = sim_mod._capacity_series(config)
        photons = max(
            sum(b.k * b.n for b in sim_mod._leg_schedule(p, lk, cap, config.drift).blocks)
            for p, lk, cap in zip(config.profiles, config.link_params, caps)
        )
        refilled.append(photons > sim_mod._CHUNK_ROWS + config.m_s)

    agree()
    # some leg used more photons than one draw of uniforms holds
    assert any(refilled)


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
            config = SimConfig(profiles=(pa, pb), link_params=(lk, lk), policy=policy,
                               rng_seed=1, static_split=split, retain_until_swap=retain,
                               capture_rounds=True)
            samples = {int(r.start_time_s // 0.1) for r in run(config).rounds if r.leg == 0}
            assert 5 in samples and not samples & {3, 4}, (policy, retain)


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
                assert r.train_length == min(free, config.link_params[r.leg].m_ground), (seed, policy, r)
                assert r.train_length >= 1
                audited_with_pairs_held += buffered[r.leg] > 0
    # the audit is not vacuous: retained pairs shrank many trains
    assert audited_with_pairs_held > 100


# sha256 of the int64 per-leg and end-to-end bins of retained runs, as
# recorded before the event loop drew photons in chunks and windows
RETAINED_DIGESTS = {
    ("dual", "dynamic_int"): "46dc0bd99876ad7716ea8f47c4d6a4ad53879329a6d28d29babb7f28de1adc55",
    ("dual", "static"): "42dac3dbabf65a0d338c097a0d34d53ed5dee39c93fa3a7596baa5029bc0c347",
    ("calibrated", "dynamic_int"): "b86f5549ade7dba073ff49962817abf22c4fb4e231c25e93e6a3d441929c141d",
    ("calibrated", "static"): "11425dd24739d163d85e32d3851e25d276f6339e7bd63b4bd882b8371d27c6a7",
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
            run(SimConfig(profiles=(pa, pb), link_params=(lk, lk), policy=policy, rng_seed=seed,
                          static_split=calibrated_split, retain_until_swap=True))
            for seed in range(2)
        ]
        assert _counts_digest(calibrated) == RETAINED_DIGESTS[("calibrated", policy)]


def test_static_policy_respects_split():
    config = dual_config(policy="static", split=(3, 7), capture=True)
    result = run(config)
    for r in result.rounds:
        assert r.train_length <= (3 if r.leg == 0 else 7)


def test_disjoint_visibility_has_no_overlap():
    pa = make_profile(np.array([0.5, 0.5, 0.0, 0.0]), station="a")
    pb = make_profile(np.array([0.0, 0.0, 0.5, 0.5]), station="b")
    lk = link()
    config = SimConfig(profiles=(pa, pb), link_params=(lk, lk), policy="dynamic_int", rng_seed=0)
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
        replayed = replay(config, original.rounds)
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
    result = sim_mod._result(dual_config(), conf, succ, None)
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
    stale = RoundLog(engine_version="other-engine-9", seed=log.seed, policy=log.policy,
                     bin_width_s=log.bin_width_s, rounds=log.rounds)
    with pytest.raises(ReplayError):
        replay(config, stale)
    with pytest.raises(ReplayError):
        replay(config, None)


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


def test_expected_rate_long_run():
    # eta 0.5, p 0.5, m 10, t_rt 4 ms: 312.5 pairs/s expected; 20 s window
    result = run(single_config(n_s=20, eta=0.5, p=0.5, seed=11))
    rate = result.totals_per_leg[0] / 20.0
    assert rate == pytest.approx(0.5 * 0.5 * 10 / T_RT, rel=0.05)
