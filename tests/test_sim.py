"""Discrete-event engine: protocol invariants, determinism, replay, buffer modes."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satqlink import (
    ConfigError,
    LinkParams,
    MemoryPool,
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


def test_memory_pool_accounting():
    pool = MemoryPool(capacity=10)
    pool.start_round(10)
    assert pool.free_slots == 0 and pool.in_flight == 10
    pool.confirm(10, 7)
    # default mode: confirmed pairs leave their slots for the app buffer
    assert pool.free_slots == 10 and pool.entangled_buffer == 7
    pool.consume(5)
    assert pool.entangled_buffer == 2

    held = MemoryPool(capacity=10, retain_until_swap=True)
    held.start_round(10)
    held.confirm(10, 7)
    assert held.entangled_buffer == 7 and held.free_slots == 3
    held.consume(7)
    assert held.free_slots == 10
    with pytest.raises(ConfigError):
        held.consume(1)
    with pytest.raises(ConfigError):
        MemoryPool(capacity=5).start_round(6)


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


def test_dual_fast_and_event_paths_agree():
    for seed in range(6):
        for policy, split in (("dynamic_int", None), ("static", (4, 6))):
            config = dual_config(policy=policy, seed=seed, split=split)
            fast = sim_mod._run_dual_fast(config)
            event = sim_mod._run_dual_event(config)
            assert np.array_equal(fast.pairs_per_leg[0], event.pairs_per_leg[0]), (seed, policy)
            assert np.array_equal(fast.pairs_per_leg[1], event.pairs_per_leg[1]), (seed, policy)
            assert np.array_equal(fast.pairs_end_to_end, event.pairs_end_to_end), (seed, policy)


def test_retained_mode_reduces_leg_throughput():
    free = run(dual_config(seed=9))
    held = run(dual_config(seed=9, retain=True))
    assert held.totals_per_leg[0] <= free.totals_per_leg[0]
    assert held.totals_per_leg[1] <= free.totals_per_leg[1]
    assert held.total_end_to_end <= free.total_end_to_end


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
