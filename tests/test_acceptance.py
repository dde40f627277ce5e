"""Shipping gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines while the suite runs).  Criteria 4 and 7 simulate a
few hundred full runs and dominate the wall time.
"""

from __future__ import annotations

import io
import json
import time
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from satqlink import (
    LinkParams,
    LinkState,
    SimConfig,
    allocate_int,
    allocate_real,
    allocation_series,
    best_static_split,
    compare,
    compare_counts,
    corrected_rate,
    differential_shift,
    dual_rate,
    link_state_at,
    max_train_length,
    pool_counts,
    predict_bin_moments,
    rate_series,
    read_profile,
    read_round_log,
    replay,
    run,
    single_link_rate,
    write_profile,
    write_round_log,
    write_sim_csv,
)
from satqlink.cli import main as cli_main

from conftest import constant_profile, random_profile, unimodal_pair
from test_analytics import (
    ALLOC_INT_ORACLES,
    ALLOC_REAL_ORACLES,
    CORRECTED_ORACLES,
    DUAL_ORACLES,
    RATE_ORACLES,
    SHIFT_ORACLES,
    TRAIN_ORACLES,
    close,
    params,
    xy_states,
)


@contextmanager
def announce(n: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {label}")
        raise
    print(f"PASS criterion {n}: {label} ({time.perf_counter() - t0:.2f}s)")


def test_criterion_1_closed_form_oracles():
    with announce(1, "closed-form functions match >=20 frozen oracles at rel 1e-12 in <1s"):
        t0 = time.perf_counter()
        checked = 0
        for v_r, t_em, want in SHIFT_ORACLES:
            assert close(differential_shift(v_r, params(t_em=t_em)), want)
            checked += 1
        for v_r, w, t_em, want in TRAIN_ORACLES:
            assert max_train_length(v_r, params(w=w, t_em=t_em)) == want
            checked += 1
        for eta, n, t_rt, p, want in RATE_ORACLES:
            assert close(single_link_rate(LinkState(eta, t_rt), n, params(p=p)), want)
            checked += 1
        for eta, t_rt, v_r, m_sat, w, t_em, p, want in CORRECTED_ORACLES:
            got = corrected_rate(
                LinkState(eta, t_rt, v_r), params(m_sat=m_sat, w=w, t_em=t_em, p=p)
            )
            assert close(got, want)
            checked += 1
        for ea, ta, ma, pa, eb, tb, mb, pb, want in DUAL_ORACLES:
            got = dual_rate(
                LinkState(ea, ta), LinkState(eb, tb), ma, mb, params(p=pa), params(p=pb)
            )
            assert close(got, want)
            checked += 1
        for x, y, m_s, want_a in ALLOC_REAL_ORACLES:
            sa, sb = xy_states(x, y)
            m_a, m_b = allocate_real(sa, sb, m_s)
            assert close(m_a, want_a) and close(m_a + m_b, float(m_s))
            checked += 1
        for x, y, m_s, want_a, want_b in ALLOC_INT_ORACLES:
            sa, sb = xy_states(x, y)
            assert allocate_int(sa, sb, m_s) == (want_a, want_b)
            checked += 1
        assert checked >= 20
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_train_length_bound_in_report(tmp_path):
    with announce(2, "train bound at 6998 m/s is 64, in [64, 67], documented in report output"):
        t0 = time.perf_counter()
        bound = max_train_length(6998.0, params(w=1.5e-9, t_em=1e-6))
        assert bound == 64.0
        assert 64.0 <= bound <= 67.0
        spec = {
            "stations": [{"name": "nice", "latitude_deg": 43.7034, "longitude_deg": 7.2663}],
            "satellite": {"orbit_altitude_m": 500e3},
            "pass": {"epoch": "2026-03-21T10:00:00Z", "duration_s": 30, "step_s": 1.0},
            "run": {"policy": "single"},
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        assert cli_main(["report", "--spec", str(spec_path), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "report_summary.json").read_text())
        train = summary["train_length"]
        assert train["formula_floor"] == 64
        assert train["accepted_range"] == [64, 67]
        assert "67" in train["note"]
        assert time.perf_counter() - t0 < 1.0


def test_criterion_3_integer_allocation_identity_and_optimality():
    with announce(3, "10000 random splits: sum identity and exhaustive optimality in <10s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2026)
        pr = params()
        for _ in range(10000):
            eta_a, eta_b = 10 ** rng.uniform(-4.0, 0.0, 2)
            t_a, t_b = rng.uniform(1e-3, 1e-2, 2)
            m_s = int(rng.integers(2, 201))
            sa, sb = LinkState(eta_a, t_a), LinkState(eta_b, t_b)
            m_a, m_b = allocate_int(sa, sb, m_s)
            assert m_a + m_b == m_s
            got = dual_rate(sa, sb, m_a, m_b, pr)
            ks = np.arange(1, m_s)
            best = np.minimum(
                pr.p_bsm * eta_a / t_a * ks, pr.p_bsm * eta_b / t_b * (m_s - ks)
            ).max()
            assert got == pytest.approx(float(best), rel=1e-12)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_4_constant_channel_validation():
    label = "constant channel, 12 parameter combos, 100 pooled seeds each: verdict true"
    with announce(4, label):
        n_seeds, n_s = 100, 60
        for eta, t_rt, m_s in product((1e-3, 1e-2), (2e-3, 6e-3), (10, 50, 100)):
            profile = constant_profile(n_s, eta, t_rt)
            link = LinkParams(m_sat=m_s)

            def config(seed: int) -> SimConfig:
                return SimConfig(profiles=(profile,), link=link,
                                 policy="single", rng_seed=seed, drift=False)

            pooled = pool_counts([run(config(seed)) for seed in range(n_seeds)])
            moments = predict_bin_moments(config(0), n_runs=n_seeds)[0]
            report = compare_counts(pooled, moments)
            assert report.verdict, (
                f"eta={eta} t_rt={t_rt} m_s={m_s}: frac={report.fraction_within_2sigma:.3f} "
                f"z_total={report.z_total:.2f}"
            )


def test_criterion_5_full_pass_band_and_cap_structure(
    calibrated_m10, calibrated_m50, calibrated_m100
):
    label = "500 km pass: >=90% of visible seconds in band; cap active only for 100 slots at the edges"
    with announce(5, label):
        cases = {10: calibrated_m10, 50: calibrated_m50, 100: calibrated_m100}
        for m_s, (profiles, link) in cases.items():
            profile = profiles[0]
            config = SimConfig(profiles=(profile,), link=link,
                               policy="single", rng_seed=0)
            report = compare(run(config), predict_bin_moments(config)[0])
            assert report.fraction_within_2sigma >= 0.9, f"m_s={m_s}"
            assert report.bins_evaluated >= 200

            uncapped = rate_series(profile, link, use_drift_correction=False)
            corrected = rate_series(profile, link, use_drift_correction=True)
            if m_s < 100:
                assert np.array_equal(corrected, uncapped), f"cap active at m_s={m_s}"
                continue
            capped = corrected < uncapped
            assert capped.any()
            edge_speed = (link.acceptance_window_s * link.light_speed_mps
                          / (m_s * link.emission_period_s))
            assert np.all(np.abs(profile.radial_velocity_mps[capped]) > edge_speed)
            # the cap stays away from culmination where v_r crosses zero
            vis = np.flatnonzero(profile.visible)
            culmination = vis[np.argmin(np.abs(profile.radial_velocity_mps[vis]))]
            assert np.abs(np.flatnonzero(capped) - culmination).min() > 30


def _integrated_static(pa, pb, m_a, m_b, link):
    both = (pa.visible & (pa.eta > 0)) & (pb.visible & (pb.eta > 0))
    total = 0.0
    for i in np.flatnonzero(both):
        sa = link_state_at(pa, int(i), link)
        sb = link_state_at(pb, int(i), link)
        total += dual_rate(sa, sb, m_a, m_b, link)
    return total


def test_criterion_6_static_split_targets_and_exhaustive(
    calibrated_m10, calibrated_m50, calibrated_m100
):
    label = "static splits within +-4 of (48,52)/(24,26)/(5,5); exhaustive optimum on 20 synthetic pairs"
    with announce(6, label):
        t0 = time.perf_counter()
        targets = {100: (48, 52), 50: (24, 26), 10: (5, 5)}
        cases = {10: calibrated_m10, 50: calibrated_m50, 100: calibrated_m100}
        for m_s, (profiles, link) in cases.items():
            split = best_static_split(profiles[0], profiles[1], link)
            want = targets[m_s]
            assert abs(split[0] - want[0]) <= 4 and abs(split[1] - want[1]) <= 4, (
                f"m_s={m_s}: {split} vs {want}"
            )
            assert split[0] + split[1] == m_s

        rng = np.random.default_rng(7)
        link10 = LinkParams(m_sat=10)
        for _ in range(20):
            pa, pb = unimodal_pair(rng)
            split = best_static_split(pa, pb, link10)
            totals = [_integrated_static(pa, pb, k, 10 - k, link10) for k in range(11)]
            assert totals[split[0]] == max(totals)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7_dynamic_beats_static(calibrated_m100):
    label = "dynamic vs best static: analytic gap in [10%, 60%], sign agreement on >=95/100 seeds"
    with announce(7, label):
        t0 = time.perf_counter()
        (pa, pb), link = calibrated_m100
        alloc = allocation_series(pa, pb, link)
        dynamic_total = float(np.sum(alloc.rate_int)) * pa.step_s
        static_total = float(np.sum(alloc.static_rate)) * pa.step_s
        assert dynamic_total > static_total
        gap = (dynamic_total - static_total) / static_total
        assert 0.10 <= gap <= 0.60, f"gap={gap:.3f}"

        split = alloc.static_split

        def total_pairs(policy: str, seed: int) -> int:
            config = SimConfig(
                profiles=(pa, pb), link=link, policy=policy,
                rng_seed=seed, static_split=split if policy == "static" else None,
                retain_until_swap=True,
            )
            return run(config).total_end_to_end

        wins = sum(
            total_pairs("dynamic_int", seed) > total_pairs("static", seed)
            for seed in range(100)
        )
        assert wins >= 95, f"dynamic won {wins}/100 paired seeds"
        assert time.perf_counter() - t0 < 300.0


def test_criterion_8_determinism_and_replay(calibrated_m100):
    with announce(8, "same seed gives byte-identical CSVs; replay reproduces counts exactly"):
        t0 = time.perf_counter()
        (pa, pb), link = calibrated_m100
        config = SimConfig(profiles=(pa, pb), link=link,
                           policy="dynamic_int", rng_seed=3, capture_rounds=True)
        first, second = run(config), run(config)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        write_sim_csv(first, buf_a)
        write_sim_csv(second, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

        log_buf = io.StringIO()
        write_round_log(first, log_buf)
        log_buf.seek(0)
        replayed = replay(config, read_round_log(log_buf))
        for leg in range(2):
            assert np.array_equal(first.pairs_per_leg[leg], replayed.pairs_per_leg[leg])
        assert np.array_equal(first.pairs_end_to_end, replayed.pairs_end_to_end)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_9_profile_round_trip():
    with announce(9, "write/read round-trip holds 9 significant digits on 100 random profiles"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(29)
        for _ in range(100):
            profile = random_profile(rng)
            buf = io.StringIO()
            write_profile(profile, buf)
            buf.seek(0)
            back = read_profile(buf)
            assert back.station == profile.station
            assert back.epoch == profile.epoch
            assert back.step_s == profile.step_s
            assert np.array_equal(back.visible, profile.visible)
            for field in ("t_s", "distance_m", "elevation_deg", "radial_velocity_mps", "eta"):
                a, b = getattr(back, field), getattr(profile, field)
                assert np.all(np.abs(a - b) <= 1e-9 * np.abs(b)), field
        assert time.perf_counter() - t0 < 5.0
