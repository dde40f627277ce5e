"""Moment predictor and band-coverage verdicts against the engine."""

from __future__ import annotations

import io
import math
import warnings

import numpy as np
import pytest

from satqlink import (
    BinMoments,
    ConfigError,
    GridMismatchError,
    LinkParams,
    SimConfig,
    compare,
    compare_counts,
    pool_counts,
    predict_bin_moments,
    run,
    write_validation_csv,
)

from conftest import constant_profile, make_profile, unimodal_pair

T_RT = 0.004


def link(m_sat=10, p=0.5):
    return LinkParams(m_sat=m_sat, emission_period_s=1e-6,
                      acceptance_window_s=1.5e-9, p_bsm=p)


def config_for(eta, m_sat=10, p=0.5, n_s=20, seed=0, v_r=0.0, drift=True):
    profile = constant_profile(n_s, eta, T_RT, v_r_mps=v_r)
    return SimConfig(profiles=(profile,), link=link(m_sat, p),
                     policy="single", rng_seed=seed, drift=drift)


def test_lossless_channel_matches_exactly():
    config = config_for(eta=1.0, p=1.0)
    moments = predict_bin_moments(config)[0]
    assert np.all(moments.sigma == 0.0)
    report = compare(run(config), moments)
    assert report.verdict
    assert report.fraction_within_2sigma == 1.0
    assert report.z_total == 0.0
    evaluated = ~np.isnan(report.z)
    assert np.all(report.z[evaluated] == 0.0)


def test_sigma_zero_mismatch_is_infinite():
    moments = BinMoments(bin_width_s=1.0, mu=np.array([5.0]), sigma=np.array([0.0]))
    report = compare_counts(np.array([4]), moments)
    assert math.isinf(report.z[0])
    assert not report.verdict


def test_empty_bins_are_excluded():
    # two real bins, three structurally empty ones
    moments = BinMoments(bin_width_s=1.0,
                         mu=np.array([4.0, 4.0, 0.0, 0.0, 0.0]),
                         sigma=np.array([2.0, 2.0, 0.0, 0.0, 0.0]))
    report = compare_counts(np.array([4, 5, 0, 0, 0]), moments)
    assert report.bins_evaluated == 2
    assert np.isnan(report.z[2]) and np.isnan(report.z[4])
    assert report.verdict


def test_vacuous_comparison_is_true():
    moments = BinMoments(bin_width_s=1.0, mu=np.zeros(3), sigma=np.zeros(3))
    report = compare_counts(np.zeros(3, dtype=int), moments)
    assert report.bins_evaluated == 0
    assert report.fraction_within_2sigma == 1.0
    assert report.verdict


def test_verdict_thresholds():
    n = 10
    mu = np.full(n, 10.0)
    sigma = np.ones(n)
    moments = BinMoments(bin_width_s=1.0, mu=mu, sigma=sigma)
    counts = np.full(n, 10)
    counts[0] = 13  # one bin at 3 sigma: fraction 0.9, z_total ~ 0.95
    assert compare_counts(counts, moments).verdict
    counts[1] = 7  # second outlier: fraction 0.8
    assert not compare_counts(counts, moments).verdict


def test_grid_padding_counts_longer_than_moments():
    moments = BinMoments(bin_width_s=1.0, mu=np.array([4.0]), sigma=np.array([2.0]))
    report = compare_counts(np.array([4, 3]), moments)
    # the padded bin has mu 0 but a nonzero count: evaluated and infinitely off
    assert report.n_bins == 2
    assert report.bins_evaluated == 2
    assert math.isinf(report.z[1])
    assert not report.verdict


def test_binomial_calibration_pooled_seeds():
    base = config_for(eta=0.01, m_sat=50, n_s=30)
    k = 30
    results = [run(SimConfig(profiles=base.profiles, link=base.link,
                             policy="single", rng_seed=s)) for s in range(k)]
    pooled = pool_counts(results)
    moments = predict_bin_moments(base, n_runs=k)[0]
    report = compare_counts(pooled, moments)
    assert report.verdict
    assert report.bins_evaluated >= 25


def test_wrong_eta_is_detected():
    # simulate at eta, predict at eta/2: totals off by ~sqrt(mu) * many
    sim_config = config_for(eta=0.02, m_sat=50, n_s=30, seed=7)
    result = run(sim_config)
    weak = config_for(eta=0.01, m_sat=50, n_s=30, seed=7)
    moments = predict_bin_moments(weak)[0]
    report = compare(result, moments)
    assert not report.verdict
    assert report.z_total > 3.0


def test_drift_cap_enters_moments():
    on = predict_bin_moments(config_for(eta=0.5, m_sat=100, v_r=6998.0, drift=True))[0]
    off = predict_bin_moments(config_for(eta=0.5, m_sat=100, v_r=6998.0, drift=False))[0]
    # eligible 65 of 100 under drift
    assert on.mu.sum() == pytest.approx(off.mu.sum() * 65 / 100, rel=1e-9)


def test_total_count_within_three_se_across_seeds():
    base = config_for(eta=0.001, m_sat=10, n_s=20)
    k = 200
    totals = [run(SimConfig(profiles=base.profiles, link=base.link,
                            policy="single", rng_seed=s)).totals_per_leg[0]
              for s in range(k)]
    moments = predict_bin_moments(base)[0]
    mu_tot = float(moments.mu.sum())
    se = math.sqrt(float((moments.sigma ** 2).sum()) / k)
    assert abs(np.mean(totals) - mu_tot) <= 3.0 * se


def test_dual_moments_per_leg():
    rng = np.random.default_rng(5)
    pa, pb = unimodal_pair(rng)
    lk = link(m_sat=10)
    config = SimConfig(profiles=(pa, pb), link=lk,
                       policy="dynamic_int", rng_seed=3)
    moments = predict_bin_moments(config)
    assert len(moments) == 2
    result = run(config)
    for leg in (0, 1):
        report = compare(result, moments[leg], leg=leg)
        assert report.verdict, f"leg {leg}"


def test_retained_mode_has_no_closed_form():
    rng = np.random.default_rng(6)
    pa, pb = unimodal_pair(rng)
    lk = link(m_sat=10)
    config = SimConfig(profiles=(pa, pb), link=lk,
                       policy="dynamic_int", rng_seed=3, retain_until_swap=True)
    with pytest.raises(ConfigError):
        predict_bin_moments(config)


def test_bin_width_mismatch_rejected():
    config = config_for(eta=0.01)
    result = run(config)
    moments = BinMoments(bin_width_s=2.0, mu=np.zeros(3), sigma=np.zeros(3))
    with pytest.raises(GridMismatchError):
        compare(result, moments)


def test_pool_counts_pads_and_sums():
    a = run(config_for(eta=0.5, p=1.0, n_s=4, seed=1))
    b = run(config_for(eta=0.5, p=1.0, n_s=8, seed=2))
    pooled = pool_counts([a, b])
    assert pooled.size == max(a.pairs_per_leg[0].size, b.pairs_per_leg[0].size)
    assert pooled.sum() == a.totals_per_leg[0] + b.totals_per_leg[0]
    with pytest.raises(ConfigError):
        pool_counts([])


def test_pool_counts_and_moments_refuse_arguments_they_cannot_use():
    # compare's leg rule for pool_counts; a whole number of runs, not a bool, for the moments
    config = config_for(eta=0.5, p=1.0, n_s=4, seed=1)
    results = [run(config)]
    for leg in (5, 1, -1):
        with pytest.raises(ConfigError, match=f"a result has no leg {leg}") as got:
            pool_counts(results, leg=leg)
        assert got.value.field == "leg"
    for n_runs in (1.5, True, 0, -2):
        with pytest.raises(ConfigError, match="n_runs must be an integer >= 1") as got:
            predict_bin_moments(config, n_runs=n_runs)
        assert got.value.field == "n_runs"
    assert predict_bin_moments(config, n_runs=np.int64(2))[0].mu.sum() == 2 * predict_bin_moments(config)[0].mu.sum()


# counts compare_counts would score as other counts, or fail on with a bare numpy error or warning
BAD_COUNTS = {
    "floats": [1.5, 2.7, 3.2],
    "negative": [-1, 2, 3],
    "two_dimensional": [[1, 2], [3, 4]],
    "nan": [math.nan, 1.0, 2.0],
    "bools": [True, False, True],
    "past_int64": np.array([2**63, 1, 1], dtype=np.uint64),
    "past_uint64": [2**70, 1, 1],
}


@pytest.mark.parametrize("counts", BAD_COUNTS.values(), ids=BAD_COUNTS.keys())
def test_compare_counts_refuses_counts_it_would_change(counts):
    moments = BinMoments(bin_width_s=1.0, mu=np.ones(3), sigma=np.ones(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="^counts must be ") as got:
            compare_counts(counts, moments)
    assert got.value.field == "counts"
    assert compare_counts([1, 2, 3], moments).count.tolist() == [1, 2, 3]  # a list of integers is counts


def test_validation_csv_format():
    moments = BinMoments(bin_width_s=1.0, mu=np.array([4.0, 0.0]), sigma=np.array([2.0, 0.0]))
    report = compare_counts(np.array([5, 0]), moments)
    buf = io.StringIO()
    write_validation_csv(report, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "bin_start_s,mu,sigma,count,z"
    assert lines[1] == "0,4,2,5,0.5"
    assert lines[2].startswith("1,0,0,0,")
