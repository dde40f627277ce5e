"""Closed-form link equations against frozen oracles and exhaustive searches.

Oracle literals were computed independently with exact rational arithmetic
(fractions.Fraction on the binary-float inputs, 40-digit decimal where pi
or square roots appear) and frozen here; the implementation must agree to
1e-12 relative tolerance.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satqlink import (
    ConfigError,
    GridMismatchError,
    LinkParams,
    LinkState,
    NoOverlapError,
    NoVisibilityError,
    allocate_int,
    allocate_real,
    allocation_series,
    best_static_split,
    corrected_rate,
    differential_shift,
    dual_rate,
    link_state_at,
    max_train_length,
    rate_series,
    round_trip_time,
    single_link_rate,
    write_rate_csv,
)
from satqlink.analytics import _split_totals

from conftest import make_profile, unimodal_pair

REL = 1e-12


def close(got: float, want: float) -> bool:
    return got == pytest.approx(want, rel=REL, abs=0.0 if want else 1e-300)


# (v_r_mps, emission_period_s, expected)
SHIFT_ORACLES = [
    (6998.0, 1e-06, 2.334281538196668e-11),
    (-6998.0, 1e-06, -2.334281538196668e-11),
    (7616.5625, 1e-06, 2.5406117788326747e-11),
    (1.0, 1e-06, 3.3356409519815205e-15),
    (345678.9, 1e-06, 1.1530606950759249e-09),
    (6998.0, 2e-06, 4.668563076393336e-11),
]

# (v_r_mps, window_s, emission_period_s, expected_floor)
TRAIN_ORACLES = [
    (6998.0, 1.5e-09, 1e-06, 64.0),
    (-6998.0, 1.5e-09, 1e-06, 64.0),
    (6653.4344483295345, 1.5e-09, 1e-06, 67.0),
    (100.0, 1.5e-09, 1e-06, 4496.0),
    (7000.0, 1.5e-09, 1e-06, 64.0),
    (6998.0, 3e-09, 1e-06, 128.0),
    (6998.0, 1.5e-09, 2e-06, 32.0),
]

# (eta, n_train, t_rt_s, p_bsm, expected)
RATE_ORACLES = [
    (0.01, 100, 0.004, 0.5, 125.0),
    (0.001, 50, 0.002, 0.5, 12.5),
    (0.5, 10, 0.006, 0.25, 208.33333333333334),
    (1.0, 1, 0.01, 1.0, 100.0),
    (0.010270139855451985, 64.25959941411833, 0.0033356409519815205, 0.5, 98.92477675786309),
    (0.00025, 200, 0.0030013845711889123, 0.5, 8.329489076468787),
]

# (eta, t_rt_s, v_r_mps, m_sat, window_s, emission_period_s, p_bsm, expected)
CORRECTED_ORACLES = [
    (0.01, 0.004, 0.0, 100, 1.5e-09, 1e-06, 0.5, 125.0),
    (0.01, 0.004, 6998.0, 100, 1.5e-09, 1e-06, 0.5, 80.32450110745928),
    (0.01, 0.004, -6998.0, 100, 1.5e-09, 1e-06, 0.5, 80.32450110745928),
    (0.01, 0.004, 6998.0, 50, 1.5e-09, 1e-06, 0.5, 62.5),
    (0.2, 0.0033356409519815205, 7616.5625, 100, 1.5e-09, 1e-06, 0.5, 1770.0015828731487),
    (0.0034, 0.0021, 5000.0, 150, 3e-09, 1e-06, 0.25, 60.714285714285715),
]

# (eta_a, t_a, m_a, p_a, eta_b, t_b, m_b, p_b, expected)
DUAL_ORACLES = [
    (0.01, 0.004, 50, 0.5, 0.01, 0.004, 50, 0.5, 62.5),
    (0.01, 0.004, 48, 0.5, 0.002, 0.005, 52, 0.5, 10.4),
    (0.1, 0.002, 0, 0.5, 0.2, 0.003, 10, 0.5, 0.0),
    (0.05, 0.0033, 7, 0.5, 0.07, 0.0029, 3, 0.25, 18.10344827586207),
    (1.0, 0.002, 64, 1.0, 1.0, 0.002, 36, 1.0, 18000.0),
]

# (x, y, m_s, expected_m_a) with states LinkState(eta=1, t_rt=x) so the
# load ratios equal the literals exactly
ALLOC_REAL_ORACLES = [
    (0.25, 0.25, 100, 50.0),
    (0.75, 0.375, 90, 60.0),
    (0.123, 0.456, 10, 2.1243523316062176),
    (2.5, 0.5, 7, 5.833333333333333),
]

# (x, y, m_s, expected_m_a, expected_m_b)
ALLOC_INT_ORACLES = [
    (0.25, 0.25, 10, 5, 5),
    (0.25, 0.25, 11, 5, 6),
    (0.75, 0.375, 90, 60, 30),
    (0.123, 0.456, 10, 2, 8),
    (2.5, 0.5, 7, 5, 2),
    (1.0, 3.0, 2, 1, 1),
    (5.0, 1.0, 200, 166, 34),
]

# (distance_m, processing_s, expected)
T_RT_ORACLES = [
    (300000.0, 0.0, 0.0020013845711889123),
    (500000.0, 0.0, 0.0033356409519815205),
    (1000000.0, 0.0, 0.006671281903963041),
    (500000.0, 0.001, 0.0043356409519815205),
]


def params(m_sat=100, w=1.5e-9, t_em=1e-6, p=0.5, proc=0.0) -> LinkParams:
    return LinkParams(
        m_sat=m_sat,
        emission_period_s=t_em,
        acceptance_window_s=w,
        p_bsm=p,
        processing_delay_s=proc,
    )


def test_differential_shift_oracles():
    for v_r, t_em, want in SHIFT_ORACLES:
        assert close(differential_shift(v_r, params(t_em=t_em)), want)


def test_max_train_length_oracles():
    for v_r, w, t_em, want in TRAIN_ORACLES:
        assert max_train_length(v_r, params(w=w, t_em=t_em)) == want
    assert max_train_length(0.0, params()) == math.inf


def test_single_link_rate_oracles():
    for eta, n, t_rt, p, want in RATE_ORACLES:
        assert close(single_link_rate(LinkState(eta, t_rt), n, params(p=p)), want)
    with pytest.raises(ConfigError):
        single_link_rate(LinkState(0.01, 0.004), 0, params())


def test_corrected_rate_oracles():
    for eta, t_rt, v_r, m_sat, w, t_em, p, want in CORRECTED_ORACLES:
        got = corrected_rate(LinkState(eta, t_rt, v_r), params(m_sat=m_sat, w=w, t_em=t_em, p=p))
        assert close(got, want)


def test_corrected_rate_cap_condition():
    # the cap bites exactly where |v_r| > w c / (m_sat T_em)
    pr = params(m_sat=100)
    v_edge = pr.acceptance_window_s * pr.light_speed_mps / (pr.m_sat * pr.emission_period_s)
    state = lambda v: LinkState(0.01, 0.004, v)
    uncapped = single_link_rate(state(0.0), pr.m_sat, pr)
    assert corrected_rate(state(v_edge * 0.999), pr) == uncapped
    assert corrected_rate(state(v_edge * 1.001), pr) < uncapped
    assert corrected_rate(state(0.0), pr) == uncapped


def test_dual_rate_oracles():
    for ea, ta, ma, pa, eb, tb, mb, pb, want in DUAL_ORACLES:
        got = dual_rate(
            LinkState(ea, ta), LinkState(eb, tb), ma, mb,
            params(p=pa), params(p=pb),
        )
        assert close(got, want)
    with pytest.raises(ConfigError):
        dual_rate(LinkState(0.1, 0.002), LinkState(0.1, 0.002), -1, 5, params())


def test_dual_rate_leg_swap_symmetric():
    sa, sb = LinkState(0.01, 0.004, 100.0), LinkState(0.002, 0.005, -50.0)
    assert dual_rate(sa, sb, 48, 52, params()) == dual_rate(sb, sa, 52, 48, params())


def xy_states(x: float, y: float) -> tuple[LinkState, LinkState]:
    # eta = 1 makes the load ratio equal t_rt exactly
    return LinkState(1.0, x), LinkState(1.0, y)


def test_allocate_real_oracles():
    for x, y, m_s, want_a in ALLOC_REAL_ORACLES:
        sa, sb = xy_states(x, y)
        m_a, m_b = allocate_real(sa, sb, m_s)
        assert close(m_a, want_a)
        assert close(m_a + m_b, float(m_s))


def test_allocate_real_equalizes_rates():
    rng = np.random.default_rng(3)
    pr = params()
    for _ in range(50):
        sa = LinkState(10 ** rng.uniform(-4, 0), rng.uniform(1e-3, 1e-2))
        sb = LinkState(10 ** rng.uniform(-4, 0), rng.uniform(1e-3, 1e-2))
        m_s = int(rng.integers(2, 200))
        m_a, m_b = allocate_real(sa, sb, m_s)
        r_a = pr.p_bsm * m_a * sa.eta / sa.t_rt_s
        r_b = pr.p_bsm * m_b * sb.eta / sb.t_rt_s
        assert r_a == pytest.approx(r_b, rel=1e-9)
        # the equal-rate point beats nearby real splits on the min-rate
        best = dual_rate(sa, sb, m_a, m_b, pr)
        for d in (-0.37, 0.51):
            if 0 <= m_a + d <= m_s:
                assert dual_rate(sa, sb, m_a + d, m_b - d, pr) <= best + 1e-12 * best


def test_allocate_int_oracles():
    for x, y, m_s, want_a, want_b in ALLOC_INT_ORACLES:
        sa, sb = xy_states(x, y)
        assert allocate_int(sa, sb, m_s) == (want_a, want_b)


def test_allocate_int_sum_identity_1000_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        sa = LinkState(10 ** rng.uniform(-6, 0), rng.uniform(1e-4, 1e-1))
        sb = LinkState(10 ** rng.uniform(-6, 0), rng.uniform(1e-4, 1e-1))
        m_s = int(rng.integers(2, 201))
        m_a, m_b = allocate_int(sa, sb, m_s)
        assert m_a + m_b == m_s
        assert m_a >= 1 and m_b >= 1


def test_allocate_int_optimal_vs_exhaustive_100_random():
    rng = np.random.default_rng(17)
    pr = params()
    for _ in range(100):
        sa = LinkState(10 ** rng.uniform(-4, 0), rng.uniform(1e-3, 1e-2))
        sb = LinkState(10 ** rng.uniform(-4, 0), rng.uniform(1e-3, 1e-2))
        m_s = int(rng.integers(2, 201))
        m_a, m_b = allocate_int(sa, sb, m_s)
        got = dual_rate(sa, sb, m_a, m_b, pr)
        best = max(dual_rate(sa, sb, k, m_s - k, pr) for k in range(1, m_s))
        assert got == pytest.approx(best, rel=1e-12)


def test_allocate_zero_eta_raises():
    with pytest.raises(NoVisibilityError):
        allocate_real(LinkState(0.0, 0.004), LinkState(0.01, 0.004), 10)
    with pytest.raises(NoVisibilityError):
        allocate_int(LinkState(0.01, 0.004), LinkState(0.0, 0.004), 10)


def test_round_trip_time_oracles():
    for dist, proc, want in T_RT_ORACLES:
        assert close(round_trip_time(dist, params(proc=proc)), want)
    with pytest.raises(ConfigError):
        round_trip_time(0.0, params())


# each scalar wrapper fed a number its formula cannot take: the argument it names, and the call
SA, SB = LinkState(0.01, 0.004), LinkState(0.002, 0.005)
SCALAR_REFUSALS = {
    "allocate_int_of_a_float": ("m_s", lambda: allocate_int(SA, SB, 2.5)),
    "allocate_int_of_nan": ("m_s", lambda: allocate_int(SA, SB, math.nan)),
    "allocate_real_of_a_negative": ("m_s", lambda: allocate_real(SA, SB, -4)),
    "allocate_real_of_a_float": ("m_s", lambda: allocate_real(SA, SB, 10.0)),
    "dual_rate_of_nan": ("m_a", lambda: dual_rate(SA, SB, math.nan, 5, params())),
    "dual_rate_of_inf": ("m_b", lambda: dual_rate(SA, SB, 5, math.inf, params())),
    "single_link_rate_of_nan": ("n_train", lambda: single_link_rate(SA, math.nan, params())),
    "single_link_rate_of_inf": ("n_train", lambda: single_link_rate(SA, math.inf, params())),
    "round_trip_time_of_nan": ("distance_m", lambda: round_trip_time(math.nan, params())),
    "round_trip_time_of_inf": ("distance_m", lambda: round_trip_time(math.inf, params())),
    "round_trip_time_of_a_string": ("distance_m", lambda: round_trip_time("5e5", params())),
    "allocate_int_past_int64": ("m_s", lambda: allocate_int(SA, SB, 2**70)),
    "allocate_int_past_the_slot_interval": ("m_s", lambda: allocate_int(SA, SB, 10**6 + 1)),
    "allocate_real_past_the_slot_interval": ("m_s", lambda: allocate_real(SA, SB, 10**6 + 1)),
    "max_train_length_of_nan": ("v_r_mps", lambda: max_train_length(math.nan, params())),
    "max_train_length_of_inf": ("v_r_mps", lambda: max_train_length(math.inf, params())),
    "max_train_length_of_a_string": ("v_r_mps", lambda: max_train_length("7e3", params())),
    "differential_shift_of_nan": ("v_r_mps", lambda: differential_shift(math.nan, params())),
    "differential_shift_of_minus_inf": ("v_r_mps", lambda: differential_shift(-math.inf, params())),
    "differential_shift_of_a_bool": ("v_r_mps", lambda: differential_shift(True, params())),
}


@pytest.mark.parametrize("field, call", SCALAR_REFUSALS.values(), ids=SCALAR_REFUSALS.keys())
def test_scalar_api_refuses_numbers_its_formula_cannot_take(field, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as got:
            call()
    assert got.value.field == field


def test_link_params_validation():
    with pytest.raises(ConfigError):
        LinkParams(m_sat=0)
    with pytest.raises(ConfigError):
        LinkParams(m_sat=10, m_ground=5)
    with pytest.raises(ConfigError):
        LinkParams(m_sat=10, p_bsm=0.0)
    assert LinkParams(m_sat=10).m_ground == 10
    assert LinkParams(m_sat=10).with_m_sat(40).m_ground == 40
    assert LinkParams(m_sat=10, m_ground=60).with_m_sat(40).m_ground == 60
    assert LinkParams(m_sat=10, m_ground=20, p_bsm=0.4).with_m_sat(40) == LinkParams(
        m_sat=40, m_ground=40, p_bsm=0.4
    )
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("m_sat", "m_ground", "emission_period_s", "acceptance_window_s", "p_bsm",
                     "processing_delay_s", "light_speed_mps"):
            kwargs = {"m_sat": 10, name: bad}
            with pytest.raises(ConfigError, match=f"{name} is not finite"):
                LinkParams(**kwargs)


def test_best_static_split_identical_profiles():
    eta = np.concatenate([np.zeros(3), np.full(20, 1e-3), np.zeros(3)])
    pa = make_profile(eta, station="a")
    pb = make_profile(eta, station="b")
    assert best_static_split(pa, pb, params(m_sat=10)) == (5, 5)
    assert best_static_split(pa, pb, params(m_sat=11)) == (5, 6)


def test_best_static_split_single_covisible_sample():
    eta_a = np.array([0.0, 2e-3, 1e-3, 0.0])
    eta_b = np.array([0.0, 0.0, 4e-3, 5e-3])
    pa = make_profile(eta_a, station="a")
    pb = make_profile(eta_b, station="b")
    pr = params(m_sat=20)
    split = best_static_split(pa, pb, pr)
    sa = link_state_at(pa, 2, pr)
    sb = link_state_at(pb, 2, pr)
    assert split == allocate_int(sa, sb, 20)


def test_best_static_split_beats_integrated_exhaustive():
    rng = np.random.default_rng(23)
    pr = params(m_sat=10)
    checked = 0
    for _ in range(20):
        pa, pb = unimodal_pair(rng)
        both = pa.visible & pb.visible & (pa.eta > 0) & (pb.eta > 0)
        if not both.any():
            continue
        checked += 1
        split = best_static_split(pa, pb, pr)
        idx = np.flatnonzero(both)
        states = [(link_state_at(pa, int(i), pr), link_state_at(pb, int(i), pr)) for i in idx]
        totals = [
            sum(dual_rate(sa, sb, m_a, 10 - m_a, pr) for sa, sb in states)
            for m_a in range(11)
        ]
        assert totals[split[0]] >= max(totals) - 1e-12 * max(totals)
    assert checked >= 15


def test_best_static_split_no_overlap():
    pa = make_profile(np.array([1e-3, 1e-3, 0.0, 0.0]), station="a")
    pb = make_profile(np.array([0.0, 0.0, 1e-3, 1e-3]), station="b")
    with pytest.raises(NoOverlapError):
        best_static_split(pa, pb, params(m_sat=10))


@pytest.mark.parametrize("search", [best_static_split, allocation_series], ids=lambda f: f.__name__)
def test_split_search_refuses_a_link_of_one_slot(search):
    # one slot cannot be split between two legs: the link's m_sat is refused before the profiles are compared
    pa = make_profile(np.full(5, 1e-3), station="a")
    for pb in (make_profile(np.full(5, 1e-3), station="b"), make_profile(np.full(6, 1e-3), station="b")):
        with pytest.raises(ConfigError) as got:
            search(pa, pb, params(m_sat=1))
        assert got.value.field == "m_sat"


def test_grid_mismatch_detected():
    pa = make_profile(np.full(5, 1e-3))
    pb = make_profile(np.full(6, 1e-3))
    with pytest.raises(GridMismatchError):
        best_static_split(pa, pb, params(m_sat=10))
    pc = make_profile(np.full(5, 1e-3), step_s=2.0)
    with pytest.raises(GridMismatchError):
        allocation_series(pa, pc, params(m_sat=10))


def test_allocation_series_properties():
    rng = np.random.default_rng(29)
    pr = params(m_sat=10)
    pa, pb = unimodal_pair(rng)
    alloc = allocation_series(pa, pb, pr)
    assert np.all(alloc.m_A_int + alloc.m_B_int == 10)
    assert np.allclose(alloc.m_A_real + alloc.m_B_real, 10.0)
    assert np.all(alloc.rate_int <= alloc.rate_real + 1e-9)
    # per-sample integer optimum dominates any fixed split
    assert np.all(alloc.static_rate <= alloc.rate_int + 1e-12)
    both = pa.visible & pb.visible & (pa.eta > 0) & (pb.eta > 0)
    assert np.all(alloc.rate_int[~both] == 0.0)
    only_a = pa.visible & (pa.eta > 0) & ~(pb.visible & (pb.eta > 0))
    assert np.all(alloc.m_A_int[only_a] == 10)
    only_b = pb.visible & (pb.eta > 0) & ~(pa.visible & (pa.eta > 0))
    assert np.all(alloc.m_B_int[only_b] == 10)
    neither = ~(pa.visible & (pa.eta > 0)) & ~(pb.visible & (pb.eta > 0))
    assert np.all(alloc.m_A_int[neither] == 5)


def test_allocation_series_json_fields():
    rng = np.random.default_rng(31)
    pa, pb = unimodal_pair(rng)
    alloc = allocation_series(pa, pb, params(m_sat=10))
    doc = alloc.to_json_dict()
    assert set(doc) == {
        "t_s", "m_A_real", "m_B_real", "m_A_int", "m_B_int",
        "rate_real", "rate_int", "static_split", "static_rate",
    }
    assert doc["static_split"] == list(alloc.static_split)


def test_rate_series_drift_condition():
    # corrected < uncorrected exactly where |v_r| > w c / (m_sat T_em)
    pr = params(m_sat=100)
    n = 50
    v = np.linspace(-8000, 8000, n)
    profile = make_profile(
        np.full(n, 0.01), distance_m=np.full(n, 600e3), v_r_mps=v, station="v"
    )
    corrected = rate_series(profile, pr, use_drift_correction=True)
    plain = rate_series(profile, pr, use_drift_correction=False)
    v_edge = pr.acceptance_window_s * pr.light_speed_mps / (pr.m_sat * pr.emission_period_s)
    affected = np.abs(v) > v_edge
    assert np.all(corrected[affected] < plain[affected])
    assert np.all(corrected[~affected] == plain[~affected])


def test_rate_series_invisible_zero():
    eta = np.array([0.0, 1e-3, 0.0, 1e-3, 0.0])
    profile = make_profile(eta)
    series = rate_series(profile, params(m_sat=10))
    assert series[0] == series[2] == series[4] == 0.0
    assert np.all(series[[1, 3]] > 0)


def test_link_state_rejects_non_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            LinkState(eta=0.5, t_rt_s=bad)
        with pytest.raises(ConfigError):
            LinkState(eta=0.5, t_rt_s=0.004, v_r_mps=bad)
        with pytest.raises(ConfigError):
            LinkState(eta=bad, t_rt_s=0.004)


def _reference_series(pa, pb, m_s, pr):
    """The closed-form series evaluated one sample at a time through the scalar API."""
    n = pa.n_samples
    vis_a = pa.visible & (pa.eta > 0)
    vis_b = pb.visible & (pb.eta > 0)
    both = np.flatnonzero(vis_a & vis_b)
    states = {int(i): (link_state_at(pa, int(i), pr), link_state_at(pb, int(i), pr)) for i in both}
    totals = []
    for m_a in range(m_s + 1):
        total = 0.0
        for sa, sb in states.values():
            total += dual_rate(sa, sb, m_a, m_s - m_a, pr)
        totals.append(total)
    split = (totals.index(max(totals)), m_s - totals.index(max(totals)))
    m_a_real = np.where(vis_a, float(m_s), np.where(vis_b, 0.0, m_s / 2.0))
    m_a_int = np.where(vis_a, m_s, np.where(vis_b, 0, m_s - m_s // 2)).astype(np.int64)
    rate_real, rate_int, static_rate = np.zeros(n), np.zeros(n), np.zeros(n)
    for i, (sa, sb) in states.items():
        m_a_real[i] = allocate_real(sa, sb, m_s)[0]
        m_a_int[i] = allocate_int(sa, sb, m_s)[0]
        rate_real[i] = dual_rate(sa, sb, m_a_real[i], m_s - m_a_real[i], pr)
        rate_int[i] = dual_rate(sa, sb, m_a_int[i], m_s - m_a_int[i], pr)
        static_rate[i] = dual_rate(sa, sb, split[0], split[1], pr)
    alloc = {
        "t_s": pa.t_s, "m_A_real": m_a_real, "m_B_real": m_s - m_a_real,
        "m_A_int": m_a_int, "m_B_int": m_s - m_a_int, "rate_real": rate_real,
        "rate_int": rate_int, "static_rate": static_rate,
    }
    rates = {}
    for profile in (pa, pb):
        for drift in (True, False):
            out = np.zeros(n)
            for i in np.flatnonzero(profile.visible & (profile.eta > 0)):
                state = link_state_at(profile, int(i), pr)
                out[i] = corrected_rate(state, pr) if drift else single_link_rate(state, pr.m_sat, pr)
            rates[profile.station, drift] = out
    return alloc, split, np.array(totals), rates


def _assert_series_match_reference(pa, pb, m_s, pr):
    alloc = allocation_series(pa, pb, pr)
    want, split, totals, rates = _reference_series(pa, pb, m_s, pr)
    for name, column in want.items():
        got = getattr(alloc, name)
        assert got.dtype == column.dtype and np.array_equal(got, column), name
    assert alloc.static_split == split
    # the search adds one vector per sample in sample order: equal to a sequential sum
    assert np.array_equal(_split_totals(pa, pb, pr), totals)
    for (station, drift), column in rates.items():
        profile = pa if station == pa.station else pb
        assert np.array_equal(rate_series(profile, pr, use_drift_correction=drift), column)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    m_s=st.integers(2, 60),
    proc=st.sampled_from([0.0, 1e-4]),
)
def test_series_match_scalar_reference_on_random_passes(seed, m_s, proc):
    pa, pb = unimodal_pair(np.random.default_rng(seed))
    _assert_series_match_reference(pa, pb, m_s, params(m_sat=m_s, proc=proc))


# sha256 of the calibrated single-link series' float64 bytes, recorded
# before the series were evaluated on whole profile columns; the CLI writes
# these rates at 12 digits only, so this is what pins their float order.
CALIBRATED_RATE_SHA256 = {
    ("nice", True): "b82aa44f9efe3ec4e98d86fa0bc07c38c7de18bf9e70ef64c474b03e33694943",
    ("nice", False): "7acf36449b7078be9ba621cd1fcd899320cc6f1689ce6c63f4c18f94167e973e",
    ("paris", True): "0d826c8b64379ca6e69655b140023fa4b3204082167f35adcf0f574f1472e837",
    ("paris", False): "20a98cd959547fe8be2a0a4d09256323ebe89c351a3cc9b0a18cfa0b198e0b55",
}


def test_series_match_scalar_reference_on_calibrated_pass(calibrated_m100):
    (pa, pb), link = calibrated_m100
    _assert_series_match_reference(pa, pb, link.m_sat, link)
    for (station, drift), want in CALIBRATED_RATE_SHA256.items():
        series = rate_series(pa if station == pa.station else pb, link, use_drift_correction=drift)
        assert hashlib.sha256(series.tobytes()).hexdigest() == want, (station, drift)


def test_write_rate_csv_format():
    buf = io.StringIO()
    write_rate_csv(buf, [0.0, 1.0], [1.5, 2.5], [3, 4], [7, 6])
    assert buf.getvalue() == "t_s,rate_pairs_per_s,m_A,m_B\n0,1.5,3,7\n1,2.5,4,6\n"
    buf = io.StringIO()
    write_rate_csv(buf, [0.0], [0.125])
    assert buf.getvalue() == "t_s,rate_pairs_per_s\n0,0.125\n"


def test_write_rate_csv_needs_both_splits_or_neither():
    for m_a, m_b in (([1, 2], None), (None, [1, 2])):
        buf = io.StringIO()
        with pytest.raises(ConfigError, match="both m_a and m_b"):
            write_rate_csv(buf, [0.0, 1.0], [1.0, 2.0], m_a, m_b)
        assert buf.getvalue() == ""


def test_write_rate_csv_accepts_str_bytes_and_pathlike(tmp_path):
    want = "t_s,rate_pairs_per_s\n0,0.125\n"
    for i, wrap in enumerate((str, os.fsencode, lambda p: p)):
        path = tmp_path / f"rate{i}.csv"
        write_rate_csv(wrap(path), [0.0], [0.125])
        assert path.read_bytes() == want.encode()


def test_write_rate_csv_refuses_unequal_columns(tmp_path):
    path = tmp_path / "rate.csv"
    path.write_bytes(b"before\n")
    with pytest.raises(ConfigError, match="t_s=3, rate_pairs_per_s=1, m_A=3, m_B=2"):
        write_rate_csv(path, [0.0, 1.0, 2.0], [1.0], [1, 2, 3], [4, 5])
    assert path.read_bytes() == b"before\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rate.csv"]


def test_writer_failing_midway_keeps_the_previous_file(tmp_path):
    path = tmp_path / "rate.csv"
    write_rate_csv(path, [0.0], [0.125])
    before = path.read_bytes()
    # the third m_A cell cannot be formatted, after the header and two rows
    m_a = np.array([1, 2, None], dtype=object)
    with pytest.raises(TypeError):
        write_rate_csv(path, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0], m_a, [4, 5, 6])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["rate.csv"]
