"""Pass geometry, link budget, and profile serialization.

Budget and orbit oracles were frozen from 40-digit decimal arithmetic;
agreement is required to 1e-12 relative, which leaves the implementation
a few ULP of float reassociation slack.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satqlink import (
    ConfigError,
    DataFormatError,
    GroundStation,
    OpticalParams,
    PassSample,
    SatelliteConfig,
    link_budget,
    load_experiment,
    overpass_geometry,
    propagate_pass,
    read_profile,
    write_profile,
)

from satqlink.passes import _write_csv
from satqlink.sim import _sample_start

from conftest import DEMO_SPEC, make_profile, random_profile

REL = 1e-12


def sample(distance_m: float, elevation_deg: float) -> PassSample:
    return PassSample(
        t_s=0.0,
        distance_m=distance_m,
        elevation_deg=elevation_deg,
        radial_velocity_mps=0.0,
        eta=0.0,
        visible=True,
    )


def test_ground_station_validation():
    GroundStation("ok", 45.0, 7.0)
    with pytest.raises(ConfigError):
        GroundStation("", 45.0, 7.0)
    with pytest.raises(ConfigError):
        GroundStation("two words", 45.0, 7.0)
    with pytest.raises(ConfigError):
        GroundStation("bad", 91.0, 7.0)
    with pytest.raises(ConfigError):
        GroundStation("bad", 45.0, 181.0)
    with pytest.raises(ConfigError):
        GroundStation("bad", 45.0, 7.0, min_elevation_deg=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("latitude_deg", "longitude_deg", "altitude_m", "rx_telescope_diameter_m",
                     "min_elevation_deg"):
            with pytest.raises(ConfigError, match=f"{name} is not finite"):
                GroundStation(**{"name": "bad", "latitude_deg": 45.0, "longitude_deg": 7.0, name: bad})
        for name in ("orbit_altitude_m", "orbit_inclination_deg", "raan_deg", "phase_at_epoch_deg",
                     "tx_telescope_diameter_m", "memory_slots"):
            with pytest.raises(ConfigError, match=f"{name} is not finite"):
                SatelliteConfig(**{"orbit_altitude_m": 500e3, name: bad})
        for name in ("wavelength_m", "zenith_atmospheric_transmission", "system_efficiency"):
            with pytest.raises(ConfigError, match=f"{name} is not finite"):
                OpticalParams(**{name: bad})


def test_pass_sample_rejects_non_finite():
    good = dict(t_s=0.0, distance_m=5e5, elevation_deg=30.0, radial_velocity_mps=100.0,
                eta=0.5, visible=True)
    PassSample(**good)
    for name in ("t_s", "distance_m", "elevation_deg", "radial_velocity_mps", "eta"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"{name} is not finite"):
                PassSample(**{**good, name: bad})


def test_satellite_orbit_oracles():
    sat = SatelliteConfig(orbit_altitude_m=500e3)
    assert sat.semi_major_axis_m == 6871000.0
    assert sat.mean_motion_rad_s == pytest.approx(0.001108508340308963, rel=REL)
    assert sat.orbital_speed_mps == pytest.approx(7616.560806262885, rel=REL)
    sat = SatelliteConfig(orbit_altitude_m=300e3)
    assert sat.mean_motion_rad_s == pytest.approx(0.0011587306022119387, rel=REL)
    assert sat.orbital_speed_mps == pytest.approx(7729.891847355842, rel=REL)
    with pytest.raises(ConfigError):
        SatelliteConfig(orbit_altitude_m=-1.0)


# (D_tx, D_rx, wavelength_m, distance_m, expected geometric term)
GEOMETRY_ORACLES = [
    (0.1, 1.0, 1.55e-06, 500000.0, 0.010270139855451988),
    (0.1, 1.0, 1.55e-06, 1000000.0, 0.002567534963862997),
    (0.3, 0.5, 8.1e-07, 750000.0, 0.03760708886255662),
]


def test_link_budget_geometric_oracles():
    # elevation 90 with unit zenith transmission isolates the diffraction term
    for d_tx, d_rx, wavelength, dist, want in GEOMETRY_ORACLES:
        sat = SatelliteConfig(orbit_altitude_m=500e3, tx_telescope_diameter_m=d_tx)
        station = GroundStation("g", 0.0, 0.0, rx_telescope_diameter_m=d_rx)
        optics = OpticalParams(wavelength_m=wavelength)
        assert link_budget(sample(dist, 90.0), sat, station, optics) == pytest.approx(want, rel=REL)


def test_link_budget_airmass():
    sat = SatelliteConfig(orbit_altitude_m=500e3)
    station = GroundStation("g", 0.0, 0.0)
    # 10 km range saturates the diffraction cap, isolating the airmass term
    close = 10e3
    assert link_budget(sample(close, 30.0), sat, station,
                       OpticalParams(zenith_atmospheric_transmission=0.5)) == pytest.approx(0.25, rel=REL)
    assert link_budget(sample(close, 90.0), sat, station,
                       OpticalParams(zenith_atmospheric_transmission=0.85)) == pytest.approx(0.85, rel=REL)
    assert link_budget(sample(close, 20.0), sat, station,
                       OpticalParams(zenith_atmospheric_transmission=0.85)) == pytest.approx(
        0.6217771307297928, rel=REL)


def test_link_budget_cap_and_efficiency():
    sat = SatelliteConfig(orbit_altitude_m=500e3)
    station = GroundStation("g", 0.0, 0.0)
    assert link_budget(sample(1e3, 90.0), sat, station, OpticalParams()) == 1.0
    got = link_budget(sample(1e3, 90.0), sat, station, OpticalParams(system_efficiency=0.37))
    assert got == pytest.approx(0.37, rel=REL)
    with pytest.raises(ConfigError):
        link_budget(sample(1e3, -1.0), sat, station, OpticalParams())


@pytest.mark.parametrize("telescope", ["tx", "rx"])
def test_a_huge_telescope_caps_the_gain_without_overflow(telescope):
    exp = load_experiment(DEMO_SPEC)

    def eta(diameter_m):
        sat, station = exp.satellite, exp.stations[0]
        if telescope == "tx":
            sat = replace(sat, tx_telescope_diameter_m=diameter_m)
        else:
            station = replace(station, rx_telescope_diameter_m=diameter_m)
        return propagate_pass(sat, station, exp.epoch, exp.duration_s, exp.step_s, exp.optics).eta

    # 1 km already caps the diffraction gain at every visible sample of the pass
    assert eta(1e300).tobytes() == eta(1e3).tobytes()


def test_link_budget_monotone_in_range():
    sat = SatelliteConfig(orbit_altitude_m=500e3)
    station = GroundStation("g", 0.0, 0.0)
    optics = OpticalParams()
    budgets = [link_budget(sample(d, 45.0), sat, station, optics)
               for d in np.linspace(400e3, 2500e3, 30)]
    assert all(a > b for a, b in zip(budgets, budgets[1:]))


def overhead_pass(altitude_m: float = 500e3, t_cross: float = 300.0):
    raan, phase = overpass_geometry(altitude_m, 51.6, 0.0, 0.0, t_cross, ascending=True)
    sat = SatelliteConfig(
        orbit_altitude_m=altitude_m,
        orbit_inclination_deg=51.6,
        raan_deg=raan,
        phase_at_epoch_deg=phase,
    )
    station = GroundStation("equator", 0.0, 0.0)
    return propagate_pass(sat, station, "2026-01-01T00:00:00Z", 600.0, 1.0)


def test_overpass_geometry_overhead():
    profile = overhead_pass()
    i = int(np.argmin(profile.distance_m))
    assert abs(profile.t_s[i] - 300.0) <= 2.0
    assert profile.elevation_deg[i] > 88.0
    # slant range at culmination is the orbit altitude for a direct overpass
    assert profile.distance_m[i] == pytest.approx(500e3, rel=2e-3)
    # radial velocity crosses zero at closest approach
    assert profile.radial_velocity_mps[i - 3] < 0 < profile.radial_velocity_mps[i + 3]


def test_overpass_geometry_descending_and_site():
    raan, phase = overpass_geometry(500e3, 97.4, 46.3, 5.0, 400.0, ascending=False)
    sat = SatelliteConfig(orbit_altitude_m=500e3, orbit_inclination_deg=97.4,
                          raan_deg=raan, phase_at_epoch_deg=phase)
    site = GroundStation("site", 46.3, 5.0)
    profile = propagate_pass(sat, site, "2026-03-21T10:00:00Z", 900.0, 1.0)
    i = profile.index_at(400.0)
    assert profile.elevation_deg[i] > 88.0
    # descending: latitude decreasing, so the sub-satellite point moves south
    lat_rate = profile.radial_velocity_mps  # not latitude; use geometry instead
    j = int(np.argmin(profile.distance_m))
    assert abs(profile.t_s[j] - 400.0) <= 2.0


def test_demo_spec_aims_the_orbit_over_46_3n_5_0e():
    # the spec's angles: the track crosses (46.3 N, 5.0 E) ascending at t = 400 s, between Nice and Paris
    sat = load_experiment(DEMO_SPEC).satellite
    aim = overpass_geometry(sat.orbit_altitude_m, sat.orbit_inclination_deg, 46.3, 5.0, 400.0, ascending=True)
    assert aim == (sat.raan_deg, sat.phase_at_epoch_deg)


def test_overpass_geometry_rejects_an_overflowing_altitude():
    with pytest.raises(ConfigError, match="sat_altitude_m must be > 0 and at most 1e\\+102: 1e\\+300") as info:
        overpass_geometry(1e300, 97.4, 46.3, 5.0, 400.0)
    assert info.value.field == "sat_altitude_m"


def test_finite_difference_matches_radial_velocity():
    profile = overhead_pass()
    d = profile.distance_m
    v = profile.radial_velocity_mps
    fd = (d[2:] - d[:-2]) / (2.0 * profile.step_s)
    scale = np.max(np.abs(v))
    assert np.max(np.abs(fd - v[1:-1])) <= 0.01 * scale


def test_visibility_flags_follow_min_elevation():
    profile = overhead_pass()
    vis = profile.visible
    assert vis.any() and (~vis).any()
    assert np.all(profile.elevation_deg[vis] >= 20.0)
    assert np.all(profile.elevation_deg[~vis] < 20.0)
    assert np.all(profile.eta[~vis] == 0.0)
    assert np.all(profile.eta[vis] > 0.0)


def test_profile_accessors():
    profile = overhead_pass()
    assert profile.duration_s == pytest.approx(601.0)
    assert profile.index_at(0.0) == 0
    assert profile.index_at(599.9) == 599
    s = profile.sample(10)
    assert s.t_s == profile.t_s[10]
    assert s.visible == bool(profile.visible[10])
    # out-of-window times clamp to the nearest sample
    assert profile.index_at(-1.0) == 0
    assert profile.index_at(1e9) == profile.n_samples - 1
    # the engine's sample arithmetic: on a 0.1 s grid, t = 0.5 and 1.0 still hold samples 4 and 9
    fine = make_profile(np.full(20, 0.5), step_s=0.1)
    assert (fine.index_at(0.5), fine.index_at(1.0)) == (4, 9)
    assert [fine.index_at(_sample_start(j, 0.0, 0.1)) for j in range(20)] == list(range(20))


def test_profile_grid_validation():
    with pytest.raises(ConfigError):
        make_profile(np.array([0.0, 1.5, 0.0]))  # eta > 1
    p = make_profile(np.array([0.0, 0.5, 0.0]))
    with pytest.raises(ConfigError):
        type(p)(
            station=p.station, epoch=p.epoch, step_s=p.step_s,
            t_s=np.array([0.0, 1.0, 3.0]), distance_m=p.distance_m,
            elevation_deg=p.elevation_deg, radial_velocity_mps=p.radial_velocity_mps,
            eta=p.eta, visible=p.visible,
        )
    # a NaN or infinity in any float column is refused, naming the column and the sample
    columns = {
        "t_s": p.t_s, "distance_m": p.distance_m, "elevation_deg": p.elevation_deg,
        "radial_velocity_mps": p.radial_velocity_mps, "eta": p.eta,
    }
    for name in columns:
        for bad in (np.nan, np.inf, -np.inf):
            column = columns[name].copy()
            column[1] = bad
            with pytest.raises(ConfigError, match=f"column {name} is not finite at sample 1"):
                type(p)(
                    station=p.station, epoch=p.epoch, step_s=p.step_s,
                    **{**columns, name: column}, visible=p.visible,
                )


def test_profile_times_start_at_zero_or_later():
    # bins start at t = 0: a round confirming before it would fold into the last bins
    p = make_profile(np.full(20, 0.5))
    with pytest.raises(ConfigError, match=re.escape("profile column t_s out of [0, inf) at sample 0: -10.0")):
        replace(p, t_s=p.t_s - 10.0)
    with pytest.raises(ConfigError, match=re.escape("t_s out of [0, inf): -1e-300")):
        replace(p.sample(0), t_s=-1e-300)
    buf = io.StringIO()
    write_profile(p, buf)
    text = buf.getvalue().replace("\n0,", "\n-10,", 1)
    with pytest.raises(DataFormatError, match="row 3, column t_s: out of"):
        read_profile(io.StringIO(text))
    shifted = replace(p, t_s=p.t_s + 10.0)  # a later start stays valid
    assert shifted.t_s[0] == 10.0


def test_csv_round_trip_100_random_profiles():
    rng = np.random.default_rng(42)
    for _ in range(100):
        profile = random_profile(rng)
        buf = io.StringIO()
        write_profile(profile, buf)
        buf.seek(0)
        back = read_profile(buf)
        assert back.station == profile.station
        assert back.epoch == profile.epoch
        assert back.step_s == pytest.approx(profile.step_s, rel=1e-9)
        for field in ("t_s", "distance_m", "elevation_deg", "radial_velocity_mps", "eta"):
            a, b = getattr(profile, field), getattr(back, field)
            assert np.allclose(a, b, rtol=1e-9, atol=1e-12), field
        assert np.array_equal(back.visible, profile.visible)


def test_csv_write_format():
    profile = make_profile(np.array([0.0, 0.25]), station="fmt", step_s=1.0)
    buf = io.StringIO()
    write_profile(profile, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# station=fmt epoch=2026-01-01T00:00:00Z step_s=1"
    assert lines[1] == "t_s,distance_m,elevation_deg,radial_velocity_mps,eta,visible"
    assert lines[2] == "0,500000,-5,0,0,0"
    assert lines[3] == "1,500000,45,0,0.25,1"


def _read(text: str):
    return read_profile(io.StringIO(text))


GOOD_HEADER = (
    "# station=x epoch=2026-01-01T00:00:00Z step_s=1\n"
    "t_s,distance_m,elevation_deg,radial_velocity_mps,eta,visible\n"
)


def test_read_profile_errors_cite_rows():
    with pytest.raises(DataFormatError, match="row 1"):
        _read("garbage\n")
    with pytest.raises(DataFormatError, match="row 2"):
        _read("# station=x epoch=e step_s=1\nwrong,header\n")
    with pytest.raises(DataFormatError, match="row 5, column t_s"):
        _read(GOOD_HEADER + "0,5e5,45,0,0.1,1\n1,5e5,45,0,0.1,1\n0.5,5e5,45,0,0.1,1\n")
    with pytest.raises(DataFormatError, match="row 3: expected 6 fields"):
        _read(GOOD_HEADER + "0,5e5,45,0,0.1\n")
    with pytest.raises(DataFormatError, match="row 3, column eta"):
        _read(GOOD_HEADER + "0,5e5,45,0,1.5,1\n")
    with pytest.raises(DataFormatError, match="row 4, column distance_m"):
        _read(GOOD_HEADER + "0,5e5,45,0,0.1,1\n1,-1,45,0,0.1,1\n")
    with pytest.raises(DataFormatError, match="row 3, column radial_velocity_mps"):
        _read(GOOD_HEADER + "0,5e5,45,oops,0.1,1\n")
    with pytest.raises(DataFormatError, match="column visible"):
        _read(GOOD_HEADER + "0,5e5,45,0,0.1,2\n")
    with pytest.raises(DataFormatError, match="eta: must be 0 when visible=0"):
        _read(GOOD_HEADER + "0,5e5,45,0,0.1,0\n")
    # non-finite values are refused where they stand, not deep in the engine
    with pytest.raises(DataFormatError, match="row 4, column distance_m: not finite"):
        _read(GOOD_HEADER + "0,5e5,45,0,0.1,1\n1,nan,45,0,0.1,1\n")
    with pytest.raises(DataFormatError, match="row 3, column elevation_deg: not finite"):
        _read(GOOD_HEADER + "0,5e5,nan,0,0.1,1\n")
    with pytest.raises(DataFormatError, match="row 3, column radial_velocity_mps: not finite"):
        _read(GOOD_HEADER + "0,5e5,45,-inf,0.1,1\n")
    with pytest.raises(DataFormatError, match="row 3, column t_s: not finite"):
        _read(GOOD_HEADER + "inf,5e5,45,0,0.1,1\n")


def test_propagate_rejects_bad_grid():
    sat = SatelliteConfig(orbit_altitude_m=500e3)
    station = GroundStation("g", 0.0, 0.0)
    with pytest.raises(ConfigError):
        propagate_pass(sat, station, "2026-01-01T00:00:00Z", 100.0, 0.0)
    with pytest.raises(ConfigError):
        propagate_pass(sat, station, "2026-01-01T00:00:00Z", -5.0, 1.0)
    with pytest.raises(ConfigError):
        propagate_pass(sat, station, "not-a-time", 100.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="must be finite"):
            propagate_pass(sat, station, "2026-01-01T00:00:00Z", bad, 1.0)
        with pytest.raises(ConfigError, match="must be finite"):
            propagate_pass(sat, station, "2026-01-01T00:00:00Z", 100.0, bad)


def _reference_csv(header: str, columns, comment=None) -> str:
    """Per-row f-string writer: a float cell at 12 significant digits, any other cell as an integer."""
    lines = [header] if comment is None else [comment, header]
    for row in zip(*columns):
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else f"{int(v)}" for v in row))
    return "".join(line + "\n" for line in lines)


# cells of each column dtype, with the edge cases drawn often
_FLOAT_EDGES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e16 + 2, -1e-300, math.nan, math.inf, -math.inf]
_CELL_VALUES = {
    np.float64: st.sampled_from(_FLOAT_EDGES) | st.floats(allow_subnormal=True),
    np.int64: st.sampled_from([-(2**63), 2**63 - 1, 0, -1]) | st.integers(-(2**63), 2**63 - 1),
    np.bool_: st.booleans(),
}
_TABLES = st.integers(0, 12).flatmap(lambda n: st.lists(
    st.sampled_from(list(_CELL_VALUES)).flatmap(
        lambda d: st.lists(_CELL_VALUES[d], min_size=n, max_size=n).map(lambda v: np.array(v, dtype=d))),
    min_size=1, max_size=5))
_EDGE_TABLE = [np.array(_FLOAT_EDGES), np.resize(np.array([-(2**63), 2**63 - 1, 0], dtype=np.int64), 10),
               np.arange(10) % 3 == 0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(columns=_TABLES, comment=st.none() | st.just("# a comment line"))
@example(columns=_EDGE_TABLE, comment=None)
def test_write_csv_matches_per_row_reference(columns, comment):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    buf = io.StringIO()
    _write_csv(buf, header, columns, comment)
    assert buf.getvalue() == _reference_csv(header, columns, comment)
