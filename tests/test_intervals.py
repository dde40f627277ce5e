"""Declared field intervals and types: one check for the configs, the profile columns and the profile CSV."""

from __future__ import annotations

import copy
import inspect
import io
import json
import math
import sys
import typing
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import satqlink
from satqlink import (
    ConfigError,
    DataFormatError,
    GroundStation,
    LinkParams,
    LinkState,
    OpticalParams,
    PassProfile,
    PassSample,
    SatelliteConfig,
    SimConfig,
    load_experiment,
    pool_counts,
    read_profile,
    run,
)
from satqlink.cli import main

from conftest import DEMO_SPEC, JSON_PAST_LIMITS

MAX = sys.float_info.max
SAMPLE = dict(t_s=0.0, distance_m=5e5, elevation_deg=30.0, radial_velocity_mps=0.0, eta=0.5, visible=True)
CSV_HEAD = "# station=x epoch=2026-01-01T00:00:00Z step_s=1\nt_s,distance_m,elevation_deg,radial_velocity_mps,eta,visible\n"


def _profile(step_s=1.0, distance_m=5e5, eta=0.5, station="x", epoch="2026-01-01T00:00:00Z"):
    """A two-sample visible profile whose second sample holds the given values."""
    return PassProfile(station, epoch, step_s, abs(np.array([0.0, step_s], dtype=float)), np.array([5e5, distance_m]),
                       np.full(2, 30.0), np.zeros(2), np.array([0.5, eta]), np.ones(2, dtype=bool))


def _sim_config(**fields):
    """A valid single-leg run on :func:`_profile`, with the given fields."""
    return SimConfig(**{"profiles": (_profile(),), "link_params": (LinkParams(m_sat=1),), "policy": "single",
                        "rng_seed": 0, **fields})


def _csv_profile(distance_m=5e5, eta=0.5):
    """The same profile read from CSV, each cell at full precision."""
    return read_profile(io.StringIO(CSV_HEAD + f"0,5e5,30,0,0.5,1\n1,{distance_m!r},30,0,{eta!r},1\n"))


# how each converted field is set, the others valid
BUILD = {
    "GroundStation": lambda name, v: GroundStation(**{"name": "g", "latitude_deg": 45.0, "longitude_deg": 7.0,
                                                      name: v}),
    "SatelliteConfig": lambda name, v: SatelliteConfig(**{"orbit_altitude_m": 500e3, name: v}),
    "OpticalParams": lambda name, v: OpticalParams(**{name: v}),
    "PassSample": lambda name, v: PassSample(**{**SAMPLE, name: v}),
    "PassProfile": lambda name, v: _profile(**{name: v}),
    "read_profile": lambda name, v: _csv_profile(**{name: v}),
    "LinkParams": lambda name, v: LinkParams(**{"m_sat": 1, name: v}),
    "LinkState": lambda name, v: LinkState(**{"eta": 0.5, "t_rt_s": 1e-3, name: v}),
    "Experiment": lambda name, v: replace(load_experiment(DEMO_SPEC), **{name: v}),
    "SimConfig": lambda name, v: _sim_config(**{name: v}),
}

# Each converted field at six points: one step below its low end, the end, one step above; the same at its
# high end.  A step is one ulp for a float and 1 for an integer; an open end at infinity is probed at the
# largest float, whose step up is inf.  The verdicts (+ accepted, - refused) were recorded on the code
# before the intervals were declared, when each class wrote its own range checks.
BOUNDARY = [
    ("GroundStation.latitude_deg", -90.0, 90.0, "-++++-"),
    ("GroundStation.longitude_deg", -180.0, 180.0, "-++++-"),
    ("GroundStation.altitude_m", 0.0, 1e102, "-++++-"),
    ("GroundStation.rx_telescope_diameter_m", 0.0, MAX, "--+++-"),
    ("GroundStation.min_elevation_deg", 0.0, 90.0, "--++--"),
    ("SatelliteConfig.tx_telescope_diameter_m", 0.0, MAX, "--+++-"),
    ("SatelliteConfig.memory_slots", 1, 10**6, "-+++++"),
    ("OpticalParams.wavelength_m", 1e-12, MAX, "-++++-"),
    ("OpticalParams.zenith_atmospheric_transmission", 0.0, 1.0, "--+++-"),
    ("OpticalParams.system_efficiency", 0.0, 1.0, "--+++-"),
    ("PassSample.t_s", 0.0, MAX, "-++++-"),  # declared later: a time before 0 was accepted
    ("PassSample.distance_m", 0.0, MAX, "--+++-"),
    ("PassSample.eta", 0.0, 1.0, "-++++-"),
    ("PassProfile.step_s", 0.0, MAX, "--+++-"),
    ("PassProfile.distance_m", 0.0, MAX, "--+++-"),
    ("PassProfile.eta", 0.0, 1.0, "-++++-"),
    ("read_profile.distance_m", 0.0, MAX, "--+++-"),
    ("read_profile.eta", 0.0, 1.0, "-++++-"),
    ("LinkParams.m_sat", 1, 10**6, "-+++++"),
    ("LinkParams.m_ground", 1, 10**6, "-+++++"),
    ("LinkParams.emission_period_s", 0.0, MAX, "--+++-"),
    ("LinkParams.acceptance_window_s", 0.0, MAX, "--+++-"),
    ("LinkParams.p_bsm", 0.0, 1.0, "--+++-"),
    ("LinkParams.processing_delay_s", 0.0, MAX, "-++++-"),
    ("LinkParams.light_speed_mps", 1.0, MAX, "-++++-"),
    ("LinkState.eta", 0.0, 1.0, "-++++-"),
    ("LinkState.t_rt_s", 0.0, MAX, "--+++-"),
    ("Experiment.seeds", 1, 10**6, "-+++++"),
]

# refusals added with the declared intervals: no memory holds more than 10^6 slots, and no run more than
# 10^6 seeds
NEW_REFUSALS = {"SatelliteConfig.memory_slots", "LinkParams.m_sat", "LinkParams.m_ground", "Experiment.seeds"}


def _points(low, high) -> list:
    if isinstance(low, int):
        return [low - 1, low, low + 1, high - 1, high, high + 1]
    return [math.nextafter(low, -math.inf), low, math.nextafter(low, math.inf),
            math.nextafter(high, -math.inf), high, math.nextafter(high, math.inf)]


def _verdict(field: str, value) -> str:
    owner, name = field.split(".")
    try:
        BUILD[owner](name, value)
    except (ConfigError, DataFormatError):
        return "-"
    return "+"


@pytest.mark.parametrize("field, low, high, verdicts", BOUNDARY, ids=[row[0] for row in BOUNDARY])
def test_boundary_verdicts_are_those_of_the_hand_written_checks(field, low, high, verdicts):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = "".join(_verdict(field, value) for value in _points(low, high))
    want = verdicts[:5] + "-" if field in NEW_REFUSALS else verdicts
    assert got == want


def _config_classes() -> dict[str, type]:
    """The dataclasses of the package whose ``__post_init__`` runs the one field check."""
    found = {}
    for module in (satqlink.passes, satqlink.analytics, satqlink.sim, satqlink.experiment):
        for name, cls in vars(module).items():
            if is_dataclass(cls) and cls.__module__ == module.__name__ and hasattr(cls, "__post_init__"):
                if "_check_fields(self)" in inspect.getsource(cls.__post_init__):
                    found[name] = cls
    return found


# int and float fields bounded by a rule of their own instead of a declared interval, and why
UNDECLARED = {
    "SatelliteConfig.orbit_altitude_m": "_orbit_radius, which overpass_geometry shares, bounds the orbit radius",
    "SatelliteConfig.orbit_inclination_deg": "any finite angle: the orbit plane turns by it",
    "SatelliteConfig.raan_deg": "any finite angle: the orbit plane turns by it",
    "SatelliteConfig.phase_at_epoch_deg": "any finite angle: the satellite's phase in its orbit",
    "PassSample.elevation_deg": "visibility, not the angle, gates the link",
    "PassSample.radial_velocity_mps": "signed: any finite range rate",
    "LinkState.v_r_mps": "signed: any finite range rate",
    "Experiment.duration_s": "_check_grid bounds the pass grid",
    "Experiment.step_s": "_check_grid bounds the pass grid",
    "Experiment.seed0": "the seed0 rule: every seed of the run fits 64 bits",
    "Experiment.bin_width_s": "_check_run bounds the bins",
    "SimConfig.rng_seed": "SimConfig's rule: an integer that fits 64 bits",
    "SimConfig.bin_width_s": "_check_run bounds the bins",
}


def test_every_numeric_field_declares_an_interval_or_names_its_rule():
    classes = _config_classes()
    assert sorted(classes) == ["Experiment", "GroundStation", "LinkParams", "LinkState", "OpticalParams",
                               "PassProfile", "PassSample", "SatelliteConfig", "SimConfig"]
    declared, undeclared = set(), set()
    for name, cls in classes.items():
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            if {int, float} & set(typing.get_args(hints[f.name]) or [hints[f.name]]):
                (declared if "within" in f.metadata else undeclared).add(f"{name}.{f.name}")
    assert undeclared == UNDECLARED.keys()
    # every declared field is probed at its ends above
    assert declared <= {row[0] for row in BOUNDARY}


# for each scalar field type, values of another kind: a str for a number or a bool, a bool for a number, a float
# for an int, an int for a bool or a str
OTHER_KINDS = {int: ["1", True, 1.5], float: ["1.0", False], bool: ["true", 1], str: [1]}


def _scalar_fields() -> list[tuple[str, type]]:
    """Each field of the config classes whose type is a scalar, or a scalar or None, with that scalar."""
    found = []
    for name, cls in _config_classes().items():
        hints = typing.get_type_hints(cls)
        for f in fields(cls):
            kind = next((k for k in typing.get_args(hints[f.name]) or [hints[f.name]] if k in OTHER_KINDS), None)
            if kind is not None:
                found.append((f"{name}.{f.name}", kind))
    return found


def test_every_scalar_field_refuses_a_value_of_another_kind():
    cases = _scalar_fields()
    assert len(cases) == 52  # as the nine classes declare them; a new field joins the enumeration
    for field, kind in cases:
        owner, name = field.split(".")
        for value in OTHER_KINDS[kind]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError, match=f"^{name} must be ") as got:
                    BUILD[owner](name, value)
            assert got.value.field == name, (field, value)


def _dual(**fields):
    """A valid two-leg dynamic run of 100 slots on two copies of :func:`_profile`."""
    return _sim_config(**{"profiles": (_profile(), _profile(station="y")), "link_params": (LinkParams(m_sat=100),) * 2,
                          "policy": "dynamic_int", **fields})


# values that ran as another value, escaped as a bare TypeError or AttributeError, or were refused without naming
# their field
NAMED_REFUSALS = {
    "static_split_of_floats": ("static_split", lambda: _dual(policy="static", static_split=(4.5, 95.5))),
    "drift_as_a_string": ("drift", lambda: _dual(drift="off")),
    "station_name_as_an_int": ("name", lambda: BUILD["GroundStation"]("name", 5)),
    "epoch_as_an_int": ("epoch", lambda: _profile(epoch=5)),
    "pooled_leg_as_a_bool": ("leg", lambda: pool_counts([run(_dual())], leg=True)),
    "seed_past_64_bits": ("rng_seed", lambda: _sim_config(rng_seed=2**64)),
}


@pytest.mark.parametrize("field, build", NAMED_REFUSALS.values(), ids=NAMED_REFUSALS.keys())
def test_bad_values_are_refused_naming_their_field(field, build):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as got:
            build()
    assert got.value.field == field


# one spec key at a time, set to each value below, through `rate`: the load fuzz
FUZZ_KEYS = [
    *(("stations", 0, key) for key in ("latitude_deg", "longitude_deg", "altitude_m", "rx_telescope_diameter_m",
                                      "min_elevation_deg")),
    *(("satellite", key) for key in ("orbit_altitude_m", "orbit_inclination_deg", "raan_deg", "phase_at_epoch_deg",
                                     "tx_telescope_diameter_m", "memory_slots")),
    *(("optics", key) for key in ("wavelength_m", "zenith_atmospheric_transmission", "system_efficiency")),
    *(("link", key) for key in ("m_ground", "emission_period_s", "acceptance_window_s", "p_bsm", "processing_delay_s",
                                "light_speed_mps")),
    *(("pass", key) for key in ("duration_s", "step_s")),
    *(("run", key) for key in ("seeds", "seed0", "bin_width_s")),
]
FUZZ_VALUES = [0, -1, 5e-324, 1e-300, 1e300, 10**400, 10**19, 1.5, True, "x", None, [1]]


def test_load_fuzz_never_escapes(tmp_path, capsys):
    # exit 0, 2 or 3 with a message, never an exception or a RuntimeWarning out of main
    assert len(FUZZ_KEYS) * len(FUZZ_VALUES) == 300
    base = json.loads(DEMO_SPEC.read_text(encoding="utf-8"))
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    for *where, key in FUZZ_KEYS:
        for value in FUZZ_VALUES:
            doc = copy.deepcopy(base)
            section = doc
            for part in where:
                section = section[part] if isinstance(part, int) else section.setdefault(part, {})
            section[key] = value
            spec.write_text(json.dumps(doc), encoding="utf-8")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["rate", "--spec", str(spec), "--out", str(out)])
            assert code in (0, 2, 3), (where, key, value)
            assert (code == 0) == ("error: " not in capsys.readouterr().err), (where, key, value)


@pytest.mark.parametrize("text", JSON_PAST_LIMITS.values(), ids=JSON_PAST_LIMITS.keys())
def test_load_fuzz_json_past_the_parser_limits_exits_3(tmp_path, capsys, text):
    # the same keys, each holding a text the JSON parser refuses: a malformed spec file, exit 3
    base = json.loads(DEMO_SPEC.read_text(encoding="utf-8"))
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    for i, (*where, key) in enumerate(FUZZ_KEYS):
        doc = copy.deepcopy(base)
        section = doc
        for part in where:
            section = section[part] if isinstance(part, int) else section.setdefault(part, {})
        section[key] = "@@"
        spec.write_text(json.dumps(doc).replace('"@@"', text), encoding="utf-8")
        # every command that reads the spec, on the first key
        for command in ("rate", "simulate", "validate", "report") if i == 0 else ("rate",):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([command, "--spec", str(spec), "--out", str(out)]) == 3, (command, where, key)
            assert f"error: {spec}: " in capsys.readouterr().err
    assert not out.exists()
