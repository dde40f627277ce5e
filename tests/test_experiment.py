"""The experiment-file loader: the config dataclasses are its schema."""

from __future__ import annotations

import copy
import json
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest

from satqlink import (
    ConfigError,
    Experiment,
    GroundStation,
    LinkParams,
    OpticalParams,
    SatelliteConfig,
    SimConfig,
    load_experiment,
)
from satqlink.cli import main

from conftest import DEMO_SPEC

README = Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = {
    "stations": [
        {"name": "nice", "latitude_deg": 43.7034, "longitude_deg": 7.2663},
        {"name": "paris", "latitude_deg": 48.8566, "longitude_deg": 2.3522},
    ],
    "satellite": {"orbit_altitude_m": 500e3},
    "pass": {"epoch": "2026-03-21T10:00:00Z", "duration_s": 300},
}

# Values for the fields whose default is None (no default value to vary).
NON_DEFAULT_FOR_NONE = {
    "m_ground": 150,
    "policy": "static",
    "static_split": [60, 41],
    "output_dir": "elsewhere",
}


def write(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def non_default(f):
    """A valid value other than the field's default."""
    if f.name in NON_DEFAULT_FOR_NONE:
        return NON_DEFAULT_FOR_NONE[f.name]
    default = f.default
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default * 0.9 if default else 0.5
    raise AssertionError(f"no non-default value for field {f.name}")


def optional_fields(cls, group=None):
    """Fields of a key group with a plain default (sections default through a factory)."""
    return [f for f in fields(cls) if f.default is not MISSING and f.metadata.get("group") == group]


def test_minimal_spec_uses_dataclass_defaults(tmp_path):
    exp = load_experiment(write(tmp_path, MINIMAL, "minimal.json"))
    assert exp.stations == (
        GroundStation("nice", 43.7034, 7.2663),
        GroundStation("paris", 48.8566, 2.3522),
    )
    assert exp.satellite == SatelliteConfig(500e3)
    assert exp.optics == OpticalParams()
    assert exp.link == LinkParams(m_sat=SatelliteConfig(500e3).memory_slots)
    assert exp.name == "minimal"
    assert exp.policy == "dynamic_int"
    for f in optional_fields(Experiment, "run") + optional_fields(Experiment, "pass"):
        if f.name != "policy":
            assert getattr(exp, f.name) == f.default, f.name
    assert exp.output_dir is None


def test_every_optional_key_reaches_its_field(tmp_path):
    doc = copy.deepcopy(MINIMAL)
    sections = {"satellite": SatelliteConfig, "optics": OpticalParams, "link": LinkParams}
    expected = {}
    for i, station in enumerate(doc["stations"]):
        for f in optional_fields(GroundStation):
            station[f.name] = expected[f"stations[{i}].{f.name}"] = non_default(f)
    for key, cls in sections.items():
        section = doc.setdefault(key, {})
        for f in optional_fields(cls):
            if f.name != "m_sat":
                section[f.name] = expected[f"{key}.{f.name}"] = non_default(f)
    for group in ("pass", "run", None):
        target = doc if group is None else doc.setdefault(group, {})
        for f in optional_fields(Experiment, group):
            target[f.name] = expected[f.name] = non_default(f)
    doc["name"] = expected["name"] = "everything"

    exp = load_experiment(write(tmp_path, doc))
    assert len(expected) > 30
    for key, value in expected.items():
        got = exp
        for part in re.split(r"\.|\[", key):
            got = got[int(part[:-1])] if part.endswith("]") else getattr(got, part)
        want = tuple(value) if isinstance(value, list) else value
        assert got == want, key
    assert exp.link.m_sat == exp.satellite.memory_slots


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["stations"][0].update(latitude_deg=True),
         "spec.stations[0].latitude_deg must be a number, got bool"),
        (lambda d: d["satellite"].update(memory_slots=100.0),
         "spec.satellite.memory_slots must be an integer, got float"),
        (lambda d: d.update(run={"drift": "yes"}), "spec.run.drift must be true or false, got str"),
        (lambda d: d.update(run={"static_split": [1]}), "spec.run.static_split must be an array of 2"),
        (lambda d: d.update(run={"static_split": [50, 50.0]}),
         "spec.run.static_split[1] must be an integer, got float"),
        (lambda d: d.update(run={"seeds": None}), "spec.run.seeds must be an integer, got NoneType"),
        (lambda d: d.update(satellite=[500e3]), "spec.satellite must be an object"),
        (lambda d: d.update(stations=[]), "spec.stations must be a non-empty array"),
        (lambda d: d["stations"][0].pop("latitude_deg"), "missing key spec.stations[0].latitude_deg"),
        (lambda d: d["pass"].pop("epoch"), "missing key spec.pass.epoch"),
        (lambda d: d.update(link={"foo": 1}), "unknown key spec.link.foo"),
        (lambda d: d.update(link={"m_sat": 10}), "unknown key spec.link.m_sat"),
        (lambda d: d.update(extra=1), "unknown key spec.extra"),
        (lambda d: d["stations"][1].update(latitude_deg=91.0),
         "spec.stations[1]: latitude_deg out of [-90, 90]"),
    ],
)
def test_type_and_shape_errors_name_their_path(tmp_path, edit, message):
    doc = copy.deepcopy(MINIMAL)
    edit(doc)
    with pytest.raises(ConfigError) as info:
        load_experiment(write(tmp_path, doc))
    assert message in str(info.value)


def test_null_means_the_default_where_the_default_is_none(tmp_path):
    doc = copy.deepcopy(MINIMAL)
    doc["link"] = {"m_ground": None}
    doc["run"] = {"static_split": None, "policy": None}
    doc["output_dir"] = None
    assert load_experiment(write(tmp_path, doc)) == load_experiment(write(tmp_path, MINIMAL))


def test_policy_aliases_resolve_once():
    exp = load_experiment(DEMO_SPEC)
    assert exp.policy == "dynamic_int"
    assert exp.with_overrides(policy="dynamic").policy == "dynamic_int"
    assert exp.with_overrides(policy="static").policy == "static"
    with pytest.raises(ConfigError, match="unknown policy"):
        exp.with_overrides(policy="bogus")


NAN, INF = float("nan"), float("inf")

# Specs that break a run rule; every command refuses them when it loads the spec.
RUN_RULE_SPECS = [
    (lambda d: d.update(stations=d["stations"][:1], run={"retain_until_swap": True}),
     "spec.run: retain_until_swap applies to dual runs only"),
    (lambda d: d.update(run={"bin_width_s": 0}), "spec.run: bin_width_s must be > 0: 0.0"),
    (lambda d: d["satellite"].update(memory_slots=1),
     "spec.run: policy dynamic_int shares m_sat between two legs: m_sat must be >= 2, got 1"),
    (lambda d: d.update(run={"policy": "dynamic", "static_split": [40, 60]}),
     "spec.run: static_split is only meaningful for the static policy, not dynamic_int"),
    (lambda d: d["pass"].update(step_s=0), "spec.pass: step_s must be finite and > 0: 0.0"),
    (lambda d: d["pass"].update(step_s=-1), "spec.pass: step_s must be finite and > 0: -1.0"),
    (lambda d: d["pass"].update(duration_s=0), "spec.pass: duration_s must be finite and > 0: 0.0"),
    (lambda d: d["pass"].update(duration_s=1.5),
     "spec.pass: duration_s must cover at least 2 steps of step_s 1.0: 1.5"),
]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["pass"].update(duration_s=INF), "spec.pass: duration_s is not finite: inf"),
        (lambda d: d["pass"].update(step_s=NAN), "spec.pass: step_s is not finite: nan"),
        (lambda d: d.update(run={"bin_width_s": NAN}), "spec.run: bin_width_s is not finite: nan"),
        (lambda d: d.update(link={"emission_period_s": NAN}),
         "spec.link: emission_period_s is not finite: nan"),
        (lambda d: d.update(link={"processing_delay_s": INF}),
         "spec.link: processing_delay_s is not finite: inf"),
        (lambda d: d["satellite"].update(orbit_altitude_m=INF),
         "spec.satellite: orbit_altitude_m is not finite: inf"),
        (lambda d: d["stations"][0].update(altitude_m=NAN),
         "spec.stations[0]: altitude_m is not finite: nan"),
        (lambda d: d.update(optics={"wavelength_m": NAN}),
         "spec.optics: wavelength_m is not finite: nan"),
        (lambda d: d.update(run={"policy": "static", "static_split": [30, 60]}),
         "spec.run: static_split (30, 60) must be positive and sum to m_sat=100"),
        (lambda d: d["stations"][1].update(name="nice"), "spec: stations[1].name repeats 'nice'"),
        (lambda d: d.update(run={"seed0": 2**64}), "spec.run: seed0 must be in [0, 2**64 - seeds]"),
        (lambda d: d["pass"].update(step_s=1e-300),
         "spec.pass: step_s 1e-300 makes more than 1000000 samples of duration_s 300.0"),
        # the bins reach past the pass end by the longest round: the link's terms count too
        (lambda d: d.update(run={"bin_width_s": 1e-300}),
         "spec.run: bin_width_s 1e-300 makes more than 1000000 bins up to 301.088 s"),
        (lambda d: d.update(link={"processing_delay_s": 1e300}),
         "spec.run: bin_width_s 1.0 makes more than 1000000 bins up to 1e+300 s"),
        (lambda d: d.update(link={"light_speed_mps": 1}),
         "spec.run: bin_width_s 1.0 makes more than 1000000 bins up to 2.64843e+07 s"),
        *RUN_RULE_SPECS,
        (lambda d: d["stations"][0].update(name="a\u0000b"), "spec.stations[0]: station name must be"),
        (lambda d: d["stations"][0].update(name="a/b"), "spec.stations[0]: station name must be"),
        (lambda d: d["stations"][0].update(name="a,b"), "spec.stations[0]: station name must be"),
        (lambda d: d["satellite"].update(orbit_altitude_m=1e300),
         "spec.satellite: orbit_altitude_m must be > 0 and at most 1e+102: 1e+300"),
        (lambda d: d.update(link={"light_speed_mps": 5e-324}),
         "spec.link: light_speed_mps out of [1, inf): 5e-324"),
        (lambda d: d.update(optics={"wavelength_m": 5e-324}),
         "spec.optics: wavelength_m out of [1e-12, inf): 5e-324"),
        (lambda d: d["stations"][0].update(altitude_m=1e300),
         "spec.stations[0]: altitude_m out of [0, 1e+102]: 1e+300"),
        # an integer past the float range is refused where it stands, not converted
        (lambda d: d.update(link={"p_bsm": 10**400}),
         "spec.link.p_bsm must be a number in the float range, got 401 digits"),
        (lambda d: d["stations"][0].update(latitude_deg=-10**400),
         "spec.stations[0].latitude_deg must be a number in the float range, got 402 digits"),
        (lambda d: d["satellite"].update(memory_slots=10**400),
         "spec.satellite: memory_slots out of [1, 10**6]: 1" + "0" * 400),
        (lambda d: d["satellite"].update(memory_slots=10**6 + 1),
         "spec.satellite: memory_slots out of [1, 10**6]: 1000001"),
        (lambda d: d.update(link={"m_ground": 10**6 + 1}), "spec.link: m_ground out of [1, 10**6]: 1000001"),
        (lambda d: d.update(run={"seeds": 10**30}), "spec.run: seeds out of [1, 10**6]: 1" + "0" * 30),
        (lambda d: d.update(run={"seeds": 0}), "spec.run: seeds out of [1, 10**6]: 0"),
    ],
)
@pytest.mark.parametrize("command", ["rate", "simulate"])
def test_cli_rejects_bad_values_at_load(tmp_path, capsys, edit, message, command):
    doc = copy.deepcopy(MINIMAL)
    edit(doc)
    spec = write(tmp_path, doc)
    assert main([command, "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_simulate_refuses_a_leg_of_too_many_rounds_before_writing(tmp_path, capsys):
    # a one-slot train lasts one round trip, which light at 1e300 m/s shortens to nothing
    doc = json.loads(DEMO_SPEC.read_text(encoding="utf-8"))
    doc.update(stations=doc["stations"][:1], link={"light_speed_mps": 1e300}, run={})
    doc["satellite"]["memory_slots"] = 1
    assert main(["simulate", "--spec", str(write(tmp_path, doc)), "--out", str(tmp_path / "out")]) == 2
    assert "error: leg nice could run " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("edit, message", RUN_RULE_SPECS)
def test_every_command_refuses_a_run_rule_at_load(tmp_path, capsys, edit, message):
    doc = copy.deepcopy(MINIMAL)
    edit(doc)
    spec = write(tmp_path, doc)
    for command in ("gen-pass", "rate", "allocate", "simulate", "validate", "report"):
        assert main([command, "--spec", str(spec), "--out", str(tmp_path / "out")]) == 2, command
        assert message in capsys.readouterr().err, command
    assert not (tmp_path / "out").exists()


# (policy, legs, m_sat, static_split, retain_until_swap, bin_width_s) -> the one message for both
@pytest.mark.parametrize(
    "policy, legs, m_sat, split, retain, bin_width, message",
    [
        ("bogus", 2, 10, None, False, 1.0, "unknown policy 'bogus'"),
        ("single", 2, 10, None, False, 1.0, "policy single needs 1 leg(s), got 2"),
        ("static", 1, 10, (4, 6), False, 1.0, "policy static needs 2 leg(s), got 1"),
        ("dynamic_int", 1, 10, None, False, 1.0, "policy dynamic_int needs 2 leg(s), got 1"),
        ("dynamic_int", 2, 1, None, False, 1.0, "m_sat must be >= 2, got 1"),
        ("static", 2, 1, None, False, 1.0, "m_sat must be >= 2, got 1"),
        ("dynamic_int", 2, 10, (4, 6), False, 1.0, "static_split is only meaningful for the static policy"),
        ("static", 2, 10, (4, 5), False, 1.0, "static_split (4, 5) must be positive and sum to m_sat=10"),
        ("static", 2, 10, (0, 10), False, 1.0, "static_split (0, 10) must be positive and sum to m_sat=10"),
        ("single", 1, 10, None, True, 1.0, "retain_until_swap applies to dual runs only"),
        ("dynamic_int", 2, 10, None, False, 0.0, "bin_width_s must be > 0: 0.0"),
        ("single", 1, 10, None, False, -1.0, "bin_width_s must be > 0: -1.0"),
    ],
)
def test_sim_config_and_experiment_share_the_run_rules(tmp_path, policy, legs, m_sat, split, retain, bin_width,
                                                         message):
    exp = load_experiment(write(tmp_path, MINIMAL))
    profiles = exp.profiles()[:legs]
    with pytest.raises(ConfigError) as from_sim:
        SimConfig(profiles=profiles, link=LinkParams(m_sat=m_sat), policy=policy, rng_seed=0,
                  static_split=split, retain_until_swap=retain, bin_width_s=bin_width)
    with pytest.raises(ConfigError) as from_exp:
        replace(exp, stations=exp.stations[:legs], satellite=SatelliteConfig(500e3, memory_slots=m_sat),
                link=LinkParams(m_sat=m_sat), policy=policy, static_split=split, retain_until_swap=retain,
                bin_width_s=bin_width)
    assert message in str(from_sim.value)
    assert (str(from_exp.value), from_exp.value.field) == (str(from_sim.value), from_sim.value.field)


def test_only_sim_config_needs_a_declared_static_split(tmp_path):
    doc = copy.deepcopy(MINIMAL)
    doc["run"] = {"policy": "static"}
    exp = load_experiment(write(tmp_path, doc))
    assert exp.static_split is None  # the experiment leaves it to the search
    with pytest.raises(ConfigError, match="static policy needs static_split"):
        SimConfig(profiles=exp.profiles(), link=exp.link, policy="static", rng_seed=0)


@pytest.mark.parametrize("desync", [
    lambda exp: replace(exp, satellite=replace(exp.satellite, memory_slots=50)),
    lambda exp: replace(exp, link=exp.link.with_m_sat(50), policy="static", static_split=(50, 50)),
], ids=["satellite_memory", "link_m_sat"])
def test_experiment_refuses_a_link_apart_from_the_satellite_memory(tmp_path, desync):
    # one slot count: the run rules and the run read link.m_sat, which is the satellite's memory_slots
    exp = load_experiment(write(tmp_path, MINIMAL))
    with pytest.raises(ConfigError) as got:
        desync(exp)
    assert got.value.field == "link"


def test_overrides_drop_a_declared_split_in_one_step(tmp_path, capsys):
    doc = json.loads(DEMO_SPEC.read_text(encoding="utf-8"))
    doc["run"].update(policy="static", static_split=[40, 60], seeds=1)
    spec = write(tmp_path, doc)
    exp = load_experiment(spec)
    assert exp.static_split == (40, 60)
    dynamic = exp.with_overrides(policy="dynamic")
    assert (dynamic.policy, dynamic.static_split) == ("dynamic_int", None)
    smaller = exp.with_overrides(m_sat=50)
    assert (smaller.policy, smaller.static_split, smaller.link.m_sat) == ("static", None, 50)
    assert exp.with_overrides(policy="static").static_split == (40, 60)

    out = tmp_path / "out"
    assert main(["simulate", "--spec", str(spec), "--out", str(out), "--policy", "dynamic"]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "simulate.json").read_text(encoding="utf-8"))
    assert (manifest["policy"], manifest["config"]["static_split"]) == ("dynamic_int", None)


def test_readme_spec_example_loads(tmp_path):
    text = README.read_text(encoding="utf-8")
    start = text.index("minimal two-station experiment file")
    block = re.search(r"```json\n(.*?)```", text[start:], re.S)
    assert block is not None
    exp = load_experiment(write(tmp_path, json.loads(block.group(1)), "readme.json"))
    assert [st.name for st in exp.stations] == ["nice", "paris"]
