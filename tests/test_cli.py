"""End-to-end coverage of the command line workflows on small specs."""

from __future__ import annotations

import copy
import hashlib
import json

import pytest

from satqlink import read_profile, read_sim_csv
from satqlink.cli import main

NICE = {"name": "nice", "latitude_deg": 43.7034, "longitude_deg": 7.2663}
PARIS = {"name": "paris", "latitude_deg": 48.8566, "longitude_deg": 2.3522}

SINGLE = {
    "name": "single-nice",
    "stations": [NICE],
    "satellite": {
        "orbit_altitude_m": 500e3,
        "orbit_inclination_deg": 97.4,
        "raan_deg": 14.482407753297018,
        "phase_at_epoch_deg": 21.400766963231522,
        "memory_slots": 10,
    },
    "optics": {"wavelength_m": 1.55e-6, "zenith_atmospheric_transmission": 0.85},
    "pass": {"epoch": "2026-03-21T10:00:00Z", "duration_s": 300, "step_s": 1.0},
    "run": {"policy": "single", "seeds": 2, "bin_width_s": 1.0},
}

DUAL = {
    "name": "dual-small",
    "stations": [NICE, PARIS],
    "satellite": SINGLE["satellite"],
    "optics": SINGLE["optics"],
    "pass": {"epoch": "2026-03-21T10:00:00Z", "duration_s": 400, "step_s": 1.0},
    "run": {"policy": "dynamic", "seeds": 2, "capture_rounds": True},
}


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def single_spec(tmp_path):
    return write_spec(tmp_path, SINGLE)


@pytest.fixture
def dual_spec(tmp_path):
    return write_spec(tmp_path, DUAL)


def test_usage_errors_exit_2(single_spec):
    assert main([]) == 2
    assert main(["rate"]) == 2
    assert main(["rate", "--spec", single_spec, "--policy", "bogus"]) == 2


def test_unknown_key_cites_path(tmp_path, capsys):
    doc = copy.deepcopy(SINGLE)
    doc["run"]["sede"] = 1
    assert main(["rate", "--spec", write_spec(tmp_path, doc), "--out", str(tmp_path)]) == 2
    assert "spec.run.sede" in capsys.readouterr().err


def test_zero_step_rejected(tmp_path):
    doc = copy.deepcopy(SINGLE)
    doc["pass"]["step_s"] = 0.0
    assert main(["rate", "--spec", write_spec(tmp_path, doc), "--out", str(tmp_path)]) == 2


def test_broken_json_exit_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  oops\n}', encoding="utf-8")
    assert main(["rate", "--spec", str(path), "--out", str(tmp_path)]) == 3
    assert "line 2" in capsys.readouterr().err


def test_missing_spec_file_exit_3(tmp_path):
    assert main(["rate", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 3


def test_gen_pass_idempotent(single_spec, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["gen-pass", "--spec", single_spec, "--out", str(out)]) == 0
    path = out / "pass_nice.csv"
    first = path.read_bytes()
    profile = read_profile(path)
    assert profile.station == "nice"
    assert profile.visible.any()
    assert main(["gen-pass", "--spec", single_spec, "--out", str(out)]) == 0
    assert path.read_bytes() == first


def test_gen_pass_station_selection(dual_spec, tmp_path):
    out = tmp_path / "out"
    # ambiguous without --station on a two-station spec
    assert main(["gen-pass", "--spec", dual_spec, "--out", str(out)]) == 2
    assert main(["gen-pass", "--spec", dual_spec, "--out", str(out), "--station", "paris"]) == 0
    assert (out / "pass_paris.csv").exists()
    assert main(["gen-pass", "--spec", dual_spec, "--out", str(out), "--station", "lyon"]) == 2


def test_gen_pass_warns_when_never_visible(tmp_path, capsys):
    doc = copy.deepcopy(SINGLE)
    doc["pass"]["duration_s"] = 30
    out = tmp_path / "out"
    assert main(["gen-pass", "--spec", write_spec(tmp_path, doc), "--out", str(out)]) == 0
    assert "never sees the satellite" in capsys.readouterr().err
    assert (out / "pass_nice.csv").exists()


def test_rate_single_drift_cap(single_spec, tmp_path):
    dirs = {name: tmp_path / name for name in ("on", "off", "small_on", "small_off")}
    for name, drift in (("on", "on"), ("off", "off")):
        args = ["rate", "--spec", single_spec, "--out", str(dirs[name]),
                "--m-sat", "100", "--drift", drift]
        assert main(args) == 0
        small = ["rate", "--spec", single_spec, "--out", str(dirs["small_" + name]),
                 "--drift", drift]
        assert main(small) == 0
    read = lambda d: (d / "rate_nice.csv").read_bytes()
    # the train cap binds at 100 slots but 10 slots always fit the window
    assert read(dirs["on"]) != read(dirs["off"])
    assert read(dirs["small_on"]) == read(dirs["small_off"])
    header = read(dirs["on"]).decode().splitlines()[0]
    assert header == "t_s,rate_pairs_per_s"


def test_rate_dual_columns(dual_spec, tmp_path):
    out = tmp_path / "out"
    assert main(["rate", "--spec", dual_spec, "--out", str(out)]) == 0
    lines = (out / "rate_dual.csv").read_text().splitlines()
    assert lines[0] == "t_s,rate_pairs_per_s,m_A,m_B"
    active = 0
    for line in lines[1:]:
        t_s, rate, m_a, m_b = line.split(",")
        if float(rate) > 0.0:
            active += 1
            assert int(m_a) + int(m_b) == 10
    assert active >= 100


def test_allocate_outputs(dual_spec, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["allocate", "--spec", dual_spec, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "static_split=" in stdout
    alloc = json.loads((out / "allocation.json").read_text())
    assert sum(alloc["static_split"]) == 10
    first = (out / "allocation.csv").read_bytes()
    assert main(["allocate", "--spec", dual_spec, "--out", str(out)]) == 0
    assert (out / "allocation.csv").read_bytes() == first


def test_simulate_deterministic_across_workers(dual_spec, tmp_path):
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(["simulate", "--spec", dual_spec, "--out", str(seq)]) == 0
    assert main(["simulate", "--spec", dual_spec, "--out", str(par), "--workers", "2"]) == 0
    for seed in (0, 1):
        name = f"sim_seed{seed}.csv"
        assert (seq / name).read_bytes() == (par / name).read_bytes()
        assert (seq / f"rounds_seed{seed}.ndjson").exists()
    manifest = json.loads((seq / "simulate.json").read_text())
    assert manifest["policy"] == "dynamic_int"
    assert manifest["seeds"] == [0, 1]
    counts = read_sim_csv(seq / "sim_seed0.csv")
    assert counts["pairs_end_to_end"].sum() > 0


def test_validate_flow(single_spec, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["validate", "--spec", single_spec, "--out", str(out)]) == 3  # no sims yet
    assert main(["simulate", "--spec", single_spec, "--out", str(out)]) == 0
    assert main(["validate", "--spec", single_spec, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "nice: verdict=true" in stdout
    verdict = json.loads((out / "validation.json").read_text())
    assert verdict["verdict"] is True
    assert verdict["runs_pooled"] == 2
    lines = (out / "validation_nice.csv").read_text().splitlines()
    assert lines[0] == "bin_start_s,mu,sigma,count,z"


def test_validate_detects_wrong_model(single_spec, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--spec", single_spec, "--out", str(out)]) == 0
    # predicting with twice the memory must fail the band check
    assert main(["validate", "--spec", single_spec, "--out", str(out), "--m-sat", "20"]) == 1
    verdict = json.loads((out / "validation.json").read_text())
    assert verdict["verdict"] is False


def test_report_outputs(dual_spec, tmp_path):
    out = tmp_path / "out"
    # without a simulate manifest the report has no simulation section
    assert main(["report", "--spec", dual_spec, "--out", str(out)]) == 0
    assert "simulation" not in json.loads((out / "report_summary.json").read_text())
    assert not (out / "report_bins.csv").exists()
    assert main(["simulate", "--spec", dual_spec, "--out", str(out), "--seeds", "1"]) == 0
    assert main(["report", "--spec", dual_spec, "--out", str(out)]) == 0
    summary = json.loads((out / "report_summary.json").read_text())
    train = summary["train_length"]
    assert train["formula_floor"] == 64
    assert train["with_first_photon"] == 65
    assert train["accepted_range"] == [64, 67]
    assert "67" in train["note"]
    assert sum(summary["dual"]["static_split"]) == 10
    assert summary["dual"]["expected_pairs_dynamic_int"] >= summary["dual"]["expected_pairs_static"]
    for name in ("report_rates_nice.csv", "report_rates_paris.csv", "report_dual.csv", "report_bins.csv"):
        assert (out / name).exists(), name
    header = (out / "report_dual.csv").read_text().splitlines()[0]
    assert header == "t_s,rate_real,rate_int,rate_static,m_A_int,m_B_int"


def test_policy_override_changes_outputs(dual_spec, tmp_path):
    dyn, stat = tmp_path / "dyn", tmp_path / "stat"
    assert main(["rate", "--spec", dual_spec, "--out", str(dyn)]) == 0
    assert main(["rate", "--spec", dual_spec, "--out", str(stat), "--policy", "static"]) == 0
    lines = (stat / "rate_dual.csv").read_text().splitlines()
    splits = {tuple(line.split(",")[2:4]) for line in lines[1:]}
    assert len(splits) == 1  # static policy holds one split for the whole pass
    assert (dyn / "rate_dual.csv").read_bytes() != (stat / "rate_dual.csv").read_bytes()


def test_validate_pools_only_manifest_seeds(dual_spec, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["--spec", dual_spec, "--out", str(out)]
    assert main(["simulate", *args, "--m-sat", "100", "--seeds", "4"]) == 0
    assert main(["simulate", *args, "--m-sat", "50", "--seeds", "2"]) == 0
    # seeds 2 and 3 of the m_S=100 run are still on disk and must not mix in
    assert (out / "sim_seed3.csv").exists()
    assert main(["validate", *args, "--m-sat", "50", "--seeds", "2"]) == 0
    assert json.loads((out / "validation.json").read_text())["runs_pooled"] == 2
    # a seed count the manifest does not hold is refused, naming both counts
    capsys.readouterr()
    assert main(["validate", *args, "--m-sat", "50", "--seeds", "7"]) == 3
    err = capsys.readouterr().err
    assert "--seeds 7" in err and "lists 2 seeds" in err
    assert main(["report", *args, "--m-sat", "50"]) == 0
    summary = json.loads((out / "report_summary.json").read_text())
    assert summary["simulation"]["runs_pooled"] == 2
    # a file the manifest lists but the directory lacks is a data error
    (out / "sim_seed1.csv").unlink()
    capsys.readouterr()
    assert main(["validate", *args, "--m-sat", "50"]) == 3
    assert "sim_seed1.csv" in capsys.readouterr().err


# sha256 of every file the closed-form commands write for DUAL, recorded
# before the series were evaluated on whole profile columns.
CLOSED_FORM_SHA256 = {
    "allocate_m10/allocation.csv": "1749bc588d083f421b218b4025b34c0a4d060084d838ef47b5a98252c5c747dc",
    "allocate_m10/allocation.json": "0a60ad90cf77374ab60b98186f81fd020998ef9d7db1b8a6358c2104c6472a49",
    "allocate_m200/allocation.csv": "68a463f6c3730a7a1273c95eb5c631783d6f54318948bd41f585dd800eaacef1",
    "allocate_m200/allocation.json": "3134fc9b3597b0381bfefeb975ab039cf8305277f3e1e07fd9b27c29b2070f1a",
    "rate_declared_m10/rate_dual.csv": "320315f4e8180c6e062966bfa52a8addff4a486a87883edb335afd9742dce903",
    "rate_declared_m200/rate_dual.csv": "9e3b7fe444fc2b7ed8d40f6e6a4b2415e47d86714c9af3b8abfd664d991479a5",
    "rate_m10/rate_dual.csv": "1749bc588d083f421b218b4025b34c0a4d060084d838ef47b5a98252c5c747dc",
    "rate_m200/rate_dual.csv": "68a463f6c3730a7a1273c95eb5c631783d6f54318948bd41f585dd800eaacef1",
    "rate_static_m10/rate_dual.csv": "433bb54a51593894b4bfda8aba43cd4cae25fa350ca4e96098f63e00c4c96a0d",
    "rate_static_m200/rate_dual.csv": "1a7fde59a8e2a04f54d7a71837352d22ccd876097394662e0cff60a7cc6be42f",
    "report_m10/report_dual.csv": "d887ddb23c09074740b5c498e7dda120b145b2e6f64752d32b8df541b35adae6",
    "report_m10/report_rates_nice.csv": "b778b27a40646f47beabcd35e54a13661081f8c2a9de989c7715dbfd48fc58e0",
    "report_m10/report_rates_paris.csv": "e09496f2f77a976c5cbe79fb70edaf9eda09d8bd03d80fd6c03e654743a23572",
    "report_m10/report_summary.json": "62337b3d7f9057dbfd2f41ee70b80480908d342e2e1f433d20d4faf64d393bb2",
    "report_m200/report_dual.csv": "a10f657b380fb52f3dfd69c2924160faebcfc04972b0bff96cfe849fdbbaa7da",
    "report_m200/report_rates_nice.csv": "7f60d3362cedd1d1b0bd0fee0e0a1441246fe4078f401e2e1312d6b86b987af5",
    "report_m200/report_rates_paris.csv": "563f258c6a43417a1543825e0a7c91c3ec5e6f48c0c9bf417593cb5769cc4647",
    "report_m200/report_summary.json": "ffa94f981681c4e760e2865668dd344c7fcf7b73ee23f6289d700168e5e30381",
}


def test_closed_form_artifacts_are_pinned(dual_spec, tmp_path):
    got = {}
    for m_sat, declared_split in ((10, [5, 5]), (200, [60, 140])):
        # a declared split is dropped by --m-sat, so this spec sets the memory itself
        doc = copy.deepcopy(DUAL)
        doc["satellite"]["memory_slots"] = m_sat
        doc["run"].update(policy="static", static_split=declared_split)
        declared = write_spec(tmp_path, doc, f"declared{m_sat}.json")
        m = ["--m-sat", str(m_sat)]
        cases = {
            "rate": ("rate", dual_spec, m),
            "rate_static": ("rate", dual_spec, [*m, "--policy", "static"]),
            "rate_declared": ("rate", declared, []),
            "allocate": ("allocate", dual_spec, m),
            "report": ("report", dual_spec, m),
        }
        for name, (command, spec, extra) in cases.items():
            out = tmp_path / f"{name}_m{m_sat}"
            assert main([command, "--spec", spec, "--out", str(out), *extra]) == 0
            for path in sorted(out.iterdir()):
                got[f"{out.name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == CLOSED_FORM_SHA256
