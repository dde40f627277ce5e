"""Corrupted inputs: a damaged round log, count file or manifest fails with a SatLinkError or a CLI exit code."""

from __future__ import annotations

import io
import json
import re
import warnings

import numpy as np
import pytest

from satqlink import (DataFormatError, LinkParams, ReplayError, SatLinkError, SimConfig, read_round_log, replay, run,
                      write_round_log)
from satqlink.cli import main

from conftest import DEMO_SPEC, JSON_PAST_LIMITS, LOG_HEADER_COERCIONS, constant_profile

# texts that break a number, a string or a line of JSON
INSERTS = ["1e999", "-1e999", "1e300", "-5.0", "NaN", "\\", '"', "\n", "\r", ",", "{", "}", "[", "-", "0", "9" * 30,
           "\x00", "é"]


def _corruptions(text: str, rng: np.random.Generator, count: int):
    """``count`` damaged copies of ``text``: a flipped character, a truncation or an inserted text, in turn."""
    for i in range(count):
        at = int(rng.integers(0, len(text)))
        kind = i % 3
        if kind == 0:
            yield text[:at] + chr(int(rng.integers(0, 0x250))) + text[at + 1 :]
        elif kind == 1:
            yield text[:at]
        else:
            yield text[:at] + INSERTS[int(rng.integers(0, len(INSERTS)))] + text[at:]


def _retained_config() -> SimConfig:
    """A short retained dual run of about 125 rounds, with its outcomes captured."""
    legs = (constant_profile(3, 0.3, 0.004, v_r_mps=3e3, station="a", step_s=0.1),
            constant_profile(3, 0.2, 0.006, station="b", step_s=0.1))
    lk = LinkParams(m_sat=10, p_bsm=0.5)
    return SimConfig(profiles=legs, link_params=(lk, lk), policy="dynamic_int", rng_seed=3,
                     retain_until_swap=True, capture_rounds=True)


def _read_and_replay(config: SimConfig, text: str | bytes, path) -> None:
    """Read a log from ``text`` (through a file when it is bytes) and replay it: only a SatLinkError may escape."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if isinstance(text, bytes):
                path.write_bytes(text)
                log = read_round_log(path)
            else:
                log = read_round_log(io.StringIO(text))
            replay(config, log)
        except SatLinkError:
            pass


def test_corrupted_round_logs_raise_only_satlink_errors(tmp_path):
    config = _retained_config()
    buf = io.StringIO()
    write_round_log(run(config), buf)
    text = buf.getvalue()
    rows = text.splitlines(keepends=True)
    assert 100 < len(rows) < 300
    rng = np.random.default_rng(2024)
    path = tmp_path / "rounds.ndjson"
    for bad in _corruptions(text, rng, 900):
        _read_and_replay(config, bad, path)
    raw = text.encode()
    for _ in range(100):  # bytes that are not UTF-8, read from a file
        at = int(rng.integers(0, len(raw)))
        _read_and_replay(config, raw[:at] + bytes([int(rng.integers(0x80, 0x100))]) + raw[at + 1 :], path)
    # a confirm time before t = 0, or past the bins any run needs, names its round
    row = next(r for r in rows[1:] if json.loads(r)["n_success"] > 0)
    for value in (-5.0, 1e300):
        rec = json.loads(row)
        rec["confirm_time_s"] = value
        bad = text.replace(row, json.dumps(rec, sort_keys=True) + "\n")
        with pytest.raises(ReplayError, match=f"leg {rec['leg']} round {rec['index']} confirms at"):
            replay(config, read_round_log(io.StringIO(bad)))


def test_log_header_values_of_another_kind_are_data_format_errors():
    # the header is checked as records are, without coercion: a seed of 1.9 or true used to replay under seed 1
    config = _retained_config()
    buf = io.StringIO()
    write_round_log(run(config), buf)
    header, *records = buf.getvalue().splitlines(keepends=True)
    for key, text in LOG_HEADER_COERCIONS:
        doc = json.loads(header)
        doc[key] = "@@"
        bad = json.dumps(doc).replace('"@@"', text) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match=f"^<stream>: row 1: {key} must be "):
                replay(config, read_round_log(io.StringIO("".join([bad, *records]))))


def test_corrupted_counts_and_manifest_exit_with_a_code(tmp_path, capsys):
    # the demo spec, made small: 400 s of pass, 10 slots, 2 seeds
    doc = json.loads(DEMO_SPEC.read_text(encoding="utf-8"))
    doc["pass"]["duration_s"], doc["satellite"]["memory_slots"], doc["run"]["seeds"] = 400, 10, 2
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
    files = {name: (out / name).read_text(encoding="utf-8") for name in ("sim_seed0.csv", "simulate.json")}
    rng = np.random.default_rng(7)
    codes = set()
    for name, text in files.items():
        for bad in _corruptions(text, rng, 50):
            (out / name).write_text(bad, encoding="utf-8", newline="")
            for command in ("validate", "report"):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = main([command, "--spec", str(spec), "--out", str(out)])
                assert code in (0, 1, 2, 3), (name, bad)
                codes.add(code)
            (out / name).write_text(text, encoding="utf-8", newline="")
            capsys.readouterr()
    assert 3 in codes  # some damage was caught as a bad data file
    raw = files["sim_seed0.csv"].encode()
    (out / "sim_seed0.csv").write_bytes(raw[:40] + b"\xff" + raw[41:])
    for command in ("validate", "report"):
        assert main([command, "--spec", str(spec), "--out", str(out)]) == 3
        assert "sim_seed0.csv: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("text", JSON_PAST_LIMITS.values(), ids=JSON_PAST_LIMITS.keys())
def test_json_past_the_parser_limits_is_a_data_format_error(tmp_path, capsys, text):
    # in a round log's header and in one of its records: DataFormatError citing the row
    config = _retained_config()
    buf = io.StringIO()
    write_round_log(run(config), buf)
    header, first, *rest = buf.getvalue().splitlines(keepends=True)
    bad_header = re.sub(r'"seed": \d+', f'"seed": {text}', header)
    bad_record = re.sub(r'"leg": \d+', f'"leg": {text}', first)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for row, lines in ((1, [bad_header, first, *rest]), (2, [header, bad_record, *rest])):
            with pytest.raises(DataFormatError, match=f"^<stream>: row {row}: "):
                read_round_log(io.StringIO("".join(lines)))
    # in simulate.json, over a small demo run: validate and report exit 3 and name the manifest
    doc = json.loads(DEMO_SPEC.read_text(encoding="utf-8"))
    doc["pass"]["duration_s"], doc["satellite"]["memory_slots"], doc["run"]["seeds"] = 400, 10, 2
    spec, out = tmp_path / "spec.json", tmp_path / "out"
    spec.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--spec", str(spec), "--out", str(out)]) == 0
    manifest = json.loads((out / "simulate.json").read_text(encoding="utf-8"))
    manifest["seeds"] = "@@"
    (out / "simulate.json").write_text(json.dumps(manifest).replace('"@@"', text), encoding="utf-8")
    capsys.readouterr()
    for command in ("validate", "report"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--spec", str(spec), "--out", str(out)]) == 3
        assert f"error: {out / 'simulate.json'}: " in capsys.readouterr().err
