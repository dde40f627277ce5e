"""The three benchmark workloads: experiment files, timed calls and checks.

Each workload builds its own experiment files from the demo spec and the
benchmark seed, drives satqlink through ``satqlink.cli.main(argv)`` and its
public functions, and checks the outputs against ``checks``.  Seeds: run
``--seed k`` simulates seeds ``k*S .. k*S + S - 1`` (S = SEEDS below), the
same seeds for every configuration of the workload.
"""

from __future__ import annotations

import copy
import dataclasses
import io
import json
import math
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from satqlink import cli, sim
from satqlink.experiment import load_experiment

import checks
from checks import CheckFailed, Leg, Link, require

DEMO_SPEC = Path("demos/specs/two_station.json")
SEEDS = 2


class Ops:
    """Runs and records every workload call and check of one run.

    Calls are timed; ``round_wall`` sums their durations, so set-up, output
    checks and directory housekeeping stay outside it.  Each call or check is
    one attempted operation; a call that raises or exits with an unexpected
    code, or a check that fails, is one failed operation.
    """

    def __init__(self) -> None:
        self.records: list[tuple[int, str, str, bool, str]] = []
        self.round = 0
        self.round_wall = 0.0
        self.tracer = None

    def _record(self, kind: str, name: str, ok: bool, detail: str) -> None:
        self.records.append((self.round, kind, name, ok, detail))

    def call(self, name: str, fn, *args):
        t = time.perf_counter()
        try:
            value, ok, detail = fn(*args), True, ""
        except Exception as exc:  # a failed call is counted, the run goes on
            value, ok, detail = None, False, repr(exc)
        self.round_wall += time.perf_counter() - t
        self._record("call", name, ok, detail)
        return value

    def cli(self, argv: list, ok_codes=(0,)) -> int | None:
        argv = [str(a) for a in argv]
        text = io.StringIO()
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else nullcontext()
        t = time.perf_counter()
        try:
            with span, redirect_stdout(text), redirect_stderr(text):
                rc = cli.main(argv)
            ok, detail = rc in ok_codes, f"exit {rc}: {text.getvalue()[-300:]}"
        except Exception as exc:
            rc, ok, detail = None, False, repr(exc)
        self.round_wall += time.perf_counter() - t
        self._record("call", f"cli.{argv[0]}", ok, "" if ok else detail)
        return rc

    def check(self, name: str, fn, *args):
        try:
            value, ok, detail = fn(*args), True, ""
        except CheckFailed as exc:
            value, ok, detail = None, False, str(exc)
        except Exception as exc:  # a missing or malformed output fails its check
            value, ok, detail = None, False, repr(exc)
        self._record("check", name, ok, detail)
        return value


def _counts(out: Path, seeds) -> dict[int, dict]:
    return {s: checks.read_counts(out / f"sim_seed{s}.csv") for s in seeds}


def _need(value, what: str):
    require(value is not None, f"{what} unavailable")
    return value


class Workload:
    """Experiment files and independent expectations shared by every round."""

    name = ""
    why = ""
    # spans a round must record at least once
    expected_spans: tuple[str, ...] = ()

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        self.demo = json.loads((root / DEMO_SPEC).read_text(encoding="utf-8"))
        self.seeds = list(range(seed * SEEDS, seed * SEEDS + SEEDS))
        self.spec_dir = work / "specs"
        self.spec_dir.mkdir(parents=True, exist_ok=True)

    def write_spec(self, label: str, memory_slots: int, **run) -> Path:
        """The demo spec with the memory size and run settings replaced."""
        spec = copy.deepcopy(self.demo)
        spec["satellite"]["memory_slots"] = memory_slots
        spec["run"].update(seeds=SEEDS, seed0=self.seeds[0], **run)
        path = self.spec_dir / f"{self.name}_{label}.json"
        path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
        return path

    @staticmethod
    def columns(spec: Path) -> tuple[tuple[Leg, Leg], Link, object, tuple]:
        """Pass columns and link constants of a spec (the benchmark's input geometry)."""
        exp = load_experiment(spec)
        profiles = exp.profiles()
        lk = exp.link
        link = Link(
            m_ground=int(lk.m_ground),
            p_bsm=lk.p_bsm,
            emission_period_s=lk.emission_period_s,
            acceptance_window_s=lk.acceptance_window_s,
            light_speed_mps=lk.light_speed_mps,
            processing_delay_s=lk.processing_delay_s,
        )
        legs = tuple(
            checks.leg_from_columns(
                p.t_s, p.distance_m, p.eta, p.visible, p.radial_velocity_mps, p.step_s, link
            )
            for p in profiles
        )
        return legs, link, exp, profiles

    def capture_configs(self):
        """(SimConfig with round capture on, its profiles), one seed per configuration."""
        raise NotImplementedError

    def run_round(self, ops: Ops, out: Path) -> list[tuple[str, dict]]:
        """Timed calls then checks; returns (label, counts) for the checksum."""
        raise NotImplementedError

    def check_outputs(self, ops: Ops, out: Path, *state) -> list[tuple[str, dict]]:
        """The checks of one round's output directory; returns (label, counts)."""
        raise NotImplementedError

    def _capture(self, spec: Path, policy: str | None = None):
        config = load_experiment(spec).with_overrides(policy=policy).sim_config(self.seeds[0])
        return dataclasses.replace(config, capture_rounds=True), config.profiles


class MemorySweep(Workload):
    name = "memory_sweep"
    why = "CLI allocate/simulate/validate/report over m_S 10..1000: fast path, allocation and validation"
    sizes = (10, 40, 200, 1000)
    expected_spans = (
        "passes.propagate_pass",
        "experiment.load_experiment",
        "analytics.best_static_split",
        "analytics.allocation_series",
        "sim.run",
        "sim.write_sim_csv",
        "sim.read_sim_csv",
        "validation.predict_bin_moments",
        "validation.compare_counts",
    )

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        self.specs = {m: self.write_spec(f"m{m}", m, policy="dynamic") for m in self.sizes}
        self.expect = {}
        for m in self.sizes:
            (leg_a, leg_b), link, _, profiles = self.columns(self.specs[m])
            both, rates = checks.split_rates(leg_a, leg_b, m, link)
            share_a, share_b = checks.dynamic_shares(leg_a, leg_b, m)
            self.expect[m] = {
                "both": both,
                "best_rate": rates.max(axis=1),
                "static_totals": rates.sum(axis=0),
                "A": checks.leg_moments(leg_a, share_a, link),
                "B": checks.leg_moments(leg_b, share_b, link),
            }
        self.n_samples = profiles[0].n_samples

    def capture_configs(self):
        return [self._capture(self.specs[m]) for m in self.sizes]

    def run_round(self, ops: Ops, out: Path):
        rcs = {}
        for m in self.sizes:
            d, spec = out / f"m{m}", self.specs[m]
            ops.cli(["allocate", "--spec", spec, "--out", d])
            ops.cli(["simulate", "--spec", spec, "--out", d, "--workers", 1])
            # exit 1 is validate's verdict "false": at its 3-sigma total band
            # that happens by chance on a few seed sets, and the pooled
            # 4-sigma check below is the statistical test here
            rcs[m] = ops.cli(["validate", "--spec", spec, "--out", d], ok_codes=(0, 1))
            ops.cli(["report", "--spec", spec, "--out", d])
        return self.check_outputs(ops, out, rcs)

    def check_outputs(self, ops: Ops, out: Path, rcs: dict) -> list[tuple[str, dict]]:
        digest = []
        for m in self.sizes:
            d, e = out / f"m{m}", self.expect[m]
            counts = ops.check(f"m{m}.read_counts", _counts, d, self.seeds)
            alloc = ops.check(f"m{m}.read_allocation", checks.read_json, d / "allocation.json")
            ops.check(f"m{m}.allocation_sum", checks.check_allocation_sum, d / "allocation.csv", m, self.n_samples)
            ops.check(f"m{m}.allocation_optimal", lambda: checks.check_allocation_optimal(_need(alloc, "allocation.json"), e["both"], e["best_rate"]))
            ops.check(f"m{m}.static_optimal", lambda: checks.check_static_optimal(_need(alloc, "allocation.json"), m, e["static_totals"]))
            ops.check(f"m{m}.e2e_is_min", lambda: checks.check_e2e_is_min(_need(counts, "counts")))
            for key in ("A", "B"):
                ops.check(f"m{m}.pooled_{key}", lambda k=key: checks.check_pooled(_need(counts, "counts"), k, *e[k]))
            ops.check(
                f"m{m}.validation",
                lambda: checks.check_validation(checks.read_json(d / "validation.json"), rcs[m], len(self.seeds), _need(counts, "counts")),
            )
            ops.check(f"m{m}.report", self._check_report, d, alloc)
            if counts:
                digest += [(f"m{m}/seed{s}", counts[s]) for s in self.seeds]
        return digest

    def _check_report(self, d: Path, alloc) -> None:
        summary = checks.read_json(d / "report_summary.json")
        split = _need(alloc, "allocation.json")["static_split"]
        require(summary["dual"]["static_split"] == split, "report static split differs from allocate")
        pooled = summary["simulation"]["runs_pooled"]
        require(pooled == len(self.seeds), f"report pooled {pooled} runs, want {len(self.seeds)}")


class PairedRetained(Workload):
    name = "paired_retained"
    why = "dynamic vs static with retain_until_swap on the same seeds: the pure-Python event loop"
    m_s = 100
    expected_spans = (
        "passes.propagate_pass",
        "experiment.load_experiment",
        "analytics.best_static_split",
        "analytics.allocation_series",
        "sim.run",
        "sim.write_sim_csv",
        "sim.read_sim_csv",
    )

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        self.spec = self.write_spec("retained", self.m_s, policy="dynamic", retain_until_swap=True)
        (leg_a, leg_b), self.link, _, _ = self.columns(self.spec)
        self.shares = checks.dynamic_shares(leg_a, leg_b, self.m_s)
        _, rates = checks.split_rates(leg_a, leg_b, self.m_s, self.link)
        self.static_totals = rates.sum(axis=0)
        self.gain = checks.integrated_gain(leg_a, leg_b, self.m_s, self.link)

    def capture_configs(self):
        return [self._capture(self.spec, p) for p in ("dynamic", "static")]

    def run_round(self, ops: Ops, out: Path):
        dyn, sta = out / "dynamic", out / "static"
        ops.cli(["simulate", "--spec", self.spec, "--out", dyn, "--policy", "dynamic", "--workers", 1])
        ops.cli(["simulate", "--spec", self.spec, "--out", sta, "--policy", "static", "--workers", 1])
        ops.cli(["report", "--spec", self.spec, "--out", dyn])
        return self.check_outputs(ops, out)

    def check_outputs(self, ops: Ops, out: Path) -> list[tuple[str, dict]]:
        dyn, sta = out / "dynamic", out / "static"
        c_dyn = ops.check("dynamic.read_counts", _counts, dyn, self.seeds)
        c_sta = ops.check("static.read_counts", _counts, sta, self.seeds)
        ops.check("dynamic.e2e_is_min", lambda: checks.check_e2e_is_min(_need(c_dyn, "counts")))
        ops.check("static.e2e_is_min", lambda: checks.check_e2e_is_min(_need(c_sta, "counts")))
        split = ops.check("static.split_optimal", self._check_split, sta)
        ops.check("dynamic.surplus_held", lambda: self._check_surplus(_need(c_dyn, "counts"), self.shares))
        ops.check(
            "static.surplus_held",
            lambda: self._check_surplus(_need(c_sta, "counts"), _need(split, "static split")),
        )
        ops.check("dynamic_wins", self._check_wins, c_dyn, c_sta)
        ops.check("closed_form_gain", self._check_gain, self.gain)
        digest = []
        for label, counts in (("dynamic", c_dyn), ("static", c_sta)):
            if counts:
                digest += [(f"{label}/seed{s}", counts[s]) for s in self.seeds]
        return digest

    def _check_split(self, sta: Path):
        split = checks.read_json(sta / "simulate.json")["config"]["static_split"]
        require(sum(split) == self.m_s, f"static split {split} does not sum to {self.m_s}")
        checks.require_close(
            self.static_totals[split[0]], float(self.static_totals.max()), f"integrated rate at split {split}"
        )
        return split

    @staticmethod
    def _check_surplus(counts: dict[int, dict], shares) -> None:
        """The longer leg's surplus stays within the most slots that leg ever held."""
        for seed, c in counts.items():
            a, b = int(c["A"].sum()), int(c["B"].sum())
            longer = 0 if a >= b else 1
            held = int(np.max(shares[longer]))
            require(abs(a - b) <= held, f"seed {seed}: surplus {abs(a - b)} > {held} slots held")

    @staticmethod
    def _check_wins(c_dyn, c_sta) -> None:
        dyn, sta = _need(c_dyn, "dynamic counts"), _need(c_sta, "static counts")
        wins = sum(int(dyn[s]["E"].sum()) > int(sta[s]["E"].sum()) for s in dyn)
        need = math.ceil(checks.DYNAMIC_WIN_SHARE * len(dyn))
        require(wins >= need, f"dynamic beat static on {wins} of {len(dyn)} seeds, need {need}")

    @staticmethod
    def _check_gain(gain: float) -> None:
        lo, hi = checks.DYNAMIC_GAIN_RANGE
        require(lo <= gain <= hi, f"closed-form dynamic gain {gain:.3f} outside [{lo}, {hi}]")


class CaptureReplay(Workload):
    name = "capture_replay"
    why = "fast path with round capture, then read_round_log and replay: NDJSON log write and read"
    m_s = 100
    expected_spans = (
        "passes.propagate_pass",
        "experiment.load_experiment",
        "analytics.best_static_split",
        "analytics.allocation_series",
        "sim.run",
        "sim.write_sim_csv",
        "sim.write_round_log",
        "sim.read_round_log",
        "sim.replay",
    )

    def __init__(self, root: Path, work: Path, seed: int) -> None:
        super().__init__(root, work, seed)
        self.spec = self.write_spec("capture", self.m_s, policy="dynamic", capture_rounds=True)
        (leg_a, leg_b), self.link, exp, profiles = self.columns(self.spec)
        self.legs = (leg_a, leg_b)
        share_a, share_b = checks.dynamic_shares(leg_a, leg_b, self.m_s)
        self.moments = {
            "A": checks.leg_moments(leg_a, share_a, self.link),
            "B": checks.leg_moments(leg_b, share_b, self.link),
        }
        self.configs = {s: exp.sim_config(s, profiles) for s in self.seeds}

    def capture_configs(self):
        return [self._capture(self.spec)]

    def run_round(self, ops: Ops, out: Path):
        ops.cli(["simulate", "--spec", self.spec, "--out", out, "--workers", 1])
        for s in self.seeds:
            log = ops.call("sim.read_round_log", lambda: sim.read_round_log(out / f"rounds_seed{s}.ndjson"))
            replayed = ops.call("sim.replay", lambda: sim.replay(self.configs[s], log))
            # checked while this seed's log is the only one in memory
            self.check_seed(ops, out, s, log, replayed)
            del log, replayed
        return self.check_outputs(ops, out)

    def check_seed(self, ops: Ops, out: Path, s: int, log, replayed) -> None:
        ops.check(
            f"seed{s}.replay_matches_csv",
            lambda: checks.check_replay_matches(_need(replayed, "replay"), checks.read_counts(out / f"sim_seed{s}.csv")),
        )
        ops.check(
            f"seed{s}.round_records",
            lambda: checks.check_round_records(_need(log, "round log").rounds, self.legs, self.link),
        )

    def check_outputs(self, ops: Ops, out: Path) -> list[tuple[str, dict]]:
        counts = ops.check("read_counts", _counts, out, self.seeds)
        for key in ("A", "B"):
            ops.check(f"pooled_{key}", lambda k=key: checks.check_pooled(_need(counts, "counts"), k, *self.moments[k]))
        ops.check("e2e_is_min", lambda: checks.check_e2e_is_min(_need(counts, "counts")))
        return [(f"seed{s}", c) for s, c in counts.items()] if counts else []


WORKLOADS = {w.name: w for w in (MemorySweep, PairedRetained, CaptureReplay)}
