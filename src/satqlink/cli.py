"""Command line front end.

Subcommands cover the full workflow: ``gen-pass`` samples link geometry to
CSV, ``rate`` and ``allocate`` evaluate the closed-form model, ``simulate``
runs seeded Monte-Carlo sweeps, ``validate`` checks counts against the
predicted per-bin moments, and ``report`` joins everything into
figure-ready tables.

Exit codes: 0 success (and validation verdict true), 1 validation verdict
false, 2 usage or configuration error, 3 unreadable or malformed data.
All runs are deterministic: the same spec, seeds, and flags produce
byte-identical output files.  Files are written atomically (temp file plus
rename) so a crashed run never leaves a truncated artifact behind.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .analytics import _dual_rate_series, allocation_series, max_train_length, rate_series, write_rate_csv
from .errors import ConfigError, DataFormatError, SatLinkError
from .experiment import Experiment, load_experiment
from .passes import _json_object, _text_io, _write_csv, propagate_pass, write_profile
from .sim import (
    ENGINE_VERSION,
    _capacity_series,
    _plan,
    read_sim_csv,
    run,
    write_round_log,
    write_sim_csv,
)
from .validation import _pad_sum, compare_counts, predict_bin_moments, write_validation_csv

__all__ = ["main", "entry"]

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_USAGE = 2
EXIT_DATA = 3

# Reference radial speed for the drift headroom note in reports: a 500 km
# pass observed at the 20 degree elevation edge moves at about this rate.
_REFERENCE_V_R_MPS = 6998.0
_TRAIN_BOUND_NOTE = (
    "floor(w*c/(|v_r|*T_em)) is the strict whole-window count; counting the "
    "first, undrifted photon as well admits one more, and other conventions "
    "in circulation quote up to 67 for the same parameters. Downstream "
    "checks accept the range [64, 67] at the reference speed."
)


def _write_json(path: Path, obj: dict) -> None:
    with _text_io(path, "w") as (fh, _):
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _out_dir(args: argparse.Namespace, exp: Experiment) -> Path:
    out = args.out if args.out is not None else (exp.output_dir or ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# the spec overrides, each read by the commands that pass its name to _add_common
_OVERRIDES = {
    "m_sat": ("--m-sat", {"type": int, "help": "override satellite memory slots"}),
    "policy": ("--policy", {"choices": ["single", "static", "dynamic"], "help": "override allocation policy"}),
    "drift": ("--drift", {"choices": ["on", "off"], "help": "override drift handling"}),
    "seeds": ("--seeds", {"type": int, "help": "seed count; validate checks simulate.json"}),
}


def _experiment(args: argparse.Namespace) -> Experiment:
    overrides = {name: getattr(args, name, None) for name in _OVERRIDES}  # None where the command takes no flag
    if overrides["drift"] is not None:
        overrides["drift"] = overrides["drift"] == "on"
    return load_experiment(args.spec).with_overrides(**overrides)


def _cmd_gen_pass(args: argparse.Namespace) -> int:
    exp = _experiment(args)
    names = [st.name for st in exp.stations]
    if args.station is None:
        if len(names) > 1:
            raise ConfigError(f"spec lists stations {names}; pick one with --station")
        station = exp.stations[0]
    else:
        try:
            station = exp.stations[names.index(args.station)]
        except ValueError:
            raise ConfigError(f"station {args.station!r} not in spec (have {names})") from None
    profile = propagate_pass(
        exp.satellite, station, exp.epoch, exp.duration_s, exp.step_s, exp.optics
    )
    if not bool(profile.visible.any()):
        print(
            f"warning: {station.name} never sees the satellite above "
            f"{station.min_elevation_deg:g} deg in this window",
            file=sys.stderr,
        )
    out = _out_dir(args, exp) / f"pass_{station.name}.csv"
    write_profile(profile, out)
    print(out)
    return EXIT_OK


def _cmd_rate(args: argparse.Namespace) -> int:
    exp = _experiment(args)
    out_dir = _out_dir(args, exp)
    profiles = exp.profiles()
    t_s = profiles[0].t_s
    if exp.policy == "single":
        path = out_dir / f"rate_{profiles[0].station}.csv"
        write_rate_csv(path, t_s, rate_series(profiles[0], exp.link, use_drift_correction=exp.drift))
    else:  # under the slot shares the simulator runs
        config = exp.sim_config(exp.seed0, profiles)
        m_a, m_b = _capacity_series(config)
        path = out_dir / "rate_dual.csv"
        write_rate_csv(path, t_s, _dual_rate_series(*profiles, m_a, m_b, *config.link_params), m_a, m_b)
    print(path)
    return EXIT_OK


def _cmd_allocate(args: argparse.Namespace) -> int:
    exp = _experiment(args)
    if len(exp.stations) != 2:
        raise ConfigError("allocate needs a two-station spec")
    out_dir = _out_dir(args, exp)
    profiles = exp.profiles()
    alloc = allocation_series(profiles[0], profiles[1], exp.link.m_sat, exp.link)
    json_path = out_dir / "allocation.json"
    _write_json(json_path, alloc.to_json_dict())
    csv_path = out_dir / "allocation.csv"
    write_rate_csv(csv_path, alloc.t_s, alloc.rate_int, alloc.m_A_int, alloc.m_B_int)
    print(json_path)
    print(csv_path)
    print(f"static_split={alloc.static_split[0]},{alloc.static_split[1]}")
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}", "workers")
    exp = _experiment(args)
    config = exp.sim_config(exp.seed0)  # a refused run creates no --out
    out_dir = _out_dir(args, exp)
    seeds = exp.seed_list
    plan = _plan(config)  # no seed changes it: every run shares it
    configs = [replace(config, rng_seed=seed) for seed in seeds]
    workers = min(args.workers, len(seeds))
    totals = {}
    # a run that fails partway leaves no manifest, so its files never pool with an earlier run's
    (out_dir / "simulate.json").unlink(missing_ok=True)
    # write each seed's files as its run completes, rather than hold every seed's result
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for seed, result in zip(seeds, (pool.map if pool else map)(partial(run, plan=plan), configs)):
            path = out_dir / f"sim_seed{seed}.csv"
            write_sim_csv(result, path)
            if exp.capture_rounds:
                write_round_log(result, out_dir / f"rounds_seed{seed}.ndjson")
            totals[str(seed)] = result.summary_dict()
            print(path)
    manifest = {
        "engine_version": ENGINE_VERSION,
        "name": exp.name,
        "policy": exp.policy,
        "seeds": seeds,
        "bin_width_s": exp.bin_width_s,
        "config": configs[0].echo_dict(),
        "runs": totals,
    }
    _write_json(out_dir / "simulate.json", manifest)
    return EXIT_OK


def _sim_files(out_dir: Path) -> list[Path] | None:
    """The per-seed count files listed by ``simulate.json``, or None without a manifest.

    Only the seeds of the last ``simulate`` into ``out_dir`` are pooled, so
    files left behind by an earlier run with more seeds never mix in.
    """
    manifest = out_dir / "simulate.json"
    if not manifest.is_file():
        return None
    with _text_io(manifest, "r") as (fh, where):
        seeds = _json_object(fh.read(), where, keys=("seeds",))["seeds"]
    # no bool, float or string; at least one, and none twice, which would pool its file twice
    if not isinstance(seeds, list) or not all(type(s) is int for s in seeds) or not 0 < len(set(seeds)) == len(seeds):
        raise DataFormatError(f"{manifest}: bad manifest: seeds must be a list of integers, "
                              f"non-empty and without repeats, got {seeds!r:.80}")
    names = [f"sim_seed{s}.csv" for s in seeds]
    for name in names:
        if not (out_dir / name).is_file():
            raise DataFormatError(f"{out_dir / name}: listed in {manifest} but missing")
    return [out_dir / name for name in names]


def _pooled_counts(files: list[Path]) -> dict[str, np.ndarray]:
    """Per-bin counts of each column summed across runs, padded to the longest grid."""
    runs = [read_sim_csv(path) for path in files]
    return {
        key: _pad_sum([cols[key] for cols in runs])
        for key in ("pairs_legA", "pairs_legB", "pairs_end_to_end")
    }


def _cmd_validate(args: argparse.Namespace) -> int:
    exp = _experiment(args)
    out_dir = _out_dir(args, exp)
    files = _sim_files(out_dir)
    if not files:
        raise DataFormatError(f"no simulate.json in {out_dir}; run simulate first")
    if args.seeds is not None and args.seeds != len(files):
        raise DataFormatError(f"--seeds {args.seeds} but simulate.json lists {len(files)} seeds")
    pooled = _pooled_counts(files)
    config = exp.sim_config(exp.seed0, exp.profiles())
    moments = predict_bin_moments(config, n_runs=len(files))
    leg_names = [st.name for st in exp.stations]
    verdicts = []
    summaries = {}
    for leg, name in enumerate(leg_names):
        counts = pooled["pairs_legA" if leg == 0 else "pairs_legB"]
        report = compare_counts(counts, moments[leg])
        csv_path = out_dir / f"validation_{name}.csv"
        write_validation_csv(report, csv_path)
        summaries[name] = report.summary_dict()
        verdicts.append(report.verdict)
        print(
            f"{name}: verdict={'true' if report.verdict else 'false'} "
            f"within_2sigma={report.fraction_within_2sigma:.3f} "
            f"z_total={report.z_total:.2f} bins={report.bins_evaluated}"
        )
    overall = all(verdicts)
    _write_json(
        out_dir / "validation.json",
        {"verdict": overall, "runs_pooled": len(files), "legs": summaries},
    )
    return EXIT_OK if overall else EXIT_VERDICT_FALSE


def _cmd_report(args: argparse.Namespace) -> int:
    exp = _experiment(args)
    out_dir = _out_dir(args, exp)
    profiles = exp.profiles()
    sim_files = _sim_files(out_dir)  # read before the first write, so bad counts leave every report file as it was
    means = sim_files and {key: col / len(sim_files) for key, col in _pooled_counts(sim_files).items()}
    summary: dict = {"name": exp.name, "policy": exp.policy, "stations": {}}
    for profile in profiles:
        uncapped = rate_series(profile, exp.link, use_drift_correction=False)
        corrected = rate_series(profile, exp.link, use_drift_correction=True)
        path = out_dir / f"report_rates_{profile.station}.csv"
        _write_csv(path, "t_s,rate_uncapped_pairs_per_s,rate_corrected_pairs_per_s,visible",
                   (profile.t_s, uncapped, corrected, profile.visible))
        vis = profile.visible & (profile.eta > 0)
        v_max = float(np.max(np.abs(profile.radial_velocity_mps[vis]))) if vis.any() else 0.0
        summary["stations"][profile.station] = {
            "visible_samples": int(vis.sum()),
            "max_abs_radial_velocity_mps": v_max,
            "max_train_length_at_max_v_r": max_train_length(v_max, exp.link) if v_max > 0 else None,
        }
        print(path)

    bound = max_train_length(_REFERENCE_V_R_MPS, exp.link)
    summary["train_length"] = {
        "reference_v_r_mps": _REFERENCE_V_R_MPS,
        "formula_floor": bound,
        "with_first_photon": bound + 1 if np.isfinite(bound) else bound,
        "accepted_range": [64, 67],
        "note": _TRAIN_BOUND_NOTE,
    }

    alloc = allocation_series(profiles[0], profiles[1], exp.link.m_sat, exp.link) if len(profiles) == 2 else None
    if alloc is not None:
        if exp.policy == "static" and exp.static_split is None:  # the split the search just found
            exp = replace(exp, static_split=alloc.static_split)
        dual_path = out_dir / "report_dual.csv"
        _write_csv(dual_path, "t_s,rate_real,rate_int,rate_static,m_A_int,m_B_int",
                   (alloc.t_s, alloc.rate_real, alloc.rate_int, alloc.static_rate, alloc.m_A_int, alloc.m_B_int))
        step = profiles[0].step_s
        dyn_total = float(np.sum(alloc.rate_int) * step)
        static_total = float(np.sum(alloc.static_rate) * step)
        summary["dual"] = {
            "static_split": list(alloc.static_split),
            "expected_pairs_dynamic_int": dyn_total,
            "expected_pairs_static": static_total,
            "static_shortfall_fraction": (dyn_total - static_total) / dyn_total if dyn_total > 0 else 0.0,
        }
        print(dual_path)

    if means and not exp.retain_until_swap:
        config = exp.sim_config(exp.seed0, profiles)
        # under the dynamic policy, the shares written to report_dual.csv
        caps = (alloc.m_A_int, alloc.m_B_int) if alloc is not None and config.policy == "dynamic_int" else None
        moments = predict_bin_moments(config, plan=_plan(config, caps))
        bins_path = out_dir / "report_bins.csv"
        n = max(moments[0].n_bins, max(len(c) for c in means.values()))
        header = ["bin_start_s"]
        columns = [np.arange(n) * exp.bin_width_s]
        for leg, (st, key) in enumerate(zip(exp.stations, ("pairs_legA", "pairs_legB"))):
            header += [f"mu_{st.name}", f"sigma_{st.name}", f"sim_mean_{st.name}"]
            columns += [_pad_sum([c], n) for c in (moments[leg].mu, moments[leg].sigma, means[key])]
        _write_csv(bins_path, ",".join(header), columns)
        summary["simulation"] = {"runs_pooled": len(sim_files)}
        print(bins_path)

    _write_json(out_dir / "report_summary.json", summary)
    print(out_dir / "report_summary.json")
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser, *overrides: str) -> None:
    sub.add_argument("--spec", required=True, help="experiment JSON file")
    sub.add_argument("--out", default=None, help="output directory (default: spec output_dir or .)")
    for name in overrides:
        flag, options = _OVERRIDES[name]
        sub.add_argument(flag, dest=name, default=None, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satqlink",
        description="entanglement distribution over memory-equipped satellite links",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen-pass", help="sample pass geometry to CSV")
    _add_common(p)
    p.add_argument("--station", default=None, help="station name (defaults to the only one)")
    p.set_defaults(func=_cmd_gen_pass)

    p = subs.add_parser("rate", help="closed-form rate series")
    _add_common(p, "m_sat", "policy", "drift")
    p.set_defaults(func=_cmd_rate)

    p = subs.add_parser("allocate", help="memory allocation across two legs")
    _add_common(p, "m_sat")
    p.set_defaults(func=_cmd_allocate)

    p = subs.add_parser("simulate", help="run seeded Monte-Carlo sweeps")
    _add_common(p, "m_sat", "policy", "drift", "seeds")
    p.add_argument("--workers", type=int, default=1, help="parallel seed workers")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("validate", help="check simulated counts against predicted moments")
    _add_common(p, "m_sat", "policy", "drift", "seeds")
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("report", help="figure-ready joined tables")
    _add_common(p, "m_sat", "policy", "drift")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if code is not None else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SatLinkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
