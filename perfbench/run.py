"""satqlink benchmark: three long workloads, each checked against independent computations.

Run from the repository root:

    python3 perfbench/run.py --workload memory_sweep --seed 0 --seconds 32 --trace 0

The run repeats whole rounds of its workload until ``--seconds`` have passed.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer ones from a run that alternates
untraced and traced rounds.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--record-checksum`` stores the run's count checksum in ``reference.json``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread per workload process: numpy's BLAS pools are not needed here
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("memory_sweep", "paired_retained", "capture_replay")
CLI_SPANS = {
    "memory_sweep": ("cli.allocate", "cli.simulate", "cli.validate", "cli.report"),
    "paired_retained": ("cli.simulate", "cli.report"),
    "capture_replay": ("cli.simulate",),
}


def machine_probe() -> float:
    """Seconds for one fixed pure-Python loop: tells a slowed machine from a slower program."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t


def setup_time(spec: Path) -> float:
    """Seconds from starting a fresh interpreter until it has imported, loaded and propagated."""
    t = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), str(spec)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def tree_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in path.rglob(pattern) if p.is_file())


def thread_count() -> int:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 1


def reference_status(workload: str, seed: int, digest: str, engine: str, record: bool) -> str:
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    if record:
        if ref.get("engine_version") != engine:
            ref = {"engine_version": engine, "checksums": {}}
        ref["checksums"].setdefault(workload, {})[str(seed)] = digest
        ref["checksums"][workload] = dict(sorted(ref["checksums"][workload].items(), key=lambda kv: int(kv[0])))
        tmp = REFERENCE.with_suffix(".tmp")
        tmp.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        os.replace(tmp, REFERENCE)
        return "recorded"
    if ref.get("engine_version") != engine:
        return f"unreferenced (reference is for engine {ref.get('engine_version')!r})"
    want = ref["checksums"].get(workload, {}).get(str(seed))
    if want is None:
        return "unreferenced (no checksum recorded for this seed)"
    return "match" if want == digest else f"MISMATCH (reference {want})"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-checksum", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    missing = [p for p in ("src/satqlink/__init__.py", "demos/specs/two_station.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a satqlink checkout, missing {missing}", file=sys.stderr)
        return 2
    # the package is imported from this checkout's sources, never from site-packages
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import tracing
    import workloads
    from satqlink import sim

    probe_s = machine_probe()
    work = OUT / f"work-{os.getpid()}"
    ops = workloads.Ops()
    tracer = tracing.Tracer()
    walls: list[float] = []
    traced_walls: list[float] = []
    artifacts: list[int] = []
    csv_bytes: list[int] = []
    log_bytes: list[int] = []
    digests: list[str] = []
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, work, args.seed)
        setups = []
        if not args.trace:
            first_spec = sorted(wl.spec_dir.glob("*.json"))[0]
            setups = [setup_time(first_spec) for _ in range(SETUP_REPEATS)]

        t_start = time.perf_counter()
        rnd = 0
        while True:
            traced = bool(args.trace) and rnd % 2 == 1
            out = work / f"round{rnd}"
            out.mkdir(parents=True)
            ops.round, ops.round_wall = rnd, 0.0
            if traced:
                tracer.round = rnd
                tracer.install()
                ops.tracer = tracer
            try:
                counts = wl.run_round(ops, out)
            finally:
                if traced:
                    tracer.uninstall()
                    ops.tracer = None
            (traced_walls if traced else walls).append(ops.round_wall)
            artifacts.append(tree_bytes(out))
            if traced:
                csv_bytes.append(tree_bytes(out, "sim_seed*.csv"))
                log_bytes.append(tree_bytes(out, "rounds_seed*.ndjson"))
            digests.append(checks.counts_digest(counts))
            shutil.rmtree(out)
            rnd += 1
            if time.perf_counter() - t_start >= args.seconds and (not args.trace or rnd >= 2):
                break

        layers = None
        if args.trace:
            layers = per_layer(args.workload, wl, tracer, probe_s, walls, traced_walls, csv_bytes, log_bytes)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [r for r in ops.records if not r[3]]
    repeat = len(set(digests)) == 1
    status = reference_status(
        args.workload, args.seed, digests[0], sim.ENGINE_VERSION, args.record_checksum and not failures and repeat
    )
    threads = thread_count()
    print(f"perfbench: workload={args.workload} seed={args.seed} seeds={wl.seeds} rounds={rnd} "
          f"wall_s={[round(w, 4) for w in walls]} traced_wall_s={[round(w, 4) for w in traced_walls]}")
    print(f"perfbench: engine={sim.ENGINE_VERSION} counts_sha256={digests[0]} reference={status} "
          f"repeats={'yes' if repeat else 'NO'}")
    print(f"perfbench: machine.probe_s={probe_s:.4f} threads={threads} nproc={os.cpu_count()}")
    for rec in failures[:10]:
        print(f"perfbench: FAILED round {rec[0]} {rec[1]} {rec[2]}: {rec[4]}", file=sys.stderr)

    if layers is None:
        metrics = {
            # seconds per round over the whole run: the machine's speed drifts in
            # phases of tens of seconds, and a mean over the run averages them
            # where a median of a few rounds jumps between them
            "wall_s": (statistics.fmean(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "artifact_mb": (statistics.median(artifacts) / 2**20, "MiB"),
        }
    else:
        metrics = layers
    correct = (
        not failures
        and repeat
        and not status.startswith("MISMATCH")
        and threads <= (os.cpu_count() or 1)
    )
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops.records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def per_layer(name, wl, tracer, probe_s, walls, traced_walls, csv_bytes, log_bytes) -> dict:
    """Per-layer metrics of a traced run; exits if a listed layer recorded no call."""
    import tracing
    from satqlink import sim

    med = tracer.medians()
    rounds = tracer.per_round()
    expected = wl.expected_spans + CLI_SPANS[name]
    silent = [s for s in expected if any(per.get(s, {}).get("calls", 0) == 0 for per in rounds.values())]
    if silent:
        print(f"perfbench: traced round recorded no call to {silent}", file=sys.stderr)
        raise SystemExit(1)

    work = {}
    for config, profiles in wl.capture_configs():
        for key, value in tracing.work_counts(sim.run(config), profiles).items():
            work[key] = work.get(key, 0) + value
    seeds_per_config = len(wl.seeds)
    run_self = med["sim.run.self_s"]

    def g(key: str):
        return med.get(key, 0 if key.endswith(".calls") else 0.0)

    out = {
        "analytics.best_static_split.calls": (g("analytics.best_static_split.calls"), "count"),
        "analytics.best_static_split.s": (g("analytics.best_static_split.s"), "s"),
        "analytics.allocation_series.calls": (g("analytics.allocation_series.calls"), "count"),
        "analytics.allocation_series.self_s": (g("analytics.allocation_series.self_s"), "s"),
        "sim.run.calls": (g("sim.run.calls"), "count"),
        "sim.run.self_s": (run_self, "s"),
        "sim.run.rounds_per_s": (work["rounds"] * seeds_per_config / run_self, "1/s"),
        "sim.run.rounds": (work["rounds"], "count"),
        "sim.run.photons": (work["photons"], "count"),
        "sim.run.photons_drifted": (work["photons_drifted"], "count"),
        "sim.run.pairs": (work["pairs"], "count"),
        "sim.run.swaps": (work["swaps"], "count"),
        "sim.run.blocked_sim_s": (work["blocked_sim_s"], "sim_s"),
        "sim.write_round_log.s": (g("sim.write_round_log.s"), "s"),
        "sim.write_round_log.bytes": (statistics.median(log_bytes), "bytes"),
        "sim.read_round_log.s": (g("sim.read_round_log.s"), "s"),
        "sim.replay.s": (g("sim.replay.s"), "s"),
        "sim.write_sim_csv.s": (g("sim.write_sim_csv.s"), "s"),
        "sim.write_sim_csv.bytes": (statistics.median(csv_bytes), "bytes"),
        "sim.read_sim_csv.s": (g("sim.read_sim_csv.s"), "s"),
        "validation.predict_bin_moments.calls": (g("validation.predict_bin_moments.calls"), "count"),
        "validation.predict_bin_moments.s": (g("validation.predict_bin_moments.s"), "s"),
        "validation.compare_counts.s": (g("validation.compare_counts.s"), "s"),
        "passes.propagate_pass.calls": (g("passes.propagate_pass.calls"), "count"),
        "passes.propagate_pass.s": (g("passes.propagate_pass.s"), "s"),
        "experiment.load_experiment.s": (g("experiment.load_experiment.s"), "s"),
    }
    for cmd in ("allocate", "simulate", "validate", "report"):
        out[f"cli.{cmd}.s"] = (g(f"cli.{cmd}.s"), "s")
        out[f"cli.{cmd}.self_s"] = (g(f"cli.{cmd}.self_s"), "s")
    out["machine.probe_s"] = (probe_s, "s")
    out["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls), "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
