"""Shows that every output check of the benchmark can fire.

Runs one round of each workload, requires every check to pass on the real
outputs, then for each check edits a copy of one output (one count, one
flag, one record) and requires that check to fail.  It also feeds the
checksum comparison a wrong digest.  Run from the repository root:

    python3 perfbench/selftest.py

Exits 0 when every check passed on the real outputs and fired on its edit.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from satqlink import sim  # noqa: E402


def edit_csv(path: Path, row: int, col: str, delta: int) -> None:
    """Add ``delta`` to one count of a sim CSV (row 0 is the first data row)."""
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    k = {"A": 1, "B": 2, "E": 3}[col]
    cells[k] = str(int(cells[k]) + delta)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def busiest_row(path: Path, col: str) -> int:
    return int(checks.read_counts(path)[col].argmax())


def pooled_shift(out: Path, seeds, col: str) -> int:
    """Far more than four sigma of a pooled leg total."""
    total = sum(int(checks.read_counts(out / f"sim_seed{s}.csv")[col].sum()) for s in seeds)
    return int(8 * math.sqrt(total)) + 1


def edit_record(path: Path, edit) -> None:
    """Apply ``edit`` to the first round record whose outcomes hold an 'L'."""
    lines = path.read_text().splitlines()
    for i in range(1, len(lines)):
        rec = json.loads(lines[i])
        if "L" in rec.get("outcomes", ""):
            edit(rec)
            lines[i] = json.dumps(rec, sort_keys=True)
            break
    path.write_text("\n".join(lines) + "\n")


def flip(rec: dict, old: str, new: str) -> None:
    rec["outcomes"] = rec["outcomes"].replace(old, new, 1)


class Harness:
    def __init__(self, work: Path) -> None:
        self.work = work
        self.problems: list[str] = []

    def expect(self, name: str, records, want_ok: bool, phrase: str = "") -> None:
        got = [r for r in records if r[2] == name]
        if not got:
            self.problems.append(f"{name}: never ran")
            return
        ok, detail = got[0][3], got[0][4]
        fired = not ok and phrase in detail
        status = "passes" if want_ok else "fires"
        good = ok if want_ok else fired
        print(f"{'ok ' if good else 'BAD'} {name} {status}{': ' + detail[:100] if not ok else ''}")
        if not good:
            self.problems.append(f"{name}: {'failed' if want_ok else 'did not fire'} ({detail[:200]})")

    def real_round(self, wl) -> Path:
        ops = workloads.Ops()
        out = self.work / f"{wl.name}-real"
        out.mkdir(parents=True)
        wl.run_round(ops, out)
        for rec in ops.records:
            if rec[1] == "check":
                self.expect(rec[2], ops.records, True)
            elif not rec[3]:
                self.problems.append(f"{rec[2]} failed: {rec[4]}")
        return out

    def tampered(self, real: Path, tag: str) -> Path:
        copy = self.work / f"tampered-{tag}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(real, copy)
        return copy


def memory_sweep(h: Harness) -> None:
    wl = workloads.MemorySweep(run.ROOT, h.work / "ms", 0)
    real = h.real_round(wl)
    rcs = {m: 0 for m in wl.sizes}
    d = "m10"
    s0 = wl.seeds[0]
    cases = {
        "read_counts": lambda o: (o / d / f"sim_seed{s0}.csv").unlink(),
        "read_allocation": lambda o: (o / d / "allocation.json").write_text("{"),
        "allocation_sum": lambda o: (o / d / "allocation.csv").write_text(
            (o / d / "allocation.csv").read_text().replace(",5,5\n", ",6,5\n", 1)
        ),
        "allocation_optimal": lambda o: edit_json(
            o / d / "allocation.json",
            lambda a: a["rate_int"].__setitem__(
                next(i for i, r in enumerate(a["rate_int"]) if r > 0),
                max(a["rate_int"]) * (1 - 1e-9),
            ),
        ),
        "static_optimal": lambda o: edit_json(
            o / d / "allocation.json", lambda a: a.__setitem__("static_split", [a["static_split"][0] - 1, a["static_split"][1] + 1])
        ),
        "e2e_is_min": lambda o: edit_csv(o / d / f"sim_seed{s0}.csv", 200, "E", 1),
        "pooled_A": lambda o: edit_csv(o / d / f"sim_seed{s0}.csv", 200, "A", pooled_shift(o / d, wl.seeds, "A")),
        "pooled_B": lambda o: edit_csv(o / d / f"sim_seed{s0}.csv", 200, "B", pooled_shift(o / d, wl.seeds, "B")),
        "validation": lambda o: edit_json(o / d / "validation.json", lambda v: v.__setitem__("verdict", False)),
        "report": lambda o: edit_json(
            o / d / "report_summary.json", lambda r: r["simulation"].__setitem__("runs_pooled", 3)
        ),
    }
    for name, tamper in cases.items():
        out = h.tampered(real, f"ms-{name}")
        tamper(out)
        ops = workloads.Ops()
        wl.check_outputs(ops, out, rcs)
        h.expect(f"{d}.{name}", ops.records, False)


def paired_retained(h: Harness) -> None:
    wl = workloads.PairedRetained(run.ROOT, h.work / "pr", 0)
    real = h.real_round(wl)
    s0 = wl.seeds[0]

    def widen(o: Path, policy: str, extra: int) -> None:
        path = o / policy / f"sim_seed{s0}.csv"
        c = checks.read_counts(path)
        longer = "A" if c["A"].sum() >= c["B"].sum() else "B"
        edit_csv(path, busiest_row(path, longer), longer, extra)

    cases = {
        "dynamic.read_counts": lambda o: (o / "dynamic" / f"sim_seed{s0}.csv").unlink(),
        "static.read_counts": lambda o: (o / "static" / f"sim_seed{s0}.csv").unlink(),
        "dynamic.e2e_is_min": lambda o: edit_csv(o / "dynamic" / f"sim_seed{s0}.csv", 200, "E", 1),
        "static.e2e_is_min": lambda o: edit_csv(o / "static" / f"sim_seed{s0}.csv", 200, "E", 1),
        "static.split_optimal": lambda o: edit_json(
            o / "static" / "simulate.json",
            lambda m: m["config"].__setitem__("static_split", [m["config"]["static_split"][0] + 1, m["config"]["static_split"][1] - 1]),
        ),
        "dynamic.surplus_held": lambda o: widen(o, "dynamic", wl.m_s + 1),
        "static.surplus_held": lambda o: widen(o, "static", wl.m_s + 1),
        "dynamic_wins": lambda o: edit_csv(o / "static" / f"sim_seed{s0}.csv", 200, "E", 100_000),
    }
    for name, tamper in cases.items():
        out = h.tampered(real, f"pr-{name}")
        tamper(out)
        ops = workloads.Ops()
        wl.check_outputs(ops, out)
        h.expect(name, ops.records, False)
    # the closed-form gain of a pass pair seen identically from both stations is zero
    (leg_a, _), link, _, _ = wl.columns(wl.spec)
    wl.gain = checks.integrated_gain(leg_a, leg_a, wl.m_s, link)
    ops = workloads.Ops()
    wl.check_outputs(ops, real)
    h.expect("closed_form_gain", ops.records, False)


def capture_replay(h: Harness) -> None:
    wl = workloads.CaptureReplay(run.ROOT, h.work / "cr", 0)
    real = h.real_round(wl)
    s0 = wl.seeds[0]
    log_name = f"rounds_seed{s0}.ndjson"
    record_cases = {
        "length": (lambda r: r.__setitem__("train_length", r["train_length"] + 1), "outcomes length"),
        "successes": (lambda r: flip(r, "L", "S"), "count('S')"),
        "drift": (lambda r: flip(r, "L", "D"), "count('D')"),
        "timing": (lambda r: r.__setitem__("confirm_time_s", r["confirm_time_s"] + 1e-9), "confirm vs start"),
    }
    for tag, (edit, phrase) in record_cases.items():
        out = h.tampered(real, f"cr-{tag}")
        edit_record(out / log_name, edit)
        log = sim.read_round_log(out / log_name)
        ops = workloads.Ops()
        wl.check_seed(ops, out, s0, log, sim.replay(wl.configs[s0], log))
        print(f"    round record edit: {tag}")
        h.expect(f"seed{s0}.round_records", ops.records, False, phrase)

    out = h.tampered(real, "cr-replay")
    edit_csv(out / f"sim_seed{s0}.csv", 200, "A", 1)
    log = sim.read_round_log(out / log_name)
    ops = workloads.Ops()
    wl.check_seed(ops, out, s0, log, sim.replay(wl.configs[s0], log))
    h.expect(f"seed{s0}.replay_matches_csv", ops.records, False)
    del log

    cases = {
        "read_counts": lambda o: (o / f"sim_seed{s0}.csv").unlink(),
        "pooled_A": lambda o: edit_csv(o / f"sim_seed{s0}.csv", 200, "A", pooled_shift(o, wl.seeds, "A")),
        "pooled_B": lambda o: edit_csv(o / f"sim_seed{s0}.csv", 200, "B", pooled_shift(o, wl.seeds, "B")),
        "e2e_is_min": lambda o: edit_csv(o / f"sim_seed{s0}.csv", 200, "E", 1),
    }
    for name, tamper in cases.items():
        out = h.tampered(real, f"cr-{name}")
        tamper(out)
        ops = workloads.Ops()
        wl.check_outputs(ops, out)
        h.expect(name, ops.records, False)


def checksum(h: Harness) -> None:
    ref = json.loads(run.REFERENCE.read_text())
    status = run.reference_status("memory_sweep", 0, "0" * 64, ref["engine_version"], record=False)
    good = status.startswith("MISMATCH")
    print(f"{'ok ' if good else 'BAD'} checksum comparison fires: {status[:60]}")
    if not good:
        h.problems.append("checksum comparison did not fire")
    status = run.reference_status("memory_sweep", 0, "0" * 64, "another-engine", record=False)
    good = status.startswith("unreferenced")
    print(f"{'ok ' if good else 'BAD'} a new engine version is unreferenced: {status[:60]}")
    if not good:
        h.problems.append("a new engine version was not reported as unreferenced")


def main() -> int:
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    h = Harness(work)
    try:
        for part in (memory_sweep, paired_retained, capture_replay, checksum):
            print(f"== {part.__name__}")
            part(h)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in h.problems:
        print(f"PROBLEM {p}")
    print("selftest:", "all checks pass on real outputs and fire on edited ones" if not h.problems else "FAILED")
    return 1 if h.problems else 0


if __name__ == "__main__":
    sys.exit(main())
