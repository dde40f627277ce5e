"""Span recording for the traced benchmark run, and work counts from round logs.

Public satqlink functions are wrapped at every module binding the program
looks them up through (``satqlink.cli.run`` and ``satqlink.sim.run`` are one
function bound twice), so a call is traced whichever module makes it.  The
private helpers that the engine rework will replace (``_leg_schedule``,
``_simulate_leg``, ``_run_dual_event``, ``_bin_counts``) are not wrapped; the
workloads separate them instead.

Spans stay in memory as (name, start, end, parent, round) and are written
once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, function) pairs wrapped in a traced round.
TRACED = (
    ("passes", "propagate_pass"),
    ("experiment", "load_experiment"),
    ("analytics", "best_static_split"),
    ("analytics", "allocation_series"),
    ("sim", "run"),
    ("sim", "write_sim_csv"),
    ("sim", "read_sim_csv"),
    ("sim", "write_round_log"),
    ("sim", "read_round_log"),
    ("sim", "replay"),
    ("validation", "predict_bin_moments"),
    ("validation", "compare_counts"),
)


class Tracer:
    """Nested spans of one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.round = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self.round]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function by a span-recording wrapper."""
        modules = [m for n, m in list(sys.modules.items()) if n == "satqlink" or n.startswith("satqlink.")]
        for mod_name, attr in TRACED:
            original = getattr(importlib.import_module(f"satqlink.{mod_name}"), attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def per_round(self) -> dict[int, dict[str, dict[str, float]]]:
        """{round: {span name: {calls, s, self_s}}}; self time leaves out child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, dict[str, float]]] = {}
        for i, (name, start, end, _, rnd) in enumerate(self.spans):
            agg = out.setdefault(rnd, {}).setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
        return out

    def medians(self) -> dict[str, float]:
        """Median over traced rounds of each span's per-round calls, s and self_s."""
        rounds = self.per_round()
        names = {name for per in rounds.values() for name in per}
        out = {}
        for name in names:
            for field in ("calls", "s", "self_s"):
                values = [per.get(name, {}).get(field, 0) for per in rounds.values()]
                out[f"{name}.{field}"] = statistics.median_low(values) if field == "calls" else statistics.median(values)
        return out

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "round")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n", encoding="utf-8")


def _visible_time(visible: np.ndarray, t0: float, step: float, t: np.ndarray) -> np.ndarray:
    """Seconds of visible samples between t0 and each t."""
    n = visible.size
    cum = np.concatenate(([0.0], np.cumsum(visible * step)))
    idx = np.clip(np.floor((t - t0) / step).astype(np.int64), 0, n)
    partial = np.where(idx < n, visible[np.minimum(idx, n - 1)] * (t - t0 - idx * step), 0.0)
    return cum[idx] + np.clip(partial, 0.0, step)


def work_counts(result, profiles) -> dict[str, float]:
    """Work done by one captured run: rounds, photons, drift losses, pairs, swaps, blocking.

    Blocked time is the simulated time a leg spent inside its own visible
    samples between one round's confirmation and its next start (or the end
    of the pass): time it could have used but had no free slot.
    """
    rounds = result.rounds
    counts = {
        "rounds": len(rounds),
        "photons": sum(r.train_length for r in rounds),
        "photons_drifted": sum(r.outcomes.count("D") for r in rounds),
        "pairs": sum(r.n_success for r in rounds),
        "swaps": result.total_end_to_end,
    }
    blocked = 0.0
    for leg, profile in enumerate(profiles):
        mine = sorted((r.start_time_s, r.confirm_time_s) for r in rounds if r.leg == leg)
        if not mine:
            continue
        t0, step = float(profile.t_s[0]), float(profile.step_s)
        end = t0 + profile.n_samples * step
        starts = np.asarray([s for s, _ in mine[1:]] + [end])
        confirms = np.asarray([c for _, c in mine])
        gap = starts > confirms
        vis = np.asarray(profile.visible, dtype=float)
        blocked += float(
            np.sum(
                _visible_time(vis, t0, step, starts[gap]) - _visible_time(vis, t0, step, confirms[gap])
            )
        )
    counts["blocked_sim_s"] = blocked
    return counts
