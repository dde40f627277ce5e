"""Output checks computed apart from satqlink.

Every expectation here comes from the pass columns and the link constants
with numpy alone: no satqlink function is called.  The pass columns are the
benchmark's input geometry; what is checked is what the program made of it.

A check raises :class:`CheckFailed` with a message naming what disagreed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Share of paired seeds on which dynamic must beat static (criterion 7).
DYNAMIC_WIN_SHARE = 0.95
# Range of the integrated closed-form gain of dynamic over static.
DYNAMIC_GAIN_RANGE = (0.10, 0.60)
POOLED_SIGMAS = 4.0
REL_TOL = 1e-12


class CheckFailed(Exception):
    """An output disagrees with the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def require_close(got, want, what: str, rel: float = REL_TOL) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    scale = np.maximum(np.abs(got), np.abs(want))
    bad = np.abs(got - want) > rel * scale
    if np.any(bad):
        i = int(np.flatnonzero(bad.ravel())[0])
        raise CheckFailed(
            f"{what}: {got.ravel()[i]!r} != {want.ravel()[i]!r} (rel {rel:g}) at index {i}"
        )


@dataclass(frozen=True)
class Link:
    """Link constants of the spec (shared by both legs)."""

    m_ground: int
    p_bsm: float
    emission_period_s: float
    acceptance_window_s: float
    light_speed_mps: float
    processing_delay_s: float


@dataclass(frozen=True)
class Leg:
    """Pass columns of one station, with the round trip derived from range."""

    t0: float
    step: float
    visible: np.ndarray
    eta: np.ndarray
    t_rt: np.ndarray
    v_r: np.ndarray

    @property
    def lit(self) -> np.ndarray:
        return self.visible & (self.eta > 0)


def leg_from_columns(t_s, distance_m, eta, visible, v_r, step, link: Link) -> Leg:
    t_rt = 2.0 * np.asarray(distance_m, dtype=float) / link.light_speed_mps + link.processing_delay_s
    return Leg(
        t0=float(t_s[0]),
        step=float(step),
        visible=np.asarray(visible, dtype=bool),
        eta=np.asarray(eta, dtype=float),
        t_rt=t_rt,
        v_r=np.asarray(v_r, dtype=float),
    )


# --------------------------------------------------------------------------
# closed forms


def split_rates(leg_a: Leg, leg_b: Leg, m_s: int, link: Link):
    """Min-rate of every integer split at every co-visible sample.

    Returns (mask of co-visible samples, rates of shape (samples, m_s + 1)),
    column k giving m_A = k.
    """
    both = leg_a.lit & leg_b.lit
    k = np.arange(m_s + 1, dtype=float)
    p = link.p_bsm
    r_a = p * k[None, :] * leg_a.eta[both][:, None] / leg_a.t_rt[both][:, None]
    r_b = p * (m_s - k)[None, :] * leg_b.eta[both][:, None] / leg_b.t_rt[both][:, None]
    return both, np.minimum(r_a, r_b)


def dynamic_shares(leg_a: Leg, leg_b: Leg, m_s: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample integer split: ceil((m_S - 1) x / (x + y)) with x = t_A/eta_A.

    A leg seen alone takes every slot; a dark sample splits evenly, the odd
    slot going to leg A.
    """
    a_only = leg_a.lit & ~leg_b.lit
    b_only = leg_b.lit & ~leg_a.lit
    both = leg_a.lit & leg_b.lit
    m_a = np.full(leg_a.eta.size, m_s - m_s // 2, dtype=np.int64)
    m_a[a_only] = m_s
    m_a[b_only] = 0
    x = leg_a.t_rt[both] / leg_a.eta[both]
    y = leg_b.t_rt[both] / leg_b.eta[both]
    m_a[both] = np.ceil((m_s - 1) * x / (x + y)).astype(np.int64)
    return m_a, m_s - m_a


def eligible_photons(n: np.ndarray, v_r: np.ndarray, link: Link) -> np.ndarray:
    """Photons whose drift stays in the window: min(n, floor(w c / (|v_r| T_em)) + 1)."""
    n = np.asarray(n, dtype=np.int64)
    v_r = np.asarray(v_r, dtype=float)
    out = n.copy()
    moving = v_r != 0.0
    bound = link.acceptance_window_s * link.light_speed_mps / (
        np.abs(v_r[moving]) * link.emission_period_s
    )
    out[moving] = np.minimum(n[moving], np.floor(bound).astype(np.int64) + 1)
    return out


def leg_moments(leg: Leg, shares: np.ndarray, link: Link) -> tuple[float, float]:
    """Mean and variance of one seed's leg total over the pass.

    Sum over visible samples holding a slot of eligible * eta * p / dt * step,
    with dt = (n - 1) T_em + t_rt the round length and n = min(share, m_ground).
    """
    on = leg.visible & (shares >= 1)
    n = np.minimum(shares[on], link.m_ground)
    elig = eligible_photons(n, leg.v_r[on], link)
    dt = (n - 1) * link.emission_period_s + leg.t_rt[on]
    q = leg.eta[on] * link.p_bsm
    rounds = leg.step / dt
    return float(np.sum(elig * q * rounds)), float(np.sum(elig * q * (1.0 - q) * rounds))


def integrated_gain(leg_a: Leg, leg_b: Leg, m_s: int, link: Link) -> float:
    """Integrated closed-form dual rate of dynamic over the best static split, minus 1."""
    _, rates = split_rates(leg_a, leg_b, m_s, link)
    dynamic = float(np.sum(rates.max(axis=1)))
    static = float(np.max(rates.sum(axis=0)))
    return dynamic / static - 1.0


# --------------------------------------------------------------------------
# reading outputs


def read_counts(path: Path) -> dict[str, np.ndarray]:
    """Columns of a ``sim_seed*.csv`` file, parsed without satqlink."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    require(bool(lines), f"{path}: empty")
    header = lines[0].split(",")
    require(
        header == ["bin_start_s", "pairs_legA", "pairs_legB", "pairs_end_to_end"],
        f"{path}: header {header}",
    )
    rows = [line.split(",") for line in lines[1:] if line]
    cols = list(zip(*rows)) if rows else [(), (), (), ()]
    return {
        "bin_start_s": np.asarray(cols[0], dtype=float),
        "A": np.asarray(cols[1], dtype=np.int64),
        "B": np.asarray(cols[2], dtype=np.int64),
        "E": np.asarray(cols[3], dtype=np.int64),
    }


def read_json(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def counts_digest(items) -> str:
    """sha256 over (label, counts) pairs, each count column as int64 bytes."""
    h = hashlib.sha256()
    for label, counts in items:
        h.update(label.encode())
        for key in ("A", "B", "E"):
            h.update(np.ascontiguousarray(counts[key], dtype="<i8").tobytes())
    return h.hexdigest()


# --------------------------------------------------------------------------
# checks shared by the workloads


def check_e2e_is_min(counts_by_seed: dict[int, dict]) -> None:
    """Per seed, the end-to-end total equals the smaller leg total."""
    for seed, c in counts_by_seed.items():
        a, b, e = int(c["A"].sum()), int(c["B"].sum()), int(c["E"].sum())
        require(e == min(a, b), f"seed {seed}: end-to-end {e} != min({a}, {b})")


def check_pooled(counts_by_seed: dict[int, dict], key: str, mean: float, var: float) -> None:
    """Pooled leg total within POOLED_SIGMAS of the closed-form sum."""
    s = len(counts_by_seed)
    total = sum(int(c[key].sum()) for c in counts_by_seed.values())
    sigma = math.sqrt(s * var)
    z = (total - s * mean) / sigma
    require(
        abs(z) <= POOLED_SIGMAS,
        f"leg {key}: pooled {total} vs expected {s * mean:.1f} (z {z:.2f})",
    )


def check_allocation_sum(csv_path: Path, m_s: int, n_samples: int) -> None:
    lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
    require(lines[0] == "t_s,rate_pairs_per_s,m_A,m_B", f"{csv_path}: header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:] if line]
    require(len(rows) == n_samples, f"{csv_path}: {len(rows)} rows, want {n_samples}")
    m_a = np.asarray([r[2] for r in rows], dtype=np.int64)
    m_b = np.asarray([r[3] for r in rows], dtype=np.int64)
    bad = np.flatnonzero(m_a + m_b != m_s)
    require(bad.size == 0, f"{csv_path}: m_A + m_B != {m_s} at row {bad[:1] + 2}")


def check_allocation_optimal(alloc: dict, both: np.ndarray, best_rate: np.ndarray) -> None:
    """The integer split's min-rate equals the exhaustive optimum at every co-visible sample."""
    rate_int = np.asarray(alloc["rate_int"], dtype=float)
    require(rate_int.size == both.size, f"rate_int has {rate_int.size} samples, want {both.size}")
    require_close(rate_int[both], best_rate, "rate_int vs exhaustive optimum")
    require(np.all(rate_int[~both] == 0.0), "rate_int non-zero outside co-visibility")


def check_static_optimal(alloc: dict, m_s: int, static_totals: np.ndarray) -> None:
    """The static split's integrated rate equals the exhaustive maximum."""
    m_a, m_b = (int(v) for v in alloc["static_split"])
    require(m_a + m_b == m_s, f"static split {m_a}+{m_b} != {m_s}")
    best = float(np.max(static_totals))
    require_close(static_totals[m_a], best, f"integrated rate at static m_A={m_a}")
    require_close(float(np.sum(alloc["static_rate"])), best, "integrated static_rate")


def check_validation(summary: dict, rc: int, seeds: int, counts_by_seed: dict[int, dict]) -> None:
    """validation.json agrees with the exit code, its own numbers and the CSVs."""
    verdict = bool(summary["verdict"])
    require(verdict == (rc == 0), f"verdict {verdict} with exit code {rc}")
    require(summary["runs_pooled"] == seeds, f"runs_pooled {summary['runs_pooled']} != {seeds}")
    legs = list(summary["legs"].values())
    require(len(legs) == 2, f"{len(legs)} legs in validation.json")
    own = []
    for leg, key in zip(legs, ("A", "B")):
        pooled = sum(int(c[key].sum()) for c in counts_by_seed.values())
        require(leg["total_count"] == pooled, f"leg {key}: total_count {leg['total_count']} != {pooled}")
        own.append(leg["fraction_within_2sigma"] >= 0.9 and abs(leg["z_total"]) <= 3.0)
        require(leg["verdict"] == own[-1], f"leg {key}: verdict disagrees with its numbers")
    require(verdict == all(own), "overall verdict is not the conjunction of the legs")


def check_round_records(rounds, leg_columns: tuple[Leg, ...], link: Link) -> None:
    """Every captured round is internally consistent with the pass columns."""
    n = np.fromiter((r.train_length for r in rounds), dtype=np.int64, count=len(rounds))
    outcomes = [r.outcomes or "" for r in rounds]
    lengths = np.fromiter(map(len, outcomes), dtype=np.int64, count=len(rounds))
    bad = np.flatnonzero(lengths != n)
    require(bad.size == 0, f"round {bad[:1]}: outcomes length != train_length")

    succ = np.fromiter((r.n_success for r in rounds), dtype=np.int64, count=len(rounds))
    s_count = np.fromiter((o.count("S") for o in outcomes), dtype=np.int64, count=len(rounds))
    bad = np.flatnonzero(s_count != succ)
    require(bad.size == 0, f"round {bad[:1]}: count('S') != n_success")

    v_r = np.fromiter((r.v_r_at_start_mps for r in rounds), dtype=float, count=len(rounds))
    d_count = np.fromiter((o.count("D") for o in outcomes), dtype=np.int64, count=len(rounds))
    bad = np.flatnonzero(d_count != n - eligible_photons(n, v_r, link))
    require(bad.size == 0, f"round {bad[:1]}: count('D') != n - eligible")

    leg = np.fromiter((r.leg for r in rounds), dtype=np.int64, count=len(rounds))
    start = np.fromiter((r.start_time_s for r in rounds), dtype=float, count=len(rounds))
    conf = np.fromiter((r.confirm_time_s for r in rounds), dtype=float, count=len(rounds))
    t_rt = np.empty(len(rounds))
    for i, cols in enumerate(leg_columns):
        on = leg == i
        sample = np.floor((start[on] - cols.t0) / cols.step).astype(np.int64)
        require(bool(np.all(cols.visible[sample])), f"leg {i}: a round starts in a dark sample")
        t_rt[on] = cols.t_rt[sample]
    # compared as times: the difference of two times near 1e2 s keeps only
    # about 1e-12 of its own relative precision
    require_close(conf, start + ((n - 1) * link.emission_period_s + t_rt), "confirm vs start + round length")


def check_replay_matches(replayed, counts: dict) -> None:
    """replay(read_round_log(...)) equals the written CSV bin for bin."""
    got = {"A": replayed.pairs_per_leg[0], "B": replayed.pairs_per_leg[1], "E": replayed.pairs_end_to_end}
    for key in ("A", "B", "E"):
        want = counts[key]
        require(got[key].size == want.size, f"{key}: {got[key].size} replayed bins vs {want.size}")
        bad = np.flatnonzero(got[key] != want)
        require(bad.size == 0, f"{key}: replay differs from the CSV at bin {bad[:1]}")
