"""Statistical cross-validation of simulated counts against the rate model.

Per-bin pair counts of one leg are sums of independent Bernoulli photons,
so given the deterministic round schedule the count in a bin is a sum of
binomials: mu = sum over rounds confirming in the bin of N_eff * q and
sigma^2 = sum of N_eff * q * (1 - q), with q = eta * p_bsm and N_eff the
latch-eligible train length after the drift cap.  The moments are read
from the schedule in the simulator's plan (confirm times per round; profile
sample, train length and eligible count per block), the same table the runs
draw their photons on, so they are exact for the engine rather than an
approximation of it.

A comparison z-scores each bin, and the verdict is a band-coverage
heuristic: at least 90 percent of evaluated bins inside two sigma and the
total count inside three sigma.  Bins that are identically zero on both
sides carry no information and are excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .errors import ConfigError, GridMismatchError
from .passes import _kind_fault, _write_csv
from .sim import SimConfig, SimResult, _bin_counts, _Plan, _plan

__all__ = [
    "BinMoments",
    "ValidationReport",
    "predict_bin_moments",
    "compare",
    "compare_counts",
    "pool_counts",
    "write_validation_csv",
]


@dataclass(frozen=True, eq=False)
class BinMoments:
    """Analytic per-bin mean and standard deviation of one leg's counts."""

    bin_width_s: float
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self) -> None:
        if self.mu.shape != self.sigma.shape:
            raise ConfigError("mu and sigma must share one grid")
        if np.any(self.sigma < 0.0):
            raise ConfigError("sigma must be >= 0")

    @property
    def n_bins(self) -> int:
        return int(self.mu.size)

    @property
    def bin_start_s(self) -> np.ndarray:
        return np.arange(self.n_bins, dtype=float) * self.bin_width_s


def predict_bin_moments(config: SimConfig, n_runs: int = 1, *, plan: _Plan | None = None) -> tuple[BinMoments, ...]:
    """Exact per-bin count moments for every leg of ``config``.

    The moments come from the schedule of ``plan`` (built from ``config``
    when None), the same table every run of that plan draws on.
    ``n_runs`` scales the moments for counts pooled over that many
    independent seeds (mu scales linearly, sigma with the square root).
    Only defined while confirmed pairs recycle their slots immediately;
    with ``retain_until_swap`` the schedule becomes outcome-dependent and
    no closed form is attempted.
    """
    if config.retain_until_swap:
        raise ConfigError("bin moments are undefined when pairs retain slots until swap")
    if _kind_fault(int, n_runs) or n_runs < 1:
        raise ConfigError(f"n_runs must be an integer >= 1: {n_runs!r}", "n_runs")
    width = config.bin_width_s
    out = []
    for leg, table in enumerate((_plan(config) if plan is None else plan).schedules):
        q = config.profiles[leg].eta[table.sample] * config.link.p_bsm
        mean = table.eligible * q
        conf = table.confirm
        n_bins = int(math.floor(float(conf.max()) / width)) + 1 if conf.size else 0
        mu = _bin_counts(conf, np.repeat(mean, table.k), width, n_bins)
        var = _bin_counts(conf, np.repeat(mean * (1.0 - q), table.k), width, n_bins)
        out.append(BinMoments(bin_width_s=width, mu=mu * n_runs, sigma=np.sqrt(var * n_runs)))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Per-bin z-scores of simulated counts against analytic moments.

    Bins with mu = 0 and count = 0 are uninformative and excluded from the
    coverage fraction; ``z`` is NaN there.  A deterministic bin (sigma = 0)
    scores 0 on an exact match and infinity otherwise.
    """

    bin_width_s: float
    mu: np.ndarray
    sigma: np.ndarray
    count: np.ndarray
    z: np.ndarray
    z_total: float
    bins_evaluated: int
    fraction_within_2sigma: float
    verdict: bool

    @property
    def n_bins(self) -> int:
        return int(self.mu.size)

    @property
    def bin_start_s(self) -> np.ndarray:
        return np.arange(self.n_bins, dtype=float) * self.bin_width_s

    def summary_dict(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "bins_evaluated": int(self.bins_evaluated),
            "fraction_within_2sigma": float(self.fraction_within_2sigma),
            "z_total": float(self.z_total),
            "total_count": int(self.count.sum()),
            "total_mu": float(self.mu.sum()),
            "n_bins": self.n_bins,
            "bin_width_s": self.bin_width_s,
        }


def _pad_sum(arrays: Sequence[np.ndarray], n: int = 0) -> np.ndarray:
    """Sum of ``arrays``, each zero-padded to the longest of them and of ``n``."""
    out = np.zeros(max(n, *(a.size for a in arrays)), dtype=arrays[0].dtype)
    for a in arrays:
        out[: a.size] += a
    return out


def compare_counts(counts: np.ndarray, moments: BinMoments) -> ValidationReport:
    """Score one series of per-bin counts against analytic moments.

    The shorter grid is zero-padded: trailing bins one side never reaches
    carry zero mean and zero count.  Verdict: at least 90 percent of
    evaluated bins inside two sigma and the total inside three.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1 or counts.dtype.kind not in "iu" or not np.can_cast(counts.dtype, np.int64):
        raise ConfigError(f"counts must be a 1-D integer array, got {counts.dtype} of shape {counts.shape}", "counts")
    if counts.size and counts.min() < 0:
        raise ConfigError(f"counts must be >= 0, got {counts.min()}", "counts")
    n = max(counts.size, moments.n_bins)
    c = _pad_sum([counts.astype(np.int64)], n)
    mu = _pad_sum([moments.mu], n)
    sigma = _pad_sum([moments.sigma], n)

    z = np.full(n, np.nan)
    evaluated = ~((mu == 0.0) & (c == 0))
    pos = sigma > 0.0
    z[evaluated & pos] = (c[evaluated & pos] - mu[evaluated & pos]) / sigma[evaluated & pos]
    det = evaluated & ~pos
    z[det] = np.where(c[det] == mu[det], 0.0, np.inf)

    n_eval = int(np.count_nonzero(evaluated))
    frac = float(np.count_nonzero(np.abs(z[evaluated]) <= 2.0) / n_eval) if n_eval else 1.0
    sig_tot = float(np.sqrt(np.sum(sigma**2)))
    diff_tot = float(c.sum() - mu.sum())
    if sig_tot > 0.0:
        z_total = diff_tot / sig_tot
    else:
        z_total = 0.0 if diff_tot == 0.0 else math.inf
    return ValidationReport(bin_width_s=moments.bin_width_s, mu=mu, sigma=sigma, count=c, z=z,
                            z_total=z_total, bins_evaluated=n_eval, fraction_within_2sigma=frac,
                            verdict=frac >= 0.9 and abs(z_total) <= 3.0)


def compare(sim: SimResult, moments: BinMoments, leg: int = 0) -> ValidationReport:
    """Score one leg of a simulation result against its moments."""
    if abs(sim.bin_width_s - moments.bin_width_s) > 1e-12:
        raise GridMismatchError(
            f"bin widths differ: sim {sim.bin_width_s} vs moments {moments.bin_width_s}"
        )
    return compare_counts(pool_counts([sim], leg), moments)


def pool_counts(results: Sequence[SimResult], leg: int = 0) -> np.ndarray:
    """Sum one leg's per-bin counts over several runs (for pooled validation)."""
    if not results:
        raise ConfigError("pool_counts needs at least one result")
    width = results[0].bin_width_s
    if any(abs(r.bin_width_s - width) > 1e-12 for r in results):
        raise GridMismatchError("pooled results must share one bin width")
    if fault := _kind_fault(int, leg):
        raise ConfigError(f"leg{fault}", "leg")
    if not all(0 <= leg < len(r.pairs_per_leg) for r in results):
        raise ConfigError(f"a result has no leg {leg}", "leg")
    return _pad_sum([r.pairs_per_leg[leg] for r in results])


def write_validation_csv(report: ValidationReport, destination: str | Path | TextIO) -> None:
    """Write per-bin rows as ``bin_start_s,mu,sigma,count,z``."""
    columns = (report.bin_start_s, report.mu, report.sigma, report.count, report.z)
    _write_csv(destination, "bin_start_s,mu,sigma,count,z", columns)
