"""Pooled simulated counts against the binomial prediction band.

Runs the calibrated single-station pass for a number of seeds, pools the
per-second counts, and checks them against the analytic per-bin moments.
The moments reuse the engine's own round schedule, so a healthy engine
should sit inside the two-sigma band for at least 90 percent of the
evaluated bins, with the pooled total inside three sigma.

Usage: python demos/validation_bands.py [--out DIR] [--seeds N] [--m-sat N] [--plot]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from satqlink import (
    LinkParams,
    SimConfig,
    compare_counts,
    load_experiment,
    pool_counts,
    predict_bin_moments,
    run,
    write_validation_csv,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("demos/out"))
    ap.add_argument("--seeds", type=int, default=25)
    ap.add_argument("--m-sat", type=int, default=50, dest="m_sat")
    ap.add_argument("--plot", action="store_true")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    profile = load_experiment(Path(__file__).parent / "specs" / "two_station.json").profiles()[0]
    link = LinkParams(m_sat=args.m_sat)

    def config(seed: int) -> SimConfig:
        return SimConfig(profiles=(profile,), link_params=(link,),
                         policy="single", rng_seed=seed)

    print(f"simulating {args.seeds} seeds over the {profile.station} pass, "
          f"m_S = {args.m_sat} ...")
    results = [run(config(seed)) for seed in range(args.seeds)]
    pooled = pool_counts(results)
    moments = predict_bin_moments(config(0), n_runs=args.seeds)[0]
    report = compare_counts(pooled, moments)

    print(f"bins evaluated: {report.bins_evaluated}")
    print(f"within 2 sigma: {report.fraction_within_2sigma:.1%}")
    print(f"pooled total:   {int(pooled.sum())} vs {moments.mu.sum():.0f} expected "
          f"(z = {report.z_total:+.2f})")
    print(f"verdict: {'true' if report.verdict else 'false'}")

    csv_path = args.out / f"validation_m{args.m_sat}.csv"
    write_validation_csv(report, csv_path)
    print(csv_path)

    if args.plot:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed, skipping the figure")
            return
        t = moments.bin_start_s
        fig, ax = plt.subplots(figsize=(8, 4.5))
        ax.fill_between(t, moments.mu - 2 * moments.sigma, moments.mu + 2 * moments.sigma,
                        alpha=0.3, label="2 sigma band")
        ax.plot(t, moments.mu, lw=1, label="predicted mean")
        n = min(len(pooled), len(t))
        ax.plot(t[:n], pooled[:n], ".", ms=3, label=f"pooled counts, {args.seeds} seeds")
        ax.set_xlabel("time since epoch [s]")
        ax.set_ylabel(f"pairs per second, pooled over {args.seeds} runs")
        ax.legend()
        fig.tight_layout()
        fig.savefig(args.out / "validation_bands.png", dpi=150)
        print(args.out / "validation_bands.png")


if __name__ == "__main__":
    main()
