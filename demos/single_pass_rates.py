"""Per-second pair rates over one 500 km pass, model vs. one seeded run.

Walks the calibrated pass over the Nice station, prints the closed-form
rate with and without the train-length correction for several memory
sizes, then overlays a single simulated run.  The correction only matters
at 100 slots and only near the pass edges where the radial velocity is
largest; at culmination the full train fits the coincidence window.

Usage: python demos/single_pass_rates.py [--out DIR] [--seed N] [--plot]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from satqlink import (
    LinkParams,
    SimConfig,
    load_experiment,
    max_train_length,
    rate_series,
    run,
    write_rate_csv,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("demos/out"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--plot", action="store_true", help="write a PNG next to the CSVs")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    profile = load_experiment(Path(__file__).parent / "specs" / "two_station.json").profiles()[0]
    vis = profile.visible
    print(f"pass over {profile.station}: {int(vis.sum())} visible seconds, "
          f"max |v_r| = {np.abs(profile.radial_velocity_mps[vis]).max():.0f} m/s")

    curves = {}
    for m_s in (10, 50, 100):
        link = LinkParams(m_sat=m_s)
        uncapped = rate_series(profile, link, use_drift_correction=False)
        corrected = rate_series(profile, link, use_drift_correction=True)
        curves[m_s] = (uncapped, corrected)
        capped = int(np.count_nonzero(corrected < uncapped))
        bound = max_train_length(np.abs(profile.radial_velocity_mps[vis]).max(), link)
        print(f"m_S={m_s:>3}: peak {corrected.max():7.1f} pairs/s, "
              f"correction active on {capped:3d} s, "
              f"train bound at fastest sample {bound:.0f}")
        path = args.out / f"pass_rates_m{m_s}.csv"
        with open(path, "w", encoding="utf-8") as fh:
            write_rate_csv(fh, profile.t_s, corrected)

    # one run at 100 slots to show the per-second scatter around the model
    link = LinkParams(m_sat=100)
    config = SimConfig(profiles=(profile,), link_params=(link,),
                       policy="single", rng_seed=args.seed)
    result = run(config)
    counts = result.pairs_per_leg[0]
    model = curves[100][1]
    n = min(len(counts), len(model))
    print(f"seed {args.seed}: {result.totals_per_leg[0]} pairs simulated, "
          f"{model[:n].sum():.0f} from integrating the closed-form curve")

    if args.plot:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed, skipping the figure")
            return
        fig, ax = plt.subplots(figsize=(8, 4.5))
        for m_s, (uncapped, corrected) in curves.items():
            ax.plot(profile.t_s, corrected, label=f"model, m_S={m_s}")
        ax.plot(profile.t_s, curves[100][0], ":", color="gray", label="m_S=100 uncapped")
        ax.plot(result.bin_start_s, counts, ".", ms=3, alpha=0.6,
                label=f"simulated counts, seed {args.seed}")
        ax.set_xlabel("time since epoch [s]")
        ax.set_ylabel("pairs per second")
        ax.legend(fontsize=8)
        fig.tight_layout()
        fig.savefig(args.out / "single_pass_rates.png", dpi=150)
        print(args.out / "single_pass_rates.png")


if __name__ == "__main__":
    main()
