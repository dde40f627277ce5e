"""Splitting satellite memory between two ground stations, three ways.

The calibrated scenario culminates over Nice about 90 s before Paris, so
for most of the co-visible window one leg is loaded much harder than the
other.  This script prints the real-valued, integer, and best-static
allocations along the pass and compares their integrated pair counts.

Usage: python demos/dual_link_allocation.py [--out DIR] [--m-sat N] [--plot]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from satqlink import allocation_series, load_experiment, write_rate_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=Path("demos/out"))
    ap.add_argument("--m-sat", type=int, default=100, dest="m_sat")
    ap.add_argument("--plot", action="store_true")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    exp = load_experiment(Path(__file__).parent / "specs" / "two_station.json").with_overrides(m_sat=args.m_sat)
    (nice, paris), link = exp.profiles(), exp.link
    alloc = allocation_series(nice, paris, args.m_sat, link)
    both = (nice.visible & (nice.eta > 0)) & (paris.visible & (paris.eta > 0))
    window = np.flatnonzero(both)
    print(f"co-visible window: t = {window[0]}..{window[-1]} s "
          f"({window.size} samples), m_S = {args.m_sat}")
    print(f"best static split: {alloc.static_split[0]} to {nice.station}, "
          f"{alloc.static_split[1]} to {paris.station}")

    print("\n  t [s]  m_nice  m_paris  rate_int  rate_static")
    for i in window[:: max(1, window.size // 10)]:
        print(f"{alloc.t_s[i]:7.0f}  {int(alloc.m_A_int[i]):6d}  {int(alloc.m_B_int[i]):7d}"
              f"  {alloc.rate_int[i]:8.1f}  {alloc.static_rate[i]:11.1f}")

    step = nice.step_s
    dyn = float(np.sum(alloc.rate_int)) * step
    real = float(np.sum(alloc.rate_real)) * step
    static = float(np.sum(alloc.static_rate)) * step
    print("\nintegrated pairs over the window:")
    print(f"  real-valued split  {real:9.0f}")
    print(f"  integer split      {dyn:9.0f}")
    print(f"  best static split  {static:9.0f}  "
          f"({(dyn - static) / static:+.1%} for going dynamic)")

    path = args.out / f"allocation_m{args.m_sat}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        write_rate_csv(fh, alloc.t_s, alloc.rate_int, alloc.m_A_int, alloc.m_B_int)
    print(path)

    if args.plot:
        try:
            import matplotlib
            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed, skipping the figure")
            return
        fig, (ax1, ax2) = plt.subplots(2, 1, figsize=(8, 6), sharex=True)
        ax1.step(alloc.t_s, alloc.m_A_int, where="post", label=f"slots to {nice.station}")
        ax1.step(alloc.t_s, alloc.m_B_int, where="post", label=f"slots to {paris.station}")
        ax1.set_ylabel("memory slots")
        ax1.legend()
        ax2.plot(alloc.t_s, alloc.rate_int, label="dynamic integer")
        ax2.plot(alloc.t_s, alloc.static_rate, "--", label="best static")
        ax2.set_xlabel("time since epoch [s]")
        ax2.set_ylabel("end-to-end pairs/s")
        ax2.legend()
        fig.tight_layout()
        fig.savefig(args.out / "dual_link_allocation.png", dpi=150)
        print(args.out / "dual_link_allocation.png")


if __name__ == "__main__":
    main()
