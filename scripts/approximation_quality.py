#!/usr/bin/env python3
"""Approximation-quality experiments: simulated tails vs the normal approximation.

Emits one plot-ready CSV per scenario into the chosen output directory:
  - three samples of 100 standard normals (no ties)
  - the same data rounded to one decimal (many ties)
  - two-valued data, the extreme tie pattern
  - nine-valued data, where corrections barely matter
Each CSV has columns threshold,p_sim,p_asym_adj,p_asym_unadj.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from steelrank.analysis import quality_harness

P_GRID = (0.20, 0.15, 0.10, 0.05, 0.025, 0.01)


def scenarios(seed: int):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(300)
    split = lambda x: [x[:100].tolist(), x[100:200].tolist(), x[200:].tolist()]
    yield "normal_no_ties", split(base)
    yield "normal_rounded_1dp", split(np.round(base, 1))
    yield "two_valued", [[0.0] * 50 + [1.0] * 50 for _ in range(3)]
    yield "nine_valued", [[1.0 + (i % 9) for i in range(100)] for _ in range(3)]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nsim", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="quality_out")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, groups in scenarios(args.seed):
        rows = quality_harness(groups, "greater", P_GRID, nsim=args.nsim, seed=args.seed)
        path = out_dir / f"{name}.csv"
        with open(path, "w") as fh:
            fh.write("threshold,p_sim,p_asym_adj,p_asym_unadj\n")
            for r in rows:
                fh.write(
                    f"{r['threshold']:.10g},{r['p_sim']:.10g},"
                    f"{r['p_asym_adj']:.10g},{r['p_asym_unadj']:.10g}\n"
                )
        worst = max(abs(r["p_sim"] - r["p_asym_adj"]) for r in rows)
        print(f"{name}: wrote {path} (max |p_sim - p_asym_adj| = {worst:.4f})")


if __name__ == "__main__":
    main()
