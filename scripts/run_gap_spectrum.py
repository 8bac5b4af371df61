#!/usr/bin/env python3
"""Gap eigenvalues on the unit circle as a function of the electrostatic strength.

For each eps on a grid, finds the discrete eigenvalues in (-m, m) and writes
one CSV row per eigenvalue.  Useful for visualizing how bound states emerge
from the upper gap edge and migrate as the coupling strengthens.
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from diracshell import geometry as geo  # noqa: E402
from diracshell import spectral as sp  # noqa: E402
from diracshell.kernels import Coupling  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="gap_spectrum.csv")
    ap.add_argument("--nodes", type=int, default=192)
    ap.add_argument("--samples", type=int, default=48)
    ap.add_argument("--eps-min", type=float, default=0.25)
    ap.add_argument("--eps-max", type=float, default=3.0)
    ap.add_argument("--eps-steps", type=int, default=12)
    ap.add_argument("--mu", type=float, default=0.0)
    args = ap.parse_args()

    curve = geo.build_curve(geo.circle(1.0))
    grid = geo.discretize(curve, args.nodes)
    rows = []
    for eps in np.linspace(args.eps_min, args.eps_max, args.eps_steps):
        coupling = Coupling(float(eps), args.mu, 1.0)
        if coupling.is_critical:
            continue
        sweep = sp.gap_sweep(grid, coupling, samples=args.samples)
        pairs = sp.find_eigenvalues(grid, sweep)
        for p in pairs:
            rows.append((eps, args.mu, p.z0, p.residual, p.cluster))
        print(f"eps = {eps:.3f}: {len(pairs)} eigenvalue(s) "
              f"{[round(p.z0, 6) for p in pairs]}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("eps,mu,z0,residual,cluster\n")
        for r in rows:
            fh.write("%.17g,%.17g,%.17g,%.17g,%d\n" % r)
    print(f"wrote {args.out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
