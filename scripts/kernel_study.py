#!/usr/bin/env python3
"""Convergence study of the sliced free propagator.

Sweeps slice counts (odd and even, so both starts of the two-slice chain run)
and grid resolutions against the closed-form kernel and writes a CSV of
central-half-box errors plus modulus-uniformity figures.  Each printed row
ends with the kernel's build time in seconds, which the CSV leaves out.

    python scripts/kernel_study.py [out.csv]
"""
import sys
import time

import numpy as np

from cqm.bundle import ModelParams
from cqm.cocycle import LagrangianModel
from cqm.experiments import _write_csv
from cqm.pathint import SliceScheme, free_kernel_exact, sliced_propagator
from cqm.qgrid import GridSpec, _l2


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "kernel_study.csv"
    free1 = LagrangianModel(ModelParams(1, 1, np.array([1.0])))
    rows = []
    for n in (256, 512, 1024):
        grid = GridSpec(((-15.0, 15.0, n),))
        x = grid.coords(0)
        cen = np.abs(x) <= 7.5
        exact = free_kernel_exact(grid, 1.0, 1.0, 1.0)
        ec = exact[np.ix_(cen, cen)]
        for M in (1, 2, 3, 4, 8, 16):
            start = time.perf_counter()
            K = sliced_propagator(free1, SliceScheme(M, grid, 0.0, 1.0))
            build_s = time.perf_counter() - start
            kc = K.matrix[np.ix_(cen, cen)]
            rel = _l2(kc - ec) / _l2(ec)  # the suite's kernel-vs-analytic form
            mod = np.abs(kc)
            rows.append((n, M, float(rel), float(mod.std() / mod.mean())))
            print(",".join(map(repr, rows[-1])), f" build {build_s:.3f} s")
    _write_csv(out, ["n_points", "n_slices", "rel_l2_central",
                     "modulus_std_over_mean"], *zip(*rows))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
