#!/usr/bin/env python3
"""Boost-covariance error under grid refinement.

Evolve-then-boost against boost-then-evolve for a free Gaussian packet,
sweeping the grid resolution.  Writes a CSV of relative L2 discrepancies.

    python scripts/boost_refinement.py [out.csv]
"""
import sys

from cqm.experiments import _write_csv
from cqm.qgrid import GridSpec, HamiltonianSpec, boost_covariance_check, gaussian_packet


def main() -> int:
    out = sys.argv[1] if len(sys.argv) > 1 else "boost_refinement.csv"
    H = HamiltonianSpec((1.0,))
    ns = (256, 512, 1024, 2048, 4096)
    errs = []
    for n in ns:
        spec = GridSpec(((-20.0, 20.0, n),))
        errs.append(boost_covariance_check(gaussian_packet(spec, 0.0, 1.0), 1.0, 1.0, H))
        print(f"{n},{errs[-1]!r}")
    _write_csv(out, ["n_points", "rel_l2_error"], ns, errs)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
