"""Regenerate cx_reference.json: 256 seeded points in the tube around the
connecting arc with w, grad and hess of the assembled potential there.

The stored table is the reference the cx-probe workload compares against.
It was generated from the code at commit b395714; regenerate it only when the
construction of the potential is meant to change.  Run from the repository
root:

    PYTHONPATH=src python3 perfbench/make_cx_reference.py
"""

import json

import numpy as np

from modicalab import counterexample
from workloads import CX_REFERENCE, arc_geometry, tube_points

REFERENCE_SEED = 1401_4847
N_POINTS = 256


def main() -> None:
    pc = counterexample.assemble()
    arc, normal = arc_geometry(pc)
    pts = tube_points(np.random.default_rng(REFERENCE_SEED), arc, normal, pc.eps_tube, N_POINTS)
    p = pc.potential
    table = {
        "seed": REFERENCE_SEED,
        "points": pts.tolist(),
        "w": p.w(pts).tolist(),
        "grad": p.grad(pts).tolist(),
        "hess": p.hess(pts).tolist(),
    }
    CX_REFERENCE.write_text(json.dumps(table) + "\n")


if __name__ == "__main__":
    main()
