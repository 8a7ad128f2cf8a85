"""Seeded inputs of each workload.

The workload seed is the only source of randomness: it fixes the moduli
angles, the kernel directions and the Monte Carlo seeds handed to the
package.  This module needs only numpy, so that generating the inputs
adds nothing to the measured set-up beyond ``import wignerq``.
"""

from __future__ import annotations

import math

import numpy as np

ZETA_MAX = math.pi / 3.0

#: Number of seeded kernel directions in the ``general-n`` workload.
GENERAL_N_DIRECTIONS = 16


def _zeta(rng: np.random.Generator) -> float:
    return float(rng.uniform(0.0, ZETA_MAX))


def _mc_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _unit(rng: np.random.Generator, dim: int) -> list[float]:
    u = rng.standard_normal(dim)
    return [float(c) for c in u / np.linalg.norm(u)]


def make(workload: str, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    if workload == "cli":
        return {
            "zeta_hs": _zeta(rng),
            "zeta_bures": _zeta(rng),
            "zeta_bkm": _zeta(rng),
            "sample_seed": _mc_seed(rng),
        }
    if workload == "quadrature":
        return {"zeta": {m: _zeta(rng) for m in ("hs", "bures", "bkm")}}
    if workload == "montecarlo":
        return {
            "zeta": {m: _zeta(rng) for m in ("hs", "bures")},
            "mc_seed": {op: _mc_seed(rng) for op in ("hs.n2", "hs.n3", "bures.n2", "bures.n3", "bkm.n2", "bkm.n3", "hs.n4")},
        }
    if workload == "general-n":
        return {"directions": [_unit(rng, 3) for _ in range(GENERAL_N_DIRECTIONS)]}
    raise ValueError(f"unknown workload {workload!r}")
