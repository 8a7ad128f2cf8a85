"""Regenerate ``reference_values.json``: the stored references of the
benchmark operations that no closed form or fast exact method covers.

    PYTHONPATH=src python3 bench/make_references.py   # about 2 minutes

* Four-level Bures volumes: ``orbit_volume_simplex`` with the absolute
  tolerance at 1e-300, so that only the relative tolerance (1e-10) can
  stop the nested quadrature, cross-checked at relative tolerance 1e-8.
* Three-level Bures minimum over the moduli angle: golden-section search
  to 1e-8 in zeta on the general-N simplex quadrature at relative
  tolerance 1e-11 -- an evaluation path independent of the polar
  quadrature that ``minimize_indicator`` uses.

The file records how each value was made; the benchmark only reads it.
"""

from __future__ import annotations

import json
import math
import platform
import time
from pathlib import Path

import numpy as np
import scipy

from wignerq import KernelSpectrum, MetricKind, QuadratureSpec, orbit_volume_simplex

from references import direction_kernel, qutrit_kernel

BURES_N4_DIRECTION = (1.0, 0.0, 0.0)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def bures_n4(kernel, rel_tol):
    spec = QuadratureSpec(rel_tol=rel_tol, abs_tol=1e-300)
    k = None if kernel is None else KernelSpectrum(kernel)
    return orbit_volume_simplex(MetricKind.BURES, 4, k, spec).value


def bures_minimum():
    spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-300)
    full = orbit_volume_simplex(MetricKind.BURES, 3, None, spec).value

    def f(z):
        return orbit_volume_simplex(MetricKind.BURES, 3, KernelSpectrum(qutrit_kernel(z)), spec).value / full

    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.45, 0.60
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-8:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    z = (a + b) / 2.0
    return z, f(z)


def main():
    kernel = direction_kernel(4, BURES_N4_DIRECTION)
    values = {}
    for name, kern in (("bures_n4_full", None), ("bures_n4_pos_100", kernel)):
        v, dt = _timed(lambda: bures_n4(kern, 1e-10))
        check = bures_n4(kern, 1e-8)
        values[name] = {
            "value": v,
            "method": "orbit_volume_simplex(bures, n=4, rel_tol=1e-10, abs_tol=1e-300, max_subdivisions=200)",
            "kernel_direction": None if kern is None else list(BURES_N4_DIRECTION),
            "kernel_spectrum": None if kern is None else list(kern),
            "cross_check_rel_tol_1e-8": check,
            "seconds": round(dt, 1),
        }
    (z, q), dt = _timed(bures_minimum)
    method = "golden section to 1e-8 on orbit_volume_simplex(bures, n=3) ratio, rel_tol=1e-11, abs_tol=1e-300"
    values["bures_min_zeta"] = {"value": z, "method": method, "seconds": round(dt, 1)}
    values["bures_min_q"] = {"value": q, "method": method, "seconds": round(dt, 1)}
    doc = {
        "made_with": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "machine": platform.machine(),
        },
        "values": values,
    }
    Path(__file__).with_name("reference_values.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
