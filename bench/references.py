"""References and tolerances that every benchmark operation is checked against.

Each check returns a ``Check``:

* ``ok`` -- the output is within the stated tolerance of its reference.
  The tolerances are those of the acceptance suite (``tests/test_acceptance.py``)
  or tighter.  An operation that is not ``ok`` counts as failed.
* ``consistent`` -- the output is at least within the accuracy its own
  method claims: 100 times the stated tolerance or the absolute quadrature
  tolerance it was run with; for Monte Carlo, 6 standard errors, or a hit
  count that is plausible for the reference (rare events, where the
  standard error itself is unreliable).  An inconsistent output means the
  program is broken beyond its documented defects, and the run is not
  ``correct``.

References are independent of the code path being timed: closed forms
written here, the exact polytope integral in ``polytope.py``, the general-N
nested quadrature ``orbit_volume_simplex`` at tight tolerance for the
three-level Bures/BKM values, and stored values (``reference_values.json``,
regenerated by ``make_references.py``).  All are computed after the timed
region.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

import polytope

SQRT3 = math.sqrt(3.0)

#: Tight tolerances of the independent three-level reference path.
REF_REL_TOL = 1e-10
REF_ABS_TOL = 1e-300

#: Poisson tail probability above which a hit count counts as plausible.
PLAUSIBLE = 1e-6

#: Published moduli averages (README) with the acceptance suite's tolerances.
AVERAGES = {"hs": (0.00136368, 1e-4), "bures": (0.00019165, 1e-2), "bkm": (0.00002762, 1e-2)}


class Check(NamedTuple):
    ok: bool
    consistent: bool
    detail: str


def combine(*checks: Check) -> Check:
    return Check(
        all(c.ok for c in checks),
        all(c.consistent for c in checks),
        "; ".join(c.detail for c in checks),
    )


def value(v: float, ref: float, rel: float = 0.0, abs_tol: float = 0.0, abs_floor: float = 0.0) -> Check:
    """Deterministic value against its reference within max(rel*|ref|, abs_tol)."""
    dev = abs(float(v) - ref)
    tol = max(rel * abs(ref), abs_tol)
    return Check(
        dev <= tol,
        dev <= max(100.0 * tol, abs_floor),
        f"{float(v)!r} vs {ref!r} (dev {dev:.3e}, tol {tol:.3e})",
    )


def _count_plausible(hits: int, expected: float) -> bool:
    """Whether a Poisson(expected) count as far out as ``hits`` has
    probability of at least PLAUSIBLE."""
    from scipy.stats import poisson

    tail = poisson.cdf(hits, expected) if hits <= expected else poisson.sf(hits - 1, expected)
    return bool(tail >= PLAUSIBLE)


def monte_carlo(p: float, se: float, samples: int, ref: float) -> Check:
    """Monte Carlo estimate within 3 standard errors of its reference.

    An estimate of ``0 +- 0`` against a non-zero reference fails.
    """
    dev = abs(p - ref)
    ok = se > 0.0 and dev <= 3.0 * se
    consistent = (se > 0.0 and dev <= 6.0 * se) or _count_plausible(round(p * samples), samples * ref)
    z = dev / se if se > 0.0 else math.inf
    return Check(ok, consistent, f"{p!r} +- {se!r} vs {ref!r} ({z:.2f} se, {samples} samples)")


def failed_to_run(detail: str) -> Check:
    return Check(False, False, detail)


# --- closed forms -------------------------------------------------------------

def qubit_ball_volume(metric: str, radius: float) -> float:
    R = radius
    if metric == "hs":
        return R ** 3 / 3.0
    if metric == "bures":
        return (math.asin(R) - R * math.sqrt(1.0 - R * R)) / 2.0
    if R == 1.0:
        return math.pi / 2.0
    return math.asin(R) - math.sqrt(1.0 - R * R) * math.atanh(R)


def qubit_indicator(metric: str) -> float:
    """Two-level indicators: 1/(3 sqrt 3), (2/pi)[asin(1/sqrt3) - sqrt2/3],
    (2/pi)[asin(1/sqrt3) - sqrt(2/3) artanh(1/sqrt3)]."""
    a = math.asin(1.0 / SQRT3)
    return {
        "hs": 1.0 / (3.0 * SQRT3),
        "bures": (2.0 / math.pi) * (a - math.sqrt(2.0) / 3.0),
        "bkm": (2.0 / math.pi) * (a - math.sqrt(2.0 / 3.0) * math.atanh(1.0 / SQRT3)),
    }[metric]


def qubit_positivity_probability(metric: str, radius: float) -> float:
    rp = 1.0 / SQRT3
    if radius <= rp:
        return 1.0
    return qubit_ball_volume(metric, rp) / qubit_ball_volume(metric, radius)


def qutrit_hs_indicator(zeta: float) -> float:
    """(1/128)(1 + 20 c^2)/(4 c^2 - 1)^5 with c = cos(zeta - pi/6)."""
    c2 = math.cos(zeta - math.pi / 6.0) ** 2
    return (1.0 + 20.0 * c2) / (128.0 * (4.0 * c2 - 1.0) ** 5)


QUTRIT_HS_MIN = (math.pi / 6.0, 21.0 / 31104.0)


# --- kernel spectra -------------------------------------------------------------

def qutrit_kernel(zeta: float) -> tuple[float, ...]:
    s = (2.0 / SQRT3) * math.sin(zeta)
    c = (2.0 / 3.0) * math.cos(zeta)
    return tuple(sorted((1.0 / 3.0 + s + c, 1.0 / 3.0 - s + c, 1.0 / 3.0 - 2.0 * c)))


def direction_kernel(n: int, coords) -> tuple[float, ...]:
    """Kernel spectrum 1/n + sqrt(n - 1/n) * u, with u the unit direction given
    by ``n - 1`` coordinates in the Helmert basis of the traceless hyperplane."""
    basis = np.zeros((n - 1, n))
    for j in range(1, n):
        basis[j - 1, :j] = 1.0
        basis[j - 1, j] = -j
        basis[j - 1] /= math.sqrt(j * (j + 1))
    vec = np.asarray(coords, dtype=float) @ basis
    return tuple(sorted(1.0 / n + math.sqrt(n - 1.0 / n) * vec))


# --- computed references ----------------------------------------------------------

@lru_cache(maxsize=None)
def simplex_ratio_n3(metric: str, zeta: float) -> float:
    """Three-level indicator by the general-N nested quadrature at tight
    tolerance: an evaluation path independent of the polar quadrature."""
    from wignerq import KernelSpectrum, MetricKind, QuadratureSpec, orbit_volume_simplex

    m = MetricKind(metric)
    spec = QuadratureSpec(rel_tol=REF_REL_TOL, abs_tol=REF_ABS_TOL)
    num = orbit_volume_simplex(m, 3, KernelSpectrum(qutrit_kernel(zeta)), spec).value
    return num / orbit_volume_simplex(m, 3, None, spec).value


def qutrit_indicator(metric: str, zeta: float) -> float:
    return qutrit_hs_indicator(zeta) if metric == "hs" else simplex_ratio_n3(metric, zeta)


@lru_cache(maxsize=None)
def hs_volume(n: int, kernel: tuple[float, ...] | None = None) -> float:
    return polytope.hs_volume(n, kernel)


def hs_indicator(n: int, kernel: tuple[float, ...]) -> float:
    return hs_volume(n, kernel) / hs_volume(n)


@lru_cache(maxsize=None)
def _stored_values() -> dict:
    return json.loads(Path(__file__).with_name("reference_values.json").read_text())["values"]


def stored(name: str) -> float:
    """A reference stored with its provenance in ``reference_values.json``."""
    return _stored_values()[name]["value"]
