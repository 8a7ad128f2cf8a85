"""Volume densities on the orbit space for the three supported metrics.

Each metric induces a measure on the eigenvalue simplex.  Restricted to
the simplex the densities are, up to normalization constants that cancel
in every volume ratio:

* Hilbert-Schmidt:  ``prod_{i<j} (r_i - r_j)^2``  (squared Vandermonde),
* Bures / BKM:      ``prod_i r_i^(-1/2) * prod_{i<j} c(r_i, r_j) (r_i - r_j)^2``,

where ``c`` is the Morozova-Chentsov weight of the metric: ``2/(x+y)``
for Bures and ``ln(x/y)/(x-y)`` for BKM.  Normalization constants are
deliberately never computed -- all consumers take ratios.

One vectorized kernel, ``_density_batch``, evaluates the density for
every quadrature and cubature; ``log_radial_density`` is its log form for
the samplers.

For two-level systems everything reduces to one radial coordinate (the
Bloch radius), and the ball volumes have the closed forms that the
qubit indicator's closed-form path uses.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .errors import DomainError
from .spectra import MetricKind, StateSpectrum, _check_bloch_radius

#: Relative separation below which the BKM weight switches to its series.
_BKM_SERIES_CUTOFF = 1e-9

_POSITIVE_BALL_RADIUS = 1.0 / math.sqrt(3.0)


def _bures_weight(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return 2.0 / (x + y)


def _bkm_weight_batch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """BKM weight ``ln(x/y)/(x-y)`` elementwise for x, y > 0: a series in
    ``(x-y)/x`` with limit ``1/x`` below relative separation 1e-9, ``log1p``
    above it, and a difference of logs where ``x/y`` is below the float
    resolution (``log1p`` would be ``log(0)``)."""
    diff = x - y
    q = diff / y
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log1p(q) / diff
    far = q <= -1.0
    if far.any():
        out[far] = (np.log(x[far]) - np.log(y[far])) / diff[far]
    near = np.abs(diff) < _BKM_SERIES_CUTOFF * x
    if near.any():
        d = diff[near] / x[near]
        out[near] = (1.0 + d / 2.0 + d * d / 3.0) / x[near]
    return out


def _density_batch(metric: MetricKind, pts: np.ndarray) -> np.ndarray:
    """Unnormalized density at each row of an (m, n) array of eigenvalues,
    any order; Bures and BKM raise DomainError unless every value is
    positive.

    The multiplication order (the product, then per pair d*d and the
    weight, pairs in index order) is kept on purpose: every volume
    integrates this function, so reordering it would move their last
    bits.  tests/test_measures.py pins the bits.
    """
    cols = np.asarray(pts, dtype=float).T
    weight = None
    if metric is MetricKind.HS:
        out = np.ones(cols.shape[1])
    else:
        if (cols <= 0.0).any():
            raise DomainError("Bures/BKM density requires strictly positive eigenvalues")
        weight = _bkm_weight_batch if metric is MetricKind.BKM else _bures_weight
        out = cols[0].copy()
        for x in cols[1:]:
            out *= x
        out **= -0.5
    for x, y in combinations(cols, 2):
        d = x - y
        out *= d * d
        if weight is not None:
            out *= weight(x, y)
    return out


def radial_density(metric: MetricKind, r: StateSpectrum) -> float:
    """Unnormalized orbit-space density of the metric at a spectrum.

    Bures and BKM require a strictly interior spectrum (all eigenvalues
    positive); the inverse-square-root boundary singularity is
    integrable but not evaluable.  HS accepts any spectrum.
    """
    return float(_density_batch(metric, np.array([r.values]))[0])


def log_radial_density(metric: MetricKind, points: np.ndarray) -> np.ndarray:
    """Log of the unnormalized density for an (m, n) batch of simplex
    points (any eigenvalue order; the density is permutation symmetric).

    Rows touching the boundary (a non-positive entry) get ``-inf``.
    The numerator of the importance sampler's weights and the target of
    the opt-in Markov chain; kept vectorized for speed.
    """
    pts = np.asarray(points, dtype=float)
    m, n = pts.shape
    out = np.zeros(m)
    interior = pts.min(axis=1) > 0.0
    safe = np.where(pts > 0.0, pts, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if metric is not MetricKind.HS:
            out -= 0.5 * np.log(safe).sum(axis=1)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = safe[:, i], safe[:, j]
                d = np.abs(a - b)
                out += 2.0 * np.log(d)
                if metric is MetricKind.BURES:
                    out += math.log(2.0) - np.log(a + b)
                elif metric is MetricKind.BKM:
                    hi = np.maximum(a, b)
                    lo = np.minimum(a, b)
                    near = d < _BKM_SERIES_CUTOFF * hi
                    s = (hi - lo) / hi
                    series = (1.0 + s / 2.0 + s * s / 3.0) / hi
                    ratio = np.log1p(d / lo) / np.where(near, 1.0, d)
                    out += np.log(np.where(near, series, ratio))
    out = np.where(interior, out, -np.inf)
    return np.where(np.isnan(out), -np.inf, out)


def qubit_ball_volume(metric: MetricKind, radius: float) -> float:
    """Closed-form (unnormalized) volume of the Bloch ball of the given
    radius: the integral over the Bloch radius of the two-level density,
    ``rho^2`` (HS), ``rho^2 / sqrt(1 - rho^2)`` (Bures) or
    ``rho * artanh(rho) / sqrt(1 - rho^2)`` (BKM).  For Bures and BKM
    that is a quarter of ``radial_density`` at ``StateSpectrum.qubit(rho)``.

    HS: ``R^3/3``;  Bures: ``(arcsin R - R*sqrt(1-R^2))/2``;
    BKM: ``arcsin R - sqrt(1-R^2)*artanh R`` (value pi/2 at R=1 by limit).
    """
    R = _check_bloch_radius(radius)
    if metric is MetricKind.HS:
        return R ** 3 / 3.0
    if metric is MetricKind.BURES:
        return (math.asin(R) - R * math.sqrt(1.0 - R * R)) / 2.0
    if R == 1.0:
        return math.pi / 2.0
    return math.asin(R) - math.sqrt(1.0 - R * R) * math.atanh(R)


def positive_ball_radius() -> float:
    """Bloch radius 1/sqrt(3) bounding the Wigner-positive two-level states."""
    return _POSITIVE_BALL_RADIUS
