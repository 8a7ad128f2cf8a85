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
every quadrature and cubature; ``_log_weight`` sums the logs of its
factors, for ``log_radial_density`` and the importance sampler's weights.
The closed-form two-level ball volumes are in ``closed_form``.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import DomainError
from .spectra import MetricKind, StateSpectrum

#: Relative separation below which the BKM weight switches to its series.
_BKM_SERIES_CUTOFF = 1e-9


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


def _pair_factors(metric: MetricKind, cols):
    """The per-pair factors of the density at columns of eigenvalues,
    pairs in index order: ``d*d``, then for Bures and BKM the
    Morozova-Chentsov weight."""
    weight = None if metric is MetricKind.HS else _bkm_weight_batch if metric is MetricKind.BKM else _bures_weight
    for x, y in combinations(cols, 2):
        d = x - y
        yield d * d
        if weight is not None:
            yield weight(x, y)


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
    if metric is MetricKind.HS:
        out = np.ones(cols.shape[1])
    else:
        if (cols <= 0.0).any():
            raise DomainError("Bures/BKM density requires strictly positive eigenvalues")
        out = cols[0].copy()
        for x in cols[1:]:
            out *= x
        out **= -0.5
    for f in _pair_factors(metric, cols):
        out *= f
    return out


def radial_density(metric: MetricKind, r: StateSpectrum) -> float:
    """Unnormalized orbit-space density of the metric at a spectrum.

    Bures and BKM require a strictly interior spectrum (all eigenvalues
    positive); the inverse-square-root boundary singularity is
    integrable but not evaluable.  HS accepts any spectrum.
    """
    return float(_density_batch(metric, np.array([r.values]))[0])


def _log_weight(metric: MetricKind, cols, power: float, boundary: np.ndarray) -> np.ndarray:
    """Log of the pair product times ``prod r_i^power`` at columns of
    eigenvalues, one log per factor and column (a row product underflows
    at large n); ``-inf`` on ``boundary`` rows and rows summing to NaN."""
    out = np.zeros(len(boundary))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for f in _pair_factors(metric, cols):
            out += np.log(f)
        if power:
            out += power * sum(map(np.log, cols))
    out[boundary | np.isnan(out)] = -np.inf
    return out


def log_radial_density(metric: MetricKind, points: np.ndarray) -> np.ndarray:
    """Log of the unnormalized density for an (m, n) batch of simplex
    points (any eigenvalue order; the density is permutation symmetric).

    Rows touching the boundary (a non-positive entry) get ``-inf``.  It
    sums the logs of the factors that ``_density_batch`` multiplies.
    Bench-only: the target of the Markov chain that only ``bench/`` runs;
    the importance sampler shares its pair sum, ``_log_weight``, not this
    function.
    """
    cols = np.asarray(points, dtype=float).T
    boundary = cols[0] <= 0.0
    for x in cols[1:]:
        boundary |= x <= 0.0
    return _log_weight(metric, cols, 0.0 if metric is MetricKind.HS else -0.5, boundary)
