"""The sector rule of the three-level moduli average as it was first
written, one density call per block with its points and weights built on
every call: the oracle that the cached grid of ``_sector_grid`` and its
chunked density pass give the same bits."""

import math

import numpy as np

from wignerq.integrate.quadrature import _gauss_legendre, _qutrit_pairing_plane, _zeta_positive_fraction
from wignerq.measures import _density_batch
from wignerq.spectra import _ZETA_MAX


def sector_rule_sum_reference(metric, order):
    """The integral of density times ``_zeta_positive_fraction`` over the
    ordered triangle by a tensor Gauss-Legendre rule of the given order
    per axis, in polar coordinates (rho, phi) of (A, B): six blocks, two
    phi halves times three radial pieces, each block's weights times
    densities summed on their own."""
    plane = _qutrit_pairing_plane()
    to_spectrum = np.linalg.inv(plane).T
    jacobian = 1.0 / abs(np.linalg.det(plane))
    s, w = _gauss_legendre(order)
    half = _ZETA_MAX / 2.0
    total = []
    for start, near, far in ((0.0, 0.0, _ZETA_MAX), (half, _ZETA_MAX, 0.0)):
        phi = (start + half * s)[:, None]
        t_near, t_far = (np.sin(np.abs(phi - c) / 2.0) * np.sqrt(2.0 / (3.0 * np.cos(phi - c))) for c in (near, far))
        radial = [(np.tile(s / 3.0, (order, 1)), np.tile(w / 3.0, (order, 1)))]
        for lo, hi in ((0.0, t_near), (t_near, t_far)):
            t = lo + (hi - lo) * s
            radial.append((1.0 / 3.0 + t * t, 2.0 * t * (hi - lo) * w))
        for rho, w_rho in radial:
            points = np.stack([rho * np.cos(phi), rho * np.sin(phi), np.ones_like(rho)], axis=-1)
            weight = jacobian * half * w[:, None] * w_rho * rho * _zeta_positive_fraction(rho, phi)
            total.append(float((weight.ravel() * _density_batch(metric, points.reshape(-1, 3) @ to_spectrum)).sum()))
    return math.fsum(total)
