"""Wigner-positivity tests on the orbit space.

A state has an everywhere non-negative Wigner function exactly when the
minimal pairing of its spectrum with the kernel spectrum is
non-negative.  The minimum of ``tr(rho U Delta U^t)`` over unitaries
pairs the eigenvalues counter-monotonically: largest state eigenvalue
against smallest kernel eigenvalue, index by index (the rearrangement
minimum).  This module implements that test, the explicit two-level
Wigner function on the sphere, and the closed-form radial bounds of the
three-level orbit space and its positive part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectra import _SQRT3, ALGEBRAIC_TOL, KernelSpectrum, StateSpectrum, _check_zeta

#: Classification tolerance of the positive-cone test that every Monte
#: Carlo fraction uses.
DEFAULT_CONE_TOL = 1e-12


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector parametrizing a two-level state; mixed states fill
    the unit ball."""

    xi: tuple[float, float, float]

    def __post_init__(self):
        v = tuple(float(c) for c in self.xi)
        object.__setattr__(self, "xi", v)
        if len(v) != 3:
            raise DomainError("a Bloch vector has three components")
        if self.norm_sq > 1.0 + ALGEBRAIC_TOL:
            raise DomainError(f"Bloch vector lies outside the unit ball: {v}")

    @property
    def norm_sq(self) -> float:
        return math.fsum(c * c for c in self.xi)

    def spectrum(self) -> StateSpectrum:
        """Eigenvalues ((1 + |xi|)/2, (1 - |xi|)/2) of the state; a norm
        above 1 by roundoff, which the ball check admits, is taken as 1."""
        return StateSpectrum.qubit(min(1.0, math.sqrt(self.norm_sq)))


def min_wigner_value(r: StateSpectrum, k: KernelSpectrum) -> float:
    """Minimum over the unitary orbit of the state/kernel pairing.

    Equals the dot product of the descending state spectrum with the
    ascending kernel spectrum (matching indices), which by rearrangement
    is the smallest value the Wigner function attains on phase space.
    """
    if r.n != k.n:
        raise DomainError(f"dimension mismatch: state has {r.n} levels, kernel {k.n}")
    return float(np.dot(r.values, k.values))


def min_pairing_batch(spectra: np.ndarray, k: KernelSpectrum) -> np.ndarray:
    """Vectorized ``min_wigner_value`` for an (m, n) array of descending
    spectra."""
    arr = np.asarray(spectra, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != k.n:
        raise DomainError(f"expected an (m, {k.n}) array, got shape {arr.shape}")
    return arr @ np.asarray(k.values)


def qutrit_orbit_bound(phi: float) -> float:
    """Radial extent of the three-level orbit space along direction phi:
    ``1/(2*sqrt(3)*cos(phi/3))``."""
    p = float(phi)
    if not -ALGEBRAIC_TOL <= p <= math.pi + ALGEBRAIC_TOL:
        raise DomainError(f"phi {p!r} outside [0, pi]")
    return 1.0 / (2.0 * _SQRT3 * math.cos(p / 3.0))


def qutrit_positivity_bound(phi: float, zeta: float) -> float:
    """Radial extent of the Wigner-positive region along direction phi
    for the kernel at apex angle zeta:
    ``1/(4*sqrt(3)*cos(phi/3 + zeta - pi/3))``, clipped at the orbit
    bound (which also covers rays where the cosine is not positive).
    """
    r_orbit = qutrit_orbit_bound(phi)
    cp = math.cos(float(phi) / 3.0 + _check_zeta(zeta) - math.pi / 3.0)
    if cp <= 0.0:
        return r_orbit
    return min(1.0 / (4.0 * _SQRT3 * cp), r_orbit)


def qubit_wigner(xi: BlochVector, n_vec) -> float:
    """Two-level Wigner function ``1/2 + (sqrt(3)/2) * (xi . n)`` at the
    phase-space point given by a unit 3-vector ``n_vec``."""
    nv = np.asarray(n_vec, dtype=float)
    if nv.shape != (3,):
        raise DomainError("phase-space points of a two-level system are 3-vectors")
    if abs(np.linalg.norm(nv) - 1.0) > ALGEBRAIC_TOL:
        raise DomainError(f"phase-space point is not a unit vector: {nv}")
    return 0.5 + (_SQRT3 / 2.0) * float(np.dot(xi.xi, nv))
