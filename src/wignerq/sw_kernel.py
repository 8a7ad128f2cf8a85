"""Construction of phase-space kernel spectra.

The admissible kernel spectra of an N-level system form the sphere
``sum = 1``, ``sum of squares = N`` in eigenvalue space.  Closed forms
are provided for the unique two-level kernel and the one-parameter
three-level family; any N is covered by the direction parametrization
on that sphere.  Canonical (ascending) sorting picks one representative
per permutation orbit, which is exactly the quotient the moduli space
performs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .spectra import _SQRT3, KernelSpectrum, ModuliPoint, _check_zeta

#: Validation tolerance for direction vectors.
DIRECTION_TOL = 1e-10


def qubit_kernel_spectrum() -> KernelSpectrum:
    """The unique two-level kernel spectrum {(1 - sqrt(3))/2, (1 + sqrt(3))/2}."""
    return KernelSpectrum(((1.0 - _SQRT3) / 2.0, (1.0 + _SQRT3) / 2.0))


def qutrit_kernel_spectrum(zeta: float) -> KernelSpectrum:
    """Three-level kernel spectrum at apex angle ``zeta`` in [0, pi/3]."""
    z = _check_zeta(zeta)
    s = (2.0 / _SQRT3) * math.sin(z)
    c = (2.0 / 3.0) * math.cos(z)
    third = 1.0 / 3.0
    return KernelSpectrum((third + s + c, third - s + c, third - 2.0 * c))


def kernel_spectrum_from_direction(n: int, u) -> KernelSpectrum:
    """Kernel spectrum ``1/n + sqrt(n - 1/n) * u_i`` for a unit direction.

    ``u`` must have ``n`` components that sum to zero (traceless
    hyperplane) and unit Euclidean norm; both constraints are checked to
    ``DIRECTION_TOL``.  The construction satisfies the two trace
    conditions identically.
    """
    if n < 2:
        raise DomainError("kernel spectra exist for n >= 2")
    vec = np.asarray(u, dtype=float)
    if vec.shape != (n,):
        raise DomainError(f"direction must have {n} components, got shape {vec.shape}")
    if abs(vec.sum()) > DIRECTION_TOL:
        raise DomainError(f"direction is not traceless: sum = {vec.sum()!r}")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > DIRECTION_TOL:
        raise DomainError(f"direction is not unit: norm = {norm!r}")
    radius = math.sqrt(n - 1.0 / n)
    return KernelSpectrum(tuple(1.0 / n + radius * vec))


def traceless_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the sum-zero hyperplane in R^n (Helmert rows).

    Returns an array of shape (n-1, n); row ``j`` has ``j+1`` equal
    positive entries followed by one balancing negative entry.
    """
    basis = np.zeros((n - 1, n))
    for j in range(1, n):
        basis[j - 1, :j] = 1.0
        basis[j - 1, j] = -j
        basis[j - 1] /= math.sqrt(j * (j + 1))
    return basis


def embed_direction(n: int, coords) -> np.ndarray:
    """Map (n-1) hyperplane coordinates to the n-component direction."""
    c = np.asarray(coords, dtype=float)
    if c.shape != (n - 1,):
        raise DomainError(f"expected {n - 1} coordinates, got shape {c.shape}")
    return c @ traceless_basis(n)


def kernel_for(m: ModuliPoint) -> KernelSpectrum:
    """Kernel spectrum selected by a moduli point."""
    if m.n == 2:
        return qubit_kernel_spectrum()
    if m.n == 3:
        return qutrit_kernel_spectrum(m.zeta)
    return kernel_spectrum_from_direction(m.n, embed_direction(m.n, m.direction))
