"""Construction of phase-space kernel spectra.

The admissible kernel spectra of an N-level system form the sphere
``sum = 1``, ``sum of squares = N`` in eigenvalue space: every one is
``1/N + sqrt(N - 1/N) * u`` for a unit vector ``u`` that sums to zero.
``kernel_for`` builds it from the hyperplane coordinates of ``u`` that a
moduli point selects.  Canonical (ascending) sorting picks one
representative per permutation orbit, which is exactly the quotient the
moduli space performs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .spectra import KernelSpectrum, ModuliPoint


@lru_cache(maxsize=None)
def traceless_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the sum-zero hyperplane in R^n (Helmert rows).

    Returns a read-only array of shape (n-1, n), built once per n (every
    kernel reads it); row ``j`` has ``j+1`` equal positive entries
    followed by one balancing negative entry.
    """
    basis = np.zeros((n - 1, n))
    for j in range(1, n):
        basis[j - 1, :j] = 1.0
        basis[j - 1, j] = -j
        basis[j - 1] /= math.sqrt(j * (j + 1))
    basis.flags.writeable = False
    return basis


def kernel_for(m: ModuliPoint) -> KernelSpectrum:
    """Kernel spectrum ``1/n + sqrt(n - 1/n) * (c @ traceless_basis(n))``
    selected by a moduli point, whose checks make ``c`` a unit vector:
    ``c = (-1)`` at n = 2 (the unique kernel, ``(1 -+ sqrt 3)/2``),
    ``(sin zeta, cos zeta)`` at n = 3 and the point's direction above."""
    if m.n == 2:
        coords = (-1.0,)
    elif m.n == 3:
        coords = (math.sin(m.zeta), math.cos(m.zeta))
    else:
        coords = m.direction
    u = np.asarray(coords) @ traceless_basis(m.n)
    return KernelSpectrum((1.0 / m.n + math.sqrt(m.n - 1.0 / m.n) * u).tolist())


def qutrit_kernel_spectrum(zeta: float) -> KernelSpectrum:
    """Three-level kernel spectrum at apex angle ``zeta`` in [0, pi/3]."""
    return kernel_for(ModuliPoint.qutrit(zeta))
