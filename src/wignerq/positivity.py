"""Wigner-positivity tests on the orbit space.

A state has an everywhere non-negative Wigner function exactly when the
minimal pairing of its spectrum with the kernel spectrum is
non-negative.  The minimum of ``tr(rho U Delta U^t)`` over unitaries
pairs the eigenvalues counter-monotonically: largest state eigenvalue
against smallest kernel eigenvalue, index by index (the rearrangement
minimum).  This module implements that test, one spectrum at a time
and for a batch of spectra.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .spectra import KernelSpectrum, StateSpectrum

#: Classification tolerance of the positive-cone test that every Monte
#: Carlo fraction uses.
DEFAULT_CONE_TOL = 1e-12


def min_pairing_batch(spectra: np.ndarray, k: KernelSpectrum) -> np.ndarray:
    """Minimal pairing of each row of an (m, n) array of descending
    spectra with the ascending kernel spectrum: ``sum_i r_i k_i``, summed
    column by column in index order, so no BLAS thread count moves a bit."""
    arr = np.asarray(spectra, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != k.n:
        raise DomainError(f"expected an (m, {k.n}) array, got shape {arr.shape}")
    out = arr[:, 0] * k.values[0]
    for j in range(1, k.n):
        out += arr[:, j] * k.values[j]
    return out


def min_wigner_value(r: StateSpectrum, k: KernelSpectrum) -> float:
    """Minimum over the unitary orbit of the state/kernel pairing: the
    dot product of the descending state spectrum with the ascending
    kernel spectrum, which by rearrangement is the smallest value the
    Wigner function attains on phase space (``min_pairing_batch`` of one
    row)."""
    return float(min_pairing_batch(np.array([r.values]), k)[0])
