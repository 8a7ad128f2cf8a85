"""Numerical engines: quadrature and cubature over the orbit space, and Monte Carlo sampling."""

from .quadrature import (
    DEFAULT_2D,
    QuadratureSpec,
    VolumeEstimate,
    gauss_legendre_doubling,
    orbit_volume_qubit,
    orbit_volume_qutrit,
    orbit_volume_simplex,
    qutrit_full_volume,
)
from .sampling import (
    McSpec,
    McmcResult,
    positive_fraction_iid,
    positive_fraction_mcmc,
    positive_fraction_weighted,
    sample_bures_spectra,
    sample_hs_spectra,
    sample_mcmc_spectra,
    sample_weighted_spectra,
)

__all__ = [
    "DEFAULT_2D",
    "QuadratureSpec",
    "VolumeEstimate",
    "McSpec",
    "McmcResult",
    "gauss_legendre_doubling",
    "orbit_volume_qubit",
    "orbit_volume_qutrit",
    "orbit_volume_simplex",
    "qutrit_full_volume",
    "positive_fraction_iid",
    "positive_fraction_mcmc",
    "positive_fraction_weighted",
    "sample_bures_spectra",
    "sample_hs_spectra",
    "sample_mcmc_spectra",
    "sample_weighted_spectra",
]
