"""Wigner-positivity volume indicators of finite-dimensional quantum states.

Computes how large a fraction of an N-level system's unitary orbit
space carries an everywhere non-negative Wigner function, for a family
of Wigner representations and under the Hilbert-Schmidt, Bures, or
Bogoliubov-Kubo-Mori volume measure, by closed forms, deterministic
quadrature, and Monte Carlo sampling.
"""

from .errors import ConvergenceError, DomainError
from .indicators import (
    AVERAGED,
    IndicatorResult,
    average_indicator,
    closed_indicator,
    global_indicator,
    minimize_indicator,
    positivity_curve,
    qubit_positivity_probability,
    qutrit_indicator_closed_form,
)
from .integrate import (
    McSpec,
    McmcResult,
    QuadratureSpec,
    VolumeEstimate,
    orbit_volume_qubit,
    orbit_volume_qutrit,
    orbit_volume_simplex,
    sample_bures_spectra,
    sample_hs_spectra,
    sample_mcmc_spectra,
    sample_weighted_spectra,
)
from .measures import (
    positive_ball_radius,
    qubit_ball_volume,
    radial_density,
)
from .positivity import (
    BlochVector,
    min_wigner_value,
    qubit_wigner,
    qutrit_orbit_bound,
    qutrit_positivity_bound,
)
from .spectra import (
    KernelSpectrum,
    MetricKind,
    ModuliPoint,
    QutritPolar,
    StateSpectrum,
    polar_from_spectrum,
    spectrum_from_polar,
)
from .sw_kernel import (
    kernel_for,
    kernel_spectrum_from_direction,
    qubit_kernel_spectrum,
    qutrit_kernel_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AVERAGED",
    "BlochVector",
    "ConvergenceError",
    "DomainError",
    "IndicatorResult",
    "KernelSpectrum",
    "McSpec",
    "McmcResult",
    "MetricKind",
    "ModuliPoint",
    "QuadratureSpec",
    "QutritPolar",
    "StateSpectrum",
    "VolumeEstimate",
    "average_indicator",
    "closed_indicator",
    "global_indicator",
    "kernel_for",
    "kernel_spectrum_from_direction",
    "min_wigner_value",
    "minimize_indicator",
    "orbit_volume_qubit",
    "orbit_volume_qutrit",
    "orbit_volume_simplex",
    "polar_from_spectrum",
    "positive_ball_radius",
    "positivity_curve",
    "qubit_ball_volume",
    "qubit_kernel_spectrum",
    "qubit_positivity_probability",
    "qubit_wigner",
    "qutrit_indicator_closed_form",
    "qutrit_kernel_spectrum",
    "qutrit_orbit_bound",
    "qutrit_positivity_bound",
    "radial_density",
    "sample_bures_spectra",
    "sample_hs_spectra",
    "sample_mcmc_spectra",
    "sample_weighted_spectra",
    "spectrum_from_polar",
]
