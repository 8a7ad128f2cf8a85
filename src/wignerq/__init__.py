"""Wigner-positivity volume indicators of finite-dimensional quantum states.

Computes how large a fraction of an N-level system's unitary orbit
space carries an everywhere non-negative Wigner function, for a family
of Wigner representations and under the Hilbert-Schmidt, Bures, or
Bogoliubov-Kubo-Mori volume measure, by closed forms, deterministic
quadrature, and Monte Carlo sampling.

Public names are imported on first use (PEP 562), so ``import wignerq``
loads no numerical engine and the closed forms run without numpy.
"""

import importlib

__version__ = "0.1.0"

#: The submodule that defines each public name.
_SOURCES = {
    "errors": ("ConvergenceError", "DomainError"),
    "closed_form": (
        "AVERAGED", "IndicatorResult", "McSpec", "QuadratureSpec", "average_indicator", "closed_indicator",
        "minimize_indicator", "positivity_curve", "qubit_ball_volume", "qubit_positivity_probability",
        "qutrit_indicator_closed_form",
    ),
    "indicators": ("global_indicator",),
    "integrate.quadrature": ("VolumeEstimate", "orbit_volume_qutrit", "orbit_volume_simplex"),
    "measures": ("radial_density",),
    "positivity": ("min_wigner_value",),
    "spectra": ("KernelSpectrum", "MetricKind", "ModuliPoint", "StateSpectrum"),
    "sw_kernel": ("kernel_for", "qutrit_kernel_spectrum"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
