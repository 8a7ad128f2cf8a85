"""Top-level classicality indicators.

The global indicator of an N-level system is the ratio of the measure
of the Wigner-positive part of the orbit space to the measure of the
whole orbit space, under one of the three supported metrics.  It is a
function of the chosen Wigner representation; averaging it uniformly
over the moduli of representations, or minimizing over them, gives
representation-independent figures (``closed_form.average_indicator``
and ``closed_form.minimize_indicator``).

Three evaluation paths exist and cross-check each other: closed forms
(two-level systems and the flat three-level case, in ``closed_form``),
deterministic quadrature (the simplex volumes of
``integrate.quadrature.orbit_volume_simplex``, 2 <= N <= 6), and Monte
Carlo by importance sampling in ``integrate.sampling``, which is loaded
only when a Monte Carlo indicator runs, never by quadrature.
"""

from __future__ import annotations

import importlib

from .closed_form import IndicatorResult, McSpec, QuadratureSpec, _default_moduli
from .integrate.quadrature import orbit_volume_simplex, simplex_full_volume
from .spectra import MetricKind, ModuliPoint
from .sw_kernel import kernel_for


def _quadrature_indicator(metric, n, moduli, spec: QuadratureSpec) -> IndicatorResult:
    value = orbit_volume_simplex(metric, n, kernel_for(moduli), spec).value / simplex_full_volume(metric, n, spec)
    return IndicatorResult(
        value,
        2.0 * spec.rel_tol * value,
        metric,
        n,
        moduli,
        "quadrature",
        meta={"rel_tol": spec.rel_tol},
    )


def _mc_indicator(metric, n, moduli, spec: McSpec) -> IndicatorResult:
    from .integrate.sampling import positive_fraction

    p, se, meta, warnings = positive_fraction(metric, n, kernel_for(moduli), spec)
    return IndicatorResult(p, se, metric, n, moduli, "monte-carlo", warnings=warnings, meta=meta)


def global_indicator(
    metric: MetricKind,
    n: int,
    moduli: ModuliPoint | None = None,
    spec: QuadratureSpec | McSpec | None = None,
) -> IndicatorResult:
    """Relative volume of the Wigner-positive orbit-space region.

    The type of ``spec`` selects the path: a ``QuadratureSpec`` (or
    ``None``) runs deterministic quadrature, the simplex volumes of
    ``integrate.quadrature.orbit_volume_simplex`` for 2 <= n <= 6
    (DomainError beyond; ConvergenceError marks a cubature that does not
    settle: at the default spec the full volume does for Bures up to
    n = 6 and BKM up to n = 5, and so do the n = 6 positive parts at
    direction e_1, but the BKM n = 6 full volume does not); an
    ``McSpec`` estimates the positive-cone fraction from importance-sampled
    spectra by ``integrate.sampling.positive_fraction``, which is loaded
    only on this path.  It draws and counts its spectra in batches, so its memory stays
    bounded.  Samples count as positive to ``positivity.DEFAULT_CONE_TOL``.
    """
    moduli = _default_moduli(n, moduli)
    if isinstance(spec, McSpec):
        return _mc_indicator(metric, n, moduli, spec)
    return _quadrature_indicator(metric, n, moduli, spec or QuadratureSpec())


#: Bench-only, to be deleted with ROADMAP item 1: each name that
#: bench/spans.py wraps on this module and no package code calls, with the
#: engine module (under ``integrate``) that defines it.  ``__getattr__``
#: forwards them.
_BENCH_NAMES = {
    **dict.fromkeys(("orbit_volume_qubit", "orbit_volume_qutrit", "qutrit_full_volume",
                     "gauss_legendre_doubling"), "quadrature"),
    **dict.fromkeys(("sample_hs_spectra", "sample_bures_spectra", "sample_mcmc_spectra",
                     "positive_fraction_iid", "positive_fraction_mcmc"), "sampling"),
}


def __getattr__(name):
    engine = _BENCH_NAMES.get(name)
    if engine is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".integrate.{engine}", __package__), name)
