"""Top-level classicality indicators.

The global indicator of an N-level system is the ratio of the measure
of the Wigner-positive part of the orbit space to the measure of the
whole orbit space, under one of the three supported metrics.  It is a
function of the chosen Wigner representation; averaging it uniformly
over the moduli of representations, or minimizing over them, gives
representation-independent figures.

Three evaluation paths exist and cross-check each other: closed forms
(two-level systems and the flat three-level case, in ``closed_form``
with the moduli minimization), deterministic quadrature (the simplex
volumes of ``integrate.quadrature.orbit_volume_simplex``, 2 <= N <= 6),
and Monte Carlo, whose sampler choice ``integrate.sampling`` owns; it is
loaded only when a Monte Carlo indicator runs, never by quadrature.
"""

from __future__ import annotations

from .closed_form import (
    AVERAGED,
    IndicatorResult,
    McSpec,
    QuadratureSpec,
    _default_moduli,
    _moduli_route,
    qutrit_indicator_closed_form,
)
from .errors import DomainError
from .integrate.quadrature import (
    _moduli_average_integral,
    gauss_legendre_doubling,
    orbit_volume_simplex,
    simplex_full_volume,
)
# bench/spans.py wraps these attributes in a traced pass; no package code calls them here (ROADMAP item 1)
from .integrate.quadrature import orbit_volume_qubit, orbit_volume_qutrit, qutrit_full_volume  # noqa: F401
from .spectra import _ZETA_MAX, MetricKind, ModuliPoint
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


def _mc_indicator(metric, n, moduli, spec: McSpec, sampler) -> IndicatorResult:
    from .integrate.sampling import positive_fraction

    p, se, meta, warnings = positive_fraction(metric, n, kernel_for(moduli), spec, sampler)
    return IndicatorResult(p, se, metric, n, moduli, "monte-carlo", warnings=warnings, meta=meta)


def global_indicator(
    metric: MetricKind,
    n: int,
    moduli: ModuliPoint | None = None,
    spec: QuadratureSpec | McSpec | None = None,
    sampler: str | None = None,
) -> IndicatorResult:
    """Relative volume of the Wigner-positive orbit-space region.

    The type of ``spec`` selects the path: a ``QuadratureSpec`` (or
    ``None``) runs deterministic quadrature, the simplex volumes of
    ``integrate.quadrature.orbit_volume_simplex`` for 2 <= n <= 6
    (DomainError beyond; ConvergenceError marks a cubature that does not
    settle: at the default spec the full volume does for Bures up to
    n = 6 and BKM up to n = 5, but not every positive part does, as for
    Bures at n = 6 and direction e_1); an ``McSpec`` estimates the
    positive-cone fraction from random spectra by
    ``integrate.sampling.positive_fraction``, which owns the sampler
    choice and is loaded only on this path.  ``sampler`` names one of
    ``closed_form.SAMPLERS``; with any other spec it is a DomainError.
    By default every metric uses the importance sampler; 'matrix' runs
    the HS and Bures matrix models, the paper's ensembles.  Both draw and
    count their spectra in batches, so their memory stays bounded; only
    'mcmc' holds its draws.  Samples count as positive to
    ``positivity.DEFAULT_CONE_TOL``.
    """
    moduli = _default_moduli(n, moduli)
    if isinstance(spec, McSpec):
        return _mc_indicator(metric, n, moduli, spec, sampler)
    if sampler is not None:
        raise DomainError(f"sampler {sampler!r} needs an McSpec; quadrature draws no samples")
    return _quadrature_indicator(metric, n, moduli, spec or QuadratureSpec())


def average_indicator(
    metric: MetricKind,
    n: int = 3,
    spec: QuadratureSpec | None = None,
    inner: str = "auto",
) -> IndicatorResult:
    """Indicator averaged uniformly over the three-level moduli angle.

    ``inner`` picks the route.  'auto' integrates the closed form over
    the angle for the flat metric, by Gauss-Legendre doubling to
    ``spec.rel_tol``, and runs 'quadrature' for Bures and BKM.
    'quadrature' swaps the two integrals: the density times the fraction
    of angles at which each spectrum is Wigner-positive, integrated once
    over the ordered simplex by a sector rule doubled to ``spec.rel_tol``,
    over the cached full volume; its error is the rule's last change over
    the full volume plus ``2 * rel_tol * value`` for the full volume
    itself.  Both routes stop on ``rel_tol`` alone and raise
    ConvergenceError when their last order does not reach it.  ``meta``
    records the final order and the evaluations of the closed form or of
    the density.  ``closed_form._moduli_route`` checks the arguments, as
    for ``minimize_indicator``: an ``McSpec``, any n but 3 or another
    ``inner`` is a DomainError.
    """
    spec, closed = _moduli_route(metric, n, spec, inner, "averaging")
    if closed:
        total, change, order, evaluations = gauss_legendre_doubling(
            qutrit_indicator_closed_form, 0.0, _ZETA_MAX, rel_tol=spec.rel_tol
        )
        value, err, method = total / _ZETA_MAX, change / _ZETA_MAX, "closed-form"
    else:
        total, change, order, evaluations = _moduli_average_integral(metric, spec.rel_tol)
        den = simplex_full_volume(metric, 3, spec)
        value, method = total / den, "quadrature"
        err = change / den + 2.0 * spec.rel_tol * value
    return IndicatorResult(
        value,
        err,
        metric,
        3,
        AVERAGED,
        method,
        meta={"moduli_measure": "uniform", "order": order, "evaluations": evaluations},
    )


#: Bench-only, to be deleted with ROADMAP item 1: the sampler names that
#: bench/spans.py wraps on this module, forwarded by ``__getattr__``.
_BENCH_NAMES = ("sample_hs_spectra", "sample_bures_spectra", "sample_mcmc_spectra",
                "positive_fraction_iid", "positive_fraction_mcmc")


def __getattr__(name):
    if name not in _BENCH_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .integrate import sampling

    return getattr(sampling, name)
