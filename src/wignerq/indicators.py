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
volumes of ``integrate.orbit_volume_simplex``, 2 <= N <= 6), and Monte
Carlo.
"""

from __future__ import annotations

from typing import Union

from .closed_form import (  # noqa: F401 -- tests import _ZETA_TOL and _brent_min from here
    AVERAGED,
    _ZETA_TOL,
    IndicatorResult,
    McSpec,
    QuadratureSpec,
    _brent_min,
    _default_moduli,
    _takes_closed_form,
    qutrit_indicator_closed_form,
)
from .errors import DomainError
from .integrate.quadrature import (
    _moduli_average_integral,
    gauss_legendre_doubling,
    orbit_volume_qubit,  # noqa: F401 -- bench/spans.py wraps this attribute in a traced pass
    orbit_volume_qutrit,
    orbit_volume_simplex,
    qutrit_full_volume,
    simplex_full_volume,
)
from .integrate.sampling import (
    positive_fraction_iid,
    positive_fraction_mcmc,
    positive_fraction_weighted,
    sample_bures_spectra,
    sample_hs_spectra,
    sample_mcmc_spectra,
    sample_weighted_spectra,
)
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


def resolve_sampler(metric: MetricKind, sampler: str | None, *, estimate: bool) -> str:
    """The sampler a request names, with ``None``/'auto' resolved to the
    default of its job.  An indicator estimate (``estimate=True``) takes
    the importance sampler for every metric: at equal draws it has less
    variance than the matrix models, and it resolves positive regions
    too small for them to hit.  Drawn spectra (``estimate=False``, the
    ``sample`` command) come unweighted from the metric's matrix model,
    and from the importance sampler for BKM, which has none."""
    if sampler in (None, "auto"):
        return "weighted" if estimate or metric is MetricKind.BKM else "matrix"
    if sampler not in ("matrix", "weighted", "mcmc"):
        raise DomainError(f"unknown sampler {sampler!r}; expected 'matrix', 'weighted' or 'mcmc'")
    return sampler


def sample_spectra(metric: MetricKind, n: int, spec: McSpec, sampler: str | None = None):
    """Draw spectra for the metric's measure; returns ``(sampler, draws)``.

    ``sampler`` is 'matrix', 'weighted', 'mcmc', or ``None``/'auto' for
    the default of drawn spectra (``resolve_sampler`` with
    ``estimate=False``).  ``draws`` is an (m, n) array from a matrix
    model, the ``(spectra, log_weights)`` pair of the importance
    sampler, or the ``McmcResult`` of the opt-in Markov chain.
    """
    sampler = resolve_sampler(metric, sampler, estimate=False)
    if sampler == "weighted":
        return sampler, sample_weighted_spectra(metric, n, spec)
    if sampler == "mcmc":
        return sampler, sample_mcmc_spectra(metric, n, spec)
    if metric is MetricKind.HS:
        return sampler, sample_hs_spectra(n, spec)
    if metric is MetricKind.BURES:
        return sampler, sample_bures_spectra(n, spec)
    raise DomainError("no matrix model is available for the BKM measure; use the 'weighted' sampler")


def _mc_indicator(metric, n, moduli, spec: McSpec, sampler) -> IndicatorResult:
    kernel = kernel_for(moduli)
    sampler = resolve_sampler(metric, sampler, estimate=True)
    meta = {"sampler": sampler, "samples": spec.samples}
    warnings: tuple[str, ...] = ()
    if sampler == "weighted":
        # drawn, weighted and counted in batches: the spectra are never held
        p, se, ess = positive_fraction_weighted(metric, n, kernel, spec)
        meta["ess"] = ess
    elif sampler == "matrix":
        _, draws = sample_spectra(metric, n, spec, sampler)
        p, se = positive_fraction_iid(draws, kernel)
    else:
        _, draws = sample_spectra(metric, n, spec, sampler)
        p, se = positive_fraction_mcmc(draws, kernel)
        warnings = draws.warnings
        meta["samples"] = draws.flat.shape[0]
    return IndicatorResult(
        p,
        se,
        metric,
        n,
        moduli,
        "monte-carlo",
        warnings=warnings,
        meta={**meta, "seed": spec.seed, "workers": spec.workers},
    )


def global_indicator(
    metric: MetricKind,
    n: int,
    moduli: ModuliPoint | None = None,
    spec: Union[QuadratureSpec, McSpec, None] = None,
    sampler: str | None = None,
) -> IndicatorResult:
    """Relative volume of the Wigner-positive orbit-space region.

    The type of ``spec`` selects the path: a ``QuadratureSpec`` (or
    ``None``) runs deterministic quadrature, the simplex volumes of
    ``integrate.orbit_volume_simplex`` for 2 <= n <= 6 (DomainError
    beyond; at the default spec Bures converges up to n = 6 and BKM up
    to n = 5, and ConvergenceError marks a cubature that does not
    settle, as for BKM at n = 6); an ``McSpec`` estimates the
    positive-cone fraction from random spectra.  ``sampler`` overrides
    the Monte Carlo sampler choice ('matrix', 'weighted' or 'mcmc'); by
    default every metric uses the importance sampler
    (``resolve_sampler``), which draws, weights and counts its spectra in
    batches, so its memory stays bounded; 'matrix' runs the HS and Bures
    matrix models, the paper's ensembles.  Samples count as positive to
    ``positivity.DEFAULT_CONE_TOL``.
    """
    moduli = _default_moduli(n, moduli)
    if isinstance(spec, McSpec):
        return _mc_indicator(metric, n, moduli, spec, sampler)
    return _quadrature_indicator(metric, n, moduli, spec or QuadratureSpec())


def _qutrit_indicator_fn(metric: MetricKind, spec: QuadratureSpec):
    """The zeta -> indicator function of one metric by quadrature, over
    the cached full volume; the quadrature path of ``minimize_indicator``."""
    den = qutrit_full_volume(metric, spec)

    def f(z):
        return orbit_volume_qutrit(metric, z, spec).value / den

    return f


def average_indicator(
    metric: MetricKind,
    n: int = 3,
    spec: QuadratureSpec | None = None,
    inner: str = "auto",
) -> IndicatorResult:
    """Indicator averaged uniformly over the three-level moduli angle.

    ``inner`` picks the route.  'closed' (the default 'auto' for the flat
    metric) integrates the closed form over the angle by Gauss-Legendre
    doubling to ``spec.rel_tol``.  'quadrature' (the default for Bures
    and BKM) swaps the two integrals: the density times the fraction of
    angles at which each spectrum is Wigner-positive, integrated once
    over the ordered simplex by a sector rule doubled to
    ``spec.rel_tol``, over the cached full volume; its error is the
    rule's last change over the full volume plus ``2 * rel_tol * value``
    for the full volume itself.  Both routes stop on ``rel_tol`` alone and
    raise ConvergenceError when their last order does not reach it.
    ``meta`` records the final order and the evaluations of the closed
    form or of the density.
    """
    if n != 3:
        raise DomainError("moduli averaging is implemented for n = 3")
    if isinstance(spec, McSpec):
        raise DomainError("averaging is deterministic; pass a QuadratureSpec")
    spec = spec or QuadratureSpec()
    if _takes_closed_form(metric, inner):
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
