"""Top-level classicality indicators.

The global indicator of an N-level system is the ratio of the measure
of the Wigner-positive part of the orbit space to the measure of the
whole orbit space, under one of the three supported metrics.  It is a
function of the chosen Wigner representation; averaging it uniformly
over the moduli of representations, or minimizing over them, gives
representation-independent figures.

Three evaluation paths exist and cross-check each other: closed forms
(two-level systems and the flat three-level case), deterministic
quadrature (the simplex volumes of ``integrate.orbit_volume_simplex``,
2 <= N <= 6), and Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

from .errors import DomainError
from .integrate.quadrature import (
    _ZETA_MAX,
    QuadratureSpec,
    _moduli_average_integral,
    gauss_legendre_doubling,
    orbit_volume_qubit,  # noqa: F401 -- bench/spans.py wraps this attribute in a traced pass
    orbit_volume_qutrit,
    orbit_volume_simplex,
    qutrit_full_volume,
    simplex_full_volume,
)
from .integrate.sampling import (
    McSpec,
    positive_fraction_iid,
    positive_fraction_mcmc,
    positive_fraction_weighted,
    sample_bures_spectra,
    sample_hs_spectra,
    sample_mcmc_spectra,
    sample_weighted_spectra,
)
from .measures import positive_ball_radius, qubit_ball_volume
from .spectra import MetricKind, ModuliPoint, _check_bloch_radius, _check_zeta
from .sw_kernel import kernel_for

#: Moduli tag carried by averaged results instead of a point.
AVERAGED = "averaged"

#: Width of the bracket on which the moduli minimization stops; the
#: minimizing angle lies in it, as does the returned point.
_ZETA_TOL = 1e-6


@dataclass(frozen=True)
class IndicatorResult:
    """One indicator value with its error estimate and provenance.

    ``moduli`` is the moduli point the value belongs to, or the string
    ``"averaged"`` for moduli averages.  ``error`` is a standard error
    for Monte Carlo results (never 0) and a tolerance-based bound for
    deterministic ones.
    """

    value: float
    error: float
    metric: MetricKind
    n: int
    moduli: Union[ModuliPoint, str, None]
    method: str
    warnings: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not -1e-9 <= self.value <= 1.0 + 1e-9:
            raise DomainError(f"indicator value {self.value!r} outside [0, 1]")
        if self.error < 0.0:
            raise DomainError("error must be non-negative")

    def to_json_dict(self) -> dict:
        if isinstance(self.moduli, ModuliPoint):
            if self.moduli.n == 2:
                moduli = None
            elif self.moduli.n == 3:
                moduli = self.moduli.zeta
            else:
                moduli = list(self.moduli.direction)
        else:
            moduli = self.moduli
        return {
            "value": self.value,
            "error": self.error,
            "metric": self.metric.value,
            "n": self.n,
            "moduli": moduli,
            "method": self.method,
            "warnings": list(self.warnings),
            "meta": dict(self.meta),
        }


def _default_moduli(n: int, moduli: ModuliPoint | None) -> ModuliPoint:
    if moduli is None:
        if n == 2:
            return ModuliPoint.qubit()
        raise DomainError(f"a moduli point is required for n = {n}")
    if moduli.n != n:
        raise DomainError(f"moduli point is for n = {moduli.n}, expected {n}")
    return moduli


def qutrit_indicator_closed_form(zeta: float) -> float:
    """Flat-metric three-level indicator as a function of the apex angle:
    ``(1/128) * (1 + 20 c^2) / (4 c^2 - 1)^5`` with ``c = cos(zeta - pi/6)``."""
    c2 = math.cos(_check_zeta(zeta) - math.pi / 6.0) ** 2
    return (1.0 + 20.0 * c2) / (128.0 * (4.0 * c2 - 1.0) ** 5)


def closed_indicator(metric: MetricKind, n: int, moduli: ModuliPoint | None = None) -> IndicatorResult:
    """Closed-form indicator where one exists: any metric at n=2, the
    flat metric at n=3."""
    moduli = _default_moduli(n, moduli)
    if n == 2:
        value = qubit_ball_volume(metric, positive_ball_radius()) / qubit_ball_volume(metric, 1.0)
    elif n == 3 and metric is MetricKind.HS:
        value = qutrit_indicator_closed_form(moduli.zeta)
    else:
        raise DomainError(f"no closed form for metric {metric.value} at n = {n}")
    return IndicatorResult(value, 0.0, metric, n, moduli, "closed-form")


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
    beyond, ConvergenceError where the cubature does not settle, as for
    BKM at n = 5); an ``McSpec`` estimates the positive-cone fraction
    from random spectra.  ``sampler`` overrides the Monte Carlo sampler
    choice ('matrix', 'weighted' or 'mcmc'); by default every metric
    uses the importance sampler (``resolve_sampler``), which draws,
    weights and counts its spectra in batches, so its memory stays
    bounded; 'matrix' runs the HS and Bures matrix models, the paper's
    ensembles.  Samples count as positive to ``positivity.DEFAULT_CONE_TOL``.
    """
    moduli = _default_moduli(n, moduli)
    if isinstance(spec, McSpec):
        return _mc_indicator(metric, n, moduli, spec, sampler)
    return _quadrature_indicator(metric, n, moduli, spec or QuadratureSpec())


def _takes_closed_form(metric: MetricKind, path: str) -> bool:
    """Whether the three-level evaluation path ('auto', 'closed' or
    'quadrature') of a metric is the flat closed form; 'auto' takes it
    where one exists."""
    if path not in ("auto", "closed", "quadrature"):
        raise DomainError(f"unknown evaluation path {path!r}")
    if path == "closed" and metric is not MetricKind.HS:
        raise DomainError(f"no closed form for metric {metric.value} at n = 3")
    return path == "closed" or (path == "auto" and metric is MetricKind.HS)


def _qutrit_indicator_fn(metric: MetricKind, spec: QuadratureSpec, path: str):
    """The zeta -> indicator function of one metric and evaluation path."""
    if _takes_closed_form(metric, path):
        return qutrit_indicator_closed_form
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


def _brent_min(f, a: float, b: float, tol: float):
    """Minimum of a unimodal ``f`` on [a, b] by Brent's bounded search
    (Algorithms for Minimization without Derivatives, 1973, ch. 5):
    parabolic interpolation through the best three points, with a
    golden-section step wherever the parabola is not trusted.  Stops when
    the bracket around the best point ``x`` is at most ``tol`` wide and
    returns ``(x, f(x))`` from the evaluations already made.  Brent's
    relative term ``sqrt(eps) * |x|`` is left out: on a bounded interval
    near the origin the absolute ``tol`` dominates it."""
    golden = (3.0 - math.sqrt(5.0)) / 2.0
    # least distance between evaluated points; the loop ends once x is
    # within 2 * step of both ends of the bracket, so at most tol wide
    step = tol / 4.0
    x = w = v = a + golden * (b - a)
    fx = fw = fv = f(x)
    d = e = 0.0
    while max(x - a, b - x) > 2.0 * step:
        m = 0.5 * (a + b)
        p = q = r = 0.0
        if abs(e) > step:
            # parabola through (v, fv), (w, fw), (x, fx); its vertex is x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
        # take the vertex if it lies inside (a, b) and moves less than half
        # the step before last; otherwise step into the larger golden section
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            d = p / q
            if min(x + d - a, b - x - d) < 2.0 * step:
                d = step if x < m else -step
        else:
            e = (b if x < m else a) - x
            d = golden * e
        u = x + (d if abs(d) >= step else math.copysign(step, d))
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx


def minimize_indicator(
    metric: MetricKind,
    n: int = 3,
    spec: QuadratureSpec | None = None,
    method: str = "auto",
) -> tuple[float, float]:
    """Minimize the three-level indicator over the moduli angle.

    Returns ``(zeta_star, q_star)`` from Brent's bounded search on
    [0, pi/3] (parabolic interpolation with golden-section steps, as in
    scipy's ``fminbound``), which treats the indicator as unimodal in the
    angle and stops when the bracket around ``zeta_star`` is at most
    ``_ZETA_TOL`` = 1e-6 wide; ``q_star`` is the indicator at
    ``zeta_star``.  The curved metrics take about 9 quadratures, the flat
    one 6.  ``method`` picks the evaluation path: 'closed' (flat metric
    only), 'quadrature', or 'auto' (closed form when available).
    """
    if n != 3:
        raise DomainError("moduli minimization is implemented for n = 3")
    spec = spec or QuadratureSpec()
    f = _qutrit_indicator_fn(metric, spec, method)
    return _brent_min(f, 0.0, _ZETA_MAX, _ZETA_TOL)


def qubit_positivity_probability(metric: MetricKind, radius: float) -> float:
    """Probability that a two-level state drawn uniformly (under the
    metric's measure) from the Bloch ball of the given radius has a
    non-negative Wigner function; 1 for radii inside the positive ball."""
    R = _check_bloch_radius(radius)
    rp = positive_ball_radius()
    if R <= rp:
        return 1.0
    return qubit_ball_volume(metric, rp) / qubit_ball_volume(metric, R)


def positivity_curve(radii) -> list[tuple[float, float, float, float]]:
    """Rows (R, HS, Bures, BKM) of the positivity probability on a radius
    grid; the data behind the qubit probability plot."""
    return [
        (
            float(R),
            qubit_positivity_probability(MetricKind.HS, R),
            qubit_positivity_probability(MetricKind.BURES, R),
            qubit_positivity_probability(MetricKind.BKM, R),
        )
        for R in radii
    ]
