"""Closed forms, the moduli average and minimum, and the run specs, without numpy.

Everything the closed-form commands need lives here and imports only the
standard library, ``errors`` and ``spectra``: the two-level ball volumes
(the integral over the Bloch radius of the two-level density) and the
positive-ball radius, the flat three-level indicator as a function of the
apex angle, the closed-form indicator result, the two-level positivity
curve, the moduli average (exact for the flat metric) and Brent's bounded
minimization over the angle, and the quadrature and Monte Carlo specs, so
the command line checks its flags before loading any numerical engine.
The quadrature route of the average imports ``integrate.quadrature``, and
that of the minimization ``indicators``, when they run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

from .errors import DomainError
from .spectra import _ZETA_MAX, MetricKind, ModuliPoint, _check_bloch_radius, _check_zeta

#: Moduli tag carried by averaged results instead of a point.
AVERAGED = "averaged"

#: Width of the bracket on which the moduli minimization stops; the
#: minimizing angle lies in it, as does the returned point.
_ZETA_TOL = 1e-6

#: The flat moduli average, sqrt(3) (69 + 32 ln 2) / (36864 pi): the flat
#: indicator integrated over zeta in [0, pi/3] with t = tan(zeta - pi/6),
#: over pi/3, correctly rounded (the float expression falls one ulp low).
_FLAT_MODULI_AVERAGE = 1.3636762154306278e-3

#: Bloch radius 1/sqrt(3) bounding the Wigner-positive two-level states.
_POSITIVE_BALL_RADIUS = 1.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature tolerances.  Every route stops on ``rel_tol`` alone, so no
    small value is accepted on an absolute tolerance larger than itself;
    ``abs_tol`` bounds nothing in the package and is kept, validated, for
    the benchmark's absolute floors.  ``QuadratureSpec()`` is the spec of
    every entry point given ``spec=None``."""

    rel_tol: float = 1e-7
    abs_tol: float = 1e-15

    def __post_init__(self):
        if not all(math.isfinite(t) and t > 0.0 for t in (self.rel_tol, self.abs_tol)):
            raise DomainError("quadrature tolerances must be finite and positive")


@dataclass(frozen=True)
class McSpec:
    """Sample budget, seeding and parallel layout of a Monte Carlo run.

    The worker count is part of the reproducibility contract: changing
    it changes the random streams.  ``burn_in``, ``thin`` and
    ``chains_per_worker`` are bench-only: they lay out the Markov chain
    that only ``bench/`` runs, and no command or library route reads them.
    """

    samples: int
    seed: int = 0
    workers: int = 1
    burn_in: int = 10_000
    thin: int = 10
    chains_per_worker: int = 32

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError("samples must be at least 1")
        if self.seed < 0:
            raise DomainError("seed must be a non-negative integer")
        if self.workers < 1:
            raise DomainError("workers must be at least 1")
        if self.burn_in < 0 or self.thin < 1 or self.chains_per_worker < 1:
            raise DomainError("invalid Markov-chain layout")


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


def qubit_ball_volume(metric: MetricKind, radius: float) -> float:
    """Closed-form (unnormalized) volume of the Bloch ball of the given
    radius: the integral over the Bloch radius of the two-level density,
    ``rho^2`` (HS), ``rho^2 / sqrt(1 - rho^2)`` (Bures) or
    ``rho * artanh(rho) / sqrt(1 - rho^2)`` (BKM).  For Bures and BKM
    that is a quarter of ``radial_density`` at the spectrum
    ``((1 + rho)/2, (1 - rho)/2)``.

    HS: ``R^3/3``;  Bures: ``(arcsin R - R*sqrt(1-R^2))/2``;
    BKM: ``arcsin R - sqrt(1-R^2)*artanh R`` (value pi/2 at R=1 by limit).
    """
    R = _check_bloch_radius(radius)
    if metric is MetricKind.HS:
        return R ** 3 / 3.0
    if metric is MetricKind.BURES:
        return (math.asin(R) - R * math.sqrt(1.0 - R * R)) / 2.0
    if R == 1.0:
        return math.pi / 2.0
    return math.asin(R) - math.sqrt(1.0 - R * R) * math.atanh(R)


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


def _has_closed_form(metric: MetricKind, n: int) -> bool:
    """Whether a closed form exists: every metric at n = 2, HS at n = 3."""
    return n == 2 or (n == 3 and metric is MetricKind.HS)


def closed_indicator(metric: MetricKind, n: int, moduli: ModuliPoint | None = None) -> IndicatorResult:
    """Closed-form indicator where one exists (``_has_closed_form``)."""
    moduli = _default_moduli(n, moduli)
    if not _has_closed_form(metric, n):
        raise DomainError(f"no closed form for metric {metric.value} at n = {n}")
    if n == 2:
        value = qubit_positivity_probability(metric, 1.0)
    else:
        value = qutrit_indicator_closed_form(moduli.zeta)
    return IndicatorResult(value, 0.0, metric, n, moduli, "closed-form")


def _moduli_route(metric: MetricKind, n: int, spec, path: str, what: str) -> tuple[QuadratureSpec, bool]:
    """The one check of the moduli average and minimization (``what``):
    n = 3, a deterministic spec and a known path, 'auto' or 'quadrature'.
    Returns the spec (``QuadratureSpec()`` for None) and whether the path
    is the flat closed form: 'auto' takes it where one exists."""
    if n != 3:
        raise DomainError(f"moduli {what} is implemented for n = 3")
    if isinstance(spec, McSpec):
        raise DomainError(f"{what} is deterministic; pass a QuadratureSpec")
    if path not in ("auto", "quadrature"):
        raise DomainError(f"unknown evaluation path {path!r}")
    return spec or QuadratureSpec(), path == "auto" and _has_closed_form(metric, 3)


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


def average_indicator(
    metric: MetricKind,
    n: int = 3,
    spec: QuadratureSpec | None = None,
    inner: str = "auto",
) -> IndicatorResult:
    """Indicator averaged uniformly over the three-level moduli angle.

    ``inner`` picks the route.  'auto' returns the flat metric's exact
    average, ``_FLAT_MODULI_AVERAGE`` at error 0 whatever ``spec``, and
    runs 'quadrature' for Bures and BKM.  'quadrature' swaps the two
    integrals: the density times the fraction of angles at which each
    spectrum is Wigner-positive, integrated once over the ordered simplex
    by a sector rule doubled to ``spec.rel_tol`` (relative only;
    ConvergenceError past order 256), over the cached full volume; its
    error is the rule's last change over the full volume plus ``2 *
    rel_tol * value`` for the full volume itself, and ``meta`` records
    the final order and the density evaluations.  It imports
    ``integrate.quadrature`` when it runs.  ``_moduli_route`` checks the
    arguments, as for ``minimize_indicator``: an ``McSpec``, any n but 3
    or another ``inner`` is a DomainError.
    """
    spec, closed = _moduli_route(metric, n, spec, inner, "averaging")
    meta = {"moduli_measure": "uniform"}
    if closed:
        return IndicatorResult(_FLAT_MODULI_AVERAGE, 0.0, metric, 3, AVERAGED, "closed-form", meta=meta)
    from .integrate.quadrature import _moduli_average_integral, simplex_full_volume

    total, change, order, evaluations = _moduli_average_integral(metric, spec.rel_tol)
    den = simplex_full_volume(metric, 3, spec)
    value = total / den
    return IndicatorResult(value, change / den + 2.0 * spec.rel_tol * value, metric, 3, AVERAGED, "quadrature",
                           meta={**meta, "order": order, "evaluations": evaluations})


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
    one 6.  ``method`` picks the evaluation path: 'auto' (the closed form
    where one exists, quadrature elsewhere) or 'quadrature', which
    minimizes ``indicators.global_indicator`` at ``spec``.
    ``_moduli_route`` checks the arguments, as for ``average_indicator``:
    an ``McSpec``, any n but 3 or another ``method`` is a DomainError.
    """
    spec, closed = _moduli_route(metric, n, spec, method, "minimization")
    if closed:
        f = qutrit_indicator_closed_form
    else:
        from .indicators import global_indicator

        def f(z):
            return global_indicator(metric, 3, ModuliPoint.qutrit(z), spec).value
    return _brent_min(f, 0.0, _ZETA_MAX, _ZETA_TOL)


def qubit_positivity_probability(metric: MetricKind, radius: float) -> float:
    """Probability that a two-level state drawn uniformly (under the
    metric's measure) from the Bloch ball of the given radius has a
    non-negative Wigner function; 1 for radii inside the positive ball."""
    R = _check_bloch_radius(radius)
    if R <= _POSITIVE_BALL_RADIUS:
        return 1.0
    return qubit_ball_volume(metric, _POSITIVE_BALL_RADIUS) / qubit_ball_volume(metric, R)


def positivity_curve(radii) -> list[tuple[float, float, float, float]]:
    """Rows (R, HS, Bures, BKM) of the positivity probability on a radius
    grid; the data behind the qubit probability plot."""
    return [(float(R), *(qubit_positivity_probability(m, R) for m in MetricKind)) for R in radii]
