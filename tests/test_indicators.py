"""Indicator values, moduli averages, minimization and the probability curve."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from wignerq import (
    AVERAGED,
    ConvergenceError,
    DomainError,
    IndicatorResult,
    McSpec,
    MetricKind,
    ModuliPoint,
    QuadratureSpec,
    average_indicator,
    closed_indicator,
    global_indicator,
    kernel_for,
    minimize_indicator,
    orbit_volume_qubit,
    orbit_volume_simplex,
    positivity_curve,
    qubit_positivity_probability,
    qutrit_indicator_closed_form,
)
from wignerq import indicators
from wignerq.indicators import _ZETA_TOL, _brent_min
from wignerq.integrate import DEFAULT_2D, gauss_legendre_doubling, sample_weighted_spectra
from wignerq.integrate import quadrature
from wignerq.integrate.quadrature import _qutrit_pairing_plane, _zeta_positive_fraction, simplex_full_volume
from wignerq.measures import _density_batch

SQRT3 = math.sqrt(3.0)


class TestIndicatorResult:
    def test_validation(self):
        with pytest.raises(DomainError):
            IndicatorResult(1.5, 0.0, MetricKind.HS, 2, None, "closed-form")
        with pytest.raises(DomainError):
            IndicatorResult(0.5, -1.0, MetricKind.HS, 2, None, "closed-form")

    def test_json_moduli_rendering(self):
        r2 = closed_indicator(MetricKind.HS, 2)
        assert r2.to_json_dict()["moduli"] is None
        r3 = closed_indicator(MetricKind.HS, 3, ModuliPoint.qutrit(0.3))
        assert r3.to_json_dict()["moduli"] == pytest.approx(0.3)
        avg = average_indicator(MetricKind.HS)
        assert avg.to_json_dict()["moduli"] == AVERAGED


class TestGlobalIndicator:
    def test_flat_two_level(self):
        r = global_indicator(MetricKind.HS, 2)
        assert r.value == pytest.approx(1 / (3 * SQRT3), rel=1e-8)
        assert r.value == pytest.approx(0.19245, abs=1e-5)
        assert r.method == "quadrature"

    def test_bures_two_level(self):
        r = global_indicator(MetricKind.BURES, 2)
        assert r.value == pytest.approx(0.09172, abs=2e-5)

    def test_flat_three_level_symmetric_point(self):
        r = global_indicator(MetricKind.HS, 3, ModuliPoint.qutrit(math.pi / 6))
        assert r.value == pytest.approx(0.000675, abs=2e-7)
        assert r.value == pytest.approx(21 / 31104, rel=1e-6)

    def test_three_level_requires_moduli(self):
        with pytest.raises(DomainError):
            global_indicator(MetricKind.HS, 3)

    def test_moduli_dimension_mismatch(self):
        with pytest.raises(DomainError):
            global_indicator(MetricKind.HS, 2, ModuliPoint.qutrit(0.1))

    def test_quadrature_limited_to_small_n(self):
        with pytest.raises(DomainError, match="up to n = 6"):
            global_indicator(MetricKind.HS, 7, ModuliPoint.from_direction(7, (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)))

    def test_four_level_quadrature_matches_simplex_ratio(self):
        m = ModuliPoint.from_direction(4, (1.0, 0.0, 0.0))
        r = global_indicator(MetricKind.HS, 4, m)
        assert r.method == "quadrature"
        positive = orbit_volume_simplex(MetricKind.HS, 4, kernel_for(m)).value
        assert r.value == pytest.approx(positive / orbit_volume_simplex(MetricKind.HS, 4).value, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("metric", [MetricKind.HS, MetricKind.BURES], ids=lambda m: m.value)
    def test_four_level_quadrature_matches_weighted_sampler(self, metric):
        # an estimator that shares no code with the cubature: 4e5 weighted
        # draws, within 3 standard errors
        m = ModuliPoint.from_direction(4, (1.0, 0.0, 0.0))
        quad = global_indicator(metric, 4, m)
        mc = global_indicator(metric, 4, m, McSpec(samples=400_000, seed=13), sampler="weighted")
        assert mc.meta["sampler"] == "weighted"
        assert abs(quad.value - mc.value) < 3.0 * mc.error

    def test_monte_carlo_spec_selects_mc_path(self):
        r = global_indicator(MetricKind.HS, 2, spec=McSpec(samples=100_000, seed=21))
        assert r.method == "monte-carlo"
        assert r.meta["sampler"] == "weighted"
        assert abs(r.value - 1 / (3 * SQRT3)) < 3 * r.error
        r = global_indicator(MetricKind.HS, 2, spec=McSpec(samples=100_000, seed=21), sampler="matrix")
        assert r.meta["sampler"] == "matrix"
        assert abs(r.value - 1 / (3 * SQRT3)) < 3 * r.error

    def test_mc_four_level_direction(self):
        # positive regions collapse quickly with dimension; this kernel
        # keeps a small but resolvable one
        m = ModuliPoint.from_direction(4, (0.0, 0.0, -1.0))
        r = global_indicator(MetricKind.HS, 4, m, McSpec(samples=100_000, seed=22))
        assert 0.0 < r.value < 1e-3
        assert r.error > 0.0

    def test_mc_zero_hits_reports_wilson_bound(self):
        # no matrix-model draw lands in this kernel's positive region (exact
        # HS fraction 5.0e-8), so the binomial error is 0; the far end of the z = 1
        # Wilson interval, 1/(m + 1), is reported instead
        m = ModuliPoint.from_direction(4, (1.0, 0.0, 0.0))
        r = global_indicator(MetricKind.HS, 4, m, McSpec(20_000, seed=1), sampler="matrix")
        assert r.value == 0.0
        assert r.error == 1.0 / 20_001

    def test_default_sampler_resolves_a_region_the_matrix_model_misses(self):
        # the same kernel: the default importance sampler hits its region
        # and agrees with the exact HS volume ratio
        m = ModuliPoint.from_direction(4, (1.0, 0.0, 0.0))
        exact = global_indicator(MetricKind.HS, 4, m).value
        assert exact == pytest.approx(5.0e-8, rel=0.05)
        r = global_indicator(MetricKind.HS, 4, m, McSpec(100_000))
        assert r.meta["sampler"] == "weighted"
        assert r.value > 0.0
        assert abs(r.value - exact) < 3.0 * r.error

    def test_bkm_matrix_sampler_rejected(self):
        with pytest.raises(DomainError):
            global_indicator(MetricKind.BKM, 2, spec=McSpec(samples=100, seed=1), sampler="matrix")
        with pytest.raises(DomainError, match="unknown sampler"):
            global_indicator(MetricKind.HS, 2, spec=McSpec(samples=100, seed=1), sampler="gibbs")

    def test_closed_form_dispatch(self):
        assert closed_indicator(MetricKind.BKM, 2).value == pytest.approx(0.0495506, abs=1e-7)
        with pytest.raises(DomainError):
            closed_indicator(MetricKind.BURES, 3, ModuliPoint.qutrit(0.1))


class TestDefaultSpec:
    """Every entry point given ``spec=None`` runs at ``QuadratureSpec()``."""

    _N4 = ModuliPoint.from_direction(4, (1.0, 0.0, 0.0))

    def test_one_default(self):
        assert QuadratureSpec() == DEFAULT_2D
        assert QuadratureSpec().rel_tol == 1e-7

    @pytest.mark.parametrize("metric", list(MetricKind), ids=lambda m: m.value)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_global_indicator(self, metric, n):
        moduli = {2: None, 3: ModuliPoint.qutrit(0.4), 4: self._N4}[n]
        default = global_indicator(metric, n, moduli)
        assert default.meta["rel_tol"] == QuadratureSpec().rel_tol
        assert default.value.hex() == global_indicator(metric, n, moduli, QuadratureSpec()).value.hex()

    @pytest.mark.parametrize("metric", list(MetricKind), ids=lambda m: m.value)
    def test_volumes(self, metric):
        spec = QuadratureSpec()
        assert orbit_volume_qubit(metric, 0.9).value.hex() == orbit_volume_qubit(metric, 0.9, spec).value.hex()
        for kernel in (None, kernel_for(self._N4)):
            default = orbit_volume_simplex(metric, 4, kernel).value
            assert default.hex() == orbit_volume_simplex(metric, 4, kernel, spec).value.hex()

    def test_average_and_minimize(self):
        spec = QuadratureSpec()
        metric = MetricKind.BURES
        assert average_indicator(metric).value.hex() == average_indicator(metric, 3, spec).value.hex()
        default = minimize_indicator(metric, method="quadrature")
        assert default == minimize_indicator(metric, 3, spec, method="quadrature")


class TestQutritClosedForm:
    def test_symmetric_point(self):
        assert qutrit_indicator_closed_form(math.pi / 6) == pytest.approx(21 / 31104, rel=1e-15, abs=0.0)

    def test_edge(self):
        assert qutrit_indicator_closed_form(0.0) == pytest.approx(1 / 256, rel=2e-15, abs=0.0)

    def test_reflection_symmetry(self):
        for zeta in np.linspace(0.0, math.pi / 3, 20):
            assert qutrit_indicator_closed_form(zeta) == pytest.approx(
                qutrit_indicator_closed_form(math.pi / 3 - zeta), rel=1e-12
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            qutrit_indicator_closed_form(1.1)

    def test_agrees_with_quadrature_on_grid(self):
        for zeta in np.linspace(0.0, math.pi / 3, 50):
            q = global_indicator(MetricKind.HS, 3, ModuliPoint.qutrit(zeta)).value
            assert q == pytest.approx(qutrit_indicator_closed_form(zeta), rel=1e-6)


class TestAverageIndicator:
    def test_flat(self):
        r = average_indicator(MetricKind.HS)
        assert r.value == pytest.approx(0.00136368, rel=1e-4)
        assert r.moduli == AVERAGED

    def test_bures(self):
        r = average_indicator(MetricKind.BURES)
        assert r.value == pytest.approx(0.00019165, rel=1e-2)

    def test_bkm(self):
        r = average_indicator(MetricKind.BKM)
        assert r.value == pytest.approx(0.00002762, rel=1e-2)

    def test_flat_quadrature_inner_cross_check(self):
        closed_path = average_indicator(MetricKind.HS).value
        quad_path = average_indicator(MetricKind.HS, inner="quadrature").value
        assert quad_path == pytest.approx(closed_path, rel=1e-4)

    @staticmethod
    def _zeta_doubling(metric, spec):
        # the route of the moduli average before the two integrals were
        # swapped: Gauss-Legendre doubling over zeta of the quadrature
        # indicator, to max(100 rel_tol, 1e-6), with its stated error
        def q(zeta):
            return global_indicator(metric, 3, ModuliPoint.qutrit(zeta), spec).value

        total, change, _, _ = gauss_legendre_doubling(q, 0.0, math.pi / 3.0, rel_tol=max(100.0 * spec.rel_tol, 1e-6))
        value = total / (math.pi / 3.0)
        return value, change / (math.pi / 3.0) + 2.0 * spec.rel_tol * value

    @pytest.mark.parametrize("rel_tol", [QuadratureSpec().rel_tol, 1e-9])
    @pytest.mark.parametrize("metric", list(MetricKind), ids=lambda m: m.value)
    def test_within_stated_errors_of_the_zeta_doubling_route(self, metric, rel_tol):
        spec = QuadratureSpec(rel_tol=rel_tol)
        new = average_indicator(metric, spec=spec, inner="quadrature")
        old, old_error = self._zeta_doubling(metric, spec)
        assert new.method == "quadrature"
        assert abs(new.value - old) <= new.error + old_error

    @pytest.mark.parametrize("metric", list(MetricKind), ids=lambda m: m.value)
    def test_conditional_monte_carlo(self, metric):
        # weighted draws scored by the fraction of angles at which each is
        # positive: an estimate of the same swapped integral (conditional
        # Monte Carlo, Owen, Monte Carlo theory, methods and examples)
        spectra, log_w = sample_weighted_spectra(metric, 3, McSpec(200_000, seed=17, workers=1))
        a, b, _ = _qutrit_pairing_plane() @ spectra.T
        f = _zeta_positive_fraction(np.hypot(a, b), np.arctan2(b, a))
        w = np.exp(log_w - log_w.max())
        p = math.fsum(w * f) / math.fsum(w)
        se = math.sqrt(math.fsum((w * (f - p)) ** 2)) / math.fsum(w)
        assert abs(average_indicator(metric, inner="quadrature").value - p) <= 3.0 * se

    @pytest.mark.parametrize("inner", ["auto", "quadrature"])
    @pytest.mark.parametrize("metric", list(MetricKind), ids=lambda m: m.value)
    def test_density_evaluations_are_bounded(self, monkeypatch, metric, inner):
        simplex_full_volume(metric, 3, QuadratureSpec())  # the cached denominator is not counted
        rows = []

        def counted(m, pts):
            rows.append(len(pts))
            return _density_batch(m, pts)

        monkeypatch.setattr(quadrature, "_density_batch", counted)
        r = average_indicator(metric, inner=inner)
        assert sum(rows) <= 20_000
        assert sum(rows) == (r.meta["evaluations"] if r.method == "quadrature" else 0)

    @pytest.mark.parametrize("inner", ["auto", "quadrature"])
    @pytest.mark.parametrize("metric", list(MetricKind), ids=lambda m: m.value)
    def test_converges_at_tight_tolerance(self, metric, inner):
        r = average_indicator(metric, spec=QuadratureSpec(rel_tol=1e-13), inner=inner)
        default = average_indicator(metric, inner=inner)
        assert r.meta["order"] >= default.meta["order"]
        assert abs(r.value - default.value) <= r.error + default.error

    def test_flat_average_matches_its_exact_value(self):
        # sqrt(3) (69 + 32 ln 2) / (36864 pi), the closed form integrated
        # over zeta in [0, pi/3] exactly (mpmath agrees to 30 digits)
        exact = 1.3636762154306278e-3
        assert math.sqrt(3.0) * (69.0 + 32.0 * math.log(2.0)) / (36864.0 * math.pi) == pytest.approx(exact, rel=1e-15)
        closed = average_indicator(MetricKind.HS)
        quad = average_indicator(MetricKind.HS, inner="quadrature")
        assert closed.method == "closed-form" and quad.method == "quadrature"
        assert abs(closed.value - exact) <= closed.error
        assert abs(quad.value - exact) <= quad.error
        assert closed.value == pytest.approx(exact, rel=1e-14, abs=0.0)

    def test_flat_closed_form_route_stops_on_rel_tol(self):
        # order 32 meets every rel_tol down to 1e-12; at 1e-16 the doubling
        # stalls on rounding (change 1.5e-17) instead of passing on abs_tol
        bits = {average_indicator(MetricKind.HS, spec=QuadratureSpec(rel_tol=t)).value.hex()
                for t in (1e-5, 1e-7, 1e-9, 1e-12)}
        assert len(bits) == 1
        with pytest.raises(ConvergenceError, match="did not settle below rel_tol=1e-16 by order 256"):
            average_indicator(MetricKind.HS, spec=QuadratureSpec(rel_tol=1e-16))

    def test_rejects_other_dimensions_and_mc(self):
        with pytest.raises(DomainError):
            average_indicator(MetricKind.HS, n=2)
        with pytest.raises(DomainError):
            average_indicator(MetricKind.HS, spec=McSpec(samples=10, seed=0))
        with pytest.raises(DomainError):
            average_indicator(MetricKind.BURES, inner="closed")
        with pytest.raises(DomainError, match="unknown evaluation path"):
            average_indicator(MetricKind.HS, inner="simpson")


class TestMinimizeIndicator:
    def test_flat_minimum_at_symmetric_point(self):
        zeta_star, q_star = minimize_indicator(MetricKind.HS)
        assert abs(zeta_star - math.pi / 6) < 1e-4
        assert q_star == pytest.approx(21 / 31104, rel=1e-6)

    def test_two_paths_agree(self):
        z_closed, _ = minimize_indicator(MetricKind.HS, method="closed")
        z_quad, _ = minimize_indicator(MetricKind.HS, method="quadrature")
        assert abs(z_closed - z_quad) < 1e-4

    def test_bures_baseline(self):
        # interior minimum, slightly above the flat-metric angle; regression
        # values frozen from the first converged run
        zeta_star, q_star = minimize_indicator(MetricKind.BURES)
        assert 0.0 < zeta_star < math.pi / 3
        assert zeta_star == pytest.approx(0.5250955, abs=1e-3)
        assert q_star == pytest.approx(8.910238e-05, rel=1e-3)

    def test_bkm_baseline(self):
        zeta_star, q_star = minimize_indicator(MetricKind.BKM)
        assert 0.0 < zeta_star < math.pi / 3
        assert zeta_star == pytest.approx(0.5277977, abs=1e-3)
        assert q_star == pytest.approx(1.2160540e-05, rel=1e-3)

    def test_closed_method_unavailable_for_monotone_metrics(self):
        with pytest.raises(DomainError):
            minimize_indicator(MetricKind.BKM, method="closed")
        with pytest.raises(DomainError, match="unknown evaluation path"):
            minimize_indicator(MetricKind.HS, method="simpson")

    # (zeta_star, q_star) of the tight references: a search to 1e-8 on the
    # quadrature indicator at QuadratureSpec(rel_tol=1e-11); the Bures pair
    # is bench/reference_values.json's bures_min_zeta / bures_min_q
    _TIGHT = {
        MetricKind.BURES: (0.5250956894630656, 8.910237799683305e-05),
        MetricKind.BKM: (0.5277977653151263, 1.216053980185187e-05),
    }

    @pytest.mark.parametrize("metric", [MetricKind.BURES, MetricKind.BKM], ids=lambda m: m.value)
    def test_curved_minima_match_tight_references(self, metric):
        zeta_ref, q_ref = self._TIGHT[metric]
        zeta_star, q_star = minimize_indicator(metric)
        assert abs(zeta_star - zeta_ref) <= 1e-5
        assert q_star == pytest.approx(q_ref, rel=2e-7, abs=0.0)

    def test_bures_takes_few_quadratures(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return quadrature.orbit_volume_qutrit(*args)

        monkeypatch.setattr(indicators, "orbit_volume_qutrit", counted)
        minimize_indicator(MetricKind.BURES, method="quadrature")
        assert len(calls) <= 12


class TestBrentMin:
    """The bounded minimizer against scipy's (``fminbound``, the same
    method) on functions whose minimizer is known."""

    @pytest.mark.parametrize(
        "f, x_true",
        [
            (lambda x: math.cosh(x - 0.6) + 0.1 * (x - 0.6) ** 3, 0.6),  # interior, not a parabola
            (qutrit_indicator_closed_form, math.pi / 6),
            (lambda x: abs(x - 0.3), 0.3),  # a kink, where parabolas fail
            (math.exp, 0.0),  # increasing: the left end
            (lambda x: -(x**3), math.pi / 3),  # decreasing: the right end
        ],
        ids=["interior", "flat-indicator", "kink", "increasing", "decreasing"],
    )
    def test_against_scipy_bounded(self, f, x_true):
        evaluated = []

        def counted(x):
            evaluated.append((f(x), x))
            return evaluated[-1][0]

        x, fx = _brent_min(counted, 0.0, math.pi / 3, _ZETA_TOL)
        ref = minimize_scalar(f, bounds=(0.0, math.pi / 3), method="bounded", options={"xatol": _ZETA_TOL})
        assert abs(ref.x - x_true) <= _ZETA_TOL
        assert abs(x - x_true) <= _ZETA_TOL
        assert 0.0 <= x <= math.pi / 3
        # the value comes from the search itself, at its best point
        assert (fx, x) in evaluated and fx == min(evaluated)[0]
        assert len(evaluated) <= ref.nfev + 2


class TestProbabilityCurve:
    def test_inside_positive_ball(self, metric):
        for R in (0.0, 0.2, 1 / SQRT3):
            assert qubit_positivity_probability(metric, R) == 1.0

    def test_endpoints(self):
        assert qubit_positivity_probability(MetricKind.HS, 1.0) == pytest.approx(0.19245, abs=1e-5)
        assert qubit_positivity_probability(MetricKind.BKM, 1.0) == pytest.approx(0.0495506, abs=1e-7)

    def test_monotone_non_increasing(self, metric):
        grid = np.linspace(0.0, 1.0, 200)
        values = [qubit_positivity_probability(metric, R) for R in grid]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)

    def test_metric_ordering(self):
        for R in np.linspace(1 / SQRT3 + 1e-6, 1.0, 50):
            hs = qubit_positivity_probability(MetricKind.HS, R)
            bures = qubit_positivity_probability(MetricKind.BURES, R)
            bkm = qubit_positivity_probability(MetricKind.BKM, R)
            assert hs >= bures >= bkm

    def test_curve_rows(self):
        rows = positivity_curve([0.0, 0.5, 1.0])
        assert len(rows) == 3
        assert rows[0][1:] == (1.0, 1.0, 1.0)
        assert rows[2][1] == pytest.approx(1 / (3 * SQRT3), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            qubit_positivity_probability(MetricKind.HS, 1.2)
