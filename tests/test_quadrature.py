"""Quadrature engines against closed forms and against each other."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from density_reference import density_reference
from polar_reference import qutrit_ray

from wignerq import (
    ConvergenceError,
    DomainError,
    KernelSpectrum,
    MetricKind,
    QuadratureSpec,
    VolumeEstimate,
    orbit_volume_qubit,
    orbit_volume_qutrit,
    orbit_volume_simplex,
    qubit_ball_volume,
    qubit_kernel_spectrum,
    qutrit_indicator_closed_form,
    qutrit_kernel_spectrum,
)
from wignerq.integrate import DEFAULT_2D, gauss_legendre_doubling, qutrit_full_volume
from wignerq.integrate import quadrature
from wignerq.integrate.quadrature import (
    _collapsed_volume,
    _cut_pieces,
    _exact_hs_volume,
    _gm_rule,
    simplex_full_volume,
)

SQRT3 = math.sqrt(3.0)

#: Two-level volumes in the simplex coordinate r_1 over ``qubit_ball_volume``.
QUBIT_UNIT = {MetricKind.HS: 0.5, MetricKind.BURES: 2.0, MetricKind.BKM: 2.0}


def _polar_volume(metric, zeta):
    """Three-level volume by nested adaptive quadrature in polar
    coordinates (r, phi), an oracle for the simplex cubature that shares
    neither its parametrization nor its rule; its unit is 3*sqrt(3)/2
    times the simplex one.  The radius runs through r = b*(1 - u^2), the
    angle through phi = pi - w^2, which softens the corner where two
    eigenvalues vanish together; the smallest eigenvalue comes from the
    distance to the orbit boundary, gap0 + b*u^2, free of cancellation.
    Tolerances rel 1e-7, abs 1e-15 overall."""

    def quad(f, upper, rel, abs_):
        res = scipy.integrate.quad(f, 0.0, upper, epsabs=abs_, epsrel=rel, limit=200, full_output=1)
        assert len(res) == 3 or res[1] <= max(abs_, rel * abs(res[0])), res[3]
        return res[0]

    def inner(phi):
        k, eigs = qutrit_ray(phi)
        co = math.cos(phi / 3.0)
        b, gap0 = 1.0 / (2.0 * SQRT3 * co), 0.0
        cp = math.cos(phi / 3.0 + zeta - math.pi / 3.0) if zeta is not None else 0.0
        if 2.0 * cp > co:
            # the positivity bound lies inside the orbit bound
            b, gap0 = 1.0 / (4.0 * SQRT3 * cp), (2.0 * cp - co) / (4.0 * SQRT3 * co * cp)

        def f(u):
            r = b * (1.0 - u * u)
            return density_reference(metric, eigs(r, k * (gap0 + b * u * u))) * r * 2.0 * b * u

        return quad(f, 1.0, 2.5e-8, 2.5e-16)

    return quad(lambda w: inner(math.pi - w * w) * 2.0 * w, math.sqrt(math.pi), 5e-8, 1e-15)


class TestSpecs:
    def test_quadrature_spec_validation(self):
        QuadratureSpec()
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)
        for field in ("rel_tol", "abs_tol"):
            for value in (math.nan, math.inf, -math.inf):
                with pytest.raises(DomainError, match="finite and positive"):
                    QuadratureSpec(**{field: value})

    def test_volume_estimate_validation(self):
        VolumeEstimate(1.0, 0.0, "quadrature")
        with pytest.raises(DomainError):
            VolumeEstimate(-1.0, 0.0, "quadrature")
        with pytest.raises(DomainError):
            VolumeEstimate(1.0, -0.1, "monte-carlo")


class TestQubitVolumes:
    def test_hs_unit_ball(self):
        v = orbit_volume_qubit(MetricKind.HS, 1.0)
        assert v.std_error == 0.0
        assert v.method == "exact"
        assert v.value == pytest.approx(1 / 3 * QUBIT_UNIT[MetricKind.HS], rel=1e-8)

    def test_bures_positive_ball(self):
        # frozen from the antiderivative at 1/sqrt(3)
        expected = (math.asin(1 / SQRT3) - math.sqrt(2) / 3) / 2
        assert expected == pytest.approx(0.0720376, abs=1e-7)
        v = orbit_volume_qubit(MetricKind.BURES, 1 / SQRT3)
        assert v.value == pytest.approx(expected * QUBIT_UNIT[MetricKind.BURES], rel=1e-8)

    def test_bkm_unit_ball_endpoint_singularity(self):
        v = orbit_volume_qubit(MetricKind.BKM, 1.0)
        assert v.value == pytest.approx(math.pi / 2 * QUBIT_UNIT[MetricKind.BKM], rel=1e-8)

    def test_matches_closed_forms_on_grid(self, metric):
        for radius in (0.2, 1 / SQRT3, 0.9, 1.0):
            v = orbit_volume_qubit(metric, radius)
            assert v.value == pytest.approx(qubit_ball_volume(metric, radius) * QUBIT_UNIT[metric], rel=1e-8)

    def test_zero_radius(self, metric):
        assert orbit_volume_qubit(metric, 0.0).value == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            orbit_volume_qubit(MetricKind.HS, 1.5)

    def test_unreachable_tolerance_raises_with_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300)
        with pytest.raises(ConvergenceError) as err:
            orbit_volume_qubit(MetricKind.BKM, 1.0, spec)
        # the message carries the last cubature value and its change
        found = re.search(r"value (\S+), last change (\S+)$", str(err.value))
        assert found is not None
        assert math.isfinite(float(found[2])) and float(found[1]) > 0.0
        # the value is the volume asked for, in the function's own units
        assert float(found[1]) == pytest.approx(math.pi, rel=1e-6, abs=0.0)
        assert float(found[1]) == pytest.approx(orbit_volume_qubit(MetricKind.BKM, 1.0).value, rel=1e-6, abs=0.0)


class TestQutritVolumes:
    def test_hs_ratio_at_symmetric_point(self):
        ratio = orbit_volume_qutrit(MetricKind.HS, math.pi / 6).value / qutrit_full_volume(MetricKind.HS, DEFAULT_2D)
        assert ratio == pytest.approx(21 / 31104, rel=1e-6)
        assert ratio == pytest.approx(0.000675, abs=2e-7)

    def test_hs_ratio_at_zero(self):
        ratio = orbit_volume_qutrit(MetricKind.HS, 0.0).value / qutrit_full_volume(MetricKind.HS, DEFAULT_2D)
        assert ratio == pytest.approx(1 / 256, rel=1e-6)

    def test_full_volume_cache_shared_by_equal_specs(self):
        # the cache keys on the arguments as passed, so the spec has no
        # default that could make a second entry; equal-valued specs are
        # one, and the three-level volume is the n = 3 entry
        first = qutrit_full_volume(MetricKind.HS, DEFAULT_2D)
        hits = simplex_full_volume.cache_info().hits
        again = simplex_full_volume(MetricKind.HS, 3, QuadratureSpec(rel_tol=1e-7))
        assert simplex_full_volume.cache_info().hits == hits + 1
        assert again.hex() == first.hex()
        assert again.hex() == orbit_volume_simplex(MetricKind.HS, 3, None, DEFAULT_2D).value.hex()
        with pytest.raises(TypeError):
            qutrit_full_volume(MetricKind.HS)
        with pytest.raises(TypeError):
            simplex_full_volume(MetricKind.HS, 3)

    def test_full_volume_self_convergence(self, metric):
        # halving the tolerance moves the value by less than the tolerance
        loose = orbit_volume_qutrit(metric, None, QuadratureSpec(rel_tol=1e-6)).value
        tight = orbit_volume_qutrit(metric, None, QuadratureSpec(rel_tol=5e-7)).value
        assert abs(tight - loose) / tight < 1e-6

    def test_positive_volume_self_convergence(self, metric):
        zeta = 0.4
        loose = orbit_volume_qutrit(metric, zeta, QuadratureSpec(rel_tol=1e-6)).value
        tight = orbit_volume_qutrit(metric, zeta, QuadratureSpec(rel_tol=5e-7)).value
        assert abs(tight - loose) / tight < 1e-6

    def test_bkm_full_volume_at_tight_tolerance(self):
        # rel_tol 1e-11 is tighter than the rounding of an adaptive inner
        # integral allows, so it needs a rule that stops on relative change
        tight = orbit_volume_qutrit(MetricKind.BKM, None, QuadratureSpec(rel_tol=1e-11)).value
        loose = orbit_volume_qutrit(MetricKind.BKM, None, QuadratureSpec(rel_tol=1e-10)).value
        assert tight == pytest.approx(loose, rel=1e-10, abs=0.0)

    def test_zeta_domain(self):
        with pytest.raises(DomainError):
            orbit_volume_qutrit(MetricKind.HS, 1.2)

    def test_flat_integrand_shape(self):
        # the flat-metric polar integrand, density times r on the shared
        # eigenvalue map, is proportional to r^7 sin^2(phi)
        ratios = []
        for r in np.linspace(0.05, 0.28, 20):
            for phi in np.linspace(0.1, math.pi - 0.1, 20):
                k, eigs = qutrit_ray(phi)
                density = density_reference(MetricKind.HS, eigs(r, 1 / 3 - k * r))
                ratios.append(density * r / (r**7 * math.sin(phi) ** 2))
        ratios = np.array(ratios)
        assert np.ptp(ratios) / ratios.mean() < 1e-10


class TestSimplexVolumes:
    def test_two_level_ratios_match_closed_forms(self, metric):
        spec = QuadratureSpec(rel_tol=1e-8)
        num = orbit_volume_simplex(metric, 2, qubit_kernel_spectrum(), spec).value
        den = orbit_volume_simplex(metric, 2, None, spec).value
        expected = qubit_ball_volume(metric, 1 / SQRT3) / qubit_ball_volume(metric, 1.0)
        assert num / den == pytest.approx(expected, rel=1e-7)

    def test_three_level_flat_ratio(self):
        den = orbit_volume_simplex(MetricKind.HS, 3).value
        for zeta in np.linspace(0.0, math.pi / 3, 7):
            num = orbit_volume_simplex(MetricKind.HS, 3, qutrit_kernel_spectrum(zeta)).value
            assert num / den == pytest.approx(qutrit_indicator_closed_form(zeta), rel=1e-12, abs=0.0)

    def test_three_level_monotone_ratio_matches_polar_route(self, metric):
        spec = QuadratureSpec(rel_tol=1e-6)
        full = orbit_volume_simplex(metric, 3, None, spec).value
        full_polar = _polar_volume(metric, None)
        for zeta in np.linspace(0.0, math.pi / 3, 6):
            ratio_simplex = orbit_volume_simplex(metric, 3, qutrit_kernel_spectrum(zeta), spec).value / full
            ratio_polar = _polar_volume(metric, zeta) / full_polar
            assert ratio_simplex == pytest.approx(ratio_polar, rel=1e-6, abs=0.0)

    def test_three_level_volumes_are_in_simplex_units(self, metric):
        # dr_1 dr_2 = (2 / (3 sqrt 3)) r dr dphi: the same volume in polar
        # units is 3*sqrt(3)/2 times larger
        polar = _polar_volume(metric, None)
        assert orbit_volume_qutrit(metric).value * 3.0 * SQRT3 / 2.0 == pytest.approx(polar, rel=1e-6, abs=0.0)

    @pytest.mark.parametrize(
        "metric, n",
        [(m, n) for m in (MetricKind.HS, MetricKind.BURES) for n in (2, 3, 4)]
        + [(MetricKind.HS, 5), (MetricKind.HS, 6), (MetricKind.BURES, 5)],
        ids=lambda v: v.value if isinstance(v, MetricKind) else str(v),
    )
    def test_full_volume_matches_closed_form(self, metric, n):
        # HS: 1/(N! C) with C = Gamma(N^2) / prod_{j<N} Gamma(N-j) Gamma(N-j+1)
        # (Zyczkowski & Sommers, J. Phys. A 34, 7111, 2001).  Bures with the
        # weight 2/(x+y): pi^(N/2) prod_{j<=N} j! / (N! 2^(N(N-1)/2) Gamma(N^2/2))
        # (Sommers & Zyczkowski, J. Phys. A 36, 10083, 2003).
        if metric is MetricKind.HS:
            c = math.gamma(n * n) / math.prod(math.gamma(n - j) * math.gamma(n - j + 1) for j in range(n))
            expected = 1.0 / (math.factorial(n) * c)
        else:
            expected = (
                math.pi ** (n / 2) * math.prod(math.factorial(j) for j in range(1, n + 1))
                / (math.factorial(n) * 2 ** (n * (n - 1) // 2) * math.gamma(n * n / 2))
            )
        assert orbit_volume_simplex(metric, n).value == pytest.approx(expected, rel=1e-6, abs=0.0)

    def test_kernel_dimension_checked(self):
        with pytest.raises(DomainError):
            orbit_volume_simplex(MetricKind.HS, 3, qubit_kernel_spectrum())

    def test_flat_positive_part_is_exact(self):
        # the exact rational integral of the flat density over the
        # triangulated positive polytope (bench/polytope.py) at n = 4,
        # kernel direction (1, 0, 0)
        step = math.sqrt(4 - 1 / 4) / math.sqrt(2)
        kernel = KernelSpectrum((0.25 + step, 0.25 - step, 0.25, 0.25))
        result = orbit_volume_simplex(MetricKind.HS, 4, kernel)
        assert result.method == "exact"
        assert result.value == pytest.approx(5.521267622623806e-18, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [4, 5])
    def test_flat_cut_and_its_complement_fill_the_simplex(self, n, rng):
        verts = [np.array([1.0 / k if i < k else 0.0 for i in range(n)]) for k in range(1, n + 1)]
        full = _exact_hs_volume(n, None)
        tested = 0
        while tested < 5:
            form = rng.normal(size=n)
            ells = [float(v @ form) for v in verts]
            if min(sum(e >= 0.0 for e in ells), sum(e < 0.0 for e in ells)) < 2:
                continue
            assert len(_cut_pieces(verts, ells)) > 1
            both = _exact_hs_volume(n, form) + _exact_hs_volume(n, -form)
            assert both == pytest.approx(full, rel=1e-11, abs=0.0)
            tested += 1

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("metric", [MetricKind.BURES, MetricKind.BKM], ids=lambda m: m.value)
    def test_curved_cut_and_its_complement_fill_the_simplex(self, metric, n, rng):
        verts = [np.array([1.0 / k if i < k else 0.0 for i in range(n)]) for k in range(1, n + 1)]
        rel_tol = DEFAULT_2D.rel_tol
        full = orbit_volume_simplex(metric, n).value
        tested = 0
        while tested < 3:
            form = rng.normal(size=n)
            ells = [float(v @ form) for v in verts]
            # n = 3 has 3 vertices, so one side holds a single vertex
            if min(sum(e >= 0.0 for e in ells), sum(e < 0.0 for e in ells)) < n // 2:
                continue
            both = _collapsed_volume(metric, n, form, rel_tol) + _collapsed_volume(metric, n, -form, rel_tol)
            # at the tolerance the calls ran with (observed: Bures within
            # 2e-14, BKM within 1e-9 over 20 forms each)
            assert both == pytest.approx(full, rel=rel_tol, abs=0.0)
            tested += 1

    def test_collapsed_rule_stops_at_its_point_limit(self, monkeypatch):
        evaluated = []
        batch = quadrature._density_batch

        def counting(metric, pts):
            evaluated.append(len(pts))
            return batch(metric, pts)

        monkeypatch.setattr(quadrature, "_density_batch", counting)
        with pytest.raises(ConvergenceError, match=r"bkm n=5 full volume: .* last change \S+$"):
            orbit_volume_simplex(MetricKind.BKM, 5, spec=QuadratureSpec(rel_tol=1e-15))
        # one piece; orders double, so the points sum to less than twice the last order's
        assert max(evaluated) <= quadrature._CHUNK
        assert sum(evaluated) < 2 * quadrature._MAX_POINTS
        # at n = 7 two orders cannot fit, so the route refuses before any work
        calls = len(evaluated)
        with pytest.raises(DomainError, match="up to n = 6"):
            orbit_volume_simplex(MetricKind.BURES, 7)
        assert len(evaluated) == calls

    def test_simplex_route_never_imports_scipy(self):
        script = (
            "import sys\n"
            "from wignerq import MetricKind, orbit_volume_qubit, orbit_volume_simplex, qubit_kernel_spectrum,"
            " qutrit_kernel_spectrum\n"
            "for m in MetricKind:\n"
            "    orbit_volume_qubit(m, 0.9)\n"
            "    orbit_volume_simplex(m, 2, qubit_kernel_spectrum())\n"
            "    orbit_volume_simplex(m, 3, qutrit_kernel_spectrum(0.5))\n"
            "    orbit_volume_simplex(m, 4)\n"
            "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        assert proc.stdout.strip() == "[]"

    def test_flat_route_rejects_large_n_before_building_a_rule(self):
        before = _gm_rule.cache_info()
        with pytest.raises(DomainError, match="up to n = 6"):
            orbit_volume_simplex(MetricKind.HS, 7)
        assert _gm_rule.cache_info() == before


class TestGaussLegendreDoubling:
    def test_smooth_integrand(self):
        value, err = gauss_legendre_doubling(math.cos, 0.0, 1.0, rel_tol=1e-10, abs_tol=1e-15)
        assert value == pytest.approx(math.sin(1.0), rel=1e-12)
        assert err < 1e-10

    def test_stalls_on_rough_integrand(self):
        with pytest.raises(ConvergenceError) as err:
            gauss_legendre_doubling(lambda x: math.sin(1000.0 * x), 0.0, 1.0, rel_tol=1e-12, abs_tol=1e-15)
        found = re.search(r"value (\S+), change (\S+)$", str(err.value))
        assert found is not None
        assert math.isfinite(float(found[1])) and float(found[2]) > 0.0

    def test_empty_interval(self):
        with pytest.raises(DomainError):
            gauss_legendre_doubling(math.cos, 1.0, 1.0, rel_tol=1e-6, abs_tol=1e-15)
