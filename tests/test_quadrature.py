"""Quadrature engines against closed forms and against each other."""

import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from density_reference import density_reference
from gm_reference import gm_rule_reference
from polar_reference import qutrit_ray
from sector_reference import sector_rule_sum_reference
from simplex_reference import simplex_pieces_reference

from wignerq import (
    ConvergenceError,
    DomainError,
    KernelSpectrum,
    MetricKind,
    ModuliPoint,
    QuadratureSpec,
    VolumeEstimate,
    average_indicator,
    kernel_for,
    minimize_indicator,
    orbit_volume_qutrit,
    orbit_volume_simplex,
    qubit_ball_volume,
    qutrit_indicator_closed_form,
    qutrit_kernel_spectrum,
)
from wignerq.integrate import quadrature
from wignerq.integrate.quadrature import (
    _collapsed_volume,
    _cut_pieces,
    _exact_hs_volume,
    _gm_rule,
    _qutrit_pairing_plane,
    _sector_grid,
    _sector_rule_sum,
    _zeta_positive_fraction,
    gauss_legendre_doubling,
    orbit_volume_qubit,
    qutrit_full_volume,
    simplex_full_volume,
)
from wignerq.positivity import min_pairing_batch

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
        assert v.error == 0.0
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
        spec = QuadratureSpec(rel_tol=1e-16, abs_tol=1e-300)
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
        full = qutrit_full_volume(MetricKind.HS, QuadratureSpec())
        ratio = orbit_volume_qutrit(MetricKind.HS, math.pi / 6).value / full
        assert ratio == pytest.approx(21 / 31104, rel=1e-6)
        assert ratio == pytest.approx(0.000675, abs=2e-7)

    def test_hs_ratio_at_zero(self):
        full = qutrit_full_volume(MetricKind.HS, QuadratureSpec())
        ratio = orbit_volume_qutrit(MetricKind.HS, 0.0).value / full
        assert ratio == pytest.approx(1 / 256, rel=1e-6)

    def test_full_volume_cache_shared_by_equal_specs(self):
        # the cache keys on the arguments as passed, so the spec has no
        # default that could make a second entry; equal-valued specs are
        # one, and the three-level volume is the n = 3 entry
        first = qutrit_full_volume(MetricKind.HS, QuadratureSpec())
        hits = simplex_full_volume.cache_info().hits
        again = simplex_full_volume(MetricKind.HS, 3, QuadratureSpec(rel_tol=1e-7))
        assert simplex_full_volume.cache_info().hits == hits + 1
        assert again.hex() == first.hex()
        assert again.hex() == orbit_volume_simplex(MetricKind.HS, 3, None, QuadratureSpec()).value.hex()
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
        num = orbit_volume_simplex(metric, 2, kernel_for(ModuliPoint.qubit()), spec).value
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
        + [(MetricKind.HS, 5), (MetricKind.HS, 6), (MetricKind.BURES, 5), (MetricKind.BURES, 6)],
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
        volume = orbit_volume_simplex(metric, n)
        assert volume.value == pytest.approx(expected, rel=1e-6, abs=0.0)
        if metric is MetricKind.BURES:
            # the cubature's own error covers the closed form, up to the
            # closed form's rounding
            assert 0.0 < volume.error <= QuadratureSpec().rel_tol * volume.value
            assert abs(volume.value - expected) <= volume.error + 16 * math.ulp(expected)

    def test_kernel_dimension_checked(self):
        with pytest.raises(DomainError):
            orbit_volume_simplex(MetricKind.HS, 3, kernel_for(ModuliPoint.qubit()))

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
        rel_tol = QuadratureSpec().rel_tol
        full = orbit_volume_simplex(metric, n).value
        tested = 0
        while tested < 3:
            form = rng.normal(size=n)
            ells = [float(v @ form) for v in verts]
            # n = 3 has 3 vertices, so one side holds a single vertex
            if min(sum(e >= 0.0 for e in ells), sum(e < 0.0 for e in ells)) < n // 2:
                continue
            both = _collapsed_volume(metric, n, form, rel_tol)[0] + _collapsed_volume(metric, n, -form, rel_tol)[0]
            # at the tolerance the calls ran with (observed: Bures within
            # 2e-14, BKM within 1e-9 over 20 forms each)
            assert both == pytest.approx(full, rel=rel_tol, abs=0.0)
            tested += 1

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_adaptive_rule_on_the_flat_density_matches_the_exact_rule(self, n, monkeypatch):
        # a control: the collapsed rule, run on the polynomial flat density
        # (plain Duffy map, p = 1), against the Grundmann-Moller rule exact
        # for it, on the full simplex and on a cut of several pieces
        monkeypatch.setitem(quadrature._COLLAPSE_POWER, MetricKind.HS, (1,) * n)
        cut = np.linspace(1.0, -2.0, n)
        assert len(quadrature._simplex_pieces(n, cut)) > 1
        for pi_asc in (None, cut):
            exact = _exact_hs_volume(n, pi_asc)
            value, error = _collapsed_volume(MetricKind.HS, n, pi_asc, 1e-10)
            assert error <= 1e-10 * value
            assert value == pytest.approx(exact, rel=1e-12, abs=0.0)
            assert abs(value - exact) <= error + 1e-12 * exact

    def test_four_level_bures_density_rows(self, monkeypatch):
        # density rows of the four-level Bures volumes: per-axis orders need
        # far fewer than one order for all axes, 8^3 + 16^3 + 32^3 = 37,376
        rows = []
        batch = quadrature._density_batch

        def counting(metric, pts):
            rows.append(len(pts))
            return batch(metric, pts)

        monkeypatch.setattr(quadrature, "_density_batch", counting)
        orbit_volume_simplex(MetricKind.BURES, 4)
        assert sum(rows) <= 10_000
        rows.clear()
        step = math.sqrt(4 - 1 / 4) / math.sqrt(2)
        orbit_volume_simplex(MetricKind.BURES, 4, KernelSpectrum((0.25 + step, 0.25 - step, 0.25, 0.25)))
        assert sum(rows) <= 25_000

    @staticmethod
    def _counting_rows(monkeypatch):
        rows = []
        batch = quadrature._density_batch

        def counting(metric, pts):
            rows.append(len(pts))
            return batch(metric, pts)

        monkeypatch.setattr(quadrature, "_density_batch", counting)
        return rows

    def test_regions_off_the_boundary_take_no_collapse_power(self, monkeypatch):
        # at pi/6 no corner of the positive part has a zero eigenvalue, so
        # every axis has p = 1 and the rule stops at its first orders
        # (8,000 rows with p = 8 on every axis)
        rows = self._counting_rows(monkeypatch)
        orbit_volume_simplex(MetricKind.BKM, 3, qutrit_kernel_spectrum(math.pi / 6))
        assert sum(rows) <= 320

    def test_five_level_bkm_full_volume_rows(self, monkeypatch):
        # one power per axis, (1, 2, 4, 8) by the zeros each axis collapses
        # onto: 1.41M rows, where p = 8 on every axis took 8.16M
        rows = self._counting_rows(monkeypatch)
        orbit_volume_simplex(MetricKind.BKM, 5)
        assert sum(rows) <= 1_500_000

    @pytest.mark.parametrize("rel_tol", [QuadratureSpec().rel_tol, 1e-10])
    @pytest.mark.parametrize("metric", [MetricKind.BURES, MetricKind.BKM], ids=lambda m: m.value)
    def test_three_level_positive_part_errors_cover_a_tight_reference(self, metric, rel_tol):
        # from the boundary (zeta = 0, where the positive part reaches the
        # pure state) to deep inside it, the reported error covers the
        # distance to the same rule at rel_tol 1e-12, up to rounding
        zetas = [*np.linspace(0.0, math.pi / 3, 13), 1e-4, 1e-3, 0.01, 0.03, 0.1]
        for zeta in zetas:
            pi_asc = qutrit_kernel_spectrum(zeta).values
            reference = _collapsed_volume(metric, 3, pi_asc, 1e-12)[0]
            value, error = _collapsed_volume(metric, 3, pi_asc, rel_tol)
            assert abs(value - reference) <= error + 64 * np.finfo(float).eps * value, zeta

    @pytest.mark.parametrize("n", [4, 5])
    def test_bures_positive_part_and_its_complement_give_the_closed_form(self, n):
        # the positive part at direction e_1 lies off the boundary and its
        # complement touches it; together they are the full volume of
        # Sommers & Zyczkowski (J. Phys. A 36, 10083, 2003)
        expected = (
            math.pi ** (n / 2) * math.prod(math.factorial(j) for j in range(1, n + 1))
            / (math.factorial(n) * 2 ** (n * (n - 1) // 2) * math.gamma(n * n / 2))
        )
        kernel = kernel_for(ModuliPoint.from_direction(n, (1.0,) + (0.0,) * (n - 2)))
        positive = orbit_volume_simplex(MetricKind.BURES, n, kernel)
        negative, error = _collapsed_volume(MetricKind.BURES, n, [-x for x in kernel.values], QuadratureSpec().rel_tol)
        assert abs(positive.value + negative - expected) <= positive.error + error

    def test_six_level_bures_positive_part_converges(self):
        # p = 1 on every axis off the boundary: about 1 s, where p = 2 on
        # every axis raised ConvergenceError at orders (32, 16, 16, 16, 8)
        kernel = kernel_for(ModuliPoint.from_direction(6, (1.0, 0.0, 0.0, 0.0, 0.0)))
        result = orbit_volume_simplex(MetricKind.BURES, 6, kernel)
        assert result.value == pytest.approx(1.709151373785e-38, rel=1e-11, abs=0.0)
        assert 0.0 < result.error <= QuadratureSpec().rel_tol * result.value

    def test_reference_grids_of_a_mixed_loop_stay_cached(self):
        # Bures and BKM regions at n = 3 and 4 use 40 grids: a second pass
        # builds none of them again (at a bound of 32 it rebuilt 25)
        def one_pass():
            for metric in (MetricKind.BURES, MetricKind.BKM):
                for zeta in (0.1, 0.4, 0.7, 1.0):
                    orbit_volume_simplex(metric, 3, qutrit_kernel_spectrum(zeta))
                orbit_volume_simplex(metric, 3)
                orbit_volume_simplex(metric, 4)
                orbit_volume_simplex(metric, 4, kernel_for(ModuliPoint.from_direction(4, (1.0, 0.0, 0.0))))

        one_pass()
        misses = quadrature._reference_grid.cache_info().misses
        one_pass()
        assert quadrature._reference_grid.cache_info().misses == misses

    @pytest.mark.parametrize("metric, orders, powers, leading", [
        (MetricKind.BKM, (32, 16, 16), (2, 4, 8), 1),
        (MetricKind.BURES, (16, 16, 8, 8), (1, 2, 1, 2), 1),
        (MetricKind.BKM, (32, 16, 16, 8), (1, 2, 4, 8), 1),
        (MetricKind.BKM, (16, 16, 32, 16), (1, 2, 4, 8), 2),
        (MetricKind.BURES, (4, 4, 8, 16, 64), (2, 1, 2, 1, 2), 3),
    ], ids=["bkm-4", "bures-5", "bkm-5", "bkm-5-t2", "bures-6-t3"])
    def test_leading_axes_split_matches_the_whole_rule(self, metric, orders, powers, leading):
        # a full volume's rule of more than _CHUNK points runs as a grid of
        # its leading axes times one of the rest; the whole tensor rule,
        # built here from the 1-D rules and the Duffy map, gives its value
        d = len(orders)
        assert math.prod(orders[leading:]) <= quadrature._CHUNK < math.prod(orders[leading - 1:])
        u, weight = [], math.factorial(d)
        for k, (order, p) in enumerate(zip(orders, powers)):
            s, w = (a.reshape((1,) * k + (order,) + (1,) * (d - 1 - k)) for a in quadrature._gauss_legendre(order))
            u.append(s ** p)
            weight = weight * w * p * s ** (p - 1) * u[-1] ** (d - 1 - k)
        prefix, columns = 1.0, []
        for uk in u:
            columns.append(np.broadcast_to(prefix * (1.0 - uk), orders))
            prefix = prefix * uk
        bary = np.stack(columns + [prefix], axis=-1).reshape(-1, d + 1)
        [(corners, volume)] = pieces = quadrature._simplex_pieces(d + 1, None)
        whole = math.fsum((volume * weight.ravel() * quadrature._density_batch(metric, bary @ corners)).tolist())
        split = quadrature._collapsed_sums(metric, pieces, [orders])[0]
        assert split == pytest.approx(whole, rel=1e-14, abs=0.0)

    def test_triangulation_matches_its_per_piece_build(self, rng, monkeypatch):
        # the float-tuple cut and the stacked determinant give the bits of
        # the numpy build with one determinant per piece, and so does the
        # exact flat volume on them
        cases = [(2, None), (2, (-0.1, 1.1))]
        cases += [(3, qutrit_kernel_spectrum(zeta).values) for zeta in np.linspace(0.0, math.pi / 3, 41)]
        for n in (4, 5, 6):
            directions = rng.normal(size=(60, n - 1))
            cases += [(n, None)] + [(n, kernel_for(ModuliPoint.from_direction(n, tuple(d / np.linalg.norm(d))))
                                     .values) for d in directions]
        volumes = []
        for n, pi_asc in cases:
            pieces, reference = quadrature._simplex_pieces(n, pi_asc), simplex_pieces_reference(n, pi_asc)
            assert len(pieces) == len(reference)
            for (corners, volume), (ref_corners, ref_volume) in zip(pieces, reference):
                assert np.array_equal(corners, ref_corners) and volume == ref_volume
            volumes.append(_exact_hs_volume(n, pi_asc))
        monkeypatch.setattr(quadrature, "_simplex_pieces", simplex_pieces_reference)
        assert volumes == [_exact_hs_volume(n, pi_asc) for n, pi_asc in cases]

    def test_collapsed_rule_stops_at_its_point_limit(self, monkeypatch):
        rules, rows = [], []
        sums, batch = quadrature._collapsed_sums, quadrature._density_batch

        def recording(metric, pieces, grids):
            rules.extend(grids)
            return sums(metric, pieces, grids)

        def counting(metric, pts):
            rows.append(len(pts))
            return batch(metric, pts)

        monkeypatch.setattr(quadrature, "_collapsed_sums", recording)
        monkeypatch.setattr(quadrature, "_density_batch", counting)
        with pytest.raises(ConvergenceError, match=r"bkm n=5 full volume: .* last change \S+$") as err:
            orbit_volume_simplex(MetricKind.BKM, 5, spec=QuadratureSpec(rel_tol=1e-15))
        # one piece: no tensor rule above the point limit, no axis above the
        # order limit, no density call above the batch bound, and each rule
        # evaluated once
        assert max(math.prod(orders) for orders in rules) <= quadrature._MAX_POINTS
        assert max(max(orders) for orders in rules) <= quadrature._MAX_ORDER
        assert max(rows) <= quadrature._CHUNK
        assert len(set(rules)) == len(rules)
        assert sum(rows) == sum(math.prod(orders) for orders in rules)
        # the error names the last orders: a rule evaluated with its probes
        last = tuple(int(o) for o in re.search(r"at orders \(([\d, ]+)\)", str(err.value))[1].split(","))
        assert last in rules
        assert all(last[:k] + (2 * o,) + last[k + 1:] in rules for k, o in enumerate(last))
        # n = 7 is past the simplex routes, which refuse it before any work
        calls = len(rows)
        with pytest.raises(DomainError, match="up to n = 6"):
            orbit_volume_simplex(MetricKind.BURES, 7)
        assert len(rows) == calls

    def test_simplex_route_never_imports_scipy(self):
        script = (
            "import sys\n"
            "from wignerq import (MetricKind, ModuliPoint, average_indicator, kernel_for, orbit_volume_simplex,\n"
            "                     qutrit_kernel_spectrum)\n"
            "from wignerq.integrate.quadrature import orbit_volume_qubit\n"
            "for m in MetricKind:\n"
            "    orbit_volume_qubit(m, 0.9)\n"
            "    orbit_volume_simplex(m, 2, kernel_for(ModuliPoint.qubit()))\n"
            "    orbit_volume_simplex(m, 3, qutrit_kernel_spectrum(0.5))\n"
            "    orbit_volume_simplex(m, 4)\n"
            "average_indicator(MetricKind.BKM)\n"
            "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))\n"
            "print(sorted({'wignerq.integrate.sampling', 'concurrent.futures'} & set(sys.modules)))\n"
            "print(sorted(k for k in sys.modules if k.startswith('numpy.polynomial')))\n"
        )
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        # nor the sampler and its process pool, nor numpy.polynomial: the
        # Gauss-Legendre rules come from numpy.linalg
        assert proc.stdout == "[]\n[]\n[]\n"

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_flat_rule_matches_its_per_composition_build(self, n):
        points, weights = _gm_rule(n - 1, n * (n - 1) // 2)
        ref_points, ref_weights = gm_rule_reference(n - 1, n * (n - 1) // 2)
        assert np.array_equal(points, ref_points) and np.array_equal(weights, ref_weights)
        assert not points.flags.writeable and not weights.flags.writeable

    def test_flat_route_rejects_large_n_before_building_a_rule(self):
        before = _gm_rule.cache_info()
        with pytest.raises(DomainError, match="up to n = 6"):
            orbit_volume_simplex(MetricKind.HS, 7)
        assert _gm_rule.cache_info() == before


class TestGaussLegendreDoubling:
    def test_smooth_integrand(self):
        value, err, order, evaluations = gauss_legendre_doubling(math.cos, 0.0, 1.0, rel_tol=1e-10)
        assert value == pytest.approx(math.sin(1.0), rel=1e-12)
        assert err < 1e-10
        assert (order, evaluations) == (32, 48)

    def test_stalls_on_rough_integrand(self):
        with pytest.raises(ConvergenceError) as err:
            gauss_legendre_doubling(lambda x: math.sin(1000.0 * x), 0.0, 1.0, rel_tol=1e-12)
        found = re.search(r"by order 256: integral (\S+), last change (\S+)$", str(err.value))
        assert found is not None
        assert math.isfinite(float(found[1])) and float(found[2]) > 0.0

    def test_empty_interval(self):
        with pytest.raises(DomainError):
            gauss_legendre_doubling(math.cos, 1.0, 1.0, rel_tol=1e-6)

    def test_takes_no_absolute_tolerance(self):
        with pytest.raises(TypeError):
            gauss_legendre_doubling(math.cos, 0.0, 1.0, rel_tol=1e-6, abs_tol=1e-15)

    def test_rules_are_read_only_and_built_once(self):
        for order in range(1, 129):
            s, w = quadrature._gauss_legendre(order)
            nodes, weights = scipy.special.roots_legendre(order)
            assert np.max(np.abs(s - (nodes + 1.0) / 2.0)) <= 5e-16
            assert np.max(np.abs(w - weights / 2.0) / (weights / 2.0)) <= 1e-10
        s, w = quadrature._gauss_legendre(16)
        assert not s.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            s[0] = 0.5
        minimize_indicator(MetricKind.BURES, method="quadrature")
        misses = quadrature._gauss_legendre.cache_info().misses
        minimize_indicator(MetricKind.BURES, method="quadrature")
        assert quadrature._gauss_legendre.cache_info().misses == misses

    def test_route_orders_do_not_depend_on_the_blas_thread_count(self):
        # eigh's eigenvectors go through threaded BLAS, so some orders move
        # in their last bits with the thread count; the orders the routes
        # build, 8 * 2^k up to _MAX_ORDER, must not
        script = (
            "import hashlib\n"
            "from wignerq.integrate.quadrature import _MAX_ORDER, _gauss_legendre\n"
            "digest, order = hashlib.sha256(), 8\n"
            "while order <= _MAX_ORDER:\n"
            "    for a in _gauss_legendre(order):\n"
            "        digest.update(a.tobytes())\n"
            "    order *= 2\n"
            "print(order // 2, digest.hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
        outs = [
            subprocess.run([sys.executable, "-c", script], env=dict(env, OPENBLAS_NUM_THREADS=threads),
                           capture_output=True, text=True, timeout=120, check=True).stdout
            for threads in ("1", "2")
        ]
        assert outs[0].startswith(f"{quadrature._MAX_ORDER} ")
        assert outs[0] == outs[1]


def _fraction(spectra):
    """``_zeta_positive_fraction`` of descending three-level spectra."""
    a, b, _ = _qutrit_pairing_plane() @ np.asarray(spectra, dtype=float).T
    return _zeta_positive_fraction(np.hypot(a, b), np.arctan2(b, a))


def _grid_fraction(spectra, points=20_001):
    """Wigner-positive fraction of zeta in [0, pi/3] from the kernel
    pairing on a uniform grid, by the trapezoid rule: off by at most half
    a grid step per sign change, of which there are at most two."""
    zetas = np.linspace(0.0, math.pi / 3.0, points)
    kernels = np.array([qutrit_kernel_spectrum(z).values for z in zetas]).T
    out = []
    for chunk in np.array_split(np.asarray(spectra, dtype=float), max(1, len(spectra) // 200)):
        positive = (chunk @ kernels >= 0.0).astype(float)
        out.append((positive[:, 1:] + positive[:, :-1]).sum(axis=1) / (2.0 * (points - 1)))
    return np.concatenate(out)


class TestZetaPositiveFraction:
    # the fraction f(r) of apex angles at which spectrum r is
    # Wigner-positive, the integrand factor of the moduli average
    SPECIAL = np.array([
        [1 / 3, 1 / 3, 1 / 3],      # maximally mixed
        [0.5, 0.5, 0.0],
        [1.0, 0.0, 0.0],            # pure
        [0.5, 1 / 3, 1 / 6],        # both lines P_0 = 0 and P_{pi/3} = 0
        [0.5, 0.3, 0.2],            # on P_0 = 0 (r_1 = 1/2)
        [0.5, 0.45, 0.05],
        [0.45, 23 / 60, 1 / 6],     # on P_{pi/3} = 0 (r_3 = 1/6)
        [0.7, 2 / 15, 1 / 6],
    ])

    @staticmethod
    def _on_circle(count):
        # spectra with rho = 1/3, phi spread over [0, pi/3]
        phi = np.linspace(0.0, math.pi / 3.0, count)
        plane = _qutrit_pairing_plane()
        ab1 = np.stack([np.cos(phi) / 3.0, np.sin(phi) / 3.0, np.ones(count)], axis=1)
        return ab1 @ np.linalg.inv(plane).T

    def test_plane_is_the_kernel_pairing(self):
        rng = np.random.default_rng(11)
        r = np.sort(rng.dirichlet([0.5] * 3, 500), axis=1)[:, ::-1]
        a, b, one = _qutrit_pairing_plane() @ r.T
        np.testing.assert_allclose(a, (2.0 / 3.0) * (3.0 * r[:, 0] - 1.0), rtol=0, atol=1e-15)
        np.testing.assert_allclose(b, (2.0 / SQRT3) * (r[:, 1] - r[:, 2]), rtol=0, atol=1e-15)
        np.testing.assert_allclose(one, 1.0, rtol=0, atol=1e-15)
        for zeta in np.linspace(0.0, math.pi / 3.0, 13):
            pairing = min_pairing_batch(r, qutrit_kernel_spectrum(zeta))
            np.testing.assert_allclose(1.0 / 3.0 - a * math.cos(zeta) - b * math.sin(zeta), pairing, rtol=0, atol=1e-14)
        # dr_1 dr_2 = (sqrt 3 / 8) dA dB
        assert 1.0 / abs(np.linalg.det(_qutrit_pairing_plane())) == pytest.approx(SQRT3 / 8.0, rel=1e-14)

    def test_matches_the_kernel_pairing_on_a_zeta_grid(self):
        rng = np.random.default_rng(2024)
        r = np.sort(rng.dirichlet([0.5] * 3, 2000), axis=1)[:, ::-1]
        r = np.concatenate([r, self.SPECIAL, self._on_circle(9)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = _fraction(r)
        assert np.all((f >= 0.0) & (f <= 1.0))
        assert np.max(np.abs(f - _grid_fraction(r))) <= 1e-4

    def test_special_points(self):
        f = _fraction(self.SPECIAL)
        assert f[0] == 1.0
        # (1/2, 1/2, 0) is positive at zeta = pi/3 only; the pure state never
        assert f[1] == pytest.approx(0.0, abs=1e-15)
        assert f[2] == 0.0
        np.testing.assert_allclose(_fraction(self._on_circle(9)), 1.0, rtol=0, atol=1e-7)

    def test_one_inside_the_circle_and_zero_past_both_lines(self):
        rng = np.random.default_rng(5)
        r = np.sort(rng.dirichlet([0.5] * 3, 20_000), axis=1)[:, ::-1]
        a, b, _ = _qutrit_pairing_plane() @ r.T
        f = _fraction(r)
        inside = np.hypot(a, b) < 1.0 / 3.0
        assert inside.sum() > 100
        assert np.all(f[inside] == 1.0)
        ends = np.stack([min_pairing_batch(r, qutrit_kernel_spectrum(z)) for z in (0.0, math.pi / 3.0)])
        negative = (ends < 0.0).all(axis=0)
        assert negative.sum() > 100
        assert np.all(f[negative] == 0.0)
        # in between it is strictly between
        assert np.all((f[~inside & ~negative] > 0.0) & (f[~inside & ~negative] <= 1.0))


class TestSectorRule:
    @pytest.mark.parametrize("order", [8, 16, 32, 64, 128])
    @pytest.mark.parametrize("metric", list(MetricKind), ids=lambda m: m.value)
    def test_same_bits_as_the_per_block_rule(self, metric, order):
        assert _sector_rule_sum(metric, order) == sector_rule_sum_reference(metric, order)

    def test_grid_is_read_only_shared_by_the_metrics_and_bounded(self):
        _sector_grid.cache_clear()
        average_indicator(MetricKind.BURES)
        built = _sector_grid.cache_info().misses
        assert built == 3  # orders 8, 16, 32
        for metric in (MetricKind.BKM, MetricKind.HS):
            average_indicator(metric, inner="quadrature")
        assert _sector_grid.cache_info().misses == built
        grids = [_sector_grid(8 << i) for i in range(built)]
        for spectra, weights in grids:
            assert not spectra.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            grids[0][1][0, 0] = 1.0
        # the bounds of the _sector_grid docstring
        assert sum(a.nbytes for grid in grids for a in grid) <= 0.26e6
        average_indicator(MetricKind.BKM, spec=QuadratureSpec(rel_tol=1e-13), inner="quadrature")
        built = _sector_grid.cache_info().misses
        assert built == 6  # orders 8 ... 256
        assert sum(a.nbytes for i in range(built) for a in _sector_grid(8 << i)) <= 16.8e6
        assert _sector_grid.cache_info().misses == built
