"""Acceptance suite: every published value and contract at its stated
tolerance, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import itertools
import json
import math
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest
from polar_reference import (
    polar_from_spectrum,
    qutrit_orbit_bound,
    qutrit_positivity_bound,
    spectrum_from_polar,
)

from wignerq import (
    McSpec,
    MetricKind,
    ModuliPoint,
    QuadratureSpec,
    StateSpectrum,
    average_indicator,
    closed_indicator,
    global_indicator,
    min_wigner_value,
    minimize_indicator,
    qubit_positivity_probability,
    qutrit_indicator_closed_form,
    qutrit_kernel_spectrum,
)
from wignerq.cli import main
from wignerq.sw_kernel import kernel_spectrum_from_direction, traceless_basis

SQRT3 = math.sqrt(3.0)
POSITIVE_RADIUS = 1.0 / SQRT3


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE criterion {num} [{label}]: FAIL")
        raise
    print(f"\nACCEPTANCE criterion {num} [{label}]: PASS")


def test_criterion_1_qubit_flat_indicator():
    with criterion(1, "qubit HS indicator"):
        target = 1.0 / (3.0 * SQRT3)
        t0 = time.perf_counter()
        quad = global_indicator(MetricKind.HS, 2, spec=QuadratureSpec(rel_tol=1e-9))
        quad_time = time.perf_counter() - t0
        assert quad.value == pytest.approx(target, rel=1e-8)
        assert quad_time < 1.0

        t0 = time.perf_counter()
        mc = global_indicator(MetricKind.HS, 2, spec=McSpec(samples=1_000_000, seed=101))
        mc_time = time.perf_counter() - t0
        assert abs(mc.value - target) < 3.0 * mc.error
        assert mc_time < 30.0


def test_criterion_2_qubit_bures_indicator():
    with criterion(2, "qubit Bures indicator"):
        target = (2.0 / math.pi) * (math.asin(1.0 / SQRT3) - math.sqrt(2.0) / 3.0)
        assert target == pytest.approx(0.09172, abs=1e-5)
        closed = closed_indicator(MetricKind.BURES, 2).value
        assert closed == pytest.approx(target, rel=1e-12, abs=0.0)
        quad = global_indicator(MetricKind.BURES, 2, spec=QuadratureSpec(rel_tol=1e-9)).value
        assert quad == pytest.approx(closed, rel=1e-8)
        mc = global_indicator(MetricKind.BURES, 2, spec=McSpec(samples=1_000_000, seed=102))
        assert abs(mc.value - target) < 3.0 * mc.error


def test_criterion_3_qubit_bkm_indicator():
    with criterion(3, "qubit BKM indicator"):
        target = (2.0 / math.pi) * (
            math.asin(1.0 / SQRT3) - math.sqrt(2.0 / 3.0) * math.atanh(1.0 / SQRT3)
        )
        assert target == pytest.approx(0.0495506, abs=1e-7)
        closed = closed_indicator(MetricKind.BKM, 2).value
        assert closed == pytest.approx(target, rel=1e-12, abs=0.0)
        quad = global_indicator(MetricKind.BKM, 2, spec=QuadratureSpec(rel_tol=1e-9)).value
        assert quad == pytest.approx(closed, rel=1e-8)
        mc = global_indicator(MetricKind.BKM, 2, spec=McSpec(samples=1_000_000, seed=103))
        assert mc.method == "monte-carlo" and mc.meta["sampler"] == "weighted"
        assert abs(mc.value - target) < 3.0 * mc.error


def test_criterion_4_qutrit_flat_closed_form_vs_quadrature():
    with criterion(4, "qutrit HS closed form vs 2-D quadrature and minimum"):
        t0 = time.perf_counter()
        for zeta in np.linspace(0.0, math.pi / 3.0, 50):
            quad = global_indicator(MetricKind.HS, 3, ModuliPoint.qutrit(zeta)).value
            assert quad == pytest.approx(qutrit_indicator_closed_form(zeta), rel=1e-6)
        grid_time = time.perf_counter() - t0
        assert grid_time < 60.0

        zeta_star, q_star = minimize_indicator(MetricKind.HS)
        assert abs(zeta_star - math.pi / 6.0) < 1e-4
        assert q_star == pytest.approx(21.0 / 31104.0, rel=1e-6)
        assert q_star == pytest.approx(6.7517e-4, rel=1e-4)
        zeta_quad, _ = minimize_indicator(MetricKind.HS, method="quadrature")
        assert abs(zeta_quad - math.pi / 6.0) < 1e-4


def test_criterion_5_moduli_averages():
    with criterion(5, "moduli averages"):
        hs = average_indicator(MetricKind.HS).value
        assert hs == pytest.approx(0.00136368, rel=1e-4)
        bures = average_indicator(MetricKind.BURES).value
        assert bures == pytest.approx(0.00019165, rel=1e-2)
        bkm = average_indicator(MetricKind.BKM).value
        assert bkm == pytest.approx(0.00002762, rel=1e-2)


def test_criterion_6_property_suites():
    with criterion(6, "property suites"):
        rng = np.random.default_rng(1234)

        # kernel constraint sphere for n = 2..6, 1e4 random directions each
        for n in range(2, 7):
            basis = traceless_basis(n)
            coords = rng.standard_normal((10_000, n - 1))
            coords /= np.linalg.norm(coords, axis=1, keepdims=True)
            kernels = 1.0 / n + math.sqrt(n - 1.0 / n) * coords @ basis
            assert np.abs(kernels.sum(axis=1) - 1.0).max() < 1e-12
            assert np.abs((kernels**2).sum(axis=1) - n).max() < 1e-11
            dist_sq = ((kernels - 1.0 / n) ** 2).sum(axis=1)
            assert np.abs(dist_sq - (n - 1.0 / n)).max() < 1e-11

        # aligned pairing is the brute-force minimum over all n! alignments
        for n in range(2, 6):
            perms = np.array(list(itertools.permutations(range(n))))
            basis = traceless_basis(n)
            for _ in range(250):
                r = np.sort(rng.dirichlet(np.ones(n)))[::-1]
                u = rng.standard_normal(n - 1)
                u /= np.linalg.norm(u)
                k = kernel_spectrum_from_direction(n, u @ basis)
                brute = (r @ np.array(k.values)[perms].T).min()
                aligned = min_wigner_value(StateSpectrum(tuple(r)), k)
                assert abs(aligned - brute) < 1e-12

        # positivity-boundary states have vanishing minimal Wigner value
        worst = 0.0
        for phi in np.linspace(0.0, math.pi, 50):
            for zeta in np.linspace(0.0, math.pi / 3.0, 50):
                r = min(qutrit_positivity_bound(phi, zeta), qutrit_orbit_bound(phi))
                s = StateSpectrum(spectrum_from_polar(r, phi))
                worst = max(worst, abs(min_wigner_value(s, qutrit_kernel_spectrum(zeta))))
        assert worst < 1e-10

        # polar round trip on 1e4 random spectra
        raw = -np.sort(-rng.dirichlet((1.0, 1.0, 1.0), size=10_000), axis=1)
        for row in raw:
            s = StateSpectrum(tuple(row))
            back = StateSpectrum(spectrum_from_polar(*polar_from_spectrum(s.values)))
            assert max(abs(a - b) for a, b in zip(s.values, back.values)) < 1e-10

        # probability curves: 1 inside the positive ball, non-increasing,
        # flat >= Bures >= BKM everywhere
        grid = np.linspace(0.0, 1.0, 200)
        curves = {
            m: np.array([qubit_positivity_probability(m, R) for R in grid]) for m in MetricKind
        }
        for m, vals in curves.items():
            assert (vals[grid <= POSITIVE_RADIUS] == 1.0).all()
            assert (np.diff(vals) <= 1e-12).all()
        assert (curves[MetricKind.HS] >= curves[MetricKind.BURES] - 1e-12).all()
        assert (curves[MetricKind.BURES] >= curves[MetricKind.BKM] - 1e-12).all()


def test_criterion_7_cross_estimator_consistency():
    with criterion(7, "cross-estimator consistency"):
        def within(a, sa, b, sb):
            return abs(a - b) <= 3.0 * math.hypot(sa, sb)

        # two-level systems: quadrature vs matrix model vs importance sampler
        for metric, seed in ((MetricKind.HS, 201), (MetricKind.BURES, 202), (MetricKind.BKM, 203)):
            quad = global_indicator(metric, 2).value
            estimates = []
            if metric is not MetricKind.BKM:
                r = global_indicator(metric, 2, spec=McSpec(samples=600_000, seed=seed), sampler="matrix")
                estimates.append((r.value, r.error))
            r = global_indicator(
                metric, 2, spec=McSpec(samples=400_000, seed=seed + 10), sampler="weighted"
            )
            estimates.append((r.value, r.error))
            for value, err in estimates:
                assert within(quad, 0.0, value, err)
            for (v1, e1), (v2, e2) in itertools.combinations(estimates, 2):
                assert within(v1, e1, v2, e2)

        # three-level systems at the symmetric kernel
        m = ModuliPoint.qutrit(math.pi / 6.0)
        for metric, seed, n_matrix, n_weighted in (
            (MetricKind.HS, 301, 1_000_000, 1_000_000),
            (MetricKind.BURES, 302, 600_000, 400_000),
            (MetricKind.BKM, 303, 0, 1_000_000),
        ):
            quad = global_indicator(metric, 3, m).value
            estimates = []
            if n_matrix:
                r = global_indicator(metric, 3, m, McSpec(samples=n_matrix, seed=seed), sampler="matrix")
                estimates.append((r.value, r.error))
            r = global_indicator(
                metric, 3, m, McSpec(samples=n_weighted, seed=seed + 10), sampler="weighted"
            )
            estimates.append((r.value, r.error))
            for value, err in estimates:
                assert within(quad, 0.0, value, err)
            for (v1, e1), (v2, e2) in itertools.combinations(estimates, 2):
                assert within(v1, e1, v2, e2)


def test_criterion_8_determinism():
    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(list(argv)) == 0
        return buf.getvalue()

    with criterion(8, "determinism"):
        commands = (
            ["indicator", "--n", "2", "--metric", "hs", "--method", "mc",
             "--samples", "50000", "--seed", "7", "--workers", "2"],
            ["indicator", "--n", "2", "--metric", "bkm", "--method", "mc",
             "--samples", "20000", "--seed", "7", "--workers", "2"],
            ["sample", "--metric", "bures", "--n", "3", "--samples", "200",
             "--seed", "7", "--workers", "2", "--format", "json"],
        )
        for argv in commands:
            first = run(argv)
            second = run(argv)
            assert first == second and first
            json.loads(first)  # stays parseable
