"""Radial densities, Morozova-Chentsov weights and the closed-form ball volumes."""

import math

import numpy as np
import pytest
from bloch_reference import bloch_spectrum
from density_reference import density_reference, weight_reference
from scipy import integrate

from wignerq import (
    DomainError,
    MetricKind,
    StateSpectrum,
    qubit_ball_volume,
    radial_density,
)
from wignerq.measures import _bkm_weight_batch, _bures_weight, _density_batch, log_radial_density

SQRT3 = math.sqrt(3.0)

#: Relative gaps between the first two entries on either side of the BKM
#: series cutoff (1e-9).
NEAR_CUTOFF = (0.5e-9, 2e-9)

#: Simplex density of a two-level spectrum over the density in the Bloch
#: radius alone: rho^2 (HS), rho^2/sqrt(1-rho^2) (Bures) and
#: rho*artanh(rho)/sqrt(1-rho^2) (BKM).
BLOCH_FACTOR = {MetricKind.HS: 1.0, MetricKind.BURES: 4.0, MetricKind.BKM: 4.0}

#: The density kernel's Morozova-Chentsov weight functions (arrays in, arrays out).
BATCH_WEIGHT = {MetricKind.BURES: _bures_weight, MetricKind.BKM: _bkm_weight_batch}


def _bloch_density(metric, rho):
    """Two-level density in the Bloch radius, from the shared simplex density."""
    return radial_density(metric, bloch_spectrum(rho)) / BLOCH_FACTOR[metric]


def _weight(metric, x, y):
    """The kernel's weight at one pair; each value must also agree with the
    reference formula's, to numpy's log against the math module's (a few ulps)."""
    w = float(BATCH_WEIGHT[metric](np.array([x]), np.array([y]))[0])
    assert w == pytest.approx(weight_reference(metric, x, y), rel=4e-15, abs=0.0)
    return w


def _numpy_pair_loop(metric, rows):
    """The density of each row written out in numpy, one pair at a time:
    the product of the entries to the power -1/2 (Bures, BKM), then each
    pair's squared difference and its weight, multiplied in index order."""
    cols = np.asarray(rows, dtype=float).T
    if metric is MetricKind.HS:
        out = np.ones(cols.shape[1])
    else:
        out = cols[0].copy()
        for x in cols[1:]:
            out = out * x
        out = out ** -0.5
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            x, y = cols[i], cols[j]
            diff = x - y
            out = out * (diff * diff)
            if metric is MetricKind.BURES:
                out = out * (2.0 / (x + y))
            elif metric is MetricKind.BKM:
                d = diff / x
                with np.errstate(divide="ignore", invalid="ignore"):
                    w = np.where(diff / y <= -1.0, (np.log(x) - np.log(y)) / diff, np.log1p(diff / y) / diff)
                out = out * np.where(np.abs(diff) < 1e-9 * x, (1.0 + d / 2.0 + d * d / 3.0) / x, w)
    return out


def _density_points(rng):
    """Dirichlet points for n = 2..5, each also with its first two entries
    pulled to a relative gap on either side of the BKM series cutoff."""
    for n in range(2, 6):
        for _ in range(20):
            vals = rng.dirichlet(np.ones(n))
            yield tuple(vals.tolist())
            for rel in NEAR_CUTOFF:
                near = vals.copy()
                near[1] = near[0] * (1.0 - rel)
                yield tuple(near.tolist())


class TestMorozovaChentsov:
    def test_bures(self):
        assert _weight(MetricKind.BURES, 1.0, 3.0) == pytest.approx(0.5, abs=1e-15)

    def test_bkm_equal_arguments_limit(self):
        assert _weight(MetricKind.BKM, 2.0, 2.0) == pytest.approx(0.5, abs=1e-15)

    def test_bkm_generic(self):
        v = _weight(MetricKind.BKM, math.e, 1.0)
        assert v == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
        assert v == pytest.approx(0.58198, abs=1e-5)

    def test_hs_is_flat(self):
        # the flat density carries no weight: only the squared difference
        assert _density_batch(MetricKind.HS, np.array([[0.2, 0.9]]))[0] == (0.2 - 0.9) ** 2

    def test_positive_arguments_required(self):
        for metric in (MetricKind.BURES, MetricKind.BKM):
            with pytest.raises(DomainError):
                _density_batch(metric, np.array([[0.0, 1.0]]))

    def test_symmetry(self, rng, metric):
        for _ in range(100):
            x, y = rng.uniform(1e-6, 2.0, 2)
            pair, swapped = _density_batch(metric, np.array([[x, y], [y, x]]))
            assert pair == pytest.approx(swapped, rel=1e-12)
            if metric is not MetricKind.HS:
                assert _weight(metric, x, y) == pytest.approx(_weight(metric, y, x), rel=1e-12)

    def test_bkm_series_branch_is_continuous(self):
        x = 0.7
        below = _weight(MetricKind.BKM, x, x * (1 - 0.99e-9))
        above = _weight(MetricKind.BKM, x, x * (1 - 1.01e-9))
        assert below == pytest.approx(above, rel=1e-10)
        assert below == pytest.approx(1 / x, rel=1e-9)
        # both branches against a log1p oracle
        for y in (x * (1 - 0.5e-9), x * (1 - 2e-9), x * (1 - 1e-5)):
            oracle = math.log1p((x - y) / y) / (x - y)
            assert _weight(MetricKind.BKM, x, y) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("ratio", [1e-17, 1e-300])
    def test_bkm_widely_separated_arguments(self, ratio):
        # (x - y)/y rounds to -1 once x/y is below the float resolution
        x, y = ratio, 1.0
        expected = math.log(x / y) / (x - y)
        assert _weight(MetricKind.BKM, x, y) == pytest.approx(expected, rel=1e-14)
        assert _weight(MetricKind.BKM, y, x) == pytest.approx(expected, rel=1e-14)
        low_first, high_first = _density_batch(MetricKind.BKM, np.array([[x, y], [y, x]]))
        assert low_first == pytest.approx(high_first, rel=1e-14)


class TestRadialDensity:
    def test_hs_three_level_product(self):
        s = StateSpectrum((1 / 2, 1 / 3, 1 / 6))
        expected = (1 / 6) ** 2 * (1 / 3) ** 2 * (1 / 6) ** 2
        assert expected == pytest.approx(1 / 11664, rel=1e-12, abs=0.0)
        assert radial_density(MetricKind.HS, s) == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert radial_density(MetricKind.HS, s) == pytest.approx(8.5734e-5, rel=1e-4)

    def test_degenerate_spectrum_vanishes(self, metric):
        s = StateSpectrum((0.4, 0.4, 0.2))
        if metric is MetricKind.HS:
            assert radial_density(metric, s) == 0.0
        else:
            assert radial_density(metric, s) == pytest.approx(0.0, abs=1e-300)

    def test_boundary_rejected_for_monotone_metrics(self):
        s = StateSpectrum((1.0, 0.0))
        assert radial_density(MetricKind.HS, s) == 1.0
        for metric in (MetricKind.BURES, MetricKind.BKM):
            with pytest.raises(DomainError):
                radial_density(metric, s)

    def test_two_level_reduction_proportional_to_bloch_density(self, metric):
        # simplex density against the one-radial-coordinate form: constant ratio
        bloch = {
            MetricKind.HS: lambda r: r * r,
            MetricKind.BURES: lambda r: r * r / math.sqrt(1.0 - r * r),
            MetricKind.BKM: lambda r: r * math.atanh(r) / math.sqrt(1.0 - r * r),
        }[metric]
        rhos = np.linspace(0.01, 0.99, 100)
        ratios = []
        for rho in rhos:
            s = bloch_spectrum(rho)
            ratios.append(radial_density(metric, s) / bloch(rho))
        ratios = np.array(ratios)
        assert np.ptp(ratios) / ratios.mean() < 1e-10
        assert ratios.mean() == pytest.approx(BLOCH_FACTOR[metric], rel=1e-10)

    def test_hs_equals_squared_vandermonde(self, rng):
        for n in range(2, 7):
            vals = np.sort(rng.dirichlet(np.ones(n)))[::-1]
            s = StateSpectrum(tuple(vals))
            vander = np.prod([vals[i] - vals[j] for i in range(n) for j in range(i + 1, n)])
            det = np.linalg.det(np.vander(vals, increasing=True))
            assert abs(det) == pytest.approx(abs(vander), rel=1e-8)
            assert radial_density(MetricKind.HS, s) == pytest.approx(vander**2, rel=1e-10)

    def test_permutation_symmetry(self, rng, metric):
        for _ in range(50):
            vals = rng.dirichlet(np.ones(4))
            base = log_radial_density(metric, vals[None, :])[0]
            perm = rng.permutation(vals)
            assert log_radial_density(metric, perm[None, :])[0] == pytest.approx(base, rel=1e-12)


class TestDensityKernel:
    def test_bits_match_per_pair_loop(self, rng, metric):
        # every volume integrates this kernel: its bits must not move
        by_n = {}
        for vals in _density_points(rng):
            by_n.setdefault(len(vals), []).append(vals)
        by_n[2].append((1e-17, 1.0))  # BKM: x/y below the float resolution
        for rows in by_n.values():
            assert np.array_equal(_density_batch(metric, np.array(rows)), _numpy_pair_loop(metric, rows))

    def test_zero_last_entry(self):
        vals = (0.5, 0.3, 0.2, 0.0)
        assert _density_batch(MetricKind.HS, np.array([vals]))[0] == density_reference(MetricKind.HS, vals)
        for metric in (MetricKind.BURES, MetricKind.BKM):
            with pytest.raises(DomainError):
                _density_batch(metric, np.array([vals]))

    def test_batch_matches_scalar(self, rng, metric):
        # against the math-module reference: flat values are bit-identical,
        # the others differ by numpy's pow and log, a few ulps
        by_n = {}
        for vals in _density_points(rng):
            by_n.setdefault(len(vals), []).append(vals)
        by_n[2].append((1e-17, 1.0))  # BKM: x/y below the float resolution
        for rows in by_n.values():
            batch = _density_batch(metric, np.array(rows))
            scalar = np.array([density_reference(metric, vals) for vals in rows])
            if metric is MetricKind.HS:
                assert np.array_equal(batch, scalar)
            else:
                np.testing.assert_allclose(batch, scalar, rtol=4e-15, atol=0.0)
        if metric is not MetricKind.HS:
            with pytest.raises(DomainError):
                _density_batch(metric, np.array([[0.5, 0.3, 0.2, 0.0]]))

    def test_agrees_with_batch_log_density(self, rng, metric):
        # the log form takes its BKM weight from the density kernel; the
        # extra rows tie the first two entries exactly and to 1e-12
        ties = []
        for n in range(2, 6):
            vals = rng.dirichlet(np.ones(n))
            for rel in (0.0, 1e-12):
                tie = vals.copy()
                tie[1] = tie[0] * (1.0 - rel)
                ties.append(tuple(tie.tolist()))
        for vals in [*_density_points(rng), *ties]:
            batch = log_radial_density(metric, np.array([vals]))[0]
            density = density_reference(metric, vals)
            if density == 0.0:
                assert batch == -np.inf
                continue
            scalar = math.log(density)
            assert abs(scalar - batch) <= 1e-12 * max(1.0, abs(batch))


class TestQubitRadialDensity:
    def test_hs_value(self):
        assert _bloch_density(MetricKind.HS, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_bures_ratio_by_quadrature(self):
        # integrating the density itself reproduces the positive-ball weight
        num, _ = integrate.quad(lambda r: _bloch_density(MetricKind.BURES, r), 0, 1 / SQRT3)
        den, _ = integrate.quad(lambda r: _bloch_density(MetricKind.BURES, r), 0, 1)
        assert num / den == pytest.approx(0.09172, abs=2e-5)
        assert num / den == pytest.approx((2 / math.pi) * (math.asin(1 / SQRT3) - math.sqrt(2) / 3), rel=1e-8)

    def test_bkm_ratio_by_quadrature(self):
        num, _ = integrate.quad(lambda r: _bloch_density(MetricKind.BKM, r), 0, 1 / SQRT3)
        den, _ = integrate.quad(lambda r: _bloch_density(MetricKind.BKM, r), 0, 1)
        assert num / den == pytest.approx(0.0495506, abs=2e-7)

    def test_domain(self):
        assert _bloch_density(MetricKind.HS, 1.0) == 1.0
        assert _bloch_density(MetricKind.BKM, 0.0) == 0.0
        with pytest.raises(DomainError):
            _bloch_density(MetricKind.BURES, 1.0)
        with pytest.raises(DomainError):
            _bloch_density(MetricKind.HS, 1.5)


class TestQubitBallVolume:
    def test_hs_unit_ball(self):
        assert qubit_ball_volume(MetricKind.HS, 1.0) == pytest.approx(1 / 3, rel=1e-15)

    def test_bures_positive_fraction(self):
        ratio = qubit_ball_volume(MetricKind.BURES, 1 / SQRT3) / qubit_ball_volume(
            MetricKind.BURES, 1.0
        )
        assert ratio == pytest.approx(0.09172, abs=2e-5)

    def test_bkm_unit_ball_limit(self):
        assert qubit_ball_volume(MetricKind.BKM, 1.0) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_volume_is_antiderivative_of_density(self, metric):
        # central finite differences of the closed form match the density
        h = 1e-6
        for rho in np.linspace(0.05, 0.95, 100):
            deriv = (qubit_ball_volume(metric, rho + h) - qubit_ball_volume(metric, rho - h)) / (2 * h)
            assert deriv == pytest.approx(_bloch_density(metric, rho), rel=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            qubit_ball_volume(MetricKind.HS, 1.2)
