"""Monte Carlo samplers: target distributions, determinism, diagnostics."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from wignerq import (
    DomainError,
    McSpec,
    MetricKind,
    closed_indicator,
    orbit_volume_simplex,
    qubit_ball_volume,
    qubit_kernel_spectrum,
    qutrit_kernel_spectrum,
    sample_bures_spectra,
    sample_hs_spectra,
    sample_mcmc_spectra,
    sample_weighted_spectra,
)
from wignerq.integrate import positive_fraction_iid, positive_fraction_mcmc, positive_fraction_weighted
from wignerq.integrate import sampling as sampling_mod

SQRT3 = math.sqrt(3.0)


class TestMcSpec:
    def test_validation(self):
        McSpec(samples=10)
        with pytest.raises(DomainError):
            McSpec(samples=0)
        with pytest.raises(DomainError):
            McSpec(samples=5, seed=-1)
        with pytest.raises(DomainError):
            McSpec(samples=5, workers=0)
        with pytest.raises(DomainError):
            McSpec(samples=5, thin=0)


class TestDeterminism:
    def test_hs_fixed_seed_bit_identical(self):
        spec = McSpec(samples=2_000, seed=99, workers=2)
        assert np.array_equal(sample_hs_spectra(2, spec), sample_hs_spectra(2, spec))

    def test_bures_fixed_seed_bit_identical(self):
        spec = McSpec(samples=2_000, seed=99, workers=2)
        assert np.array_equal(sample_bures_spectra(3, spec), sample_bures_spectra(3, spec))

    def test_mcmc_fixed_seed_bit_identical(self):
        spec = McSpec(samples=2_000, seed=99, workers=2, burn_in=200, chains_per_worker=8)
        a = sample_mcmc_spectra(MetricKind.HS, 2, spec)
        b = sample_mcmc_spectra(MetricKind.HS, 2, spec)
        assert np.array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_pool_failure_warns_and_runs_sequentially(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise OSError("process pool refused")

        jobs = [(False, 2, 500, 99, i) for i in range(2)]
        sequential = sampling_mod._map_ordered(sampling_mod._matrix_chunk, jobs, 1)
        monkeypatch.setattr(sampling_mod, "ProcessPoolExecutor", no_pool)
        with pytest.warns(RuntimeWarning, match=r"2 workers.*process pool refused"):
            fallback = sampling_mod._map_ordered(sampling_mod._matrix_chunk, jobs, 2)
        assert len(fallback) == len(sequential) == 2
        assert all(np.array_equal(a, b) for a, b in zip(fallback, sequential))

    @pytest.mark.parametrize("seed", [0, 7, 123456])
    def test_worker_stream_is_spawned_child(self, seed):
        # the O(1) construction gives the child that spawn(workers)[index] gives
        for workers in range(1, 6):
            children = np.random.SeedSequence(seed).spawn(workers)
            for index, child in enumerate(children):
                direct = np.random.SeedSequence(seed, spawn_key=(index,))
                assert np.array_equal(direct.generate_state(8), child.generate_state(8))
                expected = np.random.Generator(np.random.PCG64(child)).bit_generator.state
                assert sampling_mod._worker_rng(seed, index).bit_generator.state == expected

    def test_worker_split_changes_stream(self):
        one = sample_hs_spectra(2, McSpec(samples=1_000, seed=99, workers=1))
        two = sample_hs_spectra(2, McSpec(samples=1_000, seed=99, workers=2))
        assert not np.array_equal(one, two)

    def test_batches_bounded_in_matrix_entries(self, monkeypatch):
        # the temporaries grow with rows * n^2, so the row batch shrinks with n
        shapes = []
        ginibre = sampling_mod._ginibre

        def recording(rng, m, n):
            shapes.append((m, n))
            return ginibre(rng, m, n)

        monkeypatch.setattr(sampling_mod, "_ginibre", recording)
        arr = sample_hs_spectra(12, McSpec(samples=20_000))
        assert arr.shape == (20_000, 12)
        assert len(shapes) > 1
        assert all(m * n * n <= 16 * sampling_mod._EIG_BATCH for m, n in shapes)
        assert sum(m for m, _ in shapes) == 20_000


class TestHsSampler:
    def test_rows_are_sorted_distributions(self):
        arr = sample_hs_spectra(3, McSpec(samples=500, seed=1))
        assert arr.shape == (500, 3)
        assert np.allclose(arr.sum(axis=1), 1.0, atol=1e-12)
        assert (np.diff(arr, axis=1) <= 1e-15).all()

    def test_two_level_positive_fraction(self):
        arr = sample_hs_spectra(2, McSpec(samples=400_000, seed=2))
        p, se = positive_fraction_iid(arr, qubit_kernel_spectrum())
        assert abs(p - 1 / (3 * SQRT3)) < 3 * se

    def test_two_level_mean_against_quadrature_oracle(self):
        # E[r1] under the flat radial weight, by independent 1-D quadrature
        num, _ = integrate.quad(lambda rho: (1 + rho) / 2 * rho**2, 0, 1)
        den, _ = integrate.quad(lambda rho: rho**2, 0, 1)
        expected = num / den
        arr = sample_hs_spectra(2, McSpec(samples=200_000, seed=3))
        se = arr[:, 0].std(ddof=1) / math.sqrt(arr.shape[0])
        assert abs(arr[:, 0].mean() - expected) < 3 * se

    def test_three_level_mean_against_quadrature_oracle(self):
        # E[r1] under the flat measure in polar coordinates, as a 2-D oracle
        def largest(r, phi):
            return 1 / 3 - (2 * r / SQRT3) * math.cos((phi + 2 * math.pi) / 3)

        def weight(r, phi):
            return r**7 * math.sin(phi) ** 2

        bound = lambda phi: 1 / (2 * SQRT3 * math.cos(phi / 3))
        num, _ = integrate.dblquad(lambda r, phi: largest(r, phi) * weight(r, phi), 0, math.pi, 0, bound)
        den, _ = integrate.dblquad(weight, 0, math.pi, 0, bound)
        expected = num / den
        arr = sample_hs_spectra(3, McSpec(samples=200_000, seed=4))
        se = arr[:, 0].std(ddof=1) / math.sqrt(arr.shape[0])
        assert abs(arr[:, 0].mean() - expected) < 3 * se


class TestBuresSampler:
    def test_two_level_positive_fraction(self):
        arr = sample_bures_spectra(2, McSpec(samples=400_000, seed=5))
        p, se = positive_fraction_iid(arr, qubit_kernel_spectrum())
        assert abs(p - 0.09172) < 3 * se

    def test_radius_distribution_kolmogorov_smirnov(self):
        arr = sample_bures_spectra(2, McSpec(samples=100_000, seed=6))
        radii = arr[:, 0] - arr[:, 1]
        vol1 = qubit_ball_volume(MetricKind.BURES, 1.0)
        cdf = np.vectorize(lambda R: qubit_ball_volume(MetricKind.BURES, min(max(R, 0.0), 1.0)) / vol1)
        result = stats.kstest(radii, cdf)
        assert result.pvalue > 0.01

    def test_radius_cdf_pointwise(self):
        arr = sample_bures_spectra(2, McSpec(samples=200_000, seed=7))
        radii = arr[:, 0] - arr[:, 1]
        vol1 = qubit_ball_volume(MetricKind.BURES, 1.0)
        for R in (0.25, 0.5, 0.75):
            expected = qubit_ball_volume(MetricKind.BURES, R) / vol1
            p = (radii <= R).mean()
            se = math.sqrt(expected * (1 - expected) / radii.size)
            assert abs(p - expected) < 4 * se


class TestWeightedSampler:
    def test_fixed_seed_bit_identical(self):
        spec = McSpec(samples=2_000, seed=99, workers=2)
        a, log_a = sample_weighted_spectra(MetricKind.BKM, 3, spec)
        b, log_b = sample_weighted_spectra(MetricKind.BKM, 3, spec)
        assert np.array_equal(a, b)
        assert np.array_equal(log_a, log_b)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_rows_are_sorted_distributions_with_finite_weights(self, metric):
        arr, log_w = sample_weighted_spectra(metric, 4, McSpec(samples=5_000, seed=14, workers=2))
        assert arr.shape == (5_000, 4) and log_w.shape == (5_000,)
        assert np.allclose(arr.sum(axis=1), 1.0, atol=1e-12)
        assert (np.diff(arr, axis=1) <= 0.0).all()
        assert np.isfinite(log_w).all()

    @pytest.mark.parametrize("metric, seed", [(MetricKind.HS, 31), (MetricKind.BURES, 32), (MetricKind.BKM, 33)])
    def test_two_level_positive_fraction(self, metric, seed):
        arr, log_w = sample_weighted_spectra(metric, 2, McSpec(samples=200_000, seed=seed))
        p, se, ess = positive_fraction_weighted(arr, log_w, qubit_kernel_spectrum())
        assert 0.0 < ess <= 200_000
        assert abs(p - closed_indicator(metric, 2).value) < 3 * se

    @pytest.mark.parametrize("metric, seed", [(MetricKind.HS, 34), (MetricKind.BURES, 35), (MetricKind.BKM, 36)])
    def test_three_level_rare_fraction_against_cubature(self, metric, seed):
        kernel = qutrit_kernel_spectrum(math.pi / 6)
        exact = orbit_volume_simplex(metric, 3, kernel).value / orbit_volume_simplex(metric, 3).value
        arr, log_w = sample_weighted_spectra(metric, 3, McSpec(samples=200_000, seed=seed))
        p, se, _ = positive_fraction_weighted(arr, log_w, kernel)
        assert abs(p - exact) < 3 * se

    def test_zero_hits_floor_counts_effective_samples(self):
        # every row lies outside the positive ball, so the spread is 0
        arr = np.tile([0.95, 0.05], (40, 1))
        log_w = np.random.default_rng(15).normal(size=40)
        p, se, ess = positive_fraction_weighted(arr, log_w, qubit_kernel_spectrum())
        assert p == 0.0
        assert 1.0 < ess < 40.0
        assert se == 1.0 / (int(ess) + 1)

    def test_one_level_rejected(self):
        with pytest.raises(DomainError):
            sample_weighted_spectra(MetricKind.BKM, 1, McSpec(samples=10))


class TestMcmcSampler:
    def test_bkm_two_level_positive_fraction(self):
        res = sample_mcmc_spectra(MetricKind.BKM, 2, McSpec(samples=200_000, seed=8))
        p, se = positive_fraction_mcmc(res, qubit_kernel_spectrum())
        assert abs(p - 0.0495506) < 3 * se

    def test_hs_three_level_rare_fraction(self):
        res = sample_mcmc_spectra(MetricKind.HS, 3, McSpec(samples=400_000, seed=9))
        p, se = positive_fraction_mcmc(res, qutrit_kernel_spectrum(math.pi / 6))
        assert abs(p - 0.000675) < 3 * se

    def test_hs_two_level_cross_validates_matrix_model(self):
        res = sample_mcmc_spectra(MetricKind.HS, 2, McSpec(samples=200_000, seed=10))
        p1, se1 = positive_fraction_mcmc(res, qubit_kernel_spectrum())
        arr = sample_hs_spectra(2, McSpec(samples=200_000, seed=11))
        p2, se2 = positive_fraction_iid(arr, qubit_kernel_spectrum())
        assert abs(p1 - p2) < 3 * math.hypot(se1, se2)

    def test_chain_layout_and_diagnostics(self):
        spec = McSpec(samples=1_000, seed=12, workers=2, burn_in=500, thin=5, chains_per_worker=4)
        res = sample_mcmc_spectra(MetricKind.BURES, 3, spec)
        chains = spec.workers * spec.chains_per_worker
        per_chain = math.ceil(spec.samples / chains)
        assert res.samples.shape == (chains, per_chain, 3)
        assert res.flat.shape == (chains * per_chain, 3)
        assert np.allclose(res.flat.sum(axis=1), 1.0, atol=1e-9)
        assert 0.1 <= res.acceptance_rate <= 0.9
        assert res.warnings == ()

    def test_acceptance_window_warning(self, monkeypatch):
        monkeypatch.setattr(sampling_mod, "_ACCEPT_WINDOW", (0.999, 1.0))
        res = sample_mcmc_spectra(MetricKind.HS, 2, McSpec(samples=500, seed=13, burn_in=100))
        assert len(res.warnings) == 1
        assert "acceptance rate" in res.warnings[0]


def test_fraction_estimators_shapes():
    arr = sample_hs_spectra(2, McSpec(samples=1_000, seed=17))
    p, se = positive_fraction_iid(arr, qubit_kernel_spectrum())
    assert 0.0 <= p <= 1.0 and se > 0.0
    with pytest.raises(DomainError):
        positive_fraction_iid(arr, qutrit_kernel_spectrum(0.1))


class TestFractionErrorNeverZero:
    MIXED = 0.5  # the maximally mixed qubit is inside the positive cone

    def test_iid_all_inside(self):
        p, se = positive_fraction_iid(np.full((40, 2), self.MIXED), qubit_kernel_spectrum())
        assert (p, se) == (1.0, 1.0 / 41)

    @pytest.mark.parametrize("chains", [1, 4])
    def test_chain_all_inside(self, chains):
        res = sampling_mod.McmcResult(
            samples=np.full((chains, 25, 2), self.MIXED), acceptance_rate=0.4, step_scale=1.0,
            warnings=(),
        )
        p, se = positive_fraction_mcmc(res, qubit_kernel_spectrum())
        assert p == 1.0
        assert se == 1.0 / (chains + 1) > 0.0
