"""Monte Carlo samplers: target distributions, determinism, diagnostics."""

import math
import warnings

import numpy as np
import pytest
from matrix_reference import ginibre, qr_unitary, reference_spectra
from scipy import integrate, stats
from weighted_reference import one_shot_fraction, reference_weighted_spectra

from wignerq import (
    DomainError,
    McSpec,
    MetricKind,
    ModuliPoint,
    closed_indicator,
    kernel_for,
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


class TestClosedFormKernel:
    """The n <= 3 matrix-model kernel (Gram-Schmidt unitaries, closed-form
    spectra) against the LAPACK chain of ``matrix_reference``."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("bures", [False, True], ids=["hs", "bures"])
    def test_matches_lapack_oracle_across_batches(self, bures, n):
        # two workers, each with one full batch and a partial one
        samples = 2 * sampling_mod._EIG_BATCH + 2_000
        spec = McSpec(samples=samples, seed=2024 + n, workers=2)
        arr = (sample_bures_spectra if bures else sample_hs_spectra)(n, spec)
        ref = reference_spectra(bures, n, samples, spec.seed, spec.workers, sampling_mod._EIG_BATCH)
        assert arr.shape == ref.shape == (samples, n)
        assert np.abs(arr - ref).max() <= 1e-12
        assert (np.diff(arr, axis=1) <= 0.0).all()
        assert np.abs(arr.sum(axis=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("bures", [False, True], ids=["hs", "bures"])
    def test_four_levels_keep_the_lapack_chain(self, bures):
        spec = McSpec(samples=3_000, seed=11, workers=2)
        arr = (sample_bures_spectra if bures else sample_hs_spectra)(4, spec)
        ref = reference_spectra(bures, 4, spec.samples, spec.seed, spec.workers, sampling_mod._EIG_BATCH)
        assert np.array_equal(arr, ref)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gram_schmidt_unitary_is_phase_fixed_qr(self, n):
        z = ginibre(np.random.default_rng(5), 20_000, n)
        u = sampling_mod._gram_schmidt_unitary(sampling_mod._by_component(z)).transpose(2, 0, 1)
        defect = u @ u.conj().swapaxes(1, 2) - np.eye(n)
        assert np.abs(defect).sum(axis=2).max() <= 1e-13
        assert np.abs(u - qr_unitary(z)).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    def test_gram_schmidt_stays_orthonormal_when_ill_conditioned(self, n):
        # the last column within 1e-7 of the first: condition number ~1e7,
        # where a single Gram-Schmidt pass loses orthogonality
        z = ginibre(np.random.default_rng(6), 2_000, n)
        z[:, :, -1] = z[:, :, 0] + 1e-7 * ginibre(np.random.default_rng(7), 2_000, n)[:, :, 0]
        u = sampling_mod._gram_schmidt_unitary(sampling_mod._by_component(z)).transpose(2, 0, 1)
        defect = u @ u.conj().swapaxes(1, 2) - np.eye(n)
        assert np.abs(defect).sum(axis=2).max() <= 1e-13
        r = u.conj().swapaxes(1, 2) @ z
        assert np.abs(np.tril(r, -1)).max() <= 1e-12
        d = np.einsum("...ii->...i", r)
        assert (d.real > 0.0).all() and np.abs(d.imag).max() <= 1e-12

    @staticmethod
    def _hermitian(n, seed):
        h = ginibre(np.random.default_rng(seed), 1, n)[0]
        return (h + h.conj().T) / 2.0

    def _degenerate_cases(self):
        v = np.array([[1.0], [2.0j], [-0.5]])
        yield np.eye(3)  # triple eigenvalue
        # nearly triple, not nearly double: the middle root's rounding can
        # cross an outer one in about one row in a hundred
        h = ginibre(np.random.default_rng(4), 2_000, 3)
        yield np.eye(3) + 1e-16 * (h + h.conj().swapaxes(1, 2))
        yield np.diag([1.0, 1.0, 0.5]) + 1e-12 * self._hermitian(3, 1)
        yield np.diag([1.0, 0.5, 0.5]) + 1e-8 * self._hermitian(3, 2)
        yield v @ v.conj().T  # rank 1: a double zero
        yield np.diag([1.0, 1e-9, 0.0])
        for gap in (1e-2, 1e-3, 3e-4, 1e-4):  # either side of the eigvalsh hand-off
            yield np.diag([1.0, 0.5 + gap, 0.5]) + 1e-3 * gap * self._hermitian(3, 3)
        # multiples of I: det / larger rounds above the larger in about one row in thirty
        yield np.eye(2) * np.random.default_rng(8).uniform(0.5, 1.5, 2_000)[:, None, None]
        yield np.diag([2.0, 1.0])  # w01 = 0
        yield np.diag([1.0, 1.0])
        yield np.array([[1.0, 0.5j], [-0.5j, 1.0]])  # w00 = w11
        yield np.array([[0.3, 1e-9 + 1e-9j], [1e-9 - 1e-9j, 0.3]])

    def test_degenerate_inputs_match_eigvalsh(self):
        for w in self._degenerate_cases():
            # at least two rows, so the hand-off's row indexing is exercised
            stack = w if w.ndim == 3 else np.stack([w, 3.0 * w])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ev = sampling_mod._closed_form_eigvals(sampling_mod._by_component(stack))
            ev = ev / ev.sum(axis=1, keepdims=True)
            ref = np.linalg.eigvalsh(stack)[:, ::-1]
            ref = ref / ref.sum(axis=1, keepdims=True)
            assert np.isfinite(ev).all()
            assert (np.diff(ev, axis=1) <= 0.0).all()
            assert np.abs(ev - ref).max() <= 1e-12, stack[0]


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
        p, se, ess = positive_fraction_weighted(metric, 2, qubit_kernel_spectrum(), McSpec(samples=200_000, seed=seed))
        assert 0.0 < ess <= 200_000
        assert abs(p - closed_indicator(metric, 2).value) < 3 * se

    @pytest.mark.parametrize("metric, seed", [(MetricKind.HS, 34), (MetricKind.BURES, 35), (MetricKind.BKM, 36)])
    def test_three_level_rare_fraction_against_cubature(self, metric, seed):
        kernel = qutrit_kernel_spectrum(math.pi / 6)
        exact = orbit_volume_simplex(metric, 3, kernel).value / orbit_volume_simplex(metric, 3).value
        p, se, _ = positive_fraction_weighted(metric, 3, kernel, McSpec(samples=200_000, seed=seed))
        assert abs(p - exact) < 3 * se

    def test_zero_hits_floor_counts_effective_samples(self):
        # about 1% of Dirichlet(1/2) draws land in this kernel's positive
        # region; these 50 miss it, so the spread is 0
        kernel = kernel_for(ModuliPoint.from_direction(4, (1.0, 0.0, 0.0)))
        p, se, ess = positive_fraction_weighted(MetricKind.HS, 4, kernel, McSpec(samples=50, seed=1))
        assert p == 0.0
        assert 1.0 < ess < 50.0
        assert se == 1.0 / (int(ess) + 1)

    def test_one_level_rejected(self):
        with pytest.raises(DomainError):
            sample_weighted_spectra(MetricKind.BKM, 1, McSpec(samples=10))
        with pytest.raises(DomainError):
            positive_fraction_weighted(MetricKind.BKM, 1, qubit_kernel_spectrum(), McSpec(samples=10))


#: A positive region of each n with a fraction of 1e-4 to 0.2, so that a
#: few thousand draws hit it.
_STREAM_KERNELS = {
    2: lambda: qubit_kernel_spectrum(),
    3: lambda: qutrit_kernel_spectrum(math.pi / 6),
    4: lambda: kernel_for(ModuliPoint.from_direction(4, (0.0, 0.0, -1.0))),
}


class TestStreamingEstimator:
    """The batched sampler and the streaming estimator against the whole
    draw of ``weighted_reference``: equal spectra bit for bit, equal
    estimates to rounding."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batched_draw_is_one_dirichlet_call(self, workers):
        # 2.5 batches, so each worker crosses a batch boundary
        samples = 5 * sampling_mod._EIG_BATCH // 2
        spec = McSpec(samples=samples, seed=41, workers=workers)
        arr, log_w = sample_weighted_spectra(MetricKind.BKM, 3, spec)
        ref, log_ref = reference_weighted_spectra(MetricKind.BKM, 3, samples, spec.seed, workers)
        assert np.array_equal(arr, ref)
        assert np.array_equal(log_w, log_ref)

    @pytest.mark.parametrize("samples", [3_000, 5 * sampling_mod._EIG_BATCH // 2], ids=["below-batch", "2.5-batches"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_one_shot_estimate(self, metric, n, workers, samples):
        kernel = _STREAM_KERNELS[n]()
        spec = McSpec(samples=samples, seed=7 * n + workers, workers=workers)
        got = positive_fraction_weighted(metric, n, kernel, spec)
        want = one_shot_fraction(*reference_weighted_spectra(metric, n, samples, spec.seed, workers), kernel)
        assert want[0] > 0.0
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_hits_get_the_ess_floor(self, metric, workers):
        # none of these 50 draws lands in the kernel's positive region
        kernel = kernel_for(ModuliPoint.from_direction(4, (1.0, 0.0, 0.0)))
        spec = McSpec(samples=50, seed=1, workers=workers)
        p, se, ess = positive_fraction_weighted(metric, 4, kernel, spec)
        want = one_shot_fraction(*reference_weighted_spectra(metric, 4, 50, 1, workers), kernel)
        assert p == 0.0
        assert se == 1.0 / (int(ess) + 1)
        assert (p, se, ess) == pytest.approx(want, rel=1e-12, abs=0.0)


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
