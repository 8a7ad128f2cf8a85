"""Monte Carlo samplers: target distributions, determinism, diagnostics."""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from matrix_reference import reference_spectra
from scipy import integrate, optimize, special, stats
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
    qutrit_kernel_spectrum,
)
from wignerq.integrate import sampling as sampling_mod
from wignerq.integrate.sampling import (
    positive_fraction,
    positive_fraction_iid,
    positive_fraction_mcmc,
    sample_bures_spectra,
    sample_hs_spectra,
    sample_mcmc_spectra,
    sample_spectra,
)
from wignerq.measures import log_radial_density
from wignerq.positivity import DEFAULT_CONE_TOL, min_pairing_batch

SQRT3 = math.sqrt(3.0)
QUBIT_KERNEL = kernel_for(ModuliPoint.qubit())


def _refuse_process_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise OSError("process pool refused")

    # the pool is imported where it starts, so it is patched at its source
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)


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
        jobs = [(sampling_mod._matrix_batches, MetricKind.HS, 2, 500, 99, i) for i in range(2)]
        sequential, none = sampling_mod._map_ordered(sampling_mod._drawn, jobs, 1)
        _refuse_process_pool(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fallback is reported in the result, not raised
            fallback, (warning,) = sampling_mod._map_ordered(sampling_mod._drawn, jobs, 2)
        assert none == ()
        assert re.search(r"2 workers.*process pool refused.*ran sequentially", warning)
        assert len(fallback) == len(sequential) == 2
        assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]) for a, b in zip(fallback, sequential))

    @pytest.mark.parametrize("metric, sampler", [
        (MetricKind.BKM, "weighted"), (MetricKind.HS, "matrix"),
    ])
    def test_pool_failure_reaches_the_result_warnings(self, metric, sampler, monkeypatch):
        # the estimate importance-samples; the draws come from the metric's own sampler
        assert sampling_mod.sampler_for(metric) == sampler
        spec = McSpec(samples=2_000, seed=99, workers=2)
        _refuse_process_pool(monkeypatch)
        p, se, meta, found = positive_fraction(metric, 2, QUBIT_KERNEL, spec)
        assert 0.0 < p < 1.0 and se > 0.0 and meta["workers"] == 2
        assert len(found) == 1 and re.search(r"2 workers.*process pool refused", found[0])
        assert sample_spectra(metric, 2, spec, sampler)[2] == found

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
        p, se, _ = positive_fraction_iid(MetricKind.HS, 2, QUBIT_KERNEL, McSpec(samples=400_000, seed=2))
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

    def test_matrix_draw_keeps_no_log_weights(self):
        # the matrix models' log weights are all 0 and are not stored, so
        # the memory beyond the spectra is one batch's, whatever the count
        extra = []
        for samples in (500_000, 1_000_000):
            tracemalloc.start()
            try:
                arr, log_w, _ = sample_spectra(MetricKind.HS, 2, McSpec(samples, seed=21), "matrix")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert log_w is None
            extra.append(peak - arr.nbytes)
        assert extra[1] <= extra[0] + 2 ** 20


class TestBuresSampler:
    def test_two_level_positive_fraction(self):
        p, se, _ = positive_fraction_iid(MetricKind.BURES, 2, QUBIT_KERNEL, McSpec(samples=400_000, seed=5))
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


class TestRejectionDraw:
    """The HS and Bures draws at n <= 5, by rejection from the Dirichlet(1/2)
    proposal: bounds at the weight's supremum, and the law of the LAPACK
    chain of ``matrix_reference``."""

    @staticmethod
    def _weight(metric, r):
        """The weight, density over proposal, at one spectrum, written out."""
        pairs = math.prod((x - y) ** 2 * (1.0 if metric is MetricKind.HS else 2.0 / (x + y))
                          for x, y in itertools.combinations(r, 2))
        return pairs * math.sqrt(math.prod(r)) if metric is MetricKind.HS else pairs

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hs_bounds_are_at_the_hermite_zeros(self, n):
        # Stieltjes: the maximizer is r_i = h_i^2 / sum h_j^2 over the positive zeros h_i of H_2n
        h = special.roots_hermite(2 * n)[0]
        r = h[h > 0.0] ** 2 / (h[h > 0.0] ** 2).sum()
        assert sampling_mod._SUP_WEIGHT[MetricKind.HS][n] == pytest.approx(self._weight(MetricKind.HS, r), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("metric", [MetricKind.HS, MetricKind.BURES], ids=["hs", "bures"])
    def test_no_local_search_beats_the_bounds(self, metric, n):
        # Nelder-Mead on the log weight from 12 starts, at r = |y| / sum |y|,
        # which reaches every facet; the best search attains each bound, so
        # none is loose either
        sup = sampling_mod._SUP_WEIGHT[metric][n]
        rng = np.random.default_rng(60 + n)
        best = 0.0
        for _ in range(12):
            res = optimize.minimize(
                lambda y: -math.log(self._weight(metric, np.abs(y) / np.abs(y).sum()) or 1e-300), rng.random(n),
                method="Nelder-Mead", options={"xatol": 1e-9, "fatol": 1e-15, "maxfev": 5_000},
            )
            best = max(best, self._weight(metric, np.abs(res.x) / np.abs(res.x).sum()))
        assert sup * (1.0 - 1e-9) <= best <= sup * (1.0 + 1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("metric", [MetricKind.HS, MetricKind.BURES], ids=["hs", "bures"])
    def test_no_weight_exceeds_its_bound(self, metric, n):
        rng = np.random.default_rng(70 + n)
        top = max(sampling_mod._acceptance_weight(metric, sampling_mod._half_dirichlet_columns(rng, 1 << 17, n)).max()
                  for _ in range(8))  # about 10^6 proposals
        assert top <= sampling_mod._SUP_WEIGHT[metric][n]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("bures", [False, True], ids=["hs", "bures"])
    def test_coordinates_follow_the_lapack_chain(self, bures, n):
        # two-sample Kolmogorov-Smirnov of each sorted coordinate, judged at
        # the asymptotic critical value of level 1e-3: D < sqrt(-ln(5e-4) / 2) * sqrt(2 / rows)
        rows = 40_000
        spec = McSpec(samples=rows, seed=80 + n, workers=2)
        drawn = (sample_bures_spectra if bures else sample_hs_spectra)(n, spec)
        want = reference_spectra(bures, n, rows, 90 + n, 1, 1 << 14)
        assert (np.diff(drawn, axis=1) <= 0.0).all()
        assert np.abs(drawn.sum(axis=1) - 1.0).max() <= 1e-12
        critical = math.sqrt(-math.log(5e-4) / 2.0) * math.sqrt(2.0 / rows)
        for k in range(n):
            assert stats.ks_2samp(drawn[:, k], want[:, k]).statistic < critical, k

    @pytest.mark.parametrize("bures", [False, True], ids=["hs", "bures"])
    def test_six_levels_keep_the_lapack_chain(self, bures):
        spec = McSpec(samples=3_000, seed=11, workers=2)
        arr = (sample_bures_spectra if bures else sample_hs_spectra)(6, spec)
        ref = reference_spectra(bures, 6, spec.samples, spec.seed, spec.workers, 16 * sampling_mod._EIG_BATCH // 36)
        assert np.array_equal(arr, ref)


class TestWeightedSampler:
    def test_fixed_seed_bit_identical(self):
        spec = McSpec(samples=2_000, seed=99, workers=2)
        a, log_a = sample_spectra(MetricKind.BKM, 3, spec, "weighted")[:2]
        b, log_b = sample_spectra(MetricKind.BKM, 3, spec, "weighted")[:2]
        assert np.array_equal(a, b)
        assert np.array_equal(log_a, log_b)

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_rows_are_sorted_distributions_with_finite_weights(self, metric):
        arr, log_w = sample_spectra(metric, 4, McSpec(samples=5_000, seed=14, workers=2), "weighted")[:2]
        assert arr.shape == (5_000, 4) and log_w.shape == (5_000,)
        assert np.allclose(arr.sum(axis=1), 1.0, atol=1e-12)
        assert (np.diff(arr, axis=1) <= 0.0).all()
        assert np.isfinite(log_w).all()

    @pytest.mark.parametrize("metric, seed", [(MetricKind.HS, 31), (MetricKind.BURES, 32), (MetricKind.BKM, 33)])
    def test_two_level_positive_fraction(self, metric, seed):
        p, se, meta, _ = positive_fraction(metric, 2, QUBIT_KERNEL, McSpec(samples=200_000, seed=seed))
        assert 0.0 < meta["ess"] <= 200_000
        assert abs(p - closed_indicator(metric, 2).value) < 3 * se

    @pytest.mark.parametrize("metric, seed", [(MetricKind.HS, 34), (MetricKind.BURES, 35), (MetricKind.BKM, 36)])
    def test_three_level_rare_fraction_against_cubature(self, metric, seed):
        kernel = qutrit_kernel_spectrum(math.pi / 6)
        exact = orbit_volume_simplex(metric, 3, kernel).value / orbit_volume_simplex(metric, 3).value
        p, se, _, _ = positive_fraction(metric, 3, kernel, McSpec(samples=200_000, seed=seed))
        assert abs(p - exact) < 3 * se

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_draw_is_dirichlet_half(self, n):
        # two-sample Kolmogorov-Smirnov of each sorted coordinate against
        # numpy's gamma-based Dirichlet, judged at the asymptotic critical
        # value of level 1e-3: D < sqrt(-ln(5e-4) / 2) * sqrt(2 / rows)
        rows = 100_000
        drawn = sample_spectra(MetricKind.BKM, n, McSpec(samples=rows, seed=2024), "weighted")[0]
        want = -np.sort(-np.random.default_rng(2025).dirichlet(np.full(n, 0.5), rows), axis=1)
        critical = math.sqrt(-math.log(5e-4) / 2.0) * math.sqrt(2.0 / rows)
        for k in range(n):
            assert stats.ks_2samp(drawn[:, k], want[:, k]).statistic < critical, k

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_error_bars_are_calibrated(self, metric):
        # z = (p - exact) / error over 400 seeds of 2,000 draws: mean 0 and
        # sd 1 within about 4 of their standard errors (0.05 and 0.035), and
        # no more than 5 beyond 3 sigma, where about 1 is expected
        exact = closed_indicator(metric, 2).value
        z = np.array([
            (p - exact) / se
            for p, se, _, _ in (positive_fraction(metric, 2, QUBIT_KERNEL, McSpec(2_000, seed=s)) for s in range(400))
        ])
        assert abs(z.mean()) <= 0.2
        assert 0.85 <= z.std(ddof=1) <= 1.15
        assert (np.abs(z) > 3.0).sum() <= 5

    def test_zero_hits_floor_counts_effective_samples(self):
        # about 1% of Dirichlet(1/2) draws land in this kernel's positive
        # region; these 50 miss it, so the spread is 0
        kernel = kernel_for(ModuliPoint.from_direction(4, (1.0, 0.0, 0.0)))
        p, se, meta, _ = positive_fraction(MetricKind.HS, 4, kernel, McSpec(samples=50, seed=1))
        ess = meta["ess"]
        assert p == 0.0
        assert 1.0 < ess < 50.0
        assert se == 1.0 / (int(ess) + 1)

    def test_one_worker_draw_is_not_copied(self):
        # one worker's preallocated arrays are the result: no concatenated
        # copy doubles the peak, and only a batch's temporaries are added
        tracemalloc.start()
        try:
            arr, log_w, _ = sample_spectra(MetricKind.BKM, 3, McSpec(500_000, seed=21), "weighted")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (arr.nbytes + log_w.nbytes)

    def test_one_level_rejected(self):
        with pytest.raises(DomainError):
            sample_spectra(MetricKind.BKM, 1, McSpec(samples=10), "weighted")
        with pytest.raises(DomainError):
            positive_fraction(MetricKind.BKM, 1, QUBIT_KERNEL, McSpec(samples=10))


#: A positive region of each n with a fraction of 1e-4 to 0.2, so that a
#: few thousand draws hit it.
_STREAM_KERNELS = {
    2: lambda: QUBIT_KERNEL,
    3: lambda: qutrit_kernel_spectrum(math.pi / 6),
    4: lambda: kernel_for(ModuliPoint.from_direction(4, (0.0, 0.0, -1.0))),
}


def _assert_log_weights_agree(got, want):
    """``-inf`` on the same rows, the finite rows within 1e-13 * max(1, |log w|)."""
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert (got[~finite] == -np.inf).all() and (want[~finite] == -np.inf).all()
    assert (np.abs(got[finite] - want[finite]) <= 1e-13 * np.maximum(1.0, np.abs(want[finite]))).all()


class TestStreamingEstimator:
    """The batched sampler and the streaming estimator against the whole
    draw of ``weighted_reference``: equal spectra bit for bit, equal
    estimates to rounding."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_batched_draw_is_one_standard_normal_call(self, workers):
        # 2.5 batches, so each worker crosses a batch boundary
        samples = 5 * sampling_mod._WEIGHTED_BATCH // 2
        spec = McSpec(samples=samples, seed=41, workers=workers)
        arr, log_w = sample_spectra(MetricKind.BKM, 3, spec, "weighted")[:2]
        ref, log_ref = reference_weighted_spectra(MetricKind.BKM, 3, samples, spec.seed, workers)
        assert np.array_equal(arr, ref)
        _assert_log_weights_agree(log_w, log_ref)

    def test_large_n_log_weights_stay_finite(self, metric):
        # a product over the 780 pairs per row underflows; a sum of their logs does not
        spec = McSpec(samples=4_000, seed=5, workers=1)
        arr, log_w = sample_spectra(metric, 40, spec, "weighted")[:2]
        ref, log_ref = reference_weighted_spectra(metric, 40, spec.samples, spec.seed, 1)
        assert np.array_equal(arr, ref)
        assert np.isfinite(log_ref).all()
        _assert_log_weights_agree(log_w, log_ref)

    def test_boundary_rows_get_log_weight_minus_inf(self, metric, monkeypatch):
        rows = np.array([[0.5, 0.5, 0.0], [0.0, 0.3, 0.7], [0.2, 0.3, 0.5], [0.0, 0.0, 1.0]])
        boundary = (rows <= 0.0).any(axis=1)
        assert (log_radial_density(metric, rows)[boundary] == -np.inf).all()
        assert np.isfinite(log_radial_density(metric, rows)[~boundary]).all()

        monkeypatch.setattr(sampling_mod, "_half_dirichlet_columns", lambda rng, m, n: rows[:m].T.copy())
        arr, log_w = sample_spectra(metric, 3, McSpec(samples=len(rows), seed=0, workers=1), "weighted")[:2]
        assert np.array_equal(arr, -np.sort(-rows, axis=1))
        with np.errstate(divide="ignore"):
            want = log_radial_density(metric, arr) + 0.5 * np.log(arr).sum(axis=1)
        assert (log_w[boundary] == -np.inf).all()
        _assert_log_weights_agree(log_w, want)

    @pytest.mark.parametrize("samples", [3_000, 5 * sampling_mod._WEIGHTED_BATCH // 2], ids=["below-batch", "2.5-batches"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equals_one_shot_estimate(self, metric, n, workers, samples):
        kernel = _STREAM_KERNELS[n]()
        spec = McSpec(samples=samples, seed=7 * n + workers, workers=workers)
        p, se, meta, _ = positive_fraction(metric, n, kernel, spec)
        got = p, se, meta["ess"]
        want = one_shot_fraction(*reference_weighted_spectra(metric, n, samples, spec.seed, workers), kernel)
        assert want[0] > 0.0
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_hits_get_the_ess_floor(self, metric, workers):
        # none of these 50 draws lands in the kernel's positive region
        kernel = kernel_for(ModuliPoint.from_direction(4, (1.0, 0.0, 0.0)))
        spec = McSpec(samples=50, seed=1, workers=workers)
        p, se, meta, _ = positive_fraction(metric, 4, kernel, spec)
        ess = meta["ess"]
        want = one_shot_fraction(*reference_weighted_spectra(metric, 4, 50, 1, workers), kernel)
        assert p == 0.0
        assert se == 1.0 / (int(ess) + 1)
        assert (p, se, ess) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_batch_of_weight_zero_adds_nothing(self, metric, monkeypatch):
        # one-row batches, the first on the boundary: that batch's shift is -inf
        rows = np.array([[0.0, 0.3, 0.7], [0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [0.4, 0.35, 0.25]])

        class FixedDraw:
            """A stream's position: each stream starts again at the first row."""

            def __init__(self):
                self.used = 0

        def fixed_columns(draw, m, n):
            draw.used += m
            return rows[draw.used - m:draw.used].T.copy()

        monkeypatch.setattr(sampling_mod, "_worker_rng", lambda seed, index: FixedDraw())
        monkeypatch.setattr(sampling_mod, "_half_dirichlet_columns", fixed_columns)
        monkeypatch.setattr(sampling_mod, "_WEIGHTED_BATCH", 1)
        kernel = qutrit_kernel_spectrum(0.4)
        arr, log_w = sample_spectra(metric, 3, McSpec(samples=len(rows), seed=0, workers=1), "weighted")[:2]
        assert log_w[0] == -np.inf
        p, se, meta, _ = positive_fraction(metric, 3, kernel, McSpec(samples=len(rows), seed=0, workers=1))
        got = p, se, meta["ess"]
        assert np.isfinite(got).all()
        assert got == pytest.approx(one_shot_fraction(arr, log_w, kernel), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sample_of_weight_zero_is_a_domain_error(self, metric, workers, monkeypatch):
        def boundary_columns(rng, m, n):
            return np.tile([[0.5], [0.5], [0.0]], (1, m))

        monkeypatch.setattr(sampling_mod, "_half_dirichlet_columns", boundary_columns)
        with pytest.raises(DomainError, match="weight 0"):
            positive_fraction(metric, 3, _STREAM_KERNELS[3](), McSpec(samples=6, seed=0, workers=workers))


class TestSortingNetwork:
    """The importance sampler sorts its columns by a comparator network:
    the same bits as ``np.sort``, and a network that sorts every input."""

    @staticmethod
    def _sorted_rows(rows, network):
        return sampling_mod._sort_columns(np.ascontiguousarray(rows.T), network).T

    @pytest.mark.parametrize("n", [*range(2, 13), 40, 256])
    def test_equals_np_sort_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        draws = rng.dirichlet(np.full(n, 0.5), 400)
        zeros = draws[:50].copy()
        zeros[:, ::2] = 0.0
        rows = np.concatenate([
            draws,
            np.round(draws, 1),  # ties, many of them exact zeros
            zeros,
            np.full((3, n), 1.0 / n),  # every entry equal
        ])
        got = self._sorted_rows(rows, sampling_mod._sorting_network(n))
        want = -np.sort(-rows, axis=1)
        assert np.ascontiguousarray(got).view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @staticmethod
    def _zero_one_inputs(n):
        return ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(float)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_sorts_every_zero_one_input(self, n):
        # the 0-1 principle (Knuth, TAOCP vol. 3, 5.3.4): a comparator network
        # that sorts all 2^n zero-one inputs sorts every input
        bits = self._zero_one_inputs(n)
        got = self._sorted_rows(bits, sampling_mod._sorting_network(n))
        assert np.array_equal(got, -np.sort(-bits, axis=1))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_comparator_is_needed(self, n):
        bits = self._zero_one_inputs(n)
        want = -np.sort(-bits, axis=1)
        network = sampling_mod._sorting_network(n)
        for k in range(len(network)):
            dropped = network[:k] + network[k + 1:]
            assert not np.array_equal(self._sorted_rows(bits, dropped), want), (n, k)

    def test_comparator_counts(self):
        assert [len(sampling_mod._sorting_network(n)) for n in (2, 3, 4)] == [1, 3, 5]


class TestUnitWeightEstimator:
    """``positive_fraction_iid`` is the streaming estimator at unit
    weight: the hit fraction of the same draws, the binomial error and
    an effective sample size of m."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("metric", [MetricKind.HS, MetricKind.BURES], ids=["hs", "bures"])
    def test_binomial_identity(self, metric, n, workers):
        # five rejection steps' proposals: a step keeps about 1,900 (n = 3)
        # to 4,500 (n = 2) rows, so each of two workers takes five or more
        m = 5 * sampling_mod._WEIGHTED_BATCH
        spec = McSpec(samples=m, seed=31 + n, workers=workers)
        kernel = _STREAM_KERNELS[n]()
        arr = (sample_bures_spectra if metric is MetricKind.BURES else sample_hs_spectra)(n, spec)
        hits = min_pairing_batch(arr, kernel) >= -DEFAULT_CONE_TOL
        p, se, ess = positive_fraction_iid(metric, n, kernel, spec)
        assert 0.0 < p == hits.mean()
        assert se == pytest.approx(math.sqrt(p * (1.0 - p) / m), rel=1e-15, abs=0.0)
        assert ess == m


class TestMcmcSampler:
    def test_bkm_two_level_positive_fraction(self):
        res = sample_mcmc_spectra(MetricKind.BKM, 2, McSpec(samples=200_000, seed=8))
        p, se = positive_fraction_mcmc(res, QUBIT_KERNEL)
        assert abs(p - 0.0495506) < 3 * se

    def test_hs_three_level_rare_fraction(self):
        res = sample_mcmc_spectra(MetricKind.HS, 3, McSpec(samples=400_000, seed=9))
        p, se = positive_fraction_mcmc(res, qutrit_kernel_spectrum(math.pi / 6))
        assert abs(p - 0.000675) < 3 * se

    def test_hs_two_level_cross_validates_matrix_model(self):
        res = sample_mcmc_spectra(MetricKind.HS, 2, McSpec(samples=200_000, seed=10))
        p1, se1 = positive_fraction_mcmc(res, QUBIT_KERNEL)
        p2, se2, _ = positive_fraction_iid(MetricKind.HS, 2, QUBIT_KERNEL, McSpec(samples=200_000, seed=11))
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
    spec = McSpec(samples=1_000, seed=17)
    p, se, ess = positive_fraction_iid(MetricKind.HS, 2, QUBIT_KERNEL, spec)
    assert 0.0 <= p <= 1.0 and se > 0.0 and ess == 1_000
    with pytest.raises(DomainError):
        positive_fraction_iid(MetricKind.HS, 2, qutrit_kernel_spectrum(0.1), spec)
    with pytest.raises(DomainError, match="no matrix model is available for the BKM measure"):
        positive_fraction_iid(MetricKind.BKM, 2, QUBIT_KERNEL, spec)


class TestFractionErrorNeverZero:
    MIXED = 0.5  # the maximally mixed qubit is inside the positive cone

    def test_iid_all_inside(self):
        # one batch of unit-weight rows through the shared running sums
        def one_batch(metric, n, count, seed, index):
            yield np.full((count, n), self.MIXED), np.zeros(count)

        p, se, ess, found = sampling_mod._fraction(one_batch, None, 2, QUBIT_KERNEL, McSpec(samples=40))
        assert (p, se, ess, found) == (1.0, 1.0 / 41, 40.0, ())

    @pytest.mark.parametrize("chains", [1, 4])
    def test_chain_all_inside(self, chains):
        res = sampling_mod.McmcResult(
            samples=np.full((chains, 25, 2), self.MIXED), acceptance_rate=0.4, step_scale=1.0,
            warnings=(),
        )
        p, se = positive_fraction_mcmc(res, QUBIT_KERNEL)
        assert p == 1.0
        assert se == 1.0 / (chains + 1) > 0.0
