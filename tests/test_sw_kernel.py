"""Kernel-spectrum constructors and the sphere constraints."""

import math

import numpy as np
import pytest

from wignerq import (
    DomainError,
    ModuliPoint,
    kernel_for,
    kernel_spectrum_from_direction,
    qubit_kernel_spectrum,
    qutrit_kernel_spectrum,
)
from wignerq.sw_kernel import embed_direction, traceless_basis

SQRT3 = math.sqrt(3.0)


def direction_from_kernel(k):
    """Unit traceless direction whose sphere point is the given spectrum."""
    vec = np.asarray(k.values, dtype=float) - 1.0 / k.n
    return vec / np.linalg.norm(vec)


class TestQubitKernel:
    def test_unique_spectrum(self):
        k = qubit_kernel_spectrum()
        assert k.values == pytest.approx(((1 - SQRT3) / 2, (1 + SQRT3) / 2), abs=1e-15)

    def test_trace_conditions(self):
        k = qubit_kernel_spectrum()
        assert sum(k.values) == pytest.approx(1.0, abs=1e-12)
        assert sum(v * v for v in k.values) == pytest.approx(2.0, abs=1e-12)


class TestQutritKernel:
    def test_symmetric_point(self):
        k = qutrit_kernel_spectrum(math.pi / 6)
        expected = sorted(((1 + 2 * SQRT3) / 3, 1 / 3, (1 - 2 * SQRT3) / 3))
        assert k.values == pytest.approx(tuple(expected), abs=1e-14)

    def test_edge_of_moduli_range(self):
        k = qutrit_kernel_spectrum(0.0)
        assert k.values == pytest.approx((-1.0, 1.0, 1.0), abs=1e-14)
        assert sum(k.values) == pytest.approx(1.0, abs=1e-12)
        assert sum(v * v for v in k.values) == pytest.approx(3.0, abs=1e-12)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            qutrit_kernel_spectrum(-0.01)
        with pytest.raises(DomainError):
            qutrit_kernel_spectrum(math.pi / 3 + 0.01)

    def test_trace_conditions_across_range(self, rng):
        for zeta in rng.uniform(0.0, math.pi / 3, 200):
            k = qutrit_kernel_spectrum(zeta)
            assert sum(k.values) == pytest.approx(1.0, abs=1e-12)
            assert sum(v * v for v in k.values) == pytest.approx(3.0, abs=1e-12)


class TestDirectionParametrization:
    def test_two_level_direction_recovers_unique_kernel(self):
        k = kernel_spectrum_from_direction(2, (-1 / math.sqrt(2), 1 / math.sqrt(2)))
        ref = qubit_kernel_spectrum()
        assert k.values == pytest.approx(ref.values, abs=1e-14)

    def test_three_level_direction_matches_apex_angle(self):
        ref = qutrit_kernel_spectrum(math.pi / 6)
        u = direction_from_kernel(ref)
        k = kernel_spectrum_from_direction(3, u)
        assert k.values == pytest.approx(ref.values, abs=1e-12)

    def test_covers_apex_family(self):
        for zeta in np.linspace(0.0, math.pi / 3, 100):
            ref = qutrit_kernel_spectrum(zeta)
            k = kernel_spectrum_from_direction(3, direction_from_kernel(ref))
            assert max(abs(a - b) for a, b in zip(k.values, ref.values)) < 1e-12

    def test_rejects_bad_directions(self):
        with pytest.raises(DomainError):
            kernel_spectrum_from_direction(3, (1.0, 0.0, 0.0))  # not traceless
        with pytest.raises(DomainError):
            kernel_spectrum_from_direction(3, (2.0, -1.0, -1.0))  # not unit
        with pytest.raises(DomainError):
            kernel_spectrum_from_direction(3, (1.0, -1.0))  # wrong length

    def test_sphere_radius_from_uniform_point(self, rng):
        for n in range(2, 7):
            basis = traceless_basis(n)
            for _ in range(50):
                coords = rng.standard_normal(n - 1)
                coords /= np.linalg.norm(coords)
                k = kernel_spectrum_from_direction(n, coords @ basis)
                dist_sq = sum((v - 1 / n) ** 2 for v in k.values)
                assert dist_sq == pytest.approx(n - 1 / n, rel=1e-12)


class TestTracelessBasis:
    def test_orthonormal_rows_summing_to_zero(self):
        for n in range(2, 7):
            b = traceless_basis(n)
            assert b.shape == (n - 1, n)
            assert np.allclose(b @ b.T, np.eye(n - 1), atol=1e-14)
            assert np.allclose(b.sum(axis=1), 0.0, atol=1e-14)

    def test_embed_preserves_norm(self, rng):
        coords = rng.standard_normal(4)
        coords /= np.linalg.norm(coords)
        u = embed_direction(5, coords)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-13)
        assert u.sum() == pytest.approx(0.0, abs=1e-13)


class TestKernelFor:
    def test_dispatch(self):
        assert kernel_for(ModuliPoint.qubit()) == qubit_kernel_spectrum()
        assert kernel_for(ModuliPoint.qutrit(0.3)) == qutrit_kernel_spectrum(0.3)
        m = ModuliPoint.from_direction(4, (1.0, 0.0, 0.0))
        k = kernel_for(m)
        assert k.n == 4
        assert sum(k.values) == pytest.approx(1.0, abs=1e-12)
        assert sum(v * v for v in k.values) == pytest.approx(4.0, abs=1e-12)
