"""Kernel-spectrum construction and the sphere constraints."""

import math

import numpy as np
import pytest

from wignerq import DomainError, ModuliPoint, kernel_for, qutrit_kernel_spectrum
from wignerq.sw_kernel import traceless_basis

SQRT3 = math.sqrt(3.0)

#: A few ulps of the kernel entries, which are at most 5/3 in magnitude.
ULPS = 4 * np.finfo(float).eps


def qubit_oracle():
    """The closed form of the unique two-level kernel: (1 -+ sqrt 3)/2."""
    return ((1 - SQRT3) / 2, (1 + SQRT3) / 2)


def qutrit_oracle(zeta):
    """The closed form of the three-level kernel at apex angle zeta:
    (1/3 + s + c, 1/3 - s + c, 1/3 - 2c) with s = (2/sqrt 3) sin zeta and
    c = (2/3) cos zeta, ascending."""
    s = (2.0 / SQRT3) * math.sin(zeta)
    c = (2.0 / 3.0) * math.cos(zeta)
    return tuple(sorted((1 / 3 + s + c, 1 / 3 - s + c, 1 / 3 - 2 * c)))


def within_ulps(values, oracle):
    return max(abs(a - b) for a, b in zip(values, oracle)) <= ULPS


class TestQubitKernel:
    def test_unique_spectrum(self):
        assert within_ulps(kernel_for(ModuliPoint.qubit()).values, qubit_oracle())

    def test_trace_conditions(self):
        k = kernel_for(ModuliPoint.qubit())
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

    def test_covers_apex_family(self):
        # the sphere formula gives the closed form across [0, pi/3]
        for zeta in np.linspace(0.0, math.pi / 3, 1001):
            assert within_ulps(qutrit_kernel_spectrum(zeta).values, qutrit_oracle(zeta)), zeta


class TestSphereFormula:
    def test_general_n_is_the_sphere_formula_bit_for_bit(self, rng):
        for n in range(4, 7):
            for _ in range(50):
                coords = rng.standard_normal(n - 1)
                coords /= np.linalg.norm(coords)
                expected = 1 / n + math.sqrt(n - 1 / n) * (coords @ traceless_basis(n))
                k = kernel_for(ModuliPoint.from_direction(n, coords))
                assert k.values == tuple(sorted(expected.tolist()))

    def test_sphere_radius_from_uniform_point(self, rng):
        kernels = [kernel_for(ModuliPoint.qubit())]
        kernels += [qutrit_kernel_spectrum(z) for z in rng.uniform(0.0, math.pi / 3, 50)]
        for n in range(4, 7):
            for _ in range(50):
                coords = rng.standard_normal(n - 1)
                kernels.append(kernel_for(ModuliPoint.from_direction(n, coords / np.linalg.norm(coords))))
        for k in kernels:
            dist_sq = sum((v - 1 / k.n) ** 2 for v in k.values)
            assert dist_sq == pytest.approx(k.n - 1 / k.n, rel=1e-12)


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
        u = coords @ traceless_basis(5)
        assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-13)
        assert u.sum() == pytest.approx(0.0, abs=1e-13)


class TestKernelFor:
    def test_dispatch(self):
        assert within_ulps(kernel_for(ModuliPoint.qubit()).values, qubit_oracle())
        assert kernel_for(ModuliPoint.qutrit(0.3)) == qutrit_kernel_spectrum(0.3)
        m = ModuliPoint.from_direction(4, (1.0, 0.0, 0.0))
        k = kernel_for(m)
        assert k.n == 4
        assert sum(k.values) == pytest.approx(1.0, abs=1e-12)
        assert sum(v * v for v in k.values) == pytest.approx(4.0, abs=1e-12)

    def test_rejects_bad_directions(self):
        # the moduli point checks a direction before any kernel is built
        with pytest.raises(DomainError, match="the angle zeta alone"):
            ModuliPoint(3, direction=(1.0, 0.0))
        with pytest.raises(DomainError, match="the angle zeta alone"):
            ModuliPoint(3, zeta=0.5, direction=(1.0, 0.0))
        with pytest.raises(DomainError):
            ModuliPoint.from_direction(4, (2.0, -1.0, -1.0))  # not unit
        with pytest.raises(DomainError):
            ModuliPoint.from_direction(4, (1.0, -1.0))  # wrong length
