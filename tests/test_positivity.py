"""The minimal pairing, the positive cone, and the qutrit radial bounds."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerq import (
    BlochVector,
    DomainError,
    KernelSpectrum,
    QutritPolar,
    StateSpectrum,
    min_wigner_value,
    qubit_kernel_spectrum,
    qubit_wigner,
    qutrit_kernel_spectrum,
    qutrit_orbit_bound,
    qutrit_positivity_bound,
    spectrum_from_polar,
)
from wignerq.positivity import DEFAULT_CONE_TOL
from wignerq.sw_kernel import kernel_spectrum_from_direction, traceless_basis

SQRT3 = math.sqrt(3.0)


class TestMinWignerValue:
    def test_pure_state_picks_smallest_kernel_eigenvalue(self):
        v = min_wigner_value(StateSpectrum((1.0, 0.0)), qubit_kernel_spectrum())
        assert v == pytest.approx((1 - SQRT3) / 2, abs=1e-14)

    def test_maximally_mixed(self):
        v = min_wigner_value(StateSpectrum((0.5, 0.5)), qubit_kernel_spectrum())
        assert v == pytest.approx(0.5, abs=1e-14)

    def test_positive_ball_boundary_is_zero(self):
        s = StateSpectrum(((1 + 1 / SQRT3) / 2, (1 - 1 / SQRT3) / 2))
        assert min_wigner_value(s, qubit_kernel_spectrum()) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            min_wigner_value(StateSpectrum((0.5, 0.3, 0.2)), qubit_kernel_spectrum())

    def test_brute_force_over_permutations(self, rng):
        # pairing the descending spectrum with the ascending kernel is the
        # minimum over all eigenvalue alignments
        basis = {n: traceless_basis(n) for n in range(2, 6)}
        for n in range(2, 6):
            perms = np.array(list(itertools.permutations(range(n))))
            for _ in range(50):
                r = StateSpectrum(tuple(rng.dirichlet(np.ones(n))))
                u = rng.standard_normal(n - 1)
                u /= np.linalg.norm(u)
                k = kernel_spectrum_from_direction(n, u @ basis[n])
                pairings = np.array(r.values) @ np.array(k.values)[perms].T
                assert min_wigner_value(r, k) == pytest.approx(pairings.min(), abs=1e-12)
                assert pairings.min() <= pairings.max() + 1e-15

    def test_linear_in_state_for_fixed_order(self, rng):
        k = kernel_spectrum_from_direction(4, traceless_basis(4)[0])
        for _ in range(100):
            a = StateSpectrum(tuple(rng.dirichlet(np.ones(4))))
            b = StateSpectrum(tuple(rng.dirichlet(np.ones(4))))
            alpha = rng.uniform()
            mix = StateSpectrum(tuple(alpha * x + (1 - alpha) * y for x, y in zip(a.values, b.values)))
            expected = alpha * min_wigner_value(a, k) + (1 - alpha) * min_wigner_value(b, k)
            assert min_wigner_value(mix, k) == pytest.approx(expected, abs=1e-12)


class TestPositiveCone:
    def test_qubit_mixed_inside_pure_outside(self):
        k = qubit_kernel_spectrum()
        assert min_wigner_value(StateSpectrum((0.5, 0.5)), k) >= -DEFAULT_CONE_TOL
        assert min_wigner_value(StateSpectrum((1.0, 0.0)), k) < -DEFAULT_CONE_TOL

    def test_qubit_ball_radius(self):
        # membership flips exactly at Bloch radius 1/sqrt(3)
        k = qubit_kernel_spectrum()
        for rho in np.linspace(0.0, 1.0, 1001):
            expected = rho <= 1 / SQRT3 + 1e-9
            assert (min_wigner_value(StateSpectrum.qubit(rho), k) >= -1e-9) == expected

    def test_qutrit_sign_matches_radial_inequality(self):
        zeta = math.pi / 6
        k = qutrit_kernel_spectrum(zeta)
        s = spectrum_from_polar(QutritPolar(0.1, math.pi / 2))
        expected = 0.1 <= qutrit_positivity_bound(math.pi / 2, zeta)
        assert (min_wigner_value(s, k) >= -DEFAULT_CONE_TOL) == expected

    def test_qutrit_sign_cross_check_random(self, rng):
        # pairing sign equals the radial inequality on 1e5 random triples
        m = 100_000
        zeta = rng.uniform(0.0, math.pi / 3, m)
        phi = rng.uniform(0.0, math.pi, m)
        orbit = 1.0 / (2.0 * SQRT3 * np.cos(phi / 3.0))
        r = rng.uniform(0.0, 1.0, m) * orbit
        positivity = 1.0 / (4.0 * SQRT3 * np.cos(phi / 3.0 + zeta - math.pi / 3.0))
        bound = np.minimum(orbit, positivity)

        ks = np.array([1.0, 2.0, 0.0])
        eigs = 1 / 3 - (2 * r[:, None] / SQRT3) * np.cos((phi[:, None] + 2 * np.pi * ks) / 3)
        s = (2.0 / SQRT3) * np.sin(zeta)
        c = (2.0 / 3.0) * np.cos(zeta)
        kernels = np.sort(np.stack([1 / 3 + s + c, 1 / 3 - s + c, 1 / 3 - 2 * c], axis=1), axis=1)
        pairing = np.einsum("ij,ij->i", eigs, kernels)

        off_edge = np.abs(r - bound) > 1e-9
        assert np.array_equal((pairing >= -1e-12)[off_edge], (r < bound)[off_edge])


class TestQutritBounds:
    def test_orbit_bound_values(self):
        assert qutrit_orbit_bound(0.0) == pytest.approx(1 / (2 * SQRT3), abs=1e-15)
        assert qutrit_orbit_bound(math.pi) == pytest.approx(1 / SQRT3, abs=1e-15)

    def test_orbit_bound_hits_simplex_boundary(self, rng):
        for phi in rng.uniform(0.0, math.pi, 100):
            s = spectrum_from_polar(QutritPolar(qutrit_orbit_bound(phi), phi))
            assert s.values[2] == pytest.approx(0.0, abs=1e-12)

    def test_orbit_bound_domain(self):
        with pytest.raises(DomainError):
            qutrit_orbit_bound(-0.1)
        with pytest.raises(DomainError):
            qutrit_orbit_bound(math.pi + 0.1)

    def test_positivity_bound_value(self):
        assert qutrit_positivity_bound(math.pi, math.pi / 6) == pytest.approx(1 / 6, abs=1e-15)

    def test_positivity_bound_positive_or_infinite(self, rng):
        for _ in range(500):
            b = qutrit_positivity_bound(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 3))
            assert b > 0.0

    def test_positivity_bound_domain(self):
        with pytest.raises(DomainError):
            qutrit_positivity_bound(4.0, 0.1)
        with pytest.raises(DomainError):
            qutrit_positivity_bound(1.0, 2.0)

    def test_boundary_states_have_zero_minimum(self):
        # on the positivity boundary the minimal Wigner value vanishes
        worst = 0.0
        for phi in np.linspace(0.0, math.pi, 50):
            for zeta in np.linspace(0.0, math.pi / 3, 50):
                r = min(qutrit_positivity_bound(phi, zeta), qutrit_orbit_bound(phi))
                s = spectrum_from_polar(QutritPolar(r, phi))
                worst = max(worst, abs(min_wigner_value(s, qutrit_kernel_spectrum(zeta))))
        assert worst < 1e-10


class TestQubitWigner:
    def test_maximally_mixed_is_flat(self, rng):
        xi = BlochVector((0.0, 0.0, 0.0))
        for _ in range(20):
            n = rng.standard_normal(3)
            n /= np.linalg.norm(n)
            assert qubit_wigner(xi, n) == pytest.approx(0.5, abs=1e-14)

    def test_antipodal_point_of_pure_state(self):
        v = qubit_wigner(BlochVector((0.0, 0.0, 1.0)), (0.0, 0.0, -1.0))
        assert v == pytest.approx((1 - SQRT3) / 2, abs=1e-14)
        s = StateSpectrum((1.0, 0.0))
        assert v == pytest.approx(min_wigner_value(s, qubit_kernel_spectrum()), abs=1e-14)

    def test_sphere_minimum_matches_pairing(self, rng):
        # Monte Carlo minimum over the sphere approaches the pairing value
        xi = BlochVector((0.3, -0.5, 0.4))
        ns = rng.standard_normal((10_000, 3))
        ns /= np.linalg.norm(ns, axis=1, keepdims=True)
        values = 0.5 + (SQRT3 / 2) * ns @ np.array(xi.xi)
        pairing = min_wigner_value(xi.spectrum(), qubit_kernel_spectrum())
        assert values.min() >= pairing - 1e-12
        assert values.min() == pytest.approx(pairing, abs=1e-3)

    def test_non_unit_point_rejected(self):
        with pytest.raises(DomainError):
            qubit_wigner(BlochVector((0.0, 0.0, 0.5)), (0.0, 0.0, 0.9))


class TestBlochVector:
    def test_outside_ball_rejected(self):
        with pytest.raises(DomainError):
            BlochVector((1.0, 0.5, 0.0))

    def test_spectrum(self):
        s = BlochVector((0.0, 0.6, 0.0)).spectrum()
        assert s.values == pytest.approx((0.8, 0.2), abs=1e-14)

    def test_roundoff_outside_unit_sphere_is_a_pure_state(self):
        assert BlochVector((1.0 + 1e-14, 0.0, 0.0)).spectrum().values == (1.0, 0.0)


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 2 * math.pi))
@settings(max_examples=200, deadline=None)
def test_pairing_minimum_property(rho, t, angle):
    # any single swap of kernel entries cannot go below the aligned pairing
    r = StateSpectrum.qubit(rho)
    k = qubit_kernel_spectrum()
    aligned = min_wigner_value(r, k)
    swapped = r.values[0] * k.values[1] + r.values[1] * k.values[0]
    assert aligned <= swapped + 1e-12
