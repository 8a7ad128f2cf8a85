"""Domain types and the polar parametrization of the qutrit orbit space."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wignerq import (
    DomainError,
    KernelSpectrum,
    MetricKind,
    ModuliPoint,
    QutritPolar,
    StateSpectrum,
    orbit_volume_qutrit,
    polar_from_spectrum,
    qutrit_indicator_closed_form,
    qutrit_kernel_spectrum,
    qutrit_positivity_bound,
    spectrum_from_polar,
)

SQRT3 = math.sqrt(3.0)


class TestStateSpectrum:
    def test_constructor_sorts_descending(self):
        s = StateSpectrum((0.2, 0.5, 0.3))
        assert s.values == (0.5, 0.3, 0.2)

    def test_sum_must_be_one(self):
        with pytest.raises(DomainError):
            StateSpectrum((0.6, 0.6))

    def test_negative_beyond_tolerance_rejected(self):
        with pytest.raises(DomainError):
            StateSpectrum((1.0 + 1e-6, -1e-6))

    def test_tiny_roundoff_negative_accepted(self):
        s = StateSpectrum((1.0 + 1e-14, -1e-14))
        assert s.values[1] == -1e-14

    def test_needs_two_levels(self):
        with pytest.raises(DomainError):
            StateSpectrum((1.0,))

    def test_qubit_bloch_radius_round_trip(self):
        s = StateSpectrum.qubit(0.4)
        assert s.values == (0.7, 0.3)

    def test_qubit_bloch_radius_above_one_rejected(self):
        with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
            StateSpectrum.qubit(1.0 + 1e-13)


class TestKernelSpectrum:
    def test_constructor_sorts_ascending(self):
        k = KernelSpectrum(((1 + SQRT3) / 2, (1 - SQRT3) / 2))
        assert k.values[0] < k.values[1]

    def test_trace_condition_enforced(self):
        with pytest.raises(DomainError):
            KernelSpectrum((0.4, 0.7))  # sums to 1.1

    def test_square_condition_enforced(self):
        with pytest.raises(DomainError):
            KernelSpectrum((0.0, 1.0))  # sums to 1, squares to 1 != 2


class TestQutritPolar:
    def test_validation(self):
        QutritPolar(0.1, 2.0)
        with pytest.raises(DomainError):
            QutritPolar(-0.1, 1.0)
        with pytest.raises(DomainError):
            QutritPolar(0.1, 3.5)


class TestModuliPoint:
    def test_qubit_carries_no_parameter(self):
        m = ModuliPoint.qubit()
        assert (m.zeta, m.direction) == (None, None)
        with pytest.raises(DomainError):
            ModuliPoint(2, zeta=0.1)

    def test_qutrit_angle_range(self):
        ModuliPoint.qutrit(math.pi / 6)
        with pytest.raises(DomainError):
            ModuliPoint.qutrit(math.pi / 3 + 0.1)
        with pytest.raises(DomainError):
            ModuliPoint.qutrit(-0.1)

    def test_general_direction_must_be_unit(self):
        ModuliPoint.from_direction(4, (1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            ModuliPoint.from_direction(4, (1.0, 1.0, 0.0))
        with pytest.raises(DomainError):
            ModuliPoint.from_direction(4, (1.0, 0.0))  # wrong length


class TestMetricKind:
    def test_from_name(self):
        assert MetricKind.from_name("HS") is MetricKind.HS
        assert MetricKind.from_name(" bures ") is MetricKind.BURES
        with pytest.raises(DomainError):
            MetricKind.from_name("trace")


def orbit_radius(phi):
    return 1.0 / (2.0 * SQRT3 * math.cos(phi / 3.0))


class TestSpectrumFromPolar:
    def test_center_is_maximally_mixed(self):
        for phi in (0.0, 1.0, math.pi):
            s = spectrum_from_polar(QutritPolar(0.0, phi))
            assert s.values == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    def test_pure_state_vertex(self):
        # at maximal radius along phi=pi the spectrum contains an exact zero
        s = spectrum_from_polar(QutritPolar(1 / SQRT3, math.pi))
        assert sum(s.values) == pytest.approx(1.0, abs=1e-12)
        assert min(s.values) == pytest.approx(0.0, abs=1e-12)
        assert max(s.values) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_ray_has_zero_eigenvalue(self):
        phi = math.pi / 2
        s = spectrum_from_polar(QutritPolar(orbit_radius(phi), phi))
        assert s.values[2] == pytest.approx(0.0, abs=1e-12)

    def test_outside_orbit_space_rejected(self):
        phi = 0.3
        with pytest.raises(DomainError):
            spectrum_from_polar(QutritPolar(orbit_radius(phi) + 1e-6, phi))


class TestPolarFromSpectrum:
    def test_center_canonicalized(self):
        p = polar_from_spectrum(StateSpectrum((1 / 3, 1 / 3, 1 / 3)))
        assert (p.r, p.phi) == (0.0, 0.0)

    def test_pure_state_maps_to_vertex(self):
        p = polar_from_spectrum(StateSpectrum((1.0, 0.0, 0.0)))
        assert p.r == pytest.approx(1 / SQRT3, abs=1e-14)
        assert p.phi == pytest.approx(math.pi, abs=1e-12)
        back = spectrum_from_polar(p)
        assert back.values == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_two_level_spectrum_rejected(self):
        with pytest.raises(DomainError):
            polar_from_spectrum(StateSpectrum((0.7, 0.3)))

    def test_round_trip_random_spectra(self, rng):
        # spectrum -> polar -> spectrum on 1e4 simplex samples
        raw = rng.dirichlet((1.0, 1.0, 1.0), size=10_000)
        raw = -np.sort(-raw, axis=1)
        worst = 0.0
        for row in raw:
            s = StateSpectrum(tuple(row))
            back = spectrum_from_polar(polar_from_spectrum(s))
            worst = max(worst, max(abs(a - b) for a, b in zip(s.values, back.values)))
        assert worst < 1e-10

    def test_round_trip_polar_side(self, rng):
        for _ in range(2000):
            phi = rng.uniform(0.0, math.pi)
            r = rng.uniform(0.0, 1.0) * orbit_radius(phi)
            p = QutritPolar(r, phi)
            q = polar_from_spectrum(spectrum_from_polar(p))
            assert q.r == pytest.approx(r, abs=1e-10)
            if r > 1e-6:
                assert q.phi == pytest.approx(phi, abs=1e-7)

    @given(
        phi=st.floats(0.0, math.pi),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip_property(self, phi, frac):
        p = QutritPolar(frac * orbit_radius(phi), phi)
        s = spectrum_from_polar(p)
        back = spectrum_from_polar(polar_from_spectrum(s))
        assert all(abs(a - b) < 1e-10 for a, b in zip(s.values, back.values))


def test_orbit_membership_matches_inequality(rng):
    # eigenvalue non-negativity and the radial inequality agree on 1e5 points
    phi = rng.uniform(0.0, math.pi, 100_000)
    r = rng.uniform(0.0, 0.7, 100_000)
    bound = 1.0 / (2.0 * SQRT3 * np.cos(phi / 3.0))
    by_inequality = r <= bound
    ks = np.array([1.0, 2.0, 0.0])
    eigs = 1 / 3 - (2 * r[:, None] / SQRT3) * np.cos((phi[:, None] + 2 * np.pi * ks) / 3)
    by_eigenvalue = eigs.min(axis=1) >= -1e-12
    assert np.array_equal(by_inequality, by_eigenvalue)


_ZETA_TAKERS = {
    "ModuliPoint.qutrit": ModuliPoint.qutrit,
    "qutrit_kernel_spectrum": qutrit_kernel_spectrum,
    "qutrit_indicator_closed_form": qutrit_indicator_closed_form,
    "orbit_volume_qutrit": lambda z: orbit_volume_qutrit(MetricKind.HS, z),
    "qutrit_positivity_bound": lambda z: qutrit_positivity_bound(0.5, z),
}


@pytest.mark.parametrize("zeta", [-1e-9, math.pi / 3 + 1e-9])
@pytest.mark.parametrize("name", sorted(_ZETA_TAKERS))
def test_every_zeta_taker_rejects_the_same_range(name, zeta):
    with pytest.raises(DomainError, match=re.escape(f"zeta {zeta!r} outside [0, pi/3]")):
        _ZETA_TAKERS[name](zeta)

