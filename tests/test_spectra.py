"""Domain types, and the polar oracle of the qutrit orbit space."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from polar_reference import polar_from_spectrum, qutrit_orbit_bound, spectrum_from_polar

from wignerq import (
    DomainError,
    KernelSpectrum,
    MetricKind,
    ModuliPoint,
    StateSpectrum,
    orbit_volume_qutrit,
    qutrit_indicator_closed_form,
    qutrit_kernel_spectrum,
)

SQRT3 = math.sqrt(3.0)
NAN, INF = math.nan, math.inf


class TestStateSpectrum:
    def test_constructor_sorts_descending(self):
        s = StateSpectrum((0.2, 0.5, 0.3))
        assert s.values == (0.5, 0.3, 0.2)

    def test_sum_must_be_one(self):
        with pytest.raises(DomainError):
            StateSpectrum((0.6, 0.6))

    def test_negative_beyond_tolerance_rejected(self):
        # NaN passes every tolerance comparison, so it is rejected as non-finite
        for values in ((1.0 + 1e-6, -1e-6), (NAN, 0.5, 0.5), (INF, -INF, 1.0), (0.5, 0.5, -INF), (INF, 0.0)):
            with pytest.raises(DomainError):
                StateSpectrum(values)

    def test_tiny_roundoff_negative_accepted(self):
        s = StateSpectrum((1.0 + 1e-14, -1e-14))
        assert s.values[1] == -1e-14

    def test_needs_two_levels(self):
        with pytest.raises(DomainError):
            StateSpectrum((1.0,))


class TestKernelSpectrum:
    def test_constructor_sorts_ascending(self):
        k = KernelSpectrum(((1 + SQRT3) / 2, (1 - SQRT3) / 2))
        assert k.values[0] < k.values[1]

    def test_trace_condition_enforced(self):
        # sums to 1.1; NaN, and inf against -inf, which math.fsum refuses
        for values in ((0.4, 0.7), (NAN, 0.5, 0.5), (INF, -INF, 1.0), (INF, 0.0)):
            with pytest.raises(DomainError):
                KernelSpectrum(values)

    def test_square_condition_enforced(self):
        with pytest.raises(DomainError):
            KernelSpectrum((0.0, 1.0))  # sums to 1, squares to 1 != 2


class TestModuliPoint:
    def test_qubit_carries_no_parameter(self):
        m = ModuliPoint.qubit()
        assert (m.zeta, m.direction) == (None, None)
        with pytest.raises(DomainError):
            ModuliPoint(2, zeta=0.1)

    def test_qutrit_angle_range(self):
        ModuliPoint.qutrit(math.pi / 6)
        # -0.0 is the point zeta = 0, spelled +0.0
        assert math.copysign(1.0, ModuliPoint.qutrit(-0.0).zeta) == 1.0
        with pytest.raises(DomainError):
            ModuliPoint.qutrit(math.pi / 3 + 0.1)
        for zeta in (-0.1, NAN, INF):
            with pytest.raises(DomainError):
                ModuliPoint.qutrit(zeta)

    def test_general_direction_must_be_unit(self):
        ModuliPoint.from_direction(4, (1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            ModuliPoint.from_direction(4, (1.0, 1.0, 0.0))
        with pytest.raises(DomainError):
            ModuliPoint.from_direction(4, (1.0, 0.0))  # wrong length
        for bad in (NAN, INF, -INF):
            with pytest.raises(DomainError):
                ModuliPoint(4, direction=(bad, 0.0, 0.0))


class TestMetricKind:
    def test_from_name(self):
        assert MetricKind.from_name("HS") is MetricKind.HS
        assert MetricKind.from_name(" bures ") is MetricKind.BURES
        with pytest.raises(DomainError):
            MetricKind.from_name("trace")


class TestSpectrumFromPolar:
    def test_center_is_maximally_mixed(self):
        for phi in (0.0, 1.0, math.pi):
            s = StateSpectrum(spectrum_from_polar(0.0, phi))
            assert s.values == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-15)

    def test_pure_state_vertex(self):
        # at maximal radius along phi=pi the spectrum contains an exact zero
        s = StateSpectrum(spectrum_from_polar(1 / SQRT3, math.pi))
        assert sum(s.values) == pytest.approx(1.0, abs=1e-12)
        assert min(s.values) == pytest.approx(0.0, abs=1e-12)
        assert max(s.values) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_ray_has_zero_eigenvalue(self):
        phi = math.pi / 2
        s = StateSpectrum(spectrum_from_polar(qutrit_orbit_bound(phi), phi))
        assert s.values[2] == pytest.approx(0.0, abs=1e-12)

    def test_outside_orbit_space_rejected(self):
        # beyond the orbit bound the smallest eigenvalue is negative
        phi = 0.3
        with pytest.raises(DomainError):
            StateSpectrum(spectrum_from_polar(qutrit_orbit_bound(phi) + 1e-6, phi))


class TestPolarFromSpectrum:
    def test_center_canonicalized(self):
        assert polar_from_spectrum(StateSpectrum((1 / 3, 1 / 3, 1 / 3)).values) == (0.0, 0.0)

    def test_pure_state_maps_to_vertex(self):
        r, phi = polar_from_spectrum(StateSpectrum((1.0, 0.0, 0.0)).values)
        assert r == pytest.approx(1 / SQRT3, abs=1e-14)
        assert phi == pytest.approx(math.pi, abs=1e-12)
        back = StateSpectrum(spectrum_from_polar(r, phi))
        assert back.values == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_round_trip_random_spectra(self, rng):
        # spectrum -> polar -> spectrum on 1e4 simplex samples
        raw = rng.dirichlet((1.0, 1.0, 1.0), size=10_000)
        raw = -np.sort(-raw, axis=1)
        worst = 0.0
        for row in raw:
            s = StateSpectrum(tuple(row))
            back = StateSpectrum(spectrum_from_polar(*polar_from_spectrum(s.values)))
            worst = max(worst, max(abs(a - b) for a, b in zip(s.values, back.values)))
        assert worst < 1e-10

    def test_round_trip_polar_side(self, rng):
        for _ in range(2000):
            phi = rng.uniform(0.0, math.pi)
            r = rng.uniform(0.0, 1.0) * qutrit_orbit_bound(phi)
            q_r, q_phi = polar_from_spectrum(StateSpectrum(spectrum_from_polar(r, phi)).values)
            assert q_r == pytest.approx(r, abs=1e-10)
            if r > 1e-6:
                assert q_phi == pytest.approx(phi, abs=1e-7)

    @given(
        phi=st.floats(0.0, math.pi),
        frac=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_round_trip_property(self, phi, frac):
        s = StateSpectrum(spectrum_from_polar(frac * qutrit_orbit_bound(phi), phi))
        back = StateSpectrum(spectrum_from_polar(*polar_from_spectrum(s.values)))
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
}


@pytest.mark.parametrize("zeta", [-1e-9, math.pi / 3 + 1e-9])
@pytest.mark.parametrize("name", sorted(_ZETA_TAKERS))
def test_every_zeta_taker_rejects_the_same_range(name, zeta):
    with pytest.raises(DomainError, match=re.escape(f"zeta {zeta!r} outside [0, pi/3]")):
        _ZETA_TAKERS[name](zeta)

