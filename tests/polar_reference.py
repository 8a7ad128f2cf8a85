"""Polar coordinates (r, phi) on the three-level orbit space, the paper's
parametrization, on plain floats: the oracle of the simplex routes'
eigenvalue map and of the positivity test's radial bounds."""

import math

SQRT3 = math.sqrt(3.0)


def qutrit_ray(phi):
    """``(k, eigs)`` of the ray phi in [0, pi]: ``eigs(r, e3)`` is the
    descending triple at radius r whose smallest entry ``e3 = 1/3 - k*r``
    the caller passes in, free of cancellation when it knows it."""
    c, s = math.cos(phi / 3.0), math.sin(phi / 3.0)

    def eigs(r, e3):
        rc = (r / SQRT3) * c
        return (1.0 / 3.0 + rc + r * s, 1.0 / 3.0 + rc - r * s, e3)

    return 2.0 * c / SQRT3, eigs


def spectrum_from_polar(r, phi):
    """The descending eigenvalue triple at the polar point (r, phi)."""
    k, eigs = qutrit_ray(phi)
    return eigs(r, 1.0 / 3.0 - k * r)


def polar_from_spectrum(vals):
    """``(r, phi)`` of a descending triple; the centre maps to (0, 0)."""
    r1, r2, r3 = vals
    x, y = SQRT3 * (1.0 / 3.0 - r3) / 2.0, (r1 - r2) / 2.0
    r = math.hypot(x, y)
    if r < 1e-12:
        return 0.0, 0.0
    return r, min(max(3.0 * math.atan2(y, x), 0.0), math.pi)


def qutrit_orbit_bound(phi):
    """Radial extent of the orbit space along phi."""
    return 1.0 / (2.0 * SQRT3 * math.cos(phi / 3.0))


def qutrit_positivity_bound(phi, zeta):
    """Radial extent of the Wigner-positive part along phi for the kernel
    at apex angle zeta, clipped at the orbit bound."""
    cp = math.cos(phi / 3.0 + zeta - math.pi / 3.0)
    orbit = qutrit_orbit_bound(phi)
    return orbit if cp <= 0.0 else min(1.0 / (4.0 * SQRT3 * cp), orbit)
