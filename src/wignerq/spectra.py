"""Core domain types: state spectra, kernel spectra, moduli points.

Everything in this package is a function of density-matrix *eigenvalues*
only, so the central objects are small immutable tuples:

* ``StateSpectrum`` -- eigenvalues of a density matrix, stored descending.
  The set of all of them is the ordered probability simplex (the orbit
  space of the state space under unitary conjugation).
* ``KernelSpectrum`` -- eigenvalues of a phase-space (Stratonovich-Weyl)
  kernel, stored ascending.  They live on the sphere cut out by the
  trace conditions ``sum = 1`` and ``sum of squares = N``.
* ``ModuliPoint`` -- label of one Wigner representation among the
  family admitted for an N-level system.  For N=2 the kernel is unique,
  for N=3 a single apex angle ``zeta`` in [0, pi/3] remains, and for
  larger N a unit direction on the kernel sphere is used.
* ``QutritPolar`` -- polar coordinates (r, phi) on the qutrit orbit
  space, the parametrization in which all qutrit integrals are done.

All types are immutable values and safe to share between threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import DomainError

#: Tolerance for algebraic invariants (sums, norms).
ALGEBRAIC_TOL = 1e-12

_SQRT3 = math.sqrt(3.0)


def _check_zeta(zeta) -> float:
    """The three-level apex angle as a float, checked to lie in [0, pi/3]."""
    z = float(zeta)
    if not 0.0 <= z <= math.pi / 3.0 + ALGEBRAIC_TOL:
        raise DomainError(f"zeta {z!r} outside [0, pi/3]")
    return z


def _check_bloch_radius(radius) -> float:
    """A Bloch radius as a float, checked to lie in [0, 1]."""
    R = float(radius)
    if not 0.0 <= R <= 1.0:
        raise DomainError(f"radius {R!r} outside [0, 1]")
    return R


class MetricKind(enum.Enum):
    """Riemannian metric on the state space selecting a volume measure."""

    HS = "hs"
    BURES = "bures"
    BKM = "bkm"

    @classmethod
    def from_name(cls, name: str) -> "MetricKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise DomainError(f"unknown metric {name!r}; expected one of: {valid}")


def _as_float_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class StateSpectrum:
    """Eigenvalues of a density matrix, canonically sorted descending.

    The constructor sorts, so any eigenvalue order may be passed in.
    Entries must be probabilities summing to one; tiny negative values
    from floating-point roundoff (within ``ALGEBRAIC_TOL``) are kept
    as-is rather than clipped.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(sorted(_as_float_tuple(self.values), reverse=True))
        object.__setattr__(self, "values", vals)
        if len(vals) < 2:
            raise DomainError("a state spectrum needs at least two levels")
        if vals[0] > 1.0 + ALGEBRAIC_TOL or vals[-1] < -ALGEBRAIC_TOL:
            raise DomainError(f"eigenvalues outside [0, 1]: {vals}")
        total = math.fsum(vals)
        if abs(total - 1.0) > ALGEBRAIC_TOL:
            raise DomainError(f"eigenvalues sum to {total!r}, expected 1")

    @property
    def n(self) -> int:
        return len(self.values)

    @classmethod
    def qubit(cls, radius: float) -> "StateSpectrum":
        """Two-level spectrum of the state with the given Bloch radius."""
        rho = _check_bloch_radius(radius)
        return cls(((1.0 + rho) / 2.0, (1.0 - rho) / 2.0))


@dataclass(frozen=True)
class KernelSpectrum:
    """Eigenvalues of a phase-space kernel, canonically sorted ascending.

    Valid spectra satisfy ``sum = 1`` and ``sum of squares = N``; they
    form a sphere of squared radius ``N - 1/N`` around the uniform point.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(sorted(_as_float_tuple(self.values)))
        object.__setattr__(self, "values", vals)
        n = len(vals)
        if n < 2:
            raise DomainError("a kernel spectrum needs at least two levels")
        total = math.fsum(vals)
        if abs(total - 1.0) > ALGEBRAIC_TOL:
            raise DomainError(f"kernel eigenvalues sum to {total!r}, expected 1")
        sq = math.fsum(v * v for v in vals)
        if abs(sq - n) > ALGEBRAIC_TOL * n:
            raise DomainError(f"kernel eigenvalue squares sum to {sq!r}, expected {n}")

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class QutritPolar:
    """Polar coordinates (r, phi) on the three-level orbit space.

    ``r`` is the distance from the maximally mixed state in the
    eigenvalue plane (up to a fixed scale), ``phi`` in [0, pi] selects
    the direction inside the ordered wedge.
    """

    r: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "phi", float(self.phi))
        if self.r < 0.0:
            raise DomainError(f"radius {self.r!r} must be non-negative")
        if not -ALGEBRAIC_TOL <= self.phi <= math.pi + ALGEBRAIC_TOL:
            raise DomainError(f"angle {self.phi!r} outside [0, pi]")


@dataclass(frozen=True)
class ModuliPoint:
    """Label of one Wigner representation of an N-level system.

    For ``n == 2`` the kernel spectrum is unique and no parameter is
    needed.  For ``n == 3`` the representation is fixed by the apex
    angle ``zeta`` in [0, pi/3].  For larger ``n`` a unit vector with
    ``n - 1`` components (coordinates in an orthonormal basis of the
    traceless hyperplane) selects a direction on the kernel sphere.
    """

    n: int
    zeta: float | None = None
    direction: tuple[float, ...] | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        if self.n < 2:
            raise DomainError("moduli points exist for n >= 2")
        if self.n == 2:
            if self.zeta is not None or self.direction is not None:
                raise DomainError("the two-level kernel is unique; no parameter applies")
        elif self.n == 3:
            if self.zeta is None or self.direction is not None:
                raise DomainError("a three-level moduli point is the angle zeta alone")
            object.__setattr__(self, "zeta", _check_zeta(self.zeta))
        else:
            if self.direction is None or self.zeta is not None:
                raise DomainError(f"an n={self.n} moduli point needs a direction vector")
            u = _as_float_tuple(self.direction)
            object.__setattr__(self, "direction", u)
            if len(u) != self.n - 1:
                raise DomainError(f"direction needs {self.n - 1} components, got {len(u)}")
            norm = math.sqrt(math.fsum(c * c for c in u))
            if abs(norm - 1.0) > ALGEBRAIC_TOL:
                raise DomainError(f"direction norm {norm!r} differs from 1")

    @classmethod
    def qubit(cls) -> "ModuliPoint":
        return cls(2)

    @classmethod
    def qutrit(cls, zeta: float) -> "ModuliPoint":
        return cls(3, zeta=zeta)

    @classmethod
    def from_direction(cls, n: int, direction) -> "ModuliPoint":
        return cls(n, direction=_as_float_tuple(direction))


def qutrit_ray(phi: float):
    """Eigenvalue map of the three-level polar ray ``phi`` in [0, pi].

    Returns ``(k, eigs)``: ``eigs(r, e3)`` is the descending triple at
    radius ``r``, whose smallest entry ``e3 = 1/3 - k*r`` is ``k`` times
    the distance from the orbit boundary.  Callers that know that
    distance without cancellation pass it in and keep full accuracy.
    """
    psi = phi / 3.0
    c = math.cos(psi)
    s = math.sin(psi)

    def eigs(r, e3):
        rc = (r / _SQRT3) * c
        return (1.0 / 3.0 + rc + r * s, 1.0 / 3.0 + rc - r * s, e3)

    return 2.0 * c / _SQRT3, eigs


def spectrum_from_polar(p: QutritPolar) -> StateSpectrum:
    """Three eigenvalues of the state at polar point (r, phi), from
    ``qutrit_ray``; for phi in [0, pi] they come out descending.

    Raises ``DomainError`` when the point lies outside the orbit space,
    i.e. when the smallest eigenvalue is negative beyond tolerance.
    """
    k, eigs = qutrit_ray(p.phi)
    vals = eigs(p.r, 1.0 / 3.0 - k * p.r)
    if min(vals) < -ALGEBRAIC_TOL:
        raise DomainError(
            f"polar point (r={p.r!r}, phi={p.phi!r}) lies outside the orbit space"
        )
    return StateSpectrum(vals)


def polar_from_spectrum(s: StateSpectrum) -> QutritPolar:
    """Polar coordinates of a three-level spectrum; inverse of
    ``spectrum_from_polar`` on the orbit space.

    Uses the linear projections ``r*sin(phi/3) = (r1 - r2)/2`` and
    ``r*cos(phi/3) = sqrt(3)*(1/3 - r3)/2``, so the inversion is well
    conditioned everywhere except the center, which is canonicalized
    to (r=0, phi=0).
    """
    if s.n != 3:
        raise DomainError("polar coordinates are defined for three-level spectra")
    r1, r2, r3 = s.values
    y = (r1 - r2) / 2.0
    x = _SQRT3 * (1.0 / 3.0 - r3) / 2.0
    r = math.hypot(x, y)
    if r < ALGEBRAIC_TOL:
        return QutritPolar(0.0, 0.0)
    phi = 3.0 * math.atan2(y, x)
    phi = min(max(phi, 0.0), math.pi)
    return QutritPolar(r, phi)
