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

Every volume is integrated in the simplex coordinates of the
``StateSpectrum`` values (``wignerq.integrate.quadrature``).

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
                raise DomainError("the two-level kernel is unique; no zeta or direction applies")
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
