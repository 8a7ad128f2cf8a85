"""Deterministic quadrature over the orbit space.

Every volume, from N = 2 to N = 6, triangulates its region -- the ordered
simplex, cut by one half-space for a positive part or a smaller Bloch
ball -- and integrates each piece:

* flat metric (HS): the density is a polynomial of degree N(N-1), so a
  Grundmann-Moller rule of that degree gives the volume to rounding;
* Bures and BKM: a collapsed tensor Gauss-Legendre rule (Duffy map, then
  ``u = s^p``) turns the inverse-square-root and log singularities where
  eigenvalues vanish into powers of ``s``, up to 2^21 points per piece
  (Bures converges to N = 5, BKM to N = 4 at the default tolerance).

The three-level moduli average is one integral over the ordered simplex
of the density times the fraction of apex angles at which each spectrum
is Wigner-positive, by a Gauss-Legendre rule on sectors about the
maximally mixed state; ``gauss_legendre_doubling`` integrates the flat
closed form over the angle instead.  These three rules share one
doubling loop, ``_doubled``: the order doubles until two orders agree to
``rel_tol``, relative only (``abs_tol`` does not apply), and each 1-D
rule is built once per process.

All volumes are unnormalized, in the simplex coordinates r_1 ... r_{N-1};
only ratios are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from ..errors import ConvergenceError, DomainError
from ..measures import _density_batch
from ..spectra import MetricKind, _check_bloch_radius
from ..sw_kernel import qutrit_kernel_spectrum


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature tolerances.  Every route stops on ``rel_tol`` alone, so no
    small value is accepted on an absolute tolerance larger than itself;
    ``abs_tol`` bounds nothing in the package and is kept, validated, for
    the benchmark's absolute floors.  ``QuadratureSpec()`` is the spec of
    every entry point given ``spec=None``."""

    rel_tol: float = 1e-7
    abs_tol: float = 1e-15

    def __post_init__(self):
        if not all(math.isfinite(t) and t > 0.0 for t in (self.rel_tol, self.abs_tol)):
            raise DomainError("quadrature tolerances must be finite and positive")


#: ``QuadratureSpec()`` under the name the benchmark imports.
DEFAULT_2D = QuadratureSpec()


@dataclass(frozen=True)
class VolumeEstimate:
    """Value of one volume integral with its statistical error (zero for
    deterministic quadrature) and the method that produced it."""

    value: float
    std_error: float
    method: str

    def __post_init__(self):
        if self.value < 0.0:
            raise DomainError(f"volumes are non-negative, got {self.value!r}")
        if self.std_error < 0.0:
            raise DomainError("std_error must be non-negative")


def orbit_volume_qubit(metric: MetricKind, radius: float, spec: QuadratureSpec | None = None) -> VolumeEstimate:
    """Unnormalized volume of the two-level orbit region with Bloch
    radius up to ``radius``: the route of ``orbit_volume_simplex`` at
    n = 2 on the ordered 1-simplex, cut by the linear form
    ``((R - 1)/2, (R + 1)/2)``, whose pairing is non-negative where
    r_1 - r_2 <= R.

    Values are in the simplex coordinate r_1 = (1 + rho)/2, as at every n:
    ``qubit_ball_volume`` times 1/2 for HS and times 2 for Bures and BKM
    (dr_1 = drho/2, and the simplex density of the curved metrics is four
    times their density in the Bloch radius); ratios are the same.
    """
    R = _check_bloch_radius(radius)
    return _region_volume(metric, 2, ((R - 1.0) / 2.0, (R + 1.0) / 2.0), spec or QuadratureSpec())


def orbit_volume_qutrit(
    metric: MetricKind,
    zeta: float | None = None,
    spec: QuadratureSpec | None = None,
) -> VolumeEstimate:
    """Unnormalized volume of the three-level orbit space (``zeta=None``)
    or of its Wigner-positive part for the kernel at apex angle ``zeta``:
    ``orbit_volume_simplex`` at n = 3 (method ``"exact"`` for HS,
    ``"cubature"`` otherwise).  Values are in the simplex coordinates
    r_1, r_2, as at every n; polar coordinates (r, phi) would give
    3*sqrt(3)/2 times these values and the same ratios.
    """
    kernel = None if zeta is None else qutrit_kernel_spectrum(zeta)
    return orbit_volume_simplex(metric, 3, kernel, spec)


def qutrit_full_volume(metric: MetricKind, spec: QuadratureSpec) -> float:
    """Full three-level orbit-space volume: ``simplex_full_volume`` at n = 3."""
    return simplex_full_volume(metric, 3, spec)


# --- Gauss-Legendre rules with order doubling --------------------------------

@lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights of the given order on
    [0, 1], built once per process: each build solves a dense
    eigenproblem of that size (Golub & Welsch, Math. Comp. 23, 1969)."""
    s, w = np.polynomial.legendre.leggauss(order)
    s, w = (s + 1.0) / 2.0, w / 2.0
    s.flags.writeable = w.flags.writeable = False
    return s, w


def _doubled(rule, what: str, rel_tol: float, first: int, last: int):
    """``rule(order)`` at orders first, 2 first, ... up to ``last`` until
    two in a row agree to ``rel_tol``, relative only: (value, last change,
    order), else ConvergenceError naming ``what``."""
    prev, change, order = None, math.inf, first
    while order <= last:
        value = rule(order)
        if prev is not None:
            change = abs(value - prev)
            if change <= rel_tol * abs(value):
                return value, change, order
        prev, order = value, 2 * order
    raise ConvergenceError(f"{what} did not settle below rel_tol={rel_tol:g} by order {order // 2}: "
                           f"value {prev:.6e}, last change {change:.3e}")


def gauss_legendre_doubling(f, a: float, b: float, *, rel_tol: float):
    """Integrate ``f`` on [a, b] with Gauss-Legendre rules of order 16,
    32, ..., 256 until two consecutive orders agree to ``rel_tol``,
    relative only.  Returns (value, last change, order, evaluations of
    ``f``).  Meant for smooth integrands such as the flat closed form
    over the moduli angle."""
    if b <= a:
        raise DomainError("empty integration interval")

    def rule(order):
        s, w = _gauss_legendre(order)
        return (b - a) * math.fsum(wk * f(a + (b - a) * sk) for sk, wk in zip(s, w))

    value, change, order = _doubled(rule, "Gauss-Legendre doubling", rel_tol, 16, 256)
    return value, change, order, 2 * order - 16  # one f per node at orders 16, 32, ..., order


# --- general-N simplex integration -----------------------------------------

#: Largest N of the simplex routes.  Flat metric: at N = 7 the float rule
#: has 1.18M points and has lost accuracy to about 1e-8, at N = 9 its
#: points would not fit in memory.  Bures and BKM: the collapsed rule at
#: orders 8 and 16 has 16^(N-1) points, past its limit from N = 7 on.
_SIMPLEX_MAX_N = 6


@lru_cache(maxsize=None)
def _gm_rule(d: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Grundmann-Moller rule of degree 2s+1 on a d-simplex: barycentric
    points (m, d+1) and weights summing to 1 (Grundmann & Moller, SIAM
    J. Numer. Anal. 15, 1978).  The weights alternate in sign."""
    points, weights = [], []
    for i in range(s + 1):
        denom = d + 2 * s + 1 - 2 * i
        # integer quotient, so the weight is correctly rounded
        w = ((-1) ** i * denom ** (2 * s + 1) * math.factorial(d)
             / (2 ** (2 * s) * math.factorial(i) * math.factorial(d + 2 * s + 1 - i)))
        # compositions beta of s - i into d + 1 parts, by stars and bars
        for bars in combinations(range(s - i + d), d):
            beta = np.diff((-1,) + bars + (s - i + d,)) - 1
            points.append((2 * beta + 1) / denom)
            weights.append(w)
    points, weights = np.array(points), np.array(weights)
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


def _cut_pieces(verts, ells):
    """Simplices triangulating ``conv(verts) & {l >= 0}``, given the
    vertices and their values ``ells`` of the linear form l.

    Pulling triangulation from the first vertex p with l(p) >= 0: the cone
    from p over the staircase triangulation of the cut section (spanned
    by the points x_ij where l = 0 on the edges from the positive vertices
    p_i to the negative ones q_j, combinatorially a product of two
    simplices, one piece per monotone lattice path), and the cone from p
    over the same construction on the facet opposite p.  A vertex with
    l = 0 counts as positive; the pieces it makes degenerate have volume 0.
    """
    pos = [i for i, e in enumerate(ells) if e >= 0.0]
    neg = [i for i, e in enumerate(ells) if e < 0.0]
    if not neg:
        return [list(verts)]
    if not pos:
        return []
    apex = verts[pos[0]]
    cross = [[verts[i] + ells[i] / (ells[i] - ells[j]) * (verts[j] - verts[i]) for j in neg] for i in pos]
    steps = len(pos) + len(neg) - 2
    pieces = []
    for up in combinations(range(steps), len(pos) - 1):
        i = j = 0
        section = [cross[0][0]]
        for k in range(steps):
            i, j = (i + 1, j) if k in up else (i, j + 1)
            section.append(cross[i][j])
        pieces.append([apex] + section)
    keep = [k for k in range(len(verts)) if k != pos[0]]
    rest = _cut_pieces([verts[k] for k in keep], [ells[k] for k in keep])
    return pieces + [[apex] + piece for piece in rest]


def _simplex_pieces(n: int, pi_asc) -> list[tuple[np.ndarray, float]]:
    """Corners (d+1, n) and volume in r_1 ... r_{n-1} of each piece of a
    triangulation of the ordered simplex, or of its part where the pairing
    with the ascending kernel spectrum ``pi_asc`` is non-negative."""
    verts = [np.array([1.0 / k if i < k else 0.0 for i in range(n)]) for k in range(1, n + 1)]
    ells = [0.0] * n if pi_asc is None else [sum(x * p for x, p in zip(v, pi_asc)) for v in verts]
    pieces = []
    for piece in _cut_pieces(verts, ells):
        corners = np.array(piece)
        pieces.append((corners, abs(np.linalg.det(corners[1:, :-1] - corners[0, :-1])) / math.factorial(n - 1)))
    return pieces


def _exact_hs_volume(n: int, pi_asc) -> float:
    """Flat-metric volume of the ordered simplex, or of its positive part
    for ``pi_asc``, by a Grundmann-Moller rule exact for the density's
    degree n(n-1) on each piece of the triangulation."""
    bary, weights = _gm_rule(n - 1, n * (n - 1) // 2)
    terms = []
    for corners, volume in _simplex_pieces(n, pi_asc):
        terms += (volume * weights * _density_batch(MetricKind.HS, bary @ corners)).tolist()
    return math.fsum(terms)


#: Power p of the substitution u = s^p in the collapsed rule.  p = 2 turns
#: the Bures half-integer powers into integer ones; the BKM log weight at
#: the pure-state corner needs p = 8 to reach 1e-10 by order 128 at n = 3.
_COLLAPSE_POWER = {MetricKind.BURES: 2, MetricKind.BKM: 8}

#: Limits of the order doubling: tensor points per piece, and the 1-D order.
_MAX_POINTS = 2 ** 21
_MAX_ORDER = 1024

#: Points evaluated at once, which bounds the memory of one step.
_CHUNK = 2 ** 12


def _collapsed_rule_sum(metric, pieces, order: int) -> float:
    """Sum over the pieces of the tensor Gauss-Legendre rule of the given
    order in s, through u = s^p and the Duffy map from the unit cube to
    barycentric coordinates, b_0 = 1 - u_1, b_k = u_1...u_k (1 - u_{k+1}),
    b_d = u_1...u_d, whose Jacobian is prod_k u_k^(d-k)."""
    p = _COLLAPSE_POWER[metric]
    d = len(pieces[0][0]) - 1
    s, w = _gauss_legendre(order)
    u = s ** p
    # per-axis weights: Gauss weight, ds-to-du factor and Duffy Jacobian
    axis_weights = [w * p * s ** (p - 1) * u ** (d - k) for k in range(1, d + 1)]
    total = []
    for corners, volume in pieces:
        for start in range(0, order ** d, _CHUNK):
            idx = np.unravel_index(np.arange(start, min(start + _CHUNK, order ** d)), (order,) * d)
            bary = np.empty((len(idx[0]), d + 1))
            weight = np.full(len(idx[0]), math.factorial(d) * volume)
            prefix = 1.0
            for k, i in enumerate(idx):
                bary[:, k] = prefix * (1.0 - u[i])
                prefix = prefix * u[i]
                weight *= axis_weights[k][i]
            bary[:, d] = prefix
            total.append(float(weight @ _density_batch(metric, bary @ corners)))
    return math.fsum(total)


def _collapsed_volume(metric, n: int, pi_asc, rel_tol: float) -> float:
    """Bures or BKM volume by the collapsed rule, doubled from order 8
    while the tensor rule has at most ``_MAX_POINTS`` points.

    Each piece's corners are sorted by their count of zero eigenvalues,
    most first.  Zero sets in the ordered simplex nest (r_k = 0 implies
    r_{k+1..n} = 0), so every eigenvalue is then u_1...u_j times a factor
    bounded away from 0, and the singularities where eigenvalues vanish
    become powers of s (times a log, for BKM)."""
    pieces = [(corners[np.argsort(-(corners == 0.0).sum(axis=1), kind="stable")], volume)
              for corners, volume in _simplex_pieces(n, pi_asc) if volume > 0.0]
    if not pieces:
        return 0.0
    # the largest power of two whose (n-1)-th power fits _MAX_POINTS
    last = min(_MAX_ORDER, 2 ** ((_MAX_POINTS.bit_length() - 1) // (n - 1)))
    what = f"{metric.value} n={n} {'full volume' if pi_asc is None else 'positive part'}: collapsed cubature"
    return _doubled(lambda order: _collapsed_rule_sum(metric, pieces, order), what, rel_tol, 8, last)[0]


def orbit_volume_simplex(
    metric: MetricKind,
    n: int,
    kernel=None,
    spec: QuadratureSpec | None = None,
) -> VolumeEstimate:
    """Unnormalized volume of the ordered eigenvalue simplex (or of its
    positive cone for the given kernel spectrum) in the coordinates
    r_1 >= ... >= r_{n-1}.

    The region is a polytope, triangulated into simplices; supported for
    2 <= n <= 6.  HS: the density is a polynomial, so a Grundmann-Moller
    rule exact for its degree gives the volume to rounding (method
    ``"exact"``), and ``spec`` does not apply.  Bures and BKM: a collapsed
    tensor Gauss-Legendre rule on each simplex (method ``"cubature"``), its
    order doubled until two orders agree to ``spec.rel_tol`` alone.
    ConvergenceError when the next order would exceed 2^21 points per
    simplex: BKM n = 5 at the default spec, or n = 6 at useful tolerances.
    """
    if not 2 <= n <= _SIMPLEX_MAX_N:
        raise DomainError(f"simplex volumes are supported from n = 2 up to n = {_SIMPLEX_MAX_N}, got {n}")
    pi_asc = None
    if kernel is not None:
        if kernel.n != n:
            raise DomainError(f"kernel has {kernel.n} levels, expected {n}")
        pi_asc = kernel.values
    return _region_volume(metric, n, pi_asc, spec or QuadratureSpec())


def _region_volume(metric, n: int, pi_asc, spec: QuadratureSpec) -> VolumeEstimate:
    """The ordered simplex, or its part where the pairing with ``pi_asc``
    is non-negative: exact for HS, the collapsed cubature otherwise."""
    if metric is MetricKind.HS:
        return VolumeEstimate(max(_exact_hs_volume(n, pi_asc), 0.0), 0.0, "exact")
    return VolumeEstimate(max(_collapsed_volume(metric, n, pi_asc, spec.rel_tol), 0.0), 0.0, "cubature")


@lru_cache(maxsize=32)
def simplex_full_volume(metric: MetricKind, n: int, spec: QuadratureSpec) -> float:
    """Full orbit-space volume of ``orbit_volume_simplex``, cached per
    metric, n and spec (it is the moduli-independent denominator of every
    indicator ratio); equal-valued specs share one entry."""
    return orbit_volume_simplex(metric, n, None, spec).value


# --- the three-level moduli average as one sector integral ------------------

_ZETA_MAX = math.pi / 3.0


@lru_cache(maxsize=None)
def _qutrit_pairing_plane() -> np.ndarray:
    """The matrix taking a descending three-level spectrum r to (A, B, 1),
    where the pairing of r with the kernel at apex angle zeta is
    ``1/3 - A cos(zeta) - B sin(zeta)``.

    On [0, pi/3] the ascending kernel spectrum is ``1/3 - a cos(zeta) -
    b sin(zeta)`` for fixed vectors a and b, and r sums to 1, so the rows
    a, b are read off ``qutrit_kernel_spectrum`` at zeta = 0 and pi/3.
    They give A = (2/3)(3 r_1 - 1) and B = (2/sqrt 3)(r_2 - r_3), and map
    the ordered triangle onto the sector 0 <= atan2(B, A) <= pi/3.
    """
    third = 1.0 / 3.0
    a = third - np.array(qutrit_kernel_spectrum(0.0).values)
    b = (third - np.array(qutrit_kernel_spectrum(_ZETA_MAX).values) - a / 2.0) * (2.0 / math.sqrt(3.0))
    plane = np.array([a, b, np.ones(3)])
    plane.flags.writeable = False
    return plane


def _zeta_positive_fraction(rho, phi):
    """Fraction of zeta in [0, pi/3] at which a spectrum with polar
    coordinates (rho, phi) of (A, B) is Wigner-positive.

    The pairing ``1/3 - rho cos(zeta - phi)`` is negative on the window
    ``phi -+ arccos(1/(3 rho))`` when rho > 1/3; the fraction is 1 minus
    the window's length within [0, pi/3] over pi/3.  The half-width is
    written ``arctan(sqrt(9 rho^2 - 1))``, so rho <= 1/3 takes no branch,
    and an empty intersection has length 0, so a rounded phi outside
    [0, pi/3] near the maximally mixed state still gives 1.
    """
    half = np.arctan(np.sqrt(np.maximum(9.0 * rho * rho - 1.0, 0.0)))
    inside = np.minimum(phi + half, _ZETA_MAX) - np.maximum(phi - half, 0.0)
    return 1.0 - np.maximum(inside, 0.0) / _ZETA_MAX


def _sector_rule_sum(metric, order: int) -> float:
    """The integral of density times ``_zeta_positive_fraction`` over the
    ordered triangle by a tensor Gauss-Legendre rule of the given order
    per axis, in polar coordinates (rho, phi) of (A, B).

    phi is split at pi/6.  On each half the radial range stops at the
    farther of the lines P_0 = 0 and P_{pi/3} = 0 (the pairings at zeta = 0
    and pi/3), beyond which the fraction is 0, so the edge r_3 = 0 and
    the pure state never enter.  It is broken at the circle rho = 1/3,
    inside which the fraction is 1, and at the nearer line, where the
    window meets one end of [0, pi/3].  Between the circle and the lines
    the variable is t = sqrt(rho - 1/3), in which the fraction is
    analytic; the line through the angle delta from its normal lies at
    ``t = sin(|delta|/2) sqrt(2/(3 cos delta))``."""
    plane = _qutrit_pairing_plane()
    to_spectrum = np.linalg.inv(plane).T
    jacobian = 1.0 / abs(np.linalg.det(plane))
    s, w = _gauss_legendre(order)
    half = _ZETA_MAX / 2.0
    total = []
    for start, near, far in ((0.0, 0.0, _ZETA_MAX), (half, _ZETA_MAX, 0.0)):
        phi = (start + half * s)[:, None]
        t_near, t_far = (np.sin(np.abs(phi - c) / 2.0) * np.sqrt(2.0 / (3.0 * np.cos(phi - c))) for c in (near, far))
        # (rho, weight of d rho) on an (order, order) grid, phi down the rows
        radial = [(np.tile(s / 3.0, (order, 1)), np.tile(w / 3.0, (order, 1)))]
        for lo, hi in ((0.0, t_near), (t_near, t_far)):
            t = lo + (hi - lo) * s
            radial.append((1.0 / 3.0 + t * t, 2.0 * t * (hi - lo) * w))
        for rho, w_rho in radial:
            points = np.stack([rho * np.cos(phi), rho * np.sin(phi), np.ones_like(rho)], axis=-1)
            weight = jacobian * half * w[:, None] * w_rho * rho * _zeta_positive_fraction(rho, phi)
            total.append(float(weight.ravel() @ _density_batch(metric, points.reshape(-1, 3) @ to_spectrum)))
    return math.fsum(total)


def _moduli_average_integral(metric, rel_tol: float):
    """The numerator of the three-level moduli average, the integral of
    density times the Wigner-positive fraction of apex angles over the
    ordered simplex, in the coordinates of ``simplex_full_volume``: the
    sector rule doubled from order 8 to at most 256 (6 * 256^2 points,
    which BKM needs below rel_tol 1.5e-13).  Returns (value, last change,
    order, density evaluations)."""
    what = f"{metric.value} n=3 moduli average: sector rule"
    value, change, order = _doubled(lambda k: _sector_rule_sum(metric, k), what, rel_tol, 8, 256)
    return value, change, order, 8 * order * order - 128  # 6 k^2 at each order k = 8, 16, ..., order
