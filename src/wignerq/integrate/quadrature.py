"""Deterministic quadrature over the orbit space.

Every volume, from N = 2 to N = 6, triangulates its region -- the ordered
simplex, cut by one half-space for a positive part or a smaller Bloch
ball -- and integrates each piece:

* flat metric (HS): the density is a polynomial of degree N(N-1), so a
  Grundmann-Moller rule of that degree gives the volume to rounding;
* Bures and BKM: a collapsed tensor Gauss-Legendre rule (Duffy map, then
  ``u = s^p``) turns the inverse-square-root and log singularities where
  eigenvalues vanish into powers of ``s``.  Its orders are set per axis,
  dimension-adaptively, up to 2^21 points per piece, and the error it
  reports is the sum of its last per-axis changes (Bures converges to
  N = 6, BKM to N = 5 at the default tolerance).

The three-level moduli average is one integral over the ordered simplex
of the density times the fraction of apex angles at which each spectrum
is Wigner-positive, by a Gauss-Legendre rule on sectors about the
maximally mixed state; ``gauss_legendre_doubling`` integrates the flat
closed form over the angle instead.  These two rules share one doubling
loop, ``_doubled``: the order doubles until two orders agree to
``rel_tol``, relative only (``abs_tol`` does not apply).  Each 1-D rule,
and each small reference grid of the collapsed rule, is built once per
process.

All volumes are unnormalized, in the simplex coordinates r_1 ... r_{N-1};
only ratios are meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from ..closed_form import QuadratureSpec
from ..errors import ConvergenceError, DomainError
from ..measures import _density_batch
from ..spectra import _ZETA_MAX, MetricKind, _check_bloch_radius
from ..sw_kernel import qutrit_kernel_spectrum


#: ``QuadratureSpec()`` under the name the benchmark imports.
DEFAULT_2D = QuadratureSpec()


@dataclass(frozen=True)
class VolumeEstimate:
    """Value of one volume integral, the error its rule reports (0 for the
    exact flat-metric rule, the sum of the last per-axis changes for the
    collapsed cubature) and the method that produced it."""

    value: float
    error: float
    method: str

    def __post_init__(self):
        if self.value < 0.0:
            raise DomainError(f"volumes are non-negative, got {self.value!r}")
        if self.error < 0.0:
            raise DomainError("error must be non-negative")


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
#: points would not fit in memory.  Bures and BKM: the collapsed rule
#: converges at the default spec up to N = 6 (Bures) and N = 5 (BKM); at
#: N = 7 its first probes already have 2^19 points, a quarter of its limit.
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

#: Limits of the dimension-adaptive rule: tensor points per piece, and the
#: 1-D order of any one axis.
_MAX_POINTS = 2 ** 21
_MAX_ORDER = 1024

#: Rows per density call, which bounds the memory of one call, and the
#: most points of a reference grid kept for the process (the first grid at
#: N = 6 has 8^5 points, so its grids are kept only in part).
_CHUNK = 2 ** 12


def _axis_rule(p: int, order: int, power: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u = s^p of one axis of the collapsed rule and their weights:
    the Gauss-Legendre weight in s, the ds-to-du factor and the axis's
    Duffy Jacobian factor u^power."""
    s, w = _gauss_legendre(order)
    u = s ** p
    return u, w * p * s ** (p - 1) * u ** power


@lru_cache(maxsize=32)
def _reference_grid(p: int, orders: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The collapsed tensor rule on the unit d-simplex with ``orders[k]``
    nodes on axis k, read-only and kept for the process (the 32 last used,
    under 8 MB): barycentric points (m, d+1) of the Duffy map from the
    unit cube, b_0 = 1 - u_1, b_k = u_1...u_k (1 - u_{k+1}),
    b_d = u_1...u_d, and weights d! times the axis weights, whose Jacobian
    factors give prod_k u_k^(d-k)."""
    d = len(orders)
    bary = np.empty(orders + (d + 1,))
    weight = np.full(orders, float(math.factorial(d)))
    prefix = 1.0
    for k, order in enumerate(orders):
        u, w = (a.reshape((1,) * k + (order,) + (1,) * (d - 1 - k)) for a in _axis_rule(p, order, d - 1 - k))
        bary[..., k] = prefix * (1.0 - u)
        prefix = prefix * u
        weight *= w
    bary[..., d] = prefix
    bary, weight = bary.reshape(-1, d + 1), weight.reshape(-1)
    bary.flags.writeable = weight.flags.writeable = False
    return bary, weight


def _grid_blocks(p: int, orders: tuple):
    """The collapsed rule with the given orders, one block per node of the
    leading axes 1 ... t: (b_0 ... b_{t-1}, u_1...u_t, weight factor,
    reference grid of the trailing axes t+1 ... d), the trailing axes being
    the longest run with at most ``_CHUNK`` points.  The Duffy map nests,
    so a point of the block is b_0 ... b_{t-1} followed by u_1...u_t times
    a point of that grid, and its weight is the factor times the grid's."""
    d, t = len(orders), len(orders)
    while t > 0 and math.prod(orders[t - 1:]) <= _CHUNK:
        t -= 1
    trailing = _reference_grid(p, orders[t:])
    axes = [[a.tolist() for a in _axis_rule(p, order, d - 1 - k)] for k, order in enumerate(orders[:t])]
    scale = math.factorial(d) / math.factorial(d - t)
    for idx in product(*(range(order) for order in orders[:t])):
        lead, prefix, factor = [], 1.0, scale
        for (u, w), i in zip(axes, idx):
            lead.append(prefix * (1.0 - u[i]))
            prefix *= u[i]
            factor *= w[i]
        yield np.array(lead), prefix, factor, trailing


def _collapsed_sums(metric, pieces, grids) -> list[float]:
    """The collapsed rule at each orders tuple of ``grids``, summed over the
    pieces.  The points of all grids and pieces share density calls of at
    most ``_CHUNK`` rows."""
    p = _COLLAPSE_POWER[metric]
    terms = [[] for _ in grids]
    rows = np.empty((_CHUNK, pieces[0][0].shape[1]))
    pending, used = [], 0

    def flush():
        density = _density_batch(metric, rows[:used])
        at = 0
        for j, factor, weight in pending:
            terms[j].append(factor * float(weight @ density[at:at + len(weight)]))
            at += len(weight)
        pending.clear()

    for j, orders in enumerate(grids):
        for lead, prefix, factor, (bary, weight) in _grid_blocks(p, orders):
            t = len(lead)
            for corners, volume in pieces:
                if used + len(weight) > _CHUNK:
                    flush()
                    used = 0
                block = rows[used:used + len(weight)]
                np.matmul(bary, corners[t:], out=block)
                if t:
                    block *= prefix
                    block += lead @ corners[:t]
                pending.append((j, factor * volume, weight))
                used += len(weight)
    flush()
    return [math.fsum(parts) for parts in terms]


def _collapsed_volume(metric, n: int, pi_asc, rel_tol: float) -> tuple[float, float]:
    """Bures or BKM volume by the collapsed rule with one order per axis,
    refined dimension-adaptively (Gerstner & Griebel, Computing 71, 2003):
    (value, error).

    Every axis starts at order 8.  Each step probes each axis by doubling
    it alone, and doubles every axis whose probe moved the value by at
    least half the largest move.  The value is the rule at the current
    orders plus every probe's move (the sum over Gerstner and Griebel's
    index set); the error is the sum of the moves' sizes.  The loop stops
    when the error is at most ``rel_tol`` times the value, and raises
    ConvergenceError, naming the last orders, when the next step would
    need a rule of more than ``_MAX_POINTS`` points per piece or an axis
    of order above ``_MAX_ORDER``.  No rule is evaluated twice.

    Each piece's corners are sorted by their count of zero eigenvalues,
    most first.  Zero sets in the ordered simplex nest (r_k = 0 implies
    r_{k+1..n} = 0), so every eigenvalue is then u_1...u_j times a factor
    bounded away from 0, and the singularities where eigenvalues vanish
    become powers of s (times a log, for BKM)."""
    pieces = [(corners[np.argsort(-(corners == 0.0).sum(axis=1), kind="stable")], volume)
              for corners, volume in _simplex_pieces(n, pi_asc) if volume > 0.0]
    if not pieces:
        return 0.0, 0.0
    orders, known = (8,) * (n - 1), {}
    while True:
        grids = [orders] + [orders[:k] + (2 * o,) + orders[k + 1:] for k, o in enumerate(orders)]
        missing = [g for g in grids if g not in known]
        known.update(zip(missing, _collapsed_sums(metric, pieces, missing)))
        moves = [known[g] - known[orders] for g in grids[1:]]
        value, error = math.fsum(moves + [known[orders]]), math.fsum(map(abs, moves))
        if error <= rel_tol * abs(value):
            return value, error
        largest = max(map(abs, moves))
        refined = tuple(2 * o if abs(m) >= largest / 2.0 else o for o, m in zip(orders, moves))
        if 2 * math.prod(refined) > _MAX_POINTS or 2 * max(refined) > _MAX_ORDER:
            what = f"{metric.value} n={n} {'full volume' if pi_asc is None else 'positive part'}"
            raise ConvergenceError(f"{what}: collapsed cubature did not settle below rel_tol={rel_tol:g} "
                                   f"at orders {orders}: value {value:.6e}, last change {error:.3e}")
        orders = refined


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
    ``"exact"``, error 0), and ``spec`` does not apply.  Bures and BKM: a
    collapsed tensor Gauss-Legendre rule on each simplex (method
    ``"cubature"``), its orders refined axis by axis until the sum of the
    last per-axis changes, reported as ``error``, is at most
    ``spec.rel_tol`` times the value.  At the default spec Bures converges
    up to n = 6 and BKM up to n = 5 (about 1.5 s each for the full
    volume); ConvergenceError when the next step would exceed 2^21 points
    per simplex, as for BKM n = 6.
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
    value, error = _collapsed_volume(metric, n, pi_asc, spec.rel_tol)
    return VolumeEstimate(max(value, 0.0), error, "cubature")


@lru_cache(maxsize=32)
def simplex_full_volume(metric: MetricKind, n: int, spec: QuadratureSpec) -> float:
    """Full orbit-space volume of ``orbit_volume_simplex``, cached per
    metric, n and spec (it is the moduli-independent denominator of every
    indicator ratio); equal-valued specs share one entry."""
    return orbit_volume_simplex(metric, n, None, spec).value


# --- the three-level moduli average as one sector integral ------------------

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
