"""Exact Hilbert-Schmidt volumes of the Wigner-positive orbit region.

In the ordered eigenvalue simplex the minimal Wigner value is the linear
pairing ``sum_i r_i * pi_i`` of the descending state spectrum with the
ascending kernel spectrum, so the positive region is the ordered simplex
(vertices ``(1/k, ..., 1/k, 0, ..., 0)``) cut by one half-space: a convex
polytope.  It is triangulated, and the flat density
``prod_{i<j} (r_i - r_j)^2`` -- a polynomial -- is integrated exactly on
each piece from its expansion in barycentric coordinates, in rational
arithmetic on the floating-point inputs.

The measure is ``dr_1 ... dr_{n-1}`` with ``r_n = 1 - sum``, the same
unnormalized convention as ``wignerq.orbit_volume_simplex``, so the
values here are references for that function, independent of its nested
adaptive quadrature.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

import numpy as np


def _simplex_vertices(n: int) -> list[tuple[Fraction, ...]]:
    return [
        tuple(Fraction(1, k) if i < k else Fraction(0) for i in range(n))
        for k in range(1, n + 1)
    ]


def _positive_vertices(n: int, kernel_asc) -> list[tuple[Fraction, ...]]:
    pi = [Fraction(float(v)) for v in kernel_asc]
    verts = _simplex_vertices(n)
    pairing = [sum(p * x for p, x in zip(pi, v)) for v in verts]
    out = [v for v, s in zip(verts, pairing) if s >= 0]
    for a, sa in zip(verts, pairing):
        for b, sb in zip(verts, pairing):
            if sa > 0 > sb:
                t = sa / (sa - sb)
                out.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
    return out


def _mul_linear(poly: dict, coeffs) -> dict:
    out: dict = {}
    for exps, c in poly.items():
        for j, a in enumerate(coeffs):
            if a == 0:
                continue
            key = exps[:j] + (exps[j] + 1,) + exps[j + 1:]
            out[key] = out.get(key, 0) + c * a
    return out


def _simplex_integral(verts: list[tuple[Fraction, ...]]) -> Fraction:
    """Integral of the flat density over one simplex given by n points."""
    n = len(verts[0])
    d = n - 1
    w0 = verts[0]
    mat = [[verts[j + 1][i] - w0[i] for i in range(d)] for j in range(d)]
    vol = abs(_det(mat)) / factorial(d)
    if vol == 0:
        return Fraction(0)
    poly = {(0,) * (d + 1): Fraction(1)}
    for a in range(n):
        for b in range(a + 1, n):
            form = [v[a] - v[b] for v in verts]
            poly = _mul_linear(poly, form)
            poly = _mul_linear(poly, form)
    total = Fraction(0)
    for exps, c in poly.items():
        num = 1
        for e in exps:
            num *= factorial(e)
        total += c * Fraction(num * factorial(d), factorial(sum(exps) + d))
    return vol * total


def _det(mat) -> Fraction:
    m = [row[:] for row in mat]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, size):
            f = m[r][col] / m[col][col]
            for c in range(col, size):
                m[r][c] -= f * m[col][c]
    return det


def hs_volume(n: int, kernel_asc=None) -> float:
    """Exact flat-measure volume of the ordered simplex (``kernel_asc`` is
    None) or of its Wigner-positive part for an ascending kernel spectrum."""
    if kernel_asc is None:
        return float(_simplex_integral(_simplex_vertices(n)))
    verts = _positive_vertices(n, kernel_asc)
    if len(verts) < n:
        return 0.0
    from scipy.spatial import Delaunay

    pts = np.array([[float(x) for x in v[:-1]] for v in verts])
    if n == 2:
        pts = pts[:, :1]
        order = np.argsort(pts[:, 0])
        pieces = [[int(order[0]), int(order[-1])]]
    else:
        pieces = Delaunay(pts).simplices.tolist()
    return float(sum(_simplex_integral([verts[i] for i in piece]) for piece in pieces))
