"""The triangulation of the ordered simplex as it was first written, on
numpy vertices with one determinant per piece: the oracle that the
float-tuple build of ``_simplex_pieces`` gives the same bits."""

import math
from itertools import combinations

import numpy as np


def cut_pieces_reference(verts, ells):
    """Simplices triangulating ``conv(verts) & {l >= 0}`` by the pulling
    triangulation of ``quadrature._cut_pieces``, each cross point one numpy
    expression over its two vertices."""
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
    rest = cut_pieces_reference([verts[k] for k in keep], [ells[k] for k in keep])
    return pieces + [[apex] + piece for piece in rest]


def simplex_pieces_reference(n, pi_asc):
    """Corners (d+1, n) and volume of each piece, one ``np.linalg.det`` per
    piece."""
    verts = [np.array([1.0 / k if i < k else 0.0 for i in range(n)]) for k in range(1, n + 1)]
    ells = [0.0] * n if pi_asc is None else [sum(x * p for x, p in zip(v, pi_asc)) for v in verts]
    pieces = []
    for piece in cut_pieces_reference(verts, ells):
        corners = np.array(piece)
        pieces.append((corners, abs(np.linalg.det(corners[1:, :-1] - corners[0, :-1])) / math.factorial(n - 1)))
    return pieces
