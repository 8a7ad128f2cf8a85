"""The Grundmann-Moller rule as it was first written, one composition at
a time: the oracle that the array build of ``_gm_rule`` gives the same
bits."""

import math
from itertools import combinations

import numpy as np


def gm_rule_reference(d, s):
    """Grundmann-Moller rule of degree 2s+1 on a d-simplex: barycentric
    points (m, d+1) and weights summing to 1, each weight a correctly
    rounded integer quotient and each point built from one composition
    beta of s - i into d + 1 parts (stars and bars)."""
    points, weights = [], []
    for i in range(s + 1):
        denom = d + 2 * s + 1 - 2 * i
        w = ((-1) ** i * denom ** (2 * s + 1) * math.factorial(d)
             / (2 ** (2 * s) * math.factorial(i) * math.factorial(d + 2 * s + 1 - i)))
        for bars in combinations(range(s - i + d), d):
            beta = np.diff((-1,) + bars + (s - i + d,)) - 1
            points.append((2 * beta + 1) / denom)
            weights.append(w)
    return np.array(points), np.array(weights)
