"""Scalar reference density for the tests, written with the math module
only: the oracle of the package's vectorized density kernel and the
integrand of the tests' own adaptive quadratures."""

import math

from wignerq import MetricKind


def weight_reference(metric, x, y):
    """The Morozova-Chentsov weight, one formula per metric: ``2/(x+y)``
    (Bures) and ``ln(x/y)/(x-y)`` (BKM), the latter through a series below
    relative separation 1e-9, through ``log1p`` above it, and through the
    log of the quotient where ``(x-y)/y`` rounds to -1."""
    if metric is MetricKind.BURES:
        return 2.0 / (x + y)
    d = (x - y) / x
    if abs(x - y) < 1e-9 * x:
        return (1.0 + d / 2.0 + d * d / 3.0) / x
    if (x - y) / y <= -1.0:
        return math.log(x / y) / (x - y)
    return math.log1p((x - y) / y) / (x - y)


def density_reference(metric, vals):
    """The unnormalized density at an eigenvalue tuple, any order: the
    product to the power -1/2 (Bures, BKM), then each pair's squared
    difference and its weight, multiplied in index order."""
    n = len(vals)
    out = 1.0
    if metric is not MetricKind.HS:
        prod = 1.0
        for v in vals:
            prod *= v
        out = prod ** -0.5
    for i in range(n):
        for j in range(i + 1, n):
            d = vals[i] - vals[j]
            out *= d * d
            if metric is not MetricKind.HS:
                out *= weight_reference(metric, vals[i], vals[j])
    return out
