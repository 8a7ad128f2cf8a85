"""The importance sampler drawn whole: one ``standard_normal`` call per
worker stream, squared and normalized by row, and the self-normalized
estimate formed from every weight at once.  The oracle of the package's batched sampler and streaming
estimator, which must equal it to rounding."""

import math

import numpy as np

from wignerq.measures import log_radial_density
from wignerq.positivity import DEFAULT_CONE_TOL, min_pairing_batch


def reference_weighted_spectra(metric, n, samples, seed, workers):
    """Sorted Dirichlet(1/2) spectra, rows descending, and their log
    weights, drawn unbatched from worker ``i``'s child stream
    ``SeedSequence(seed, spawn_key=(i,))`` as squared standard normals
    over their row sum, added in index order."""
    base, extra = divmod(samples, workers)
    rows = []
    for index in range(workers):
        count = base + (1 if index < extra else 0)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))
        z = rng.standard_normal((count, n)) ** 2
        total = z[:, 0].copy()
        for j in range(1, n):
            total += z[:, j]
        rows.append(np.sort(z / total[:, None], axis=1)[:, ::-1])
    r = np.concatenate(rows, axis=0)
    with np.errstate(divide="ignore"):
        log_w = log_radial_density(metric, r) + 0.5 * np.log(r).sum(axis=1)
    return r, log_w


def one_shot_fraction(spectra, log_weights, kernel):
    """``(p, se, ess)`` from every weight at once: ``p = sum(w inside) /
    sum(w)``, the delta-method ``se = sqrt(sum(w^2 (inside - p)^2)) /
    sum(w)``, ``ess = sum(w)^2 / sum(w^2)``, and an error of 0 floored to
    ``1 / (int(ess) + 1)``."""
    inside = min_pairing_batch(spectra, kernel) >= -DEFAULT_CONE_TOL
    w = np.exp(log_weights - log_weights.max())
    total = math.fsum(w)
    p = math.fsum(w[inside]) / total
    se = math.sqrt(math.fsum((w * (inside - p)) ** 2)) / total
    ess = total * total / math.fsum(w * w)
    return p, (se if se > 0.0 else 1.0 / (int(ess) + 1)), ess
