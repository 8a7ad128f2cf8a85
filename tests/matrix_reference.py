"""The matrix models as oracles.

``reference_spectra`` is their LAPACK chain, written with numpy's stacked
linear algebra only: a phase-fixed ``np.linalg.qr`` for the Haar unitary
and ``eigvalsh`` for the spectra.  On the same random stream it is the
package's n >= 6 path, operation for operation; at n <= 5 it is the law
that the package's rejection draws must follow.

``matrix_fraction`` is the positive-cone fraction of the matrix models,
drawn through ``reference_spectra`` at every n: an estimate that shares
no code with the density that the quadrature, the importance-sampled
indicator and the rejection draws all evaluate."""

import math

import numpy as np

from wignerq.positivity import DEFAULT_CONE_TOL, min_pairing_batch
from wignerq.spectra import MetricKind


def ginibre(rng, m, n):
    """m complex Gaussian n x n matrices: the real parts, then the imaginary parts."""
    return rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))


def qr_unitary(z):
    """The Q of z = QR with R's diagonal real and positive (Mezzadri 2007)."""
    q, r = np.linalg.qr(z)
    d = np.einsum("...ii->...i", r)
    return q * (d / np.abs(d))[:, None, :]


def reference_spectra(bures, n, samples, seed, workers, batch):
    """Trace-normalized spectra, rows descending, of the HS (``bures``
    false) or Bures matrix model, drawn from worker ``i``'s child stream
    ``SeedSequence(seed, spawn_key=(i,))`` in batches of ``batch`` rows."""
    base, extra = divmod(samples, workers)
    rows = []
    for index in range(workers):
        count = base + (1 if index < extra else 0)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))
        done = 0
        while done < count:
            m = min(batch, count - done)
            a = ginibre(rng, m, n)
            if bures:
                a = (np.eye(n) + qr_unitary(ginibre(rng, m, n))) @ a
            ev = np.linalg.eigvalsh(a @ a.conj().swapaxes(1, 2))
            ev = ev / ev.sum(axis=1, keepdims=True)
            rows.append(ev[:, ::-1])
            done += m
    return np.concatenate(rows, axis=0)


def matrix_fraction(metric, n, kernel, spec):
    """The fraction p of ``spec.samples`` = m spectra of the metric's
    matrix model (HS or Bures), drawn by ``reference_spectra`` on
    ``spec``'s seed and workers, inside the kernel's positive cone, to
    ``DEFAULT_CONE_TOL``, and its binomial standard error sqrt(p (1 - p) / m)."""
    spectra = reference_spectra(metric is MetricKind.BURES, n, spec.samples, spec.seed, spec.workers, 1 << 16)
    p = float(np.mean(min_pairing_batch(spectra, kernel) >= -DEFAULT_CONE_TOL))
    return p, math.sqrt(p * (1.0 - p) / len(spectra))
