"""The matrix-model samplers as oracles.

``reference_spectra`` is their LAPACK chain, written with numpy's stacked
linear algebra only: a phase-fixed ``np.linalg.qr`` for the Haar unitary
and ``eigvalsh`` for the spectra.  It is the oracle of the package's
closed-form qubit and qutrit kernel; on the same random stream it is the
package's n >= 4 path, operation for operation.

``matrix_fraction`` is the positive-cone fraction of the package's matrix
models, an estimate that shares no weights with the importance-sampled
indicator."""

import math

import numpy as np

from wignerq.integrate.sampling import sample_spectra
from wignerq.positivity import DEFAULT_CONE_TOL, min_pairing_batch


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
    """The fraction p of ``spec.samples`` = m matrix-model spectra inside
    the kernel's positive cone, to ``DEFAULT_CONE_TOL``, and its binomial
    standard error sqrt(p (1 - p) / m)."""
    spectra = sample_spectra(metric, n, spec, "matrix")[0]
    p = float(np.mean(min_pairing_batch(spectra, kernel) >= -DEFAULT_CONE_TOL))
    return p, math.sqrt(p * (1.0 - p) / len(spectra))
