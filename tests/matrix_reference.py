"""The LAPACK chain of the matrix-model samplers, written with numpy's
stacked linear algebra only: a phase-fixed ``np.linalg.qr`` for the Haar
unitary and ``eigvalsh`` for the spectra.  The oracle of the package's
closed-form qubit and qutrit kernel; on the same random stream it is the
package's n >= 4 path, operation for operation."""

import numpy as np


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
