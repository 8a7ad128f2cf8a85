"""Monte Carlo samplers for eigenvalue spectra under the three measures.

* Hilbert-Schmidt: square of a complex Gaussian matrix, trace-normalized.
* Bures: the (I + U) G construction with a Haar-random unitary U.

  At n <= 3 both run as numpy arithmetic on component-major (n, n, rows)
  stacks: U from classical Gram-Schmidt applied twice to the columns of a
  Ginibre draw (the Q of its QR factorization with positive diagonal R,
  Mezzadri 2007), and the spectra in closed form, with ``eigvalsh`` only
  for the rare rows with near-double eigenvalues.  At n >= 4 U comes from
  a phase-fixed ``np.linalg.qr`` and the spectra from ``eigvalsh``.  Both
  read the same random stream.
* Any metric, and the default of every Monte Carlo indicator:
  importance sampling.  Sorted Dirichlet(1/2, ..., 1/2) spectra, each
  weighted by the radial density over the proposal density, feed a
  self-normalized estimator that draws, weights and counts them in
  batches of ``_EIG_BATCH`` rows, keeping only running weighted sums, so
  its memory does not grow with the sample count.
* Any metric, opt-in: random-walk Metropolis on the simplex in logit
  coordinates, targeting the radial density.

Parallelism and reproducibility: the master seed is split into one
independent child stream per worker; chunks are combined in worker
order, so results are a pure function of (samples, seed, workers).
Worker processes are an execution detail only -- running the same spec
sequentially yields bit-identical output.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from ..measures import log_radial_density
from ..positivity import DEFAULT_CONE_TOL, min_pairing_batch
from ..spectra import KernelSpectrum, MetricKind

#: Rows per batch of matrix-model draws at n <= 4, closed-form kernel
#: (n <= 3) and LAPACK alike; larger n take fewer rows, so the
#: temporaries stay about 16 * _EIG_BATCH matrix entries.  Also the rows
#: per batch of the importance sampler.
_EIG_BATCH = 1 << 17

#: Rows whose trigonometric-formula argument lies within this of +-1 have
#: near-double eigenvalues, where the closed form loses about sqrt(eps);
#: ``eigvalsh`` takes them.
_TRIG_MARGIN = 1e-6

#: Metropolis acceptance-rate window considered healthy after adaptation.
_ACCEPT_WINDOW = (0.1, 0.9)

_ADAPT_TARGET = 0.4
_ADAPT_INTERVAL = 100


@dataclass(frozen=True)
class McSpec:
    """Sample budget, seeding and parallel layout of a Monte Carlo run.

    ``burn_in``, ``thin`` and ``chains_per_worker`` only affect the
    Markov-chain sampler.  The worker count is part of the
    reproducibility contract: changing it changes the random streams.
    """

    samples: int
    seed: int = 0
    workers: int = 1
    burn_in: int = 10_000
    thin: int = 10
    chains_per_worker: int = 32

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError("samples must be at least 1")
        if self.seed < 0:
            raise DomainError("seed must be a non-negative integer")
        if self.workers < 1:
            raise DomainError("workers must be at least 1")
        if self.burn_in < 0 or self.thin < 1 or self.chains_per_worker < 1:
            raise DomainError("invalid Markov-chain layout")


@dataclass(frozen=True)
class McmcResult:
    """Markov-chain output: equal-length chains plus diagnostics.

    ``samples`` has shape (chains, per_chain, n) with descending
    spectra; the total sample count is rounded up from the request so
    every chain has the same length.
    """

    samples: np.ndarray
    acceptance_rate: float
    step_scale: float
    warnings: tuple[str, ...]

    @property
    def flat(self) -> np.ndarray:
        return self.samples.reshape(-1, self.samples.shape[-1])


def _worker_rng(seed: int, index: int) -> np.random.Generator:
    # the child that SeedSequence(seed).spawn(workers)[index] returns, built in O(1)
    child = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(child))


def _map_ordered(fn, jobs, workers: int):
    """Run jobs, in parallel when asked, returning results in job order."""
    if workers == 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    try:
        with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            futures = [pool.submit(fn, *job) for job in jobs]
            return [f.result() for f in futures]
    except OSError as exc:
        warnings.warn(
            f"process pool for {workers} workers unavailable ({exc!r}); running sequentially",
            RuntimeWarning,
            stacklevel=2,
        )
        return [fn(*job) for job in jobs]


def _per_worker(fn, spec: McSpec, kind, n: int, *rest):
    """``fn(kind, n, *rest, count, seed, index)`` for each worker with a
    non-empty share of ``spec.samples`` (the first ``samples % workers``
    take one more), results in worker order; ``kind`` is the Bures flag
    or the metric."""
    if n < 2:
        raise DomainError("sampling needs n >= 2")
    base, extra = divmod(spec.samples, spec.workers)
    counts = [base + (i < extra) for i in range(spec.workers)]
    jobs = [(kind, n, *rest, c, spec.seed, i) for i, c in enumerate(counts) if c > 0]
    return _map_ordered(fn, jobs, spec.workers)


# --- independent samplers ----------------------------------------------------

def _ginibre(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))


def _haar_unitary(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, m, n))
    d = np.einsum("...ii->...i", r)
    return q * (d / np.abs(d))[:, None, :]


def _lapack_spectra(rng: np.random.Generator, bures: bool, m: int, n: int) -> np.ndarray:
    a = _ginibre(rng, m, n)
    if bures:
        a = (np.eye(n) + _haar_unitary(rng, m, n)) @ a
    ev = np.linalg.eigvalsh(a @ a.conj().swapaxes(1, 2))
    ev = ev / ev.sum(axis=1, keepdims=True)
    return ev[:, ::-1]


# Component-major kernels for n <= 3: an (n, n, m) stack holds entry (i, j)
# of all m matrices in one contiguous row, so each step is one vector op.

def _by_component(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a.transpose(1, 2, 0))


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    return np.array([[sum(a[i, k] * b[k, j] for k in range(n)) for j in range(n)] for i in range(n)])


def _gram_schmidt_unitary(z: np.ndarray) -> np.ndarray:
    """Q of z = QR with R's diagonal real and positive, for a
    component-major stack z: classical Gram-Schmidt run twice over the
    columns, which keeps Q orthonormal to rounding for any z that is not
    numerically singular."""
    cols = []
    for j in range(z.shape[0]):
        v = z[:, j]
        for _ in range(2 if cols else 0):
            v = v - sum((q.conj() * v).sum(axis=0) * q for q in cols)
        cols.append(v / np.sqrt(_abs2(v).sum(axis=0)))
    return np.stack(cols, axis=1)


def _gram(b: np.ndarray) -> np.ndarray:
    """B B^dagger of a component-major stack, Hermitian to the last bit."""
    n = b.shape[0]
    w = np.empty_like(b)
    for i in range(n):
        w[i, i] = _abs2(b[i]).sum(axis=0)
        for j in range(i + 1, n):
            w[i, j] = (b[i] * b[j].conj()).sum(axis=0)
            w[j, i] = w[i, j].conj()
    return w


def _closed_form_eigvals(w: np.ndarray) -> np.ndarray:
    """Eigenvalues of a component-major (n, n, m) Hermitian stack at
    n = 2, 3, as (m, n) rows in descending order.

    n = 2: the larger root from the trace and |w01|^2, the smaller as
    det / larger.  n = 3: the trigonometric formula on w - (tr w / 3) I
    (Smith, Comm. ACM 4, 1961), the middle root from the trace and
    clamped between the outer two; rows whose arccos argument lies
    within ``_TRIG_MARGIN`` of +-1 (a near-double root), or with w a
    multiple of I, go to ``eigvalsh``.
    """
    d = [w[i, i].real for i in range(w.shape[0])]
    tr = sum(d)
    if len(d) == 2:
        off = _abs2(w[0, 1])
        top = 0.5 * (tr + np.sqrt((d[0] - d[1]) ** 2 + 4.0 * off))
        det = d[0] * d[1] - off
        low = np.minimum(det / top, top)
        return np.stack([top, low], axis=1)
    q = tr / 3.0
    s = [di - q for di in d]
    x, y, z = w[0, 1], w[0, 2], w[1, 2]
    ax, ay, az = _abs2(x), _abs2(y), _abs2(z)
    p2 = (s[0] * s[0] + s[1] * s[1] + s[2] * s[2] + 2.0 * (ax + ay + az)) / 6.0
    p = np.sqrt(p2)
    det = s[0] * s[1] * s[2] + 2.0 * (x * z * y.conj()).real - s[0] * az - s[1] * ay - s[2] * ax
    denom = 2.0 * p * p2
    r = det / np.where(denom > 0.0, denom, 1.0)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    top = q + 2.0 * p * np.cos(phi)
    low = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    ev = np.stack([top, np.clip(tr - top - low, low, top), low], axis=1)
    near = (np.abs(r) >= 1.0 - _TRIG_MARGIN) | (denom <= 0.0)
    if near.any():
        rows = np.flatnonzero(near)
        ev[rows] = np.linalg.eigvalsh(w[:, :, rows].transpose(2, 0, 1))[:, ::-1]
    return ev


def _closed_form_spectra(rng: np.random.Generator, bures: bool, m: int, n: int) -> np.ndarray:
    g = _by_component(_ginibre(rng, m, n))
    if bures:
        u = _gram_schmidt_unitary(_by_component(_ginibre(rng, m, n)))
        for i in range(n):
            u[i, i] += 1.0
        g = _matmul(u, g)
    ev = _closed_form_eigvals(_gram(g))
    return ev / ev.sum(axis=1, keepdims=True)


def _matrix_chunk(bures: bool, n: int, count: int, seed: int, index: int) -> np.ndarray:
    rng = _worker_rng(seed, index)
    draw = _closed_form_spectra if n <= 3 else _lapack_spectra
    batch = min(_EIG_BATCH, max(1, 16 * _EIG_BATCH // (n * n)))
    out = np.empty((count, n))
    done = 0
    while done < count:
        m = min(batch, count - done)
        out[done:done + m] = draw(rng, bures, m, n)
        done += m
    return out


def sample_hs_spectra(n: int, spec: McSpec) -> np.ndarray:
    """Spectra of trace-normalized squared Ginibre matrices: the
    Hilbert-Schmidt ensemble.  Returns (samples, n), rows descending."""
    return np.concatenate(_per_worker(_matrix_chunk, spec, False, n), axis=0)


def sample_bures_spectra(n: int, spec: McSpec) -> np.ndarray:
    """Spectra from the (I + U) G matrix model: the Bures ensemble.
    Returns (samples, n), rows descending."""
    return np.concatenate(_per_worker(_matrix_chunk, spec, True, n), axis=0)


# --- importance sampling -----------------------------------------------------

def _weighted_batches(metric: MetricKind, n: int, count: int, seed: int, index: int):
    """One worker's importance sample as ``(spectra, log_weights)``
    batches of at most ``_EIG_BATCH`` rows, drawn from one stream: the
    batches concatenate to the rows of a single ``dirichlet`` call."""
    rng = _worker_rng(seed, index)
    alpha = np.full(n, 0.5)
    for start in range(0, count, _EIG_BATCH):
        r = np.sort(rng.dirichlet(alpha, min(_EIG_BATCH, count - start)), axis=1)[:, ::-1]
        with np.errstate(divide="ignore"):
            # boundary rows: log_radial_density is -inf there, so the weight is 0
            log_w = log_radial_density(metric, r) + 0.5 * np.log(r).sum(axis=1)
        yield r, log_w


def _weighted_chunk(metric: MetricKind, n: int, count: int, seed: int, index: int):
    return list(_weighted_batches(metric, n, count, seed, index))


def sample_weighted_spectra(metric: MetricKind, n: int, spec: McSpec):
    """Importance sample of the radial density of any supported metric.

    Returns ``(spectra, log_weights)``: (samples, n) Dirichlet(1/2, ...,
    1/2) spectra with rows descending, and the log of each row's
    unnormalized weight, radial density over proposal density.  The
    proposal's ``prod r_i^(-1/2)`` cancels the same factor of the Bures
    and BKM densities, so the weights stay bounded for Bures and HS and
    grow only logarithmically for BKM.  Rows on the simplex boundary
    have weight 0 (log weight ``-inf``).  The rows are those that
    ``positive_fraction_weighted`` counts for the same arguments.
    """
    parts = [b for chunk in _per_worker(_weighted_chunk, spec, metric, n) for b in chunk]
    return (
        np.concatenate([p[0] for p in parts], axis=0),
        np.concatenate([p[1] for p in parts]),
    )


#: Weighted sums of no rows: ``(shift, sum w, sum w*inside,
#: sum w^2*inside, sum w^2*outside)`` with ``w = exp(log_w - shift)``.
_NO_SUMS = (-math.inf, 0.0, 0.0, 0.0, 0.0)


def _merge_sums(a: tuple, b: tuple) -> tuple:
    """Weighted sums of two row sets, taken to the larger shift."""
    shift = max(a[0], b[0])
    fa, fb = math.exp(a[0] - shift), math.exp(b[0] - shift)
    return (
        shift,
        a[1] * fa + b[1] * fb,
        a[2] * fa + b[2] * fb,
        a[3] * fa * fa + b[3] * fb * fb,
        a[4] * fa * fa + b[4] * fb * fb,
    )


def _weighted_sums(metric: MetricKind, n: int, kernel: KernelSpectrum, count: int, seed: int, index: int):
    sums = _NO_SUMS
    for r, log_w in _weighted_batches(metric, n, count, seed, index):
        inside = min_pairing_batch(r, kernel) >= -DEFAULT_CONE_TOL
        shift = float(log_w.max())
        w = np.exp(log_w - shift)
        w2 = w * w
        sums = _merge_sums(sums, (shift, float(w.sum()), float(w @ inside), float(w2 @ inside), float(w2 @ ~inside)))
    return sums


def positive_fraction_weighted(metric: MetricKind, n: int, kernel: KernelSpectrum, spec: McSpec):
    """Self-normalized importance-sampling estimate of the positive-cone
    fraction of ``sample_weighted_spectra(metric, n, spec)``: returns
    ``(p, se, ess)``.

    ``p = sum(w * inside) / sum(w)``; ``se`` is the delta-method error
    ``sqrt(sum(w^2 (inside - p)^2)) / sum(w)`` and ``ess`` the effective
    sample size ``sum(w)^2 / sum(w^2)`` (Owen, *Monte Carlo theory,
    methods and examples*, ch. 9).  Where the error is 0, as at zero
    hits, it is floored in units of the effective sample size.

    The rows are drawn, weighted and counted in batches, so memory stays
    bounded whatever the sample count.  Each worker keeps four running
    sums, rescaled to the largest log weight seen so far; the squared
    error is gathered as ``(1 - p)^2 sum(w^2 inside) + p^2 sum(w^2 outside)``,
    two non-negative terms, so nothing cancels.
    """
    sums = _NO_SUMS
    for part in _per_worker(_weighted_sums, spec, metric, n, kernel):
        sums = _merge_sums(sums, part)
    _, sw, sw_in, sw2_in, sw2_out = sums
    p = sw_in / sw
    se = math.sqrt((1.0 - p) ** 2 * sw2_in + p * p * sw2_out) / sw
    ess = sw * sw / (sw2_in + sw2_out)
    return p, _nonzero_error(se, int(ess)), ess


# --- Metropolis on the simplex ----------------------------------------------

def _logit_to_simplex(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Additive-logistic map and its log-Jacobian, vectorized over rows."""
    z = np.concatenate([y, np.zeros((y.shape[0], 1))], axis=1)
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    logr = z - lse[:, None]
    return np.exp(logr), logr.sum(axis=1)


def _log_target(metric: MetricKind, y: np.ndarray) -> np.ndarray:
    r, jac = _logit_to_simplex(y)
    return log_radial_density(metric, r) + jac


def _mh_step(metric, y, logp, sigma, rng):
    prop = y + sigma * rng.standard_normal(y.shape)
    lp = _log_target(metric, prop)
    accept = np.log(rng.random(y.shape[0])) < lp - logp
    y = np.where(accept[:, None], prop, y)
    logp = np.where(accept, lp, logp)
    return y, logp, int(accept.sum())


def _mcmc_chunk(metric, n, chains, per_chain, burn_in, thin, seed, index):
    rng = _worker_rng(seed, index)
    y = rng.normal(0.0, 0.5, (chains, n - 1))
    logp = _log_target(metric, y)
    sigma = 0.8
    hits = 0
    for step in range(burn_in):
        y, logp, acc = _mh_step(metric, y, logp, sigma, rng)
        hits += acc
        if (step + 1) % _ADAPT_INTERVAL == 0:
            rate = hits / (_ADAPT_INTERVAL * chains)
            sigma = min(max(sigma * math.exp(0.8 * (rate - _ADAPT_TARGET)), 1e-3), 50.0)
            hits = 0
    out = np.empty((chains, per_chain, n))
    hits = 0
    for k in range(per_chain):
        for _ in range(thin):
            y, logp, acc = _mh_step(metric, y, logp, sigma, rng)
            hits += acc
        r, _ = _logit_to_simplex(y)
        out[:, k, :] = -np.sort(-r, axis=1)
    rate = hits / (chains * per_chain * thin)
    return out, sigma, rate


def sample_mcmc_spectra(metric: MetricKind, n: int, spec: McSpec) -> McmcResult:
    """Markov-chain sample of the radial density of any supported metric.

    The chain walks in logit coordinates of the full simplex (the
    density is permutation symmetric) and reports sorted spectra.  The
    step scale adapts toward ~40% acceptance during burn-in and is then
    frozen; a post-adaptation acceptance rate outside [0.1, 0.9] is
    reported as a warning.  An opt-in cross-check of the independent
    samplers for every metric.
    """
    if n < 2:
        raise DomainError("sampling needs n >= 2")
    chains_total = spec.workers * spec.chains_per_worker
    per_chain = -(-spec.samples // chains_total)  # ceil
    jobs = [
        (metric, n, spec.chains_per_worker, per_chain, spec.burn_in, spec.thin, spec.seed, i)
        for i in range(spec.workers)
    ]
    parts = _map_ordered(_mcmc_chunk, jobs, spec.workers)
    samples = np.concatenate([p[0] for p in parts], axis=0)
    rate = float(np.mean([p[2] for p in parts]))
    scale = float(np.mean([p[1] for p in parts]))
    warnings = ()
    if not _ACCEPT_WINDOW[0] <= rate <= _ACCEPT_WINDOW[1]:
        warnings = (
            f"Metropolis acceptance rate {rate:.3f} outside "
            f"[{_ACCEPT_WINDOW[0]}, {_ACCEPT_WINDOW[1]}] after adaptation",
        )
    return McmcResult(samples=samples, acceptance_rate=rate, step_scale=scale, warnings=warnings)


# --- fraction estimators -----------------------------------------------------

def _nonzero_error(se: float, units: int) -> float:
    """The standard error, or ``1/(units + 1)`` where it is 0 (no spread
    among the independent units, as at zero hits).  That is the far end of
    the z = 1 Wilson score interval at an observed fraction of 0 or 1
    (Brown, Cai & DasGupta, Stat. Sci. 16, 2001)."""
    return se if se > 0.0 else 1.0 / (units + 1)


def positive_fraction_iid(spectra: np.ndarray, kernel: KernelSpectrum):
    """Fraction of independent spectra inside the positive cone (to
    ``DEFAULT_CONE_TOL``), with its binomial standard error."""
    inside = min_pairing_batch(spectra, kernel) >= -DEFAULT_CONE_TOL
    m = inside.shape[0]
    p = float(inside.mean())
    return p, _nonzero_error(math.sqrt(p * (1.0 - p) / m), m)


def positive_fraction_mcmc(result: McmcResult, kernel: KernelSpectrum):
    """Positive-cone fraction from chain output; the standard error comes
    from the spread of per-chain means, so residual autocorrelation
    within chains is accounted for."""
    chains, per_chain, n = result.samples.shape
    inside = min_pairing_batch(result.flat, kernel) >= -DEFAULT_CONE_TOL
    per = inside.reshape(chains, per_chain).mean(axis=1)
    p = float(per.mean())
    if chains > 1:
        se = float(per.std(ddof=1) / math.sqrt(chains))
    else:
        se = math.sqrt(p * (1.0 - p) / per_chain)
    return p, _nonzero_error(se, chains)
