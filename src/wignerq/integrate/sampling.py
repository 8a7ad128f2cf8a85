"""Monte Carlo samplers for eigenvalue spectra under the three measures.

* Hilbert-Schmidt: square of a complex Gaussian matrix, trace-normalized.
* Bures: the (I + U) G construction with a Haar-random unitary U.

  At n <= 5 both laws are drawn by rejection from the importance proposal;
  at n >= 6 by LAPACK: a phase-fixed ``np.linalg.qr`` U and ``eigvalsh``.
* Any metric, and every Monte Carlo indicator: importance sampling:
  sorted Dirichlet(1/2, ..., 1/2) spectra, drawn as squared standard
  normals over their sum, each weighted by the radial density over the
  proposal density.

Each job has one sampler.  Estimating (``positive_fraction``, the Monte
Carlo indicator) always importance-samples: at every n it has less
variance per unit of work than the matrix models, and it resolves
positive regions too small for them to hit.  Drawing (``sample_spectra``,
the ``sample`` command) takes the sampler that ``sampler_for`` names: the
metric's matrix model, and the importance sampler for BKM, which has
none.  Only the Monte Carlo indicator and ``sample`` import this module,
so quadrature never loads it or ``positivity``.

Each sampler is one stream per worker of ``(spectra, log_weights)``
batches, at log weight 0 for the matrix models.  Drawing writes each
worker's stream into preallocated arrays, joined in worker order (a lone
worker's are returned as written), and keeps log weights for the
importance sampler only; estimating folds the streams into running
weighted sums, so no estimate holds its draws.  The matrix models' draws
depend on their batch sizes.  The importance sampler draws
``_WEIGHTED_BATCH`` rows of normals per batch, few enough that a batch's
columns stay in cache while they are squared, normalized, sorted by a
comparator network and weighted; its draws do not depend on that size,
as its batches concatenate to one ``standard_normal`` call.

Parallelism and reproducibility: the master seed is split into one
independent child stream per worker; chunks are combined in worker
order, so results are a pure function of (samples, seed, workers).
Worker processes are an execution detail only -- running the same spec
sequentially yields bit-identical output, and where a process pool cannot
start the workers run in this process and the result's warnings say so.

The block at the end is bench-only: the names ``bench/`` wraps or reads,
three thin wrappers of the matrix models and random-walk Metropolis on the
simplex.  No command or library route calls it.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from ..closed_form import McSpec
from ..errors import DomainError
from ..measures import _log_weight, _pair_factors, log_radial_density
from ..positivity import DEFAULT_CONE_TOL, min_pairing_batch
from ..spectra import KernelSpectrum, MetricKind

#: The matrix models' batch at n >= 6 holds ``16 * _EIG_BATCH / n^2``
#: rows, so its temporaries stay about 16 * _EIG_BATCH matrix entries.
#: Their draws depend on it: each batch is one call per Ginibre stack.
_EIG_BATCH = 1 << 17

#: Rows per batch of the importance sampler, so that each of a batch's n
#: columns (64 KiB) stays in L2 cache while it is normalized, sorted and
#: weighted.  Its draws do not depend on it: each batch draws its rows of
#: squared normals, which concatenate to the rows of one
#: ``standard_normal`` call, and only the association of the running sums
#: moves with it.
_WEIGHTED_BATCH = 1 << 13


def _worker_rng(seed: int, index: int) -> np.random.Generator:
    # the child that SeedSequence(seed).spawn(workers)[index] returns, built in O(1)
    child = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(child))


def _map_ordered(fn, jobs, workers: int):
    """Run jobs, in parallel when asked, as ``(results in job order,
    warnings)``: where the process pool cannot start, the jobs run in this
    process and the one warning says so.  The pool is imported only where
    one starts."""
    fallback = ()
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        try:
            with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
                futures = [pool.submit(fn, *job) for job in jobs]
                return [f.result() for f in futures], ()
        except OSError as exc:
            fallback = (f"process pool for {workers} workers unavailable ({exc!r}); ran sequentially",)
    return [fn(*job) for job in jobs], fallback


def _per_worker(fn, spec: McSpec, batches, metric: MetricKind, n: int, *rest):
    """``_map_ordered`` of ``fn(batches, metric, n, *rest, count, seed,
    index)`` for each worker with a non-empty share of ``spec.samples``
    (the first ``samples % workers`` take one more), in worker order;
    ``batches(metric, n, count, seed, index)`` is its stream."""
    if n < 2:
        raise DomainError("sampling needs n >= 2")
    base, extra = divmod(spec.samples, spec.workers)
    counts = [base + (i < extra) for i in range(spec.workers)]
    jobs = [(batches, metric, n, *rest, c, spec.seed, i) for i, c in enumerate(counts) if c > 0]
    return _map_ordered(fn, jobs, spec.workers)


# --- the samplers ------------------------------------------------------------

def _ginibre(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    return rng.standard_normal((m, n, n)) + 1j * rng.standard_normal((m, n, n))


def _lapack_spectra(rng: np.random.Generator, bures: bool, m: int, n: int) -> np.ndarray:
    a = _ginibre(rng, m, n)
    if bures:  # U is the Q of a Ginibre QR with R's diagonal made positive (Mezzadri 2007)
        q, r = np.linalg.qr(_ginibre(rng, m, n))
        d = np.einsum("...ii->...i", r)
        a = (np.eye(n) + q * (d / np.abs(d))[:, None, :]) @ a
    ev = np.linalg.eigvalsh(a @ a.conj().swapaxes(1, 2))
    ev = ev / ev.sum(axis=1, keepdims=True)
    return ev[:, ::-1]


@functools.lru_cache(maxsize=None)
def _sorting_network(n: int) -> tuple[tuple[int, int], ...]:
    """Comparators ``(i, j)``, i < j, of Batcher's merge exchange on n
    wires (Batcher, AFIPS 1968; Knuth, TAOCP vol. 3, 5.2.2, Algorithm M):
    putting the larger value on wire i at each comparator in turn sorts
    any n values descending.  1, 3 and 5 comparators at n = 2, 3, 4."""
    pairs = []
    t = (n - 1).bit_length()
    p = 1 << (t - 1)
    while p > 0:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            pairs += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return tuple(pairs)


def _sort_columns(cols: np.ndarray, network) -> np.ndarray:
    """Sort the rows of (n, m) columns descending in place by one
    ``np.maximum``/``np.minimum`` pair per comparator of ``network``.
    Min and max only move values, so with ``_sorting_network(n)`` the
    result is ``-np.sort(-cols.T, axis=1)`` bit for bit."""
    spare = np.empty(cols.shape[1])
    for i, j in network:
        np.maximum(cols[i], cols[j], out=spare)
        np.minimum(cols[i], cols[j], out=cols[j])
        cols[i] = spare
    return cols


def _half_dirichlet_columns(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """m Dirichlet(1/2, ..., 1/2) rows as contiguous (n, m) columns: squared
    standard normals over their sum, as chi-squared(1) is Gamma(1/2, 2)
    (Devroye, *Non-Uniform Random Variate Generation*, 1986, ch. XI).  The
    normals are drawn as rows, so consecutive calls read one stream; the sum
    is added column by column in index order."""
    z = rng.standard_normal((m, n))
    np.square(z, out=z)
    cols = np.ascontiguousarray(z.T)
    total = cols[0].copy()
    for col in cols[1:]:
        total += col
    cols /= total
    return cols


def _weighted_batches(metric: MetricKind, n: int, count: int, seed: int, index: int):
    """One worker's importance sample as ``(spectra, log_weights)``
    batches of at most ``_WEIGHTED_BATCH`` rows, drawn from one stream: the
    batches' normals concatenate to the rows of a single
    ``standard_normal((count, n))`` call.  Each batch is drawn, sorted and
    weighted as contiguous columns; its spectra are their transpose.

    A row's log weight is that of density over proposal, unnormalized: for
    HS ``prod d_ij^2 * prod r_i^(1/2)``; for Bures and BKM the pair
    product, as the proposal's ``prod r_i^(-1/2)`` cancels and is never
    computed.  The weights stay bounded for Bures and HS, grow only
    logarithmically for BKM, and are 0 (log weight ``-inf``) on the
    simplex boundary."""
    rng = _worker_rng(seed, index)
    power = 0.5 if metric is MetricKind.HS else 0.0  # Bures, BKM: the proposal cancels
    network = _sorting_network(n)
    for start in range(0, count, _WEIGHTED_BATCH):
        cols = _sort_columns(_half_dirichlet_columns(rng, min(_WEIGHTED_BATCH, count - start), n), network)
        # columns descend: a row is on the boundary (weight 0) exactly where its last entry is <= 0
        yield cols.T, _log_weight(metric, cols, power, cols[-1] <= 0.0)


#: The supremum of ``_acceptance_weight`` on the simplex, by metric and n;
#: ``_rejected`` raises it by 1e-12 relative, above the rounding of these
#: values and of the weight (about 1e-14), as a bound below it would bias
#: the draws silently.  HS: the weight is the square of
#: ``prod |r_i - r_j| * prod r_i^(1/4)``, which peaks at the zeros of
#: L_n^(-1/2) scaled to sum 1 (Stieltjes; Szego, *Orthogonal Polynomials*,
#: 6.7): r_i = h_i^2 / sum h_j^2 for the positive zeros h_i of H_2n.  Bures:
#: the maximum lies on the facet r_n = 0, where each pair with r_n gives
#: 2 r_i: w(1, 0) = 2; at n = 3 the facet weight 8t(1 - 4t), t = r_1 r_2,
#: peaks at 1/2; at n = 4, 5 a Nelder-Mead search from 31 starts reproduced
#: the entries to 2e-15 relative.  tests/test_sampling.py checks both tables.
_SUP_WEIGHT = {
    MetricKind.HS: {2: 1 / (3 * math.sqrt(3)), 3: 128 / 337_500, 4: 2.5620127633098271e-9,
                    5: 2.9145631163109779e-17},
    MetricKind.BURES: {2: 2.0, 3: 0.5, 4: 1 / 108, 5: 27 / 3_200_000},
}


def _acceptance_weight(metric: MetricKind, cols: np.ndarray) -> np.ndarray:
    """The importance sampler's weight at (n, m) columns, by +, -, *, / and
    sqrt only, so no SIMD dispatch moves a bit: the pair factors' product,
    times ``sqrt(prod r_i)`` for HS."""
    w = np.ones(cols.shape[1])
    for f in _pair_factors(metric, cols):
        w *= f
    return w * np.sqrt(np.prod(cols, axis=0)) if metric is MetricKind.HS else w


def _rejected(metric: MetricKind, n: int, count: int, rng: np.random.Generator):
    """``count`` exact draws of the metric's law by rejection from the
    Dirichlet(1/2) proposal (Devroye, *Non-Uniform Random Variate
    Generation*, 1986, ch. II.3): each step proposes ``_WEIGHTED_BATCH``
    rows, then as many uniforms u, and keeps the rows with u M < w, in
    order and up to the count still needed, sorted, at log weight 0."""
    bound = _SUP_WEIGHT[metric][n] * (1.0 + 1e-12)
    while count > 0:
        cols = _half_dirichlet_columns(rng, _WEIGHTED_BATCH, n)
        keep = np.flatnonzero(rng.random(_WEIGHTED_BATCH) * bound < _acceptance_weight(metric, cols))[:count]
        count -= len(keep)
        yield _sort_columns(cols[:, keep], _sorting_network(n)).T, np.zeros(len(keep))


def _matrix_batches(metric: MetricKind, n: int, count: int, seed: int, index: int):
    """One worker's draws of the law of the metric's matrix model (HS or
    Bures) as ``(spectra, log_weights)`` batches at log weight 0: by
    ``_rejected`` at n <= 5, and by the model at n >= 6, where rejection
    would accept 1.6%.  BKM has none: its first batch is a DomainError."""
    if metric is MetricKind.BKM:
        raise DomainError("no matrix model is available for the BKM measure; use the 'weighted' sampler")
    rng = _worker_rng(seed, index)
    if n in _SUP_WEIGHT[metric]:
        yield from _rejected(metric, n, count, rng)
        return
    batch = max(1, 16 * _EIG_BATCH // (n * n))
    for start in range(0, count, batch):
        m = min(batch, count - start)
        yield _lapack_spectra(rng, metric is MetricKind.BURES, m, n), np.zeros(m)


def _drawn(batches, metric: MetricKind, n: int, count: int, seed: int, index: int):
    """One worker's stream, written into preallocated spectra and, for the
    importance sampler only, log weights: the matrix models' are all 0 and
    are not kept (None)."""
    spectra = np.empty((count, n))
    log_w = np.empty(count) if batches is _weighted_batches else None
    done = 0
    for r, lw in batches(metric, n, count, seed, index):
        spectra[done:done + len(r)] = r
        if log_w is not None:
            log_w[done:done + len(r)] = lw
        done += len(r)
    return spectra, log_w


# --- the streaming estimator -------------------------------------------------

#: Weighted sums of no rows: ``(shift, sum w, sum w*inside,
#: sum w^2*inside, sum w^2*outside)`` with ``w = exp(log_w - shift)``.
_NO_SUMS = (-math.inf, 0.0, 0.0, 0.0, 0.0)


def _merge_sums(a: tuple, b: tuple) -> tuple:
    """Weighted sums of two row sets, taken to the larger shift."""
    if b[0] == -math.inf:
        return a  # b has no weight (and two empty sets would shift by -inf - -inf)
    shift = max(a[0], b[0])
    fa, fb = math.exp(a[0] - shift), math.exp(b[0] - shift)
    return (
        shift,
        a[1] * fa + b[1] * fb,
        a[2] * fa + b[2] * fb,
        a[3] * fa * fa + b[3] * fb * fb,
        a[4] * fa * fa + b[4] * fb * fb,
    )


def _weighted_sums(batches, metric: MetricKind, n: int, kernel: KernelSpectrum, count: int, seed: int, index: int):
    sums = _NO_SUMS
    for r, log_w in batches(metric, n, count, seed, index):
        shift = float(log_w.max())
        if shift == -math.inf:
            continue  # every row on the boundary: no weight to add
        inside = min_pairing_batch(r, kernel) >= -DEFAULT_CONE_TOL
        w = np.exp(log_w - shift)
        w2 = w * w
        # summed products rather than BLAS dot products: the BLAS thread count moves no bit
        part = (w.sum(), (w * inside).sum(), (w2 * inside).sum(), (w2 * ~inside).sum())
        sums = _merge_sums(sums, (shift, *map(float, part)))
    return sums


def _nonzero_error(se: float, units: int) -> float:
    """The standard error, or ``1/(units + 1)`` where it is 0 (no spread
    among the independent units, as at zero hits).  That is the far end of
    the z = 1 Wilson score interval at an observed fraction of 0 or 1
    (Brown, Cai & DasGupta, Stat. Sci. 16, 2001)."""
    return se if se > 0.0 else 1.0 / (units + 1)


def _fraction(batches, metric: MetricKind, n: int, kernel: KernelSpectrum, spec: McSpec):
    """Self-normalized estimate ``(p, se, ess, warnings)`` of the positive-cone
    fraction of every worker's stream (Owen, *Monte Carlo theory, methods
    and examples*, ch. 9): ``p = sum(w inside) / sum(w)``, the delta-method
    ``se = sqrt(sum(w^2 (inside - p)^2)) / sum(w)``, floored in units of
    ``ess = sum(w)^2 / sum(w^2)`` where it is 0, as at zero hits.  Each
    worker keeps four running sums, rescaled to the largest log weight
    seen so far, so memory stays bounded whatever the sample count; the
    squared error is gathered as ``(1 - p)^2 sum(w^2 inside) + p^2
    sum(w^2 outside)``, two non-negative terms, so nothing cancels.  A
    batch of weight 0 adds nothing; a sample of weight 0 is a
    ``DomainError``."""
    parts, warnings = _per_worker(_weighted_sums, spec, batches, metric, n, kernel)
    sums = _NO_SUMS
    for part in parts:
        sums = _merge_sums(sums, part)
    _, sw, sw_in, sw2_in, sw2_out = sums
    if sw == 0.0:
        raise DomainError("every draw has weight 0 (on the simplex boundary); no fraction to estimate")
    p = sw_in / sw
    se = math.sqrt((1.0 - p) ** 2 * sw2_in + p * p * sw2_out) / sw
    ess = sw * sw / (sw2_in + sw2_out)
    return p, _nonzero_error(se, int(ess)), ess, warnings


# --- the two jobs ------------------------------------------------------------

def sampler_for(metric: MetricKind) -> str:
    """The sampler that ``sample`` draws a metric's spectra from: its
    matrix model, unweighted, and the importance sampler for BKM."""
    return "weighted" if metric is MetricKind.BKM else "matrix"


def sample_spectra(metric: MetricKind, n: int, spec: McSpec, sampler: str):
    """``(spectra, log_weights or None, warnings)`` of the sampler named
    'matrix' or 'weighted': every worker's stream in worker order; a lone
    worker's arrays are returned as it wrote them."""
    batches = {"matrix": _matrix_batches, "weighted": _weighted_batches}[sampler]
    parts, warnings = _per_worker(_drawn, spec, batches, metric, n)
    if len(parts) == 1:
        return (*parts[0], warnings)
    spectra, log_w = zip(*parts)
    return np.concatenate(spectra), None if log_w[0] is None else np.concatenate(log_w), warnings


def positive_fraction(metric: MetricKind, n: int, kernel: KernelSpectrum, spec: McSpec):
    """``(p, se, meta, warnings)`` of the positive-cone fraction by the
    importance sampler."""
    p, se, ess, warnings = _fraction(_weighted_batches, metric, n, kernel, spec)
    meta = {"sampler": "weighted", "samples": spec.samples, "ess": ess, "seed": spec.seed, "workers": spec.workers}
    return p, se, meta, warnings


# --- bench-only --------------------------------------------------------------
# bench/spans.py wraps these names through ``indicators._BENCH_NAMES``, and
# bench/layers.py and bench/workloads.py read the Markov chain's layout; no
# command or library route calls them.  They go with ROADMAP item 1.

def sample_hs_spectra(n: int, spec: McSpec) -> np.ndarray:
    """(samples, n) descending spectra of the Hilbert-Schmidt matrix model."""
    return sample_spectra(MetricKind.HS, n, spec, "matrix")[0]


def sample_bures_spectra(n: int, spec: McSpec) -> np.ndarray:
    """(samples, n) descending spectra of the Bures matrix model."""
    return sample_spectra(MetricKind.BURES, n, spec, "matrix")[0]


def positive_fraction_iid(metric: MetricKind, n: int, kernel: KernelSpectrum, spec: McSpec):
    """``_fraction`` at unit weight on the metric's matrix model: the hit
    fraction p, the binomial ``sqrt(p (1 - p) / m)`` and the draw count m."""
    return _fraction(_matrix_batches, metric, n, kernel, spec)[:3]


# Random-walk Metropolis on the simplex, in logit coordinates, targeting
# the radial density; ``McSpec.burn_in``, ``thin`` and ``chains_per_worker``
# lay out its chains.

#: Metropolis acceptance-rate window considered healthy after adaptation.
_ACCEPT_WINDOW = (0.1, 0.9)

_ADAPT_TARGET = 0.4
_ADAPT_INTERVAL = 100


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
    reported as a warning, as is a process pool that could not start.
    """
    if n < 2:
        raise DomainError("sampling needs n >= 2")
    chains_total = spec.workers * spec.chains_per_worker
    per_chain = -(-spec.samples // chains_total)  # ceil
    jobs = [
        (metric, n, spec.chains_per_worker, per_chain, spec.burn_in, spec.thin, spec.seed, i)
        for i in range(spec.workers)
    ]
    parts, warnings = _map_ordered(_mcmc_chunk, jobs, spec.workers)
    samples = np.concatenate([p[0] for p in parts], axis=0)
    rate = float(np.mean([p[2] for p in parts]))
    scale = float(np.mean([p[1] for p in parts]))
    if not _ACCEPT_WINDOW[0] <= rate <= _ACCEPT_WINDOW[1]:
        warnings += (
            f"Metropolis acceptance rate {rate:.3f} outside "
            f"[{_ACCEPT_WINDOW[0]}, {_ACCEPT_WINDOW[1]}] after adaptation",
        )
    return McmcResult(samples=samples, acceptance_rate=rate, step_scale=scale, warnings=warnings)


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
