"""Per-layer metrics of the traced run, named after the package's modules.

They come from the spans and quadrature counts of the traced passes, from
the Monte Carlo specs and results, and from a few direct probes of single
layers (warm in-process ``cli.main``, cold full volumes, the densities and
the minimal pairing).  Counts repeat exactly for a given seed; times do not.
"""

from __future__ import annotations

import io
import math
import statistics
import time
from contextlib import redirect_stdout

import numpy as np

from spans import EVALS, EXTRA, NAME, OP, QUAD_CALLS, duration

METRICS = ("hs", "bures", "bkm")
TRACED_LAYERS = ("cli", "indicators", "integrate.quadrature", "integrate.sampling", "positivity",
                 "scipy.integrate.quad")
SIMPLEX_GROUPS = ("hs-full", "hs-pos", "bures-full", "bures-pos")


def _per_call_us(fn, calls: int, repeats: int = 5) -> float:
    """Median over repeats of the mean time of one call, in microseconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return 1e6 * statistics.median(times)


def _cli_main_seconds(ops) -> dict[str, float]:
    """Warm in-process ``cli.main`` time per command kind (second call)."""
    from wignerq.cli import main

    out: dict[str, float] = {}
    for op in ops:
        for _ in range(2):
            t0 = time.perf_counter()
            with redirect_stdout(io.StringIO()):
                main(list(op.argv))
            seconds = time.perf_counter() - t0
        out[op.fn] = out.get(op.fn, 0.0) + seconds
    return out


def per_layer(tracer, lists: dict, overhead: dict, setup: list[dict]) -> dict:
    from wignerq import MetricKind, StateSpectrum, orbit_volume_qutrit
    from wignerq.integrate import DEFAULT_2D
    from wignerq.measures import log_radial_density, radial_density
    from wignerq.positivity import min_pairing_batch
    from wignerq.sw_kernel import qutrit_kernel_spectrum

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    def root(workload, label):
        return tracer.find(f"{workload}:traced:{label}")[0]

    def child(workload, label, name):
        found = tracer.find(f"{workload}:traced:{label}", name)
        return found[0] if found else None

    # init: the import chain, from the set-up probes
    put("init.import_s", statistics.median(p["import_s"] for p in setup), "s")
    put("init.modules_loaded", statistics.median(p["modules_loaded"] for p in setup), "count")

    # cli
    for kind, seconds in _cli_main_seconds(lists["cli"]["ops"]).items():
        put(f"cli.main_s.{kind}", seconds, "s")
    sample = next(e for e in lists["cli"]["execs"] if e.op.fn == "sample")
    put("cli.output_bytes.sample", len(sample.out or b""), "bytes")

    # indicators and integrate.quadrature on the quadrature workload
    for m in METRICS:
        put(f"indicators.global_indicator_s.quad-n3.{m}", duration(root("quadrature", f"global.quad-n3.{m}")), "s")
        pos = child("quadrature", f"global.quad-n3.{m}", "orbit_volume_qutrit")
        put(f"integrate.quadrature.quad_calls.qutrit-pos.{m}", pos[QUAD_CALLS] if pos else 0, "count")
        put(f"integrate.quadrature.integrand_evals.qutrit-pos.{m}", pos[EVALS] if pos else 0, "count")
        avg = root("quadrature", f"average.{m}")
        put(f"indicators.average_indicator_s.{m}", duration(avg), "s")
        put(f"integrate.quadrature.quad_calls.average.{m}", avg[QUAD_CALLS], "count")
        put(f"integrate.quadrature.integrand_evals.average.{m}", avg[EVALS], "count")
    for m in ("hs", "bures"):
        put(f"indicators.minimize_indicator_s.{m}", duration(root("quadrature", f"minimize.{m}")), "s")
    full = [s for s in tracer.spans if s[NAME] == "qutrit_full_volume" and s[OP].startswith("quadrature:")]
    hits = sum(1 for s in full if s[QUAD_CALLS] == 0)
    put("integrate.quadrature.full_volume_cache_hit_ratio", hits / len(full) if full else 0.0, "ratio")

    # cold full volumes: the uncached computation behind qutrit_full_volume
    with tracer.installed():
        for m in METRICS:
            tracer.op = f"probe:qutrit-full.{m}"
            with tracer.span("integrate.quadrature", "orbit_volume_qutrit") as s:
                orbit_volume_qutrit(MetricKind(m), None, DEFAULT_2D)
            put(f"integrate.quadrature.qutrit_full_volume_cold_s.{m}", duration(s), "s")
            put(f"integrate.quadrature.quad_calls.qutrit-full.{m}", s[QUAD_CALLS], "count")
            put(f"integrate.quadrature.integrand_evals.qutrit-full.{m}", s[EVALS], "count")

    # general-n: nested simplex quadrature, hs-pos summed over the seeded directions
    gen_ops = lists["general-n"]["ops"]
    for group in SIMPLEX_GROUPS:
        spans = [root("general-n", op.label) for op in gen_ops
                 if op.label == f"simplex.n4.{group}" or op.label.startswith(f"simplex.n4.{group}.")]
        put(f"integrate.quadrature.simplex_s.n4.{group}", sum(duration(s) for s in spans), "s")
        put(f"integrate.quadrature.quad_calls.simplex-n4.{group}", sum(s[QUAD_CALLS] for s in spans), "count")
        put(f"integrate.quadrature.integrand_evals.simplex-n4.{group}", sum(s[EVALS] for s in spans), "count")

    # integrand evaluation rate per metric over every quadrature operation
    for m in METRICS:
        spans = [root(w, op.label) for w in ("quadrature", "general-n") for op in lists[w]["ops"] if op.metric == m]
        seconds = sum(duration(s) for s in spans)
        put(f"integrate.quadrature.evals_per_s.{m}", sum(s[EVALS] for s in spans) / seconds, "1/s")

    # integrate.sampling on the montecarlo workload
    for e in lists["montecarlo"]["execs"]:
        op = e.op
        key = op.label.removeprefix("mc.")
        metric = key.split(".")[0]
        name = "sample_mcmc_spectra" if metric == "bkm" else f"sample_{metric}_spectra"
        s = child("montecarlo", op.label, name)
        seconds = duration(s) if s else math.inf
        if metric == "bkm":
            spec = op.mc
            chains = spec.workers * spec.chains_per_worker
            steps = spec.burn_in + -(-spec.samples // chains) * spec.thin
            put(f"integrate.sampling.mcmc_steps_per_s.{key}", chains * steps / seconds, "1/s")
            put(f"integrate.sampling.mcmc_acceptance.{key}", s[EXTRA]["acceptance"] if s else 0.0, "ratio")
        else:
            put(f"integrate.sampling.spectra_per_s.{key}", (s[EXTRA]["rows"] if s else 0) / seconds, "1/s")
        if key != "hs.n4":
            # effective samples per drawn sample; zero when the run reports se = 0
            r = e.out
            ess = 0.0
            if r is not None and r.error > 0.0:
                ess = r.value * (1.0 - r.value) / (r.meta["samples"] * r.error ** 2)
            put(f"integrate.sampling.ess_per_sample.{key}", ess, "ratio")

    # measures and positivity: single-layer probes
    rng = np.random.default_rng(0)
    rows32 = rng.dirichlet((1.0, 1.0, 1.0), size=32)
    spectra = [StateSpectrum(tuple(r)) for r in rng.dirichlet((1.0, 1.0, 1.0), size=1000)]
    for m in METRICS:
        mk = MetricKind(m)
        tracer.op = f"probe:measures.{m}"
        with tracer.span("measures", "log_radial_density"):
            put(f"measures.log_radial_density_us.{m}.rows32",
                _per_call_us(lambda: log_radial_density(mk, rows32), 200), "us")
        with tracer.span("measures", "radial_density"):
            put(f"measures.radial_density_us.{m}.n3",
                _per_call_us(lambda: [radial_density(mk, s) for s in spectra], 1) / len(spectra), "us")
    batch = -np.sort(-rng.dirichlet((1.0, 1.0, 1.0), size=100_000), axis=1)
    kernel = qutrit_kernel_spectrum(math.pi / 6.0)
    tracer.op = "probe:positivity"
    with tracer.span("positivity", "min_pairing_batch"):
        per_call = _per_call_us(lambda: min_pairing_batch(batch, kernel), 5) / 1e6
    put("positivity.min_pairing_rows_per_s", batch.shape[0] / per_call, "1/s")

    # tracing itself
    put("trace.overhead_s", overhead["overhead_s"], "s")
    traced = {s[OP] for s in tracer.spans if s[OP] and ":traced:" in s[OP]}
    self_times = tracer.self_times(traced)
    for layer in TRACED_LAYERS:
        put(f"trace.self_s.{layer}", self_times.get(layer, 0.0), "s")
    return out
