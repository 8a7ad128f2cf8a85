"""The four workloads: what each one runs, why, and how each output is checked.

Every workload is a closed loop with one caller: an operation starts only
after the previous one has returned.  In-process operations call public
functions of ``wignerq``; ``cli`` operations run ``python -m wignerq.cli``
as one child process each.  Monte Carlo runs with one worker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import references as refs

METRICS = ("hs", "bures", "bkm")

#: Monte Carlo operations: (metric, n, samples).  BKM uses the Markov chain,
#: the others their matrix models.
MC_OPS = (
    ("hs", 2, 100_000),
    ("hs", 3, 100_000),
    ("bures", 2, 50_000),
    ("bures", 3, 100_000),
    ("bkm", 2, 10_000),
    ("bkm", 3, 50_000),
    ("hs", 4, 100_000),
)

#: The BKM n=3 chain runs at zeta = 0, where the BKM indicator is largest
#: (1.05e-4): 5e4 chain samples then see 3 to 14 hits (20 seeds tried).
BKM_N3_ZETA = 0.0

#: Kernel direction of the HS n=4 Monte Carlo run (true value 5.01e-8) and
#: of the four-level Bures positive part (stored reference).
N4_DIRECTION = (1.0, 0.0, 0.0)

CLI_SAMPLES = 100_000


@dataclass
class Op:
    """One benchmark operation.

    ``call`` runs it in process; ``argv`` instead names the arguments of one
    ``wignerq.cli`` child process.  ``check`` maps the output (return value,
    or parsed JSON document) to a ``references.Check``; it runs after the
    timed region.
    """

    label: str
    layer: str
    fn: str
    check: Callable[[Any], refs.Check]
    call: Callable[[], Any] | None = None
    argv: list[str] | None = None
    metric: str | None = None
    mc: Any = None


@dataclass
class Workload:
    name: str
    why: str
    #: Seconds one pass of the operation list takes on a 2-core Xeon; sets
    #: how many passes fill ``--seconds``.
    nominal_pass_s: float
    build: Callable[[dict], list[Op]]
    #: Run the operation list once, untimed, before measuring (warm caches).
    warm_pass: bool = False
    #: Untimed first calls before measuring.
    warm_up: Callable[[], None] | None = None


# --- cli -----------------------------------------------------------------------

def _check_minimize(doc: dict) -> refs.Check:
    zeta, q = refs.QUTRIT_HS_MIN
    return refs.combine(refs.value(doc["zeta_star"], zeta, abs_tol=1e-4), refs.value(doc["q_star"], q, rel=1e-6))


def _check_curve(doc: dict) -> refs.Check:
    rows = np.asarray(doc["rows"], dtype=float)
    radii = np.linspace(0.0, 1.0, 200)
    table = np.array([[r] + [refs.qubit_positivity_probability(m, r) for m in METRICS] for r in radii])
    if rows.shape != table.shape:
        return refs.failed_to_run(f"curve has shape {rows.shape}, expected {table.shape}")
    return refs.value(float(np.abs(rows - table).max()), 0.0, abs_tol=1e-12)


def _check_sample(doc: dict, zeta: float, seed: int) -> refs.Check:
    arr = np.asarray(doc["spectra"], dtype=float)
    shape_ok = arr.shape == (CLI_SAMPLES, 3) and doc["seed"] == seed and doc["n"] == 3
    valid = (
        shape_ok
        and bool((np.diff(arr, axis=1) <= 0.0).all())
        and arr.min() >= -1e-12
        and float(np.abs(arr.sum(axis=1) - 1.0).max()) <= 1e-12
    )
    structure = refs.Check(valid, valid, f"{arr.shape} descending probability vectors: {valid}")
    if not valid:
        return structure
    inside = arr @ np.asarray(refs.qutrit_kernel(zeta)) >= -1e-12
    p = float(inside.mean())
    se = math.sqrt(p * (1.0 - p) / inside.size)
    return refs.combine(structure, refs.monte_carlo(p, se, inside.size, refs.qutrit_hs_indicator(zeta)))


def cli_ops(inp: dict) -> list[Op]:
    def op(label, kind, argv, check):
        return Op(label, "cli", kind, check, argv=argv + ["--format", "json"])

    ops = [
        op(f"indicator-closed.n2.{m}", "indicator-closed", ["indicator", "--n", "2", "--metric", m],
           lambda d, m=m: refs.value(d["value"], refs.qubit_indicator(m), rel=1e-12))
        for m in METRICS
    ]
    z = inp["zeta_hs"]
    ops += [
        op("indicator-closed.n3.hs", "indicator-closed", ["indicator", "--n", "3", "--metric", "hs", "--zeta", repr(z)],
           lambda d: refs.value(d["value"], refs.qutrit_hs_indicator(z), rel=1e-12)),
        op("minimize.hs", "minimize", ["minimize", "--metric", "hs"], _check_minimize),
        op("curve", "curve", ["curve"], _check_curve),
    ]
    for m in ("bures", "bkm"):
        zm = inp[f"zeta_{m}"]
        ops.append(op(f"indicator-quad.n3.{m}", "indicator-quad",
                      ["indicator", "--n", "3", "--metric", m, "--zeta", repr(zm), "--method", "quad"],
                      lambda d, m=m, zm=zm: refs.value(d["value"], refs.simplex_ratio_n3(m, zm), rel=1e-6)))
    seed = inp["sample_seed"]
    ops.append(op("sample.hs.n3", "sample",
                  ["sample", "--metric", "hs", "--n", "3", "--samples", str(CLI_SAMPLES), "--seed", str(seed)],
                  lambda d: _check_sample(d, z, seed)))
    return ops


# --- quadrature ----------------------------------------------------------------

def quadrature_ops(inp: dict) -> list[Op]:
    from wignerq import MetricKind, ModuliPoint, average_indicator, global_indicator, minimize_indicator

    ops = []
    for m in METRICS:
        z = inp["zeta"][m]
        ops.append(Op(
            f"global.quad-n3.{m}", "indicators", "global_indicator",
            lambda r, m=m, z=z: refs.value(r.value, refs.qutrit_indicator(m, z), rel=1e-6),
            call=lambda m=m, z=z: global_indicator(MetricKind(m), 3, ModuliPoint.qutrit(z)),
            metric=m,
        ))
    for m in METRICS:
        target, tol = refs.AVERAGES[m]
        inner = "quadrature" if m == "hs" else "auto"
        ops.append(Op(
            f"average.{m}", "indicators", "average_indicator",
            lambda r, target=target, tol=tol: refs.value(r.value, target, rel=tol),
            call=lambda m=m, inner=inner: average_indicator(MetricKind(m), inner=inner),
            metric=m,
        ))
    minima = {"hs": refs.QUTRIT_HS_MIN, "bures": (refs.stored("bures_min_zeta"), refs.stored("bures_min_q"))}
    for m, (zeta, q) in minima.items():
        ops.append(Op(
            f"minimize.{m}", "indicators", "minimize_indicator",
            lambda r, zeta=zeta, q=q: refs.combine(refs.value(r[0], zeta, abs_tol=1e-4), refs.value(r[1], q, rel=1e-6)),
            call=lambda m=m: minimize_indicator(MetricKind(m), method="quadrature"),
            metric=m,
        ))
    return ops


# --- montecarlo ----------------------------------------------------------------

def _mc_reference(metric: str, n: int, zeta: float | None) -> float:
    if n == 2:
        return refs.qubit_indicator(metric)
    if n == 3:
        return refs.qutrit_indicator(metric, zeta)
    return refs.hs_indicator(4, refs.direction_kernel(4, N4_DIRECTION))


def montecarlo_ops(inp: dict) -> list[Op]:
    from wignerq import McSpec, MetricKind, ModuliPoint, global_indicator

    ops = []
    for m, n, samples in MC_OPS:
        key = f"{m}.n{n}"
        zeta = None
        if n == 2:
            moduli = None
        elif n == 3:
            zeta = BKM_N3_ZETA if m == "bkm" else inp["zeta"][m]
            moduli = ModuliPoint.qutrit(zeta)
        else:
            moduli = ModuliPoint.from_direction(4, N4_DIRECTION)
        spec = McSpec(samples=samples, seed=inp["mc_seed"][key], workers=1)
        ops.append(Op(
            f"mc.{key}", "indicators", "global_indicator",
            lambda r, m=m, n=n, zeta=zeta: refs.monte_carlo(
                r.value, r.error, r.meta["samples"], _mc_reference(m, n, zeta)),
            call=lambda m=m, n=n, moduli=moduli, spec=spec: global_indicator(MetricKind(m), n, moduli, spec),
            metric=m,
            mc=spec,
        ))
    return ops


def _montecarlo_warm_up() -> None:
    """First calls of each sampler on tiny budgets (one-time numpy set-up)."""
    from wignerq import McSpec, MetricKind, global_indicator

    for m in METRICS:
        global_indicator(MetricKind(m), 2, spec=McSpec(samples=1000, seed=0, burn_in=100))


# --- general-n -----------------------------------------------------------------

def general_n_ops(inp: dict) -> list[Op]:
    from wignerq import KernelSpectrum, MetricKind, orbit_volume_simplex
    from wignerq.integrate import DEFAULT_2D

    # a result within the absolute tolerance the call ran with is consistent
    floor = 100.0 * DEFAULT_2D.abs_tol

    def op(label, metric, kernel, ref):
        k = None if kernel is None else KernelSpectrum(kernel)
        return Op(
            label, "integrate.quadrature", "orbit_volume_simplex",
            lambda r: refs.value(r.value, ref(), rel=1e-6, abs_floor=floor),
            call=lambda: orbit_volume_simplex(MetricKind(metric), 4, k),
            metric=metric,
        )

    heavy = [
        op("simplex.n4.hs-full", "hs", None, lambda: refs.hs_volume(4)),
        op("simplex.n4.bures-full", "bures", None, lambda: refs.stored("bures_n4_full")),
        op("simplex.n4.bures-pos", "bures", refs.direction_kernel(4, N4_DIRECTION),
           lambda: refs.stored("bures_n4_pos_100")),
    ]
    light = []
    for i, u in enumerate(inp["directions"]):
        kernel = refs.direction_kernel(4, u)
        light.append(op(f"simplex.n4.hs-pos.{i:02d}", "hs", kernel, lambda kernel=kernel: refs.hs_volume(4, kernel)))
    # the short operations are spread between the long ones, so that the
    # per-operation latencies sample the whole pass, not one moment of it
    ops, per_gap = [], -(-len(light) // len(heavy))
    for j, h in enumerate(heavy):
        ops += light[j * per_gap:(j + 1) * per_gap] + [h]
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli",
            "The only workload that pays interpreter start, imports and a cold full-volume cache on every "
            "operation, as a user of the command line does.",
            9.5,
            cli_ops,
        ),
        Workload(
            "quadrature",
            "Warm-process qutrit quadrature (integrate.quadrature and the scalar density) with no sampling "
            "and no imports: quadrature changes show here, sampler changes do not.",
            2.1,
            quadrature_ops,
            warm_pass=True,
        ),
        Workload(
            "montecarlo",
            "Matrix-model and Metropolis sampling (integrate.sampling) that never calls scipy quadrature; "
            "the HS n=4 run keeps the zero-hit 0 +- 0 defect visible.",
            5.0,
            montecarlo_ops,
            warm_up=_montecarlo_warm_up,
        ),
        Workload(
            "general-n",
            "Three-deep nested adaptive quadrature at n=4, where the abs_tol defect lives; a qutrit-only "
            "speed-up should leave it unchanged.",
            9.0,
            general_n_ops,
        ),
    )
}
