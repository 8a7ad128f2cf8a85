"""Command-line interface.

Subcommands mirror the library surface: ``indicator`` for single
values, ``average`` and ``minimize`` over the three-level moduli angle,
``curve`` for the two-level probability table, ``sample`` for raw
spectra, and ``reproduce-paper`` for the full table of published
values with a pass/fail manifest.

All output is machine readable (JSON or CSV, 12 significant digits) and
deterministic given identical flags, including seed and worker count.
Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import re
import sys

import numpy as np

from .errors import ConvergenceError, DomainError
from .indicators import (
    IndicatorResult,
    average_indicator,
    closed_indicator,
    global_indicator,
    minimize_indicator,
    positivity_curve,
    qutrit_indicator_closed_form,
    resolve_sampler,
    sample_spectra,
)
from .integrate import McSpec, QuadratureSpec
from .spectra import MetricKind, ModuliPoint

#: Caps on ``sample``: its output is built whole before it is written.
_SAMPLE_MAX_N = 256
_SAMPLE_MAX_VALUES = 10**7
#: Cap on ``--workers``: the per-worker job lists grow with it.
_MAX_WORKERS = 256
#: Cap on ``--samples`` of the Monte Carlo commands.  The default
#: weighted estimate runs in bounded memory, but ``--sampler matrix``
#: and ``--sampler mcmc`` hold every spectrum at once.
_MC_MAX_SAMPLES = 2 * 10**7
#: Cap on ``curve --points``: the table is built whole before it is written.
_CURVE_MAX_POINTS = 10**6

_ANGLE_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*))?\s*$",
    re.IGNORECASE,
)


def parse_angle(text: str) -> float:
    """Angle in radians from a decimal or a pi-fraction literal such as
    'pi/6', '2pi/9' or '0.5*pi'."""
    m = _ANGLE_RE.match(text)
    if m:
        coeff_s, den_s = m.group(1), m.group(2)
        if coeff_s in ("", "+"):
            coeff = 1.0
        elif coeff_s == "-":
            coeff = -1.0
        else:
            coeff = float(coeff_s)
        value = coeff * math.pi
        if den_s:
            if float(den_s) == 0.0:
                raise argparse.ArgumentTypeError(f"zero denominator in angle {text!r}")
            value /= float(den_s)
        return value
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}")


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _emit(args, payload: dict, header: list[str], rows) -> None:
    """Write the payload as JSON, or the header and rows as CSV, to
    ``--out`` or stdout.  JSON is encoded before the file is opened, so
    an encoding error leaves no file behind; CSV rows go out one by one."""
    text = json.dumps(payload, allow_nan=False) + "\n" if args.format == "json" else None
    out = open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout)
    with out as f:
        if text is not None:
            f.write(text)
        else:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([c if isinstance(c, str) else _fmt(c) for c in row] for row in rows)


def _moduli_cell(result: IndicatorResult) -> str:
    d = result.to_json_dict()["moduli"]
    if d is None:
        return ""
    if isinstance(d, str):
        return d
    return _fmt(d)


def _indicator_rows(results: list[IndicatorResult]):
    header = ["value", "error", "metric", "n", "moduli", "method"]
    rows = [
        [r.value, r.error, r.metric.value, str(r.n), _moduli_cell(r), r.method]
        for r in results
    ]
    return header, rows


def _quad_spec(args) -> QuadratureSpec:
    """``QuadratureSpec()``, with ``--rel-tol`` in place of its default when given."""
    return QuadratureSpec() if args.rel_tol is None else QuadratureSpec(rel_tol=args.rel_tol)


def _mc_spec(args) -> McSpec:
    if args.workers > _MAX_WORKERS:
        raise DomainError(f"--workers is capped at {_MAX_WORKERS}")
    if args.samples > _MC_MAX_SAMPLES:
        raise DomainError(f"--samples is capped at {_MC_MAX_SAMPLES:,}")
    return McSpec(samples=args.samples, seed=args.seed, workers=args.workers)


def cmd_indicator(args) -> int:
    metric = MetricKind.from_name(args.metric)
    moduli = ModuliPoint(args.n, zeta=args.zeta)
    method = args.method
    if method == "auto":
        closed_exists = args.n == 2 or metric is MetricKind.HS
        method = "closed" if closed_exists else "quad"
    if method == "closed":
        result = closed_indicator(metric, args.n, moduli)
    elif method == "quad":
        result = global_indicator(metric, args.n, moduli, _quad_spec(args))
    else:
        result = global_indicator(metric, args.n, moduli, _mc_spec(args), sampler=args.sampler)
    payload = {"command": "indicator", **result.to_json_dict()}
    _emit(args, payload, *_indicator_rows([result]))
    return 0


def cmd_average(args) -> int:
    metrics = list(MetricKind) if args.metric == "all" else [MetricKind.from_name(args.metric)]
    spec = _quad_spec(args)
    results = [average_indicator(m, args.n, spec) for m in metrics]
    payload = {"command": "average", "results": [r.to_json_dict() for r in results]}
    _emit(args, payload, *_indicator_rows(results))
    return 0


def cmd_minimize(args) -> int:
    metric = MetricKind.from_name(args.metric)
    spec = _quad_spec(args)
    zeta_star, q_star = minimize_indicator(metric, args.n, spec, method=args.method)
    payload = {
        "command": "minimize",
        "metric": metric.value,
        "n": 3,
        "zeta_star": zeta_star,
        "q_star": q_star,
        "method": args.method,
    }
    header = ["metric", "n", "zeta_star", "q_star", "method"]
    _emit(args, payload, header, [[metric.value, "3", zeta_star, q_star, args.method]])
    return 0


def cmd_curve(args) -> int:
    if not 1 <= args.points <= _CURVE_MAX_POINTS:
        raise DomainError(f"--points must lie in [1, {_CURVE_MAX_POINTS:,}]")
    radii = np.linspace(0.0, 1.0, args.points)
    columns = ["radius", "q_hs", "q_bures", "q_bkm"]
    rows = positivity_curve(radii)
    _emit(args, {"command": "curve", "columns": columns, "rows": rows}, columns, rows)
    return 0


def cmd_sample(args) -> int:
    metric = MetricKind.from_name(args.metric)
    sampler = resolve_sampler(metric, args.sampler, estimate=False)
    per_row = args.n + (sampler == "weighted")
    if args.n > _SAMPLE_MAX_N or args.samples * per_row > _SAMPLE_MAX_VALUES:
        raise DomainError(
            f"sample is capped at --n {_SAMPLE_MAX_N} and at {_SAMPLE_MAX_VALUES:,} "
            "values (--samples x --n, plus one weight per row for the weighted sampler)"
        )
    spec = _mc_spec(args)
    sampler, draws = sample_spectra(metric, args.n, spec, sampler)
    warnings: tuple[str, ...] = ()
    weights = None
    if sampler == "mcmc":
        warnings = draws.warnings
        draws = draws.flat[: spec.samples]
    elif sampler == "weighted":
        draws, log_w = draws
        weights = np.exp(log_w - log_w.max())
        weights = (weights / weights.mean()).tolist()
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    rows = draws.tolist()
    payload = {
        "command": "sample",
        "metric": metric.value,
        "n": args.n,
        "sampler": sampler,
        "seed": args.seed,
        "workers": args.workers,
        "warnings": list(warnings),
        "spectra": rows,
    }
    header = [f"r{i + 1}" for i in range(args.n)]
    if weights is not None:
        payload["weights"] = weights
        header.append("weight")
        rows = (row + [w] for row, w in zip(rows, weights))
    _emit(args, payload, header, rows)
    return 0


def _reproduce_checks(mc_spec: McSpec):
    """Rows of the published-value table: (name, value, target, kind, tol)."""
    checks = []
    prints = {MetricKind.HS: 0.19245, MetricKind.BURES: 0.09172, MetricKind.BKM: 0.0495506}
    qspec1 = QuadratureSpec(rel_tol=1e-9)
    for metric in MetricKind:
        closed = closed_indicator(metric, 2).value
        checks.append((f"qubit_{metric.value}_closed_vs_print", closed, prints[metric], "rel", 1e-4))
        quad = global_indicator(metric, 2, spec=qspec1).value
        checks.append((f"qubit_{metric.value}_quad_vs_closed", quad, closed, "rel", 1e-8))
        mc = global_indicator(metric, 2, spec=mc_spec)
        checks.append((f"qubit_{metric.value}_mc_vs_closed", mc.value, closed, "abs", 3.0 * mc.error))

    qspec2 = QuadratureSpec(rel_tol=1e-7)
    zs = np.linspace(0.0, math.pi / 3.0, 50)
    dev = 0.0
    for z in zs:
        cf = qutrit_indicator_closed_form(z)
        q = global_indicator(MetricKind.HS, 3, ModuliPoint.qutrit(z), qspec2).value
        dev = max(dev, abs(q - cf) / cf)
    checks.append(("qutrit_hs_closed_vs_quad_50pt_max_rel_dev", dev, 0.0, "abs", 1e-6))

    zeta_star, q_star = minimize_indicator(MetricKind.HS, 3)
    checks.append(("qutrit_hs_min_zeta", zeta_star, math.pi / 6.0, "abs", 1e-4))
    checks.append(("qutrit_hs_min_value", q_star, 21.0 / 31104.0, "rel", 1e-6))
    checks.append(("qutrit_hs_min_value_vs_print", q_star, 0.000675, "rel", 1e-3))

    avg_targets = {MetricKind.HS: (0.00136368, 1e-4), MetricKind.BURES: (0.00019165, 1e-2),
                   MetricKind.BKM: (0.00002762, 1e-2)}
    for metric, (target, tol) in avg_targets.items():
        avg = average_indicator(metric, 3, qspec2).value
        checks.append((f"average_{metric.value}_vs_print", avg, target, "rel", tol))
    return checks


def cmd_reproduce(args) -> int:
    mc_spec = _mc_spec(args)
    if args.fast:
        mc_spec = dataclasses.replace(mc_spec, samples=min(mc_spec.samples, 100_000))
    rows = []
    all_pass = True
    for name, value, target, kind, tol in _reproduce_checks(mc_spec):
        dev = abs(value - target) / (abs(target) if kind == "rel" else 1.0)
        ok = dev <= tol
        all_pass &= ok
        rows.append(
            {"name": name, "value": value, "target": target, "tolerance_kind": kind,
             "tolerance": tol, "deviation": dev, "pass": bool(ok)}
        )
    payload = {"command": "reproduce-paper", "all_pass": all_pass, "checks": rows}
    header = ["name", "value", "target", "tolerance_kind", "tolerance", "deviation", "pass"]
    table = [
        [r["name"], r["value"], r["target"], r["tolerance_kind"], r["tolerance"],
         r["deviation"], "pass" if r["pass"] else "FAIL"]
        for r in rows
    ]
    _emit(args, payload, header, table)
    return 0 if all_pass else 1


def _add_output_flags(p, default_format="json"):
    p.add_argument("--format", choices=("json", "csv"), default=default_format)
    p.add_argument("--out", metavar="PATH", default=None, help="write to file instead of stdout")


def _add_quad_flags(p):
    p.add_argument("--rel-tol", type=float, default=None,
                   help=f"relative quadrature tolerance (default {QuadratureSpec().rel_tol:g})")


def _add_mc_flags(p, samples_default=1_000_000):
    p.add_argument("--samples", type=int, default=samples_default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, help="parallel workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerq",
        description="Wigner-positivity volume indicators of qubit and qutrit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indicator", help="one indicator value")
    p.add_argument("--metric", required=True)
    p.add_argument("--n", type=int, required=True, choices=(2, 3))
    p.add_argument("--zeta", type=parse_angle, default=None,
                   help="moduli angle for n=3; accepts pi-fractions like pi/6")
    p.add_argument("--method", choices=("auto", "closed", "quad", "mc"), default="auto")
    p.add_argument("--sampler", choices=("matrix", "weighted", "mcmc"), default=None)
    _add_quad_flags(p)
    _add_mc_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_indicator)

    p = sub.add_parser("average", help="moduli average of the n=3 indicator")
    p.add_argument("--metric", default="all", help="hs, bures, bkm or all")
    p.add_argument("--n", type=int, default=3, choices=(3,))
    _add_quad_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_average)

    p = sub.add_parser("minimize", help="minimize the n=3 indicator over the moduli angle")
    p.add_argument("--metric", required=True)
    p.add_argument("--n", type=int, default=3, choices=(3,))
    p.add_argument("--method", choices=("auto", "closed", "quadrature"), default="auto")
    _add_quad_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("curve", help="qubit positivity probability on a radius grid")
    p.add_argument("--points", type=int, default=200)
    _add_output_flags(p, default_format="csv")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("sample", help="draw random spectra and write them out")
    p.add_argument("--metric", required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--sampler", choices=("auto", "matrix", "weighted", "mcmc"), default="auto")
    _add_mc_flags(p, samples_default=10_000)
    _add_output_flags(p, default_format="csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("reproduce-paper", help="run the published-value table")
    p.add_argument("--fast", action="store_true", help="cap Monte Carlo at 1e5 samples")
    _add_mc_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
