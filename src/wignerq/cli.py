"""Command-line interface.

Subcommands mirror the library surface: ``indicator`` for single
values, ``average`` and ``minimize`` over the three-level moduli angle,
``curve`` for the two-level probability table, ``sample`` for raw
spectra, and ``reproduce-paper`` for the full table of published
values with a pass/fail manifest.

All output is machine readable and deterministic given identical flags,
including seed and worker count: JSON, or CSV rows of the JSON records'
values in header order, to 12 significant digits, a null left empty.
Exit codes: 0 success (also when the reader closes stdout before the
output ends), 1 numerical failure, 2 usage error.

Every command checks its flags before it computes.  numpy and the
numerical engines are imported only by the paths that use them, so the
closed-form commands (every ``indicator --n 2``, the flat
``indicator --n 3``, ``average --metric hs``, ``minimize --metric hs``
and ``curve``) start without them.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import math
import os
import re
import sys

from .closed_form import (
    McSpec,
    QuadratureSpec,
    _has_closed_form,
    average_indicator,
    closed_indicator,
    minimize_indicator,
    positivity_curve,
    qutrit_indicator_closed_form,
)
from .errors import ConvergenceError, DomainError
from .spectra import MetricKind, ModuliPoint

#: Caps on ``sample``: it holds every spectrum, and its JSON is encoded
#: whole before it is written.
_SAMPLE_MAX_N = 256
_SAMPLE_MAX_VALUES = 10**7
_CSV_BLOCK = 1 << 16  # rows of ``sample`` made Python floats at a time for CSV
#: Cap on ``--workers``: the per-worker job lists grow with it.
_MAX_WORKERS = 256
#: Cap on ``--samples`` of the Monte Carlo commands.  Every estimate
#: counts its importance-sampled draws in batches, so its memory does not
#: grow with the count; the cap bounds the run time instead (seconds at
#: the cap).
_MC_MAX_SAMPLES = 2 * 10**7
#: The typed flags that each route of ``indicator``, ``average`` and
#: ``minimize`` reads.
_ROUTE_FLAGS = {
    "closed-form": (),
    "quadrature": ("--rel-tol",),
    "monte-carlo": ("--samples", "--seed", "--workers"),
}
#: Cap on ``curve --points``: the table is built whole before it is written.
_CURVE_MAX_POINTS = 10**6
#: CSV columns of ``indicator`` and ``average``: keys of their result records.
_RESULT_COLUMNS = ["value", "error", "metric", "n", "moduli", "method"]
#: CSV columns of ``reproduce-paper``: keys of its check records.
_CHECK_COLUMNS = ["name", "value", "target", "tolerance_kind", "tolerance", "deviation", "pass"]

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
        # a bare sign stands for a coefficient of 1
        coeff = float(coeff_s + "1" if coeff_s in ("", "+", "-") else coeff_s)
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


def _cell(x) -> str:
    """A CSV cell: a string as it is, a number to 12 significant digits, empty for None."""
    return "" if x is None else x if isinstance(x, str) else format(float(x), ".12g")


def _check_out(path: str | None) -> None:
    """``--out`` names a file in a directory that exists."""
    if path and os.path.isdir(path):
        raise DomainError(f"--out {path} is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise DomainError(f"--out {path}: no directory {os.path.dirname(path)}")


def _project(records, header: list[str]) -> list[list]:
    """CSV rows of JSON records: each record's values in the header's order."""
    return [[r[c] for c in header] for r in records]


def _emit(args, payload: dict, header: list[str], rows) -> None:
    """Write the payload as JSON, or the header and rows as CSV (each
    cell by ``_cell``), to ``--out`` or stdout.  JSON is encoded before
    the file is opened, so an encoding error leaves no file behind; CSV
    rows go out one by one, and stdout is flushed here, so a closed pipe
    raises inside the command.  A file that cannot be opened or written
    is a usage error, and a file that the failed write created is removed
    (never one that existed)."""
    text = json.dumps(payload, allow_nan=False) + "\n" if args.format == "json" else None
    created = bool(args.out) and not os.path.lexists(args.out)
    try:
        with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext(sys.stdout) as f:
            if text is not None:
                f.write(text)
            else:
                writer = csv.writer(f, lineterminator="\n")
                writer.writerow(header)
                writer.writerows([_cell(c) for c in row] for row in rows)
            f.flush()
    except OSError as exc:
        if not args.out:
            raise
        if created:
            with contextlib.suppress(OSError):
                os.remove(args.out)
        raise DomainError(f"cannot write --out {args.out}: {exc.strerror or exc}") from None


def _grid(stop: float, points: int) -> list[float]:
    """``np.linspace(0.0, stop, points)`` bit for bit: ``i * step``, and
    ``stop`` itself as the last of two or more points."""
    step = stop / max(points - 1, 1)
    return [i * step for i in range(points - 1)] + [stop if points > 1 else 0.0]


def _quad_spec(args) -> QuadratureSpec:
    """``QuadratureSpec()``, with ``--rel-tol`` in place of its default when given."""
    return QuadratureSpec() if args.rel_tol is None else QuadratureSpec(rel_tol=args.rel_tol)


def _mc_spec(args) -> McSpec:
    if args.workers > _MAX_WORKERS:
        raise DomainError(f"--workers is capped at {_MAX_WORKERS}")
    if args.samples > _MC_MAX_SAMPLES:
        raise DomainError(f"--samples is capped at {_MC_MAX_SAMPLES:,}")
    return McSpec(samples=args.samples, seed=args.seed, workers=args.workers)


def _check_route(args, route: str) -> str:
    """The route, once every flag the user typed is one it reads; a flag
    it would ignore is a usage error."""
    for flag in args.typed:
        if flag not in _ROUTE_FLAGS[route]:
            raise DomainError(f"{flag} does not apply to the {route} route")
    return route


def cmd_indicator(args) -> int:
    metric = MetricKind.from_name(args.metric)
    moduli = ModuliPoint(args.n, zeta=args.zeta)
    if args.method == "auto" and _has_closed_form(metric, args.n):
        _check_route(args, "closed-form")
        result = closed_indicator(metric, args.n, moduli)
    else:
        mc = args.method == "mc"
        _check_route(args, "monte-carlo" if mc else "quadrature")
        spec = _mc_spec(args) if mc else _quad_spec(args)
        from .indicators import global_indicator

        result = global_indicator(metric, args.n, moduli, spec)
    payload = {"command": "indicator", **result.to_json_dict()}
    _emit(args, payload, _RESULT_COLUMNS, _project([payload], _RESULT_COLUMNS))
    return 0


def cmd_average(args) -> int:
    metrics = list(MetricKind) if args.metric == "all" else [MetricKind.from_name(args.metric)]
    _check_route(args, "closed-form" if all(_has_closed_form(m, 3) for m in metrics) else "quadrature")
    spec = _quad_spec(args)
    results = [average_indicator(m, args.n, spec).to_json_dict() for m in metrics]
    payload = {"command": "average", "results": results}
    _emit(args, payload, _RESULT_COLUMNS, _project(results, _RESULT_COLUMNS))
    return 0


def cmd_minimize(args) -> int:
    metric = MetricKind.from_name(args.metric)
    method = _check_route(args, "closed-form" if _has_closed_form(metric, 3) else "quadrature")
    zeta_star, q_star = minimize_indicator(metric, args.n, _quad_spec(args))
    header = ["metric", "n", "zeta_star", "q_star", "method"]
    row = [metric.value, 3, zeta_star, q_star, method]
    _emit(args, {"command": "minimize", **dict(zip(header, row))}, header, [row])
    return 0


def cmd_curve(args) -> int:
    if not 1 <= args.points <= _CURVE_MAX_POINTS:
        raise DomainError(f"--points must lie in [1, {_CURVE_MAX_POINTS:,}]")
    radii = _grid(1.0, args.points)
    columns = ["radius", "q_hs", "q_bures", "q_bkm"]
    rows = positivity_curve(radii)
    _emit(args, {"command": "curve", "columns": columns, "rows": rows}, columns, rows)
    return 0


def cmd_sample(args) -> int:
    metric = MetricKind.from_name(args.metric)
    spec = _mc_spec(args)
    import numpy as np

    from .integrate.sampling import sample_spectra, sampler_for

    sampler = sampler_for(metric)
    per_row = args.n + (sampler == "weighted")
    if args.n > _SAMPLE_MAX_N or args.samples * per_row > _SAMPLE_MAX_VALUES:
        raise DomainError(
            f"sample is capped at --n {_SAMPLE_MAX_N} and at {_SAMPLE_MAX_VALUES:,} "
            "values (--samples x --n, plus one weight per row for the weighted sampler)"
        )
    spectra, log_w, warnings = sample_spectra(metric, args.n, spec, sampler)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    payload = {
        "command": "sample",
        "metric": metric.value,
        "n": args.n,
        "sampler": sampler,
        "seed": args.seed,
        "workers": args.workers,
        "warnings": list(warnings),
    }
    header, columns = [f"r{i + 1}" for i in range(args.n)], [spectra]
    if log_w is not None:
        weights = np.exp(log_w - log_w.max())
        weights /= weights.mean()
        header.append("weight")
        columns.append(weights)
    rows = ()
    if args.format == "json":
        payload["spectra"] = spectra.tolist()
        if log_w is not None:
            payload["weights"] = weights.tolist()
    else:
        # Python floats for one block of rows at a time, the weights stacked on per block
        rows = (row for i in range(0, len(spectra), _CSV_BLOCK)
                for row in np.column_stack([c[i:i + _CSV_BLOCK] for c in columns]).tolist())
    _emit(args, payload, header, rows)
    return 0


def _reproduce_checks(mc_spec: McSpec):
    """Rows of the published-value table: (name, value, target, kind, tol)."""
    from .indicators import global_indicator

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
    dev = 0.0
    for z in _grid(math.pi / 3.0, 50):
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
    checks = []
    for name, value, target, kind, tol in _reproduce_checks(mc_spec):
        dev = abs(value - target) / (abs(target) if kind == "rel" else 1.0)
        checks.append(dict(zip(_CHECK_COLUMNS, (name, value, target, kind, tol, dev, bool(dev <= tol)))))
    all_pass = all(c["pass"] for c in checks)
    payload = {"command": "reproduce-paper", "all_pass": all_pass, "checks": checks}
    table = _project(({**c, "pass": "pass" if c["pass"] else "FAIL"} for c in checks), _CHECK_COLUMNS)
    _emit(args, payload, _CHECK_COLUMNS, table)
    return 0 if all_pass else 1


def _add_output_flags(p, default_format="json"):
    p.add_argument("--format", choices=("json", "csv"), default=default_format)
    p.add_argument("--out", metavar="PATH", default=None, help="write to file instead of stdout")


class _Typed(argparse.Action):
    """Stores a flag's value and records in ``typed`` that it was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.typed = (*getattr(namespace, "typed", ()), self.option_strings[0])


def _add_quad_flags(p):
    p.add_argument("--rel-tol", type=float, default=None, action=_Typed,
                   help=f"relative quadrature tolerance (default {QuadratureSpec().rel_tol:g})")


def _add_mc_flags(p, samples_default=1_000_000):
    p.add_argument("--samples", type=int, default=samples_default, action=_Typed)
    p.add_argument("--seed", type=int, default=0, action=_Typed)
    p.add_argument("--workers", type=int, default=1, action=_Typed, help="parallel workers")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerq",
        description="Wigner-positivity volume indicators of qubit and qutrit states",
    )
    parser.set_defaults(typed=())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indicator", help="one indicator value")
    p.add_argument("--metric", required=True)
    p.add_argument("--n", type=int, required=True, choices=(2, 3))
    p.add_argument("--zeta", type=parse_angle, default=None,
                   help="moduli angle for n=3; accepts pi-fractions like pi/6")
    p.add_argument("--method", choices=("auto", "quad", "mc"), default="auto")
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
        _check_out(args.out)
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; devnull takes the interpreter's last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
