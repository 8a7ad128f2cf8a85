"""Benchmark of wignerq: four seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload quadrature --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1          # the four workloads in turn

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
traced run that reports the per-layer metrics, each layer's self time and the
tracing overhead.  The metric names, units and bounds are in
``BENCHMARK.json``; the runner prints exactly those as the last line of its
output (one JSON object) after a readable report, and writes the full record
-- environment, generated inputs, per-operation checks and spans -- under
``bench/out/``.

Times are scaled to a reference CPU speed read around and during every
operation (``calibrate.py``), because the shared host's speed switches
between regimes; the measured times are kept in the record.

Every operation's output is checked against an independent reference after
the timed region (``references.py``).  ``failed`` counts operations that miss
their tolerance, including the package's known defects; ``correct`` is false
only when an output is inconsistent even with the accuracy its own method
claims, or an operation crashed.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent

# The runner and every process it starts share one CPU, so that the speed
# readings of ``calibrate`` are taken where the measured work runs (the two
# never run at once: each operation waits for the previous one).  Set before
# numpy is imported, so that its thread pools see the same one CPU.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import calibrate  # noqa: E402  (bench/ is on sys.path as the script's directory)

#: Fresh interpreters started per run to measure set-up; the median is reported.
SETUP_PROBES = 5

#: The tail latency is read at the highest percentile with this many
#: operations beyond it.
TAIL_BEYOND = 10

TRACE_ORDER = ("quadrature", "montecarlo", "general-n", "cli")


@dataclasses.dataclass
class Exec:
    """One execution of an operation."""

    op: Any
    seconds: float
    out: Any = None
    error: str | None = None
    rss_kb: int | None = None
    #: ``seconds`` at the reference speed (``calibrate.py``).
    scaled: float | None = None


@dataclasses.dataclass
class Context:
    root: Path
    env: dict
    stderr: Any
    tracer: Any = None
    tag: str = ""


# --- running operations ----------------------------------------------------------

def _run_cli(op, ctx: Context) -> Exec:
    ctx.stderr.seek(0)
    ctx.stderr.truncate()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "wignerq.cli", *op.argv],
        stdout=subprocess.PIPE, stderr=ctx.stderr, env=ctx.env, cwd=ctx.root,
    )
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would report
    # the largest child so far, which a smaller later command cannot lower
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    error = None
    if proc.returncode != 0:
        ctx.stderr.seek(0)
        error = f"exit code {proc.returncode}: {ctx.stderr.read().decode(errors='replace').strip()[-300:]}"
    return Exec(op, seconds, out, error, usage.ru_maxrss)


def _run_in_process(op) -> Exec:
    t0 = time.perf_counter()
    try:
        out, error = op.call(), None
    except Exception as exc:  # the loop must go on; the failure is counted
        out, error = None, f"{type(exc).__name__}: {exc}"
    return Exec(op, time.perf_counter() - t0, out, error)


def run_pass(ops, ctx: Context) -> list[Exec]:
    """Run each operation once, in order.

    The CPU speed is read before and after every operation and, in an
    untraced pass, during each in-process one; each execution's ``scaled``
    time comes from them.  A traced pass reads none during an operation,
    so that the readings stay out of its spans (the calibration's own
    ``quad`` is bound before the tracer wraps ``scipy.integrate.quad``)."""
    execs = []
    before = calibrate.reading()
    for op in ops:
        during = []
        if ctx.tracer is not None:
            ctx.tracer.op = f"{ctx.tag}:{op.label}"
            with ctx.tracer.span(op.layer, op.fn):
                e = _run_cli(op, ctx) if op.argv else _run_in_process(op)
        elif op.argv:
            e = _run_cli(op, ctx)
        else:
            with calibrate.Sampler() as sampler:
                e = _run_in_process(op)
            e.seconds -= sampler.spent
            during = sampler.readings
        after = calibrate.reading()
        e.scaled = calibrate.scale(e.seconds, [before, *during, after])
        execs.append(e)
        before = after
    return execs


def measured_s(execs: list[Exec]) -> float:
    return sum(e.seconds for e in execs)


def scaled_s(execs: list[Exec]) -> float:
    return sum(e.scaled for e in execs)


# --- checking -------------------------------------------------------------------

class Checker:
    """Checks executions after timing; identical CLI documents are parsed,
    schema-validated and checked once."""

    def __init__(self, schema_path: Path):
        import jsonschema

        schema = json.loads(schema_path.read_text())
        self.validator = jsonschema.validators.validator_for(schema)(schema)
        self._docs: dict = {}

    def _cli(self, e: Exec):
        import references as refs

        key = (e.op.label, hashlib.sha256(e.out).hexdigest())
        if key not in self._docs:
            try:
                doc = json.loads(e.out)
            except ValueError as exc:
                self._docs[key] = refs.failed_to_run(f"output is not JSON: {exc}")
                return self._docs[key]
            error = next(iter(self.validator.iter_errors(doc)), None)
            if error is not None:
                self._docs[key] = refs.failed_to_run(f"schema: {error.message[:200]}")
            else:
                self._docs[key] = self._guarded(e.op.check, doc)
        return self._docs[key]

    @staticmethod
    def _guarded(check, out):
        import references as refs

        try:
            return check(out)
        except Exception as exc:
            return refs.failed_to_run(f"unexpected output: {type(exc).__name__}: {exc}")

    def __call__(self, e: Exec):
        import references as refs

        if e.error is not None:
            return refs.failed_to_run(e.error)
        if e.op.argv:
            return self._cli(e)
        return self._guarded(e.op.check, e.out)


# --- set-up -----------------------------------------------------------------------

def setup_probe(ctx: Context, workload: str, seed: int) -> dict:
    """A fresh interpreter that imports wignerq and generates the inputs;
    ``setup_s`` is scaled to the reference speed, ``setup_measured_s`` not."""
    before = calibrate.reading()
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), workload, str(seed)],
        capture_output=True, env=ctx.env, cwd=ctx.root, check=True,
    )
    info = json.loads(proc.stdout.decode().splitlines()[-1])
    info["setup_measured_s"] = info.pop("ready") - t0
    info["setup_s"] = calibrate.scale(info["setup_measured_s"], [before, calibrate.reading()])
    return info


def passes_for(workload, n_ops: int, seconds: int) -> int:
    """Complete passes per run: enough to fill ``seconds`` on the reference
    machine, and at least enough operations for the tail percentile.  The
    count is fixed per workload so that the percentile is too."""
    return max(math.ceil((TAIL_BEYOND + 1) / n_ops), round(seconds / workload.nominal_pass_s))


# --- metrics -----------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND operations beyond it."""
    ordered = sorted(latencies)
    idx = len(ordered) - TAIL_BEYOND - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def end_to_end(name, passes, checks, setup, rss_mb) -> tuple[dict, dict]:
    """The end-to-end metrics.  Times are scaled to the reference speed
    (``calibrate.py``); ``*_measured_s`` give the unscaled medians."""
    latencies = [e.scaled for p in passes for e in p]
    tail_s, tail_pct = tail(latencies)
    wall = statistics.median(scaled_s(p) for p in passes)
    per_op = {
        e.op.label: statistics.median(x.scaled for p in passes for x in p if x.op is e.op) for e in passes[0]
    }
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in setup), "s"),
        "wall_s": (wall, "s"),
        # median over the operation list of each operation's median latency:
        # the pooled median would fall between two operations' samples
        "op_p50_s": (statistics.median(per_op.values()), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        # reported, not in BENCHMARK.json: zero on healthy workloads; the
        # result line carries it as failed / attempted
        "fail_share": (sum(not c.ok for c in checks) / len(checks), "ratio"),
    }
    if name == "montecarlo":
        # reported, not in BENCHMARK.json, which needs every metric on every workload
        first = passes[0]
        drawn = sum(e.out.meta["samples"] for e in first if e.out is not None)
        metrics["spectra_per_s"] = (drawn / wall, "1/s")
        to_1pct = []
        for e in first:
            if e.out is None or e.out.error <= 0.0 or e.out.value <= 0.0:
                continue  # an op reporting se = 0 is a failure and has no 1% time
            to_1pct.append(per_op[e.op.label] * (e.out.error / e.out.value) ** 2 / 1e-4)
        if to_1pct:
            metrics["time_to_1pct_se_s"] = (statistics.median(to_1pct), "s")
    # reported, not gated: the same medians unscaled, and the host speed
    metrics["setup_measured_s"] = (statistics.median(p["setup_measured_s"] for p in setup), "s")
    metrics["wall_measured_s"] = (statistics.median(measured_s(p) for p in passes), "s")
    metrics["speed_vs_reference"] = (
        statistics.median(e.scaled / e.seconds for p in passes for e in p), "ratio")
    info = {"ops": len(latencies), "tail_percentile": tail_pct}
    return metrics, info


# --- environment ---------------------------------------------------------------------

def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = root / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in threads},
        "git_commit": _git_commit(root),
        "src_lines": src_lines,
    }


# --- report ---------------------------------------------------------------------------

def op_rows(ops, passes, checks) -> list[dict]:
    rows = []
    flat = [e for p in passes for e in p]
    for op in ops:
        mine = [(e, c) for e, c in zip(flat, checks) if e.op is op]
        rows.append({
            "label": op.label,
            "layer": op.layer,
            "call": op.fn if op.argv is None else "python -m wignerq.cli " + " ".join(op.argv),
            "median_s": statistics.median(e.seconds for e, _ in mine),
            "median_scaled_s": statistics.median(e.scaled for e, _ in mine),
            "executions": len(mine),
            "failed": sum(not c.ok for _, c in mine),
            "inconsistent": sum(not c.consistent for _, c in mine),
            "check": mine[0][1].detail,
        })
    return rows


def print_report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"  why: {record['why']}")
    env = record["environment"]
    print(f"  environment: {env['cpu']}, nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, BLAS threads {env['blas_thread_env']}, commit {env['git_commit']}, "
          f"src lines {env['src_lines']}")
    print(f"  inputs: {json.dumps(record['inputs'])}")
    for row in record["operations"]:
        status = "ok" if not row["failed"] else ("FAIL" if not row["inconsistent"] else "FAIL(inconsistent)")
        print(f"  op {row['label']:<28} {row['median_s']:9.4f} s ({row['median_scaled_s']:.4f} scaled) "
              f"x{row['executions']:<3} {status:<18} {row['check'][:150]}")
    for name, (value, unit) in record["all_metrics"].items():
        gated = "" if name in record["metrics"] else "  (reported, not gated)"
        print(f"  {name} = {value:.6g} {unit}{gated}")
    for note in record.get("notes", []):
        print(f"  note: {note}")


# --- the two kinds of run ------------------------------------------------------------------

def timed_run(workload, seed, seconds, ctx, checker) -> dict:
    import inputs

    inp = inputs.make(workload.name, seed)
    ops = workload.build(inp)
    if workload.warm_pass:
        run_pass(ops, ctx)
    if workload.warm_up:
        workload.warm_up()
    k = passes_for(workload, len(ops), seconds)
    # set-up probes spread from before the first pass to after the last,
    # so that their median samples the whole run
    slots = [round(i * k / (SETUP_PROBES - 1)) for i in range(SETUP_PROBES)]
    setup, passes = [], []
    for i in range(k + 1):
        setup += [setup_probe(ctx, workload.name, seed) for _ in range(slots.count(i))]
        if i < k:
            passes.append(run_pass(ops, ctx))
    if workload.name == "cli":
        rss_mb = max(e.rss_kb for p in passes for e in p) / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = [checker(e) for p in passes for e in p]
    return {
        "inputs": inp, "ops": ops, "passes": passes,
        "checks": checks, "rss_mb": rss_mb, "setup": setup,
    }


def traced_run(workload, seed, ctx, checker, out_dir: Path, setup) -> dict:
    """Untraced and traced passes of the workload (tracing overhead), traced
    passes of the other three (per-layer metrics), then the layer probes."""
    import inputs
    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer()
    traced_ctx = dataclasses.replace(ctx, tracer=tracer)
    lists = {}
    overhead = None
    for name in (workload.name, *[n for n in TRACE_ORDER if n != workload.name]):
        w = WORKLOADS[name]
        inp = inputs.make(name, seed)
        ops = w.build(inp)
        if w.warm_pass:
            # traced, so that the cold full-volume cache misses are counted
            traced_ctx.tag = f"{name}:warm-up"
            with tracer.installed():
                run_pass(ops, traced_ctx)
        if w.warm_up:
            w.warm_up()
        before = scaled_s(run_pass(ops, ctx)) if name == workload.name else None
        traced_ctx.tag = f"{name}:traced"
        with tracer.installed():
            execs = run_pass(ops, traced_ctx)
            traced_s = scaled_s(execs)
        if before is not None:
            # untraced passes on both sides of the traced one, against drift
            untraced = (before + scaled_s(run_pass(ops, ctx))) / 2.0
            overhead = {"untraced_s": untraced, "traced_s": traced_s, "overhead_s": traced_s - untraced}
        lists[name] = {"inputs": inp, "ops": ops, "execs": execs, "seconds": traced_s}
    metrics = layers.per_layer(tracer, lists, overhead, setup)
    checks = {name: [checker(e) for e in item["execs"]] for name, item in lists.items()}
    tracer.write(out_dir / f"trace-{workload.name}-seed{seed}.json")
    self_times = {
        name: tracer.self_times({f"{name}:traced:{op.label}" for op in item["ops"]})
        for name, item in lists.items()
    }
    return {"lists": lists, "checks": checks, "metrics": metrics, "overhead": overhead, "self_times": self_times}


# --- entry points ------------------------------------------------------------------------------

def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def _traced_record(workload, args, ctx, checker, out_dir: Path) -> dict:
    setup = [setup_probe(ctx, workload.name, args.seed) for _ in range(SETUP_PROBES)]
    res = traced_run(workload, args.seed, ctx, checker, out_dir, setup)
    notes = [f"self time in {name} (s): " + ", ".join(f"{k} {v:.3f}" for k, v in st.items())
             for name, st in res["self_times"].items()]
    notes.append(f"tracing overhead on {workload.name}: {json.dumps(res['overhead'])}")
    previous = out_dir / f"{workload.name}-seed{args.seed}-trace.json"
    if previous.is_file():
        old = json.loads(previous.read_text()).get("all_metrics", {})
        counts = [k for k, (_, unit) in res["metrics"].items() if unit == "count" and k in old]
        differ = [k for k in counts if old[k][0] != res["metrics"][k][0]]
        notes.append(f"{len(counts) - len(differ)} of {len(counts)} counts repeat the previous traced "
                     f"run of this seed exactly" + (f"; differing: {differ}" if differ else ""))
    return {
        "checks": [c for cs in res["checks"].values() for c in cs],
        "all_metrics": res["metrics"],
        "inputs": {name: item["inputs"] for name, item in res["lists"].items()},
        "setup_probes": setup,
        "operations": [row for name, item in res["lists"].items()
                       for row in op_rows(item["ops"], [item["execs"]], res["checks"][name])],
        "overhead": res["overhead"],
        "self_times": res["self_times"],
        "notes": notes,
    }


def _timed_record(workload, args, ctx, checker) -> dict:
    res = timed_run(workload, args.seed, args.seconds, ctx, checker)
    metrics, info = end_to_end(
        workload.name, res["passes"], res["checks"], res["setup"], res["rss_mb"]
    )
    return {
        "checks": res["checks"],
        "all_metrics": metrics,
        "inputs": res["inputs"],
        "setup_probes": res["setup"],
        "operations": op_rows(res["ops"], res["passes"], res["checks"]),
        "pass_seconds": [measured_s(p) for p in res["passes"]],
        "pass_scaled_s": [scaled_s(p) for p in res["passes"]],
        "tail": info,
        "notes": [
            f"{len(res['passes'])} passes x {len(res['ops'])} ops; op_tail_s is the "
            f"p{info['tail_percentile']:.1f} latency of {info['ops']} ops",
        ],
    }


def run_one(args, root: Path, bench: dict) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    sys.path.insert(0, str(root / "src"))
    with tempfile.TemporaryFile(dir=out_dir) as stderr:
        ctx = Context(root, env, stderr)
        checker = Checker(root / "docs" / "schema" / "cli_output.schema.json")
        if args.trace:
            record = _traced_record(workload, args, ctx, checker, out_dir)
        else:
            record = _timed_record(workload, args, ctx, checker)
    wanted = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    missing = [k for k in wanted if k not in record["all_metrics"]]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    checks = record.pop("checks")
    record.update(
        workload=workload.name, why=workload.why, seed=args.seed, seconds=args.seconds, trace=args.trace,
        environment=environment(root), metrics={k: record["all_metrics"][k] for k in wanted},
    )
    suffix = "-trace" if args.trace else ""
    (out_dir / f"{workload.name}-seed{args.seed}{suffix}.json").write_text(json.dumps(record, indent=1, default=str))
    print_report(record)
    failed = sum(not c.ok for c in checks)
    print(result_line(all(c.consistent for c in checks), len(checks), failed, record["metrics"]))
    return 0


def run_all(args, root: Path, bench: dict) -> int:
    """Each workload in its own runner process, then one table."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=root)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary")
    for name, res in results.items():
        suffix = "-trace" if args.trace else ""
        record = json.loads((BENCH / "out" / f"{name}-seed{args.seed}{suffix}.json").read_text())
        shown = record["all_metrics"]
        fails = f"{res['failed']}/{res['attempted']} failed, correct={res['correct']}"
        print(f"  {name:<11} {fails}")
        for metric, (value, unit) in shown.items():
            print(f"  {name:<11} {metric:<48} {value:14.6g} {unit}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    required = (root / "src" / "wignerq" / "__init__.py", root / "docs" / "schema" / "cli_output.schema.json",
                root / "BENCHMARK.json")
    missing = [str(p.relative_to(root)) for p in required if not p.is_file()]
    if missing:
        print(f"error: run from the root of a wignerq checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if args.workload == "all":
        return run_all(args, root, bench)
    return run_one(args, root, bench)


if __name__ == "__main__":
    sys.exit(main())
