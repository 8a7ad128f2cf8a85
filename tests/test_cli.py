"""Command-line surface: formats, determinism, exit codes, schema."""

import csv
import dataclasses
import importlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from wignerq import (
    McSpec,
    MetricKind,
    QuadratureSpec,
    sample_bures_spectra,
    sample_hs_spectra,
    sample_weighted_spectra,
)
from wignerq.cli import main, parse_angle

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "schema" / "cli_output.schema.json").read_text()
)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits directly on flag errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload):
    jsonschema.validate(payload, SCHEMA)


class TestParseAngle:
    def test_fraction_literals(self):
        assert parse_angle("pi/6") == pytest.approx(math.pi / 6, rel=1e-15)
        assert parse_angle("2pi/9") == pytest.approx(2 * math.pi / 9, rel=1e-15)
        assert parse_angle("0.5*pi") == pytest.approx(math.pi / 2, rel=1e-15)
        assert parse_angle("pi") == pytest.approx(math.pi, rel=1e-15)
        assert parse_angle("PI/3") == pytest.approx(math.pi / 3, rel=1e-15)

    def test_plain_floats(self):
        assert parse_angle("0.5235988") == pytest.approx(0.5235988)
        assert parse_angle("1e-3") == pytest.approx(1e-3)

    def test_rejects_garbage(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle("half a turn")
        with pytest.raises(argparse.ArgumentTypeError, match="zero denominator"):
            parse_angle("pi/0")


_QUAD_INDICATOR = ["indicator", "--n", "3", "--metric", "hs", "--zeta", "0.4", "--method", "quad"]


class TestIndicatorCommand:
    def test_qubit_flat_json(self, capsys):
        code, out, _ = run_cli(capsys, "indicator", "--n", "2", "--metric", "hs")
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["value"] == pytest.approx(0.19245, abs=1e-5)
        assert payload["method"] == "closed-form"

    def test_qutrit_with_pi_fraction(self, capsys):
        code, out, _ = run_cli(
            capsys, "indicator", "--n", "3", "--metric", "hs", "--zeta", "pi/6"
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.000675, abs=2e-7)

    def test_quadrature_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "indicator", "--n", "3", "--metric", "bures", "--zeta", "0.4", "--method", "quad"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["method"] == "quadrature"

    def test_csv_format_has_12_significant_digits(self, capsys):
        code, out, _ = run_cli(
            capsys, "indicator", "--n", "2", "--metric", "hs", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["value", "error", "metric", "n", "moduli", "method"]
        expected = 1 / (3 * math.sqrt(3))
        assert rows[1][0] == format(expected, ".12g")
        assert re.fullmatch(r"0\.\d{11}", rows[1][0])
        assert float(rows[1][0]) == pytest.approx(expected, rel=1e-11)

    def test_mc_deterministic(self, capsys):
        args = ("indicator", "--n", "2", "--metric", "hs", "--method", "mc",
                "--samples", "20000", "--seed", "42")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        validate(payload)
        assert payload["meta"]["seed"] == 42

    def test_bkm_mc_weighted_deterministic_with_workers(self, capsys):
        args = ("indicator", "--n", "3", "--metric", "bkm", "--zeta", "0", "--method", "mc",
                "--samples", "50000", "--seed", "5", "--workers", "2")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        validate(payload)
        meta = payload["meta"]
        assert meta["sampler"] == "weighted" and meta["samples"] == 50_000
        assert 0.0 < meta["ess"] <= 50_000

    def test_missing_zeta_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "indicator", "--n", "3", "--metric", "hs")
        assert code == 2
        assert "zeta" in err

    def test_zero_denominator_angle_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "indicator", "--n", "3", "--metric", "hs", "--zeta", "pi/0")
        assert code == 2
        assert out == ""
        assert "error:" in err and "Traceback" not in err

    def test_unknown_metric_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "indicator", "--n", "2", "--metric", "trace")
        assert code == 2

    def test_bkm_matrix_sampler_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "indicator", "--n", "2", "--metric", "bkm", "--method", "mc",
            "--samples", "100", "--sampler", "matrix"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [_QUAD_INDICATOR, ["minimize", "--metric", "bures"], ["average", "--metric", "hs"]],
        ids=["indicator", "minimize", "average"],
    )
    def test_abs_tol_is_rejected(self, capsys, argv):
        # no command is bounded by an absolute tolerance
        code, out, err = run_cli(capsys, *argv, "--abs-tol", "1e-3")
        assert code == 2
        assert out == ""
        assert "--abs-tol" in err

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            pytest.param(_QUAD_INDICATOR, "--rel-tol", "nan", id="--rel-tol-nan"),
            pytest.param(_QUAD_INDICATOR, "--rel-tol", "inf", id="--rel-tol-inf"),
            pytest.param(["average", "--metric", "hs"], "--rel-tol", "nan", id="average-rel-tol-nan"),
        ],
    )
    def test_non_finite_tolerance_is_usage_error(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite and positive" in err

    def test_unreachable_tolerance_is_numerical_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "indicator", "--n", "2", "--metric", "bkm", "--method", "quad", "--rel-tol", "1e-15"
        )
        assert code == 1
        assert "numerical failure" in err


class TestAverageCommand:
    def test_unreachable_tolerance_names_the_order_reached(self, capsys):
        code, out, err = run_cli(capsys, "average", "--metric", "bkm", "--rel-tol", "1e-16")
        assert code == 1
        assert out == ""
        assert err.startswith("numerical failure:")
        assert "sector rule did not settle below rel_tol=1e-16 by order 256" in err

    def test_provenance_validates(self, capsys):
        code, out, _ = run_cli(capsys, "average", "--metric", "all")
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        for result in payload["results"]:
            assert {"order", "evaluations"} <= result["meta"].keys()

    def test_flat_only(self, capsys):
        code, out, _ = run_cli(capsys, "average", "--n", "3", "--metric", "hs")
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["results"][0]["value"] == pytest.approx(0.00136368, rel=1e-4)
        assert payload["results"][0]["moduli"] == "averaged"

    def test_all_metrics_table(self, capsys):
        code, out, _ = run_cli(capsys, "average", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 4  # header + one per metric
        values = {row[2]: float(row[0]) for row in rows[1:]}
        assert values["hs"] == pytest.approx(0.00136368, rel=1e-4)
        assert values["bures"] == pytest.approx(0.00019165, rel=1e-2)
        assert values["bkm"] == pytest.approx(0.00002762, rel=1e-2)


class TestMinimizeCommand:
    def test_flat(self, capsys):
        code, out, _ = run_cli(capsys, "minimize", "--n", "3", "--metric", "hs")
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["zeta_star"] == pytest.approx(0.523599, abs=1e-4)
        assert payload["q_star"] == pytest.approx(21 / 31104, rel=1e-5)

    def test_other_dimension_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "minimize", "--n", "2", "--metric", "hs")
        assert code == 2


class _Stop(Exception):
    pass


@pytest.mark.parametrize(
    "runner, argv, flag",
    [
        ("average_indicator", ["average", "--metric", "bures"], "--rel-tol"),
        ("minimize_indicator", ["minimize", "--metric", "bures"], "--rel-tol"),
        ("global_indicator", ["indicator", "--n", "2", "--metric", "bkm", "--method", "quad"], "--rel-tol"),
    ],
    ids=["average-rel-tol", "minimize-rel-tol", "indicator-rel-tol"],
)
def test_tolerance_flag_reaches_library(monkeypatch, runner, argv, flag):
    # the flag replaces one field of QuadratureSpec() and keeps the other
    from wignerq import cli

    specs = []

    def record(*args, **kwargs):
        specs.extend(a for a in args if isinstance(a, QuadratureSpec))
        raise _Stop

    monkeypatch.setattr(cli, runner, record)
    with pytest.raises(_Stop):
        main([*argv, flag, "3e-9"])
    field = flag[2:].replace("-", "_")
    assert specs == [dataclasses.replace(QuadratureSpec(), **{field: 3e-9})]


@pytest.mark.parametrize(
    "argv",
    [
        ["curve", "--points", "57"],
        ["sample", "--metric", "bkm", "--n", "3", "--samples", "40", "--seed", "2"],
    ],
    ids=["curve", "sample"],
)
def test_csv_out_file_equals_stdout(capsys, tmp_path, argv):
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    target = tmp_path / "table.csv"
    code, printed, _ = run_cli(capsys, *argv, "--format", "csv", "--out", str(target))
    assert code == 0
    assert printed == ""
    assert target.read_bytes() == out.encode("utf-8")
    assert out.count("\n") == {"curve": 58, "sample": 41}[argv[0]]


class TestCurveCommand:
    def test_csv_default(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--points", "30")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["radius", "q_hs", "q_bures", "q_bkm"]
        data = [[float(c) for c in row] for row in rows[1:]]
        assert len(data) == 30
        for row in data:
            if row[0] <= 0.5774:
                assert row[1:] == [1.0, 1.0, 1.0]
        for col in (1, 2, 3):
            series = [row[col] for row in data]
            assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))

    def test_json_validates(self, capsys):
        code, out, _ = run_cli(capsys, "curve", "--points", "5", "--format", "json")
        assert code == 0
        validate(json.loads(out))

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_no_points_is_usage_error(self, capsys, points):
        code, out, err = run_cli(capsys, "curve", "--points", points)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_points_above_cap_rejected_before_running(self, capsys, monkeypatch):
        from wignerq import cli

        def never(*args, **kwargs):
            raise AssertionError("the curve was computed")

        monkeypatch.setattr(cli, "positivity_curve", never)
        code, out, err = run_cli(capsys, "curve", "--points", str(cli._CURVE_MAX_POINTS + 1))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "1,000,000" in err


class TestSampleCommand:
    def test_csv_spectra(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--metric", "hs", "--n", "3", "--samples", "20", "--seed", "5"
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["r1", "r2", "r3"]
        for row in rows[1:]:
            vals = [float(c) for c in row]
            assert sum(vals) == pytest.approx(1.0, abs=1e-9)
            assert vals == sorted(vals, reverse=True)

    def test_json_validates_and_is_deterministic(self, capsys):
        args = ("sample", "--metric", "bkm", "--n", "2", "--samples", "50", "--seed", "5",
                "--format", "json")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        validate(payload)
        assert payload["sampler"] == "weighted"
        assert len(payload["spectra"]) == len(payload["weights"]) == 50
        assert np.mean(payload["weights"]) == pytest.approx(1.0, rel=1e-12)

    def test_weighted_without_weights_fails_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--metric", "hs", "--n", "2", "--samples", "5", "--sampler", "weighted",
            "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        del payload["weights"]
        with pytest.raises(jsonschema.ValidationError):
            validate(payload)

    def test_output_equals_sampler_values(self, capsys):
        spec = McSpec(20, seed=5)
        bkm, log_w = sample_weighted_spectra(MetricKind.BKM, 3, spec)
        weights = np.exp(log_w - log_w.max())
        weights = weights / weights.mean()
        expected_by_metric = {
            "hs": (sample_hs_spectra(3, spec), None),
            "bures": (sample_bures_spectra(3, spec), None),
            "bkm": (bkm, weights.tolist()),
        }
        for metric, (arr, w) in expected_by_metric.items():
            argv = ("sample", "--metric", metric, "--n", "3", "--samples", "20", "--seed", "5",
                    "--workers", "1")
            expected = arr.tolist()
            code, out, _ = run_cli(capsys, *argv, "--format", "json")
            assert code == 0
            payload = json.loads(out)
            assert payload["spectra"] == expected
            assert payload.get("weights") == w
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            rows = list(csv.reader(io.StringIO(out)))
            if w is not None:
                assert rows[0] == ["r1", "r2", "r3", "weight"]
                expected = [row + [x] for row, x in zip(expected, w)]
            assert rows[1:] == [[format(v, ".12g") for v in row] for row in expected]

    def test_bkm_matrix_sampler_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sample", "--metric", "bkm", "--n", "2", "--samples", "10", "--sampler", "matrix"
        )
        assert code == 2
        assert "BKM" in err

    @pytest.mark.parametrize("n, samples", [(257, 1), (2, 5_000_001), (256, 39_063)])
    def test_caps_rejected_before_drawing(self, capsys, monkeypatch, n, samples):
        from wignerq import cli

        def never(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(cli, "sample_spectra", never)
        code, out, err = run_cli(
            capsys, "sample", "--metric", "hs", "--n", str(n), "--samples", str(samples)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "capped" in err

    @pytest.mark.parametrize("n, samples", [(256, 39_062), (2, 5_000_000)])
    def test_caps_admit_the_limit(self, capsys, monkeypatch, n, samples):
        from wignerq import cli

        calls = []

        def tiny(metric, n, spec, sampler):
            calls.append((n, spec.samples))
            return "matrix", np.full((1, n), 1.0 / n)

        monkeypatch.setattr(cli, "sample_spectra", tiny)
        code, _, _ = run_cli(capsys, "sample", "--metric", "hs", "--n", str(n), "--samples", str(samples))
        assert code == 0
        assert calls == [(n, samples)]

    @pytest.mark.parametrize("samples, code", [(3_333_334, 2), (3_333_333, 0)])
    def test_weighted_cap_counts_the_weight(self, capsys, monkeypatch, samples, code):
        # each weighted row is n spectrum values plus one weight
        from wignerq import cli

        def tiny(metric, n, spec, sampler):
            return sampler, (np.full((1, n), 1.0 / n), np.zeros(1))

        monkeypatch.setattr(cli, "sample_spectra", tiny)
        result, _, err = run_cli(
            capsys, "sample", "--metric", "bkm", "--n", "2", "--samples", str(samples)
        )
        assert result == code
        assert ("capped" in err) == (code == 2)

    def test_workers_cap_admits_the_limit(self, capsys, monkeypatch):
        from wignerq import cli

        workers = []

        def tiny(metric, n, spec, sampler):
            workers.append(spec.workers)
            return "matrix", np.full((1, n), 1.0 / n)

        monkeypatch.setattr(cli, "sample_spectra", tiny)
        code, _, _ = run_cli(capsys, "sample", "--metric", "hs", "--samples", "1", "--workers", "256")
        assert code == 0
        assert workers == [256]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "spectra.csv"
        code, out, _ = run_cli(
            capsys, "sample", "--metric", "bures", "--n", "2", "--samples", "10",
            "--seed", "1", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("r1,r2")


@pytest.mark.parametrize(
    "runner, argv",
    [
        ("sample_spectra", ["sample", "--metric", "hs"]),
        ("global_indicator", ["indicator", "--metric", "hs", "--n", "2", "--method", "mc"]),
        ("_reproduce_checks", ["reproduce-paper", "--fast"]),
    ],
    ids=["sample", "indicator", "reproduce-paper"],
)
def test_workers_above_cap_rejected_before_running(capsys, monkeypatch, runner, argv):
    from wignerq import cli

    def never(*args, **kwargs):
        raise AssertionError("the Monte Carlo work ran")

    monkeypatch.setattr(cli, runner, never)
    code, out, err = run_cli(capsys, *argv, "--workers", "257")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--workers is capped at 256" in err


@pytest.mark.parametrize(
    "runner, argv",
    [
        ("global_indicator", ["indicator", "--metric", "bkm", "--n", "3", "--zeta", "0.4", "--method", "mc"]),
        ("global_indicator", ["indicator", "--metric", "hs", "--n", "2", "--method", "mc"]),
        ("_reproduce_checks", ["reproduce-paper"]),
    ],
    ids=["indicator-bkm", "indicator-hs", "reproduce-paper"],
)
def test_samples_above_cap_rejected_before_running(capsys, monkeypatch, runner, argv):
    from wignerq import cli

    def never(*args, **kwargs):
        raise AssertionError("the Monte Carlo work ran")

    monkeypatch.setattr(cli, runner, never)
    code, out, err = run_cli(capsys, *argv, "--samples", str(cli._MC_MAX_SAMPLES + 1))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--samples is capped at 20,000,000" in err


_NO_SCIPY_SCRIPT = """
import contextlib, io, json, sys
import wignerq
from wignerq.cli import main
commands = [
    ["indicator", "--n", "2", "--metric", "bkm"],
    ["indicator", "--n", "3", "--metric", "hs", "--zeta", "pi/6"],
    ["minimize", "--metric", "hs"],
    ["curve"],
    ["sample", "--metric", "hs", "--n", "3", "--samples", "100"],
    ["indicator", "--n", "3", "--metric", "bures", "--zeta", "0.4", "--method", "quad"],
    ["average", "--metric", "bkm"],
    ["minimize", "--metric", "bures"],
    ["indicator", "--n", "2", "--metric", "bkm", "--method", "quad"],
    ["reproduce-paper", "--fast"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in commands]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_commands_without_integration_never_import_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert json.loads(proc.stdout) == {"codes": [0] * 10, "scipy": []}


# RUSAGE_SELF's maximum also counts the address space the process was
# forked from (the test runner's), so the peak of its own address space,
# VmHWM, is read where the system reports it
_PEAK_RSS_SCRIPT = """
import contextlib, io, resource, sys
from wignerq.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as fh:
        peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, peak_kb)
"""


def test_weighted_indicator_memory_is_bounded():
    # 3e6 draws held at once would take about 360 MB; batched, the whole
    # process stays near its import footprint
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    argv = ["indicator", "--n", "3", "--metric", "bkm", "--zeta", "pi/6", "--method", "mc", "--samples", "3000000"]
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, *argv], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    code, peak_kb = map(int, proc.stdout.split())
    assert code == 0
    assert peak_kb < 150 * 1024


class TestReproduceCommand:
    def test_fast_caps_samples_without_changing_args(self, capsys, monkeypatch):
        from wignerq import cli

        specs = []
        monkeypatch.setattr(cli, "_reproduce_checks", lambda spec: specs.append(spec) or [])
        args = cli.build_parser().parse_args(["reproduce-paper", "--fast"])
        assert cli.cmd_reproduce(args) == 0
        capsys.readouterr()
        assert args.samples == 1_000_000
        assert [s.samples for s in specs] == [100_000]

    def test_fast_manifest_passes(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce-paper", "--fast", "--seed", "3")
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        assert payload["all_pass"] is True
        names = {c["name"] for c in payload["checks"]}
        assert "average_bkm_vs_print" in names
        assert all(c["pass"] for c in payload["checks"])


@pytest.mark.parametrize("module", ["wignerq", "wignerq.integrate"])
def test_exports_resolve_once(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    for name in mod.__all__:
        getattr(mod, name)
