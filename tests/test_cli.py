"""Command-line surface: formats, determinism, exit codes, schema."""

import csv
import dataclasses
import errno
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
    global_indicator,
)
from wignerq.cli import main, parse_angle
from wignerq.integrate.sampling import sample_bures_spectra, sample_hs_spectra, sample_spectra

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


def test_schema_describes_every_meta_key(capsys):
    # one output per route: closed form, quadrature, Monte Carlo, and the
    # moduli average's closed form and quadrature
    commands = [
        ["indicator", "--n", "2", "--metric", "hs"],
        ["indicator", "--n", "2", "--metric", "bkm", "--method", "quad"],
        ["indicator", "--n", "2", "--metric", "hs", "--method", "mc", "--samples", "500"],
        ["average"],
    ]
    described = SCHEMA["$defs"]["result_fields"]["properties"]["meta"]["properties"]
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        for result in payload.get("results", [payload]):
            assert set(result["meta"]) <= set(described), argv


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
        assert "a three-level moduli point needs the angle zeta" in err

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
        "argv", [["indicator", "--n", "2", "--metric", "hs", "--method", "mc"], ["sample", "--metric", "hs"]],
        ids=["indicator", "sample"],
    )
    def test_mcmc_sampler_is_usage_error(self, capsys, argv):
        # no command takes a sampler
        code, out, err = run_cli(capsys, *argv, "--sampler", "mcmc")
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --sampler mcmc" in err

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
            pytest.param(["average", "--metric", "bures"], "--rel-tol", "nan", id="average-rel-tol-nan"),
        ],
    )
    def test_non_finite_tolerance_is_usage_error(self, capsys, argv, flag, value):
        code, out, err = run_cli(capsys, *argv, flag, value)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite and positive" in err

    def test_unreachable_tolerance_is_numerical_failure(self, capsys):
        code, _, err = run_cli(
            capsys, "indicator", "--n", "2", "--metric", "bkm", "--method", "quad", "--rel-tol", "1e-16"
        )
        assert code == 1
        assert "numerical failure" in err


class TestAverageCommand:
    def test_unreachable_tolerance_names_the_order_reached(self, capsys):
        # Bures: its sector rule runs before the full volume and still moves
        # by 4e-16 from order 128 to 256 (BKM's does not move at all there)
        code, out, err = run_cli(capsys, "average", "--metric", "bures", "--rel-tol", "1e-16")
        assert code == 1
        assert out == ""
        assert err.startswith("numerical failure:")
        assert "sector rule did not settle below rel_tol=1e-16 by order 256" in err
        # the number reported is the numerator integral, not the average
        integral = float(re.search(r"integral (\S+),", err).group(1))
        assert integral == pytest.approx(2.294e-5, rel=1e-3)

    def test_flat_metric_refuses_rel_tol(self, capsys):
        # the flat average is exact, so no tolerance applies to it
        code, out, err = run_cli(capsys, "average", "--metric", "hs", "--rel-tol", "1e-9")
        assert code == 2
        assert out == ""
        assert err == "error: --rel-tol does not apply to the closed-form route\n"

    def test_provenance_validates(self, capsys):
        code, out, _ = run_cli(capsys, "average", "--metric", "all")
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        hs, *curved = payload["results"]
        # the flat average is exact; the sector rule records its order and evaluations
        assert (hs["method"], hs["error"], hs["meta"]) == ("closed-form", 0.0, {"moduli_measure": "uniform"})
        for result in curved:
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

    @pytest.mark.parametrize(
        "metric, fmt, route", [("hs", "json", "closed-form"), ("bures", "csv", "quadrature")]
    )
    def test_method_names_the_route_that_ran(self, capsys, metric, fmt, route):
        code, out, _ = run_cli(capsys, "minimize", "--metric", metric, "--format", fmt)
        assert code == 0
        if fmt == "json":
            payload = json.loads(out)
        else:
            (row,) = csv.DictReader(io.StringIO(out))
            payload = {"command": "minimize", "metric": row["metric"], "n": int(row["n"]),
                       "zeta_star": float(row["zeta_star"]), "q_star": float(row["q_star"]),
                       "method": row["method"]}
        validate(payload)
        assert payload["method"] == route

    def test_other_dimension_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "minimize", "--n", "2", "--metric", "hs")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [["indicator", "--n", "2", "--metric", "hs", "--method", "closed"],
         ["minimize", "--metric", "hs", "--method", "quadrature"]],
        ids=["indicator-closed", "minimize-method"],
    )
    def test_removed_route_flags_are_usage_errors(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""


class _Stop(Exception):
    pass


@pytest.mark.parametrize(
    "owner, runner, argv, flag",
    [
        ("cli", "average_indicator", ["average", "--metric", "bures"], "--rel-tol"),
        ("cli", "minimize_indicator", ["minimize", "--metric", "bures"], "--rel-tol"),
        ("indicators", "global_indicator", ["indicator", "--n", "2", "--metric", "bkm", "--method", "quad"],
         "--rel-tol"),
    ],
    ids=["average-rel-tol", "minimize-rel-tol", "indicator-rel-tol"],
)
def test_tolerance_flag_reaches_library(monkeypatch, owner, runner, argv, flag):
    # the flag replaces one field of QuadratureSpec() and keeps the other;
    # the runner is patched where the command looks it up
    specs = []

    def record(*args, **kwargs):
        specs.extend(a for a in args if isinstance(a, QuadratureSpec))
        raise _Stop

    monkeypatch.setattr(importlib.import_module(f"wignerq.{owner}"), runner, record)
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


RESULT_COLUMNS = ["value", "error", "metric", "n", "moduli", "method"]
CHECK_COLUMNS = ["name", "value", "target", "tolerance_kind", "tolerance", "deviation", "pass"]


def _csv_cell(value):
    """A JSON value as its CSV cell: empty for null, pass or FAIL for a
    check's verdict, a string as it is and a number to 12 digits."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    return value if isinstance(value, str) else format(value, ".12g")


@pytest.mark.parametrize(
    "argv, columns, records",
    [
        (["indicator", "--n", "2", "--metric", "bkm"], RESULT_COLUMNS, None),
        (["indicator", "--n", "3", "--metric", "bures", "--zeta", "0.4", "--method", "quad"], RESULT_COLUMNS, None),
        (["average"], RESULT_COLUMNS, "results"),
        (["minimize", "--metric", "hs"], ["metric", "n", "zeta_star", "q_star", "method"], None),
        (["reproduce-paper", "--fast"], CHECK_COLUMNS, "checks"),
    ],
    ids=["indicator-qubit", "indicator-qutrit-quad", "average", "minimize", "reproduce-paper"],
)
def test_csv_rows_are_the_json_records_in_header_order(capsys, argv, columns, records):
    # the JSON payload is one record, or holds them under ``records``
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    expected = [[_csv_cell(r[c]) for c in columns] for r in (payload[records] if records else [payload])]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    assert list(csv.reader(io.StringIO(out))) == [columns] + expected


@pytest.mark.parametrize(
    "owner, runner, argv",
    [
        ("cli", "closed_indicator", ["indicator", "--n", "2", "--metric", "hs"]),
        ("cli", "positivity_curve", ["curve"]),
        ("integrate.sampling", "sample_spectra", ["sample", "--metric", "hs"]),
    ],
    ids=["indicator", "curve", "sample"],
)
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_rejected_before_running(capsys, monkeypatch, tmp_path, owner, runner, argv, where):
    def never(*args, **kwargs):
        raise AssertionError("the command computed")

    monkeypatch.setattr(importlib.import_module(f"wignerq.{owner}"), runner, never)
    target = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code, out, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: --out") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fails_on, existed", [("open", False), ("write", False), ("write", True)])
def test_out_os_error_is_usage_error(capsys, monkeypatch, tmp_path, fails_on, existed):
    # a file the failed write created is removed; one that existed is kept
    from wignerq import cli

    target = tmp_path / "curve.csv"
    if existed:
        target.write_text("old\n")

    class Full:
        def __init__(self, path, *args, **kwargs):
            if fails_on == "open":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            self.f = open(path, *args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "open", Full, raising=False)
    code, out, err = run_cli(capsys, "curve", "--out", str(target))
    assert code == 2
    assert out == ""
    strerror = os.strerror(errno.EACCES if fails_on == "open" else errno.ENOSPC)
    assert err == f"error: cannot write --out {target}: {strerror}\n"
    assert target.exists() == existed


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

    @pytest.mark.parametrize("points", [1, 2, 3, 57, 200, 10_000])
    def test_radii_equal_linspace(self, capsys, points):
        code, out, _ = run_cli(capsys, "curve", "--points", str(points), "--format", "json")
        assert code == 0
        assert [row[0] for row in json.loads(out)["rows"]] == np.linspace(0.0, 1.0, points).tolist()

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
            capsys, "sample", "--metric", "bkm", "--n", "2", "--samples", "5", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        validate(payload)
        del payload["weights"]
        with pytest.raises(jsonschema.ValidationError):
            validate(payload)

    def test_output_equals_sampler_values(self, capsys):
        spec = McSpec(20, seed=5)
        bkm, log_w = sample_spectra(MetricKind.BKM, 3, spec, "weighted")[:2]
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

    @pytest.mark.parametrize("metric, workers", [("hs", 1), ("bkm", 1), ("bkm", 2)], ids=["hs", "bkm", "bkm-workers2"])
    def test_csv_rows_equal_json_across_a_block(self, capsys, metric, workers):
        # CSV converts the rows a block at a time; a run one block and a
        # few rows long crosses the boundary, with weights for BKM; at two
        # workers their draws also join inside the first block
        from wignerq import cli

        argv = ("sample", "--metric", metric, "--n", "2", "--samples", str(cli._CSV_BLOCK + 5), "--seed", "9",
                "--workers", str(workers))
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        expected = payload["spectra"]
        if "weights" in payload:
            expected = [row + [w] for row, w in zip(expected, payload["weights"])]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == cli._CSV_BLOCK + 6
        assert rows[1:] == [[format(v, ".12g") for v in row] for row in expected]

    def test_bkm_matrix_sampler_is_usage_error(self, capsys):
        # BKM spectra always come weighted: no flag names a sampler
        code, _, err = run_cli(
            capsys, "sample", "--metric", "bkm", "--n", "2", "--samples", "10", "--sampler", "matrix"
        )
        assert code == 2
        assert "unrecognized arguments: --sampler matrix" in err

    @pytest.mark.parametrize("n, samples", [(257, 1), (2, 5_000_001), (256, 39_063)])
    def test_caps_rejected_before_drawing(self, capsys, monkeypatch, n, samples):
        from wignerq.integrate import sampling

        def never(*args, **kwargs):
            raise AssertionError("the sampler ran")

        monkeypatch.setattr(sampling, "sample_spectra", never)
        code, out, err = run_cli(
            capsys, "sample", "--metric", "hs", "--n", str(n), "--samples", str(samples)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "capped" in err

    @pytest.mark.parametrize("n, samples", [(256, 39_062), (2, 5_000_000)])
    def test_caps_admit_the_limit(self, capsys, monkeypatch, n, samples):
        from wignerq.integrate import sampling

        calls = []

        def tiny(metric, n, spec, sampler):
            calls.append((n, spec.samples))
            return np.full((1, n), 1.0 / n), None, ()

        monkeypatch.setattr(sampling, "sample_spectra", tiny)
        code, _, _ = run_cli(capsys, "sample", "--metric", "hs", "--n", str(n), "--samples", str(samples))
        assert code == 0
        assert calls == [(n, samples)]

    @pytest.mark.parametrize("samples, code", [(3_333_334, 2), (3_333_333, 0)])
    def test_weighted_cap_counts_the_weight(self, capsys, monkeypatch, samples, code):
        # each weighted row is n spectrum values plus one weight
        from wignerq.integrate import sampling

        def tiny(metric, n, spec, sampler):
            return np.full((1, n), 1.0 / n), np.zeros(1), ()

        monkeypatch.setattr(sampling, "sample_spectra", tiny)
        result, _, err = run_cli(
            capsys, "sample", "--metric", "bkm", "--n", "2", "--samples", str(samples)
        )
        assert result == code
        assert ("capped" in err) == (code == 2)

    def test_workers_cap_admits_the_limit(self, capsys, monkeypatch):
        from wignerq.integrate import sampling

        workers = []

        def tiny(metric, n, spec, sampler):
            workers.append(spec.workers)
            return np.full((1, n), 1.0 / n), None, ()

        monkeypatch.setattr(sampling, "sample_spectra", tiny)
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
    "argv",
    [
        ["indicator", "--metric", "hs", "--n", "2", "--method", "mc"],
        ["sample", "--metric", "hs", "--n", "3"],
        ["sample", "--metric", "bkm", "--n", "3"],
    ],
    ids=["indicator", "sample-matrix", "sample"],
)
def test_pool_fallback_reaches_json_warnings(capsys, monkeypatch, argv):
    def no_pool(*args, **kwargs):
        raise OSError("process pool refused")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    code, out, _ = run_cli(capsys, *argv, "--samples", "2000", "--seed", "3", "--workers", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate(payload)
    found = payload["results"][0]["warnings"] if "results" in payload else payload["warnings"]
    assert any(re.search(r"process pool for 2 workers unavailable.*process pool refused", w) for w in found)


@pytest.mark.parametrize(
    "owner, runner, argv",
    [
        ("integrate.sampling", "sample_spectra", ["sample", "--metric", "hs"]),
        ("indicators", "global_indicator", ["indicator", "--metric", "hs", "--n", "2", "--method", "mc"]),
        ("cli", "_reproduce_checks", ["reproduce-paper", "--fast"]),
    ],
    ids=["sample", "indicator", "reproduce-paper"],
)
def test_workers_above_cap_rejected_before_running(capsys, monkeypatch, owner, runner, argv):
    def never(*args, **kwargs):
        raise AssertionError("the Monte Carlo work ran")

    monkeypatch.setattr(importlib.import_module(f"wignerq.{owner}"), runner, never)
    code, out, err = run_cli(capsys, *argv, "--workers", "257")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--workers is capped at 256" in err


@pytest.mark.parametrize(
    "owner, runner, argv",
    [
        ("indicators", "global_indicator",
         ["indicator", "--metric", "bkm", "--n", "3", "--zeta", "0.4", "--method", "mc"]),
        ("indicators", "global_indicator", ["indicator", "--metric", "hs", "--n", "2", "--method", "mc"]),
        ("cli", "_reproduce_checks", ["reproduce-paper"]),
    ],
    ids=["indicator-bkm", "indicator-hs", "reproduce-paper"],
)
def test_samples_above_cap_rejected_before_running(capsys, monkeypatch, owner, runner, argv):
    from wignerq import cli

    def never(*args, **kwargs):
        raise AssertionError("the Monte Carlo work ran")

    monkeypatch.setattr(importlib.import_module(f"wignerq.{owner}"), runner, never)
    code, out, err = run_cli(capsys, *argv, "--samples", str(cli._MC_MAX_SAMPLES + 1))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--samples is capped at 20,000,000" in err


def _source_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_python(script, *args, timeout=120):
    """Stdout of ``python -c script *args`` on this checkout's sources."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], env=_source_env(), capture_output=True, text=True,
        timeout=timeout, check=True,
    )
    return proc.stdout


@pytest.mark.parametrize(
    "argv, lines",
    [(["curve", "--points", "200000"], 1),
     (["sample", "--metric", "hs", "--n", "3", "--samples", "200000", "--format", "json"], 0)],
    ids=["curve-csv-streamed", "sample-json-whole"],
)
def test_reader_closing_stdout_ends_the_output(argv, lines):
    # as in `wignerq curve | head -1`: the streamed table is megabytes, so
    # the command is still writing when its reader goes away after one
    # line; the JSON document is one line, written whole after sampling,
    # so its reader goes away before the first byte
    proc = subprocess.Popen(
        [sys.executable, "-m", "wignerq.cli", *argv], env=_source_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    first = [proc.stdout.readline() for _ in range(lines)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""
    assert all(line.endswith(b"\n") for line in first)


#: Runs ``main`` on each argv of the JSON list in argv[2], with numpy
#: importable or not as argv[1] says, and prints [code, stdout, stderr]
#: of each.
_MAIN_SCRIPT = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from wignerq.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""

_CLOSED_FORM_INDICATORS = [
    *(["indicator", "--n", "2", "--metric", m] for m in ("hs", "bures", "bkm")),
    ["indicator", "--n", "3", "--metric", "hs", "--zeta", "pi/6"],
]
_CLOSED_FORM_COMMANDS = [
    *_CLOSED_FORM_INDICATORS, ["average", "--metric", "hs"], ["minimize", "--metric", "hs"], ["curve"],
]


def run_main(commands, numpy="importable"):
    return json.loads(run_python(_MAIN_SCRIPT, numpy, json.dumps(commands)))


def test_closed_form_commands_run_without_numpy():
    commands = [argv + ["--format", f] for argv in _CLOSED_FORM_COMMANDS for f in ("json", "csv")]
    normal = run_main(commands)
    assert all(code == 0 and out and not err for code, out, err in normal)
    assert run_main(commands, numpy="blocked") == normal


_QUAD_INDICATOR = ["indicator", "--n", "3", "--metric", "bures", "--zeta", "0.4", "--method", "quad"]
_MC_INDICATOR = ["indicator", "--n", "2", "--metric", "hs", "--method", "mc"]
#: (argv, route): the route that runs and does not read the flag, or None
#: where the command reads it.
_QUAD_FLAG_COMMANDS = [
    *((argv, "closed-form") for argv in _CLOSED_FORM_INDICATORS),
    (_QUAD_INDICATOR, None),
    (_MC_INDICATOR, "monte-carlo"),
    (["average"], None),
    (["average", "--metric", "hs"], "closed-form"),
    (["minimize", "--metric", "hs"], "closed-form"),
    (["minimize", "--metric", "bures"], None),
]
_MC_FLAG_COMMANDS = [
    *((argv, "closed-form") for argv in _CLOSED_FORM_INDICATORS),
    (_QUAD_INDICATOR, "quadrature"),
    (_MC_INDICATOR, None),
    (["sample", "--metric", "hs"], None),
    (["reproduce-paper", "--fast"], None),
]


@pytest.mark.parametrize(
    "flag, value, message, commands",
    [
        ("--rel-tol", "-1", "quadrature tolerances must be finite and positive", _QUAD_FLAG_COMMANDS),
        ("--samples", "0", "samples must be at least 1", _MC_FLAG_COMMANDS),
        ("--seed", "-1", "seed must be a non-negative integer", _MC_FLAG_COMMANDS),
        ("--workers", "999", "--workers is capped at 256", _MC_FLAG_COMMANDS),
    ],
    ids=["rel-tol", "samples", "seed", "workers"],
)
def test_flag_is_checked_by_every_command_that_takes_it(flag, value, message, commands):
    # the closed-form paths too, before any numerical engine is imported; a
    # route that would not read the flag refuses it by name
    results = run_main([argv + [flag, value] for argv, _ in commands], numpy="blocked")
    want = [message if route is None else f"{flag} does not apply to the {route} route" for _, route in commands]
    assert results == [[2, "", f"error: {m}\n"] for m in want]


@pytest.mark.parametrize(
    "argv, flag, route",
    [
        (["indicator", "--n", "2", "--metric", "bkm", "--seed", "0"], "--seed", "closed-form"),
        (_QUAD_INDICATOR + ["--work", "1"], "--workers", "quadrature"),
        (_MC_INDICATOR + ["--rel-tol", "1e-3"], "--rel-tol", "monte-carlo"),
        (["minimize", "--metric", "hs", "--rel-tol=1e-3"], "--rel-tol", "closed-form"),
    ],
    ids=["closed-form-default-seed", "quad-abbreviated-workers", "mc-rel-tol", "minimize-hs-rel-tol"],
)
def test_typed_flag_the_route_ignores_is_usage_error(argv, flag, route):
    # valid values, a default typed out and an abbreviated flag count too
    assert run_main([argv], numpy="blocked") == [[2, "", f"error: {flag} does not apply to the {route} route\n"]]


@pytest.mark.parametrize(
    "argv",
    [
        ["indicator", "--n", "2", "--metric", "hs", "--method", "mc", "--sampler", "matrix"],
        ["sample", "--metric", "hs", "--sampler", "weighted"],
        None,
    ],
    ids=["indicator", "sample", "global_indicator"],
)
def test_sampler_is_no_option(capsys, argv):
    # each job has one sampler: the indicator importance-samples, and
    # sample draws each metric's own ensemble
    if argv is None:
        with pytest.raises(TypeError, match="sampler"):
            global_indicator(MetricKind.HS, 2, spec=McSpec(samples=5), sampler="weighted")
        return
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


#: Runs ``main`` on each argv of the JSON list in argv[1] in one
#: interpreter and prints the exit codes and what the commands loaded.
_LOADED_SCRIPT = """
import contextlib, io, json, sys
import wignerq
from wignerq.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
samplers = sorted({"wignerq.integrate.sampling", "wignerq.positivity"} & set(sys.modules))
print(json.dumps({"codes": codes, "scipy": scipy, "multiprocessing": "multiprocessing" in sys.modules,
                  "samplers": samplers}))
"""

_NO_SCIPY_COMMANDS = [
    ["indicator", "--n", "2", "--metric", "bkm"],
    ["indicator", "--n", "3", "--metric", "hs", "--zeta", "pi/6"],
    ["average", "--metric", "hs"],
    ["minimize", "--metric", "hs"],
    ["curve"],
    ["sample", "--metric", "hs", "--n", "3", "--samples", "100"],
    ["indicator", "--n", "3", "--metric", "bures", "--zeta", "0.4", "--method", "quad"],
    ["average", "--metric", "bkm"],
    ["minimize", "--metric", "bures"],
    ["indicator", "--n", "2", "--metric", "bkm", "--method", "quad"],
    ["reproduce-paper", "--fast"],
]
_SAMPLER_MODULES = ["wignerq.integrate.sampling", "wignerq.positivity"]


def run_loaded(commands):
    return json.loads(run_python(_LOADED_SCRIPT, json.dumps(commands)))


def test_commands_without_integration_never_import_scipy():
    # nor, with one worker, the process pool
    expected = {"codes": [0] * len(_NO_SCIPY_COMMANDS), "scipy": [], "multiprocessing": False,
                "samplers": _SAMPLER_MODULES}
    assert run_loaded(_NO_SCIPY_COMMANDS) == expected


@pytest.mark.parametrize(
    "then, samplers", [([], []), ([_MC_INDICATOR], _SAMPLER_MODULES)], ids=["quadrature", "then-mc"]
)
def test_quadrature_commands_never_load_the_samplers(then, samplers):
    # the Monte Carlo indicator loads them when it runs
    commands = [_QUAD_INDICATOR, ["average", "--n", "3"], ["minimize", "--metric", "bures"], *then]
    run = run_loaded(commands)
    assert run["codes"] == [0] * len(commands)
    assert run["samplers"] == samplers


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
    argv = ["--n", "3", "--metric", "bkm", "--zeta", "pi/6", "--samples", "3000000"]
    out = run_python(_PEAK_RSS_SCRIPT, "indicator", "--method", "mc", *argv, timeout=300)
    code, peak_kb = map(int, out.split())
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

    def test_failed_check_is_fail_in_csv(self, capsys, monkeypatch):
        from wignerq import cli

        checks = [("near", 1.0, 1.0, "abs", 0.0), ("far", 2.0, 1.0, "rel", 0.5)]
        monkeypatch.setattr(cli, "_reproduce_checks", lambda spec: checks)
        code, out, _ = run_cli(capsys, "reproduce-paper", "--format", "csv")
        assert code == 1
        assert list(csv.reader(io.StringIO(out)))[1:] == [
            ["near", "1", "1", "abs", "0", "0", "pass"],
            ["far", "2", "1", "rel", "0.5", "1", "FAIL"],
        ]


@pytest.mark.parametrize("module", ["wignerq"])
def test_exports_resolve_once(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    for name in mod.__all__:
        getattr(mod, name)
