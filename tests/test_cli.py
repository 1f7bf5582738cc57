"""Command-line interface: exit codes, output files, and determinism."""

import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import ratefn
from ratefn import cli
from ratefn.cli import parse_grid_spec, run
from ratefn.errors import ComputeError, InputError, RatefnError, ValidationError, check_count, check_real
from ratefn.rate import DEFAULT_TOL
from ratefn.serialize import load_cumulant_curve_csv
from conftest import strict_json

LN2 = math.log(2.0)
DATA = Path(__file__).parent / "data"


@pytest.fixture
def constant_csv(tmp_path):
    path = tmp_path / "constant.csv"
    path.write_text("sample_id,loss\ns1,0.7\ns2,0.7\ns3,0.7\n")
    return path


@pytest.fixture
def two_point_csv(tmp_path):
    path = tmp_path / "two_point.csv"
    path.write_text(f"sample_id,loss\ns1,0.0\ns2,{LN2!r}\n")
    return path


@pytest.fixture
def grouped_csv(tmp_path):
    path = tmp_path / "grouped.csv"
    path.write_text(
        "sample_id,loss,group_id\n"
        f"s1,0.0,g1\ns2,{LN2!r},g1\ns3,{LN2!r},g2\ns4,{LN2!r},g2\n"
    )
    return path


@pytest.fixture
def bern_json(tmp_path):
    path = tmp_path / "bern.json"
    path.write_text('{"values": [0.0, 1.0], "probs": [0.5, 0.5]}')
    return path


class TestGridSpec:
    def test_log(self):
        grid = parse_grid_spec("1e-3:1e3:64:log")
        assert len(grid) == 64 and grid.spacing == "log"

    def test_linear(self):
        grid = parse_grid_spec("0.5:1.5:3:linear")
        assert grid.values == (0.5, 1.0, 1.5)

    def test_rejects_malformed(self):
        for bad in ("1:2:3", "a:b:c:log", "1:2:3:cubic"):
            with pytest.raises(ValidationError):
                parse_grid_spec(bad)

    def test_defaults_come_from_the_library(self):
        parser = cli.build_parser()
        for argv in (["cumulant"], ["grid-inverse-rate", "--s", "0.1"], ["da-check"]):
            args = parser.parse_args([*argv, "--input", "x.csv"])
            assert parse_grid_spec(args.grid) == ratefn.LambdaGrid.default() == parse_grid_spec("1e-3:1e3:64:log")
        for command in ("rate", "inverse-rate"):
            assert parser.parse_args([command, "--input", "x.csv"]).tol == DEFAULT_TOL == 1e-10


class TestRateCommand:
    def test_saturated_json_to_stdout(self, constant_csv, capsys):
        assert run(["rate", "--input", str(constant_csv), "--a", "0.2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == "inf"
        assert payload["saturated"] is True
        assert payload["schema_version"] == "1"

    def test_output_file_and_summary(self, two_point_csv, tmp_path, capsys):
        out = tmp_path / "rate.json"
        assert run(["rate", "--input", str(two_point_csv), "--a", "0.2", "--output", str(out)]) == 0
        assert "rate:" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["kind"] == "rate"
        assert not payload["saturated"]

    def test_curve_csv_with_inf_literal(self, two_point_csv, tmp_path):
        out = tmp_path / "curve.csv"
        assert (
            run(
                [
                    "rate",
                    "--input",
                    str(two_point_csv),
                    "--a-grid",
                    "0.1:0.5:5:linear",
                    "--format",
                    "csv",
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        text = out.read_text()
        assert text.startswith("# columns: a,value,lambda_star,saturated")
        assert ",inf," in text

    def test_invalid_a_is_exit_2(self, two_point_csv, capsys):
        assert run(["rate", "--input", str(two_point_csv), "--a", "-0.5"]) == 2
        assert "InvalidA" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert run(["rate", "--input", str(tmp_path / "nope.csv"), "--a", "0.1"]) == 2
        assert "no such file" in capsys.readouterr().err


class TestCumulantCommand:
    def test_csv_round_trip(self, two_point_csv, tmp_path):
        out = tmp_path / "curve.csv"
        assert (
            run(
                [
                    "cumulant",
                    "--input",
                    str(two_point_csv),
                    "--grid",
                    "0.5:1.5:3:linear",
                    "--format",
                    "csv",
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        lams, js, djs = load_cumulant_curve_csv(out)
        assert lams == [0.5, 1.0, 1.5]
        from ratefn import estimate_cumulant, from_losses

        ds = from_losses([0.0, LN2])
        assert js == [estimate_cumulant(ds, lam) for lam in lams]  # bitwise round trip

    def test_curve_reload_names_the_non_numeric_line(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("# columns: lambda,j,j_deriv\nlambda,j,j_deriv\n0.5,0.1,0.2\n1.0,x,0.3\n")
        with pytest.raises(ratefn.ParseError, match=r"^line 4: expected 3 numbers, got '1.0,x,0.3'$"):
            load_cumulant_curve_csv(path)

    def test_curve_reload_rejects_non_utf8(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_bytes(b"lambda,j,j_deriv\n0.5,0.1,0.2\xff\n")
        with pytest.raises(ratefn.ParseError, match="not UTF-8 text: byte 0xff at offset 28"):
            load_cumulant_curve_csv(path)

    def test_curve_reload_checks_the_path(self, tmp_path):
        with pytest.raises(ratefn.ParseError, match="nope.csv: no such file$"):
            load_cumulant_curve_csv(tmp_path / "nope.csv")
        with pytest.raises(ratefn.ParseError, match="not a regular file$"):
            load_cumulant_curve_csv(tmp_path)

    def test_json_has_schema_version(self, two_point_csv, capsys):
        assert run(["cumulant", "--input", str(two_point_csv), "--grid", "0.5:1.5:3:linear"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == "1"
        assert payload["kind"] == "cumulant_curve"


class TestBoundCommand:
    def test_budget_value(self, two_point_csv, capsys):
        assert (
            run(
                [
                    "bound",
                    "--input",
                    str(two_point_csv),
                    "--p",
                    "10",
                    "--n",
                    "1000",
                    "--delta",
                    "0.05",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["s"] - 0.036889) < 1e-6
        assert payload["upper_bound"] <= 2 * payload["empirical_loss"]

    def test_bad_delta_is_exit_2(self, two_point_csv, capsys):
        assert run(["bound", "--input", str(two_point_csv), "--p", "1", "--n", "10", "--delta", "1.5"]) == 2
        assert "InvalidMeta" in capsys.readouterr().err


class TestInverseRateCommands:
    def test_inverse_rate(self, two_point_csv, capsys):
        assert run(["inverse-rate", "--input", str(two_point_csv), "--s", "0.05"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] <= LN2 / 2
        assert payload["b_max"] == LN2

    def test_grid_inverse_rate_dominates(self, two_point_csv, capsys):
        assert run(["grid-inverse-rate", "--input", str(two_point_csv), "--s", "0.05"]) == 0
        restricted = json.loads(capsys.readouterr().out)
        assert run(["inverse-rate", "--input", str(two_point_csv), "--s", "0.05"]) == 0
        unrestricted = json.loads(capsys.readouterr().out)
        assert restricted["value"] >= unrestricted["value"] - 1e-12


class TestAugmentAndDaCheck:
    def test_augment_writes_reduced_dataset(self, grouped_csv, tmp_path, capsys):
        out = tmp_path / "reduced.csv"
        assert run(["augment", "--input", str(grouped_csv), "--output", str(out)]) == 0
        assert "reduced to 2 groups" in capsys.readouterr().out
        text = out.read_text()
        assert text.splitlines()[0] == "sample_id,loss"
        assert len(text.splitlines()) == 3

    def test_da_check_gaps_nonnegative(self, grouped_csv, capsys):
        assert run(["da-check", "--input", str(grouped_csv), "--grid", "0.5:2.0:4:linear"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert min(payload["gaps"]) >= -1e-12
        assert payload["equal_group_sizes"] is True


class TestCompareCommands:
    def test_compare(self, constant_csv, two_point_csv, capsys):
        assert run(["compare", "--input-a", str(constant_csv), "--input-b", str(two_point_csv)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "smoother"

    def test_interpolator_check(self, two_point_csv, capsys):
        assert (
            run(
                [
                    "interpolator-check",
                    "--input-a",
                    str(two_point_csv),
                    "--input-b",
                    str(two_point_csv),
                    "--train-loss-a",
                    "0.0",
                    "--p",
                    "4",
                    "--n",
                    "100",
                    "--delta",
                    "0.1",
                    "--epsilon",
                    "0.05",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["premise_ok"] is True
        assert payload["holdout_consistent"] is True


class TestTaylorCommands:
    def test_taylor_j(self, two_point_csv, capsys):
        assert run(["taylor", "--input", str(two_point_csv), "--mode", "j", "--x", "0.01"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["approx"] - 6.0055e-6) < 1e-9

    def test_saturated_rate_has_infinite_error(self, tmp_path, capsys):
        # a = 1e-5 lies beyond the gap of 5e-161, so the exact rate is infinite
        # and so is the approximation a**2 / (2 * 2.5e-321).
        path = tmp_path / "tiny_gap.csv"
        path.write_text("sample_id,loss\ns0,0.0\ns1,1e-160\n")
        assert run(["taylor", "--input", str(path), "--mode", "rate", "--x", "1e-5"]) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["exact"] == payload["approx"] == payload["abs_error"] == "inf"

    def test_underflowing_tilt_keeps_an_infinite_approximation(self, tmp_path, capsys):
        # The variance overflows, and lam**2 = 1e-600 underflows to zero.
        path = tmp_path / "huge.csv"
        path.write_text("sample_id,loss\ns0,0.0\ns1,3e299\ns2,1e300\ns3,2.5e300\n")
        assert run(["taylor", "--input", str(path), "--mode", "j", "--x", "1e-300"]) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["approx"] == payload["abs_error"] == "inf"
        assert math.isfinite(payload["exact"])

    def test_overflowing_tilt_prints_no_warning(self, tmp_path, capsys):
        # 1e300 * 1e10 overflows in the tilt; J saturates at inf, as intended.
        path = tmp_path / "wide.csv"
        path.write_text("sample_id,loss\ns0,0.0\ns1,1e10\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["taylor", "--input", str(path), "--mode", "j", "--x", "1e300"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == ('{\n  "abs_error": "inf",\n  "approx": "inf",\n  "exact": "inf",\n  "kind": "taylor",\n'
                       '  "quantity": "lambda",\n  "schema_version": "1",\n  "x": 1e+300\n}\n')

    def test_overflowing_gradient_sum_is_refused(self, tmp_path, capsys):
        # A gradient column summing past the float64 range made the quadratic
        # form NaN, written as bare NaN tokens with exit 0.
        path = tmp_path / "grads.jsonl"
        path.write_text("".join('{"sample_id": "%s", "loss": 0.5, "grad_theta": %s}\n' % row for row in (
            ("a", "[1.7e308, 1.7e308]"), ("b", "[1.7e308, 1.7e308]"), ("c", "[-1.0, -1.0]"))))
        out = tmp_path / "out.json"
        argv = ["taylor", "--input", str(path), "--mode", "covariance", "--x", "1", "--theta-delta", "1,-1",
                "--s-budget", "0.1", "--output", str(out)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "taylor: ValidationError: the sum of the grad_theta vectors overflows float64\n"
        assert not out.exists()

    @pytest.mark.parametrize("rows, form", [
        # Each product overflows and the two cancel: the exact form is 0.
        (("[1e308, 1e308]", "[-1e308, -1e308]"), 0.0),
        # The products add up, and the exact form lies beyond the float64 range.
        (("[1e308, -1e308]", "[-1e308, 1e308]"), "inf"),
    ])
    def test_overflowing_products_print_no_warning(self, rows, form, tmp_path, capsys):
        path = tmp_path / "grads.jsonl"
        path.write_text("".join('{"sample_id": "s%d", "loss": 0.5, "grad_theta": %s}\n' % pair
                                for pair in enumerate(rows)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["taylor", "--input", str(path), "--mode", "covariance", "--x", "1",
                        "--theta-delta", "10,-10", "--s-budget", "0.1"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        payload = strict_json(out)
        assert payload["quadratic_form"] == payload["inverse_rate_approx"] == form

    def test_taylor_covariance(self, tmp_path, capsys):
        path = tmp_path / "grads.jsonl"
        path.write_text(
            '{"sample_id": "a", "loss": 0.5, "grad_theta": [1.0]}\n'
            '{"sample_id": "b", "loss": 0.5, "grad_theta": [-1.0]}\n'
        )
        assert (
            run(
                [
                    "taylor",
                    "--input",
                    str(path),
                    "--mode",
                    "covariance",
                    "--x",
                    "0.5",
                    "--theta-delta",
                    "2.0",
                    "--s-budget",
                    "0.02",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["quadratic_form"] == 4.0

    def test_grad_bound(self, tmp_path, capsys):
        path = tmp_path / "norms.csv"
        path.write_text("sample_id,loss,group_id,grad_norm_sq\ns1,0.5,,4.0\ns2,0.5,,4.0\n")
        assert run(["grad-bound", "--input", str(path), "--m-const", "1.0", "--s", "0.01"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["bound_iinv"] - 0.2) < 1e-12


class TestOracleCommands:
    def test_oracle_exact(self, bern_json, capsys):
        assert run(["oracle-exact", "--dist", str(bern_json), "--a", "0.2", "--lambda", "1.0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["exact_rate"] - 0.0822829) < 1e-6

    def test_resolution_is_no_longer_an_option(self, bern_json, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"resolution": 2048}')
        assert run(["oracle-exact", "--dist", str(bern_json), "--a", "0.2", "--config", str(config)]) == 2
        assert "unknown key 'resolution'" in capsys.readouterr().err

    def test_simulate_cramer_deterministic_bytes(self, bern_json, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        base = [
            "simulate-cramer",
            "--dist",
            str(bern_json),
            "--n",
            "20",
            "--a",
            "0.2",
            "--trials",
            "5000",
            "--seed",
            "7",
        ]
        assert run(base + ["--output", str(out_a)]) == 0
        assert run(base + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_bias_probe(self, bern_json, capsys):
        assert (
            run(
                [
                    "bias-probe",
                    "--dist",
                    str(bern_json),
                    "--n",
                    "40",
                    "--lambda",
                    "2.0",
                    "--replicates",
                    "200",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["underestimates"] is True

    def test_simulate_cramer_tilted_resolves_a_rare_tail(self, bern_json, capsys):
        # plain sampling sees no hit here; the tilted report carries its diagnostics
        argv = ["simulate-cramer", "--dist", str(bern_json), "--n", "200", "--a", "0.2", "--trials", "5000",
                "--seed", "9"]
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["hit_count"] == 0
        assert run([*argv, "--method", "tilted"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "cramer_tail"
        assert 0.0 < payload["stderr"] < 0.1 * payload["p_hat"]
        assert payload["tilt"] > 0.0 and payload["effective_sample_size"] > 0.0
        assert run([*argv, "--method", "tilted", "--format", "csv"]) == 0
        header = capsys.readouterr().out.splitlines()[1].split(",")
        assert header[-3:] == ["tilt", "stderr", "effective_sample_size"]

    def test_simulate_cramer_unknown_method_is_exit_2(self, bern_json, capsys):
        code = run(["simulate-cramer", "--dist", str(bern_json), "--n", "10", "--a", "0.2", "--trials", "10",
                    "--seed", "1", "--method", "naive"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--method" in err and "'naive'" in err
        assert "Traceback" not in err

    def test_invalid_a_domain_is_exit_2(self, bern_json, capsys):
        code = run(
            ["simulate-cramer", "--dist", str(bern_json), "--n", "10", "--a", "0.7", "--trials", "10", "--seed", "1"]
        )
        assert code == 2
        assert "InvalidA" in capsys.readouterr().err


class TestThreads:
    @pytest.mark.parametrize("argv", [
        ["rate", "--input", "{data}/a.csv", "--a", "0.1"],
        ["cumulant", "--input", "{data}/a.csv"],
        ["compare", "--input-a", "{data}/a.csv", "--input-b", "{data}/b.csv"],
        ["augment", "--input", "{data}/grouped.csv", "--output", "{tmp}/reduced.csv"],
    ])
    def test_commands_that_do_not_simulate_start_no_thread(self, argv, tmp_path, monkeypatch, capsys):
        # only the Monte Carlo estimators split their work over threads
        starts = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: starts.append(thread))
        before = threading.active_count()
        assert run([arg.format(data=DATA, tmp=tmp_path) for arg in argv]) == 0
        assert threading.active_count() == before
        assert starts == []


class TestReportFormats:
    # Each JSON-only command, with every dataset flag naming a missing file.
    JSON_ONLY = {
        "bound": ["--input", "{tmp}/nope.csv", "--p", "1", "--n", "10", "--delta", "0.1"],
        "compare": ["--input-a", "{tmp}/nope.csv", "--input-b", "{tmp}/nope.csv"],
        "interpolator-check": ["--input-a", "{tmp}/nope.csv", "--input-b", "{tmp}/nope.csv",
                               "--train-loss-a", "0.1", "--p", "1", "--n", "10", "--delta", "0.1"],
        "taylor": ["--input", "{tmp}/nope.csv", "--mode", "j", "--x", "0.1"],
        "grad-bound": ["--input", "{tmp}/nope.csv", "--m-const", "1", "--s", "0.1"],
    }

    def test_the_parser_states_each_commands_formats(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        formats = {name: next(a for a in sub._actions if a.dest == "format").choices
                   for name, sub in commands.items()}
        assert {name for name, choices in formats.items() if choices == ("json",)} == set(self.JSON_ONLY)
        assert formats["augment"] == ("csv", "jsonl")
        assert all(choices == ("csv", "json") for name, choices in formats.items()
                   if name not in self.JSON_ONLY and name != "augment")

    @pytest.mark.parametrize("command", sorted(JSON_ONLY))
    def test_csv_is_refused_before_any_input_is_read(self, command, tmp_path, capsys):
        argv = [command, *(arg.format(tmp=tmp_path) for arg in self.JSON_ONLY[command])]
        assert run([*argv, "--format", "csv"]) == 2
        err = capsys.readouterr().err
        assert f"ratefn {command}: error: argument --format: invalid choice: 'csv'" in err
        assert "nope.csv" not in err
        config = tmp_path / "config.json"
        config.write_text('{"format": "csv"}')
        assert run([*argv, "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            f"{command}: ValidationError: --config: key 'format' must be one of json, got 'csv'\n"
        )
        assert run(argv) == 2  # without the refusal, the missing input is what fails
        assert "ParseError: " in capsys.readouterr().err


class TestConfigOverride:
    def test_config_overrides_flags(self, two_point_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"a": [0.3]}')
        assert run(
            ["rate", "--input", str(two_point_csv), "--a", "0.1", "--config", str(config)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["a"] == 0.3

    def test_scalar_for_repeatable_flag(self, two_point_csv, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"a": 0.3}')
        assert run(["rate", "--input", str(two_point_csv), "--a", "0.1", "--config", str(config)]) == 0
        assert json.loads(capsys.readouterr().out)["a"] == 0.3

    @pytest.mark.parametrize(
        "overrides, key",
        [('{"tol": "x"}', "tol"), ('{"gird": "1:2:3:log"}', "gird"), ('{"format": "xml"}', "format")],
    )
    def test_bad_key_or_value_exit_2(self, two_point_csv, tmp_path, capsys, overrides, key):
        config = tmp_path / "config.json"
        config.write_text(overrides)
        assert run(["rate", "--input", str(two_point_csv), "--a", "0.1", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert "Traceback" not in err

    def test_unknown_subcommand_exit_2(self, capsys):
        assert run(["no-such-command"]) == 2


def test_overflowing_variance_prints_no_traceback(tmp_path):
    # Finite losses whose squared deviations overflow float64.
    path = tmp_path / "huge.csv"
    path.write_text("sample_id,loss\ns0,0.0\ns1,3e299\ns2,1e300\ns3,2.5e300\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "ratefn.cli", "rate", "--input", str(path), "--a", "1e299"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode in (0, 1, 2)
    assert "Traceback" not in proc.stderr


# Files for the rejected-input cases below, written into the test's directory.
BAD_INPUTS = {
    "text-value.json": '{"values": [0, "x"], "probs": [0.5, 0.5]}',
    "scalar-values.json": '{"values": 5, "probs": [1]}',
    "null-value.json": '{"values": [0, null], "probs": [0.5, 0.5]}',
    "inf-grad.jsonl": '{"sample_id": "a", "loss": 0.5, "grad_theta": [1e999999]}\n'
                      '{"sample_id": "b", "loss": 0.7, "grad_theta": [1.0]}\n',
    # Integers beyond the float range, as in the loss column.
    "huge-norm.jsonl": '{"sample_id": "a", "loss": 0.5, "grad_norm_sq": 1%s}\n' % ("0" * 400),
    "huge-grad.jsonl": '{"sample_id": "a", "loss": 0.5, "grad_theta": [-1%s]}\n' % ("0" * 400),
    "bool-norm.jsonl": '{"sample_id": "a", "loss": 0.5, "grad_norm_sq": true}\n',
}
META = ["--p", "10", "--n", "1000", "--delta", "0.05"]


class TestRejectedScalars:
    """Malformed or out-of-range arguments and input values exit 2 with a message
    naming them, never with a traceback."""

    @pytest.mark.parametrize("argv, named", [
        (["inverse-rate", "--input", "{data}/a.csv", "--s", "0.1", "--tol", "inf"], "tol"),
        (["inverse-rate", "--input", "{data}/a.csv", "--s", "0.1", "--tol", "-1"], "tol"),
        (["rate", "--input", "{data}/a.csv", "--a", "0.1", "--tol", "nan"], "tol"),
        (["bound", "--input", "{data}/a.csv", *META, "--train-loss", "nan"], "train_loss"),
        (["interpolator-check", "--input-a", "{data}/a.csv", "--input-b", "{data}/b.csv",
          "--train-loss-a", "nan", *META], "train_loss_a"),
        (["compare", "--input-a", "{data}/a.csv", "--input-b", "{data}/b.csv", "--beta", "nan"], "beta"),
        (["cumulant", "--input", "{data}/a.csv", "--grid", "0:1:4:log"], "grid start"),
        (["cumulant", "--input", "{data}/a.csv", "--grid", "1:2:-1:linear"], "grid count"),
        (["rate", "--input", "{data}/a.csv", "--a-grid", "0.1:0.2:0:log"], "grid count"),
        (["taylor", "--input", "{data}/grads.jsonl", "--mode", "covariance", "--x", "0.5",
          "--theta-delta", "a,b"], "--theta-delta"),
        (["taylor", "--input", "{data}/grads.jsonl", "--mode", "covariance", "--x", "0.5",
          "--theta-delta", "1,nan,2"], "--theta-delta"),
        (["oracle-exact", "--dist", "{tmp}/text-value.json", "--lambda", "1"], "values"),
        (["oracle-exact", "--dist", "{tmp}/scalar-values.json", "--lambda", "1"], "values"),
        (["oracle-exact", "--dist", "{tmp}/null-value.json", "--lambda", "1"], "values"),
        (["taylor", "--input", "{tmp}/inf-grad.jsonl", "--mode", "covariance", "--x", "0.5",
          "--theta-delta", "1"], "record 0 ('a'): grad_theta"),
        (["cumulant", "--input", "{data}/a.csv", "--grid", "1:2:99999999999999999999:log"], "at most 1000000"),
        (["grid-inverse-rate", "--input", "{data}/a.csv", "--s", "0.1", "--grid", "1:2:1000001:linear"],
         "at most 1000000"),
        (["da-check", "--input", "{data}/grouped.csv", "--grid", "1:2:99999999999999999999:log"],
         "at most 1000000"),
        (["grad-bound", "--input", "{tmp}/huge-norm.jsonl", "--m-const", "1", "--s", "0.1"],
         "record 0 ('a'): grad_norm_sq must be finite"),
        (["taylor", "--input", "{tmp}/huge-grad.jsonl", "--mode", "covariance", "--x", "0.5",
          "--theta-delta", "1"], "record 0 ('a'): grad_theta values must be finite"),
        (["grad-bound", "--input", "{tmp}/bool-norm.jsonl", "--m-const", "1", "--s", "0.1"],
         "ParseError: line 1: 'grad_norm_sq' must be a number, got True"),
    ])
    def test_exit_2_naming_the_argument(self, argv, named, tmp_path, capsys):
        for name, text in BAD_INPUTS.items():
            (tmp_path / name).write_text(text)
        argv = [arg.format(data=DATA, tmp=tmp_path) for arg in argv]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, argv", [
        ("losses.csv", ["rate", "--input", "{path}", "--a", "0.1"]),
        ("losses.jsonl", ["rate", "--input", "{path}", "--a", "0.1"]),
        ("law.json", ["oracle-exact", "--dist", "{path}", "--lambda", "1"]),
        ("config.json", ["rate", "--input", "{data}/a.csv", "--config", "{path}"]),
    ])
    def test_non_utf8_file_is_parse_error(self, name, argv, tmp_path, capsys):
        # Bytes 0-8 decode; byte 9 is a lone 0xff.
        path = tmp_path / name
        path.write_bytes(b"sample_id\xff,loss\n")
        argv = [arg.format(path=path, data=DATA) for arg in argv]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert f"ParseError: {'--config: ' if name == 'config.json' else ''}{path}: not UTF-8 text" in err
        assert "byte 0xff at offset 9" in err

    @pytest.mark.parametrize("argv, prefix", [
        (["rate", "--input", "{dir}", "--input-format", "csv", "--a", "0.1"], ""),
        (["compare", "--input-a", "{data}/a.csv", "--input-b", "{dir}", "--a", "0.1"], ""),
        (["oracle-exact", "--dist", "{dir}", "--lambda", "1"], ""),
        (["rate", "--input", "{data}/a.csv", "--a", "0.1", "--config", "{dir}"], "--config: "),
    ])
    def test_directory_input_is_parse_error(self, argv, prefix, tmp_path, capsys):
        argv = [arg.format(dir=tmp_path, data=DATA) for arg in argv]
        assert run(argv) == 2
        assert capsys.readouterr().err.endswith(f"ParseError: {prefix}{tmp_path}: not a regular file\n")


class TestErrorClasses:
    EXPORTED = [
        obj for obj in vars(ratefn).values()
        if isinstance(obj, type) and issubclass(obj, RatefnError) and obj not in (RatefnError, InputError, ComputeError)
    ]

    def test_each_error_is_an_input_or_a_compute_error(self):
        assert len(self.EXPORTED) == 16
        for cls in self.EXPORTED:
            assert issubclass(cls, InputError) != issubclass(cls, ComputeError), cls

    @pytest.mark.parametrize("cls", EXPORTED, ids=lambda cls: cls.__name__)
    def test_run_maps_the_class_to_its_exit_code(self, cls, monkeypatch, capsys):
        def fail(args):
            raise cls("boom")

        monkeypatch.setitem(cli._HANDLERS, "cumulant", fail)
        assert run(["cumulant", "--input", "unused.csv"]) == (2 if issubclass(cls, InputError) else 1)
        assert capsys.readouterr().err == f"cumulant: {cls.__name__}: boom\n"

    def test_check_real_messages(self):
        assert check_real("2.5", ValidationError, "x") == 2.5
        assert check_real(0, ValidationError, "x", "non-negative") == 0.0
        assert check_real(-3, ValidationError, "x", "any") == -3.0
        for value, sign, message in [
            ("y", "positive", "x must be a real number, got 'y'"),
            (None, "any", "x must be a real number, got None"),
            (0, "positive", "x must be finite and positive, got 0.0"),
            (-1, "non-negative", "x must be finite and non-negative, got -1.0"),
            (math.inf, "any", "x must be finite, got inf"),
        ]:
            with pytest.raises(ValidationError) as info:
                check_real(value, ValidationError, "x", sign)
            assert str(info.value) == message

    LAW = ratefn.DiscreteLossDistribution((0.0, 1.0), (0.5, 0.5))

    COUNT_CASES = [
        (lambda d: ratefn.cramer_tail(d, 2.5, 0.1, 100, 1), ValidationError, "n must be a positive integer, got 2.5"),
        (lambda d: ratefn.cramer_tail(d, 10, 0.1, 100.5, 1), ValidationError,
         "trials must be a positive integer, got 100.5"),
        (lambda d: ratefn.cramer_tail(d, 10, 0.1, 100, -1), ValidationError,
         "seed must be an integer of at least 0, got -1"),
        (lambda d: ratefn.cramer_tail(d, 10, 0.1, 100, 1.5), ValidationError,
         "seed must be an integer of at least 0, got 1.5"),
        (lambda d: ratefn.exact_tail(d, 2.5, 0.1), ValidationError, "n must be a positive integer, got 2.5"),
        (lambda d: ratefn.sample_dataset(d, 2.5, 1), ValidationError, "n must be a positive integer, got 2.5"),
        (lambda d: ratefn.sample_dataset(d, 10, -1), ValidationError, "seed must be an integer of at least 0, got -1"),
        (lambda d: ratefn.expand_to_dataset(d, 2.0), ValidationError,
         "denominator must be a positive integer, got 2.0"),
        (lambda d: ratefn.estimator_bias_probe(d, 2.5, 1.0, 30, 1), ValidationError,
         "n must be a positive integer, got 2.5"),
        (lambda d: ratefn.estimator_bias_probe(d, 10, 1.0, 30.5, 1), ValidationError,
         "replicates must be an integer of at least 30, got 30.5"),
        (lambda d: ratefn.estimator_bias_probe(d, 10, 1.0, 29, 1), ValidationError,
         "replicates must be an integer of at least 30, got 29"),
        (lambda d: ratefn.estimator_bias_probe(d, 10, 1.0, 30, -1), ValidationError,
         "seed must be an integer of at least 0, got -1"),
        (lambda d: ratefn.ModelMeta(True, 10, 0.1), ratefn.InvalidMeta,
         "param_count must be a positive integer, got True"),
        (lambda d: ratefn.ModelMeta(10, np.int64(0), 0.1), ratefn.InvalidMeta,
         f"train_size must be a positive integer, got {np.int64(0)!r}"),
        (lambda d: ratefn.LambdaGrid.linear(1.0, 2.0, True), ValidationError,
         "grid count must be a positive integer, got True"),
    ]

    @pytest.mark.parametrize("call, exc, message", COUNT_CASES, ids=[case[2] for case in COUNT_CASES])
    def test_integer_arguments_are_checked_in_one_place(self, call, exc, message):
        with pytest.raises(exc) as info:
            call(self.LAW)
        assert str(info.value) == message

    def test_check_count_returns_a_python_int(self):
        value = check_count(np.int64(7), ValidationError, "k")
        assert value == 7 and type(value) is int
        assert check_count(0, ValidationError, "k", minimum=0) == 0

    def test_os_error_exits_1(self, two_point_csv, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "out.json"
        assert run(["rate", "--input", str(two_point_csv), "--a", "0.1", "--output", str(out)]) == 1
        assert "FileNotFoundError" in capsys.readouterr().err
