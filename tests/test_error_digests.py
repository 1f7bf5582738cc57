"""Error-path guard: exit code and exact stderr of failing subcommands.

Each case runs one ``ratefn`` subcommand in-process that must fail cleanly,
on the fixtures in ``tests/data`` or on small files written into a temporary
directory, and compares the exit code and the whole stderr text (with the
directory names replaced by ``<tmp>`` and ``<data>``) against the values
recorded below. The recorded values pin the error class name, its message
and the exit code it maps to, so a refactor of the error handling or of the
argument checks that changes any of them fails here.

``PYTHONPATH=src python tests/test_error_digests.py`` prints fresh values.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from ratefn import from_losses, inverse_rate
from ratefn.cli import run

DATA = Path(__file__).parent / "data"
A, GROUPED, GRADS, LAW = (str(DATA / name) for name in ("a.csv", "grouped.csv", "grads.jsonl", "law.json"))

# Files written into the working directory; "{tmp}" in an argv names it.
INPUTS = {
    "text.csv": "sample_id,loss\ns0,0.5\ns1,x\n",
    "negative.csv": "sample_id,loss\ns0,0.5\ns1,-1\n",
    "header.csv": "sample_id,loss\n",
    "constant.csv": "sample_id,loss\ns0,0.7\ns1,0.7\n",
    # {0, .3, 1, 2.5} scaled by 1e-12: solves like the unscaled set.
    "tiny.csv": "sample_id,loss\ns0,0.0\ns1,3e-13\ns2,1e-12\ns3,2.5e-12\n",
    # Two minima 1e-9 apart: a deviation 1e-12 short of the gap needs a tilt past the cap.
    "near-tie.csv": "sample_id,loss\ns0,0.0\ns1,1e-9\ns2,2.0\n",
    "naive-method.json": '{"method": "naive"}',
    "csv-format.json": '{"format": "csv"}',
    # An id one character past the csv module's field size limit (131072).
    "long-id.csv": "sample_id,loss\ns0,0.5\n" + "x" * 131073 + ",0.5\n",
}

# name -> argv
CASES = {
    "parse-error": ["rate", "--input", "{tmp}/text.csv", "--a", "0.1"],
    "parse-error-missing-file": ["rate", "--input", "{tmp}/nope.csv", "--a", "0.1"],
    "parse-error-input-is-directory": ["rate", "--input", "{tmp}", "--input-format", "csv", "--a", "0.1"],
    "parse-error-field-limit": ["rate", "--input", "{tmp}/long-id.csv", "--a", "0.1"],
    "validation-error": ["rate", "--input", "{tmp}/negative.csv", "--a", "0.1"],
    "validation-error-m-const": ["grad-bound", "--input", GROUPED, "--m-const", "-1", "--s", "0.1"],
    "empty-dataset": ["cumulant", "--input", "{tmp}/header.csv"],
    "missing-group-id": ["augment", "--input", A, "--output", "{tmp}/out.csv"],
    # --output is checked before the input is read, so the missing group is not reached.
    "validation-error-augment-no-output": ["augment", "--input", A],
    "invalid-lambda-taylor": ["taylor", "--input", A, "--mode", "j", "--x", "-1"],
    "invalid-lambda-covariance": ["taylor", "--input", GRADS, "--mode", "covariance", "--x", "0",
                                  "--theta-delta", "1,2,3"],
    "invalid-lambda-grad-bound": ["grad-bound", "--input", GROUPED, "--m-const", "1", "--s", "0.1",
                                  "--lambda", "-1"],
    "invalid-lambda-oracle": ["oracle-exact", "--dist", LAW, "--lambda", "-1"],
    "invalid-lambda-bias-probe": ["bias-probe", "--dist", LAW, "--n", "10", "--lambda", "nan",
                                  "--replicates", "30", "--seed", "1"],
    "invalid-a": ["rate", "--input", A, "--a", "-0.5"],
    "invalid-a-nan": ["rate", "--input", A, "--a", "nan"],
    "invalid-a-taylor": ["taylor", "--input", A, "--mode", "rate", "--x", "0"],
    "invalid-a-oracle": ["oracle-exact", "--dist", LAW, "--a", "inf"],
    "invalid-a-cramer": ["simulate-cramer", "--dist", LAW, "--n", "10", "--a", "5", "--trials", "10",
                         "--seed", "1"],
    "unknown-method-cramer": ["simulate-cramer", "--dist", LAW, "--n", "10", "--a", "0.2", "--trials", "10",
                              "--seed", "1", "--config", "{tmp}/naive-method.json"],
    "invalid-s": ["inverse-rate", "--input", A, "--s", "0"],
    # Every budget is checked before --tol, even one sorted after a good budget.
    "invalid-s-before-tol": ["inverse-rate", "--input", A, "--s", "0.1", "--s", "inf", "--tol", "-1"],
    "invalid-s-grid": ["grid-inverse-rate", "--input", A, "--s=-inf"],
    "grid-count-too-large": ["cumulant", "--input", A, "--grid", "1:2:99999999999999999999:log"],
    "invalid-s-taylor": ["taylor", "--input", A, "--mode", "inverse-rate", "--x", "-2"],
    "invalid-s-covariance": ["taylor", "--input", GRADS, "--mode", "covariance", "--x", "0.5",
                             "--theta-delta", "1,2,3", "--s-budget", "0"],
    "invalid-s-grad-bound": ["grad-bound", "--input", GROUPED, "--m-const", "1", "--s", "inf"],
    "invalid-meta": ["bound", "--input", A, "--p", "10", "--n", "1000", "--delta", "2"],
    "missing-gradients": ["taylor", "--input", A, "--mode", "covariance", "--x", "0.5", "--theta-delta", "1"],
    "missing-grad-norms": ["grad-bound", "--input", A, "--m-const", "1", "--s", "0.1"],
    "dimension-mismatch": ["taylor", "--input", GRADS, "--mode", "covariance", "--x", "0.5",
                           "--theta-delta", "1,2"],
    "zero-variance": ["taylor", "--input", "{tmp}/constant.csv", "--mode", "rate", "--x", "0.1"],
    # bound and taylor write only json; the missing input is never read.
    "json-only-format-csv": ["bound", "--input", "{tmp}/nope.csv", "--p", "10", "--n", "1000", "--delta", "0.1",
                             "--format", "csv"],
    "json-only-config-csv": ["taylor", "--input", "{tmp}/nope.csv", "--mode", "j", "--x", "0.1",
                             "--config", "{tmp}/csv-format.json"],
    "solver-failure": ["rate", "--input", "{tmp}/near-tie.csv", "--a", "0.666666666999", "--tol", "1e-16"],
}

# name -> (exit code, stderr)
ERRORS = {
    'parse-error': (2, "rate: ParseError: line 3: field 'loss' is not a number: 'x'\n"),
    'parse-error-missing-file': (2, 'rate: ParseError: <tmp>/nope.csv: no such file\n'),
    'parse-error-input-is-directory': (2, 'rate: ParseError: <tmp>: not a regular file\n'),
    'parse-error-field-limit': (2, 'rate: ParseError: line 3: field larger than field limit (131072)\n'),
    'validation-error': (2, "rate: ValidationError: line 3: loss must be finite and non-negative, got '-1'\n"),
    'validation-error-m-const': (2, 'grad-bound: ValidationError: m_const must be finite and positive, got -1.0\n'),
    'empty-dataset': (2, 'cumulant: EmptyDataset: <tmp>/header.csv: no data rows\n'),
    'missing-group-id': (2, "augment: MissingGroupId: record 0 ('a0') has no group_id\n"),
    'validation-error-augment-no-output': (2, 'augment: ValidationError: --output: augment writes a dataset file; an output path is required\n'),
    'invalid-lambda-taylor': (2, 'taylor: InvalidLambda: tilt must be finite and positive, got -1.0\n'),
    'invalid-lambda-covariance': (2, 'taylor: InvalidLambda: tilt must be finite and positive, got 0.0\n'),
    'invalid-lambda-grad-bound': (2, 'grad-bound: InvalidLambda: tilt must be finite and positive, got -1.0\n'),
    'invalid-lambda-oracle': (2, 'oracle-exact: InvalidLambda: tilt must be finite and non-negative, got -1.0\n'),
    'invalid-lambda-bias-probe': (2, 'bias-probe: InvalidLambda: tilt must be finite and non-negative, got nan\n'),
    'invalid-a': (2, 'rate: InvalidA: deviation a must be finite and positive, got -0.5\n'),
    'invalid-a-nan': (2, 'rate: InvalidA: deviation a must be finite and positive, got nan\n'),
    'invalid-a-taylor': (2, 'taylor: InvalidA: deviation must be finite and positive, got 0.0\n'),
    'invalid-a-oracle': (2, 'oracle-exact: InvalidA: deviation a must be finite and positive, got inf\n'),
    'invalid-a-cramer': (2, 'simulate-cramer: running 10 trials of n=10 draws (seed 1)\nsimulate-cramer: InvalidA: deviation a must lie in (0, 0.875), got 5.0\n'),
    'unknown-method-cramer': (2, "simulate-cramer: ValidationError: --config: key 'method' must be one of plain, tilted, got 'naive'\n"),
    'invalid-s': (2, 'inverse-rate: InvalidS: budget s must be finite and positive, got 0.0\n'),
    'invalid-s-before-tol': (2, 'inverse-rate: InvalidS: budget s must be finite and positive, got inf\n'),
    'invalid-s-grid': (2, 'grid-inverse-rate: InvalidS: budget s must be finite and positive, got -inf\n'),
    'grid-count-too-large': (2, 'cumulant: ValidationError: grid count must be at most 1000000, got 99999999999999999999\n'),
    'invalid-s-taylor': (2, 'taylor: InvalidS: budget must be finite and positive, got -2.0\n'),
    'invalid-s-covariance': (2, 'taylor: InvalidS: budget must be finite and positive, got 0.0\n'),
    'invalid-s-grad-bound': (2, 'grad-bound: InvalidS: budget must be finite and positive, got inf\n'),
    'invalid-meta': (2, 'bound: InvalidMeta: delta must lie in (0, 1), got 2.0\n'),
    'missing-gradients': (2, 'taylor: MissingGradients: every record needs a grad_theta vector\n'),
    'missing-grad-norms': (2, 'grad-bound: MissingGradNorms: every record needs a grad_norm_sq value\n'),
    'dimension-mismatch': (2, 'taylor: DimensionMismatch: gradient vectors have length 3, displacement has 2\n'),
    'zero-variance': (2, 'taylor: ZeroVariance: rate approximation needs positive loss variance\n'),
    'json-only-format-csv': (2, "usage: ratefn bound [-h] --input INPUT [--input-format {csv,jsonl}]\n                    [--output OUTPUT] [--format {json}] [--config CONFIG] --p\n                    P --n N --delta DELTA [--epsilon EPSILON]\n                    [--train-loss TRAIN_LOSS]\nratefn bound: error: argument --format: invalid choice: 'csv' (choose from 'json')\n"),
    'json-only-config-csv': (2, "taylor: ValidationError: --config: key 'format' must be one of json, got 'csv'\n"),
    'solver-failure': (1, 'rate: SolverFailure: no tilt below 1.5e+09 reaches derivative 0.666666666999 (gap 0.666666667)\n'),
}


def case_result(name: str, workdir: Path) -> tuple[int, str]:
    """Run one case in ``workdir``; return its exit code and normalized stderr."""
    for filename, text in INPUTS.items():
        (workdir / filename).write_text(text, encoding="utf-8")
    argv = [arg.replace("{tmp}", str(workdir)) for arg in CASES[name]]
    stderr = io.StringIO()
    # argparse wraps its usage text to the terminal width, which COLUMNS fixes.
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = run(argv)
    return code, stderr.getvalue().replace(str(workdir), "<tmp>").replace(str(DATA), "<data>")


@pytest.mark.parametrize("name", sorted(CASES))
def test_error_path_unchanged(name, tmp_path):
    assert case_result(name, tmp_path) == ERRORS[name]


def test_every_case_is_recorded():
    assert set(ERRORS) == set(CASES)


def test_tiny_scale_inverse_rate_succeeds(tmp_path):
    # The solver works on normalized losses, so a 1e-12 loss scale does not make it fail.
    (tmp_path / "tiny.csv").write_text(INPUTS["tiny.csv"], encoding="utf-8")
    out = tmp_path / "out.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["inverse-rate", "--input", str(tmp_path / "tiny.csv"), "--s", "0.05", "--output", str(out)]) == 0
    result = json.loads(out.read_text())
    unscaled = inverse_rate(from_losses([0.0, 0.3, 1.0, 2.5]), 0.05)
    assert result["saturated"] is False
    assert result["b_max"] == math.log(4.0)
    assert result["value"] / 1e-12 == pytest.approx(unscaled.value, rel=1e-12)
    assert result["value"] / 1e-12 == pytest.approx(0.29150, abs=5e-6)
    assert result["lambda_star"] * 1e-12 == pytest.approx(unscaled.lambda_star, rel=1e-9)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            print(f"    {case!r}: {case_result(case, Path(tmp))!r},")
