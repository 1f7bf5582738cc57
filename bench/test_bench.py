"""Self-tests of the benchmark: its checks, its generator and a smoke pass.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import ratefn as rf  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


# ---------------------------------------------------------------------------
# Each output check rejects a deliberately corrupted result
# ---------------------------------------------------------------------------


def test_curve_rejects_negative_j_and_derivative_outside_gap():
    checks.curve([0.0, 0.1], [0.0, 0.5], gap=0.5)
    with pytest.raises(CheckFailed):
        checks.curve([0.0, -1e-9], [0.0, 0.1], gap=0.5)
    with pytest.raises(CheckFailed):
        checks.curve([0.0, 0.1], [0.0, 0.5 + 1e-12], gap=0.5)
    with pytest.raises(CheckFailed):
        checks.curve([0.0], [-1e-300], gap=0.5)


def test_round_trip_rejects_an_error_of_1e_3():
    checks.round_trip(0.01, 0.01 * (1 + 1e-9))
    with pytest.raises(CheckFailed):
        checks.round_trip(0.01, 0.01 * (1 + 1e-3))
    with pytest.raises(CheckFailed):
        checks.round_trip(0.01, float("nan"))


def test_bound_rejects_values_outside_mean_to_twice_mean():
    checks.bound(1.5, 1.0)
    for upper in (0.999, 2.001, float("inf")):
        with pytest.raises(CheckFailed):
            checks.bound(upper, 1.0)


def test_digest_rejects_a_flipped_byte():
    store = {}
    data = b"payload of one seeded report"
    checks.digest(store, "key", data)
    checks.digest(store, "key", data)
    flipped = bytes([data[0] ^ 1]) + data[1:]
    with pytest.raises(CheckFailed):
        checks.digest(store, "key", flipped)


def test_da_gaps_and_scale_comparison_reject_corruption():
    checks.da_gaps([0.0, 1e-3, -1e-13])
    with pytest.raises(CheckFailed):
        checks.da_gaps([0.0, -1e-9])
    checks.close(1.0 + 1e-7, 1.0, checks.SCALE_REL, "scaled rate")
    with pytest.raises(CheckFailed):
        checks.close(1.01, 1.0, checks.SCALE_REL, "scaled rate")


def _cli_checker() -> workloads.CliWorkload:
    """A CLI workload with known statistics, without writing its 2e5-row files."""
    cli = workloads.CliWorkload.__new__(workloads.CliWorkload)
    cli.stats_a = workloads.Stats.of(np.array([0.0, 1.0, 2.0, 3.0]))
    cli.group_means = {"g0": 0.5, "g1": 2.5}
    return cli


def test_cli_output_checks_reject_corrupted_files():
    cli = _cli_checker()
    rows = "".join(f"{lam},{0.1 * k},{0.02 * k}\n" for k, lam in enumerate(np.geomspace(1e-3, 1e3, 64)))
    cli._check_cumulant("# columns: lambda,j,j_deriv\nlambda,j,j_deriv\n" + rows)
    with pytest.raises(CheckFailed):
        cli._check_cumulant("lambda,j,j_deriv\n" + rows.replace(",0.1,", ",-0.1,", 1))
    cli._check_augment("sample_id,loss\ng0,0.5\ng1,2.5\n")
    with pytest.raises(CheckFailed):
        cli._check_augment("sample_id,loss\ng0,0.5\ng1,2.5000000000000004\n")
    cli._check_bound(json.dumps({"used_dataset_mean": True, "empirical_loss": 1.5, "upper_bound": 2.0}))
    with pytest.raises(CheckFailed):
        cli._check_bound(json.dumps({"used_dataset_mean": True, "empirical_loss": 1.5, "upper_bound": 3.5}))


def test_cramer_check_rejects_a_tail_below_the_chernoff_bound():
    oracle = workloads.OracleWorkload(0, ROOT)
    good = rf.cramer_tail(oracle.dist, oracle.N, oracle.cramer_a[0], 20_000, 3)
    oracle._check_cramer(good)
    oracle.digests.clear()
    bad = rf.CramerReport(**{**good.__dict__, "neg_log_rate": good.exact_rate / 2})
    with pytest.raises(CheckFailed):
        oracle._check_cramer(bad)


# ---------------------------------------------------------------------------
# The generator is reproducible for a given seed
# ---------------------------------------------------------------------------


def test_cli_inputs_are_byte_identical_for_a_seed_and_differ_across_seeds(tmp_path):
    first, second, other = (tmp_path / name for name in ("first", "second", "other"))
    for directory, seed in ((first, 7), (second, 7), (other, 8)):
        directory.mkdir()
        gen.write_cli_inputs(seed, directory)
    for name in ("model_a.csv", "model_b.csv", "grouped.jsonl"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
        assert (first / name).read_bytes() != (other / name).read_bytes()


def test_in_memory_inputs_repeat_for_a_seed():
    for make in (gen.solve_arrays, gen.discrete_law, gen.small_sets):
        a, b, c = make(3), make(3), make(4)
        assert repr(a) == repr(b) and repr(a) != repr(c)


def test_written_losses_load_through_ratefn(tmp_path):
    losses = gen.rng(0, 0).exponential(1.0, 50)
    gen.write_csv(tmp_path / "x.csv", losses)
    gen.write_jsonl(tmp_path / "x.jsonl", losses, [f"g{i // 5}" for i in range(50)])
    for name in ("x.csv", "x.jsonl"):
        assert np.array_equal(rf.load_dataset(tmp_path / name).losses, losses)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer("t")
    tracer.spans.extend([
        ["rate.rate", 0.0, 10.0, -1],
        ["loss_data.summarize", 1.0, 3.0, 0],
        ["loss_data.summarize", 4.0, 5.0, 0],
    ])
    table = tracer.per_function()
    assert table["rate.rate"] == (1, 10.0, 7.0)
    assert table["loss_data.summarize"] == (2, 3.0, 3.0)
    assert tracer.root_time() == 10.0


def test_install_wraps_names_imported_by_name_and_uninstall_restores_them():
    original = rf.inverse_rate
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        assert sys.modules["ratefn.analysis"].inverse_rate is not original
        assert rf.inverse_rate is sys.modules["ratefn.analysis"].inverse_rate
        tracer.active = True
        rf.generalization_bound(rf.from_losses([0.1, 0.5, 0.9, 1.4]), rf.ModelMeta(3, 100, 0.1))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert sys.modules["ratefn.analysis"].inverse_rate is original and rf.inverse_rate is original
    names = [span[0] for span in tracer.spans]
    assert names[0] == "loss_data.from_losses" and "rate.inverse_rate" in names
    bound = names.index("analysis.generalization_bound")
    assert all(span[3] >= bound for span in tracer.spans[bound + 1:])
    assert tracer.counts["solves"] == 1


def test_launched_children_report_their_own_peak_rss():
    ballast = b"x" * (100 * 2**20)  # resident in this process, which starts the launcher
    launcher = subprocess.Popen([sys.executable, str(workloads.LAUNCHER)], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
    try:
        launcher.stdin.write(json.dumps({"argv": [sys.executable, "-c", "pass"], "log": os.devnull}) + "\n")
        launcher.stdin.flush()
        reply = json.loads(launcher.stdout.readline())
    finally:
        launcher.stdin.close()
        launcher.wait(timeout=60)
        launcher.stdout.close()
    assert reply["rc"] == 0 and 0 < reply["maxrss_kb"] < 60 * 1024 and len(ballast) > 0


# ---------------------------------------------------------------------------
# Smoke pass: every workload through run.py
# ---------------------------------------------------------------------------


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload", ["cli_200k", "solve_1e5", "small_many", "oracle_mc"])
def test_smoke_pass_finishes_with_only_known_failures(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run(["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = json.loads((BENCH / "results" / f"{workload}-seed0-trace0.json").read_text())
    failed = {op[0] for op in report["operations"] if op[2] is not None}
    if workload == "solve_1e5":
        assert failed and all(any(f"x{c:g} " in name for c in workloads.KNOWN_DEFECT_SCALES) for name in failed)
    else:
        assert not failed


def test_traced_smoke_pass_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run(["--workload", "small_many", "--seed", "0", "--seconds", "1", "--trace", "1"])
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert [m["name"] for m in spec["per_layer"]] == list(result["metrics"])
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])
    assert result["metrics"]["loss_data.load_dataset.calls"]["value"] > 0


def test_without_sources_the_benchmark_exits_non_zero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(["--workload", "oracle_mc", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""
