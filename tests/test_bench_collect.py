"""tools/bench_collect.py: medians, quartiles and pair counts over result files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_collect.py"
spec = importlib.util.spec_from_file_location("bench_collect", TOOL)
bench_collect = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_collect)


def _write(directory: Path, workload: str, seed: int, trace: int, metrics: dict, failed: int = 0,
           operations=None) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    report = {
        "environment": {"numpy": "x"},
        "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()},
        "failures": {"op": {"count": failed}} if failed else {},
        "operations": operations or [["op", 0.001, None, 0]] * 10,
    }
    (directory / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(report))


def test_collects_medians_quartiles_and_pairs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in enumerate([(100.0, 110.0), (102.0, 120.0), (104.0, 99.0), (106.0, 130.0)]):
        _write(parent, "solve_1e5", seed, 0, {"ops_per_s": p, "op_ms_p50": 2.0})
        _write(change, "solve_1e5", seed, 0, {"ops_per_s": c, "op_ms_p50": 2.0}, failed=seed == 3)
    _write(change, "solve_1e5", 9, 0, {"ops_per_s": 500.0})  # no parent run: not a pair
    _write(parent, "solve_1e5", 56, 1, {"rate.ns_per_loss_solve": 12.0})
    _write(change, "solve_1e5", 56, 1, {"rate.ns_per_loss_solve": 11.0})
    out = tmp_path / "BENCH.json"
    assert bench_collect.main(["--parent", str(parent), "--change", str(change), "--output", str(out)]) == 0

    result = json.loads(out.read_text())
    solve = result["workloads"]["solve_1e5"]
    ops = solve["end_to_end"]["ops_per_s"]
    assert ops["better"] == "higher"
    assert ops["parent"]["median"] == pytest.approx(103.0)
    assert (ops["parent"]["q1"], ops["parent"]["q3"]) == pytest.approx((101.5, 104.5))
    assert ops["change"]["runs"]["9"] == 500.0
    assert ops["pairs"] == {"seeds": [0, 1, 2, 3], "change_better": 3, "change_worse": 1, "ties": 0}
    assert solve["end_to_end"]["op_ms_p50"]["pairs"]["ties"] == 4
    assert solve["per_layer"]["rate.ns_per_loss_solve"]["change"]["median"] == 11.0
    assert "pairs" not in solve["per_layer"]["rate.ns_per_loss_solve"]
    assert solve["failures"]["change"]["trace0"] == {"failed": 1, "attempted": 50}
    assert result["workloads"]["cli_200k"] == {"end_to_end": {}, "per_layer": {}, "failures": {},
                                               "operation_ms_p50": {}}


def test_operation_medians_pool_the_untraced_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(3):
        # Each run holds two calls of "rate" and one of "curve"; the wall times are in seconds.
        _write(parent, "solve_1e5", seed, 0, {"op_ms_p50": 1.0},
               operations=[["rate", 0.001 * (seed + 1), None, 0], ["curve", 0.010, None, 0],
                           ["rate", 0.002 * (seed + 1), "SolverFailure: x", 0]])
        _write(change, "solve_1e5", seed, 0, {"op_ms_p50": 1.0},
               operations=[["rate", 0.0005, None, 0], ["curve", 0.010 + 0.001 * seed, None, 0]])
    _write(change, "solve_1e5", 7, 1, {"rate.solves": 3.0}, operations=[["traced", 9.0, None, 0]])
    out = tmp_path / "BENCH.json"
    assert bench_collect.main(["--parent", str(parent), "--change", str(change), "--output", str(out)]) == 0
    medians = json.loads(out.read_text())["workloads"]["solve_1e5"]["operation_ms_p50"]
    # parent "rate": 1, 2, 3 ms and 2, 4, 6 ms, so the median is 2.5 ms
    assert medians["rate"] == pytest.approx({"parent": 2.5, "change": 0.5})
    assert medians["curve"] == pytest.approx({"parent": 10.0, "change": 11.0})
    assert "traced" not in medians


def test_missing_directory_exits_2(tmp_path):
    out = tmp_path / "BENCH.json"
    assert bench_collect.main(["--parent", str(tmp_path / "nope"), "--change", str(tmp_path), "--output", str(out)]) == 2
    assert not out.exists()


def _verdict(parent_runs, change_runs, better="higher", bound=0.25):
    parent = dict(enumerate(parent_runs))
    change = dict(enumerate(change_runs))
    return bench_collect.verdict(bench_collect.spread(parent), bench_collect.spread(change),
                                 bench_collect.pairs(parent, change, better), better, bound)


def test_verdicts_on_synthetic_runs():
    steady = [100.0 + k for k in range(10)]  # median 104.5, interquartile range 4.5
    # Better in every pair and by more than the parent's spread: a gain, but only over ten pairs or more.
    assert _verdict(steady, [v + 20 for v in steady]) == "gain"
    assert _verdict(steady[:9], [v + 20 for v in steady[:9]]) == "within bound"
    # Nine wins and a tie in ten pairs suffice; eight wins and two ties do not.
    assert _verdict(steady, [v + 20 for v in steady[:9]] + [steady[9]]) == "gain"
    assert _verdict(steady, [v + 20 for v in steady[:8]] + steady[8:]) == "within bound"
    # Better in every pair, but by less than the parent's spread.
    assert _verdict(steady, [v + 1 for v in steady]) == "within bound"
    # Worse than the parent's median by more than the bound, or within it.
    assert _verdict(steady, [v * 0.7 for v in steady]) == "regression"
    assert _verdict(steady, [v * 0.8 for v in steady]) == "within bound"
    # The parent spreads wider than the bound: unresolved unless every change
    # run beats every parent run.
    wide = [40.0, 60.0, 80.0, 100.0, 120.0, 140.0, 160.0]
    assert _verdict(wide, wide[::-1]) == "unresolved"
    assert _verdict(wide, [165.0 + k for k in range(7)]) == "within bound"
    # Lower is better, with a 5% bound, as for peak RSS.
    rss = [94.0 + 0.1 * k for k in range(10)]
    assert _verdict(rss, [54.0 + 0.1 * k for k in range(10)], "lower", 0.05) == "gain"
    assert _verdict(rss, [v * 1.06 for v in rss], "lower", 0.05) == "regression"
    assert _verdict(rss, [v * 1.04 for v in rss], "lower", 0.05) == "within bound"


def test_end_to_end_rows_carry_a_verdict(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(10):
        _write(parent, "cli_200k", seed, 0, {"peak_rss_mb": 94.0 + 0.1 * seed, "ops_per_s": 1.5})
        _write(change, "cli_200k", seed, 0, {"peak_rss_mb": 54.0 + 0.1 * seed, "ops_per_s": 1.0})
        _write(parent, "cli_200k", seed, 1, {"loss_data.load_dataset.peak_mb": 40.0})
        _write(change, "cli_200k", seed, 1, {"loss_data.load_dataset.peak_mb": 10.0})
    out = tmp_path / "BENCH.json"
    assert bench_collect.main(["--parent", str(parent), "--change", str(change), "--output", str(out)]) == 0
    cli = json.loads(out.read_text())["workloads"]["cli_200k"]
    assert cli["end_to_end"]["peak_rss_mb"]["verdict"] == "gain"
    assert cli["end_to_end"]["ops_per_s"]["verdict"] == "regression"
    assert "verdict" not in cli["per_layer"]["loss_data.load_dataset.peak_mb"]
