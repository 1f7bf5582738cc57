"""tools/bench_collect.py: medians, quartiles and pair counts over result files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_collect.py"
spec = importlib.util.spec_from_file_location("bench_collect", TOOL)
bench_collect = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_collect)


def _write(directory: Path, workload: str, seed: int, trace: int, metrics: dict, failed: int = 0) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    report = {
        "environment": {"numpy": "x"},
        "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()},
        "failures": {"op": {"count": failed}} if failed else {},
        "operations": [None] * 10,
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
    assert result["workloads"]["cli_200k"] == {"end_to_end": {}, "per_layer": {}, "failures": {}}


def test_missing_directory_exits_2(tmp_path):
    out = tmp_path / "BENCH.json"
    assert bench_collect.main(["--parent", str(tmp_path / "nope"), "--change", str(tmp_path), "--output", str(out)]) == 2
    assert not out.exists()
