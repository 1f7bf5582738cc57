"""Collect benchmark runs of a parent and a changed checkout into one JSON file.

    python3 tools/bench_collect.py --parent PARENT/bench/results --change bench/results \
        --parent-rev 0c9b4fa --change-rev HEAD --output BENCH_10.json

Each directory holds the ``<workload>-seed<N>-trace<0|1>.json`` files that
``bench/run.py`` writes. For every workload, and for every metric that
``BENCHMARK.json`` declares, the output gives each side's runs by seed with
their median and quartiles: the end-to-end metrics from the untraced runs
(``trace0``) and the per-layer metrics from the traced ones (``trace1``).
For the end-to-end metrics it also counts the pairs, seeds run on both
sides, in which the change is better, worse or tied, by the metric's
``better`` direction, and gives a verdict against the metric's
``BENCHMARK.json`` bound, a fraction of the parent's median:

- ``gain``: at least ten pairs, the change better in at least nine tenths
  of them (ties count for neither side), and the medians apart by more than
  the parent's interquartile range, in the better direction;
- ``regression``: the change's median worse than the parent's by more than
  the bound;
- ``unresolved``: the parent's interquartile range wider than the bound,
  and not every change run better than every parent run;
- ``within bound``: anything else.

Per-layer metrics that read zero in every run (a layer the workload never
calls) are left out. Failed operations are summed per side and workload.
``operation_ms_p50`` gives, for each operation name of a workload, each
side's median wall time in milliseconds over the operation records of all
its untraced runs, so a change in ``op_ms_p50`` can be traced to the
operations that moved.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_NAME = re.compile(r"(?P<workload>[a-z0-9_]+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def load_runs(directory: Path) -> dict:
    """``{(workload, trace): {seed: report}}`` for the result files in ``directory``."""
    runs: dict = {}
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        match = RESULT_NAME.fullmatch(path.name)
        if match is None:
            continue
        key = (match["workload"], int(match["trace"]))
        runs.setdefault(key, {})[int(match["seed"])] = json.loads(path.read_text())
    return runs


def spread(by_seed: dict) -> dict:
    """Runs by seed with their median and quartiles (inclusive method)."""
    values = list(by_seed.values())
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": {str(seed): value for seed, value in sorted(by_seed.items())},
            "median": statistics.median(values), "q1": q1, "q3": q3}


def pairs(parent: dict, change: dict, better: str) -> dict:
    """How often the change beats the parent on the seeds both sides ran."""
    seeds = sorted(set(parent) & set(change))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (change[s] - parent[s]) > 0 for s in seeds)
    losses = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    return {"seeds": seeds, "change_better": wins, "change_worse": losses, "ties": len(seeds) - wins - losses}


def verdict(parent: dict, change: dict, paired: dict, better: str, bound: float) -> str:
    """The verdict on one end-to-end metric; ``parent`` and ``change`` are
    :func:`spread` results and ``paired`` is the :func:`pairs` count."""
    sign = 1.0 if better == "higher" else -1.0
    gap = sign * (change["median"] - parent["median"])  # > 0: the change is better
    iqr = parent["q3"] - parent["q1"]
    runs = len(paired["seeds"])
    if runs >= 10 and paired["change_better"] >= 0.9 * runs and gap > iqr:
        return "gain"
    allowed = bound * abs(parent["median"])
    if -gap > allowed:
        return "regression"
    worst_change = min(sign * v for v in change["runs"].values())
    best_parent = max(sign * v for v in parent["runs"].values())
    if iqr > allowed and not worst_change > best_parent:
        return "unresolved"
    return "within bound"


def metric_values(reports: dict, name: str) -> dict:
    return {seed: report["metrics"][name]["value"] for seed, report in reports.items() if name in report["metrics"]}


def failures(reports: dict) -> dict:
    failed = sum(entry["count"] for report in reports.values() for entry in report["failures"].values())
    attempted = sum(len(report["operations"]) for report in reports.values())
    return {"failed": failed, "attempted": attempted}


def operation_medians(reports: dict) -> dict:
    """``{name: median wall ms}`` over the operation records of ``reports``."""
    walls: dict = {}
    for report in reports.values():
        for name, wall_s, *_ in report["operations"]:
            walls.setdefault(name, []).append(wall_s)
    return {name: statistics.median(values) * 1e3 for name, values in walls.items()}


def collect(parent_runs: dict, change_runs: dict, declared: dict) -> dict:
    workloads = {}
    for workload in (w["name"] for w in declared["workloads"]):
        entry: dict = {"end_to_end": {}, "per_layer": {}, "failures": {}, "operation_ms_p50": {}}
        for trace, section, metrics in ((0, "end_to_end", declared["end_to_end"]),
                                        (1, "per_layer", declared["per_layer"])):
            sides = {"parent": parent_runs.get((workload, trace), {}), "change": change_runs.get((workload, trace), {})}
            for side, reports in sides.items():
                if reports:
                    entry["failures"].setdefault(side, {})[f"trace{trace}"] = failures(reports)
                if reports and trace == 0:
                    for name, ms in operation_medians(reports).items():
                        entry["operation_ms_p50"].setdefault(name, {})[side] = ms
            for metric in metrics:
                values = {side: metric_values(reports, metric["name"]) for side, reports in sides.items()}
                if trace == 1 and not any(v for side in values.values() for v in side.values()):
                    continue  # a layer the workload never calls
                row = {"unit": metric["unit"], "better": metric["better"]}
                row.update({side: spread(v) for side, v in values.items() if v})
                if trace == 0 and values["parent"] and values["change"]:
                    row["pairs"] = pairs(values["parent"], values["change"], metric["better"])
                    row["verdict"] = verdict(row["parent"], row["change"], row["pairs"], metric["better"],
                                             metric["bound"])
                if len(row) > 2:
                    entry[section][metric["name"]] = row
        workloads[workload] = entry
    return workloads


def environment(runs: dict) -> dict | None:
    for reports in runs.values():
        for report in reports.values():
            return report["environment"]
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="results directory of the parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT / "bench" / "results",
                        help="results directory of the changed checkout (default: bench/results)")
    parser.add_argument("--parent-rev", default=None, help="revision the parent runs were made on")
    parser.add_argument("--change-rev", default=None, help="revision the change runs were made on")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    for directory in (args.parent, args.change):
        if not directory.is_dir():
            print(f"bench_collect: no results directory {directory}", file=sys.stderr)
            return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    result = {
        "parent": {"rev": args.parent_rev, "environment": environment(parent_runs)},
        "change": {"rev": args.change_rev, "environment": environment(change_runs)},
        "workloads": collect(parent_runs, change_runs, declared),
    }
    args.output.write_text(json.dumps(result, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
