"""Benchmark for ratefn: four seeded closed-loop workloads, one client each.

    python3 bench/run.py --workload solve_1e5 --seed 1 --seconds 15 --trace 0
    python3 -m pytest bench -q          # the benchmark's self-tests

Workloads (``workloads.py`` says why each exists):

- ``cli_200k``: one ``ratefn`` process per operation on 2e5-row files;
- ``solve_1e5``: rate, inverse-rate, curve and analysis calls on 1e5 losses;
- ``small_many``: the augmentation pipeline on hundreds of small datasets;
- ``oracle_mc``: closed-form oracles and Monte Carlo tails.

With ``--trace 0`` the run times its set-up in batches, runs ``--seconds``
divided by the workload's nominal round time whole rounds of operations (and
at least eleven operations), and reports, with tracing off:

- ``setup_s``: the median over at least three batches of set-ups, each
  batch at least half a second of them, of a batch's time per set-up;
- ``ops_per_s``: operations that succeeded per second of operation wall time;
- ``op_ms_p50``: median wall time of one operation (failed ones included);
- ``op_ms_tail``: the highest whole percentile, at most p90, that has at
  least ten operations beyond it (the percentile and count are printed);
- ``peak_rss_mb``: peak RSS of the ``ratefn`` children (cli_200k) or of
  this process, which ran the operations.

With ``--trace 1`` each of a fixed number of rounds (each command, for
cli_200k) runs once untraced and once with spans around every public ratefn
function, and the per-layer metrics come from the spans, so their counts
repeat exactly for a seed. Three ratios are printed as diagnostics but kept
out of the result, because neither a higher nor a lower value is better:
the tracing overhead, the share of the untraced wall time the self times
cover, and the share of rate solves that saturated.

Every metric is printed by name with its unit; the last stdout line is the
JSON result. ``failed`` counts every failed operation; ``correct`` is false
when any failure is not a known defect (``workloads.KNOWN_DEFECT_SCALES``).
``bench/results/`` keeps each run's environment, per-operation records,
output digests and, when traced, spans.

ratefn is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

# One client on a shared machine: keep BLAS to one thread (<= nproc) in this
# process and in every ratefn child, before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# numpy asks the kernel for transparent huge pages for arrays of 4 MiB and
# more. Whether it gets them depends on the host's free memory, which moved
# oracle_mc's peak RSS between about 80 and 90 MB from run to run; so the
# request is off here and in the ratefn children.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import numpy as np  # noqa: E402

from spans import SPAN_NAMES, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# Set-up is timed in at least this many batches, and until this many seconds
# have passed. A batch repeats the set-up until the repeats have taken
# SETUP_BATCH_S, so a sub-millisecond set-up is timed over a window that spans
# the sub-second slow and fast phases of a shared host; a median over single
# repeats of it jumped between those phases.
SETUP_BATCHES = 3
SETUP_MIN_S = 3.0
SETUP_BATCH_S = 0.5
TAIL_BEYOND = 10  # operations beyond the tail percentile
IMPORT_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_NAMES:
        units.update({f"{name}.calls": "count", f"{name}.total_s": "s", f"{name}.self_s": "s"})
    units.update({
        "loss_data.rows": "count",
        "loss_data.bytes_read": "B",
        "loss_data.bytes_written": "B",
        "loss_data.load_dataset.ns_per_row": "ns/row",
        "loss_data.load_dataset.peak_mb": "MB",
        "cumulant.cumulant_curve.ns_per_loss_tilt": "ns",
        "rate.solves": "count",
        "rate.ns_per_loss_solve": "ns",
        "oracle.draws": "count",
        "oracle.draws_per_s": "1/s",
        "serialize.bytes": "B",
        "cli.import_s": "s",
        "cli.process_overhead_s": "s",
    })
    return units


DIAGNOSTICS = {
    "trace.ops_per_s_ratio": "ratio",
    "trace.self_cover_ratio": "ratio",
    "rate.saturated_share": "share",
}


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at most 90, with ``TAIL_BEYOND`` of the ``n``
    operations beyond it; a timed run has more than that many."""
    return min(90, 100 * (n - TAIL_BEYOND) // n)


def _size_bytes(size: str) -> int:
    """A sysfs cache size such as ``107520K`` in bytes."""
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    levels = [(int((c / "level").read_text()), (c / "size").read_text().strip()) for c in caches]
    llc = max(levels)[1] if levels else "0K"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc": llc,
        "llc_bytes": _size_bytes(llc),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
    }


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records, setup_times, rss_mb) -> tuple[dict, dict]:
    walls = [r.wall_s for r in records]
    ok = sum(r.error is None for r in records)
    pct = tail_percentile(len(walls))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok / sum(walls),
        "op_ms_p50": float(np.percentile(walls, 50)) * 1e3,
        "op_ms_tail": float(np.percentile(walls, pct)) * 1e3,
        "peak_rss_mb": rss_mb,
    }
    notes = {"tail_percentile": pct, "operations": len(walls), "setup_batches": len(setup_times)}
    return metrics, notes


def load_peak_mb(load_dataset, paths) -> float:
    """tracemalloc peak of one ``load_dataset`` call per file the traced run loaded."""
    peak = 0
    for path in sorted(p for p in paths if os.path.exists(p)):
        tracemalloc.start()
        try:
            load_dataset(path)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def import_seconds(env) -> float:
    code = "import time; t = time.perf_counter(); import ratefn.cli; print(repr(time.perf_counter() - t))"
    times = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True).stdout)
        for _ in range(IMPORT_REPEATS)
    ]
    return statistics.median(times)


def per_layer(tracer, untraced, traced, extra) -> dict:
    table = tracer.per_function()
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for name, (calls, total, own) in table.items():
        metrics.update({f"{name}.calls": calls, f"{name}.total_s": total, f"{name}.self_s": own})
    solve_s = sum(table[f"rate.{fn}"][1] for fn in ("rate", "inverse_rate", "rate_curve"))
    draw_s = table["oracle.cramer_tail"][1] + table["oracle.estimator_bias_probe"][1]
    untraced_s = sum(r.wall_s for r in untraced)
    metrics.update({
        "loss_data.rows": counts["rows"],
        "loss_data.bytes_read": counts["bytes_read"],
        "loss_data.bytes_written": counts["bytes_written"],
        "loss_data.load_dataset.ns_per_row": ratio(table["loss_data.load_dataset"][1], counts["load_rows"]) * 1e9,
        "cumulant.cumulant_curve.ns_per_loss_tilt":
            ratio(table["cumulant.cumulant_curve"][1], counts["loss_tilts"]) * 1e9,
        "rate.solves": counts["solves"],
        "rate.saturated_share": ratio(counts["saturated"], counts["solves"]),
        "rate.ns_per_loss_solve": ratio(solve_s, counts["loss_solves"]) * 1e9,
        "oracle.draws": counts["draws"],
        "oracle.draws_per_s": ratio(counts["draws"], draw_s),
        "serialize.bytes": counts["serialize_bytes"],
        "cli.import_s": 0.0,
        "cli.process_overhead_s": 0.0,
        # traced ops_per_s / untraced ops_per_s over the same operations
        "trace.ops_per_s_ratio": ratio(untraced_s, sum(r.wall_s for r in traced)),
        # all self times together against the untraced operation wall time
        "trace.self_cover_ratio": ratio(tracer.root_time(), untraced_s),
    })
    metrics.update(extra)
    return metrics


def timed_run(cls, seed, seconds, workdir):
    import workloads

    setup_times = []
    workload = None
    begin = time.perf_counter()
    while len(setup_times) < SETUP_BATCHES or time.perf_counter() - begin < SETUP_MIN_S:
        spent, count = 0.0, 0
        while count == 0 or spent < SETUP_BATCH_S:
            workload = None  # release the previous set-up outside the timing
            start = time.perf_counter()
            workload = cls(seed, workdir)
            spent += time.perf_counter() - start
            count += 1
        setup_times.append(spent / count)
    workload.prepare_checks()
    # Enough whole rounds for the tail: cli_200k's rounds hold eight operations.
    rounds = max(round(seconds / cls.round_s), -(-(TAIL_BEYOND + 1) // len(workload.ops(0))))
    try:
        records = workloads.run_rounds(workload, rounds)
    finally:
        workload.close()
    if cls is workloads.CliWorkload:
        rss_mb = max(r.child_rss_kb for r in records) / 1024.0
    else:
        rss_mb = peak_rss_self_mb()
    metrics, notes = end_to_end(records, setup_times, rss_mb)
    return records, metrics, notes, {"digests": getattr(workload, "digests", {})}


def traced_run(cls, seed, workdir, run_id):
    """Each operation runs untraced and traced back to back, alternating which
    goes first, so drift on a shared machine falls on both sides alike. The
    untraced runs pass through the installed wrappers while they are inactive.
    For cli_200k each command first runs as a ratefn process."""
    import ratefn
    import workloads

    workload = cls(seed, workdir)
    workload.prepare_checks()
    tracer = Tracer(run_id)
    cli = cls is workloads.CliWorkload
    if cli:
        pairs = list(zip(workload.ops(0), workload.replay_ops()))
    else:
        pairs = [(None, op) for r in range(cls.trace_rounds) for op in workload.ops(r)]
    children, untraced, traced = [], [], []
    tracer.install()
    try:
        for i, (child, op) in enumerate(pairs):
            if child is not None:
                children.append(workloads.execute(child))
            sides = [(untraced, None), (traced, tracer)]
            for records, active in sides if i % 2 == 0 else sides[::-1]:
                records.append(workloads.execute(op, active))
    finally:
        tracer.uninstall()
        workload.close()
    extra = {}
    if cli:
        extra["cli.import_s"] = import_seconds(workload.env)
        extra["cli.process_overhead_s"] = (
            sum(r.wall_s for r in children) - sum(r.wall_s for r in untraced)) / len(untraced)
    extra["loss_data.load_dataset.peak_mb"] = load_peak_mb(ratefn.load_dataset, tracer.load_paths)
    metrics = per_layer(tracer, untraced, traced, extra)
    notes = {"traced_operations": len(traced), "untraced_operations": len(untraced),
             # spans against the wall time of the same traced operations: what the spans miss
             "spans_cover_traced_wall": tracer.root_time() / sum(r.wall_s for r in traced)}
    if abs(metrics["trace.self_cover_ratio"] - 1.0) > 0.1:
        notes["self_cover_gap"] = ("self times and untraced wall time differ by more than 10%: the untraced and"
                                   " traced runs met different load on a shared machine, while the spans"
                                   " cover the traced wall time as spans_cover_traced_wall shows")
    return children + untraced + traced, metrics, notes, {
        "digests": getattr(workload, "digests", {}), "trace": tracer.dump()}


def summarize_failures(records) -> dict:
    failures: dict = {}
    for r in records:
        if r.error is not None:
            entry = failures.setdefault(r.name, {"count": 0, "known_defect": r.known_defect, "first": r.error})
            entry["count"] += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli_200k", "solve_1e5", "small_many", "oracle_mc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "ratefn" / "__init__.py").is_file():
        print(f"bench: ratefn sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import ratefn
    import workloads

    if Path(ratefn.__file__).resolve().parent != SRC / "ratefn":
        print(f"bench: imported ratefn from {ratefn.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    cls = workloads.WORKLOADS[args.workload]
    run_id = f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}-{time.time_ns()}"
    workdir = BENCH / ".work" / run_id
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            records, metrics, notes, extra = traced_run(cls, args.seed, workdir, run_id)
            units = per_layer_units()
        else:
            records, metrics, notes, extra = timed_run(cls, args.seed, args.seconds, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    env = environment()
    failures = summarize_failures(records)
    failed = sum(f["count"] for f in failures.values())
    correct = all(f["known_defect"] for f in failures.values())
    exp_pass_bytes = cls.exp_pass_losses * 8

    print(f"# {args.workload} seed={args.seed} trace={args.trace} run_id={run_id}")
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    fits = exp_pass_bytes <= env["llc_bytes"]
    print(f"# computed bytes per exp pass (M*8, computed, not measured): {exp_pass_bytes} B for M={cls.exp_pass_losses};"
          f" the LLC is {env['llc']}, so " + ("a pass fits in it and kernel timings measure compute, not memory"
                                            " bandwidth" if fits else "a pass does not fit in it"))
    print("# " + ", ".join(f"{k}={v}" for k, v in notes.items()))
    print(f"# failed_ops_share {failed / len(records):.6g} ({failed} of {len(records)} operations)")
    for name, entry in failures.items():
        kind = "known defect" if entry["known_defect"] else "UNEXPECTED"
        print(f"#   {kind}: {name} x{entry['count']}: {entry['first'][:160]}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    diagnostics = {name: {"value": metrics[name], "unit": unit} for name, unit in DIAGNOSTICS.items()
                   if name in metrics}
    for name, entry in diagnostics.items():
        print(f"# diagnostic, not compared: {name} {entry['value']!r} {entry['unit']}")

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "run_id": run_id,
        "environment": env, "exp_pass_bytes_computed": exp_pass_bytes, "notes": notes,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "diagnostics": diagnostics,
        "failures": failures,
        "operations": [[r.name, r.wall_s, r.error, r.child_rss_kb] for r in records],
        "digests": {str(k): v for k, v in extra["digests"].items()},
    }
    if "trace" in extra:
        report["trace"] = extra["trace"]
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report))

    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
