"""The four benchmark workloads and the closed loop that runs them.

Each workload is one client in a closed loop: the next operation starts when
the previous one returns. A workload is built by its constructor (the timed
set-up) and yields its operations one round at a time. A run executes a
fixed number of whole rounds, ``--seconds`` divided by the workload's nominal
round time but enough for eleven operations, so a run measures the same
operations whatever the host's speed and its tail percentile never moves.
Every operation is checked after it returns, outside its timing; an
operation fails when it raises, exits non-zero, or fails its check.

Operations call ratefn through module attributes at call time, so that a
tracer installed after set-up sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import ratefn as rf
import ratefn.cli  # noqa: F401  (registers the module the CLI replay calls)

import checks
import gen
from checks import CheckFailed, close, require

# ROADMAP item 3: at these loss scales the solver's absolute tilt cap and tie
# tolerance break the scale sweep. Their failures are counted in ``failed``
# and reported; any other failure marks the run incorrect.
KNOWN_DEFECT_SCALES = (1e-12, 1e-9, 1e150)

CLI_MAIN = "import sys; from ratefn.cli import main; main()"
LAUNCHER = Path(__file__).with_name("launcher.py")


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None] | None = None
    known_defect: bool = False


@dataclass
class Record:
    name: str
    wall_s: float
    error: str | None
    known_defect: bool
    child_rss_kb: int = 0


def execute(op: Op, tracer=None) -> Record:
    if tracer is not None:
        tracer.active = True
    start = perf_counter()
    try:
        result = op.call()
        error = None
    except Exception as exc:  # a raising operation is counted as failed, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        wall = perf_counter() - start
        if tracer is not None:
            tracer.active = False
    if error is None and op.check is not None:
        try:
            op.check(result)
        except CheckFailed as exc:
            error = f"check: {exc}"
        except Exception as exc:  # the check's own library calls may raise
            error = f"check raised {type(exc).__name__}: {exc}"
    return Record(op.name, wall, error, op.known_defect, getattr(result, "rss_kb", 0))


def run_rounds(workload, rounds: int) -> list[Record]:
    """Run ``rounds`` whole rounds of the workload's operations."""
    return [execute(op) for r in range(rounds) for op in workload.ops(r)]


class Workload:
    """Built by its constructor (the timed set-up); yields one round of operations at a time."""

    name = ""
    exp_pass_losses = 0  # losses in the largest single exp pass, for the computed-bytes record
    round_s = 1.0  # nominal seconds per round, which sizes a run of --seconds
    trace_rounds = 1

    def prepare_checks(self) -> None:
        """Untimed, after set-up: verify inputs and precompute what the checks compare against."""

    def close(self) -> None:
        """Stop and wait for any process the workload started."""

    def ops(self, r: int) -> list[Op]:
        raise NotImplementedError


@dataclass(frozen=True)
class Stats:
    """Mean, minimum and variance computed the way ``summarize`` defines them."""

    mean: float
    lo: float
    variance: float
    count: int
    min_count: int

    @property
    def gap(self) -> float:
        return max(self.mean - self.lo, 0.0)

    @property
    def b_max(self) -> float:
        return math.log(self.count) - math.log(self.min_count)

    @staticmethod
    def of(losses: np.ndarray) -> "Stats":
        values = losses.tolist()
        lo = min(values)
        mean = max(math.fsum(values) / len(values), lo)
        variance = math.fsum((v - mean) ** 2 for v in values) / len(values)
        return Stats(mean, lo, variance, len(values), sum(1 for v in values if v - lo <= 1e-12))


# ---------------------------------------------------------------------------
# cli_200k: one ratefn process per operation on 2e5-row files
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    rc: int
    output: Path
    log: str
    rss_kb: int = 0


class CliWorkload(Workload):
    """Sequential ``ratefn`` processes on seeded 2e5-row CSV files and one JSONL file.

    Users run the tool one process per question, so interpreter start,
    import, parsing and validation are part of every operation here.
    """

    name = "cli_200k"
    exp_pass_losses = gen.CLI_ROWS
    round_s = 18.0  # a run still makes two rounds, 16 processes, so its tail has ten beyond it

    def __init__(self, seed: int, workdir: Path):
        self.inputs = inputs = gen.write_cli_inputs(seed, workdir)
        self.out = workdir / "out"
        self.out.mkdir(exist_ok=True)
        self.digests: dict = {}
        self.env = dict(os.environ, PYTHONPATH=str(Path(rf.__file__).resolve().parent.parent))
        self._launcher = None  # started at the first operation; see launcher.py
        a, b, grouped = (str(inputs["paths"][k]) for k in ("a", "b", "grouped"))
        self.commands = [
            ("bound", ["bound", "--input", a, "--p", "10", "--n", "50000", "--delta", "0.05"],
             "bound.json", self._check_bound),
            ("rate", ["rate", "--input", a, "--a-grid", "0.1:1.2:12:linear"], "rate.json", self._check_rate),
            ("inverse-rate", ["inverse-rate", "--input", a, "--s", "0.001", "--s", "0.01", "--s", "0.1",
                              "--s", "12.5"], "inverse.json", self._check_inverse),
            ("cumulant", ["cumulant", "--input", a, "--format", "csv"], "cumulant.csv", self._check_cumulant),
            ("compare", ["compare", "--input-a", a, "--input-b", b], "compare.json", self._check_compare),
            ("da-check", ["da-check", "--input", grouped], "da.json", self._check_da),
            ("taylor", ["taylor", "--input", a, "--mode", "rate", "--x", "0.1"], "taylor.json", self._check_taylor),
            ("augment", ["augment", "--input", grouped], "reduced.csv", self._check_augment),
        ]

    def prepare_checks(self) -> None:
        gen.verify_cli_inputs(self.inputs)
        arrays = self.inputs["arrays"]
        self.stats_a = Stats.of(arrays["a"])
        self.group_means = gen.group_means(arrays["grouped"], arrays["groups"])

    def argv(self, command) -> list[str]:
        _, args, output, _ = command
        return args + ["--output", str(self.out / output)]

    def ops(self, r: int) -> list[Op]:
        return [Op(c[0], lambda c=c: self._run_child(c), self._checker(c)) for c in self.commands]

    def replay_ops(self) -> list[Op]:
        """The same commands through ``ratefn.cli.run`` inside this process."""
        return [Op(c[0], lambda c=c: self._run_in_process(c), self._checker(c)) for c in self.commands]

    def _checker(self, command):
        key, _, _, check = command

        def checked(res: CliResult) -> None:
            require(res.rc == 0, f"exit code {res.rc}: {res.log[-300:]}")
            data = res.output.read_bytes()
            checks.digest(self.digests, key, data)
            check(data.decode("utf-8"))

        return checked

    def _run_child(self, command) -> CliResult:
        output = self.out / command[2]
        output.unlink(missing_ok=True)
        log_path = self.out / f"{command[0]}.log"
        if self._launcher is None:
            self._launcher = subprocess.Popen([sys.executable, str(LAUNCHER)], stdin=subprocess.PIPE,
                                              stdout=subprocess.PIPE, text=True, env=self.env)
        request = {"argv": [sys.executable, "-c", CLI_MAIN, *self.argv(command)], "log": str(log_path)}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        return CliResult(reply["rc"], output, log_path.read_text(errors="replace"), reply["maxrss_kb"])

    def close(self) -> None:
        if self._launcher is not None:
            self._launcher.stdin.close()
            self._launcher.wait(timeout=60)
            self._launcher.stdout.close()
            self._launcher = None

    def _run_in_process(self, command) -> CliResult:
        output = self.out / command[2]
        output.unlink(missing_ok=True)
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            rc = sys.modules["ratefn.cli"].run(self.argv(command))
        return CliResult(rc, output, log.getvalue())

    def _check_bound(self, text: str) -> None:
        obj = json.loads(text)
        require(obj["used_dataset_mean"], "bound did not use the dataset mean")
        require(obj["empirical_loss"] == self.stats_a.mean,
                f"bound mean {obj['empirical_loss']!r} != {self.stats_a.mean!r}")
        checks.bound(obj["upper_bound"], obj["empirical_loss"])

    def _check_rate(self, text: str) -> None:
        evaluations = json.loads(text)["evaluations"]
        require(len(evaluations) == 12, f"{len(evaluations)} rate evaluations, expected 12")
        previous = 0.0
        for ev in evaluations:
            if ev["a"] >= self.stats_a.gap:
                require(ev["saturated"] and ev["value"] == "inf", f"a={ev['a']} beyond the gap did not saturate")
            else:
                require(not ev["saturated"] and previous <= ev["value"] < math.inf,
                        f"rate at a={ev['a']} is {ev['value']!r} after {previous!r}")
                previous = ev["value"]

    def _check_inverse(self, text: str) -> None:
        evaluations = json.loads(text)["evaluations"]
        require(len(evaluations) == 4, f"{len(evaluations)} inverse-rate evaluations, expected 4")
        for ev in evaluations:
            close(ev["b_max"], self.stats_a.b_max, 1e-12, "b_max")
            if ev["s"] >= self.stats_a.b_max:
                require(ev["saturated"] and ev["value"] == self.stats_a.gap, f"s={ev['s']} did not saturate")
            else:
                require(not ev["saturated"] and 0.0 < ev["value"] <= self.stats_a.mean,
                        f"inverse rate at s={ev['s']} is {ev['value']!r}")

    def _check_cumulant(self, text: str) -> None:
        rows = [line.split(",") for line in text.splitlines() if line and line[0].isdigit()]
        require(len(rows) == 64, f"{len(rows)} cumulant rows, expected 64")
        checks.curve([float(r[1]) for r in rows], [float(r[2]) for r in rows], self.stats_a.gap)

    def _check_compare(self, text: str) -> None:
        obj = json.loads(text)
        require(obj["verdict"] in ("smoother", "beta_smoother", "incomparable"), f"verdict {obj['verdict']!r}")
        require(obj["cumulant_dominance"] == (obj["verdict"] == "smoother"), "verdict contradicts dominance")
        require(len(obj["a_values"]) == 12, "compare tested other than 12 deviations")

    def _check_da(self, text: str) -> None:
        obj = json.loads(text)
        checks.curve(obj["j_flat"] + obj["j_reduced"], [], math.inf)
        checks.da_gaps(obj["gaps"])
        require(obj["equal_group_sizes"], "equal groups reported unequal")
        close(obj["mean_reduced"], obj["mean_flat"], checks.MEAN_REL, "reduced mean")

    def _check_taylor(self, text: str) -> None:
        obj = json.loads(text)
        require(0.0 <= obj["exact"] < math.inf, f"taylor exact rate {obj['exact']!r}")
        close(obj["approx"], 0.1 ** 2 / (2.0 * self.stats_a.variance), 1e-12, "taylor approximation")

    def _check_augment(self, text: str) -> None:
        rows = list(csv.reader(io.StringIO(text)))
        require(rows[0] == ["sample_id", "loss"], f"augment header {rows[0]}")
        require(len(rows) - 1 == len(self.group_means), f"{len(rows) - 1} groups, expected {len(self.group_means)}")
        for (group, loss), (expected_group, mean) in zip(rows[1:], self.group_means.items()):
            require(group == expected_group and float(loss) == mean, f"group {group}: {loss} != {mean!r}")


# ---------------------------------------------------------------------------
# solve_1e5: the kernel and solvers on in-memory 1e5-loss datasets
# ---------------------------------------------------------------------------


class SolveWorkload(Workload):
    """Rate, inverse-rate, curve and analysis calls on datasets of 1e5 losses.

    No file is read, so the kernel and solver do most of the work. Solver
    behaviour depends on the scale of the losses, so the exponential set is
    also solved after scaling by each of ``gen.SCALES``.
    """

    name = "solve_1e5"
    exp_pass_losses = gen.SOLVE_LOSSES
    round_s = 7.5

    def __init__(self, seed: int, workdir: Path):
        arrays = gen.solve_arrays(seed)
        self.exp = rf.from_losses(arrays["exp"], model_id="exp")
        self.lognormal = rf.from_losses(arrays["lognormal"], model_id="lognormal")
        self.dist = rf.DiscreteLossDistribution(*gen.discrete_law(seed))
        self.discrete = rf.expand_to_dataset(self.dist, gen.SOLVE_LOSSES)
        self.scaled = {c: rf.from_losses(arrays["exp"] * c, model_id=f"exp_x{c:g}") for c in gen.SCALES}
        self.meta = rf.ModelMeta(10, 50_000, 0.05)
        self.arrays = arrays
        self.reference: dict = {}  # unscaled solver values, filled by the checks

    def prepare_checks(self) -> None:
        counts = [round(p * gen.SOLVE_LOSSES) for p in self.dist.probs]
        self.stats = {
            "exp": Stats.of(self.arrays["exp"]),
            "lognormal": Stats.of(self.arrays["lognormal"]),
            "discrete": Stats.of(np.repeat(self.dist.values, counts)),
        }

    def _ref(self, key, compute):
        if key not in self.reference:
            self.reference[key] = compute()
        return self.reference[key]

    def ops(self, r: int) -> list[Op]:
        E, L, D = self.exp, self.lognormal, self.discrete
        gap_d = self.stats["discrete"].gap
        ops = []
        for name, ds, a_values, s_values in (
            ("exp", E, (0.1, 0.5, 0.9, 2.0), (0.001, 0.01, 0.1, 12.5)),
            ("lognormal", L, (0.5, 1.5), (0.01, 0.1)),
            ("discrete", D, (0.3 * gap_d, 0.7 * gap_d, 1.5 * gap_d),
             (0.01, 0.1, self.stats["discrete"].b_max + 0.5)),
        ):
            for a in a_values:
                ops.append(Op(f"rate {name} a={a:.3g}", lambda ds=ds, a=a: rf.rate(ds, a),
                              self._check_rate(name, a)))
            for s in s_values:
                ops.append(Op(f"inverse_rate {name} s={s:.3g}", lambda ds=ds, s=s: rf.inverse_rate(ds, s),
                              self._check_inverse(ds, name, s)))
            ops.append(Op(f"cumulant_curve {name}", lambda ds=ds: rf.cumulant_curve(ds),
                          lambda c, name=name: checks.curve(c.j_values, c.j_derivs, self.stats[name].gap)))
        a_values = [0.15 * k for k in range(1, 9)]
        ops += [
            Op("rate_curve exp", lambda: rf.rate_curve(E, a_values), self._check_rate_curve),
            Op("grid_inverse_rate exp", lambda: rf.grid_inverse_rate(E, 0.01, rf.LambdaGrid.default()),
               self._check_grid_inverse),
            Op("generalization_bound exp", lambda: rf.generalization_bound(E, self.meta),
               lambda rep: checks.bound(rep.upper_bound, self.stats["exp"].mean)),
            Op("generalization_bound lognormal", lambda: rf.generalization_bound(L, self.meta),
               lambda rep: checks.bound(rep.upper_bound, self.stats["lognormal"].mean)),
            Op("compare_smoothness exp lognormal", lambda: rf.compare_smoothness(E, L), self._check_compare),
            Op("interpolator_ordering exp lognormal", lambda: rf.interpolator_ordering(0.0, E, L, self.meta),
               self._check_ordering),
        ]
        for lam in (0.5, 2.0):
            ops.append(Op(f"estimate_cumulant discrete lam={lam}", lambda lam=lam: rf.estimate_cumulant(D, lam),
                          lambda j, lam=lam: close(j, rf.exact_cumulant(self.dist, lam), checks.ORACLE_REL,
                                                   "plug-in cumulant vs oracle")))
        ops.append(Op("cumulant_derivative discrete lam=1", lambda: rf.cumulant_derivative(D, 1.0),
                      self._check_derivative))
        # Two cheap exp ops keep a round at 50 operations, so a run of two
        # rounds reports p90 as the tail.
        ops.append(Op("estimate_cumulant exp lam=1", lambda: rf.estimate_cumulant(E, 1.0),
                      lambda j: checks.curve([j], [], math.inf)))
        ops.append(Op("cumulant_derivative exp lam=1", lambda: rf.cumulant_derivative(E, 1.0),
                      lambda dj: checks.curve([], [dj], self.stats["exp"].gap)))
        for c, ds in self.scaled.items():
            known = c in KNOWN_DEFECT_SCALES
            ops.append(Op(f"rate exp x{c:g} a=0.3", lambda ds=ds, c=c: rf.rate(ds, 0.3 * c),
                          lambda ev: close(ev.value, self._ref(("rate", 0.3), lambda: rf.rate(E, 0.3).value),
                                           checks.SCALE_REL, "scaled rate"), known))
            for s in (0.01, 0.1):
                ops.append(Op(f"inverse_rate exp x{c:g} s={s}", lambda ds=ds, s=s: rf.inverse_rate(ds, s),
                              lambda ev, c=c, s=s: close(
                                  ev.value / c, self._ref(("inverse", s), lambda: rf.inverse_rate(E, s).value),
                                  checks.SCALE_REL, "scaled inverse rate"), known))
        return ops

    def _check_rate(self, name: str, a: float):
        stats = self.stats[name]

        def check(ev) -> None:
            if a >= stats.gap:
                require(ev.saturated and ev.value == math.inf, f"a={a!r} beyond the gap did not saturate")
                return
            require(not ev.saturated and 0.0 <= ev.value < math.inf, f"rate at a={a!r} is {ev.value!r}")
            if name == "discrete":
                close(ev.value, rf.exact_rate(self.dist, a), checks.ORACLE_REL, "plug-in rate vs oracle")

        return check

    def _check_inverse(self, ds, name: str, s: float):
        stats = self.stats[name]

        def check(ev) -> None:
            if s >= stats.b_max:
                require(ev.saturated and ev.value == stats.gap, f"s={s!r} beyond b_max did not saturate")
                return
            require(not ev.saturated and 0.0 < ev.value <= stats.mean, f"inverse rate at s={s!r} is {ev.value!r}")
            checks.round_trip(s, rf.rate(ds, ev.value).value)

        return check

    def _check_rate_curve(self, evaluations) -> None:
        previous = 0.0
        for ev in evaluations:
            require(ev.saturated == (ev.a >= self.stats["exp"].gap), f"saturation wrong at a={ev.a!r}")
            if not ev.saturated:
                require(previous <= ev.value < math.inf, f"rate curve not increasing at a={ev.a!r}")
                previous = ev.value

    def _check_grid_inverse(self, ev) -> None:
        best = self._ref(("inverse", 0.01), lambda: rf.inverse_rate(self.exp, 0.01).value)
        require(ev.value >= best * (1 - 1e-12), f"grid inverse rate {ev.value!r} below the optimum {best!r}")

    def _check_compare(self, verdict) -> None:
        require(verdict.verdict in ("smoother", "beta_smoother", "incomparable"), f"verdict {verdict.verdict!r}")
        require(verdict.cumulant_dominance == (verdict.verdict == "smoother"), "verdict contradicts dominance")

    def _check_ordering(self, claim) -> None:
        s = (self.meta.param_count / self.meta.train_size) * math.log(2.0 / self.meta.delta)
        close(claim.beta, self._ref(("inverse", s), lambda: rf.inverse_rate(self.exp, s).value), 1e-12, "beta")
        require(claim.holdout_mean_a == self.stats["exp"].mean, "holdout mean of A")
        require(claim.holdout_mean_b == self.stats["lognormal"].mean, "holdout mean of B")

    def _check_derivative(self, dj) -> None:
        values, probs = np.asarray(self.dist.values), np.asarray(self.dist.probs)
        w = probs * np.exp(-(values - values.min()))
        exact = self.dist.mean - float(w @ values) / float(w.sum())
        require(0.0 <= dj <= self.stats["discrete"].gap, f"J'(1) = {dj!r} outside [0, gap]")
        close(dj, exact, checks.ORACLE_REL, "plug-in derivative vs oracle")


# ---------------------------------------------------------------------------
# small_many: fixed cost per call on hundreds of small grouped datasets
# ---------------------------------------------------------------------------


class SmallWorkload(Workload):
    """Each round takes one grouped set of every size from 64 to 8192 losses,
    plus one set with unequal groups, through the whole augmentation pipeline,
    including a dump/load round trip in the work directory."""

    name = "small_many"
    exp_pass_losses = max(gen.SMALL_SIZES)
    round_s = 0.4
    trace_rounds = 16

    def __init__(self, seed: int, workdir: Path):
        self.sets = gen.small_sets(seed)
        self.unequal = self.sets.pop()
        self.meta = rf.ModelMeta(10, 5000, 0.05)
        self.dir = workdir

    def ops(self, r: int) -> list[Op]:
        per = len(gen.SMALL_SIZES)
        start = (r * per) % len(self.sets)
        ops = []
        for i, item in enumerate(self.sets[start:start + per] + [self.unequal]):
            ops += self._pipeline(item, self.dir / f"set{i}.csv")
        return ops

    def _pipeline(self, item: dict, path: Path) -> list[Op]:
        st: dict = {}
        n = len(item["losses"])
        tag = f"n={n}" if item["equal"] else "unequal"

        def keep(key, value):
            st[key] = value
            return value

        def warned(thunk):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = thunk()
            return result, [w.category for w in caught]

        return [
            Op(f"from_losses {tag}", lambda: keep("ds", rf.from_losses(item["losses"], group_ids=item["groups"])),
               lambda ds: require(np.array_equal(ds.losses, item["losses"]), "from_losses changed the losses")),
            Op(f"reduce_augmented {tag}", lambda: warned(lambda: keep("reduced", rf.reduce_augmented(st["ds"]))),
               lambda res: self._check_reduced(item, *res)),
            Op(f"compose_augmented {tag}", lambda: rf.compose_augmented(st["reduced"], item["outer"]),
               lambda ds: require([rec.group_id for rec in ds] == [item["outer"][rec.sample_id] for rec in ds]
                                  and len(ds) == len(st["reduced"]), "composed group ids")),
            Op(f"da_inequality_check {tag}", lambda: warned(lambda: keep("da", rf.da_inequality_check(st["ds"]))),
               lambda res: self._check_da(item, res[0])),
            Op(f"generalization_bound {tag}", lambda: rf.generalization_bound(st["ds"], self.meta),
               lambda rep: checks.bound(rep.upper_bound, rep.empirical_loss)),
            Op(f"dump_dataset {tag}", lambda: rf.dump_dataset(st["ds"], path),
               lambda _: require(path.exists(), "dump_dataset wrote no file")),
            Op(f"load_dataset {tag}", lambda: rf.load_dataset(path),
               lambda ds: require(np.array_equal(ds.losses, item["losses"])
                                  and [rec.group_id for rec in ds] == item["groups"], "round trip changed the data")),
            Op(f"to_json_text {tag}", lambda: rf.serialize.to_json_text(st["da"], kind="da_check"),
               lambda text: require(json.loads(text)["gaps"] == list(st["da"].gaps), "JSON gaps differ")),
        ]

    def _check_reduced(self, item: dict, reduced, categories) -> None:
        means = item.get("means")
        if means is None:
            means = item["means"] = gen.group_means(item["losses"], item["groups"])
        require([(rec.sample_id, rec.loss) for rec in reduced] == list(means.items()), "group means differ")
        unequal = rf.UnequalGroupsWarning in categories
        require(unequal != item["equal"], f"UnequalGroupsWarning raised: {unequal}, groups equal: {item['equal']}")

    def _check_da(self, item: dict, report) -> None:
        checks.curve(report.j_flat + report.j_reduced, [], math.inf)
        require(report.equal_group_sizes == item["equal"], "equal_group_sizes flag")
        if item["equal"]:
            checks.da_gaps(report.gaps)
            close(report.mean_reduced, report.mean_flat, checks.MEAN_REL, "reduced mean")


# ---------------------------------------------------------------------------
# oracle_mc: closed forms and Monte Carlo on a discrete law
# ---------------------------------------------------------------------------


class OracleWorkload(Workload):
    """Cramér tails at n = 80 with 1e5 trials, the estimator bias probe, exact
    rates over a deviation grid, and exact expansion and sampling.

    Cramér calls are 14 of the 25 operations of a round, so the median and the
    tail both fall among them; the millisecond closed-form calls, whose times
    swing most on a shared machine, stay below the median. ``cramer_tail`` is
    called with its default estimator, so acceptance gate 4 and its Philox
    stream are unaffected.
    """

    name = "oracle_mc"
    exp_pass_losses = 524 * 500  # one estimator_bias_probe chunk: 16384 * 16 // n rows of n = 500
    round_s = 5.0
    trace_rounds = 2
    N = 80
    TRIALS = 100_000
    # Deviations whose Gaussian rate a^2 / (2 var) is 0.03 and 0.05 have n*I between
    # about 2 and 5 on these laws, so tail events stay measurable at 1e5 trials.
    TARGET_RATES = (0.03, 0.05)
    # Chernoff: -(1/n) log P >= I(a); allow this many standard errors of MC noise.
    CHERNOFF_SIGMAS = 6.0

    def __init__(self, seed: int, workdir: Path):
        self.dist = rf.DiscreteLossDistribution(*gen.discrete_law(seed))
        self.gap = self.dist.mean - self.dist.min_value
        variance = math.fsum(p * (v - self.dist.mean) ** 2 for v, p in zip(self.dist.values, self.dist.probs))
        self.cramer_a = [math.sqrt(2.0 * target * variance) for target in self.TARGET_RATES]
        self.grid = [self.gap * k / 5 for k in range(1, 5)] + [self.gap, 1.25 * self.gap]
        self.seeds = [seed * 8 + k for k in range(1, 8)]
        self.digests: dict = {}

    def ops(self, r: int) -> list[Op]:
        d = self.dist
        ops = [
            Op(f"cramer_tail a={a:.4g} seed={s}", lambda a=a, s=s: rf.cramer_tail(d, self.N, a, self.TRIALS, s),
               self._check_cramer)
            for a in self.cramer_a for s in self.seeds
        ]
        ops += [
            Op("estimator_bias_probe", lambda: rf.estimator_bias_probe(d, 500, 1.0, 2000, self.seeds[0]),
               self._check_bias),
            Op("expand_to_dataset", lambda: rf.expand_to_dataset(d, 20_000), self._check_expanded),
            Op("sample_dataset", lambda: rf.sample_dataset(d, 20_000, self.seeds[0]), self._check_sampled),
        ]
        for lam in (0.5, 4.0):
            ops.append(Op(f"exact_cumulant lam={lam}", lambda lam=lam: rf.exact_cumulant(d, lam),
                          lambda j, lam=lam: close(j, self._cumulant(lam), 1e-12, "exact cumulant")))
        previous = [0.0]
        for a in self.grid:
            ops.append(Op(f"exact_rate a/gap={a / self.gap:.3g}", lambda a=a: rf.exact_rate(d, a),
                          lambda value, a=a: self._check_exact_rate(a, value, previous)))
        return ops

    def _cumulant(self, lam: float) -> float:
        values, probs = np.asarray(self.dist.values), np.asarray(self.dist.probs)
        lo = values.min()
        return lam * (self.dist.mean - lo) + math.log(float(probs @ np.exp(-lam * (values - lo))))

    def _check_cramer(self, rep) -> None:
        checks.digest(self.digests, ("cramer", rep.a, rep.seed), repr(rep).encode())
        close(rep.exact_rate, rf.exact_rate(self.dist, rep.a), 1e-12, "cramer exact rate")
        require(0 < rep.hit_count <= rep.trials, f"{rep.hit_count} hits: tail not measurable")
        slack = self.CHERNOFF_SIGMAS / (rep.n * math.sqrt(rep.hit_count))
        require(rep.neg_log_rate >= rep.exact_rate - slack,
                f"-(1/n) log p_hat = {rep.neg_log_rate!r} below the Chernoff bound {rep.exact_rate!r}")

    def _check_bias(self, rep) -> None:
        checks.digest(self.digests, "bias", repr(rep).encode())
        require(rep.exact_value == rf.exact_cumulant(self.dist, 1.0), "bias probe exact value")
        require(rep.stderr > 0.0 and math.isfinite(rep.mean_estimate), "bias probe estimate")

    def _check_expanded(self, ds) -> None:
        values, counts = np.unique(ds.losses, return_counts=True)
        expected = [round(p * 20_000) for p in self.dist.probs]
        require(values.tolist() == list(self.dist.values) and counts.tolist() == expected, "expanded counts")

    def _check_sampled(self, ds) -> None:
        losses = ds.losses
        require(len(losses) == 20_000 and bool(np.isin(losses, self.dist.values).all()), "sampled support")
        checks.digest(self.digests, "sample", losses.tobytes())

    def _check_exact_rate(self, a: float, value: float, previous: list) -> None:
        if a > self.gap:
            require(value == math.inf, f"exact rate beyond the gap is {value!r}")
        elif a == self.gap:
            require(value == -math.log(self.dist.min_mass), f"exact rate at the gap is {value!r}")
        else:
            require(previous[0] <= value < math.inf, f"exact rate {value!r} at a={a!r} after {previous[0]!r}")
            previous[0] = value


WORKLOADS = {w.name: w for w in (CliWorkload, SolveWorkload, SmallWorkload, OracleWorkload)}
