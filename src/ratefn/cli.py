"""Command-line interface.

Each analysis is a subcommand. Results go to ``--output`` (written
atomically), in which case stdout carries a one-line summary; without
``--output`` the payload itself is printed to stdout. Progress and errors go
to stderr as ``<command>: <error class>: <message>``. Exit codes: 0 success,
2 for an ``InputError`` (invalid input or parameters; the message names the
offending flag or input), 1 for a ``ComputeError`` (a computation that could
not complete) and for an operating-system error such as an unwritable output.

Seeded subcommands are bit-reproducible: rerunning with the same flags and
seed writes byte-identical files. A ``--config`` JSON file, when given,
overrides the corresponding flags; its values are converted and checked as
command-line values are, and an unknown key is a validation problem.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, oracle, serialize
from .cumulant import DEFAULT_GRID_HI, DEFAULT_GRID_LO, DEFAULT_GRID_SIZE, LambdaGrid, cumulant_curve
from .errors import InputError, InvalidA, InvalidS, ParseError, RatefnError, ValidationError, check_real, input_file
from .loss_data import ModelMeta, dump_dataset, load_dataset, reduce_augmented
from .rate import DEFAULT_TOL, grid_inverse_rate, inverse_rate, rate_curve

_DEFAULT_GRID = f"{DEFAULT_GRID_LO!r}:{DEFAULT_GRID_HI!r}:{DEFAULT_GRID_SIZE}:log"  # LambdaGrid.default()


def parse_grid_spec(spec: str) -> LambdaGrid:
    """Parse a 'start:stop:count:linear|log' grid description."""
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValidationError(f"grid spec must be start:stop:count:linear|log, got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValidationError(f"grid spec has non-numeric fields: {spec!r}") from None
    if parts[3] == "linear":
        return LambdaGrid.linear(lo, hi, count)
    if parts[3] == "log":
        return LambdaGrid.log_spaced(lo, hi, count)
    raise ValidationError(f"grid spacing must be 'linear' or 'log', got {parts[3]!r}")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_io_args(sub, inputs=("--input",), formats=("csv", "json"), default="json"):
    """Add the dataset input, output, format and config flags.

    ``inputs`` are the command's dataset flags, which share one
    ``--input-format``; ``formats`` are the formats the command writes.
    """
    for flag in inputs:
        sub.add_argument(flag, required=True, help="loss dataset file")
    if inputs:
        sub.add_argument("--input-format", choices=("csv", "jsonl"), default=None)
    sub.add_argument("--output", default=None, help="write the result here (atomic)")
    sub.add_argument("--format", choices=formats, default=default)
    sub.add_argument("--config", default=None, help="JSON file whose keys override flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratefn",
        description="Deviation analysis of per-sample loss data: cumulant and rate functions, "
        "generalization bounds, augmentation checks, and Monte Carlo oracles.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("cumulant", help="evaluate the cumulant curve over a tilt grid")
    _add_io_args(sub)
    sub.add_argument("--grid", default=_DEFAULT_GRID, help="start:stop:count:linear|log")

    sub = commands.add_parser("rate", help="rate of one or more deviations")
    _add_io_args(sub)
    sub.add_argument("--a", type=float, action="append", default=None, help="deviation (repeatable)")
    sub.add_argument("--a-grid", default=None, help="start:stop:count:linear|log")
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="tolerance relative to the gap mean - min: on J'(lambda) - a and for saturation")

    sub = commands.add_parser("inverse-rate", help="inverse rate at one or more budgets")
    _add_io_args(sub)
    sub.add_argument("--s", type=float, action="append", default=None, help="budget (repeatable)")
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL,
                     help="tolerance on the Bregman gap and for saturation at b_max, in nats at any loss scale")

    sub = commands.add_parser("grid-inverse-rate", help="inverse rate restricted to a tilt grid")
    _add_io_args(sub)
    sub.add_argument("--s", type=float, required=True)
    sub.add_argument("--grid", default=_DEFAULT_GRID)

    sub = commands.add_parser("bound", help="high-probability population-loss bound")
    _add_io_args(sub, formats=("json",))
    sub.add_argument("--p", type=_positive_int, required=True, help="parameter count")
    sub.add_argument("--n", type=_positive_int, required=True, help="training-set size")
    sub.add_argument("--delta", type=float, required=True)
    sub.add_argument("--epsilon", type=float, default=0.0)
    sub.add_argument("--train-loss", type=float, default=None)

    sub = commands.add_parser("compare", help="smoothness comparison of two models")
    _add_io_args(sub, inputs=("--input-a", "--input-b"), formats=("json",))
    sub.add_argument("--grid", default=_DEFAULT_GRID)
    sub.add_argument("--a-grid", default=None)
    sub.add_argument("--beta", type=float, default=None)

    sub = commands.add_parser("interpolator-check", help="interpolator ordering premises and evidence")
    _add_io_args(sub, inputs=("--input-a", "--input-b"), formats=("json",))
    sub.add_argument("--train-loss-a", type=float, required=True)
    sub.add_argument("--p", type=_positive_int, required=True)
    sub.add_argument("--n", type=_positive_int, required=True)
    sub.add_argument("--delta", type=float, required=True)
    sub.add_argument("--epsilon", type=float, default=0.0)

    sub = commands.add_parser("augment", help="reduce a grouped dataset to per-group mean losses")
    _add_io_args(sub, formats=("csv", "jsonl"), default="csv")

    sub = commands.add_parser("da-check", help="per-tilt augmentation inequality gaps")
    _add_io_args(sub)
    sub.add_argument("--grid", default=_DEFAULT_GRID)

    sub = commands.add_parser("taylor", help="quadratic approximations of cumulant or rate")
    _add_io_args(sub, formats=("json",))
    sub.add_argument("--mode", choices=("j", "rate", "inverse-rate", "covariance"), required=True)
    sub.add_argument("--x", type=float, required=True, help="tilt, deviation, or budget")
    sub.add_argument("--theta-delta", default=None, help="comma-separated displacement (covariance mode)")
    sub.add_argument("--s-budget", type=float, default=None, help="budget for the covariance inverse-rate form")

    sub = commands.add_parser("grad-bound", help="bounds from squared input-gradient norms")
    _add_io_args(sub, formats=("json",))
    sub.add_argument("--m-const", type=float, required=True)
    sub.add_argument("--s", type=float, required=True)
    sub.add_argument("--lambda", dest="lam", type=float, default=None)

    sub = commands.add_parser("oracle-exact", help="exact cumulant/rate of a discrete distribution")
    _add_io_args(sub, inputs=())
    sub.add_argument("--dist", required=True, help="JSON file with values/probs")
    sub.add_argument("--lambda", dest="lam", type=float, default=None)
    sub.add_argument("--a", type=float, default=None)

    sub = commands.add_parser("simulate-cramer", help="Monte Carlo tail probability vs exact rate")
    _add_io_args(sub, inputs=())
    sub.add_argument("--dist", required=True)
    sub.add_argument("--n", type=_positive_int, required=True)
    sub.add_argument("--a", type=float, required=True)
    sub.add_argument("--trials", type=_positive_int, required=True)
    sub.add_argument("--seed", type=_positive_int, required=True)
    sub.add_argument("--method", choices=("plain", "tilted"), default="plain",
                     help="sample the law itself, or the law tilted to the tail with likelihood-ratio weights")

    sub = commands.add_parser("bias-probe", help="replicate the cumulant estimator against the oracle")
    _add_io_args(sub, inputs=())
    sub.add_argument("--dist", required=True)
    sub.add_argument("--n", type=_positive_int, required=True)
    sub.add_argument("--lambda", dest="lam", type=float, required=True)
    sub.add_argument("--replicates", type=_positive_int, required=True)
    sub.add_argument("--seed", type=_positive_int, required=True)

    return parser


def _render(args, kind: str, *reports, table=None) -> str:
    """The text of a command's reports in ``--format``.

    JSON holds one report as ``kind``, or several as ``{"evaluations": [...]}``
    of kind ``<kind>_curve``. CSV holds ``table``, an explicit ``(columns,
    rows)``, when one is given, and otherwise one row per report with the
    report's fields as columns.
    """
    if args.format == "csv":
        return serialize.to_csv_text(*table) if table else serialize.reports_to_csv(reports)
    if len(reports) == 1:
        return serialize.to_json_text(reports[0], kind=kind)
    return serialize.to_json_text({"evaluations": reports}, kind=f"{kind}_curve")


def _cmd_cumulant(args):
    ds = load_dataset(args.input, args.input_format)
    curve = cumulant_curve(ds, parse_grid_spec(args.grid))
    text = serialize.cumulant_curve_to_csv(curve) if args.format == "csv" else serialize.cumulant_curve_to_json(curve)
    summary = (
        f"cumulant: {len(curve.grid)} tilts, J(max)={serialize.fmt17(curve.j_values[-1])}, "
        f"mean={serialize.fmt17(curve.summary.empirical_loss)}"
    )
    return summary, text


def _cmd_rate(args):
    ds = load_dataset(args.input, args.input_format)
    a_values = list(args.a or [])
    if args.a_grid:
        a_values.extend(parse_grid_spec(args.a_grid).values)
    if not a_values:
        raise InvalidA("--a or --a-grid is required")
    a_values = sorted(set(a_values))
    evals = rate_curve(ds, a_values, tol=args.tol)
    text = _render(args, "rate", *evals)
    if len(evals) == 1:
        ev = evals[0]
        return f"rate: a={ev.a:g} value={serialize.fmt17(ev.value)} saturated={str(ev.saturated).lower()}", text
    return f"rate: {len(evals)} deviations, {sum(e.saturated for e in evals)} saturated", text


def _cmd_inverse_rate(args):
    ds = load_dataset(args.input, args.input_format)
    s_values = list(args.s or [])
    if not s_values:
        raise InvalidS("--s is required")
    evals = [inverse_rate(ds, s, tol=args.tol) for s in sorted(set(s_values))]
    text = _render(args, "inverse_rate", *evals)
    if len(evals) == 1:
        ev = evals[0]
        summary = f"inverse-rate: s={ev.s:g} value={serialize.fmt17(ev.value)} saturated={str(ev.saturated).lower()}"
        return summary, text
    return f"inverse-rate: {len(evals)} budgets", text


def _cmd_grid_inverse_rate(args):
    ds = load_dataset(args.input, args.input_format)
    ev = grid_inverse_rate(ds, args.s, parse_grid_spec(args.grid))
    text = _render(args, "grid_inverse_rate", ev)
    return f"grid-inverse-rate: s={ev.s:g} value={serialize.fmt17(ev.value)} at lambda={ev.lambda_star:g}", text


def _cmd_bound(args):
    ds = load_dataset(args.input, args.input_format)
    meta = ModelMeta(args.p, args.n, args.delta, args.epsilon)
    report = analysis.generalization_bound(ds, meta, train_loss=args.train_loss)
    text = _render(args, "bound", report)
    return (
        f"bound: s={serialize.fmt17(report.s)} inverse_rate={serialize.fmt17(report.inverse_rate.value)} "
        f"upper_bound={serialize.fmt17(report.upper_bound)}"
    ), text


def _cmd_compare(args):
    ds_a = load_dataset(args.input_a, args.input_format)
    ds_b = load_dataset(args.input_b, args.input_format)
    a_values = parse_grid_spec(args.a_grid).values if args.a_grid else None
    verdict = analysis.compare_smoothness(
        ds_a, ds_b, grid=parse_grid_spec(args.grid), a_values=a_values, beta=args.beta
    )
    text = _render(args, "smoothness", verdict)
    return f"compare: verdict={verdict.verdict} cumulant_dominance={str(verdict.cumulant_dominance).lower()}", text


def _cmd_interpolator_check(args):
    ds_a = load_dataset(args.input_a, args.input_format)
    ds_b = load_dataset(args.input_b, args.input_format)
    meta = ModelMeta(args.p, args.n, args.delta, args.epsilon)
    claim = analysis.interpolator_ordering(args.train_loss_a, ds_a, ds_b, meta, epsilon=args.epsilon)
    text = _render(args, "interpolator_ordering", claim)
    return (
        f"interpolator-check: premise_ok={str(claim.premise_ok).lower()} "
        f"beta={serialize.fmt17(claim.beta)} beta_smooth_ok={str(claim.beta_smooth_ok).lower()}"
    ), text


def _cmd_augment(args):
    if args.output is None:
        raise ValidationError("--output: augment writes a dataset file; an output path is required")
    ds = load_dataset(args.input, args.input_format)
    reduced = reduce_augmented(ds)
    dump_dataset(reduced, args.output, format=args.format)
    return f"augment: {len(ds)} records reduced to {len(reduced)} groups -> {args.output}", None


def _cmd_da_check(args):
    ds = load_dataset(args.input, args.input_format)
    report = analysis.da_inequality_check(ds, parse_grid_spec(args.grid))
    table = ("lambda", "j_flat", "j_reduced", "gap"), zip(report.lambdas, report.j_flat, report.j_reduced, report.gaps)
    text = _render(args, "da_check", report, table=table)
    return (
        f"da-check: min_gap={serialize.fmt17(min(report.gaps))} "
        f"equal_groups={str(report.equal_group_sizes).lower()}"
    ), text


def _cmd_taylor(args):
    ds = load_dataset(args.input, args.input_format)
    if args.mode == "covariance":
        if not args.theta_delta:
            raise ValidationError("--theta-delta: required for covariance mode")
        delta = [check_real(part, ValidationError, "--theta-delta", "any") for part in args.theta_delta.split(",")]
        cov = analysis.covariance_taylor(ds, delta, args.x, s=args.s_budget)
        report, text = cov.report, _render(args, "taylor_covariance", cov)
    else:
        if args.mode == "j":
            report = analysis.variance_taylor(ds, args.x)
        else:
            report = analysis.variance_rate_approx(ds, args.mode.replace("-", "_"), args.x)
        text = _render(args, "taylor", report)
    return (
        f"taylor: mode={args.mode} exact={serialize.fmt17(report.exact)} "
        f"approx={serialize.fmt17(report.approx)} abs_error={serialize.fmt17(report.abs_error)}"
    ), text


def _cmd_grad_bound(args):
    ds = load_dataset(args.input, args.input_format)
    report = analysis.gradient_norm_bound(ds, args.m_const, args.s, lam=args.lam)
    text = _render(args, "grad_bound", report)
    return f"grad-bound: bound_iinv={serialize.fmt17(report.bound_iinv)}", text


def _cmd_oracle_exact(args):
    dist = oracle.load_distribution(args.dist)
    fields: dict = {"mean": dist.mean, "min_value": dist.min_value}
    parts = []
    if args.lam is not None:
        fields["lam"] = args.lam
        fields["exact_cumulant"] = oracle.exact_cumulant(dist, args.lam)
        parts.append(f"J({args.lam:g})={serialize.fmt17(fields['exact_cumulant'])}")
    if args.a is not None:
        fields["a"] = args.a
        fields["exact_rate"] = oracle.exact_rate(dist, args.a)
        parts.append(f"I({args.a:g})={serialize.fmt17(fields['exact_rate'])}")
    if args.lam is None and args.a is None:
        raise ValidationError("--lambda or --a: at least one is required")
    return "oracle-exact: " + " ".join(parts), _render(args, "oracle_exact", fields)


def _cmd_simulate_cramer(args):
    dist = oracle.load_distribution(args.dist)
    print(
        f"simulate-cramer: running {args.trials} trials of n={args.n} draws (seed {args.seed})",
        file=sys.stderr,
    )
    report = oracle.cramer_tail(dist, args.n, args.a, args.trials, args.seed, args.method)
    text = _render(args, "cramer_tail", report)
    return (
        f"simulate-cramer: p_hat={serialize.fmt17(report.p_hat)} "
        f"neg_log_rate={serialize.fmt17(report.neg_log_rate)} exact_rate={serialize.fmt17(report.exact_rate)}"
    ), text


def _cmd_bias_probe(args):
    dist = oracle.load_distribution(args.dist)
    report = oracle.estimator_bias_probe(dist, args.n, args.lam, args.replicates, args.seed)
    text = _render(args, "bias_probe", report)
    return (
        f"bias-probe: mean={serialize.fmt17(report.mean_estimate)} "
        f"exact={serialize.fmt17(report.exact_value)} underestimates={str(report.underestimates).lower()}"
    ), text


_HANDLERS = {
    "cumulant": _cmd_cumulant,
    "rate": _cmd_rate,
    "inverse-rate": _cmd_inverse_rate,
    "grid-inverse-rate": _cmd_grid_inverse_rate,
    "bound": _cmd_bound,
    "compare": _cmd_compare,
    "interpolator-check": _cmd_interpolator_check,
    "augment": _cmd_augment,
    "da-check": _cmd_da_check,
    "taylor": _cmd_taylor,
    "grad-bound": _cmd_grad_bound,
    "oracle-exact": _cmd_oracle_exact,
    "simulate-cramer": _cmd_simulate_cramer,
    "bias-probe": _cmd_bias_probe,
}


def _config_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """The subcommand's actions that a config key may set, by dest and long flag name."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {}
    for action in commands.choices[command]._actions:
        if action.dest in ("help", "config"):
            continue
        for name in (action.dest, *(opt.lstrip("-") for opt in action.option_strings)):
            actions[name.replace("-", "_")] = action
    return actions


def _config_value(action: argparse.Action, key: str, value):
    """Convert one config value as argparse would convert it from the command line."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValidationError(f"--config: key {key!r} needs a string or a number, got {value!r}")
    text = value if isinstance(value, str) else repr(value)
    try:
        converted = text if action.type is None else action.type(text)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        raise ValidationError(f"--config: key {key!r} has an invalid value {value!r}") from None
    if action.choices is not None and converted not in action.choices:
        raise ValidationError(
            f"--config: key {key!r} must be one of {', '.join(map(str, action.choices))}, got {value!r}"
        )
    return converted


def _apply_config(args, parser: argparse.ArgumentParser) -> None:
    """Override flags with the ``--config`` JSON object.

    Keys name flags (``tol``, ``a-grid`` or ``a_grid``). Each value goes
    through the flag's own type and choices; a repeatable flag takes a list
    or a single value. Unknown keys and bad values raise ``ValidationError``.
    """
    if getattr(args, "config", None) is None:
        return
    try:
        with input_file(args.config, "--config: ") as path:
            overrides = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"--config: {path}: invalid JSON: {exc.msg}") from None
    if not isinstance(overrides, dict):
        raise ParseError("--config: expected a JSON object of flag overrides")
    actions = _config_actions(parser, args.command)
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValidationError(f"--config: unknown key {key!r} for {args.command}")
        if isinstance(action, argparse._AppendAction):
            values = value if isinstance(value, list) else [value]
            setattr(args, action.dest, [_config_value(action, key, v) for v in values])
        else:
            setattr(args, action.dest, _config_value(action, key, value))


def run(argv=None) -> int:
    """Parse arguments, dispatch, and map errors to exit codes."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = args.command
    try:
        _apply_config(args, parser)
        summary, text = _HANDLERS[command](args)
        if getattr(args, "output", None) and text is not None:
            serialize.atomic_write_text(args.output, text)
            print(summary)
        elif text is not None:
            sys.stdout.write(text)
        else:
            print(summary)
        return 0
    except (RatefnError, OSError) as exc:
        print(f"{command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
