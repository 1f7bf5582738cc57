"""Seeded inputs for the ratefn benchmark.

Every input is drawn from numpy's PCG64 generator keyed by ``[seed, stream]``,
so the same workload seed gives byte-identical files and arrays and different
seeds give different ones. ``ratefn`` only ever sees the generated files and
arrays, never the seed.

Losses are written with ``repr(float(v))``: the repr of a numpy scalar is
``np.float64(...)``, which the ratefn loaders reject with ``ParseError``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# Streams keep the inputs of one seed independent of each other.
_CLI_A, _CLI_B, _CLI_GROUPED, _SOLVE, _SMALL, _DISCRETE = range(6)

CLI_ROWS = 200_000
CLI_GROUP_SIZE = 4
SOLVE_LOSSES = 100_000
SCALES = (1e-12, 1e-9, 1e-6, 1e6, 1e12, 1e150)
SMALL_SIZES = (64, 128, 256, 512, 1024, 2048, 4096, 8192)
SMALL_PER_SIZE = 32
SMALL_GROUP_SIZES = (2, 4, 8)
DISCRETE_ATOMS = 6
DISCRETE_UNITS = 20  # probabilities are multiples of 1/20


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def group_labels(sizes, gen: np.random.Generator) -> list[str]:
    """Group ids of the given sizes, in a seeded interleaved order."""
    ids = np.repeat(np.arange(len(sizes)), sizes)
    gen.shuffle(ids)
    return [f"g{int(i)}" for i in ids]


def group_means(losses, labels) -> dict[str, float]:
    """Per-group mean in first-appearance order, by ``math.fsum`` like ``reduce_augmented``."""
    groups: dict[str, list[float]] = {}
    for value, label in zip(losses, labels):
        groups.setdefault(label, []).append(float(value))
    return {label: math.fsum(vals) / len(vals) for label, vals in groups.items()}


# ---------------------------------------------------------------------------
# Files for the CLI workload
# ---------------------------------------------------------------------------


def cli_arrays(seed: int) -> dict:
    """Two models' losses and a grouped loss set, each of ``CLI_ROWS`` rows."""
    grouped = rng(seed, _CLI_GROUPED).exponential(1.0, CLI_ROWS)
    return {
        "a": rng(seed, _CLI_A).exponential(1.0, CLI_ROWS),
        "b": rng(seed, _CLI_B).gamma(2.0, 0.5, CLI_ROWS),
        "grouped": grouped,
        "groups": [f"g{i // CLI_GROUP_SIZE}" for i in range(CLI_ROWS)],
    }


def write_csv(path: Path, losses) -> None:
    lines = ["sample_id,loss\n"]
    lines.extend(f"s{i},{repr(float(v))}\n" for i, v in enumerate(losses.tolist()))
    path.write_text("".join(lines), encoding="utf-8")


def write_jsonl(path: Path, losses, groups) -> None:
    # The same bytes as json.dumps of each object, without its per-call cost.
    lines = (
        f'{{"sample_id": "s{i}", "loss": {repr(float(v))}, "group_id": "{g}"}}\n'
        for i, (v, g) in enumerate(zip(losses.tolist(), groups))
    )
    path.write_text("".join(lines), encoding="utf-8")


def read_csv(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != ["sample_id", "loss"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return np.array([float(row[1]) for row in rows[1:]])


def read_jsonl(path: Path) -> tuple[np.ndarray, list[str]]:
    objs = json.loads("[" + ",".join(path.read_text(encoding="utf-8").splitlines()) + "]")
    return np.array([float(o["loss"]) for o in objs]), [o["group_id"] for o in objs]


def write_cli_inputs(seed: int, directory: Path) -> dict:
    """Write the CLI input files; returns their paths and the arrays behind them."""
    arrays = cli_arrays(seed)
    paths = {
        "a": directory / "model_a.csv",
        "b": directory / "model_b.csv",
        "grouped": directory / "grouped.jsonl",
    }
    write_csv(paths["a"], arrays["a"])
    write_csv(paths["b"], arrays["b"])
    write_jsonl(paths["grouped"], arrays["grouped"], arrays["groups"])
    return {"paths": paths, "arrays": arrays}


def verify_cli_inputs(inputs: dict) -> None:
    """Check that each written file loads back to the array it was written from."""
    paths, arrays = inputs["paths"], inputs["arrays"]
    for key in ("a", "b"):
        if not np.array_equal(read_csv(paths[key]), arrays[key]):
            raise ValueError(f"{paths[key]} does not load back to its array")
    losses, groups = read_jsonl(paths["grouped"])
    if not np.array_equal(losses, arrays["grouped"]) or groups != arrays["groups"]:
        raise ValueError(f"{paths['grouped']} does not load back to its array")


# ---------------------------------------------------------------------------
# Arrays for the in-process workloads
# ---------------------------------------------------------------------------


def solve_arrays(seed: int) -> dict:
    """An exponential and a heavy-tailed lognormal loss set of ``SOLVE_LOSSES`` each."""
    gen = rng(seed, _SOLVE)
    return {
        "exp": gen.exponential(1.0, SOLVE_LOSSES),
        "lognormal": gen.lognormal(0.0, 1.5, SOLVE_LOSSES),
    }


def discrete_law(seed: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Atoms on [0, 3] with probabilities in twentieths; the lowest atom holds >= 10%."""
    gen = rng(seed, _DISCRETE)
    values = np.sort(gen.uniform(0.0, 3.0, DISCRETE_ATOMS))
    counts = np.ones(DISCRETE_ATOMS, dtype=int)
    counts[0] = 2
    counts += gen.multinomial(DISCRETE_UNITS - counts.sum(), [1.0 / DISCRETE_ATOMS] * DISCRETE_ATOMS)
    return tuple(float(v) for v in values), tuple(int(c) / DISCRETE_UNITS for c in counts)


def small_sets(seed: int) -> list[dict]:
    """Grouped loss sets, ``SMALL_PER_SIZE`` per size, ordered so that any
    prefix holds every size equally often, plus one set with unequal groups."""
    gen = rng(seed, _SMALL)
    by_size = []
    for size in SMALL_SIZES:
        sets = []
        for j in range(SMALL_PER_SIZE):
            k = SMALL_GROUP_SIZES[j % len(SMALL_GROUP_SIZES)]
            losses = gen.exponential(gen.uniform(0.5, 2.0), size)
            sets.append({"losses": losses, "groups": group_labels([k] * (size // k), gen)})
        by_size.append(sets)
    ordered = [by_size[s][j] for j in range(SMALL_PER_SIZE) for s in range(len(SMALL_SIZES))]
    for item in ordered:
        inner = list(dict.fromkeys(item["groups"]))
        item["outer"] = {g: f"o{i // 2}" for i, g in enumerate(inner)}
        item["equal"] = True
    sizes = gen.integers(3, 6, 250)
    sizes[:2] = (3, 5)
    losses = gen.exponential(1.0, int(sizes.sum()))
    labels = group_labels(sizes, gen)
    unequal = {
        "losses": losses,
        "groups": labels,
        "outer": {g: f"o{i // 2}" for i, g in enumerate(dict.fromkeys(labels))},
        "equal": False,
    }
    return ordered + [unequal]
