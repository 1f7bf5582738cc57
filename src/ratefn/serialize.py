"""Deterministic file output for curves and reports.

CSV numbers are rendered with 17 significant digits so emitted files reload
into bitwise-identical floats; infinities are spelled ``inf``. JSON payloads
carry a ``schema_version`` field and sorted keys so reruns of a seeded
command produce byte-identical files. Writes go through a temp file plus
rename, so readers never observe a partial file.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from pathlib import Path
from typing import Any, Iterable, Sequence

from .cumulant import CumulantCurve
from .errors import ParseError, input_file

SCHEMA_VERSION = "1"


def fmt17(x: float) -> str:
    """Render a float with 17 significant digits; infinities become 'inf'."""
    x = float(x)
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    return format(x, ".17g")


def _jsonable(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def to_json_text(payload: Any, kind: str) -> str:
    """Serialize a report to versioned, key-sorted JSON text."""
    body = _jsonable(payload)
    if not isinstance(body, dict):
        body = {"value": body}
    body["schema_version"] = SCHEMA_VERSION
    body["kind"] = kind
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write text to ``path`` via a same-directory temp file and rename."""
    path = Path(path)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=path.parent or Path("."), suffix=".tmp", delete=False
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return fmt17(value)
    return str(value).lower() if isinstance(value, bool) else str(value)


def to_csv_text(columns: Sequence[str], rows: Iterable[Iterable[Any]]) -> str:
    """Render a table as CSV: a ``# columns:`` comment, the header, one line per row.

    Floats get 17 significant digits (``fmt17``), booleans are lower case and
    every other value is written with ``str``.
    """
    lines = [f"# columns: {','.join(columns)}", ",".join(columns)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def cumulant_curve_to_csv(curve: CumulantCurve) -> str:
    return to_csv_text(("lambda", "j", "j_deriv"), zip(curve.grid.values, curve.j_values, curve.j_derivs))


def cumulant_curve_to_json(curve: CumulantCurve) -> str:
    return to_json_text(
        {
            "spacing": curve.grid.spacing,
            "lambda": [fmt17(v) for v in curve.grid.values],
            "j": [fmt17(v) for v in curve.j_values],
            "j_deriv": [fmt17(v) for v in curve.j_derivs],
            "summary": curve.summary,
        },
        kind="cumulant_curve",
    )


def load_cumulant_curve_csv(path: str | Path) -> tuple[list[float], list[float], list[float]]:
    """Reload an emitted cumulant curve; returns (lambdas, j, j_deriv).

    A row without three numbers, or a missing, irregular or non-UTF-8 file,
    raises ``ParseError``.
    """
    with input_file(path) as path:
        text = path.read_text(encoding="utf-8")
    lams, js, djs = [], [], []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#") or line.startswith("lambda"):
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            lam, j, dj = map(float, parts)
        except ValueError:
            raise ParseError(f"line {lineno}: expected 3 numbers, got {line!r}") from None
        lams.append(lam)
        js.append(j)
        djs.append(dj)
    return lams, js, djs
