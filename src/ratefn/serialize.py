"""Deterministic file output for curves and reports.

CSV numbers are rendered with 17 significant digits so emitted files reload
into bitwise-identical floats; infinities are spelled ``inf``. JSON payloads
carry a ``schema_version`` field and sorted keys so reruns of a seeded
command produce byte-identical files. Writes go through a temp file plus
rename, so readers never observe a partial file.

JSON text is written in one recursive pass over the report, byte for byte as
``json.dumps(body, sort_keys=True, indent=2)`` writes the report turned into
plain containers: a dataclass's fields (read with ``getattr``, so a lazily
computed field is computed) and a dict's items in sorted key order, lists and
tuples as arrays, strings through json's C ``encode_basestring_ascii`` and
finite floats through ``float.__repr__``, a whole array of finite floats in
one ``map``. Infinities become the strings ``"inf"`` and ``"-inf"``. A NaN
would be written as json writes it, the bare token ``NaN``, which strict
parsers refuse. (With ``indent`` set, ``json.dumps`` runs its pure-Python
encoder, about twice as slow.)
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

SCHEMA_VERSION = "1"


def fmt17(x: float) -> str:
    """Render a float with 17 significant digits; infinities become 'inf'."""
    x = float(x)
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    return format(x, ".17g")


_encode_str = json.encoder.encode_basestring_ascii
_float_repr = float.__repr__
_NONFINITE_REPRS = ("inf", "-inf", "nan")
# Exact types that are neither dataclasses nor dicts: _render skips _members for them.
_PLAIN = frozenset((float, str, int, bool, type(None), list, tuple))


def _members(value: Any) -> dict | None:
    """A dataclass instance's fields, read with ``getattr``, or a dict as is;
    ``None`` for any other value."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
    return value if isinstance(value, dict) else None


def _key_text(key: Any) -> str:
    """A dict key as json writes it: a string, or a number or constant in quotes."""
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, (int, float)) or key is None:
        return f'"{json.dumps(key)}"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _render_items(members: dict, out: list[str], indent: str) -> None:
    if not members:
        out.append("{}")
        return
    inner = indent + "  "
    sep = "{" + inner
    for key, item in sorted(members.items()):
        out.append(sep + _key_text(key) + ": ")
        _render(item, out, inner)
        sep = "," + inner
    out.append(indent + "}")


def _render_seq(seq: list | tuple, out: list[str], indent: str) -> None:
    if not seq:
        out.append("[]")
        return
    inner = indent + "  "
    try:
        texts = list(map(_float_repr, seq))  # all floats: one map renders the array
    except TypeError:
        texts = None
    if texts is not None and not any(t in texts for t in _NONFINITE_REPRS):
        out.append("[" + inner + ("," + inner).join(texts) + indent + "]")
        return
    sep = "[" + inner
    for item in seq:
        out.append(sep)
        _render(item, out, inner)
        sep = "," + inner
    out.append(indent + "]")


def _render(value: Any, out: list[str], indent: str) -> None:
    """Append the JSON text of ``value`` to ``out``; ``indent`` is the newline
    and spaces that start a line at this value's depth."""
    if type(value) not in _PLAIN and (members := _members(value)) is not None:
        _render_items(members, out, indent)
    elif isinstance(value, float):
        if value != value:
            out.append("NaN")
        elif value in (math.inf, -math.inf):
            out.append('"inf"' if value > 0 else '"-inf"')
        else:
            out.append(_float_repr(value))
    elif isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, (list, tuple)):
        _render_seq(value, out, indent)
    elif value is None:
        out.append("null")
    elif value is True or value is False:
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def to_json_text(payload: Any, kind: str) -> str:
    """Serialize a report to versioned, key-sorted JSON text, indented by two."""
    members = _members(payload)
    body = {"value": payload} if members is None else dict(members)
    body["schema_version"] = SCHEMA_VERSION
    body["kind"] = kind
    out: list[str] = []
    _render_items(body, out, "\n")
    out.append("\n")
    return "".join(out)


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


def reports_to_csv(reports: Sequence[Any]) -> str:
    """Render reports as CSV, one row per report; the columns are the first
    report's dataclass fields in order, or its dict keys sorted."""
    members = [_members(r) for r in reports]
    columns = sorted(members[0]) if isinstance(reports[0], dict) else list(members[0])
    return to_csv_text(columns, ([m[c] for c in columns] for m in members))


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
