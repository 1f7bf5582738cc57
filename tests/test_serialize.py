"""Report rendering: the direct JSON renderer against the json module, and CSV rows of report fields.

``reference_json_text`` is the renderer the package used before it wrote the
indented text itself: convert the payload to plain containers, then
``json.dumps(..., sort_keys=True, indent=2)``. ``to_json_text`` must give the
same text for every payload the reference accepts, and raise ``TypeError``
where it raises ``TypeError``.
"""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratefn import (
    ApproxReport,
    BiasProbeReport,
    BoundReport,
    CovarianceTaylor,
    CramerReport,
    CumulantCurve,
    DAReport,
    DatasetSummary,
    GradNormBound,
    InverseRateEvaluation,
    OrderingClaim,
    RateEvaluation,
    SmoothnessVerdict,
    TiltedCramerReport,
    from_losses,
    serialize,
    summarize,
)
from ratefn.cli import run
from ratefn.serialize import SCHEMA_VERSION, reports_to_csv, to_json_text
from test_output_digests import CASES, case_argv

_PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)


def _jsonable(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def reference_json_text(payload, kind):
    body = _jsonable(payload)
    if not isinstance(body, dict):
        body = {"value": body}
    body["schema_version"] = SCHEMA_VERSION
    body["kind"] = kind
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, 1e-7, 0.1, 2.0**53 + 2, 1.7976931348623157e308,
               math.inf, -math.inf, math.nan]
EDGE_STRINGS = ["", 'say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "café ∑ \U0001f600",
                "\ud800", "inf", "NaN"]

_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
)
_scalars = st.one_of(
    _floats,
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1, 10**30]),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(EDGE_STRINGS),
)
_keys = st.one_of(st.text(max_size=8), st.sampled_from(["kind", "schema_version", "value", 'k"ey', "ü"]))

# Report classes whose constructors take any field values.
REPORTS = [ApproxReport, BiasProbeReport, BoundReport, CovarianceTaylor, CramerReport, CumulantCurve, DAReport,
           DatasetSummary, GradNormBound, InverseRateEvaluation, OrderingClaim, RateEvaluation, SmoothnessVerdict,
           TiltedCramerReport]


def _report(children):
    return st.sampled_from(REPORTS).flatmap(
        lambda cls: st.builds(cls, **{f.name: children for f in dataclasses.fields(cls)})
    )


_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(_floats, max_size=8),
        st.lists(_floats, max_size=8).map(tuple),
        st.lists(st.text(max_size=5), max_size=5),
        st.dictionaries(_keys, children, max_size=5),
        _report(children),
    ),
    max_leaves=25,
)


class _Int(int):
    def __repr__(self):
        return "an int"

    __str__ = __repr__


class _Float(float):
    __repr__ = __str__ = _Int.__repr__


class _Str(str):
    __repr__ = __str__ = _Int.__repr__


def _assert_same(payload, kind="report"):
    try:
        expected = reference_json_text(payload, kind)
    except TypeError:
        with pytest.raises(TypeError):
            to_json_text(payload, kind)
        return
    assert to_json_text(payload, kind) == expected


class TestMatchesJsonModule:
    @_PROPERTY
    @given(_values, st.sampled_from(["report", "da_check", 'a "kind"']))
    def test_any_payload(self, payload, kind):
        _assert_same(payload, kind)

    @pytest.mark.parametrize("value", EDGE_FLOATS + EDGE_STRINGS + [2**63, -(2**64), True, False, None],
                             ids=repr)
    def test_edge_scalar(self, value):
        for payload in (value, [value], (1.0, value), {"x": value, "y": [value, value]}, [[value]]):
            _assert_same(payload)

    @pytest.mark.parametrize("payload", [
        [], (), {}, [[]], [{}], {"a": {}}, {"a": []}, {"value": 1}, {"kind": 1.5, "schema_version": [1]},
        [np.float64(0.1), np.float64(math.inf), np.float64(-0.0)], (np.float64(math.nan),),
        {"b": 1, "a": 2, "c": {"z": (1, 2.5), "y": "s"}},
        [_Int(7), _Float(0.5), _Float(math.inf), _Str("s")], [_Float(0.25)], (_Str("t"),), {_Str("k"): _Int(1)},
    ], ids=repr)
    def test_containers(self, payload):
        _assert_same(payload)

    @pytest.mark.parametrize("payload", [
        {1: "a", 10: "b", 2: "c"}, {1.5: 0, -0.0: 1, math.inf: 2, math.nan: 3}, {True: 1, False: 0}, {None: 2},
        {(1, 2): 3}, {1: 1, "a": 2},
    ], ids=repr)
    def test_non_string_keys(self, payload):
        _assert_same({"nested": payload})

    @pytest.mark.parametrize("value", [np.int64(3), np.float32(0.5), np.bool_(True), {1, 2}, object(), ApproxReport],
                             ids=repr)
    def test_unserializable_value_raises_type_error(self, value):
        with pytest.raises(TypeError):
            reference_json_text({"x": value}, "report")
        with pytest.raises(TypeError):
            to_json_text({"x": value}, "report")

    def test_lazy_variance_is_read(self):
        losses = [0.5, 1.25, 3.0, 0.0]
        text = to_json_text(summarize(from_losses(losses)), "summary")
        assert text == reference_json_text(summarize(from_losses(losses)), "summary")
        assert json.loads(text)["variance"] == summarize(from_losses(losses)).variance

    def test_payload_is_not_changed(self):
        payload = {"kind": "mine", "values": [1.0, math.inf]}
        to_json_text(payload, "report")
        assert payload == {"kind": "mine", "values": [1.0, math.inf]}


@pytest.mark.parametrize("name", sorted(name for name, (_, out) in CASES.items() if out == "out.json"))
def test_every_command_report_matches(name, tmp_path, monkeypatch):
    """Each payload the commands render gives the reference's text."""
    rendered = []

    def recording(payload, kind):
        text = to_json_text(payload, kind)
        rendered.append((payload, kind, text))
        return text

    monkeypatch.setattr(serialize, "to_json_text", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([*case_argv(name, tmp_path), "--output", str(tmp_path / CASES[name][1])]) == 0
    assert rendered
    for payload, kind, text in rendered:
        assert text == reference_json_text(payload, kind)


def test_reports_to_csv_writes_one_row_per_report():
    evals = [RateEvaluation(0.1, 0.5, 2.0, False), RateEvaluation(0.3, math.inf, math.inf, True)]
    assert reports_to_csv(evals) == (
        "# columns: a,value,lambda_star,saturated\na,value,lambda_star,saturated\n"
        "0.10000000000000001,0.5,2,false\n0.29999999999999999,inf,inf,true\n"
    )
    assert reports_to_csv([{"b": 1, "a": 2.5}]) == "# columns: a,b\na,b\n2.5,1\n"
