"""Dataset ingestion, validation, summaries, and augmentation-group algebra."""

import copy
import csv
import dataclasses
import io
import json
import math
import os
import pickle
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratefn import (
    DatasetSummary,
    EmptyDataset,
    LossDataset,
    LossRecord,
    MissingGroupId,
    ModelMeta,
    ParseError,
    UnequalGroupsWarning,
    UnknownSampleId,
    ValidationError,
    compose_augmented,
    da_inequality_check,
    dump_dataset,
    from_losses,
    load_dataset,
    reduce_augmented,
    summarize,
)
from ratefn import loss_data
from ratefn.errors import InvalidMeta

LN2 = math.log(2.0)


def _no_row_reader(*args):
    raise AssertionError("read row by row")


def _packed(ds):
    """Whether ``ds`` holds its sample ids as one plain newline-joined string
    without offsets, as a loader or an expansion builds them."""
    ids = ds._sample_ids
    return type(ids) is loss_data._SampleIds and type(ids.text) is str and ids.ends is None


class TestLoading:
    def test_csv_three_rows(self, tmp_path):
        path = tmp_path / "losses.csv"
        path.write_text("sample_id,loss\ns1,0.7\ns2,0.7\ns3,0.7\n")
        ds = load_dataset(path, "csv")
        assert len(ds) == 3
        assert [r.loss for r in ds] == [0.7, 0.7, 0.7]
        assert ds.model_id == "losses"

    def test_negative_loss_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sample_id,loss\ns1,0.5\ns2,-0.1\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_dataset(path, "csv")

    def test_nan_loss_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sample_id,loss\ns1,nan\n")
        with pytest.raises(ValidationError, match="line 2"):
            load_dataset(path, "csv")

    def test_malformed_number_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sample_id,loss\ns1,oops\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path, "csv")

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,value\ns1,0.5\n")
        with pytest.raises(ParseError, match="line 1"):
            load_dataset(path, "csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("sample_id,loss\n")
        with pytest.raises(EmptyDataset):
            load_dataset(path, "csv")

    def test_csv_with_grad_norm_column(self, tmp_path):
        path = tmp_path / "norms.csv"
        path.write_text("sample_id,loss,group_id,grad_norm_sq\ns1,0.5,g1,4.0\ns2,0.25,,\n")
        first, second = load_dataset(path, "csv")
        assert first.grad_norm_sq == 4.0
        assert first.group_id == "g1"
        assert second.grad_norm_sq is None
        assert second.group_id is None

    def test_jsonl_groups_and_vectors(self, tmp_path):
        path = tmp_path / "losses.jsonl"
        path.write_text(
            '{"sample_id": "a", "loss": 0.5, "group_id": "g1", "grad_theta": [1.0, -1.0]}\n'
            '{"sample_id": "b", "loss": 0.25, "group_id": "g1", "grad_theta": [0.5, 0.5]}\n'
        )
        first, second = load_dataset(path, "jsonl")
        assert first.group_id == "g1"
        assert second.grad_theta == (0.5, 0.5)

    def test_jsonl_bad_line_number(self, tmp_path):
        path = tmp_path / "losses.jsonl"
        path.write_text('{"sample_id": "a", "loss": 0.5}\nnot json\n')
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path, "jsonl")

    def test_format_inferred_from_suffix(self, tmp_path):
        path = tmp_path / "losses.jsonl"
        path.write_text('{"sample_id": "a", "loss": 0.5}\n')
        assert len(load_dataset(path)) == 1

    def test_quoted_blank_and_crlf_rows_read_like_plain_rows(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("sample_id,loss,group_id\na,0.5,g1\nb,1_0,\nc,0.25,g2\n")
        other = tmp_path / "other.csv"
        other.write_bytes(b'sample_id,loss,group_id\r\n"a",0.5,g1\r\n\r\nb,1_0,\r\nc,0.25,"g2"\r\n')
        old_mac = tmp_path / "old_mac.csv"
        old_mac.write_bytes(b"sample_id,loss,group_id\ra,0.5,g1\rb,1_0,\rc,0.25,g2\r")
        a, b, c = load_dataset(plain), load_dataset(other), load_dataset(old_mac)
        assert tuple(a) == tuple(b) == tuple(c)
        assert a.losses.tolist() == [0.5, 10.0, 0.25]
        assert a.group_ids == ("g1", None, "g2")

    def test_first_bad_row_is_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sample_id,loss\ns1,0.5\ns2,-0.1\ns3,0.2\ns4,oops\n")
        with pytest.raises(ValidationError, match="line 3"):
            load_dataset(path, "csv")
        path.write_text("sample_id,loss\ns1,0.5\n\ns2,oops\ns3,-0.1\n")
        with pytest.raises(ParseError, match="line 4"):
            load_dataset(path, "csv")

    def test_dumped_csv_takes_the_fast_path(self, tmp_path, monkeypatch):
        ds = LossDataset(np.array([0.1, 0.0, 2.5, 0.3]), group_ids=["g1", "g1", None, "g2"],
                         grad_norm_sq=[1.0, None, 0.5, 2.0])
        path = tmp_path / "grouped.csv"
        dump_dataset(ds, path)
        assert path.read_bytes().count(b"\r\n") == 5  # the csv module's default line end
        monkeypatch.setattr(loss_data, "_read_csv_rows", _no_row_reader)
        assert tuple(load_dataset(path)) == tuple(ds)

    def test_lone_cr_and_quotes_are_read_row_by_row(self, tmp_path, monkeypatch):
        widths = []
        read_rows = loss_data._read_csv_rows

        def counted(lines, width, *args):
            widths.append(width)
            return read_rows(lines, width, *args)

        monkeypatch.setattr(loss_data, "_read_csv_rows", counted)
        path = tmp_path / "losses.csv"
        for body in (b"a,0.5\rb,1.5\r", b'a,0.5\r\n"b",1.5\r\n', b"a,0.5\r\nb,1.5\r\r\n"):
            path.write_bytes(b"sample_id,loss\r\n" + body)
            assert load_dataset(path).losses.tolist() == [0.5, 1.5]
        assert widths == [2, 2, 2]

    def test_row_with_an_extra_field_is_rejected(self, tmp_path):
        # The file holds as many commas as two well-formed rows, and its
        # fields parse as the losses [0.5, 1.2]; the per-row check rejects it.
        path = tmp_path / "bad.csv"
        path.write_text("sample_id,loss\ns0,0.5,0.7\n1.2")
        with pytest.raises(ParseError, match="^line 2: expected 2 fields, got 3$"):
            load_dataset(path, "csv")

    def test_multibyte_ids_take_the_fast_path(self, tmp_path, monkeypatch):
        path = tmp_path / "ids.csv"
        path.write_text("sample_id,loss,group_id\nsé,0.5,g€\n\u00df,1.5,\n", encoding="utf-8")
        monkeypatch.setattr(loss_data, "_read_csv_rows", _no_row_reader)
        ds = load_dataset(path)
        assert ds.sample_ids == ("sé", "\u00df")
        assert ds.group_ids == ("g€", None)
        # Four commas, as in two good rows, but one and three per row.
        path.write_text("sample_id,loss,group_id\nsé,0.5\n\u00df,1.5,g€,\n", encoding="utf-8")
        with pytest.raises(AssertionError, match="read row by row"):
            load_dataset(path)

    def test_jsonl_trailing_data_rejected(self, tmp_path):
        path = tmp_path / "losses.jsonl"
        path.write_text('{"sample_id": "a", "loss": 0.5}\n{"sample_id": "b", "loss": 0.5} 7\n')
        with pytest.raises(ParseError, match="line 2: invalid JSON: Extra data"):
            load_dataset(path, "jsonl")

    def test_round_trip_dump(self, tmp_path):
        ds = from_losses([0.1, 0.2, 0.3], group_ids=["g1", "g1", "g2"])
        for fmt, name in (("csv", "out.csv"), ("jsonl", "out.jsonl")):
            path = tmp_path / name
            dump_dataset(ds, path, format=fmt)
            back = load_dataset(path, fmt)
            assert [r.loss for r in back] == [r.loss for r in ds]
            assert [r.group_id for r in back] == ["g1", "g1", "g2"]


def _csv_writer_bytes(ds):
    """The bytes csv.writer writes for ``ds``'s columns, as dump_dataset writes them."""
    header, columns = ["sample_id", "loss"], [ds.sample_ids, [repr(v) for v in ds.losses.tolist()]]
    if ds.group_ids is not None or ds.grad_norm_sq is not None:
        header.append("group_id")
        columns.append(["" if g is None else g for g in ds.group_ids or [None] * len(ds)])
    if ds.grad_norm_sq is not None:
        header.append("grad_norm_sq")
        columns.append(["" if math.isnan(v) else repr(v) for v in ds.grad_norm_sq.tolist()])
    out = io.StringIO(newline="")
    csv.writer(out).writerows([header, *zip(*columns)])
    return out.getvalue().encode("utf-8")


class TestCsvWriter:
    """dump_dataset joins the fields itself when csv.writer would quote none
    of them, and writes the same bytes."""

    @pytest.mark.parametrize("ids, groups", [
        (["a", "b c", "", "é"], None),
        (["a", "b", "c", "d"], ["g", "", None, "h i"]),
        (["a,1", "b", "c", "d"], None),
        (["a", 'b"', "c", "d"], ["g", None, None, "g"]),
        (["a", "b", "c\r", "d"], None),
        (["a", "b", "c", "d\n"], ["g", "g", "g", "g"]),
        (["a\r\nb", "b", "c", "d"], None),
        (["a", "b", "c", "d"], ["g,h", "g", None, ""]),
        (["a", "b", "c", "d"], ['"', "g", None, ""]),
        (["a", "b", "c", "d"], ["\r", "g", "\n", "\r\n"]),
    ])
    @pytest.mark.parametrize("norms", [None, [1.5, None, 0.0, 2e-300]])
    def test_bytes_equal_csv_writers(self, tmp_path, monkeypatch, ids, groups, norms):
        ds = LossDataset(np.array([0.1, 0.0, 1e300, 2.5e-7]), sample_ids=ids, group_ids=groups, grad_norm_sq=norms)
        path = tmp_path / "out.csv"
        if "" in (groups or ()):
            _assert_empty_label_refused(ds, path)
            return
        expected = _csv_writer_bytes(ds)
        plain = not any(c in f for f in [*ids, *(g for g in groups or () if g)] for c in ',"\r\n')
        if plain:
            monkeypatch.setattr(loss_data.csv, "writer", None)  # joined without the csv module
        dump_dataset(ds, path)
        assert path.read_bytes() == expected
        monkeypatch.undo()
        if ds.group_ids is None and norms is None and plain:
            # Ids packed by the loader are written as they are.
            loaded = load_dataset(path)
            assert _packed(loaded)
            dump_dataset(loaded, path)
            assert path.read_bytes() == expected

    def test_rows_are_written_in_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(loss_data, "_FLOAT_BLOCK", 3)
        ds = from_losses(np.arange(10) / 3.0, group_ids=[f"g{i % 4}" for i in range(10)])
        path = tmp_path / "out.csv"
        dump_dataset(ds, path)
        assert path.read_bytes() == _csv_writer_bytes(ds)

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.tuples(st.text(max_size=5), st.none() | st.text(max_size=3),
                              st.none() | st.floats(0.0, 1e300)), min_size=1, max_size=8), st.booleans())
    def test_random_fields_equal_csv_writers(self, rows, with_norms):
        ids, groups, norms = map(list, zip(*rows))
        ds = LossDataset(np.arange(len(rows)) / 7.0, sample_ids=ids, group_ids=groups,
                         grad_norm_sq=norms if with_norms else None)
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "out.csv"
            if "" in groups:
                _assert_empty_label_refused(ds, path)
                return
            dump_dataset(ds, path)
            assert path.read_bytes() == _csv_writer_bytes(ds)

    def test_fields_csv_cannot_read_back_are_refused(self, tmp_path):
        # CSV reads an empty group field as no group, and every field as a string.
        path = tmp_path / "out.csv"
        _assert_empty_label_refused(from_losses([0.5, 1.5], group_ids=["", ""]), path)
        numbered = from_losses([0.5, 1.5, 2.5, 3.5], group_ids=[1, 1, 2, 2])
        quoted = LossDataset([0.5, 1.5], sample_ids=["a,b", "c"], group_ids=[1, 1])  # csv.writer's path
        for ds in (numbered, quoted):
            with pytest.raises(ValidationError, match="^group label 1 is not a string and does not fit CSV"):
                dump_dataset(ds, path)
        assert not path.exists()
        # Sample ids are strings: a reduction names each sample str(label),
        # and the constructor refuses an id that is not a string.
        assert reduce_augmented(numbered).sample_ids == ("1", "2")
        with pytest.raises(ValidationError, match=r"^record 1: sample id must be a string, got 1$"):
            LossDataset([0.5, 1.5], sample_ids=["a", 1])

    def test_jsonl_reads_back_what_csv_refuses(self, tmp_path):
        path = tmp_path / "out.jsonl"
        dump_dataset(from_losses([0.5, 1.5], group_ids=["", ""]), path, format="jsonl")
        assert reduce_augmented(load_dataset(path)).sample_ids == ("",)
        dump_dataset(reduce_augmented(from_losses([0.5, 1.5, 2.5, 3.5], group_ids=[1, 1, 2, 2])), path, format="jsonl")
        assert load_dataset(path).sample_ids == ("1", "2")


def _assert_empty_label_refused(ds, path):
    """An empty field reads back as no group, so dump_dataset refuses a "" label
    before it opens the file, on the joined and the csv.writer path alike."""
    with pytest.raises(ValidationError, match="^group label '' does not fit CSV, where an empty field is no group; "
                                              "use jsonl$"):
        dump_dataset(ds, path)
    assert not path.exists()


class TestValidation:
    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            LossDataset([])

    def test_negative_loss(self):
        with pytest.raises(ValidationError):
            from_losses([0.5, -0.01])

    def test_gradient_length_mismatch(self):
        with pytest.raises(ValidationError):
            LossDataset([0.5, 0.5], sample_ids=["a", "b"], grad_theta=[(1.0, 2.0), (1.0,)])

    def test_partial_gradients_rejected(self):
        with pytest.raises(ValidationError):
            LossDataset([0.5, 0.5], sample_ids=["a", "b"], grad_theta=[(1.0,), None])

    def test_non_finite_grad_theta_rejected(self):
        losses = np.array([0.5, 0.7, 0.9])
        for vectors in ([[1.0, 2.0], [3.0, math.inf], [math.nan, 0.0]],
                        np.array([[1.0, 2.0], [3.0, -math.inf], [math.nan, 0.0]])):
            with pytest.raises(ValidationError, match=r"record 1 \('s1'\): grad_theta values must be finite"):
                LossDataset(losses.copy(), grad_theta=vectors)

    def test_jsonl_overflowing_grad_theta_rejected(self, tmp_path):
        path = tmp_path / "grads.jsonl"
        path.write_text('{"sample_id": "a", "loss": 0.5, "grad_theta": [1e999999]}\n')
        with pytest.raises(ValidationError, match=r"record 0 \('a'\): grad_theta values must be finite"):
            load_dataset(path)

    @pytest.mark.parametrize("fields, error, match", [
        # An integer beyond the float range reads inf, as it does for the loss.
        ('"loss": 1%s' % ("0" * 400), ValidationError, "line 1: loss must be finite"),
        ('"loss": -1%s' % ("0" * 400), ValidationError, "line 1: loss must be finite"),
        ('"loss": 0.5, "grad_norm_sq": 1%s' % ("0" * 400), ValidationError,
         r"record 0 \('a'\): grad_norm_sq must be finite"),
        ('"loss": 0.5, "grad_theta": [1.0, -1%s]' % ("0" * 400), ValidationError,
         r"record 0 \('a'\): grad_theta values must be finite"),
        # Booleans and strings are not numbers in any of the three fields.
        ('"loss": true', ParseError, "line 1: 'loss' must be a number, got True"),
        ('"loss": 0.5, "grad_norm_sq": true', ParseError, "line 1: 'grad_norm_sq' must be a number, got True"),
        ('"loss": 0.5, "grad_norm_sq": "1.5"', ParseError, "line 1: 'grad_norm_sq' must be a number, got '1.5'"),
        ('"loss": 0.5, "grad_theta": [1.0, false]', ParseError,
         "line 1: each 'grad_theta' value must be a number, got False"),
        ('"loss": 0.5, "grad_theta": 1.0', ParseError, "line 1: 'grad_theta' must be an array of numbers"),
    ])
    def test_jsonl_numbers_share_one_check(self, tmp_path, fields, error, match):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"sample_id": "a", %s}\n' % fields)
        with pytest.raises(error, match=match) as raised:
            load_dataset(path)
        # A 401-digit integer is not quoted back in full.
        assert len(str(raised.value)) <= 80, str(raised.value)

    def test_jsonl_integer_annotations_load_as_floats(self, tmp_path):
        path = tmp_path / "ints.jsonl"
        path.write_text('{"sample_id": "a", "loss": 1, "grad_norm_sq": 2, "grad_theta": [3, -4]}\n')
        ds = load_dataset(path)
        assert ds.losses.tolist() == [1.0]
        assert ds.grad_norm_sq.tolist() == [2.0]
        assert ds.grad_theta.tolist() == [[3.0, -4.0]]

    def test_first_faulty_record_is_reported(self):
        with pytest.raises(ValidationError, match=r"record 0 \('a'\): grad_norm_sq"):
            LossDataset([0.5, -0.5], sample_ids=["a", "b"], grad_norm_sq=[-1.0, 1.0])

    def test_model_meta(self):
        ModelMeta(10, 1000, 0.05)
        for bad in (
            dict(param_count=0, train_size=1, delta=0.5),
            dict(param_count=1, train_size=0, delta=0.5),
            dict(param_count=1, train_size=1, delta=0.0),
            dict(param_count=1, train_size=1, delta=1.0),
            dict(param_count=1, train_size=1, delta=0.5, epsilon=-1.0),
        ):
            with pytest.raises(InvalidMeta):
                ModelMeta(**bad)


class TestSummaries:
    def test_constant_dataset(self, constant_ds):
        s = summarize(constant_ds)
        assert s.count == 3
        assert s.empirical_loss == 0.7
        assert s.min_loss == 0.7
        assert s.min_loss_count == 3
        assert s.variance == 0.0

    def test_two_point_hand_values(self, two_point_ds):
        s = summarize(two_point_ds)
        assert s.count == 2
        np.testing.assert_allclose(s.empirical_loss, LN2 / 2, rtol=1e-15)
        assert s.min_loss == 0.0
        assert s.min_loss_count == 1
        np.testing.assert_allclose(s.variance, LN2**2 / 4, rtol=1e-15)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        losses = rng.uniform(0, 3, size=40)
        base = summarize(from_losses(losses))
        for _ in range(5):
            perm = summarize(from_losses(rng.permutation(losses)))
            assert perm == base

    def test_mean_never_below_min(self):
        s = summarize(from_losses([0.7] * 11))
        assert s.min_loss <= s.empirical_loss

    def test_tie_tolerance(self):
        s = summarize(from_losses([0.5, 0.5 + 1e-13, 0.6]))
        assert s.min_loss_count == 2

    def test_overflowing_variance_is_infinite(self):
        s = summarize(from_losses(1e300 * np.array([0.0, 0.3, 1.0, 2.5])))
        assert s.variance == math.inf
        assert s.empirical_loss == math.fsum([0.0, 0.3e300, 1e300, 2.5e300]) / 4

    def test_overflowing_sum_rejected(self):
        with pytest.raises(ValidationError, match="sum of the losses overflows float64"):
            summarize(from_losses([1.5e308, 1.5e308]))


def _loop_summary(values):
    """The summary's definition as a plain loop over Python floats."""
    count = len(values)
    mean = max(math.fsum(values) / count, min(values))
    lo = min(values)
    ties = sum(1 for v in values if v - lo <= 1e-12)
    variance = 0.0 if ties == count else math.fsum((v - mean) ** 2 for v in values) / count
    return count, mean, lo, ties, variance


class TestColumnarDataset:
    def test_losses_are_read_only_and_cached(self, two_point_ds):
        assert two_point_ds.losses is two_point_ds.losses
        assert not two_point_ds.losses.flags.writeable
        with pytest.raises(ValueError):
            two_point_ds.losses[0] = 1.0

    def test_summary_is_cached(self, two_point_ds):
        assert summarize(two_point_ds) is summarize(two_point_ds)

    def test_from_losses_copies_its_input(self):
        values = np.array([0.5, 1.5])
        ds = from_losses(values)
        values[0] = 9.0
        assert ds.losses.tolist() == [0.5, 1.5]
        assert values.flags.writeable

    @pytest.mark.parametrize("block", [1, 1 << 13])
    def test_iteration_equals_the_columns(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(loss_data, "_FLOAT_BLOCK", block)
        path = tmp_path / "full.jsonl"
        path.write_text(
            '{"sample_id": "a", "loss": 0.5, "group_id": "g1", "grad_norm_sq": 4.0, "grad_theta": [1, -1]}\n'
            '{"sample_id": "b", "loss": 0.25, "group_id": null, "grad_theta": [0.5, 0.5]}\n'
        )
        full = load_dataset(path)
        assert list(full) == [LossRecord("a", 0.5, "g1", 4.0, (1.0, -1.0)),
                              LossRecord("b", 0.25, None, None, (0.5, 0.5))]
        assert pickle.loads(pickle.dumps(full)) == copy.deepcopy(full) == full
        grouped = from_losses(np.arange(5.0), group_ids=["a", None, "b", "a", None])
        normed = LossDataset([0.5, 1.5, 2.5], sample_ids=["x", "y", "z"], grad_norm_sq=np.array([np.nan, 1.0, np.nan]))
        for ds in (full, from_losses([0.3, 0.0, 0.3]), grouped, normed):
            count = len(ds)
            groups = ds.group_ids or [None] * count
            norms = [None] * count if ds.grad_norm_sq is None else [
                None if math.isnan(v) else v for v in ds.grad_norm_sq.tolist()]
            vectors = [None] * count if ds.grad_theta is None else [tuple(v) for v in ds.grad_theta.tolist()]
            expected = [LossRecord(*row) for row in zip(ds.sample_ids, ds.losses.tolist(), groups, norms, vectors)]
            assert list(ds) == expected

    def test_iteration_builds_each_record_afresh_and_keeps_none(self):
        ds = LossDataset([0.5, 1.5], sample_ids=["a", "b"], group_ids=["g", None], grad_norm_sq=[1.0, None],
                         grad_theta=[[1.0], [2.0]])
        slots = {name: getattr(ds, name) for name in LossDataset.__slots__}
        first, second = list(ds), list(ds)
        assert first == second and all(a is not b for a, b in zip(first, second))
        assert all(getattr(ds, name) is value for name, value in slots.items())

    def test_iteration_leaves_group_ids_unset(self):
        ds = from_losses(np.arange(4.0), group_ids=["a", None, "b", "a"])
        assert [r.group_id for r in ds] == ["a", None, "b", "a"]
        assert ds._group_ids is None

    def test_summary_matches_python_loop_bit_for_bit(self):
        # (v - mean) ** 2 rounds differently from (v - mean) * (v - mean), which
        # is what numpy's ** 2 computes, for this element under glibc's pow.
        losses = [0.0, 2.6321290821318515]
        deviation = losses[1] - math.fsum(losses) / 2
        assert deviation ** 2 != deviation * deviation
        s = summarize(from_losses(losses))
        got = (s.count, s.empirical_loss, s.min_loss, s.min_loss_count, s.variance)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in _loop_summary(losses)]

    def test_summary_matches_python_loop_on_a_sample(self):
        losses = np.random.default_rng(3).exponential(1.0, 5000).tolist()
        s = summarize(from_losses(losses))
        got = (s.count, s.empirical_loss, s.min_loss, s.min_loss_count, s.variance)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in _loop_summary(losses)]

    def test_summary_over_many_float_blocks_matches_the_loop(self, monkeypatch):
        monkeypatch.setattr(loss_data, "_FLOAT_BLOCK", 7)
        losses = np.random.default_rng(4).exponential(1.0, 500).tolist()
        s = summarize(from_losses(losses))
        got = (s.count, s.empirical_loss, s.min_loss, s.min_loss_count, s.variance)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in _loop_summary(losses)]

    def test_signed_zero_minimum_is_the_first_one(self):
        for losses in ([0.5, -0.0, 0.0, 1.0], [0.0, -0.0, 1.0], [2.0, 0.0, -0.0], [-0.0, -0.0]):
            s = summarize(from_losses(losses))
            assert s.min_loss.hex() == min(losses).hex()
            assert math.copysign(1.0, s.min_loss) == math.copysign(1.0, min(losses))

    def test_variance_is_computed_on_first_read(self, variance_calls):
        losses = np.random.default_rng(11).exponential(1.0, 300).tolist()
        s = summarize(from_losses(losses))
        assert variance_calls == []
        assert "variance" not in vars(s)
        assert s.variance == s.variance == _loop_summary(losses)[4]
        assert len(variance_calls) == 1
        assert "_losses" not in vars(s)

    def test_lazy_summary_pickles_and_prints_as_a_plain_one(self):
        losses = np.random.default_rng(12).exponential(1.0, 300).tolist()
        plain = DatasetSummary(*_loop_summary(losses))
        for read_first in (False, True):
            s = summarize(from_losses(losses))
            if read_first:
                assert s.variance == plain.variance
            assert pickle.dumps(s) == pickle.dumps(plain)
            assert dataclasses.asdict(summarize(from_losses(losses))) == dataclasses.asdict(plain)
            assert repr(summarize(from_losses(losses))) == repr(plain)
            assert summarize(from_losses(losses)) == plain
            assert hash(summarize(from_losses(losses))) == hash(plain)
            assert copy.deepcopy(s) == plain
        with pytest.raises(AttributeError, match="no attribute 'mean'"):
            summarize(from_losses(losses)).mean


class TestReduceAugmented:
    def test_two_sample_group_mean(self):
        ds = from_losses([1.0, 3.0], group_ids=["g1", "g1"])
        reduced = reduce_augmented(ds)
        assert len(reduced) == 1
        (record,) = reduced
        assert record.sample_id == "g1"
        assert record.loss == 2.0

    def test_singleton_groups_preserve_multiset(self):
        ds = from_losses([0.3, 0.1, 0.2], group_ids=["a", "b", "c"])
        reduced = reduce_augmented(ds)
        assert sorted(r.loss for r in reduced) == [0.1, 0.2, 0.3]

    def test_hand_groups(self):
        ds = from_losses([0.0, LN2, LN2, LN2], group_ids=["g1", "g1", "g2", "g2"])
        reduced = reduce_augmented(ds)
        by_group = {r.sample_id: r.loss for r in reduced}
        np.testing.assert_allclose(by_group["g1"], LN2 / 2, rtol=1e-15)
        np.testing.assert_allclose(by_group["g2"], LN2, rtol=1e-15)

    def test_missing_group_id(self):
        ds = from_losses([0.1, 0.2], group_ids=["g1", "g1"])
        bare = from_losses([0.1, 0.2])
        reduce_augmented(ds)
        with pytest.raises(MissingGroupId):
            reduce_augmented(bare)

    def test_unequal_sizes_warn_and_average(self):
        ds = from_losses([0.0, 1.0, 1.0], group_ids=["g1", "g1", "g2"])
        with pytest.warns(UnequalGroupsWarning):
            reduced = reduce_augmented(ds)
        by_group = {r.sample_id: r.loss for r in reduced}
        assert by_group == {"g1": 0.5, "g2": 1.0}

    def test_blocks_of_groups_give_each_group_its_fsum_mean(self, monkeypatch):
        rng = np.random.default_rng(9)
        labels = [f"g{k}" for k, size in enumerate(rng.integers(1, 20, 60)) for _ in range(size)]
        labels = [labels[i] for i in rng.permutation(len(labels))]
        losses = rng.exponential(1.0, len(labels)).tolist()
        expected = {g: math.fsum(v for v, h in zip(losses, labels) if h == g) / labels.count(g)
                    for g in dict.fromkeys(labels)}
        for block in (1, 5, 16, 1 << 13):
            monkeypatch.setattr(loss_data, "_FLOAT_BLOCK", block)
            with pytest.warns(UnequalGroupsWarning):
                reduced = reduce_augmented(from_losses(losses, group_ids=labels))
            assert reduced.sample_ids == tuple(expected)
            assert [v.hex() for v in reduced.losses.tolist()] == [v.hex() for v in expected.values()]

    def test_grand_mean_preserved_equal_sizes(self):
        # dyadic losses keep both summation orders exact
        losses = [0.25, 0.75, 0.5, 1.0, 0.125, 0.375]
        ds = from_losses(losses, group_ids=["g1", "g1", "g2", "g2", "g3", "g3"])
        assert summarize(reduce_augmented(ds)).empirical_loss == summarize(ds).empirical_loss

    @pytest.mark.parametrize("block", [1, 1 << 13])
    def test_overflowing_group_sum_names_the_group(self, monkeypatch, block):
        monkeypatch.setattr(loss_data, "_FLOAT_BLOCK", block)
        ds = from_losses([0.5, 1.7e308, 0.5, 1.7e308, 1.0, 1.0], group_ids=["a", "big", "a", "big", "c", "c"])
        for check in (reduce_augmented, da_inequality_check):
            with pytest.raises(ValidationError, match="^the sum of the losses of group 'big' overflows float64$"):
                check(ds)

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.tuples(st.floats(0.0, 1e300), st.sampled_from(["a", "b", "c", "d\xe9", "e"])),
                    min_size=1, max_size=60),
           st.booleans(), st.sampled_from([1, 3, 8, 1 << 13]))
    def test_means_equal_a_per_group_fsum(self, rows, contiguous, block):
        # Interleaved labels take the sort by code; contiguous ones skip it.
        if contiguous:
            rows = sorted(rows, key=lambda row: row[1])
        losses, labels = [v for v, _ in rows], [g for _, g in rows]
        expected = {g: math.fsum(v for v, h in rows if h == g) / labels.count(g) for g in dict.fromkeys(labels)}
        with pytest.MonkeyPatch.context() as patched, warnings.catch_warnings():
            patched.setattr(loss_data, "_FLOAT_BLOCK", block)
            warnings.simplefilter("ignore", UnequalGroupsWarning)
            reduced = reduce_augmented(from_losses(losses, group_ids=labels))
        assert reduced.sample_ids == tuple(expected)
        assert [v.hex() for v in reduced.losses.tolist()] == [v.hex() for v in expected.values()]

    def test_min_loss_never_decreases(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            losses = rng.uniform(0, 2, size=12)
            groups = [f"g{i % 4}" for i in range(12)]
            ds = from_losses(losses, group_ids=groups)
            assert summarize(reduce_augmented(ds)).min_loss >= summarize(ds).min_loss


class TestComposeAugmented:
    def test_identity_map(self):
        ds = from_losses([0.1, 0.2], group_ids=["a", "b"])
        composed = compose_augmented(ds, {"s0": "a", "s1": "b"})
        assert [r.group_id for r in composed] == ["a", "b"]
        assert [r.loss for r in composed] == [0.1, 0.2]

    def test_full_collapse(self):
        ds = from_losses([0.25, 0.75, 0.5, 1.0])
        composed = compose_augmented(ds, {f"s{i}": "all" for i in range(4)})
        reduced = reduce_augmented(composed)
        assert len(reduced) == 1
        (record,) = reduced
        assert record.loss == summarize(ds).empirical_loss

    def test_unknown_sample_id(self):
        ds = from_losses([0.1, 0.2])
        with pytest.raises(UnknownSampleId):
            compose_augmented(ds, {"s0": "a"})

    def test_nested_two_level_equals_composed(self):
        # 4 records, inner pairs then outer pair: sequential reduction must
        # match reducing once over the composed labels when sizes are equal.
        losses = [0.25, 0.75, 0.5, 1.0]
        inner = from_losses(losses, group_ids=["i1", "i1", "i2", "i2"])
        once = reduce_augmented(inner)
        outer_map = {"i1": "o1", "i2": "o1"}
        twice = reduce_augmented(compose_augmented(once, outer_map))

        composed_labels = [outer_map["i1"], outer_map["i1"], outer_map["i2"], outer_map["i2"]]
        direct = reduce_augmented(from_losses(losses, group_ids=composed_labels))
        assert {r.sample_id: r.loss for r in twice} == {r.sample_id: r.loss for r in direct}


def test_each_record_is_immutable(two_point_ds):
    with pytest.raises(AttributeError):
        next(iter(two_point_ds)).loss = 1.0


def _csv_rows_dataset(path):
    """``path`` read by the csv-module row reader alone."""
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(loss_data, "_split_csv_chunk", lambda text, width: None)
        return load_dataset(path)


def _same_columns(a, b):
    assert a == b
    assert a.losses.tobytes() == b.losses.tobytes()
    assert a.sample_ids == b.sample_ids
    assert a.group_ids == b.group_ids
    for x, y in ((a.grad_norm_sq, b.grad_norm_sq), (a.grad_theta, b.grad_theta)):
        assert (x is None and y is None) or x.tobytes() == y.tobytes()


def _error_text(path, chunk_chars, monkeypatch):
    monkeypatch.setattr(loss_data, "_CHUNK_CHARS", chunk_chars)
    with pytest.raises((ParseError, ValidationError)) as raised:
        load_dataset(path)
    return f"{type(raised.value).__name__}: {raised.value}"


_CSV_ROWS = [f"s{i},{0.1 * i!r},{'g%d' % (i // 3) if i % 5 else ''},{'' if i % 4 else repr(i / 7)}"
             for i in range(40)]
_JSONL_ROWS = [f'{{"sample_id": "s{i}", "loss": {0.1 * i!r}, "group_id": "g{i // 3}"}}' for i in range(40)]


class TestChunkedLoading:
    """The loaders read a file ``_CHUNK_CHARS`` characters of whole lines at a
    time; set small, every chunk holds a line or two."""

    @pytest.mark.parametrize("end, trailing", [("\n", True), ("\r\n", True), ("\n", False), ("\r\n", False)])
    def test_csv_columns_equal_the_row_readers(self, tmp_path, monkeypatch, end, trailing):
        path = tmp_path / "grouped.csv"
        text = end.join(["sample_id,loss,group_id,grad_norm_sq", *_CSV_ROWS]) + (end if trailing else "")
        path.write_bytes(text.encode())
        expected = _csv_rows_dataset(path)
        monkeypatch.setattr(loss_data, "_read_csv_rows", _no_row_reader)
        for chunk_chars in range(1, 90, 7):
            monkeypatch.setattr(loss_data, "_CHUNK_CHARS", chunk_chars)
            ds = load_dataset(path)
            assert _packed(ds)
            _same_columns(ds, expected)
        # Group labels are shared across chunks: one object per distinct label.
        assert len({id(g) for g in ds.group_ids if g is not None}) == len(set(ds.group_ids) - {None})

    @pytest.mark.parametrize("end, trailing", [("\n", True), ("\r\n", True), ("\n", False)])
    def test_jsonl_columns_equal_a_single_chunk_read(self, tmp_path, monkeypatch, end, trailing):
        rows = list(_JSONL_ROWS)
        rows[7] = '{"sample_id": "s7", "loss": 0.5, "grad_norm_sq": 2.0, "group_id": null}'
        rows[31] = '{"sample_id": "line\\nbreak", "loss": 0.25, "grad_norm_sq": 0}'
        rows[20] = ""  # a blank line
        path = tmp_path / "grouped.jsonl"
        path.write_bytes((end.join(rows) + (end if trailing else "")).encode())
        expected = load_dataset(path)
        assert expected.sample_ids[30] == "line\nbreak"  # after the blank line, row 31 is sample 30
        assert expected.grad_norm_sq[7] == 2.0 and expected.grad_norm_sq[30] == 0.0
        for chunk_chars in range(1, 200, 13):
            monkeypatch.setattr(loss_data, "_CHUNK_CHARS", chunk_chars)
            _same_columns(load_dataset(path), expected)
        assert len({id(g) for g in expected.group_ids if g is not None}) == len(set(expected.group_ids) - {None})

    def test_jsonl_annotations_first_present_in_a_later_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(loss_data, "_CHUNK_CHARS", 1)
        path = tmp_path / "late.jsonl"
        path.write_text("\n".join(_JSONL_ROWS[:5] + ['{"sample_id": "x", "loss": 1.0, "grad_norm_sq": 3.0}']) + "\n")
        ds = load_dataset(path)
        assert np.array_equal(ds.grad_norm_sq, [np.nan] * 5 + [3.0], equal_nan=True)
        assert ds.grad_theta is None
        path.write_text("\n".join(_JSONL_ROWS[:2] + ['{"sample_id": "x", "loss": 1.0, "grad_theta": [1.0]}']) + "\n")
        with pytest.raises(ValidationError, match="grad_theta must be present on all records or none"):
            load_dataset(path)

    @pytest.mark.parametrize("odd_row", ['"s25",0.5,"g1",', "", '"s25",0.5,"g\n1",'])
    def test_csv_quote_or_blank_line_in_a_later_chunk_reads_rows_from_that_chunk_on(self, tmp_path, monkeypatch,
                                                                                     odd_row):
        rows = list(_CSV_ROWS)
        rows[25] = odd_row
        path = tmp_path / "odd.csv"
        path.write_text("\n".join(["sample_id,loss,group_id,grad_norm_sq", *rows]) + "\n")
        expected = _csv_rows_dataset(path)
        read_rows, rows_read = loss_data._read_csv_rows, {}

        def counted(lines, width, lineno, losses):
            rest = list(lines)
            rows_read[loss_data._CHUNK_CHARS] = (len(list(csv.reader(rest))), lineno + 1)
            return read_rows(rest, width, lineno, losses)

        monkeypatch.setattr(loss_data, "_read_csv_rows", counted)
        for chunk_chars in (1, 5, 17, 60, 300, 1 << 30):
            monkeypatch.setattr(loss_data, "_CHUNK_CHARS", chunk_chars)
            _same_columns(load_dataset(path), expected)
        # Rows are read from the line of the chunk that holds the odd row on,
        # a line per row before it; one chunk reads them all.
        assert rows_read[1] == (15, 27)
        assert rows_read[1 << 30] == (40, 2)
        for count, first_line in rows_read.values():
            assert first_line <= 27 and count == 40 - (first_line - 2)

    @pytest.mark.parametrize("odd_row", ['"s25",-0.5,"g1",', '"s25",0.5,"g1"', '"s25",0.5,"g1",-1',
                                         "s25,0.5,g1,\r", '"s25,0.5,g1,\ns26,0.5,g1,', '"s""25",oops,,'])
    def test_csv_fault_after_a_quote_is_reported_as_in_one_chunk(self, tmp_path, monkeypatch, odd_row):
        rows = list(_CSV_ROWS)
        rows[25] = odd_row
        rows[31] = "s31,-1,,"
        path = tmp_path / "odd.csv"
        path.write_text("\n".join(["sample_id,loss,group_id,grad_norm_sq", *rows]) + "\n")
        whole = _error_text(path, 1 << 30, monkeypatch)
        for chunk_chars in range(1, 120, 5):
            assert _error_text(path, chunk_chars, monkeypatch) == whole

    @pytest.mark.parametrize("bad_row", [
        "s25,-0.5,g1,", "s25,oops,g1,", "s25,0.5,g1,nan", "s25,0.5,g1,-1.0", "s25,0.5,g1", "s25,0.5,g1,,",
        "s25,0.5\r,g1,", "s25,inf,,",
        "s25,0.5\ng1,",  # two short lines whose commas and newlines line up as one row's
    ])
    def test_csv_fault_in_any_chunk_is_reported_as_in_one(self, tmp_path, monkeypatch, bad_row):
        rows = list(_CSV_ROWS)
        rows[25] = bad_row
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["sample_id,loss,group_id,grad_norm_sq", *rows]) + "\n")
        whole = _error_text(path, 1 << 30, monkeypatch)
        assert "line 27" in whole or "record 25 ('s25')" in whole, whole
        for chunk_chars in range(1, 120, 5):
            assert _error_text(path, chunk_chars, monkeypatch) == whole

    @pytest.mark.parametrize("bad_row", [
        '{"sample_id": "s25", "loss": -0.5}', '{"sample_id": "s25", "loss": 0.5', '[1, 2]',
        '{"sample_id": "s25"}', '{"sample_id": "s25", "loss": 0.5, "grad_norm_sq": -1}',
        '{"sample_id": "s25", "loss": -1%s}' % ("0" * 400),
    ])
    def test_jsonl_fault_in_any_chunk_is_reported_as_in_one(self, tmp_path, monkeypatch, bad_row):
        rows = list(_JSONL_ROWS)
        rows[25] = bad_row
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(rows) + "\n")
        whole = _error_text(path, 1 << 30, monkeypatch)
        assert "line 26" in whole or "record 25" in whole, whole
        for chunk_chars in range(1, 300, 11):
            assert _error_text(path, chunk_chars, monkeypatch) == whole

    def test_loaded_dataset_survives_pickle_and_copy(self, tmp_path, monkeypatch):
        monkeypatch.setattr(loss_data, "_CHUNK_CHARS", 30)
        path = tmp_path / "grouped.csv"
        path.write_text("\n".join(["sample_id,loss,group_id,grad_norm_sq", *_CSV_ROWS]) + "\n")
        ids = tuple(row.split(",")[0] for row in _CSV_ROWS)
        for copied in (pickle.loads(pickle.dumps(load_dataset(path))), copy.copy(load_dataset(path)),
                       copy.deepcopy(load_dataset(path))):
            assert _packed(copied)  # still packed
            assert copied == load_dataset(path)
            assert copied.sample_ids == ids
            _same_columns(copied, _csv_rows_dataset(path))


def _load_outcome(path):
    """What ``load_dataset(path)`` gives: every column's values and bits, or the error."""
    try:
        ds = load_dataset(path)
    except (EmptyDataset, ParseError, ValidationError) as exc:
        return f"{type(exc).__name__}: {exc}"
    optional = [None if c is None else (c.shape, c.tobytes()) for c in (ds.grad_norm_sq, ds.grad_theta)]
    return ds.losses.tobytes(), ds.sample_ids, ds.group_ids, optional


def _per_line_outcome(path, monkeypatch):
    """``_load_outcome`` with every chunk parsed line by line."""
    with monkeypatch.context() as patched:
        patched.setattr(loss_data, "_split_jsonl_chunk", lambda text: None)
        patched.setattr(loss_data, "_CHUNK_CHARS", 1 << 18)
        return _load_outcome(path)


def _column_chunks(monkeypatch):
    """The chunks the JSONL column path accepts, as they are split."""
    accepted, split = [], loss_data._split_jsonl_chunk

    def counted(text):
        columns = split(text)
        if columns is not None:
            accepted.append(text)
        return columns

    monkeypatch.setattr(loss_data, "_split_jsonl_chunk", counted)
    return accepted


# The two layouts json.dumps writes, then lines the column path must decline.
_DUMPED_LINES = [
    '{"sample_id": "a", "loss": 0.5}',
    '{"sample_id": "b", "loss": 0, "group_id": "g"}',
    '{"sample_id": "", "loss": 1E+2, "group_id": ""}',
    '{"sample_id": "\xe9 \u2028\x85 \U0001f600,", "loss": 1.5e-3, "group_id": "\xa0"}',
    '{"sample_id": "s", "loss": 1e-400}',
    '{"sample_id": "s", "loss": 0e0}',
    '{"sample_id": "s", "loss": 10.25e05, "group_id": "{}"}',
    '{"sample_id": "s", "loss": 5e-324}',
    '{"sample_id": "s", "loss": %s}' % ("9" * 300),
]
_DECLINED_LINES = [
    *('{"sample_id": "s", "loss": %s}' % number for number in (
        "01", "00", "1.", ".5", "1.e5", "-0", "-0.0", "+1", "1e400", "1" + "0" * 400, "NaN", "Infinity",
        "1_0", "1e", "1e+", "0x1", "1.5.5", "1e5.5", "1-2", "", " 1", "1 ")),
    '{"sample_id": "a\\u00e9", "loss": 0.5}',
    '{"sample_id": "a\\"b", "loss": 0.5}',
    '{"sample_id": "a\\\\b", "loss": 0.5}',
    '{"sample_id": "a\tb", "loss": 0.5}',
    '{"loss": 0.5, "sample_id": "a"}',
    '{"sample_id":"a","loss":0.5}',
    '{"sample_id": "a", "loss": 0.5 }',
    ' {"sample_id": "a", "loss": 0.5}',
    '{"sample_id": "a", "loss": 0.5}  ',
    '{"sample_id": "a", "sample_id": "b", "loss": 0.5}',
    '{"sample_id": "a", "loss": 0.5, "loss": 0.25}',
    '{"sample_id": "a", "loss": 0.5, "grad_norm_sq": 1.0}',
    '{"sample_id": "a", "loss": 0.5, "group_id": "g", "grad_theta": [1.0]}',
    '{"sample_id": "a", "loss": 0.5, "group_id": null}',
    '{"sample_id": 7, "loss": 0.5}',
    '{"sample_id": "a", "loss": "0.5"}',
    '{"sample_id": "a", "loss": 0.5, "group_id": 3}',
    '{"sample_id": "a", "loss": 0.5',
    '{"sample_id": "a", "loss": 0.5}}',
    '["sample_id", "a", "loss", 0.5]',
    '{""""""', '{""""""""""', '{"sample_id": """"}', "\x0c", '\ufeff{"sample_id": "a", "loss": 0.5}',
    "",
]


def _dumped_line(sample_id, loss, group, ascii):
    row = {"sample_id": sample_id, "loss": loss}
    if group is not None:
        row["group_id"] = group
    return json.dumps(row, ensure_ascii=ascii)


_JSONL_LINES = st.one_of(
    st.builds(_dumped_line, st.text(max_size=6), st.floats(0.0, 1e300) | st.integers(0, 10 ** 30),
              st.none() | st.text(max_size=4), st.booleans()),
    st.builds('{{"sample_id": "x", "loss": {}{}}}'.format,
              st.sampled_from(["01", "1.", ".5", "-0", "-0.0", "1E+2", "1e400", "1" * 400, "NaN", "0", "2.5"]),
              st.sampled_from(["", ', "group_id": "g"', ', "group_id": ""'])),
    st.sampled_from(_DECLINED_LINES),
)


class TestJsonlColumnPath:
    """Chunks laid out as dump_dataset writes them are split into columns;
    every other chunk is parsed line by line, with the same results."""

    def _assert_same_as_per_line(self, path, monkeypatch, chunk_sizes=(1, 2, 7, 30, 64, 300, 1 << 18)):
        expected = _per_line_outcome(path, monkeypatch)
        for chunk_chars in chunk_sizes:
            monkeypatch.setattr(loss_data, "_CHUNK_CHARS", chunk_chars)
            assert _load_outcome(path) == expected, chunk_chars
        return expected

    @pytest.mark.parametrize("end", ["\n", ""])
    def test_dumped_layouts_take_the_column_path(self, tmp_path, monkeypatch, end):
        path = tmp_path / "dumped.jsonl"
        path.write_text("\n".join(_DUMPED_LINES) + end, encoding="utf-8")
        expected = _per_line_outcome(path, monkeypatch)
        accepted = _column_chunks(monkeypatch)
        monkeypatch.setattr(loss_data, "_CHUNK_CHARS", 1)
        assert _load_outcome(path) == expected
        assert len(accepted) == len(_DUMPED_LINES)  # a line per chunk, the last with or without its newline
        losses, ids, groups, _ = expected
        assert np.frombuffer(losses).tolist() == [0.5, 0.0, 100.0, 0.0015, 0.0, 0.0, 1025000.0, 5e-324,
                                                  float("9" * 300)]
        assert [ids, groups] == [tuple(json.loads(line).get(key) for line in _DUMPED_LINES)
                                 for key in ("sample_id", "group_id")]

    @pytest.mark.parametrize("line", _DECLINED_LINES)
    def test_other_lines_are_parsed_line_by_line(self, tmp_path, monkeypatch, line):
        path = tmp_path / "odd.jsonl"
        lines = [*_DUMPED_LINES[:3], line, *_DUMPED_LINES[3:]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        accepted = _column_chunks(monkeypatch)
        self._assert_same_as_per_line(path, monkeypatch)
        assert all(line not in text.split("\n")[:-1] for text in accepted)
        assert accepted  # the dumped lines around it still take the column path at small chunk sizes

    def test_quotes_are_counted_per_line(self, tmp_path, monkeypatch):
        # Ten quotes a line on average, and every fixed text in its place if
        # the second line's first quote were counted in the first line's row.
        path = tmp_path / "shifted.jsonl"
        path.write_text('{"sample_id": "a", "loss": 1, "group_id": "}\n'
                        '{"sample_id": "b"c", "loss": 1, "group_id": "g"}\n')
        accepted = _column_chunks(monkeypatch)
        assert self._assert_same_as_per_line(path, monkeypatch).startswith("ParseError: line 1: invalid JSON")
        assert accepted == []

    def test_chunks_that_mix_layouts_are_parsed_line_by_line(self, tmp_path, monkeypatch):
        path = tmp_path / "mixed.jsonl"
        path.write_text("\n".join(_DUMPED_LINES[:2]) + "\r\n" + "\n".join(_DUMPED_LINES[:2]) + "\n")
        accepted = _column_chunks(monkeypatch)
        expected = self._assert_same_as_per_line(path, monkeypatch, (1, 1 << 18))
        assert accepted == [line + "\n" for line in _DUMPED_LINES[:2] * 2]  # only the one-line chunks
        assert expected[2] == (None, "g", None, "g")

    def test_dump_dataset_rows_take_the_column_path(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        ds = LossDataset(rng.exponential(1.0, 3000) * 10.0 ** rng.integers(-300, 300, 3000),
                         sample_ids=[f"id {i} é," for i in range(3000)],
                         group_ids=[f"g{i % 7}" for i in range(3000)])
        path = tmp_path / "dumped.jsonl"
        dump_dataset(ds, path, format="jsonl")
        path.write_text(path.read_text().replace("\\u00e9", "é"), encoding="utf-8")
        accepted = _column_chunks(monkeypatch)
        expected = self._assert_same_as_per_line(path, monkeypatch, (1000, 1 << 18))
        assert "".join(accepted) == path.read_text(encoding="utf-8") * 2
        assert expected[0] == ds.losses.tobytes() and expected[1] == ds.sample_ids

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(st.lists(_JSONL_LINES, max_size=12), st.sampled_from(["\n", "\r\n"]), st.booleans())
    def test_random_files_load_as_line_by_line(self, lines, end, trailing):
        with pytest.MonkeyPatch.context() as monkeypatch, tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "random.jsonl")
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(end.join(lines) + (end if trailing else ""))
            self._assert_same_as_per_line(path, monkeypatch, (1, 13, 64, 300, 1 << 18))


def _row_reader_outcome(path, monkeypatch):
    """``_load_outcome`` of a CSV file read by the csv-module row reader alone."""
    with monkeypatch.context() as patched:
        patched.setattr(loss_data, "_split_csv_chunk", lambda text, width: None)
        patched.setattr(loss_data, "_CHUNK_CHARS", 1 << 18)
        return _load_outcome(path)


# By column (sample_id, loss, group_id, grad_norm_sq): plain fields, which
# the split path takes, and odd ones: separators, quotes, line breaks and NULs
# in ids and labels, numbers it must read as the row reader does or leave to
# it, and absent, bad or present norms.
_CSV_TEXT = st.text(alphabet="ab7 \xe9\u20ac\U0001f600", max_size=4)
_CSV_ODD_TEXT = st.sampled_from([",", '"', "\n", "\r", "\0", "a\rb", "\r\n", 'a"b', "\xe9,\n",
                                 "x" * (csv.field_size_limit() + 1), "\xe9" * csv.field_size_limit()])
_CSV_LOSS = st.floats(0.0, 1e300).map(repr)
_CSV_PLAIN = [_CSV_TEXT, _CSV_LOSS, _CSV_TEXT, st.sampled_from(["", "0.25"]) | _CSV_LOSS]
_CSV_ODD = [
    _CSV_ODD_TEXT,
    st.sampled_from(["0", "-0.0", "2.5e-3", "1_0", " 3", "-1", "nan", "inf", "1e400", "", "x", "\u0661"]),
    _CSV_ODD_TEXT,
    st.sampled_from(["nan", "-1", "inf", "1e400", "1_0", "-0.0", " "]),
]


@st.composite
def _csv_files(draw):
    """A CSV header of width 2 to 4 and a body in which one field, row or
    line end in ``rarity`` is odd (none when ``rarity`` is 0)."""
    width = draw(st.integers(2, 4))
    rarity = draw(st.sampled_from([0, 40, 20, 8, 2]))

    def odd():
        return rarity and draw(st.integers(1, rarity)) == 1

    lines = [",".join(("sample_id", "loss", "group_id", "grad_norm_sq")[:width])]
    for _ in range(draw(st.integers(0, 12))):
        if odd():  # a blank line, or one to three rows of 1 to 5 fields
            rows = [",".join(["0"] * draw(st.integers(1, 5))) for _ in range(draw(st.integers(1, 3)))]
            lines.extend([""] if draw(st.booleans()) else rows)
            continue
        fields = [draw(_CSV_ODD[k] if odd() else _CSV_PLAIN[k]) for k in range(width)]
        lines.append(",".join('"' + f.replace('"', '""') + '"' if odd() else f for f in fields))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) if odd() else end for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(line + e for line, e in zip(lines, ends))


class TestCsvSplitPath:
    def test_random_files_load_as_row_by_row(self, tmp_path, monkeypatch):
        accepted, split = [], loss_data._split_csv_chunk

        def counted(text, width):
            columns = split(text, width)
            accepted.append(columns is not None)
            return columns

        monkeypatch.setattr(loss_data, "_split_csv_chunk", counted)
        path = tmp_path / "random.csv"

        @settings(max_examples=200, deadline=None, database=None, derandomize=True)
        @given(_csv_files())
        def check(text):
            path.write_bytes(text.encode("utf-8"))
            expected = _row_reader_outcome(path, monkeypatch)
            for chunk_chars in (1, 13, 64, 300, 1 << 18):
                monkeypatch.setattr(loss_data, "_CHUNK_CHARS", chunk_chars)
                assert _load_outcome(path) == expected, chunk_chars

        check()
        # Both paths are taken often, so the files compare one with the other.
        assert 0.2 < sum(accepted) / len(accepted) < 0.9, sum(accepted) / len(accepted)


def _equal_record_by_record(a, b):
    """Dataset equality by its definition: the model id and the records."""
    return a.model_id == b.model_id and tuple(a) == tuple(b)


class TestEquality:
    def test_packed_and_spelled_out_ids(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("sample_id,loss\na,0.5\nb,1.5\n")
        built = LossDataset(np.array([0.5, 1.5]), model_id="m", sample_ids=["a", "b"])
        other = LossDataset(np.array([0.5, 1.5]), model_id="m", sample_ids=["a", "c"])
        newline = LossDataset(np.array([0.5, 1.5]), model_id="m", sample_ids=["a\nb", ""])
        numbered = tmp_path / "n" / "m.csv"
        numbered.parent.mkdir()
        numbered.write_text("sample_id,loss\ns0,0.5\ns1,1.5\n")

        def datasets():
            packed, spelled = load_dataset(path), load_dataset(path)
            spelled.sample_ids
            assert _packed(packed) and packed._id_tuple is None
            assert _packed(spelled) and spelled._id_tuple == ("a", "b")  # the tuple has its own slot
            defaults = LossDataset(np.array([0.5, 1.5]), model_id="m")
            return [packed, spelled, built, other, newline, load_dataset(numbered), defaults]

        expected = [[_equal_record_by_record(x, y) for y in datasets()] for x in datasets()]
        sets = datasets()
        assert [[x == y for y in sets] for x in sets] == expected
        assert expected[0] == [True, True, True, False, False, False, False]
        assert expected[5] == [False] * 5 + [True, True]
        assert _packed(sets[0]) and _packed(sets[5]) and sets[6]._sample_ids is None
        assert sets[0]._id_tuple is sets[5]._id_tuple is sets[6]._id_tuple is None  # not spelled out

    def test_columns_compare_as_record_tuples_do(self):
        base = dict(losses=[0.0, 0.5, 2.0], sample_ids=["a", "b", "c"])
        variants = [
            {},
            {"losses": [-0.0, 0.5, 2.0]},
            {"losses": [0.0, 0.5, 2.5]},
            {"model_id": "other"},
            {"sample_ids": ["a", "b", "d"]},
            {"group_ids": ["g", None, "g"]},
            {"group_ids": ["g", "h", "g"]},
            {"grad_norm_sq": [1.0, None, 0.0]},
            {"grad_norm_sq": np.array([1.0, np.nan, 0.0])},
            {"grad_norm_sq": np.array([1.0, np.nan, -0.0])},
            {"grad_norm_sq": [1.0, 2.0, 0.0]},
            {"grad_norm_sq": np.array([np.nan, np.nan, np.nan])},
            {"grad_theta": [[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]]},
            {"grad_theta": [[1.0, 2.0], [-0.0, 0.0], [3.0, 4.0]]},
            {"grad_theta": [[1.0, 2.0], [0.0, 1.0], [3.0, 4.0]]},
            {"grad_theta": [[1.0], [0.0], [3.0]]},
            {"grad_theta": np.zeros((3, 0))},
        ]
        sets = []
        for change in variants:
            kwargs = {**base, **change}
            sets.append(LossDataset(np.array(kwargs.pop("losses"), dtype=np.float64), **kwargs))
        for x in sets:
            for y in sets:
                assert (x == y) == _equal_record_by_record(x, y), (tuple(x), tuple(y))
        assert sets[0] == sets[1] and sets[7] == sets[8] == sets[9] and sets[0] == sets[11]
        assert sets[12] == sets[13] != sets[14]

    def test_reduced_integer_labels_compare_equal_to_loaded(self, tmp_path):
        # Reducing over integer labels names the samples "1" and "2", the ids
        # a JSONL round trip loads, so the two datasets are equal.
        reduced = reduce_augmented(from_losses([0.5, 1.5, 2.5, 3.5], model_id="r", group_ids=[1, 1, 2, 2]))
        path = tmp_path / "r.jsonl"
        dump_dataset(reduced, path, format="jsonl")
        loaded = load_dataset(path)
        assert reduced.sample_ids == loaded.sample_ids == ("1", "2")
        assert (reduced == loaded) is True and (loaded == reduced) is True
        assert [r.loss for r in loaded] == [r.loss for r in reduced]


# Sample ids with the characters CSV quotes, and any others.
_ID_TEXT = st.text(st.sampled_from(["a", "\n", "\r", ",", '"', "\xe9", "\U0001f600"]) | st.characters(), max_size=6)


class TestIdForms:
    """Sample ids are held packed, in one form: none for the default
    ``s0, s1, ...``, else one newline-joined string, with each id's end
    offset when an id holds a newline. Library walks read them a block at a
    time; only ``sample_ids`` spells them out, and keeps the tuple."""

    IDS = {"default": "s{}", "loaded": "p{}", "built": "t{}", "newline": "n\n{}"}

    def _dataset(self, form, tmp_path, count=20):
        losses = np.arange(count) / 4
        ids = [self.IDS[form].format(i) for i in range(count)]
        if form == "loaded":
            path = tmp_path / "packed.csv"
            path.write_text("sample_id,loss\n" + "".join(f"{sid},{v!r}\n" for sid, v in zip(ids, losses.tolist())))
            return load_dataset(path)
        return LossDataset(losses, model_id="packed", sample_ids=None if form == "default" else ids)

    @pytest.mark.parametrize("block", [1, 3, 1 << 13])
    @pytest.mark.parametrize("form", ["default", "loaded", "built", "newline"])
    def test_walks_keep_the_form(self, tmp_path, monkeypatch, form, block):
        monkeypatch.setattr(loss_data, "_FLOAT_BLOCK", block)
        ds = self._dataset(form, tmp_path)
        held = ds._sample_ids
        if form == "default":
            assert held is None
        else:
            assert type(held) is loss_data._SampleIds and (held.ends is None) == (form != "newline")
        ids = [self.IDS[form].format(i) for i in range(len(ds))]
        assert [r.sample_id for r in ds] == ids
        for fmt in ("csv", "jsonl"):
            path = tmp_path / "out" / f"dumped.{fmt}"
            path.parent.mkdir(exist_ok=True)
            dump_dataset(ds, path, format=fmt)
            assert load_dataset(path).sample_ids == tuple(ids)
        composed = compose_augmented(ds, {sid: f"o{k % 3}" for k, sid in enumerate(ids)})
        assert composed._sample_ids is ds._sample_ids
        assert composed.group_ids == tuple(f"o{k % 3}" for k in range(len(ds)))
        spelled = LossDataset(ds.losses, model_id=ds.model_id, sample_ids=ids)
        renamed = LossDataset(ds.losses, model_id=ds.model_id, sample_ids=ids[:-1] + ["other"])
        assert ds == spelled and spelled == ds and ds != renamed and renamed != ds
        for other in self.IDS:
            assert (ds == self._dataset(other, tmp_path)) == (other == form)
        copied = pickle.loads(pickle.dumps(ds))
        assert copied == ds and copied._sample_ids == held
        assert ds._sample_ids is held and ds._id_tuple is None
        assert ds.sample_ids == tuple(ids) and ds.sample_ids is ds.sample_ids and ds._sample_ids is held

    def test_one_id_messages_spell_out_one_id(self, tmp_path, monkeypatch):
        monkeypatch.setattr(loss_data, "_FLOAT_BLOCK", 4)
        path = tmp_path / "g.csv"
        path.write_text("sample_id,loss,group_id\n" + "".join(
            f"p{i},{i / 4!r},{'' if i == 7 else 'g'}\n" for i in range(10)))
        ds = load_dataset(path)
        with pytest.raises(MissingGroupId, match=r"^record 7 \('p7'\) has no group_id$"):
            reduce_augmented(ds)
        with pytest.raises(UnknownSampleId, match=r"^record 6: sample id 'p6' missing"):
            compose_augmented(ds, {f"p{i}": "o" for i in range(10) if i != 6})
        losses = np.arange(10) / 4
        losses[9] = -1.0
        with pytest.raises(ValidationError, match=r"^record 9 \('p9'\): loss must be non-negative"):
            LossDataset(losses, sample_ids=ds._sample_ids)
        assert _packed(ds) and ds._id_tuple is None

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(st.lists(_ID_TEXT, min_size=1, max_size=40), st.integers(1, 12))
    def test_packed_blocks_hold_every_id_once(self, ids, block):
        packed = loss_data._pack_ids(ids)
        assert (packed.ends is None) == ("\n" not in "".join(ids))
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(loss_data, "_FLOAT_BLOCK", block)
            blocks = list(loss_data._id_blocks(packed, len(ids)))
        assert [i for b in blocks for i in b] == ids
        assert len(blocks) <= len(ids)

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.lists(_ID_TEXT, min_size=1, max_size=10), st.data())
    def test_ids_of_any_content(self, ids, data):
        count = len(ids)
        losses = np.arange(count) / 4
        ds = LossDataset(losses.copy(), model_id="m", sample_ids=ids)
        with pytest.raises(ValidationError, match=f"^sample_ids has {count + 1} entries for {count} losses$"):
            LossDataset(losses.copy(), sample_ids=[*ids, "x"])
        same = LossDataset(losses.copy(), model_id="m", sample_ids=tuple(ids))
        renamed = LossDataset(losses.copy(), model_id="m", sample_ids=[*ids[:-1], ids[-1] + "x"])
        assert ds == same and same == ds and ds != renamed and renamed != ds
        copied = pickle.loads(pickle.dumps(ds))
        assert copied == ds and copied._sample_ids == ds._sample_ids and copied.sample_ids == tuple(ids)
        composed = compose_augmented(ds, {sid: "o" for sid in ids})
        assert composed._sample_ids is ds._sample_ids and composed.group_ids == ("o",) * count

        # One id, picked at random, in each message that names one.
        k = data.draw(st.integers(0, count - 1))
        first = ids.index(ids[k])
        with pytest.raises(UnknownSampleId) as raised:
            compose_augmented(ds, {sid: "o" for sid in ids if sid != ids[k]})
        assert str(raised.value) == f"record {first}: sample id {ids[k]!r} missing from map"
        grouped = LossDataset(losses.copy(), sample_ids=ids, group_ids=["g"] * k + [None] * (count - k))
        with pytest.raises(MissingGroupId) as raised:
            reduce_augmented(grouped)
        assert str(raised.value) == f"record {k} ({ids[k]!r}) has no group_id"
        bad = losses.copy()
        bad[k] = -1.0
        with pytest.raises(ValidationError) as raised:
            LossDataset(bad, sample_ids=ids)
        assert str(raised.value) == f"record {k} ({ids[k]!r}): loss must be non-negative, got -1.0"

        with tempfile.TemporaryDirectory() as directory:
            for fmt in ("jsonl", "csv"):
                path = Path(directory, f"m.{fmt}")
                dump_dataset(ds, path, format=fmt)
                loaded = load_dataset(path)
                assert loaded.sample_ids == tuple(ids)
                assert loaded == ds and ds == loaded


# Group labels: empty, short, multibyte and long, with look-alikes of equal length.
_LABEL_POOL = ["", "g", "g1", "g2", "abcdefg", "abcdefh", "abcdefgh", "abcdefgi", "abcdefghi", "abcdefghj",
               "\xe9", "\u20ac\u20ac", "\U0001f600", "a\U0001f600b", "x" * 64, "x" * 63 + "y", "x" * 65,
               "x" * 64 + "y"]


class TestGroupCodes:
    """Group labels are held as an int32 code per sample and the distinct
    labels; ``group_ids`` spells them out only when read."""

    def test_codes_number_labels_in_order_of_first_appearance(self):
        ds = from_losses(np.arange(6.0), group_ids=["b", "a", None, "b", "c", "a"])
        codes, labels = ds._groups
        assert codes.dtype == np.int32 and not codes.flags.writeable
        assert codes.tolist() == [0, 1, -1, 0, 2, 1] and labels == ("b", "a", "c")
        assert ds._group_ids is None
        assert ds.group_ids == ("b", "a", None, "b", "c", "a") and ds.group_ids is ds.group_ids
        assert from_losses([1.0, 2.0], group_ids=[None, None]).group_ids is None
        assert from_losses([1.0, 2.0]).group_ids is None

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.tuples(st.none() | st.sampled_from(_LABEL_POOL), st.integers(1, 4)), min_size=1, max_size=15))
    def test_loaded_labels_equal_the_readers_and_share_objects(self, runs):
        labels = [g for g, count in runs for _ in range(count)]
        # Rows with and without a group do not share a JSONL chunk on the
        # column path, so the JSONL file holds the grouped rows only.
        grouped = [g for g in labels if g is not None] or [""]
        with pytest.MonkeyPatch.context() as patched, tempfile.TemporaryDirectory() as directory:
            csv_path, jsonl_path = Path(directory, "g.csv"), Path(directory, "g.jsonl")
            csv_path.write_text("sample_id,loss,group_id\n" + "".join(
                f"s{i},{i / 8!r},{g or ''}\n" for i, g in enumerate(labels)), encoding="utf-8")
            jsonl_path.write_text("".join(_dumped_line(f"s{i}", i / 8, g, False) + "\n" for i, g in enumerate(grouped)),
                                  encoding="utf-8")
            # An empty CSV field is no group; JSONL keeps "" as a label.
            expected = {csv_path: tuple(g or None for g in labels), jsonl_path: tuple(grouped)}
            readers = {csv_path: _csv_rows_dataset(csv_path).group_ids,
                       jsonl_path: _per_line_outcome(jsonl_path, patched)[2]}
            patched.setattr(loss_data, "_read_csv_rows", _no_row_reader)
            patched.setattr(loss_data, "_parse_jsonl_lines", _no_row_reader)
            for path, groups in expected.items():
                assert readers[path] == (None if set(groups) == {None} else groups)
                for chunk_chars in (1, 50, 130, 1 << 18):
                    patched.setattr(loss_data, "_CHUNK_CHARS", chunk_chars)
                    ds = load_dataset(path)
                    assert ds.group_ids == readers[path]
                    if ds.group_ids is not None:
                        codes, distinct = ds._groups
                        assert distinct == tuple(dict.fromkeys(g for g in groups if g is not None))
                        assert tuple(distinct[c] if c >= 0 else None for c in codes.tolist()) == groups
                        assert len({id(g) for g in ds.group_ids if g is not None}) == len(distinct)

    def test_equality_pickle_copy_and_iteration_keep_the_codes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(loss_data, "_CHUNK_CHARS", 8)
        path = tmp_path / "g.csv"
        path.write_text("sample_id,loss,group_id\na,0.5,g1\nb,1.5,\nc,0.25,g1\nd,1.0,g\u20ac\n", encoding="utf-8")
        groups = ("g1", None, "g1", "g\u20ac")

        def built(group_ids):
            return LossDataset(np.array([0.5, 1.5, 0.25, 1.0]), model_id="g", sample_ids=list("abcd"),
                               group_ids=group_ids)

        loaded = load_dataset(path)
        assert loaded == built(groups) and loaded == built(np.array(groups, dtype=object))
        assert loaded != built(["g1", None, "g\u20ac", "g1"]) and loaded != built(["g1", "g2", "g1", "g\u20ac"])
        assert loaded != built(None) and built(None) == built([None] * 4)
        for copied in (pickle.loads(pickle.dumps(loaded)), copy.copy(loaded), copy.deepcopy(loaded)):
            assert copied == loaded and copied._group_ids is None
            assert copied._groups.codes.tolist() == [0, -1, 0, 1] and not copied._groups.codes.flags.writeable
        assert [r.group_id for r in loaded] == list(groups)
        assert loaded._group_ids is None  # comparing, pickling and iteration read the codes
        assert loaded.group_ids == groups

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_compose_and_dump_round_trip(self, tmp_path, fmt):
        ds = from_losses(np.arange(8) / 4.0, group_ids=["i0", "i1", "i0", "i1", "i2", "i3", "i2", "i3"])
        reduced = reduce_augmented(ds)
        composed = compose_augmented(reduced, {"i0": "o\xe9", "i1": "o,1", "i2": "o\xe9", "i3": None})
        assert composed._groups.labels == ("o\xe9", "o,1") and composed._groups.codes.tolist() == [0, 1, 0, -1]
        path = tmp_path / f"composed.{fmt}"
        dump_dataset(composed, path, format=fmt)
        assert ds._group_ids is None and composed._group_ids is None
        back = load_dataset(path)
        assert back.group_ids == ("o\xe9", "o,1", "o\xe9", None) and back.sample_ids == reduced.sample_ids
        assert back.losses.tobytes() == reduced.losses.tobytes()

    def test_reduction_and_check_read_the_codes(self):
        ds = from_losses(np.arange(12) / 7.0, group_ids=[f"g{i % 3}" for i in range(12)])
        assert reduce_augmented(ds).sample_ids == ("g0", "g1", "g2")
        assert loss_data.group_sizes(ds).tolist() == [4, 4, 4]
        assert loss_data.group_sizes(from_losses(np.arange(3.0), group_ids=["b", "a", "b"])).tolist() == [2, 1]
        assert da_inequality_check(ds).equal_group_sizes
        assert ds._group_ids is None


class TestCsvFieldLimit:
    """A field longer than the csv module's field size limit (131072
    characters unless raised) is a ``ParseError`` on either path."""

    LIMIT = csv.field_size_limit()

    @pytest.mark.parametrize("quote_row", [None, 2, 9])
    def test_field_past_the_limit_is_a_parse_error(self, tmp_path, monkeypatch, quote_row):
        rows = list(_CSV_ROWS[:12])
        rows[6] = "x" * (self.LIMIT + 1) + ",0.5,g1,"
        if quote_row is not None:
            rows[quote_row] = f'"s{quote_row}",0.5,g1,'
        path = tmp_path / "long.csv"
        path.write_text("\n".join(["sample_id,loss,group_id,grad_norm_sq", *rows]) + "\n")
        expected = f"ParseError: line 8: field larger than field limit ({self.LIMIT})"
        for chunk_chars in (1, 60, 1 << 18, 1 << 30):
            assert _error_text(path, chunk_chars, monkeypatch) == expected
        monkeypatch.setattr(loss_data, "_split_csv_chunk", lambda text, width: None)
        assert _error_text(path, 1 << 18, monkeypatch) == expected

    def test_long_header_is_a_parse_error(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text("sample_id,loss" + "x" * self.LIMIT + "\ns0,0.5\n")
        with pytest.raises(ParseError, match="^line 1: field larger than field limit"):
            load_dataset(path)

    def test_fields_at_the_limit_load_on_both_paths(self, tmp_path, monkeypatch):
        # A multibyte field at the limit holds more bytes than the limit, so
        # the splitter leaves it to the row reader, which takes it.
        rows = list(_CSV_ROWS[:12])
        rows[3] = "x" * self.LIMIT + ",0.5,g1,"
        rows[7] = "s7,0.5," + "\xe9" * self.LIMIT + ","
        path = tmp_path / "long.csv"
        path.write_text("\n".join(["sample_id,loss,group_id,grad_norm_sq", *rows]) + "\n", encoding="utf-8")
        expected = _csv_rows_dataset(path)
        assert len(expected.sample_ids[3]) == len(expected.group_ids[7]) == self.LIMIT
        for chunk_chars in (1, 60, 1 << 18):
            monkeypatch.setattr(loss_data, "_CHUNK_CHARS", chunk_chars)
            _same_columns(load_dataset(path), expected)


def _large_files(directory, rows=100_000):
    losses = np.random.default_rng(13).exponential(1.0, rows).tolist()
    csv_path, jsonl_path = directory / "large.csv", directory / "large.jsonl"
    csv_path.write_text("sample_id,loss\n" + "".join(f"s{i},{v!r}\n" for i, v in enumerate(losses)))
    jsonl_path.write_text("".join(f'{{"sample_id": "s{i}", "loss": {v!r}, "group_id": "g{i // 4}"}}\n'
                                  for i, v in enumerate(losses)))
    return csv_path, jsonl_path


class TestLoaderMemory:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        return _large_files(tmp_path_factory.mktemp("large"))

    @pytest.mark.parametrize("fmt, peak_per_file_byte", [("csv", 2.0), ("jsonl", 1.5)])
    def test_peak_and_retained_size_on_1e5_rows(self, files, fmt, peak_per_file_byte):
        path = files[0] if fmt == "csv" else files[1]
        load_dataset(path)  # imports and caches settle first
        tracemalloc.start()
        try:
            ds = load_dataset(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds) == 100_000
        assert peak < peak_per_file_byte * os.path.getsize(path), peak / os.path.getsize(path)
        assert retained < 48 * len(ds), retained / len(ds)

    def test_load_and_reduce_peak_on_1e5_grouped_rows(self, files):
        # Group codes keep this near 0.95 times the file; a tuple of labels per
        # sample plus label-keyed dicts in the reduction take 1.29 times.
        path = files[1]
        reduce_augmented(load_dataset(path))
        tracemalloc.start()
        try:
            reduced = reduce_augmented(load_dataset(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reduced) == 25_000
        assert peak < 1.1 * os.path.getsize(path), peak / os.path.getsize(path)

    def test_joining_the_ids_stays_under_the_chunk_loop_peak(self, monkeypatch, tmp_path):
        # 1.19 MB of ids. The join may add one copy of the ids to the chunks'
        # id strings, and no more: a second copy made its peak about 1.2
        # times the chunk loop's.
        path = tmp_path / "ids.csv"
        losses = np.random.default_rng(13).exponential(1.0, 100_000).tolist()
        path.write_text("sample_id,loss\n" + "".join(f"sample{i},{v!r}\n" for i, v in enumerate(losses)))
        join, peaks = loss_data._join_ids, {}

        def traced_join(packs):
            peaks["loop"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            ids = join(packs)
            peaks["join"] = tracemalloc.get_traced_memory()[1]
            return ids

        monkeypatch.setattr(loss_data, "_join_ids", traced_join)
        load_dataset(path)
        tracemalloc.start()
        try:
            ds = load_dataset(path)
        finally:
            tracemalloc.stop()
        assert _packed(ds) and len(ds) == 100_000
        assert peaks["join"] <= peaks["loop"], peaks

    def test_a_quote_in_the_last_row_keeps_the_csv_bound(self, files, tmp_path):
        text = files[0].read_text()
        last = text.rindex("\n", 0, -1) + 1
        path = tmp_path / "quoted.csv"
        path.write_text(text[:last] + '"' + text[last:].replace(",", '",', 1))
        expected = _csv_rows_dataset(path)
        load_dataset(path)
        tracemalloc.start()
        try:
            ds = load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _packed(ds)
        _same_columns(ds, expected)
        assert peak < 2.0 * os.path.getsize(path), peak / os.path.getsize(path)
