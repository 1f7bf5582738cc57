"""Loading, validation, and summaries of per-sample loss data.

Losses are natural-log losses (nats) and must be non-negative and finite. One
constructor takes a dataset's samples, in order, as read-only columns: a
float64 loss array, sample ids, and optional group ids, squared input-gradient
norms and parameter-gradient vectors. Every estimate is a function of the
multiset of loss values. The summary sums exactly and rounds once, as
``math.fsum`` would, but bins the values by exponent in numpy blocks instead
of making a Python float per loss; so reordering samples leaves it bit for bit
the same. Every mean (of the losses, of a group, of the gradient norms) is
``math.fsum`` over the count, or past the float64 range the exact sum over it,
rounded once. The cumulant and rate passes add in array order, so a reordering
can move their results in the last bits. The summary is computed once per
dataset and cached on it; its variance, which only the quadratic
approximations read, is computed on first read.

A dataset keeps its group labels as an int32 code per sample, -1 for no
group, and a tuple of the distinct labels in order of first appearance, so
one object stands for each label. ``group_ids`` spells them out as a tuple
per sample only when read; the augmentation reductions, comparison, pickling,
``dump_dataset`` and iteration, the one per-sample view, work on the codes.
Sample ids are strings, held packed: a newline-joined string, with each
id's end offset only when an id holds a newline. Numbered ids, the default
``s0, s1, ...`` and an expanded law's ``v{i}c{j}``, are held as a numbering,
their prefixes and counts, and packed only when read. The same paths read
them through one block reader; only ``sample_ids`` spells them out.

A loaded dataset keeps no Python object per sample. One loop reads a CSV
or JSONL file in chunks of about ``_CHUNK_CHARS`` characters of whole
lines, codes the group labels as it goes, and holds the sample ids as one
newline-joined string. A chunk whose every line is a plain CSV row, or has
one of the two JSONL layouts ``dump_dataset`` writes, is split into columns
on its UTF-8 bytes. Any other JSONL chunk is parsed line by line;
from the first other CSV chunk on, the csv module reads row by row. Either
way the values and messages are those of the row and line readers.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from array import array
from dataclasses import FrozenInstanceError, dataclass, fields
from itertools import accumulate, chain, islice, repeat
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    EmptyDataset,
    InvalidMeta,
    MissingGroupId,
    ParseError,
    UnknownSampleId,
    ValidationError,
    check_count,
    check_real,
    input_file,
)

# Values within this fraction of the gap (mean - min) above the minimum count
# as attaining it, so ties do not depend on the loss scale; at a gap of 0.1
# or more it covers losses perturbed by 1e-12 in file round trips.
TIE_TOL = 1e-11

# The loaders check and convert a file this many characters of whole lines at
# a time, so their working set does not grow with the file.
_CHUNK_CHARS = 1 << 18

# Exact sums bin the loss array this many values at a time, Python floats are
# made from it this many at a time, and group labels and sample ids are spelled
# out this many samples at a time.
_FLOAT_BLOCK = 1 << 13

# Below this many values an exact sum is math.fsum over Python floats. Binning
# costs about 25 us a call however few the values, so fsum is faster on few:
# 2.3 against 26 us at 64 values. At 1024, binning takes 38 us against 49 for
# fsum, and on a sum of squares 78 against 188 us (Python 3.11, numpy 2.4, a
# 2-vCPU Xeon). The plain sums cross near 800 values and the sums of squares
# near 250; every summary takes the plain sum, and only a read variance the
# squares, so the crossover is set by the first.
_EXACT_MIN = 1 << 10

# Adding and subtracting this rounds a significand in (-1, 1) to a multiple of 2**-27.
_SPLIT = 1.5 * 2.0 ** 25


class UnequalGroupsWarning(UserWarning):
    """Augmentation groups differ in size; per-group means are still taken."""


@dataclass(frozen=True)
class LossRecord:
    """One sample: an opaque id, a loss in nats, and optional annotations.

    ``group_id`` names the base sample for augmentation groups.
    ``grad_norm_sq`` holds a squared input-gradient norm.
    ``grad_theta`` holds a parameter-gradient vector at a reference point.
    """

    sample_id: str
    loss: float
    group_id: str | None = None
    grad_norm_sq: float | None = None
    grad_theta: tuple[float, ...] | None = None


@dataclass(frozen=True)
class DatasetSummary:
    """Count, mean, minimum (with tie count), and population variance.

    A summary from :func:`summarize` holds a reference to the dataset's
    losses instead of its variance, and computes the variance from them on
    first read; the rate solvers never read it. Equality, hashing, ``repr``,
    pickling and ``dataclasses.asdict`` read every field, the variance
    included, so they see the same five values either way.
    """

    count: int
    empirical_loss: float
    min_loss: float
    min_loss_count: int
    variance: float

    def __getattr__(self, name):
        # Called only for an attribute the instance lacks; of the fields, that
        # is the variance of a summary from summarize() before its first read.
        losses = self.__dict__.get("_losses") if name == "variance" else None
        if losses is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        variance = 0.0 if self.min_loss_count == self.count else _variance(losses, self.empirical_loss)
        self.__dict__["variance"] = variance
        self.__dict__.pop("_losses", None)
        return variance

    def __getstate__(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class ModelMeta:
    """Model-class context for bounds: parameter count, train size, delta, epsilon."""

    param_count: int
    train_size: int
    delta: float
    epsilon: float = 0.0

    def __post_init__(self):
        check_count(self.param_count, InvalidMeta, "param_count")
        check_count(self.train_size, InvalidMeta, "train_size")
        if not (isinstance(self.delta, (int, float)) and 0.0 < self.delta < 1.0):
            raise InvalidMeta(f"delta must lie in (0, 1), got {self.delta!r}")
        object.__setattr__(self, "epsilon", check_real(self.epsilon, InvalidMeta, "epsilon", "non-negative"))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _optional_floats(values) -> tuple[np.ndarray | None, int | None]:
    """A float column with NaN marking absent values, or ``None`` when every
    value is absent; also the index of the first present value that is not
    finite and non-negative (``None`` when there is none).

    ``values`` holds floats and ``None``s, or is a float array that already
    marks absent values with NaN.
    """
    if values is None:
        return None, None
    if isinstance(values, np.ndarray):
        column = np.asarray(values, dtype=np.float64)
        present = ~np.isnan(column)
    else:
        present = np.fromiter((v is not None for v in values), dtype=bool, count=len(values))
        column = np.array([math.nan if v is None else float(v) for v in values], dtype=np.float64)
    if not present.any():
        return None, None
    bad = np.flatnonzero(present & ~(np.isfinite(column) & (column >= 0.0)))
    return _read_only(column), (int(bad[0]) if bad.size else None)


def _vector_column(vectors) -> tuple[np.ndarray | None, tuple | None, bool]:
    """A ``(count, dim)`` float array of gradient vectors, or ``None`` when no
    sample has one; also ``(index, length, dim)`` for the first vector whose
    length differs from the first one's, and whether some samples lack a
    vector while others have one.

    ``vectors`` holds sequences and ``None``s, or is already a 2-D array.
    """
    if vectors is None:
        return None, None, False
    if isinstance(vectors, np.ndarray):
        if vectors.ndim != 2:
            raise ValidationError(f"grad_theta must be a 2-D array, got shape {vectors.shape}")
        return _read_only(np.asarray(vectors, dtype=np.float64)), None, False
    lengths = [None if v is None else len(v) for v in vectors]
    dim = next((k for k in lengths if k is not None), None)
    if dim is None:
        return None, None, False
    for i, k in enumerate(lengths):
        if k is not None and k != dim:
            return None, (i, k, dim), False
    if None in lengths:
        return None, None, True
    return _read_only(np.array(vectors, dtype=np.float64).reshape(len(vectors), dim)), None, False


class _SampleIds(NamedTuple):
    """A dataset's sample ids: ``text`` holds them joined by ``"\n"``.
    ``ends`` is ``None`` when no id holds a newline, so ``text`` holds one
    newline fewer than it holds ids; otherwise it holds the offset in ``text``
    where each id ends. Either form is fixed by the ids, so two hold the same
    ids exactly when their ``text`` and ``ends`` are equal."""

    text: str
    ends: array | None


def _pack_ids(ids: Sequence[str]) -> _SampleIds:
    """``ids`` in their packed form; an id that is not a string raises ``ValidationError``."""
    try:
        text = "\n".join(ids)
    except TypeError:
        k = next(k for k, sid in enumerate(ids) if not isinstance(sid, str))
        raise ValidationError(f"record {k}: sample id must be a string, got {ids[k]!r}") from None
    if text.count("\n") == len(ids) - 1:
        return _SampleIds(text, None)
    return _SampleIds(text, array("q", accumulate(map(len, ids), lambda end, n: end + 1 + n, initial=-1))[1:])


class _Numbering(NamedTuple):
    """Sample ids held as a numbering: ``f"{prefix}{j}"`` for ``j < count``,
    prefix by prefix. Each count is at least 1, and no prefix holds a
    newline. The default ids are ``_Numbering(("s",), (count,))``. Equal
    numberings hold equal ids, but different ones can spell the same ids:
    ``(("s",), (11,))`` and ``(("s", "s1"), (10, 1))`` both give ``s0`` to
    ``s10``."""

    prefixes: tuple[str, ...]
    counts: tuple[int, ...]


def _numbered_ids(prefixes: Sequence[str], counts: Sequence[int]) -> _SampleIds:
    """The ids of the numbering ``(prefixes, counts)``, packed without a
    Python string per id.

    The decimal lines of ``0 .. max(counts) - 1`` are written once, a run of
    one width at a time: the numbers of ``k + 1`` digits put each leading
    digit before every line of the zero-padded ``k``-digit numbers with one
    ``str.replace``. Each prefix takes the first ``count`` lines and puts
    itself before each the same way.
    """
    largest = max(counts)
    padded, runs = "", []  # padded: the numbers below 10 ** k, zero-padded to k digits
    for k in range(len(str(largest - 1))):
        if k:
            padded = "\n".join(d + padded.replace("\n", "\n" + d) for d in "0123456789")
        leading = "0123456789"[bool(k):-(-largest // 10 ** k)]  # 0 leads only the number 0
        runs.append("\n".join(d + padded.replace("\n", "\n" + d) for d in leading))
    lines = "\n".join(runs)
    del padded, runs

    def chars(count: int) -> int:
        """The characters of the first ``count`` lines, without the last newline:
        two per number, and one more for each power of ten it reaches."""
        return 2 * count - 1 + sum(count - 10 ** k for k in range(1, len(str(count - 1))))

    return _SampleIds("\n".join([prefix + lines[:chars(count)].replace("\n", "\n" + prefix)
                                 for prefix, count in zip(prefixes, counts)]), None)


def _id_blocks(ids: _SampleIds, count: int):
    """Lists of the ``count`` ids that ``ids`` holds, in order, about
    ``_FLOAT_BLOCK`` to a list; none is kept. Without newlines in the ids,
    each list ends at the first line end past its share of the characters,
    so no slice is copied twice."""
    text, ends = ids
    if ends is not None:
        for first in range(0, count, _FLOAT_BLOCK):
            bounds = [ends[first - 1] if first else -1, *ends[first:first + _FLOAT_BLOCK]]
            yield [text[start + 1:end] for start, end in zip(bounds, bounds[1:])]
        return
    step = max(1, len(text) * _FLOAT_BLOCK // count)
    start = 0
    while start <= len(text):
        end = text.find("\n", start + step)
        if end < 0:
            end = len(text)
        yield text[start:end].split("\n")
        start = end + 1


def _join_ids(packs: list[tuple[_SampleIds, int]]) -> _SampleIds:
    """A loader's sample ids from the packed ids and count of each of its
    non-empty chunks: their texts joined, unless an id holds a newline."""
    if all(ids.ends is None for ids, _ in packs):
        return _SampleIds("\n".join([ids.text for ids, _ in packs]), None)
    return _pack_ids([sid for ids, count in packs for block in _id_blocks(ids, count) for sid in block])


class _GroupCodes(NamedTuple):
    """A group column: per sample an int32 code, the index of its label in
    ``labels``, or -1 when the sample has no group. ``labels`` holds each
    distinct label once, in order of first appearance."""

    codes: np.ndarray
    labels: tuple


def _add_group_keys(keys: array, table: dict, groups: Sequence) -> None:
    """Append to ``keys`` a key per sample for the group labels ``groups``.

    ``table`` maps each label met so far to its key: the index in ``keys`` of
    the first sample that had it, so keys grow in order of first appearance.
    Its first entry maps the label that stands for no group to -1. A label
    it lacks is added with the index of its first sample, so each label in
    ``groups`` costs one dict lookup. :func:`_group_column` numbers the keys.
    """
    first = len(keys)
    starts = range(first, first + len(groups))
    keys.frombytes(np.fromiter(map(table.setdefault, groups, starts), dtype=np.intc, count=len(groups)).tobytes())


def _group_column(keys: array, table: dict) -> _GroupCodes | None:
    """The group column of the keys and table :func:`_add_group_keys`
    filled, or ``None`` when no sample has a group. Empties ``table``."""
    labels = tuple(table)[1:]
    table.clear()
    if not labels:
        return None
    codes = np.frombuffer(keys, dtype=np.intc)
    # A label's key is the index of its first sample, so the first samples
    # are those whose key is their own index; numbered in order, they give
    # each key its code. The last entry maps key -1 (no group) to -1.
    number = np.empty(len(codes) + 1, dtype=np.intc)
    np.cumsum(codes == np.arange(len(codes), dtype=np.intc), dtype=np.intc, out=number[:-1])
    number[-1] = 0
    number -= 1
    return _GroupCodes(np.take(number, codes, out=codes, mode="wrap"), labels)


class LossDataset:
    """An ordered, immutable set of per-sample losses for one model, held as columns.

    ``losses`` is a read-only float64 array. Group labels are held as an
    int32 code per sample and a tuple of the distinct labels, each object
    once; ``group_ids`` spells them out as a tuple of ``str | None`` per
    sample on first read, or is ``None`` when no sample has a group.
    ``grad_norm_sq`` is a read-only float64 array with NaN where a sample has
    no value, or ``None`` when none has one; ``grad_theta`` is a read-only
    ``(count, dim)`` array, or ``None``. Sample ids are strings, ``s0, s1,
    ...`` unless given. Given ids are held packed; the default ones, and an
    expanded law's, as a numbering that copies, pickles and
    ``compose_augmented`` keep and that is packed only while the ids are
    read. Only ``sample_ids`` spells them out, as a tuple.

    The constructor validates the columns. It takes ``losses`` as a float64
    array without a copy and makes it read-only, so the caller must not keep
    a writeable reference to it. A sample id that is not a string raises
    ``ValidationError``. Optional columns may hold ``None`` for absent
    values; a float array for ``grad_norm_sq`` marks them with NaN. Group
    labels must be hashable: equal labels form one group, held as one object.
    Iteration builds a frozen :class:`LossRecord` per sample and keeps none.

    A dataset also holds what was computed from its losses: the summary from
    :func:`summarize`, and the last tilt-grid curve from
    ``cumulant.cumulant_curve``, one grid at a time. Copies and pickles
    rebuild from the columns and start without either; equality and hashing
    ignore them.
    """

    __slots__ = ("losses", "model_id", "grad_norm_sq", "grad_theta",
                 "_sample_ids", "_id_tuple", "_groups", "_group_ids", "_summary", "_curve",
                 "__weakref__")

    def __init__(
        self,
        losses: np.ndarray | Sequence[float],
        model_id: str = "model",
        sample_ids: Sequence[str] | None = None,
        group_ids: Sequence[str | None] | None = None,
        grad_norm_sq: Sequence[float | None] | np.ndarray | None = None,
        grad_theta: Sequence[Sequence[float] | None] | np.ndarray | None = None,
    ):
        set_ = object.__setattr__
        losses = np.asarray(losses, dtype=np.float64)
        if losses.ndim != 1:
            raise ValidationError(f"losses must form a one-dimensional sequence, got shape {losses.shape}")
        count = losses.shape[0]
        if count == 0:
            raise EmptyDataset("a dataset must contain at least one record")
        if sample_ids is None:
            sample_ids = _Numbering(("s",), (count,))
        elif type(sample_ids) not in (_SampleIds, _Numbering):
            sample_ids = _pack_ids(list(sample_ids))
        for name, column in (("sample_ids", sample_ids), ("group_ids", group_ids),
                             ("grad_norm_sq", grad_norm_sq), ("grad_theta", grad_theta)):
            if column is None:
                continue
            if type(column) is _Numbering:
                size = sum(column.counts)
            elif type(column) is _SampleIds:
                size = column.text.count("\n") + 1 if column.ends is None else len(column.ends)
            else:
                size = len(column.codes) if type(column) is _GroupCodes else len(column)
            if size != count:
                raise ValidationError(f"{name} has {size} entries for {count} losses")
        if group_ids is not None and type(group_ids) is not _GroupCodes:
            keys, table = array("i"), {None: -1}
            _add_group_keys(keys, table, group_ids)
            group_ids = _group_column(keys, table)
        if group_ids is not None:
            _read_only(group_ids.codes)
        norms, bad_norm = _optional_floats(grad_norm_sq)
        vectors, bad_length, partial = _vector_column(grad_theta)

        set_(self, "losses", _read_only(losses))
        set_(self, "model_id", model_id)
        set_(self, "_sample_ids", sample_ids)
        set_(self, "_id_tuple", None)
        set_(self, "_groups", group_ids)
        set_(self, "_group_ids", None)
        set_(self, "grad_norm_sq", norms)
        set_(self, "grad_theta", vectors)
        set_(self, "_summary", None)
        set_(self, "_curve", None)

        # Report the first faulty sample, checking each one's loss, then its
        # gradient norm, then its gradient length, as a record-by-record scan would.
        problems = []
        bad_loss = np.flatnonzero(~np.isfinite(losses) | (losses < 0.0))
        if bad_loss.size:
            i = int(bad_loss[0])
            value = float(losses[i])
            problems.append((i, 0, f"loss must be {'finite' if not math.isfinite(value) else 'non-negative'}, "
                                   f"got {value!r}"))
        if bad_norm is not None:
            problems.append((bad_norm, 1, "grad_norm_sq must be finite and non-negative"))
        if bad_length is not None:
            i, length, dim = bad_length
            problems.append((i, 2, f"grad_theta has length {length}, expected {dim}"))
        bad_vector = np.flatnonzero(~np.isfinite(vectors).all(axis=1)) if vectors is not None else ()
        if len(bad_vector):
            problems.append((int(bad_vector[0]), 2, "grad_theta values must be finite"))
        if problems:
            i, _, message = min(problems)
            raise ValidationError(f"record {i} ({self._id_at(i)!r}): {message}")
        if partial:
            raise ValidationError("grad_theta must be present on all records or none")

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __len__(self) -> int:
        return self.losses.shape[0]

    def __iter__(self):
        groups = repeat(None) if self._groups is None else self._each_group()
        norms = _absent_as_none(self.grad_norm_sq)
        vectors = repeat(None) if self.grad_theta is None else map(tuple, self.grad_theta.tolist())
        return map(LossRecord, self._each_id(), _floats(self.losses), groups, norms, vectors)

    def __eq__(self, other):
        # The columns compare as the records would: a NaN grad_norm_sq is an
        # absent one, and -0.0 equals 0.0.
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.model_id == other.model_id and np.array_equal(self.losses, other.losses)
                and _same_ids(self._sample_ids, other._sample_ids)
                and _same_groups(self._groups, other._groups)
                and _same_optional(self.grad_norm_sq, other.grad_norm_sq)
                and _same_optional(self.grad_theta, other.grad_theta))

    def __hash__(self):
        return hash((self.model_id, len(self)))

    def __reduce__(self):
        # Attribute assignment is blocked, so copies and pickles rebuild from the columns.
        return LossDataset, (self.losses, self.model_id, self._sample_ids, self._groups,
                             self.grad_norm_sq, self.grad_theta)

    def __repr__(self) -> str:
        return f"LossDataset(model_id={self.model_id!r}, count={len(self)})"

    @property
    def sample_ids(self) -> tuple[str, ...]:
        """One id per sample; ``s0, s1, ...`` unless given. Spelled out on first
        access and kept; no library path reads it."""
        if self._id_tuple is None:
            object.__setattr__(self, "_id_tuple", tuple(self._each_id()))
        return self._id_tuple

    @property
    def group_ids(self) -> tuple[str | None, ...] | None:
        """One group label, or ``None``, per sample; ``None`` when no sample
        has a group. Spelled out from the codes on first access."""
        if self._group_ids is None and self._groups is not None:
            object.__setattr__(self, "_group_ids", tuple(self._each_group()))
        return self._group_ids

    def _each_group(self, absent=None):
        """Each sample's group label, or ``absent`` where it has none."""
        codes, labels = self._groups
        names = np.fromiter((*labels, absent), dtype=object, count=len(labels) + 1)  # code -1 picks absent
        blocks = range(0, len(codes), _FLOAT_BLOCK)
        return chain.from_iterable(names[codes[i:i + _FLOAT_BLOCK]].tolist() for i in blocks)

    def _ids(self) -> _SampleIds:
        """The packed sample ids; a numbering is spelled out on each call."""
        return _spelled(self._sample_ids)

    def _each_id(self):
        """Each sample's id, spelled out a block at a time."""
        return chain.from_iterable(_id_blocks(self._ids(), len(self)))

    def _id_at(self, i: int) -> str:
        """Sample ``i``'s id, for a message."""
        ids = self._sample_ids
        if type(ids) is _Numbering:
            for prefix, count in zip(*ids):
                if i < count:
                    return f"{prefix}{i}"
                i -= count
        return next(islice(self._each_id(), i, None))


def _spelled(ids: _SampleIds | _Numbering) -> _SampleIds:
    """``ids`` in the packed form; a numbering is spelled out."""
    return _numbered_ids(*ids) if type(ids) is _Numbering else ids


def _same_ids(mine: _SampleIds | _Numbering, theirs: _SampleIds | _Numbering) -> bool:
    # A packed form is fixed by its ids, and equal numberings hold equal ids.
    # Different numberings, or a numbering and a packed form, can still hold
    # the same ids, so those compare packed.
    if mine == theirs:
        return True
    return (type(mine) is _Numbering or type(theirs) is _Numbering) and _spelled(mine) == _spelled(theirs)


def _same_groups(mine: _GroupCodes | None, theirs: _GroupCodes | None) -> bool:
    # Codes number the labels in order of first appearance, so two columns
    # hold the same label per sample exactly when labels and codes are equal.
    if mine is None or theirs is None:
        return mine is theirs
    return mine.labels == theirs.labels and np.array_equal(mine.codes, theirs.codes)


def _same_optional(mine: np.ndarray | None, theirs: np.ndarray | None) -> bool:
    if mine is None or theirs is None:
        return mine is theirs
    return np.array_equal(mine, theirs, equal_nan=True)


def from_losses(
    losses: Iterable[float],
    model_id: str = "model",
    group_ids: Sequence[str] | None = None,
) -> LossDataset:
    """Build a dataset from bare loss values, with optional group labels.

    Sample ids are ``s0, s1, ...``. The losses are copied, so the caller's
    array stays writeable and later changes to it do not reach the dataset.
    """
    if isinstance(losses, np.ndarray):
        values = np.array(losses, dtype=np.float64)
    else:
        values = np.fromiter(map(float, losses), dtype=np.float64)
    return LossDataset(values, model_id=model_id, group_ids=group_ids)


def summarize(ds: LossDataset) -> DatasetSummary:
    """Mean, minimum, minimum-tie count, and population variance of the losses.

    The mean is the exact sum of the losses, rounded once as ``math.fsum``
    rounds it, divided by the count; where that sum lies past the float64
    range, the exact sum divided by the count, rounded once. No Python float
    is made per loss. The true arithmetic mean can never fall below the
    minimum, so rounding that puts it there is snapped back; a dataset whose
    losses all tie at the minimum reports exactly zero variance. A variance
    beyond the float64 range is reported as ``math.inf``. The summary is
    computed on the first call and cached on the dataset, and its variance on
    its first read.
    """
    summary = ds._summary
    if summary is None:
        summary = _summary_of(ds.losses)
        object.__setattr__(ds, "_summary", summary)
    return summary


def _blocks(values: np.ndarray):
    """Views of the values, ``_FLOAT_BLOCK`` at a time, in order."""
    return (values[i:i + _FLOAT_BLOCK] for i in range(0, len(values), _FLOAT_BLOCK))


def _floats(values: np.ndarray):
    """The values as Python floats, in order, converted ``_FLOAT_BLOCK`` at a time."""
    if len(values) <= _FLOAT_BLOCK:
        return values.tolist()
    return chain.from_iterable(block.tolist() for block in _blocks(values))


def _exact_sum(values: np.ndarray, about: float | None = None, scale: float = 1.0) -> float:
    """The exact sum of the finite values, or of Python's
    ``((v - about) * scale) ** 2`` for each, rounded once as ``math.fsum``
    rounds it; ``OverflowError`` where the sum, or a square, lies past the
    float64 range.

    Below ``_EXACT_MIN`` values this is ``math.fsum`` itself. Otherwise, and
    where fsum overflows on the way to a sum inside the range,
    :func:`_exact_total` sums the values exactly without a Python float per
    value. An exact zero takes fsum's own sign, which differs between Python
    versions.
    """
    if len(values) < _EXACT_MIN:
        floats = values.tolist()
        try:
            return math.fsum(floats if about is None else [((v - about) * scale) ** 2 for v in floats])
        except OverflowError:
            pass
    total, exponent = _exact_total(values, about, scale)
    if not total:
        return math.fsum([-0.0] if about is None and np.signbit(values).all() else [])
    return _rounded(total, exponent)


def _exact_total(values: np.ndarray, about: float | None = None, scale: float = 1.0) -> tuple[int, int]:
    """``(total, exponent)`` with the exact sum of the values, or of the
    squares :func:`_exact_sum` names, equal to ``total * 2**exponent``.

    Per block of ``_FLOAT_BLOCK`` values, ``np.frexp`` gives each value as
    ``m * 2**e``, with ``m`` in (-1, 1) a multiple of 2**-53. Adding and
    subtracting ``_SPLIT`` rounds ``m`` to ``hi``, a multiple of 2**-27 no
    larger than 1 in magnitude, and ``lo = m - hi`` is exact: a multiple of
    2**-53 no larger than 2**-28. ``np.bincount`` sums the ``hi`` and the
    ``lo`` of each exponent. Every partial sum of ``n`` halves is a multiple
    of their unit below ``n * 2**-27`` or ``n * 2**-28`` in magnitude, which
    fits in 53 bits while ``n <= 2**26``; so in a block of at most that many
    values each bin's sums are exact, in whatever order they are added. The
    non-empty bins are then added into one Python int, in units of
    2**-1126: ``np.frexp`` gives no exponent below -1073, that of 2**-1074.
    """
    total = 0
    for block in _blocks(values):
        if about is not None:
            block = block - about
            if scale != 1.0:
                block *= scale
            # np.float_power rounds as Python's ** does; block * block does not always.
            with np.errstate(over="ignore"):
                block = np.float_power(block, 2.0)
            if np.isinf(block).any():
                raise OverflowError("a square lies past the float64 range")
        m, e = np.frexp(block)
        start = int(e.min())
        e -= start
        hi = m + _SPLIT
        hi -= _SPLIT
        m -= hi
        his = np.bincount(e, weights=hi)
        his *= 2.0 ** 27
        los = np.bincount(e, weights=m)
        los *= 2.0 ** 53
        bins = np.flatnonzero((his != 0) | (los != 0))
        part = 0
        for k, h, l in zip(bins.tolist(), his[bins].tolist(), los[bins].tolist()):
            part += ((int(h) << 26) + int(l)) << k
        total += part << (start + 1073)
    return total, -1126


def _rounded(total: int, exponent: int, count: int = 1) -> float:
    """``total * 2**exponent / count``, rounded once; ``OverflowError`` past
    the float64 range. Int true division rounds correctly, subnormals included."""
    return (total << exponent) / count if exponent >= 0 else total / (count << -exponent)


def _exact_mean(values: np.ndarray) -> float:
    """``math.fsum`` of the values over their count, as a loop over Python
    floats would give it; where that sum lies past the float64 range, the
    exact sum over the count, rounded once."""
    try:
        return _exact_sum(values) / len(values)
    except OverflowError:
        return _rounded(*_exact_total(values), len(values))


def _summary_of(losses: np.ndarray) -> DatasetSummary:
    # The minimum is the first minimal element, as min() gives it, so a
    # minimum of zero keeps the sign of the first zero; np.argmin would copy
    # the read-only losses. The ties are counted a block at a time, so no
    # float temporary is as long as the losses.
    count = len(losses)
    mean = _exact_mean(losses)
    lo = float(losses[np.argmax(losses == losses.min())])
    mean = max(mean, lo)
    bar = TIE_TOL * (mean - lo)
    ties = sum(int(np.count_nonzero(block - lo <= bar)) for block in _blocks(losses))
    summary = DatasetSummary.__new__(DatasetSummary)
    summary.__dict__.update(count=count, empirical_loss=mean, min_loss=lo, min_loss_count=ties, _losses=losses)
    return summary


def _variance(losses: np.ndarray, mean: float) -> float:
    """Population variance about ``mean``, with ``math.inf`` past the float64 range.

    The exact sum of Python's ``(v - mean) ** 2`` over the losses, rounded
    once as ``math.fsum`` rounds it and divided by the count; no Python float
    is made per loss. Where a square or the sum overflows, each deviation is
    scaled by ``2**-k``, with ``k`` the exponent of the largest one, and the
    result scaled back, infinite only when it lies past the range. The
    squares are Python's ``**``, which is not always correctly rounded, so a
    scaled square, and with it this fallback, can differ from the plain form
    by an ulp.
    """
    try:
        return _exact_sum(losses, mean) / len(losses)
    except OverflowError:
        pass
    _, k = math.frexp(max(float(losses.max()) - mean, mean - float(losses.min())))
    scaled = _exact_sum(losses, mean, 2.0 ** -k) / len(losses)
    try:
        return math.ldexp(scaled, 2 * k)
    except OverflowError:
        return math.inf


def group_sizes(ds: LossDataset) -> np.ndarray:
    """The number of samples in each group, groups in order of first
    appearance as :func:`reduce_augmented` lists them; raises
    ``MissingGroupId`` unless every sample has a group."""
    groups = ds._groups
    if groups is None or groups.codes.min() < 0:
        i = 0 if groups is None else int(np.argmin(groups.codes))
        raise MissingGroupId(f"record {i} ({ds._id_at(i)!r}) has no group_id")
    return np.bincount(groups.codes, minlength=len(groups.labels))


def reduce_augmented(ds: LossDataset) -> LossDataset:
    """Collapse each augmentation group to a single record with the group mean loss.

    Every record must carry a group id. Each group becomes a sample named
    ``str(label)``, in order of first appearance; gradient annotations do
    not survive the reduction. Unequal group sizes are allowed (each group
    still contributes its own mean) but warned about, because only equal
    sizes preserve the grand mean exactly. Each mean is the group's
    ``math.fsum`` over its size; where that sum lies past the float64
    range, the exact sum over the size, rounded once.
    """
    sizes = group_sizes(ds)
    codes, labels = ds._groups
    if sizes.min() != sizes.max():
        message = f"group sizes differ ({np.unique(sizes).tolist()}); grand mean becomes a mean of group means"
        warnings.warn(UnequalGroupsWarning(message))
    # math.fsum is correctly rounded, so summing each group in code order
    # gives the same mean as summing it in record order. Groups written one
    # after another have their codes in order already, and need no sort.
    by_group = ds.losses
    if not (codes[1:] >= codes[:-1]).all():
        by_group = by_group[np.argsort(codes, kind="stable")]
    floats = iter(_floats(by_group))
    try:
        means = np.fromiter((math.fsum(islice(floats, n)) / n for n in sizes.tolist()), np.float64, len(sizes))
    except OverflowError:
        means = np.fromiter(map(_exact_mean, np.split(by_group, np.cumsum(sizes[:-1]))), np.float64, len(sizes))
    # str() on each of 2048 string labels takes 0.1 ms, so it runs only when some label is not a string.
    try:
        ids = _pack_ids(labels)
    except ValidationError:
        ids = _pack_ids(list(map(str, labels)))
    return LossDataset(means, model_id=ds.model_id, sample_ids=ids)


def compose_augmented(ds: LossDataset, outer_group_map: Mapping[str, str]) -> LossDataset:
    """Relabel groups so one reduction over the new labels composes two augmentations.

    ``outer_group_map`` must cover every sample id in ``ds`` (typically the
    output of a previous :func:`reduce_augmented`, whose sample ids are the
    inner group ids). The ids are looked up a block at a time, and the new
    dataset shares ``ds``'s ids in the form ``ds`` holds them.
    """
    keys, table = array("i"), {None: -1}
    for ids in _id_blocks(ds._ids(), len(ds)):
        if not all(map(outer_group_map.__contains__, ids)):
            k = next(k for k, sid in enumerate(ids) if sid not in outer_group_map)
            raise UnknownSampleId(f"record {len(keys) + k}: sample id {ids[k]!r} missing from map")
        _add_group_keys(keys, table, list(map(outer_group_map.__getitem__, ids)))
    return LossDataset(
        ds.losses,
        model_id=ds.model_id,
        sample_ids=ds._sample_ids,
        group_ids=_group_column(keys, table),
        grad_norm_sq=ds.grad_norm_sq,
        grad_theta=ds.grad_theta,
    )


# ---------------------------------------------------------------------------
# File I/O
#
# CSV columns are fixed as sample_id,loss[,group_id][,grad_norm_sq]; vector
# annotations only fit JSONL (one object per line). Rejection messages carry
# 1-based line numbers.
# ---------------------------------------------------------------------------

_CSV_HEADERS = (
    ("sample_id", "loss"),
    ("sample_id", "loss", "group_id"),
    ("sample_id", "loss", "group_id", "grad_norm_sq"),
)


def _parse_float(text: str, field: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"line {lineno}: field {field!r} is not a number: {text!r}") from None


def _infer_format(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix in (".jsonl", ".ndjson"):
        return "jsonl"
    raise ValidationError(f"cannot infer format from suffix {suffix!r}; pass format explicitly")


def load_dataset(path: str | Path, format: str | None = None) -> LossDataset:
    """Load a loss dataset from a CSV or JSONL file.

    ``format`` is ``"csv"`` or ``"jsonl"``; when omitted it is inferred from
    the file suffix.
    """
    with input_file(path) as path:
        fmt = format if format is not None else _infer_format(path)
        if fmt not in ("csv", "jsonl"):
            raise ValidationError(f"unknown format {fmt!r}; expected 'csv' or 'jsonl'")
        columns = _load_columns(path, fmt)
    if len(columns["losses"]) == 0:
        raise EmptyDataset(f"{path}: no data rows")
    return LossDataset(model_id=path.stem, **columns)


def _load_columns(path: Path, fmt: str) -> dict:
    """The columns of the data rows of ``path``, read ``_CHUNK_CHARS``
    characters of whole lines at a time.

    The format's splitter turns a chunk into columns. A chunk it declines
    goes to the reader of its format, which reports the first fault with
    its line number: a JSONL chunk to the line reader, a CSV chunk together
    with the rest of the file to the row reader, as a quoted field may span
    lines. The CSV chunks before that one hold no quote, so the row reader
    starts at a row, and every line before it is one row.
    """
    losses, packs = array("d"), []
    keys = norms = vectors = None
    table = {"": -1} if fmt == "csv" else {None: -1}  # group label -> key; an empty CSV field is no group
    with open(path, encoding="utf-8", newline="" if fmt == "csv" else None) as handle:
        width = lineno = 0
        if fmt == "csv":
            try:
                header = tuple(cell.strip() for cell in next(csv.reader(handle)))
            except StopIteration:
                raise EmptyDataset(f"{path}: empty file") from None
            except csv.Error as exc:
                raise ParseError(f"line 1: {exc}") from None
            if header not in _CSV_HEADERS:
                raise ParseError(f"line 1: header must be one of {['|'.join(h) for h in _CSV_HEADERS]}, got {header}")
            width, lineno = len(header), 1
        # A read of _CHUNK_CHARS characters, completed to the end of its line.
        while text := handle.read(_CHUNK_CHARS) + handle.readline():
            before = len(losses)
            chunk_vectors = None
            columns = _split_csv_chunk(text, width) if width else _split_jsonl_chunk(text)
            if columns is not None:
                ids, chunk_losses, chunk_groups, chunk_norms = columns
                losses.frombytes(chunk_losses.tobytes())
                lineno += len(chunk_losses)  # a line per row; only the file's last line may lack a newline
            elif width:
                rows = chain(io.StringIO(text, newline=""), handle)
                ids, chunk_groups, chunk_norms = _read_csv_rows(rows, width, lineno, losses)
            else:
                lines = text.split("\n")
                ids, chunk_groups, chunk_norms, chunk_vectors = _parse_jsonl_lines(lines, lineno, losses)
                lineno += len(lines) - 1
            count = len(losses) - before
            if count:
                packs.append((_SampleIds(ids, None) if isinstance(ids, str) else _pack_ids(ids), count))
            if chunk_groups is not None:
                if keys is None:
                    keys = array("i", [-1]) * before
                _add_group_keys(keys, table, chunk_groups)
            elif keys is not None:
                keys.extend(repeat(-1, count))
            norms = _extend_present(norms, chunk_norms, before, count)
            vectors = _extend_present(vectors, chunk_vectors, before, count)
    groups = None if keys is None else _group_column(keys, table)
    return {"losses": np.frombuffer(losses, dtype=np.float64), "sample_ids": _join_ids(packs),
            "group_ids": groups, "grad_norm_sq": norms, "grad_theta": vectors}


def _split_csv_chunk(text: str, width: int) -> tuple[str, np.ndarray, list[str] | None, list | None] | None:
    """The sample ids joined by newlines, the losses, and the group fields
    and grad norms (``None`` where empty) when the rows hold them, of the
    whole lines ``text``; or ``None`` unless every line is a row of
    ``width`` plain fields with a valid loss and an empty or numeric norm,
    none longer than the csv module's field size limit.

    Without quotes, NULs or carriage returns outside a ``\\r\\n`` the csv
    module splits exactly at commas and line ends, so splitting the UTF-8
    bytes there gives the same fields: no multibyte character holds one of
    those bytes. The separators must repeat ``width - 1`` commas then a
    newline, which a blank line breaks. A field has at least as many bytes
    as characters, so one that the limit could reject goes to the row reader.
    """
    if '"' in text or "\0" in text:
        return None
    data = _line_bytes(text)
    is_newline = data == ord("\n")
    ends = np.flatnonzero(is_newline | (data == ord(",")))  # the byte after every field
    rows = ends.size // width
    line_ends = ends[width - 1::width]
    if ends.size != rows * width or np.count_nonzero(is_newline) != rows or not is_newline[line_ends].all():
        return None
    # The column of every byte's field; the byte after a field, turned into a
    # newline, counts as its last.
    lengths = np.empty_like(ends)
    lengths[0] = ends[0] + 1
    np.subtract(ends[1:], ends[:-1], out=lengths[1:])
    if lengths.max() > csv.field_size_limit() + 1:
        return None
    column = np.arange(width, dtype=np.uint8)[None].repeat(rows, axis=0).ravel().repeat(lengths)
    if "\r" in text:
        returns = line_ends - 1
        returns = returns[data[returns] == ord("\r")]
        if returns.size != np.count_nonzero(data == ord("\r")):
            return None
        column[returns] = width  # in no field: "\r\n" ends a row as "\n" does
    data[ends] = ord("\n")
    losses = _non_negative_floats(data[column == 1], rows)
    if losses is None:
        return None
    norms = None
    if width == 4:
        try:
            norms = [float(t) if t else None for t in data[column == 3][:-1].tobytes().decode().split("\n")]
        except ValueError:
            return None
    ids = data[column == 0][:-1].tobytes().decode()
    groups = data[column == 2][:-1].tobytes().decode().split("\n") if width >= 3 else None
    return ids, losses, groups, norms


def _read_csv_rows(lines, width: int, lineno: int, losses: array) -> tuple[list, list | None, list | None]:
    """Sample ids, group fields and grad norms of the rows the csv module reads
    from ``lines``, the first of which is line ``lineno + 1``; their losses
    are appended to ``losses``. Blank rows are skipped; a row the csv module
    rejects (a field past its size limit) raises ``ParseError``."""
    ids = []
    groups = [] if width >= 3 else None
    norms = [] if width == 4 else None
    try:
        for lineno, row in enumerate(csv.reader(lines), start=lineno + 1):
            if not row:
                continue
            if len(row) != width:
                raise ParseError(f"line {lineno}: expected {width} fields, got {len(row)}")
            loss = _parse_float(row[1], "loss", lineno)
            if not 0.0 <= loss < math.inf:
                raise ValidationError(f"line {lineno}: loss must be finite and non-negative, got {row[1]!r}")
            ids.append(row[0])
            losses.append(loss)
            if groups is not None:
                groups.append(row[2])
            if norms is not None:
                norms.append(_parse_float(row[3], "grad_norm_sq", lineno) if row[3] else None)
    except csv.Error as exc:
        raise ParseError(f"line {lineno + 1}: {exc}") from None
    return ids, groups, norms


# What json.loads runs once leading whitespace is skipped; see _parse_json_line.
_SCAN_JSON = json.JSONDecoder().scan_once


def _parse_json_line(line: str, lineno: int):
    """``json.loads`` of a stripped line, without its per-call overhead.

    With no whitespace around the text, a scan that consumes the whole line
    gives exactly what ``json.loads`` gives; anything else goes to
    ``json.loads`` itself, so the error messages are its own.
    """
    try:
        obj, end = _SCAN_JSON(line, 0)
        if end == len(line):
            return obj
    except (StopIteration, json.JSONDecodeError):
        pass
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {lineno}: invalid JSON: {exc.msg}") from None


def _json_number(value, what: str, lineno: int) -> float:
    """A parsed JSON number as a float, or a ``ParseError`` naming ``what``.

    Booleans are not numbers. An integer beyond the float range reads as
    the infinity of its sign, so the range checks downstream reject it as
    they reject any non-finite value.
    """
    kind = type(value)
    if kind is float:
        return value
    if kind is int:
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    raise ParseError(f"line {lineno}: {what} must be a number, got {value!r}")


def _parse_jsonl_lines(lines: list[str], lineno: int, losses: array) -> tuple[list, list, list, list]:
    """Sample ids, group ids, grad norms and gradient vectors of ``lines``, the
    first of which is line ``lineno + 1``, parsed one by one; their losses
    are appended to ``losses``. Blank lines are skipped."""
    ids, groups, norms, vectors = [], [], [], []
    for lineno, line in enumerate(lines, start=lineno + 1):
        line = line.strip()
        if not line:
            continue
        obj = _parse_json_line(line, lineno)
        if not isinstance(obj, dict):
            raise ParseError(f"line {lineno}: expected an object, got {type(obj).__name__}")
        if "sample_id" not in obj or "loss" not in obj:
            raise ParseError(f"line {lineno}: object needs 'sample_id' and 'loss' fields")
        loss = obj["loss"]
        value = loss if type(loss) is float else _json_number(loss, "'loss'", lineno)
        if not 0.0 <= value < math.inf:
            shown = repr(loss if math.isfinite(value) else value)  # an int beyond range shows as inf
            raise ValidationError(f"line {lineno}: loss must be finite and non-negative, got {shown}")
        grad_theta = obj.get("grad_theta")
        if grad_theta is not None:
            if not isinstance(grad_theta, list):
                raise ParseError(f"line {lineno}: 'grad_theta' must be an array of numbers")
            grad_theta = [_json_number(x, "each 'grad_theta' value", lineno) for x in grad_theta]
        group = obj.get("group_id")
        norm = obj.get("grad_norm_sq")
        if norm is not None:
            norm = _json_number(norm, "'grad_norm_sq'", lineno)
        ids.append(str(obj["sample_id"]))
        losses.append(value)
        groups.append(None if group is None else str(group))
        norms.append(norm)
        vectors.append(grad_theta)
    return ids, groups, norms, vectors


# The text around a row's fields in the two layouts that json.dumps, and so
# dump_dataset, writes with its default separators:
#   {"sample_id": "<id>", "loss": <number>}
#   {"sample_id": "<id>", "loss": <number>, "group_id": "<group>"}
_JSONL_HEAD = b'{"sample_id": "'
_JSONL_LOSS = b'", "loss": '
_JSONL_GROUP = b', "group_id": "'


def _fixed_words(*pieces: tuple[int, bytes]) -> list[tuple[int, int, np.uint64, np.uint64]]:
    """``(anchor, offset, mask, value)`` of the little-endian 8-byte words that
    hold each ``(shift, text)`` piece, placed ``shift`` bytes after its anchor;
    the pieces are given in the order of their anchors."""
    words = []
    for anchor, (shift, text) in enumerate(pieces):
        for k in range(0, len(text), 8):
            part = text[k:k + 8]
            words.append((anchor, shift + k, np.uint64((1 << 8 * len(part)) - 1),
                          np.uint64(int.from_bytes(part, "little"))))
    return words


# Per layout, by the number of quotes in a row: the fixed text around the
# anchors (line start, closing quote of the id, end of the loss, newline).
_JSONL_LAYOUTS = {
    6: _fixed_words((0, _JSONL_HEAD), (0, _JSONL_LOSS), (0, b"}\n")),
    10: _fixed_words((0, _JSONL_HEAD), (0, _JSONL_LOSS), (0, _JSONL_GROUP), (-2, b'"}\n')),
}

_DIGIT = np.zeros(256, dtype=bool)
_DIGIT[np.frombuffer(b"0123456789", dtype=np.uint8)] = True
_NUMBER_BYTE = _DIGIT.copy()
_NUMBER_BYTE[np.frombuffer(b".eE+-\n", dtype=np.uint8)] = True


def _split_jsonl_chunk(text: str) -> tuple[str, np.ndarray, list[str] | None, None] | None:
    """The sample ids joined by newlines, the losses, the group labels (or
    ``None`` when no row has one) and no grad norms of the whole lines
    ``text``, or ``None`` unless every line is laid out as ``json.dumps``
    writes a dumped row.

    The checks run on the UTF-8 bytes, where no multibyte character holds
    a quote, a backslash or a byte below 0x20: every line holds the fixed
    text of one layout at its place; no string holds a backslash (so none
    holds an escape or a quote) or a control character; every loss matches
    JSON's number grammar without a sign and is finite. Such a line parses
    to exactly these values: JSON reads a number with ``float`` or as an
    ``int``, and both conversions to float are correctly rounded.
    """
    if "\\" in text:
        return None
    # Zeros after the bytes put the 8-byte word from any byte up to 8 past the last inside the buffer.
    buffer = _line_bytes(text, 15)
    data = buffer[:-15]
    # Every byte below 0x20 ends a row; the fixed text at a row's end makes it a newline.
    ends = np.flatnonzero(data < 0x20)
    quotes = np.flatnonzero(data == ord('"'))
    rows = ends.size
    width = quotes.size // rows
    if width not in _JSONL_LAYOUTS or quotes.size != width * rows:
        return None
    quotes = quotes.reshape(rows, width)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    # With every row's first quote right after its line start, row k of
    # ``quotes`` holds exactly the quotes of line k.
    if not (quotes[:, 0] == starts + 1).all():
        return None
    id_end = quotes[:, 3]
    loss_end = quotes[:, 6] - 2 if width == 10 else ends - 1
    anchors = (starts, id_end, loss_end, ends)
    words = np.ndarray((data.size + 8,), dtype="<u8", buffer=buffer, strides=(1,))  # word k: the 8 bytes from byte k on
    for anchor, offset, mask, value in _JSONL_LAYOUTS[width]:
        if not ((words[anchors[anchor] + offset] & mask) == value).all():
            return None
    # The loss starts with a digit, and with a 0 only when a digit does not follow.
    loss_start = id_end + len(_JSONL_LOSS)
    first = data[loss_start]
    if not _DIGIT[first].all() or (_DIGIT[data[loss_start + 1]] & (first == ord("0"))).any():
        return None
    # Each field is taken with the byte after it, turned into a newline.
    data[id_end] = data[loss_end] = ord("\n")
    numbers = _spans(data, loss_start, loss_end)
    # float() reads the rest of JSON's number grammar, and only it, from these
    # bytes (each number ended by a newline) once every point is followed by a digit.
    if not _NUMBER_BYTE[numbers].all() or not _DIGIT[numbers[np.flatnonzero(numbers == ord(".")) + 1]].all():
        return None
    losses = _non_negative_floats(numbers, rows)
    if losses is None:
        return None
    ids = _spans(data, starts + len(_JSONL_HEAD), id_end)[:-1].tobytes().decode()
    groups = None
    if width == 10:
        data[ends - 2] = ord("\n")
        groups = _spans(data, loss_end + len(_JSONL_GROUP), ends - 2)[:-1].tobytes().decode().split("\n")
    return ids, losses, groups, None


def _line_bytes(text: str, pad: int = 0) -> np.ndarray:
    """A writeable buffer of the UTF-8 bytes of the whole lines ``text``, a
    final newline when ``text`` lacks one, and ``pad`` zeros."""
    encoded = text.encode("utf-8")
    size = len(encoded) + (not encoded.endswith(b"\n"))
    buffer = np.zeros(size + pad, dtype=np.uint8)
    buffer[:len(encoded)] = np.frombuffer(encoded, dtype=np.uint8)
    buffer[size - 1] = ord("\n")
    return buffer


def _non_negative_floats(numbers: np.ndarray, count: int) -> np.ndarray | None:
    """The ``count`` numbers whose texts, each ended by a newline, make up the
    bytes ``numbers``, read by ``float``; or ``None`` when one does not read
    or is not finite and non-negative."""
    try:
        values = np.fromiter(map(float, numbers[:-1].tobytes().decode().split("\n")), dtype=np.float64, count=count)
    except ValueError:
        return None
    return values if ((values >= 0.0) & (values < math.inf)).all() else None


def _spans(data: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The bytes ``data[first[k]:last[k] + 1]`` of every row k, concatenated;
    the spans are in order and do not overlap."""
    edges = np.empty(2 * first.size + 2, dtype=np.intp)
    edges[0], edges[-1] = 0, data.size
    edges[1:-1:2] = first
    edges[2:-1:2] = last + 1
    inside = np.zeros(edges.size - 1, dtype=bool)
    inside[1::2] = True
    return data[np.repeat(inside, np.diff(edges))]


def _extend_present(column: list | None, chunk: list | None, before: int, count: int) -> list | None:
    """``column`` (``None`` while no value is present in the first ``before``
    samples) extended by the ``count`` values of ``chunk``, which holds
    values and ``None``s, or is ``None`` when every value is absent."""
    if column is not None:
        column.extend(repeat(None, count) if chunk is None else chunk)
    elif chunk and (chunk[0] is not None or chunk.count(None) < count):
        # The first value settles it in the common cases, sparing a count over present values.
        column = [None] * before + chunk
    return column


def _absent_as_none(column: np.ndarray | None):
    """Per-sample values of an optional float column, with ``None`` where absent."""
    if column is None:
        return repeat(None)
    return [None if math.isnan(v) else v for v in column.tolist()]


def _quoted_by_csv(fields: str | Sequence[str], count: int) -> bool:
    """Whether csv.writer quotes one of the ``count`` fields, a sequence or
    joined by newlines, because one holds a comma, a quote or a line break. A
    group label that is not a string, which CSV would read back as one,
    raises ``ValidationError``."""
    try:
        joined = fields if isinstance(fields, str) else "\n".join(fields)
    except TypeError:
        bad = next(f for f in fields if not isinstance(f, str))
        raise ValidationError(f"group label {bad!r} is not a string and does not fit CSV; use jsonl") from None
    return joined.count("\n") != max(count - 1, 0) or any(c in joined for c in ',"\r')


def dump_dataset(ds: LossDataset, path: str | Path, format: str = "csv") -> None:
    """Write a dataset back to disk; vector annotations require JSONL."""
    path = Path(path)
    if format == "csv":
        if ds.grad_theta is not None:
            raise ValidationError("grad_theta vectors do not fit CSV; use jsonl")
        # csv.writer quotes only a field that holds a comma, a quote or a line
        # break; without one, it writes the fields joined by commas, each row
        # ended with \r\n. Default ids and the loss and norm fields hold none.
        ids = ds._ids()
        plain = not _quoted_by_csv(ids.text, len(ds))
        header = ["sample_id", "loss"]
        columns = [chain.from_iterable(_id_blocks(ids, len(ds))), map(repr, _floats(ds.losses))]
        if ds._groups is not None or ds.grad_norm_sq is not None:
            header.append("group_id")
            labels = () if ds._groups is None else ds._groups.labels
            if "" in labels:
                raise ValidationError("group label '' does not fit CSV, where an empty field is no group; use jsonl")
            columns.append(repeat("") if ds._groups is None else ds._each_group(""))
            plain = not _quoted_by_csv(labels, len(labels)) and plain
        if ds.grad_norm_sq is not None:
            header.append("grad_norm_sq")
            columns.append("" if v is None else repr(v) for v in _absent_as_none(ds.grad_norm_sq))
        rows = chain([header], zip(*columns))
        with open(path, "w", newline="", encoding="utf-8") as handle:
            if plain:
                while block := list(islice(rows, _FLOAT_BLOCK)):
                    handle.write("\r\n".join(map(",".join, block)) + "\r\n")
            else:
                csv.writer(handle).writerows(rows)
    elif format == "jsonl":
        vectors = repeat(None) if ds.grad_theta is None else ds.grad_theta.tolist()
        groups = repeat(None) if ds._groups is None else ds._each_group()
        rows = zip(ds._each_id(), _floats(ds.losses), groups, _absent_as_none(ds.grad_norm_sq), vectors)
        with open(path, "w", encoding="utf-8") as handle:
            for sample_id, loss, group, norm, vector in rows:
                obj: dict = {"sample_id": sample_id, "loss": loss}
                if group is not None:
                    obj["group_id"] = group
                if norm is not None:
                    obj["grad_norm_sq"] = norm
                if vector is not None:
                    obj["grad_theta"] = vector
                handle.write(json.dumps(obj) + "\n")
    else:
        raise ValidationError(f"unknown format {format!r}; expected 'csv' or 'jsonl'")
