"""Exception types shared across the package, the real and integer argument
checks and the checks every input file passes.

Every error is an ``InputError`` (bad input data or parameters) or a
``ComputeError`` (a computation that could not complete); the command line
exits with code 2 for the first and 1 for the second.
"""

import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class RatefnError(Exception):
    """Base class for every error raised by this package."""


class InputError(RatefnError):
    """Input data or a parameter is invalid; the command line exits with code 2."""


class ComputeError(RatefnError):
    """A computation on valid input could not complete; the command line exits with code 1."""


class ParseError(InputError):
    """A file could not be parsed; the message carries a 1-based line number or a byte offset."""


class ValidationError(InputError):
    """Data violates an input contract (negative / non-finite loss, bad shapes)."""


class EmptyDataset(InputError):
    """A dataset with no records was given or loaded."""


class MissingGroupId(InputError):
    """An operation that needs augmentation groups found a record without one."""


class UnknownSampleId(InputError):
    """A relabeling map does not cover some sample id."""


class InvalidLambda(InputError):
    """Tilt parameter is negative or non-finite."""


class InvalidA(InputError):
    """Deviation level is non-positive or non-finite."""


class InvalidS(InputError):
    """Rate budget is non-positive or non-finite."""


class InvalidMeta(InputError):
    """Model metadata (parameter count, sample size, delta, epsilon) is invalid."""


class SolverFailure(ComputeError):
    """A bracket could not be established below the tilt cap."""


class InternalConsistencyError(ComputeError):
    """A quantity violated a theorem by more than round-off; indicates a bug."""


class ZeroVariance(InputError):
    """The quadratic rate approximation needs strictly positive loss variance."""


class MissingGradients(InputError):
    """Parameter-gradient annotations are required but absent."""


class MissingGradNorms(InputError):
    """Input-gradient norm annotations are required but absent."""


class DimensionMismatch(InputError):
    """Gradient vectors and the displacement vector disagree in length."""


class NonRationalProbs(InputError):
    """Probabilities cannot be expanded exactly with the given denominator."""


def check_real(value, exc: type[InputError], name: str, sign: str = "positive") -> float:
    """``value`` as a finite float, or ``exc`` naming ``name``.

    ``sign`` is ``"positive"``, ``"non-negative"`` or ``"any"``; the first two
    also require that sign.
    """
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise exc(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(x) or (sign == "positive" and x <= 0.0) or (sign == "non-negative" and x < 0.0):
        raise exc(f"{name} must be finite{'' if sign == 'any' else ' and ' + sign}, got {x!r}")
    return x


def check_count(value, exc: type[InputError], name: str, minimum: int = 1) -> int:
    """``value`` as an ``int`` of at least ``minimum``, or ``exc`` naming ``name``.

    Python and numpy integers pass; ``bool`` and every other type do not.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        kind = "a positive integer" if minimum == 1 else f"an integer of at least {minimum}"
        raise exc(f"{name} must be {kind}, got {value!r}")
    return int(value)


@contextmanager
def input_file(path: str | Path, prefix: str = ""):
    """Read the input file ``path`` inside the block; yields it as a ``Path``.

    A missing path, a path that is not a regular file, and a
    ``UnicodeDecodeError`` raised inside the block raise ``ParseError``
    with ``prefix`` before the message; the last names the first byte that
    is not UTF-8.
    """
    path = Path(path)
    if not path.is_file():
        raise ParseError(f"{prefix}{path}: {'not a regular file' if path.exists() else 'no such file'}")
    try:
        yield path
    except UnicodeDecodeError:
        data = path.read_bytes()
        try:
            data.decode("utf-8")
            where = ""
        except UnicodeDecodeError as exc:
            where = f": byte 0x{data[exc.start]:02x} at offset {exc.start}"
        raise ParseError(f"{prefix}{path}: not UTF-8 text{where}") from None
