"""Output checks. Each raises ``CheckFailed``; the runner counts the operation as failed."""

from __future__ import annotations

import hashlib
import math

ROUND_TRIP_REL = 1e-6
ORACLE_REL = 1e-9
SCALE_REL = 1e-6
# Averaging within groups lowers J; the gap may sit below zero by round-off only.
DA_GAP_TOL = 1e-12
# Equal groups keep the grand mean up to the rounding of each group mean, so
# the report's exact-equality flag ``mean_preserved`` can be false.
MEAN_REL = 1e-12


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(value: float, reference: float, rel: float, what: str) -> None:
    """``value`` equals ``reference`` to ``rel`` relative error."""
    require(
        math.isfinite(value) and abs(value - reference) <= rel * abs(reference),
        f"{what}: {value!r} vs {reference!r} (rel tol {rel:g})",
    )


def curve(j_values, j_derivs, gap: float) -> None:
    """``0 <= J`` and ``0 <= J' <= mean - min`` at every tilt."""
    for j in j_values:
        require(j >= 0.0, f"J = {j!r} < 0")
    for dj in j_derivs:
        require(0.0 <= dj <= gap, f"J' = {dj!r} outside [0, {gap!r}]")


def round_trip(s: float, rate_of_inverse: float) -> None:
    """``I(I^-1(s)) = s``."""
    close(rate_of_inverse, s, ROUND_TRIP_REL, f"I(I^-1({s!r}))")


def bound(upper: float, mean: float) -> None:
    """A bound whose training loss is the dataset mean lies in ``[mean, 2*mean]``."""
    require(mean <= upper <= 2.0 * mean, f"bound {upper!r} outside [{mean!r}, {2 * mean!r}]")


def da_gaps(gaps) -> None:
    for gap in gaps:
        require(gap >= -DA_GAP_TOL, f"augmentation raised J by {-gap!r}")


def digest(store: dict, key, data: bytes) -> str:
    """SHA-256 of ``data``; repeats of ``key`` must give the same digest."""
    value = hashlib.sha256(data).hexdigest()
    first = store.setdefault(key, value)
    require(first == value, f"{key}: digest {value[:12]} differs from the first repeat's {first[:12]}")
    return value
