"""Shared fixtures and dataset factories."""

import json
import math

import numpy as np
import pytest

from ratefn import DiscreteLossDistribution, from_losses, loss_data

LN2 = math.log(2.0)


@pytest.fixture
def two_point_ds():
    """Losses {0, ln 2} with equal counts: mean ln2/2, variance (ln2)^2/4."""
    return from_losses([0.0, LN2], model_id="two-point")


@pytest.fixture
def bernoulli_ds():
    """Losses {0, 1} with equal counts; its rate is the binary relative entropy."""
    return from_losses([0.0, 1.0], model_id="bernoulli")


@pytest.fixture
def constant_ds():
    return from_losses([0.7, 0.7, 0.7], model_id="constant")


@pytest.fixture
def bernoulli_dist():
    return DiscreteLossDistribution((0.0, 1.0), (0.5, 0.5))


@pytest.fixture
def variance_calls(monkeypatch):
    """The arguments of every run of the summary's per-sample variance loop."""
    calls = []
    variance = loss_data._variance

    def counted(*args):
        calls.append(args)
        return variance(*args)

    monkeypatch.setattr(loss_data, "_variance", counted)
    return calls


def _reject_constant(token):
    raise ValueError(f"{token} is not a JSON value (RFC 8259)")


def strict_json(text):
    """Parse JSON text, refusing the NaN, Infinity and -Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def random_dataset(rng, size=None, scale=1.0, model_id="random"):
    """Continuous losses in [0, scale] with a guaranteed unique minimum."""
    size = size or int(rng.integers(5, 60))
    losses = rng.uniform(0.0, scale, size=size)
    return from_losses(losses, model_id=model_id)


def random_distribution(rng, max_atoms=8):
    """A discrete distribution with rational probabilities (small denominator)."""
    atoms = int(rng.integers(2, max_atoms + 1))
    counts = rng.integers(1, 12, size=atoms)
    denom = int(counts.sum())
    values = np.sort(rng.uniform(0.0, 4.0, size=atoms))
    return DiscreteLossDistribution(tuple(values), tuple(c / denom for c in counts)), denom


def binary_kl(q, p=0.5):
    """Relative entropy KL(q || p) between Bernoulli parameters."""
    return q * math.log(q / p) + (1 - q) * math.log((1 - q) / (1 - p))
