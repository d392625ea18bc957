"""Shared builders for the test suite.

Networks here are deliberately tiny: every oracle in the suite is either a
closed-form value computed outside the package or a dense finite-difference
sweep, and both only stay cheap and well-conditioned at desk scale.
"""

from __future__ import annotations

import csv
import multiprocessing

import numpy as np
import pytest

from spikesam.gradients import Batch
from spikesam.harness import NONDETERMINISTIC_COLUMNS
from spikesam.network import NetworkParams, SurrogateSpec, init_network


@pytest.fixture(autouse=True)
def no_child_process_outlives_a_test():
    """Every forked seed share has ended when its test does, on failure paths too."""
    yield
    assert not multiprocessing.active_children()


def tiny_net(
    dims: tuple[int, ...] = (6, 5, 4),
    n_classes: int = 3,
    alpha: float = 0.5,
    theta: float = 0.4,
    weight_scale: float = 0.8,
    seed: int = 0,
) -> NetworkParams:
    return init_network(
        dims,
        n_classes,
        alpha=alpha,
        theta=theta,
        weight_scale=weight_scale,
        seed=np.random.default_rng(seed),
    )


def spike_batch(
    params: NetworkParams,
    n_samples: int = 4,
    n_steps: int = 4,
    rate: float = 0.5,
    seed: int = 1,
) -> Batch:
    """Bernoulli spike frames with labels cycling through the classes."""
    rng = np.random.default_rng(seed)
    d0 = params.dims[0]
    frames = (rng.random((n_samples, n_steps, d0)) < rate).astype(np.float64)
    labels = np.arange(n_samples, dtype=np.int64) % params.n_classes
    return Batch(frames, labels)


def dense_batch(
    params: NetworkParams,
    n_samples: int = 4,
    n_steps: int = 4,
    scale: float = 0.7,
    seed: int = 2,
) -> Batch:
    """Real-valued frames (the model does not require binary inputs)."""
    rng = np.random.default_rng(seed)
    d0 = params.dims[0]
    frames = scale * rng.random((n_samples, n_steps, d0))
    labels = rng.integers(0, params.n_classes, size=n_samples).astype(np.int64)
    return Batch(frames, labels)


ARCTAN_PI = SurrogateSpec("arctan", float(np.pi))


def metrics_equal(path_a: str, path_b: str) -> bool:
    """Whether two metrics tables agree outside the wall-clock columns."""

    def rows(path: str) -> list[dict]:
        with open(path, newline="") as fh:
            return [
                {k: v for k, v in row.items() if k not in NONDETERMINISTIC_COLUMNS}
                for row in csv.DictReader(fh)
            ]

    return rows(path_a) == rows(path_b)
