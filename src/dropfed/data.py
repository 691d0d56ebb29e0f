"""Synthetic datasets, drawn as one pool, and label-shard partitioning."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .objectives import ClientDataset, Objective, group_means, stack
from .rng import Seed, generator


def _class_means(num_classes: int, dim: int, separation: float) -> np.ndarray:
    """Deterministic class means with adjacent pairs exactly `separation` apart."""
    means = np.zeros((num_classes, dim))
    if dim == 1:
        means[:, 0] = (np.arange(num_classes) - (num_classes - 1) / 2.0) * separation
    else:
        radius = separation / (2.0 * math.sin(math.pi / num_classes))
        angles = 2.0 * math.pi * np.arange(num_classes) / num_classes
        means[:, 0] = radius * np.cos(angles)
        means[:, 1] = radius * np.sin(angles)
    return means


def check_blobs(num_classes: int, per_class: int, dim: int, separation: float) -> None:
    """Reject blob settings that make_synthetic_classification cannot draw."""
    if num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
    if per_class < 1:
        raise ConfigError(f"per_class must be >= 1, got {per_class}")
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    if separation < 0:
        raise ConfigError(f"separation must be >= 0, got {separation}")


def check_counts(clients: int, shards_per_client: int) -> None:
    """Reject a deal to no client, or of no shard to each."""
    if clients < 1 or shards_per_client < 1:
        raise ConfigError("clients and shards_per_client must be >= 1")


def check_shards(samples: int, clients: int, shards_per_client: int) -> None:
    """Reject a deal of `samples` that does not give every client equal shards."""
    check_counts(clients, shards_per_client)
    shards = clients * shards_per_client
    if samples % shards:
        raise ConfigError(
            f"{samples} samples (classes * per_class) cannot split into {shards} equal shards"
        )


def make_synthetic_classification(
    num_classes: int, per_class: int, dim: int, separation: float, seed: Seed
) -> ClientDataset:
    """Gaussian blobs with unit covariance, one blob per class.

    Class means sit on a line (dim 1) or a circle (dim >= 2) so only the seed
    feeds the noise draws.  The pool's noise is one draw, row by row, and
    samples are emitted class by class.
    """
    check_blobs(num_classes, per_class, dim, separation)
    rng = generator(seed)
    means = _class_means(num_classes, dim, separation)
    features = rng.standard_normal((num_classes, per_class, dim))
    features += means[:, None]  # in place: the pool is the one array held
    return ClientDataset(features.reshape(-1, dim), np.repeat(np.arange(num_classes), per_class))


def partition_shards(
    dataset: ClientDataset, clients: int, shards_per_client: int, seed: Seed
) -> ClientDataset:
    """Split a sample pool into label-sorted shards and deal them out to clients.

    Samples are sorted by label (ties keep dataset order), cut into
    clients * shards_per_client contiguous shards of equal size, and the
    shard deck is shuffled once with the given seed.  Client i holds the
    i-th run of shards_per_client shards of the deck, and every client is
    gathered at once into one stacked (clients, n, d) dataset.  Sizes that
    do not divide evenly are rejected rather than padded or truncated.
    """
    check_shards(dataset.n, clients, shards_per_client)
    total_shards = clients * shards_per_client
    shards = np.argsort(dataset.labels, kind="stable").reshape(total_shards, -1)
    idx = shards[generator(seed).permutation(total_shards)].reshape(clients, -1)
    return ClientDataset(dataset.features[idx], dataset.labels[idx])


def heterogeneity_stats(objectives: Objective | list[Objective], probes: np.ndarray) -> np.ndarray:
    """Per-client max over probe points of ||grad f_i(w) - grad f(w)||."""
    population = stack(objectives)
    worst = np.zeros(population.num_clients)
    for w in np.atleast_2d(np.asarray(probes, dtype=np.float64)):
        grads = population.losses_and_grads(w)[1]
        worst = np.maximum(worst, np.linalg.norm(grads - group_means(None, grads, 1), axis=1))
    return worst
