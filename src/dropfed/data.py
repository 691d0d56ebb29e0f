"""Synthetic datasets, label-shard partitioning, and plain-text persistence."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .objectives import ClientDataset, Objective, stack
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


def make_synthetic_classification(
    num_classes: int,
    per_class: int,
    dim: int,
    separation: float,
    seed: Seed,
) -> ClientDataset:
    """Gaussian blobs with unit covariance, one blob per class.

    Class means sit on a line (dim 1) or a circle (dim >= 2) so only the seed
    feeds the noise draws; samples are emitted class by class.
    """
    if num_classes < 2:
        raise ConfigError(f"num_classes must be >= 2, got {num_classes}")
    if per_class < 1:
        raise ConfigError(f"per_class must be >= 1, got {per_class}")
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    if separation < 0:
        raise ConfigError(f"separation must be >= 0, got {separation}")
    rng = generator(seed)
    means = _class_means(num_classes, dim, separation)
    features = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        block = slice(c * per_class, (c + 1) * per_class)
        features[block] = means[c] + rng.standard_normal((per_class, dim))
        labels[block] = c
    return ClientDataset(features, labels)


def partition_shards(
    dataset: ClientDataset,
    clients: int,
    shards_per_client: int,
    seed: Seed,
) -> list[ClientDataset]:
    """Split a dataset into label-sorted shards and deal them out to clients.

    Samples are sorted by label (ties keep dataset order), cut into
    clients * shards_per_client contiguous shards of equal size, and the
    shard deck is shuffled once with the given seed.  Sizes that do not
    divide evenly are rejected rather than padded or truncated.
    """
    if clients < 1 or shards_per_client < 1:
        raise ConfigError("clients and shards_per_client must be >= 1")
    total_shards = clients * shards_per_client
    if dataset.n % total_shards != 0:
        raise ConfigError(
            f"{dataset.n} samples cannot split into {total_shards} equal shards"
        )
    shard_size = dataset.n // total_shards
    order = np.argsort(dataset.labels, kind="stable")
    deck = generator(seed).permutation(total_shards)
    out = []
    for i in range(clients):
        mine = deck[i * shards_per_client : (i + 1) * shards_per_client]
        idx = np.concatenate([order[s * shard_size : (s + 1) * shard_size] for s in mine])
        out.append(ClientDataset(dataset.features[idx], dataset.labels[idx], client_id=i))
    return out


def heterogeneity_stats(objectives: Objective | list[Objective], probes: np.ndarray) -> np.ndarray:
    """Per-client max over probe points of ||grad f_i(w) - grad f(w)||."""
    population = stack(objectives)
    worst = np.zeros(population.num_clients)
    for w in np.atleast_2d(np.asarray(probes, dtype=np.float64)):
        grads = population.client_grads(w)
        worst = np.maximum(worst, np.linalg.norm(grads - np.mean(grads, axis=0), axis=1))
    return worst


def dump_dataset(dataset: ClientDataset, path: str | Path) -> None:
    """One sample per line: label then features, space-separated decimal text."""
    with open(path, "w") as fh:
        for label, row in zip(dataset.labels, dataset.features):
            fh.write(" ".join([str(int(label))] + [repr(float(v)) for v in row]) + "\n")


def load_dataset(path: str | Path, client_id: int = -1) -> ClientDataset:
    labels = []
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 2:
                raise ConfigError(f"{path}:{line_no}: expected label plus features")
            labels.append(int(parts[0]))
            rows.append([float(v) for v in parts[1:]])
    if not rows:
        raise ConfigError(f"{path}: no samples")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ConfigError(f"{path}: inconsistent feature counts {sorted(widths)}")
    return ClientDataset(np.array(rows), np.array(labels, dtype=np.int64), client_id)
