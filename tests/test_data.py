"""Dataset generation and shard partitioning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropfed.data import (
    heterogeneity_stats,
    make_synthetic_classification,
    partition_shards,
)
from dropfed.errors import ConfigError
from dropfed.objectives import ClientDataset, QuadraticObjective, make_objective, stack
from dropfed.rng import DATA, PARTITION, generator, seed_for


def test_blob_counts_and_labels():
    ds = make_synthetic_classification(3, 40, 2, 4.0, seed_for(1, DATA, 0))
    assert ds.n == 120
    assert ds.dim == 2
    # Emitted class by class.
    np.testing.assert_array_equal(ds.labels, np.repeat([0, 1, 2], 40))


def test_blob_means_near_design_centers():
    # 4000 unit-variance samples per class: the sample mean sits within
    # about 3/sqrt(4000) ~ 0.05 of the true center per coordinate.
    ds = make_synthetic_classification(2, 4000, 2, 6.0, seed_for(2, DATA, 0))
    for c in range(2):
        got = ds.features[ds.labels == c].mean(axis=0)
        want_x = 3.0 if c == 0 else -3.0  # radius 6/(2 sin(pi/2)) = 3
        np.testing.assert_allclose(got, [want_x, 0.0], atol=0.15)


def test_blob_separation_distance():
    # Adjacent class means must be exactly `separation` apart by design;
    # verify through well-populated sample means.
    ds = make_synthetic_classification(5, 2000, 3, 2.5, seed_for(3, DATA, 0))
    means = np.array([ds.features[ds.labels == c].mean(axis=0) for c in range(5)])
    for c in range(5):
        d = np.linalg.norm(means[c] - means[(c + 1) % 5])
        assert d == pytest.approx(2.5, abs=0.2)
    # Third coordinate carries no signal.
    np.testing.assert_allclose(means[:, 2], 0.0, atol=0.1)


def test_blob_one_dimensional_line():
    ds = make_synthetic_classification(3, 3000, 1, 2.0, seed_for(4, DATA, 0))
    means = [ds.features[ds.labels == c].mean() for c in range(3)]
    np.testing.assert_allclose(means, [-2.0, 0.0, 2.0], atol=0.15)


def test_blob_determinism_and_validation():
    a = make_synthetic_classification(2, 10, 2, 1.0, seed_for(5, DATA, 0))
    b = make_synthetic_classification(2, 10, 2, 1.0, seed_for(5, DATA, 0))
    np.testing.assert_array_equal(a.features, b.features)
    c = make_synthetic_classification(2, 10, 2, 1.0, seed_for(6, DATA, 0))
    assert not np.array_equal(a.features, c.features)
    for bad in [(1, 10, 2, 1.0), (2, 0, 2, 1.0), (2, 10, 0, 1.0), (2, 10, 2, -1.0)]:
        with pytest.raises(ConfigError):
            make_synthetic_classification(*bad, seed_for(7, DATA, 0))


def test_partition_covers_everything_once():
    ds = make_synthetic_classification(4, 30, 2, 3.0, seed_for(8, DATA, 0))
    parts = partition_shards(ds, clients=6, shards_per_client=2, seed=seed_for(8, PARTITION))
    assert parts.features.shape == (6, 20, 2)
    assert parts.labels.shape == (6, 20)
    # Every (feature row, label) appears exactly once across clients.
    stacked = parts.features.reshape(-1, 2)
    key = np.lexsort(stacked.T)
    orig_key = np.lexsort(ds.features.T)
    np.testing.assert_allclose(stacked[key], ds.features[orig_key])


def test_partition_shards_are_label_runs():
    # With shard size dividing per_class evenly, each shard is single-label.
    ds = make_synthetic_classification(2, 50, 2, 3.0, seed_for(9, DATA, 0))
    parts = partition_shards(ds, clients=10, shards_per_client=1, seed=seed_for(9, PARTITION))
    assert np.all(parts.labels == parts.labels[:, :1])


def test_partition_rejects_uneven_split():
    ds = make_synthetic_classification(2, 50, 2, 3.0, seed_for(10, DATA, 0))
    with pytest.raises(ConfigError):
        partition_shards(ds, clients=7, shards_per_client=1, seed=seed_for(10, PARTITION))
    with pytest.raises(ConfigError):
        partition_shards(ds, clients=0, shards_per_client=1, seed=seed_for(10, PARTITION))


def test_partition_deterministic_per_seed():
    ds = make_synthetic_classification(3, 20, 2, 3.0, seed_for(11, DATA, 0))
    a = partition_shards(ds, 5, 2, seed_for(11, PARTITION))
    b = partition_shards(ds, 5, 2, seed_for(11, PARTITION))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


@settings(max_examples=25, deadline=None)
@given(
    clients=st.integers(min_value=1, max_value=8),
    shards=st.integers(min_value=1, max_value=4),
    shard_size=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_partition_properties(clients, shards, shard_size, seed):
    n = clients * shards * shard_size
    rng = np.random.default_rng(seed)
    ds = ClientDataset(rng.normal(size=(n, 2)), rng.integers(0, 3, size=n))
    parts = partition_shards(ds, clients, shards, seed)
    assert parts.features.shape == (clients, shards * shard_size, 2)
    np.testing.assert_array_equal(np.bincount(parts.labels.ravel(), minlength=3),
                                  np.bincount(ds.labels, minlength=3))


def dealt_one_by_one(dataset, clients, shards_per_client, seed):
    """The partition as a loop over clients: the reference for the one-gather deal."""
    total_shards = clients * shards_per_client
    shard_size = dataset.n // total_shards
    order = np.argsort(dataset.labels, kind="stable")
    deck = generator(seed).permutation(total_shards)
    out = []
    for i in range(clients):
        mine = deck[i * shards_per_client : (i + 1) * shards_per_client]
        idx = np.concatenate([order[s * shard_size : (s + 1) * shard_size] for s in mine])
        out.append(ClientDataset(dataset.features[idx], dataset.labels[idx], client_id=i))
    return out


@settings(max_examples=60, deadline=None)
@given(
    clients=st.integers(min_value=1, max_value=12),
    shards=st.integers(min_value=1, max_value=4),
    shard_size=st.integers(min_value=1, max_value=6),
    classes=st.integers(min_value=1, max_value=4),  # one class: every label ties
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_one_gather_deal_equals_the_client_loop(clients, shards, shard_size, classes, seed):
    n = clients * shards * shard_size
    rng = np.random.default_rng(seed)
    pool = ClientDataset(rng.normal(size=(n, 3)), rng.integers(0, classes, size=n))
    stacked = partition_shards(pool, clients, shards, seed)
    looped = dealt_one_by_one(pool, clients, shards, seed)
    assert stacked.features.tobytes() == np.stack([c.features for c in looped]).tobytes()
    assert stacked.labels.tobytes() == np.stack([c.labels for c in looped]).tobytes()
    # The objective takes the stacked deal and the client list to the same arrays.
    for built in (QuadraticObjective(looped), make_objective("logistic", looped,
                                                             num_classes=max(classes, 2))):
        same = type(built)(stacked, **built.params)
        assert same.features.tobytes() == built.features.tobytes()
        assert same.labels.tobytes() == built.labels.tobytes()


def test_stacked_dataset_checks():
    features = np.zeros((3, 4, 2))
    features[1, 2, 0] = np.inf  # one value of one client
    with pytest.raises(ConfigError, match="non-finite"):
        ClientDataset(features, np.zeros((3, 4), dtype=int))
    with pytest.raises(ConfigError, match="do not match"):
        ClientDataset(np.zeros((3, 4, 2)), np.zeros((3, 5), dtype=int))
    with pytest.raises(ConfigError, match="do not match"):
        ClientDataset(np.zeros((3, 4, 2)), np.zeros(12, dtype=int))
    unequal = [ClientDataset(np.zeros((k, 2)), np.zeros(k, dtype=int)) for k in (4, 4, 5)]
    with pytest.raises(ConfigError, match="equal-size"):
        QuadraticObjective(unequal)
    with pytest.raises(ConfigError, match="equal-size"):
        stack([QuadraticObjective(d) for d in unequal])
    one = ClientDataset(np.ones((4, 2)), np.zeros(4, dtype=int))
    assert QuadraticObjective(one).features.shape == (1, 4, 2)


def test_heterogeneity_stats_hand_case():
    # Two quadratic clients with means 0 and 2: every client gradient sits
    # exactly 1 away from the average gradient no matter where we probe.
    left = QuadraticObjective(ClientDataset(np.array([[0.0]]), np.array([0])))
    right = QuadraticObjective(ClientDataset(np.array([[2.0]]), np.array([0])))
    worst = heterogeneity_stats([left, right], np.array([[0.0], [5.0], [-3.0]]))
    np.testing.assert_allclose(worst, [1.0, 1.0])


def test_heterogeneity_stats_takes_max_over_probes():
    pts = np.array([[0.0], [0.0]])
    same = QuadraticObjective(ClientDataset(pts, np.zeros(2, dtype=int)))
    other = QuadraticObjective(ClientDataset(pts + 3.0, np.zeros(2, dtype=int)))
    worst = heterogeneity_stats([same, other], np.array([[1.0]]))
    np.testing.assert_allclose(worst, [1.5, 1.5])
