"""Objective-level checks: gradients, variance formulas, and input validation.

Gradients are checked against central finite differences, batch gradients
against exhaustive enumeration of every batch (feasible for tiny datasets),
and the quadratic variance formula against the same enumeration.
"""

import itertools

import numpy as np
import pytest

from dropfed.errors import ConfigError
from dropfed.objectives import (
    ClientDataset,
    LogisticObjective,
    MlpObjective,
    QuadraticObjective,
    global_optimum,
    make_objective,
)


def finite_diff_grad(objective, w, eps=1e-6):
    """Central-difference gradient of objective.loss at w."""
    g = np.empty_like(w)
    for j in range(len(w)):
        step = np.zeros_like(w)
        step[j] = eps
        g[j] = (objective.loss(w + step) - objective.loss(w - step)) / (2 * eps)
    return g


def small_dataset(rng, n=12, dim=3, classes=2):
    features = rng.normal(size=(n, dim))
    labels = rng.integers(0, classes, size=n)
    # Make sure every class appears at least once so nothing degenerates.
    labels[:classes] = np.arange(classes)
    return ClientDataset(features, labels)


# ---------------------------------------------------------------------------
# dataset validation


def test_dataset_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        ClientDataset(np.zeros(5), np.zeros(5, dtype=int))
    with pytest.raises(ConfigError):
        ClientDataset(np.zeros((5, 2)), np.zeros(4, dtype=int))
    with pytest.raises(ConfigError):
        ClientDataset(np.zeros((0, 2)), np.zeros(0, dtype=int))
    bad = np.zeros((3, 2))
    bad[1, 1] = np.nan
    with pytest.raises(ConfigError):
        ClientDataset(bad, np.zeros(3, dtype=int))


def test_dataset_properties():
    ds = ClientDataset(np.ones((4, 2)), np.zeros(4, dtype=int), client_id=7)
    assert ds.n == 4
    assert ds.features.shape == (4, 2)
    assert ds.client_id == 7
    assert ds.features.dtype == np.float64
    assert ds.labels.dtype == np.int64


# ---------------------------------------------------------------------------
# quadratic objective


def test_quadratic_hand_values():
    # Two points 0 and 2 in 1-D: mean 1, loss at w=0 is (0 + 4)/2 * 0.5 = 1,
    # gradient at w=0 is 0 - 1 = -1.
    ds = ClientDataset(np.array([[0.0], [2.0]]), np.zeros(2, dtype=int))
    obj = QuadraticObjective(ds)
    assert obj.dim == 1
    assert obj.smoothness() == [1.0]
    np.testing.assert_allclose(global_optimum(obj), [1.0])
    assert obj.loss(np.array([0.0])) == pytest.approx(1.0)
    np.testing.assert_allclose(obj.grad(np.array([0.0])), [-1.0])
    np.testing.assert_allclose(obj.grad(np.array([1.0])), [0.0], atol=1e-15)


def test_quadratic_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    ds = small_dataset(rng, n=9, dim=4)
    obj = QuadraticObjective(ds)
    for _ in range(5):
        w = rng.normal(size=obj.dim)
        fd = finite_diff_grad(obj, w)
        np.testing.assert_allclose(obj.grad(w), fd, rtol=1e-6, atol=1e-8)


def test_quadratic_batch_grad_unbiased_exhaustively():
    # Over all batches of size b drawn without replacement, the average of
    # the batch gradients must equal the full gradient exactly.
    rng = np.random.default_rng(5)
    ds = small_dataset(rng, n=6, dim=2)
    obj = QuadraticObjective(ds)
    w = rng.normal(size=obj.dim)
    full = obj.grad(w)
    for b in (1, 2, 3, 5):
        grads = [
            obj.batch_grad(w, np.array(idx))
            for idx in itertools.combinations(range(ds.n), b)
        ]
        np.testing.assert_allclose(np.mean(grads, axis=0), full, atol=1e-12)


def test_quadratic_variance_formula_matches_enumeration():
    rng = np.random.default_rng(17)
    ds = small_dataset(rng, n=7, dim=3)
    obj = QuadraticObjective(ds)
    w = rng.normal(size=obj.dim)
    full = obj.grad(w)
    for b in (1, 2, 4, 6):
        sq = [
            float(np.sum((obj.batch_grad(w, np.array(idx)) - full) ** 2))
            for idx in itertools.combinations(range(ds.n), b)
        ]
        assert obj.grad_variance(b) == pytest.approx(np.mean(sq), rel=1e-12)
    assert obj.grad_variance(7) == 0.0
    assert obj.grad_variance(99) == 0.0
    with pytest.raises(ConfigError):
        obj.grad_variance(0)


def test_quadratic_variance_independent_of_w():
    # The batch gradient is w - mean(batch), so the deviation from the full
    # gradient does not involve w at all.
    rng = np.random.default_rng(3)
    ds = small_dataset(rng, n=8, dim=2)
    obj = QuadraticObjective(ds)
    w1, w2 = np.zeros(2), np.random.default_rng(4).normal(size=2) * 10
    for _ in range(20):
        idx = rng.choice(8, size=3, replace=False)
        np.testing.assert_allclose(
            obj.batch_grad(w1, idx) - obj.grad(w1), obj.batch_grad(w2, idx) - obj.grad(w2),
            atol=1e-12,
        )


# ---------------------------------------------------------------------------
# logistic objective


def test_logistic_binary_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    ds = small_dataset(rng, n=11, dim=3, classes=2)
    obj = LogisticObjective(ds, num_classes=2, reg=0.05)
    assert obj.dim == 4  # bias column folded in
    for _ in range(5):
        w = rng.normal(size=obj.dim)
        fd = finite_diff_grad(obj, w)
        np.testing.assert_allclose(obj.grad(w), fd, rtol=1e-5, atol=1e-8)


def test_logistic_multiclass_gradient_matches_finite_differences():
    rng = np.random.default_rng(37)
    ds = small_dataset(rng, n=12, dim=2, classes=4)
    obj = LogisticObjective(ds, num_classes=4, reg=0.01)
    assert obj.dim == 4 * 3
    for _ in range(4):
        w = rng.normal(size=obj.dim)
        fd = finite_diff_grad(obj, w)
        np.testing.assert_allclose(obj.grad(w), fd, rtol=1e-5, atol=1e-8)


def test_logistic_batch_grad_unbiased_exhaustively():
    rng = np.random.default_rng(41)
    ds = small_dataset(rng, n=6, dim=2, classes=3)
    obj = LogisticObjective(ds, num_classes=3)
    w = rng.normal(size=obj.dim) * 0.5
    full = obj.grad(w)
    for b in (1, 2, 4):
        grads = [
            obj.batch_grad(w, np.array(idx))
            for idx in itertools.combinations(range(ds.n), b)
        ]
        np.testing.assert_allclose(np.mean(grads, axis=0), full, atol=1e-12)


def test_logistic_smoothness_bounds_gradient_lipschitz():
    rng = np.random.default_rng(43)
    ds = small_dataset(rng, n=15, dim=3, classes=2)
    obj = LogisticObjective(ds, num_classes=2, reg=0.1)
    (L,) = obj.smoothness()
    for _ in range(50):
        w1 = rng.normal(size=obj.dim) * 2
        w2 = rng.normal(size=obj.dim) * 2
        lhs = np.linalg.norm(obj.grad(w1) - obj.grad(w2))
        assert lhs <= L * np.linalg.norm(w1 - w2) + 1e-12


def test_logistic_predict_separable_case():
    features = np.array([[-2.0], [-1.5], [1.5], [2.0]])
    labels = np.array([0, 0, 1, 1])
    obj = LogisticObjective(ClientDataset(features, labels))
    w = np.array([5.0, 0.0])  # weight on x, zero bias
    np.testing.assert_array_equal(obj.predict(w[None]), labels[None])
    # Model i predicts client i only: the flipped client needs the flipped weight.
    both = LogisticObjective([ClientDataset(features, labels),
                              ClientDataset(features, labels[::-1].copy())])
    np.testing.assert_array_equal(both.predict(np.array([w, -w])), [labels, labels[::-1]])
    with pytest.raises(ConfigError):
        both.predict(w[None])
    multi = LogisticObjective(ClientDataset(features, labels), num_classes=3)
    w3 = np.zeros(multi.dim)
    assert multi.predict(w3[None]).shape == (1, 4)


def test_logistic_validation():
    rng = np.random.default_rng(2)
    ds = small_dataset(rng, n=6, dim=2, classes=3)
    with pytest.raises(ConfigError):
        LogisticObjective(ds, num_classes=1)
    with pytest.raises(ConfigError):
        LogisticObjective(ds, num_classes=3, reg=-0.1)
    with pytest.raises(ConfigError):
        LogisticObjective(ds, num_classes=2)  # label 2 out of range
    with pytest.raises(ConfigError):
        LogisticObjective(ds, num_classes=3).loss(np.zeros(5))


# ---------------------------------------------------------------------------
# mlp objective


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(53)
    ds = small_dataset(rng, n=10, dim=2, classes=3)
    obj = MlpObjective(ds, num_classes=3, hidden=4, reg=0.02)
    assert obj.dim == 4 * 3 + 3 * 5
    for _ in range(3):
        w = rng.normal(size=obj.dim) * 0.5
        fd = finite_diff_grad(obj, w)
        np.testing.assert_allclose(obj.grad(w), fd, rtol=1e-4, atol=1e-7)


def test_mlp_batch_grad_unbiased_exhaustively():
    rng = np.random.default_rng(59)
    ds = small_dataset(rng, n=5, dim=2, classes=2)
    obj = MlpObjective(ds, num_classes=2, hidden=3)
    w = rng.normal(size=obj.dim) * 0.3
    full = obj.grad(w)
    for b in (1, 2, 3):
        grads = [
            obj.batch_grad(w, np.array(idx))
            for idx in itertools.combinations(range(ds.n), b)
        ]
        np.testing.assert_allclose(np.mean(grads, axis=0), full, atol=1e-12)


def test_mlp_parameter_budget():
    rng = np.random.default_rng(61)
    ds = small_dataset(rng, n=6, dim=50, classes=2)
    with pytest.raises(ConfigError):
        MlpObjective(ds, num_classes=2, hidden=30)


def test_mlp_predict_and_probe_smoothness():
    rng = np.random.default_rng(67)
    ds = small_dataset(rng, n=8, dim=2, classes=2)
    obj = MlpObjective(ds, num_classes=2, hidden=3)
    preds = obj.predict(rng.normal(size=(1, obj.dim)))
    assert preds.shape == (1, 8)
    assert set(np.unique(preds)) <= {0, 1}
    assert obj.smoothness()[0] > 0


# ---------------------------------------------------------------------------
# factory and global optimum


def test_make_objective_dispatch():
    rng = np.random.default_rng(71)
    ds = small_dataset(rng, n=6, dim=2, classes=2)
    assert make_objective("quadratic", ds).kind == "quadratic"
    assert make_objective("logistic", ds, num_classes=2).kind == "logistic"
    assert make_objective("mlp", ds, num_classes=2, hidden=2).kind == "mlp"
    with pytest.raises(ConfigError):
        make_objective("svm", ds)
    with pytest.raises(ConfigError):
        make_objective("quadratic", ds, num_classes=2)


def test_global_optimum_is_mean_of_client_means():
    rng = np.random.default_rng(73)
    objs = []
    for i in range(4):
        pts = rng.normal(size=(3 + i, 2)) + i
        objs.append(QuadraticObjective(ClientDataset(pts, np.zeros(3 + i, dtype=int))))
    w_star = global_optimum(objs)
    np.testing.assert_allclose(w_star, np.mean([o.means[0] for o in objs], axis=0))
    # The averaged gradient must vanish there.
    avg_grad = np.mean([o.grad(w_star) for o in objs], axis=0)
    np.testing.assert_allclose(avg_grad, 0.0, atol=1e-14)


def test_global_optimum_matches_long_gradient_descent():
    rng = np.random.default_rng(79)
    objs = [
        QuadraticObjective(ClientDataset(rng.normal(size=(5, 2)) + k, np.zeros(5, dtype=int)))
        for k in range(3)
    ]
    w = np.zeros(2)
    for _ in range(400):
        w = w - 0.5 * np.mean([o.grad(w) for o in objs], axis=0)
    np.testing.assert_allclose(global_optimum(objs), w, atol=1e-10)


def test_global_optimum_none_for_non_quadratic():
    rng = np.random.default_rng(83)
    ds = small_dataset(rng, n=6, dim=2, classes=2)
    objs = [QuadraticObjective(ds), LogisticObjective(ds)]
    assert global_optimum(objs) is None
    with pytest.raises(ConfigError):
        global_optimum([])
    mismatched = [
        QuadraticObjective(small_dataset(rng, n=4, dim=2)),
        QuadraticObjective(small_dataset(rng, n=4, dim=3)),
    ]
    with pytest.raises(ConfigError):
        global_optimum(mismatched)


def test_quadratic_predict_is_not_implemented():
    rng = np.random.default_rng(89)
    ds = small_dataset(rng, n=4, dim=2)
    obj = QuadraticObjective(ds)
    with pytest.raises(NotImplementedError):
        obj.predict(np.zeros((1, 2)))
