"""Diagnostics: error probes with hand values and the metrics CSV contract."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from dropfed.diagnostics import (
    METRIC_COLUMNS,
    METRIC_DTYPE,
    RoundMetrics,
    evaluate,
    expected_update_error,
    read_metrics_csv,
    update_variance,
    update_variance_stderr,
    weighted_participation_bias,
    write_metrics_csv,
)
from dropfed.errors import ConfigError
from dropfed.harness import TrialOutput
from dropfed.objectives import ClientDataset, LogisticObjective, QuadraticObjective, stack


def point_client(m):
    m = np.atleast_1d(np.asarray(m, dtype=np.float64))
    return QuadraticObjective(ClientDataset(m[None, :], np.array([0])))


def test_global_loss_and_grad():
    population = stack([point_client(0.0), point_client(2.0)])
    w = np.array([0.0])
    # Losses 0 and 2, gradients 0 and -2.
    losses, grads = population.losses_and_grads(w)
    np.testing.assert_allclose(losses, [0.0, 2.0])
    np.testing.assert_allclose(grads, [[0.0], [-2.0]])
    assert population.loss(w) == pytest.approx(1.0)
    np.testing.assert_allclose(population.grad(w), [-1.0])


def test_expected_update_error_hand_value():
    # |1 - (-1)|^2 + |0 - 0|^2 = 4; a perfect update has zero error.  The
    # run-level gamma_t checks are in test_harness and test_lockstep.
    assert expected_update_error(np.array([1.0, 0.0]), np.array([-1.0, 0.0])) == 4.0
    grad = np.array([0.3, -2.0])
    assert expected_update_error(grad, grad) == 0.0


def test_update_variance_hand_value():
    # Two replays 0 and 2 in one coordinate: ddof-1 variance is 2.
    samples = np.array([[0.0], [2.0]])
    assert update_variance(samples) == pytest.approx(2.0)
    # Coordinates add up.
    twod = np.array([[0.0, 1.0], [2.0, 3.0]])
    assert update_variance(twod) == pytest.approx(4.0)
    with pytest.raises(ConfigError):
        update_variance(np.array([[1.0]]))
    with pytest.raises(ConfigError):
        update_variance(np.array([1.0, 2.0]))


def bits(x):
    return np.float64(x).tobytes()


def test_stacked_probes_equal_the_per_row_calls():
    # A stack of (..., dim) rows or (..., R, dim) replays gives, row by row,
    # the bits of the one-row call, at any scale, and those are the bits of
    # np.dot and of a column-wise variance.
    rng = np.random.default_rng(5)
    for _ in range(200):
        lead = tuple(rng.integers(1, 4, size=rng.integers(1, 3)))
        dim, replays = int(rng.integers(1, 40)), int(rng.integers(2, 9))
        scale = 10.0 ** rng.integers(-100, 101)
        v, g = (rng.normal(size=lead + (dim,)) * scale for _ in range(2))
        samples = rng.normal(size=lead + (replays, dim)) * scale
        errors, spreads = expected_update_error(v, g), update_variance(samples)
        assert errors.shape == spreads.shape == lead
        for at in np.ndindex(lead):
            diff = v[at] - g[at]
            assert bits(errors[at]) == bits(expected_update_error(v[at], g[at])) == bits(
                np.dot(diff, diff))
            assert bits(spreads[at]) == bits(update_variance(samples[at])) == bits(
                samples[at].var(axis=0, ddof=1).sum())


def test_update_variance_matches_population_on_gaussian():
    rng = np.random.default_rng(1)
    samples = rng.normal(scale=2.0, size=(4000, 3))  # true variance 4 per coord
    est = update_variance(samples)
    err = update_variance_stderr(samples)
    assert abs(est - 12.0) < 4 * err
    assert err < 1.0


def test_update_variance_stderr_requirements():
    with pytest.raises(ConfigError):
        update_variance_stderr(np.zeros((3, 2)))
    # Constant samples: zero variance, zero error bar.
    assert update_variance_stderr(np.ones((10, 2))) == 0.0


def test_evaluate_classification_and_regression():
    features = np.array([[-2.0], [2.0]])
    labels = np.array([0, 1])
    w = np.array([3.0, 0.0])
    logit = LogisticObjective(ClientDataset(features, labels))
    assert evaluate(logit, w[None]).tolist() == [1.0]
    flipped = ClientDataset(features, labels[::-1].copy())
    assert evaluate(LogisticObjective(flipped), w[None]).tolist() == [0.0]
    # Test set i is client i, scored by model i alone.
    both = LogisticObjective([ClientDataset(features, labels), flipped])
    assert evaluate(both, np.array([w, w])).tolist() == [1.0, 0.0]
    assert evaluate(both, np.array([w, -w])).tolist() == [1.0, 1.0]
    # A regression objective has no labels to predict.
    with pytest.raises(NotImplementedError):
        evaluate(point_client(0.0), np.zeros((1, 1)))


# Edge rows and the exact lines a metrics CSV gives them: ints bare, floats
# by repr (-0.0 keeps its sign, NaN is "nan", the smallest subnormal and 2**62
# print whole), each line ended by csv's "\r\n".
EDGE_ROWS = [
    RoundMetrics(t=0, loss=1.5, grad_norm2=0.25, E_t=0.1, gamma_t=0.2, phi_hat=math.nan,
                 n_active=10, uploads=10, acc=math.nan, eta_t=0.1),
    RoundMetrics(t=1, loss=1.0 / 3.0, grad_norm2=1e-17, E_t=0.0, gamma_t=math.nan, phi_hat=0.5,
                 n_active=0, uploads=0, acc=0.75, eta_t=0.05),
    RoundMetrics(t=2, loss=math.inf, grad_norm2=5e-324, E_t=-0.0, gamma_t=-math.inf,
                 phi_hat=1e-17, n_active=3, uploads=2**62, acc=-0.0, eta_t=1e300),
]
EDGE_LINES = [
    "t,loss,grad_norm2,E_t,gamma_t,phi_hat,n_active,uploads,acc,eta_t",
    "0,1.5,0.25,0.1,0.2,nan,10,10,nan,0.1",
    "1,0.3333333333333333,1e-17,0.0,nan,0.5,0,0,0.75,0.05",
    "2,inf,5e-324,-0.0,-inf,1e-17,3,4611686018427387904,-0.0,1e+300",
]


def edge_table(seeds=1):
    """The edge rows as seed 0's records of a (seeds, rounds) table, as a run holds them."""
    table = np.zeros((seeds, len(EDGE_ROWS)), METRIC_DTYPE)
    table[0] = [astuple(row) for row in EDGE_ROWS]
    return table


def test_metrics_csv_roundtrip_and_format(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics_csv(edge_table(3)[0], path)
    assert path.read_text().splitlines() == EDGE_LINES
    assert tuple(EDGE_LINES[0].split(",")) == METRIC_COLUMNS
    back = read_metrics_csv(path)
    # repr round-trips every float64 exactly, the sign of -0.0 and NaN included.
    assert repr(back) == repr(EDGE_ROWS)
    # A trial's rows are built from its records as plain Python values.
    rows = TrialOutput(0, edge_table()[0], np.zeros(1)).rows
    assert repr(rows) == repr(EDGE_ROWS) and "np." not in repr(rows)


def test_metrics_csv_byte_determinism(tmp_path):
    table = np.zeros((2, 5), METRIC_DTYPE)
    for i in range(5):
        table[1, i] = (i, 1.0 / (i + 1), i * 0.1, 0.0, 0.0, math.nan, i, i, math.nan, 0.01)
    p1, p2, edge = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "edge.csv"
    write_metrics_csv(table[1], p1)
    write_metrics_csv(table[1], p2)
    assert p1.read_bytes() == p2.read_bytes()
    write_metrics_csv(edge_table()[0], edge)
    assert edge.read_bytes() == "".join(line + "\r\n" for line in EDGE_LINES).encode()


def test_metrics_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,loss\n0,1.0\n")
    with pytest.raises(ConfigError):
        read_metrics_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ConfigError):
        read_metrics_csv(empty)


def test_weighted_participation_bias_skips_nan():
    etas = np.array([1.0, 2.0, 1.0])
    gammas = np.array([3.0, math.nan, 0.0])
    # Only rounds 0 and 2 count: (1*3 + 1*0) / (1 + 1) = 1.5.
    assert weighted_participation_bias(etas, gammas) == pytest.approx(1.5)
    assert math.isnan(weighted_participation_bias(etas, np.full(3, math.nan)))
    uniform = weighted_participation_bias(np.ones(3), np.array([1.0, 2.0, 3.0]))
    assert uniform == pytest.approx(2.0)
