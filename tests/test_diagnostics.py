"""Diagnostics: error probes with hand values and the metrics CSV contract."""

import math

import numpy as np
import pytest

from dropfed.diagnostics import (
    METRIC_COLUMNS,
    RoundMetrics,
    evaluate,
    expected_update_error,
    participation_bias,
    read_metrics_csv,
    update_variance,
    update_variance_stderr,
    uploads_per_round,
    weighted_participation_bias,
    write_metrics_csv,
)
from dropfed.errors import ConfigError
from dropfed.objectives import ClientDataset, LogisticObjective, QuadraticObjective, stack


def point_client(m):
    m = np.atleast_1d(np.asarray(m, dtype=np.float64))
    return QuadraticObjective(ClientDataset(m[None, :], np.array([0])))


def client_grads(objs, w):
    return stack(objs).losses_and_grads(w)[1]


def test_global_loss_and_grad():
    population = stack([point_client(0.0), point_client(2.0)])
    w = np.array([0.0])
    # Losses 0 and 2, gradients 0 and -2.
    losses, grads = population.losses_and_grads(w)
    np.testing.assert_allclose(losses, [0.0, 2.0])
    np.testing.assert_allclose(grads, [[0.0], [-2.0]])
    assert population.loss(w) == pytest.approx(1.0)
    np.testing.assert_allclose(population.grad(w), [-1.0])


def test_participation_bias_hand_value():
    # Means 0 and 2 probed at w = 0: client-0 gradient 0, global gradient -1,
    # so activating only client 0 gives gamma = |0 - (-1)|^2 = 1.
    grads = client_grads([point_client(0.0), point_client(2.0)], np.array([0.0]))
    assert participation_bias(grads, [0]) == pytest.approx(1.0)
    assert participation_bias(grads, [1]) == pytest.approx(1.0)
    assert participation_bias(grads, [0, 1]) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ConfigError):
        participation_bias(grads, [])


def test_participation_bias_independent_of_w_for_quadratics():
    # Quadratic gradients are w - m, so the participant/global gap is a
    # constant in w.
    objs = [point_client(0.0), point_client(2.0), point_client(5.0)]
    vals = [participation_bias(client_grads(objs, np.array([x])), [0, 2]) for x in (-3.0, 0.0, 11.0)]
    np.testing.assert_allclose(vals, vals[0])


def test_expected_update_error_decomposition_case():
    # If the expected update equals the participants' mean gradient (K = 1,
    # full batch), E_t and gamma_t agree exactly.
    objs = [point_client(0.0), point_client(2.0)]
    w = np.array([0.7])
    active = [0]
    v_exp = np.mean([objs[i].grad(w) for i in active], axis=0)
    grad = stack(objs).grad(w)
    assert expected_update_error(v_exp, grad) == pytest.approx(
        participation_bias(client_grads(objs, w), active), abs=1e-15
    )
    # A perfect update has zero error.
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
    logit = LogisticObjective(ClientDataset(features, labels))
    assert evaluate(logit, np.array([3.0, 0.0]), ClientDataset(features, labels)) == 1.0
    flipped = ClientDataset(features, labels[::-1].copy())
    assert evaluate(logit, np.array([3.0, 0.0]), flipped) == 0.0
    quad = point_client(0.0)
    assert evaluate(quad, np.array([0.0]), quad.datasets[0]) is None


def test_uploads_per_round_doubles_for_control_variates():
    sizes = np.array([10, 5, 0])
    np.testing.assert_array_equal(uploads_per_round("fedavg", sizes), [10, 5, 0])
    np.testing.assert_array_equal(uploads_per_round("mimic", sizes), [10, 5, 0])
    np.testing.assert_array_equal(uploads_per_round("mifa", sizes), [10, 5, 0])
    np.testing.assert_array_equal(uploads_per_round("scaffold", sizes), [20, 10, 0])


def test_metrics_csv_roundtrip_and_format(tmp_path):
    rows = [
        RoundMetrics(t=0, loss=1.5, grad_norm2=0.25, E_t=0.1, gamma_t=0.2,
                     phi_hat=math.nan, n_active=10, uploads=10, acc=math.nan, eta_t=0.1),
        RoundMetrics(t=1, loss=1.0 / 3.0, grad_norm2=1e-17, E_t=0.0, gamma_t=math.nan,
                     phi_hat=0.5, n_active=0, uploads=0, acc=0.75, eta_t=0.05),
    ]
    path = tmp_path / "m.csv"
    write_metrics_csv(rows, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(METRIC_COLUMNS)
    # Ints print bare, floats via repr, NaN as 'nan'.
    assert lines[1].startswith("0,1.5,0.25,")
    assert "nan" in lines[1]
    assert "0.3333333333333333" in lines[2]
    assert "1e-17" in lines[2]
    back = read_metrics_csv(path)
    assert len(back) == 2
    assert back[0].t == 0 and back[1].n_active == 0
    assert back[0].loss == rows[0].loss  # repr round-trips float64 exactly
    assert math.isnan(back[0].phi_hat) and math.isnan(back[1].gamma_t)
    assert back[1].grad_norm2 == 1e-17


def test_metrics_csv_byte_determinism(tmp_path):
    rows = [
        RoundMetrics(t=i, loss=1.0 / (i + 1), grad_norm2=i * 0.1, E_t=0.0,
                     gamma_t=0.0, phi_hat=math.nan, n_active=i, uploads=i,
                     acc=math.nan, eta_t=0.01)
        for i in range(5)
    ]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(rows, p1)
    write_metrics_csv(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()


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
