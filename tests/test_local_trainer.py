"""Local SGD: hand-traced trajectories, the upload identity, and rng behavior.

Most cases train one row; the lockstep cases check that rows train
independently of each other.
"""

import logging
import math
import warnings

import numpy as np
import pytest

from dropfed.availability import periodic_schedule
from dropfed.errors import ConfigError
from dropfed.harness import SeedTask, run_trials
from dropfed.local_trainer import LocalConfig, draw_batches, local_train
from dropfed.objectives import ClientDataset, QuadraticObjective
from dropfed.schedules import constant_rates


def one_point_objective(value=1.0):
    return QuadraticObjective(ClientDataset(np.array([[value]]), np.array([0])))


def train_one(obj, w0, cfg, rng):
    """(upload, final model) of a single row training client 0 from w0 on batches from rng."""
    batches = draw_batches(obj.n, [0], cfg.batch_size, [rng], cfg.steps)
    upload, _, w_final = local_train(obj, w0[None], batches, cfg)
    return upload[0], w_final[0]


def test_two_step_hand_trace():
    # Single data point at 1, so grad(w) = w - 1.  From w = 0 with lr 0.1:
    #   step 1: g = -1,   w -> 0.1
    #   step 2: g = -0.9, w -> 0.19
    # upload = (-1 - 0.9) / 2 = -0.95.
    obj = one_point_objective(1.0)
    cfg = LocalConfig(steps=2, lr=0.1, batch_size=1)
    upload, w_final = train_one(obj, np.array([0.0]), cfg, np.random.default_rng(0))
    np.testing.assert_allclose(upload, [-0.95])
    np.testing.assert_allclose(w_final, [0.19])


def test_upload_identity_no_prox():
    # w_final = w_start - lr * K * upload must hold to machine precision.
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(20, 3))
    obj = QuadraticObjective(ClientDataset(pts, np.zeros(20, dtype=int)))
    cfg = LocalConfig(steps=7, lr=0.05, batch_size=4)
    w0 = rng.normal(size=3)
    upload, w_final = train_one(obj, w0, cfg, np.random.default_rng(2))
    np.testing.assert_allclose(w_final, w0 - cfg.lr * cfg.steps * upload, atol=1e-12)


def test_prox_hand_trace():
    # Same single point, anchored at w_start = 2 with prox_mu = 1:
    #   step 1: g = 1 + 1*(2-2) = 1,           w -> 1.9
    #   step 2: g = 0.9 + 1*(1.9-2) = 0.8,     w -> 1.82
    # upload = (2 - 1.82) / (0.1 * 2) = 0.9 by the served identity.
    obj = one_point_objective(1.0)
    cfg = LocalConfig(steps=2, lr=0.1, batch_size=1, prox_mu=1.0)
    upload, w_final = train_one(obj, np.array([2.0]), cfg, np.random.default_rng(0))
    np.testing.assert_allclose(w_final, [1.82])
    np.testing.assert_allclose(upload, [0.9])


def test_prox_upload_identity_holds_by_construction():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(12, 2))
    obj = QuadraticObjective(ClientDataset(pts, np.zeros(12, dtype=int)))
    cfg = LocalConfig(steps=5, lr=0.08, batch_size=3, prox_mu=0.5)
    w0 = rng.normal(size=2)
    upload, w_final = train_one(obj, w0, cfg, np.random.default_rng(4))
    np.testing.assert_allclose(w_final, w0 - cfg.lr * cfg.steps * upload, atol=1e-12)


def test_prox_zero_matches_plain_sgd():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(10, 2))
    obj = QuadraticObjective(ClientDataset(pts, np.zeros(10, dtype=int)))
    w0 = rng.normal(size=2)
    plain = train_one(obj, w0, LocalConfig(steps=4, lr=0.1, batch_size=2), np.random.default_rng(7))
    anchored = train_one(
        obj, w0, LocalConfig(steps=4, lr=0.1, batch_size=2, prox_mu=0.0), np.random.default_rng(7)
    )
    np.testing.assert_array_equal(plain[0], anchored[0])
    np.testing.assert_array_equal(plain[1], anchored[1])


def test_single_step_full_batch_is_plain_gradient():
    rng = np.random.default_rng(8)
    pts = rng.normal(size=(9, 2))
    obj = QuadraticObjective(ClientDataset(pts, np.zeros(9, dtype=int)))
    w0 = rng.normal(size=2)
    cfg = LocalConfig(steps=1, lr=0.2, batch_size=9)
    upload, w_final = train_one(obj, w0, cfg, np.random.default_rng(9))
    np.testing.assert_array_equal(upload, obj.grad(w0))
    np.testing.assert_array_equal(w_final, w0 - 0.2 * obj.grad(w0))


def test_determinism_and_stream_separation():
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(15, 2))
    obj = QuadraticObjective(ClientDataset(pts, np.zeros(15, dtype=int)))
    cfg = LocalConfig(steps=6, lr=0.1, batch_size=2)
    w0 = np.zeros(2)
    a = train_one(obj, w0, cfg, np.random.default_rng(42))
    b = train_one(obj, w0, cfg, np.random.default_rng(42))
    c = train_one(obj, w0, cfg, np.random.default_rng(43))
    np.testing.assert_array_equal(a[0], b[0])
    assert not np.array_equal(a[0], c[0])


def test_full_batch_draws_nothing_from_rng():
    rng = np.random.default_rng(11)
    idx = draw_batches(8, [0], 8, [rng], 2)
    np.testing.assert_array_equal(idx, np.broadcast_to(np.arange(8), (2, 1, 8)))
    # State untouched: the next draw matches a fresh generator's first draw.
    assert rng.integers(0, 1 << 30) == np.random.default_rng(11).integers(0, 1 << 30)


def test_oversized_batch_is_the_full_range_without_warning():
    rng = np.random.default_rng(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        idx = draw_batches(5, [0], 9, [rng], 2)
    np.testing.assert_array_equal(idx, np.broadcast_to(np.arange(5), (2, 1, 5)))


def test_generator_batches_are_drawn_without_replacement():
    rng = np.random.default_rng(13)
    for idx in draw_batches(10, [0], 4, [rng], 50)[:, 0]:
        assert len(idx) == 4
        assert len(set(idx.tolist())) == 4
        assert idx.min() >= 0 and idx.max() < 10


def test_large_lr_warns_against_smoothness(caplog):
    # L = 1 for both seeds, so the comfort zone is lr <= 1/(10 L) = 0.1.  A
    # run warns once, through logging, naming every seed with its L.
    tasks = [
        SeedTask(seed, one_point_objective(), periodic_schedule([1], 3), constant_rates(0.1, 3),
                 np.zeros(1))
        for seed in (4, 9)
    ]
    with caplog.at_level(logging.WARNING, logger="dropfed.harness"):
        run_trials(tasks, "fedavg", LocalConfig(steps=1, lr=0.5, batch_size=1))
    assert [r.getMessage() for r in caplog.records] == [
        "local lr 0.5 exceeds 1/(10 L), so small-step analysis does not apply, for "
        "seed 4 (L = 1, 1/(10 L) = 0.1), seed 9 (L = 1, 1/(10 L) = 0.1)"
    ]
    caplog.clear()
    with caplog.at_level(logging.DEBUG), warnings.catch_warnings():
        warnings.simplefilter("error")
        run_trials(tasks, "fedavg", LocalConfig(steps=1, lr=0.1, batch_size=1))
    assert caplog.records == []


def test_local_config_validation():
    with pytest.raises(ConfigError):
        LocalConfig(steps=0)
    with pytest.raises(ConfigError):
        LocalConfig(lr=0.0)
    with pytest.raises(ConfigError):
        LocalConfig(lr=-0.1)
    with pytest.raises(ConfigError):
        LocalConfig(batch_size=0)
    with pytest.raises(ConfigError):
        LocalConfig(prox_mu=-1.0)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="lr must be finite"):
            LocalConfig(lr=value)
        with pytest.raises(ConfigError, match="prox_mu must be finite"):
            LocalConfig(prox_mu=value)


def test_local_config_is_frozen():
    cfg = LocalConfig()
    with pytest.raises(AttributeError):
        cfg.lr = 0.5


def test_lockstep_rows_match_single_row_training():
    # Three clients stacked, rows in any order and with repeats: each row
    # trains exactly as it would alone, from its own stream.
    rng = np.random.default_rng(14)
    clients = [ClientDataset(rng.normal(size=(6, 2)), np.zeros(6, dtype=int)) for _ in range(3)]
    population = QuadraticObjective(clients)
    cfg = LocalConfig(steps=4, lr=0.1, batch_size=2)
    w0 = rng.normal(size=2)
    rows = [2, 0, 2, 1]
    rngs = [np.random.default_rng(s) for s in range(4)]
    batches = draw_batches(population.n, rows, cfg.batch_size, rngs, cfg.steps)
    uploads, grads, w_final = local_train(population, np.tile(w0, (len(rows), 1)), batches, cfg)
    for s, i in enumerate(rows):
        upload, w_alone = train_one(QuadraticObjective(clients[i]), w0, cfg, np.random.default_rng(s))
        np.testing.assert_array_equal(uploads[s], upload)
        np.testing.assert_array_equal(grads[s], upload)
        np.testing.assert_array_equal(w_final[s], w_alone)


def test_shift_corrects_every_step_and_keeps_raw_mean():
    # One point at 1, shift 0.5: corrected gradients w - 0.5 from w = 0 with
    # lr 0.1 give -0.5, then -0.45; raw gradients -1, then -0.95.
    obj = one_point_objective(1.0)
    cfg = LocalConfig(steps=2, lr=0.1, batch_size=1)
    batches = draw_batches(obj.n, [0], cfg.batch_size, None, cfg.steps)
    upload, raw, w_final = local_train(obj, np.zeros((1, 1)), batches, cfg, shift=np.array([[0.5]]))
    np.testing.assert_allclose(upload, [[-0.475]])
    np.testing.assert_allclose(raw, [[-0.975]])
    np.testing.assert_allclose(w_final, [[0.095]])


def test_local_train_takes_one_batch_per_step():
    obj = one_point_objective()
    cfg = LocalConfig(steps=3, lr=0.1, batch_size=1)
    with pytest.raises(ValueError, match="2 batches for 3 local steps"):
        local_train(obj, np.zeros((1, 1)), draw_batches(obj.n, [0], 1, None, 2), cfg)


def test_draw_batches_offsets_and_full_batch():
    full = draw_batches(3, np.array([0, 2]), 5, None, 2)
    assert full.shape == (2, 2, 3)
    np.testing.assert_array_equal(full[1], [[0, 1, 2], [6, 7, 8]])
    # Every step of a full-range draw reads one (rows, n) array.
    wide = draw_batches(500, np.arange(900), 500, None, 6)
    assert np.shares_memory(wide[0], wide[-1]) and not wide.flags.writeable
    np.testing.assert_array_equal(wide[5, 899], 899 * 500 + np.arange(500))
    drawn = draw_batches(4, np.array([1]), 2, [np.random.default_rng(15)], 3)
    ref = np.random.default_rng(15)
    want = [4 + ref.choice(4, 2, replace=False) for _ in range(3)]
    np.testing.assert_array_equal(drawn[:, 0], want)
