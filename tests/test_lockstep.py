"""Property tests of the stacked layout against per-client references.

A batched gradient row must not depend on the other rows of its call, and
lockstep training of every participant must reproduce a plain per-client
loop over dict-held server memory, for all five aggregation rules.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dropfed.aggregation import ALGORITHMS, init_state, play_round
from dropfed.local_trainer import LocalConfig, sample_batch
from dropfed.objectives import (
    ClientDataset,
    LogisticObjective,
    MlpObjective,
    QuadraticObjective,
    stack,
)

KINDS = ("quadratic", "binary", "softmax", "mlp")


def client_objectives(kind, rng, clients, n, d):
    out = []
    for _ in range(clients):
        classes = 2 if kind in ("quadratic", "binary") else 3
        ds = ClientDataset(rng.normal(size=(n, d)), rng.integers(0, classes, size=n))
        if kind == "quadratic":
            out.append(QuadraticObjective(ds))
        elif kind == "mlp":
            out.append(MlpObjective(ds, num_classes=3, hidden=3, reg=0.01))
        else:
            out.append(LogisticObjective(ds, num_classes=classes, reg=0.01))
    return out


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    clients=st.integers(1, 4),
    n=st.integers(1, 6),
    d=st.integers(1, 3),
    rows=st.integers(1, 6),
    data=st.data(),
)
def test_batched_row_equals_its_one_row_call(kind, seed, clients, n, d, rows, data):
    rng = np.random.default_rng(seed)
    objs = client_objectives(kind, rng, clients, n, d)
    population = stack(objs)
    b = data.draw(st.integers(1, n))
    owners = rng.integers(0, clients, size=rows)
    idx = np.array([i * n + rng.choice(n, size=b, replace=False) for i in owners])
    W = rng.normal(size=(rows, population.dim))
    G = population.batch_grad(W, idx)
    perm = rng.permutation(rows)
    np.testing.assert_array_equal(population.batch_grad(W[perm], idx[perm]), G[perm])
    keep = np.sort(rng.choice(rows, size=rng.integers(1, rows + 1), replace=False))
    np.testing.assert_array_equal(population.batch_grad(W[keep], idx[keep]), G[keep])
    for s, i in enumerate(owners):
        np.testing.assert_array_equal(population.batch_grad(W[s], idx[s]), G[s])
        np.testing.assert_array_equal(objs[i].batch_grad(W[s], idx[s] - i * n), G[s])


def reference_round(algo, mem, objs, active, cfg, eta, rng_for, literal, full_batch):
    """One round as a per-client loop over dict memory; updates mem in place."""
    w = mem["w"]
    zero = np.zeros_like(w)
    ids = sorted(active)
    rngs = {i: None if full_batch else rng_for(i) for i in ids}

    def draw(i):
        n = objs[i].n
        return np.arange(n) if full_batch else sample_batch(rngs[i], n, cfg.batch_size)

    if algo == "scaffold" and literal:
        anchors = {i: objs[i].batch_grad(w, draw(i)) for i in ids}
        anchor_mean = np.mean([anchors[i] for i in ids], axis=0)
    uploads, fresh = {}, {}
    for i in ids:
        shift = zero
        if algo == "scaffold":
            shift = anchor_mean - anchors[i] if literal else mem["c"] - mem["var"].get(i, zero)
        w_loc, raw, steps = w.copy(), zero.copy(), zero.copy()
        for _ in range(cfg.steps):
            g = objs[i].batch_grad(w_loc, draw(i))
            raw += g
            steps += g + shift
            w_loc = w_loc - cfg.lr * (g + shift + cfg.prox_mu * (w_loc - w))
        if cfg.prox_mu > 0:
            uploads[i] = (w - w_loc) / (cfg.lr * cfg.steps)
        else:
            uploads[i] = steps / cfg.steps
        fresh[i] = raw / cfg.steps
    if algo == "mifa":
        mem["memory"].update(uploads)
        v = np.mean([mem["memory"][i] for i in range(len(objs))], axis=0)
    elif algo == "mimic":
        v = np.mean([uploads[i] + mem["corr"].get(i, zero) for i in ids], axis=0)
        mem["corr"].update({i: v - uploads[i] for i in ids})
    else:
        v = np.mean([uploads[i] for i in ids], axis=0)
    if algo == "scaffold" and not literal:
        mem["c"] = mem["c"] + sum(fresh[i] - mem["var"].get(i, zero) for i in ids) / len(objs)
        mem["var"].update(fresh)
    mem["w"] = w - eta * v
    return v


VARIANTS = [(algo, False) for algo in ALGORITHMS] + [("scaffold", True)]


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    clients=st.integers(2, 4),
    n=st.integers(1, 5),
    steps=st.integers(1, 3),
    full_batch=st.booleans(),
    data=st.data(),
)
def test_lockstep_training_matches_per_client_loop(
    kind, seed, clients, n, steps, full_batch, data
):
    rng = np.random.default_rng(seed)
    objs = client_objectives(kind, rng, clients, n, 2)
    population = stack(objs)
    batch_size = data.draw(st.integers(1, n))
    w0 = rng.normal(size=population.dim) * 0.5
    # A full first round warms mifa's memory; later rounds are partial.
    schedule = [list(range(clients))] + [
        sorted(rng.choice(clients, size=rng.integers(1, clients + 1), replace=False).tolist())
        for _ in range(3)
    ]
    for algo, literal in VARIANTS:
        cfg = LocalConfig(steps=steps, lr=0.05, batch_size=batch_size,
                          prox_mu=0.3 if algo == "fedprox" else 0.0)
        state = init_state(algo, w0, clients)
        mem = {"w": w0.copy(), "memory": {}, "corr": {}, "var": {}, "c": np.zeros_like(w0)}
        for t, active in enumerate(schedule):
            rng_for = lambda i, t=t: np.random.default_rng((seed, t, i))
            res = play_round(state, population, active, cfg, 0.3, rng_for,
                             scaffold_literal=literal, full_batch=full_batch)
            v = reference_round(algo, mem, objs, active, cfg, 0.3, rng_for, literal, full_batch)
            np.testing.assert_allclose(res.v, v, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(res.state.w, mem["w"], rtol=1e-12, atol=1e-12)
            state = res.state
        if algo == "scaffold" and not literal:
            np.testing.assert_allclose(state.server_variate, mem["c"], rtol=1e-12, atol=1e-12)
