"""Property tests of the stacked layout against per-client references.

A batched gradient row must not depend on the other rows of its call, and
lockstep training of every participant must reproduce a plain per-client
loop over dict-held server memory, for all five aggregation rules.  Rounds
whose batches are drawn from stream keys, all rows in one pass, must equal
the same rounds drawn from each key's Generator.  A round, its replicas and
its full-batch expectation trained in one pass, in row blocks of any size,
must equal the round, each replica and the expectation played in passes of
their own.  A run of several seeds in lockstep must equal each seed's trial
run alone, bit for bit, and so must its stacked measurements: the
population pass with one model per seed, the stacked test sets, and every
kind's smoothness, the MLP probe included.  A run whose batches are drawn
ahead, whole rounds at a time, must equal one that draws each round's
batches from its own keys, and each of draw_rounds' windows, which tile the
run once, must hold each round as that round drawn alone; measure must
equal a per-seed loop over each seed's own passes.  Every recorded column
must equal a scalar reference taken seed by seed, gamma_t the gap of the
participants' gradients, client by client, to the population's; with
fedavg, K = 1 and full batches, E_t must equal gamma_t bit for bit and be
0.0 on a full round.  The softmax kernel's class-by-class folds must equal
numpy's axis reductions.
"""

from dataclasses import astuple
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from keyed_streams import batch_key, replay_key, round_batches

from dropfed import aggregation, harness
from dropfed import rng as streams
from dropfed.aggregation import ALGORITHMS, init_state, play_round
from dropfed.availability import AvailabilitySchedule
from dropfed.diagnostics import evaluate
from dropfed.harness import SeedTask, run_trial, run_trials
from dropfed.local_trainer import LocalConfig, draw_batches
from dropfed.objectives import (
    ClientDataset,
    LogisticObjective,
    MlpObjective,
    QuadraticObjective,
    _cross_entropy,
    make_objective,
    stack,
)
from dropfed.schedules import constant_rates, exponential_rates

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
        if full_batch or cfg.batch_size >= n:
            return np.arange(n)
        return rngs[i].choice(n, cfg.batch_size, replace=False)

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
        state = init_state(algo, w0, clients, scaffold_literal=literal)
        mem = {"w": w0.copy(), "memory": {}, "corr": {}, "var": {}, "c": np.zeros_like(w0)}
        for t, active in enumerate(schedule):
            rng_for = lambda i, t=t: np.random.default_rng((seed, t, i))
            res = play_round(state, population, active, cfg, 0.3, None if full_batch else rng_for)
            v = reference_round(algo, mem, objs, active, cfg, 0.3, rng_for, literal, full_batch)
            np.testing.assert_allclose(res.v, [v], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(res.state.w, [mem["w"]], rtol=1e-12, atol=1e-12)
            state = res.state
        if algo == "scaffold" and not literal:
            np.testing.assert_allclose(state.server_variate, [mem["c"]], rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**64),
    clients=st.integers(2, 5),
    n=st.integers(2, 9),
    steps=st.integers(1, 3),
    replicas=st.integers(1, 3),
    data=st.data(),
)
def test_keyed_rounds_equal_generator_rounds(kind, seed, clients, n, steps, replicas, data):
    rng = np.random.default_rng(seed % 2**32)
    objs = client_objectives(kind, rng, clients, n, 2)
    population = stack(objs)
    batch_size = data.draw(st.integers(1, n))
    w0 = rng.normal(size=population.dim) * 0.5
    schedule = [list(range(clients))] + [
        sorted(rng.choice(clients, size=rng.integers(1, clients + 1), replace=False).tolist())
        for _ in range(2)
    ]
    for algo, literal in VARIANTS:
        cfg = LocalConfig(steps=steps, lr=0.05, batch_size=batch_size,
                          prox_mu=0.3 if algo == "fedprox" else 0.0)
        state = init_state(algo, w0, clients, scaffold_literal=literal)
        for t, active in enumerate(schedule):
            keys = (population.n, active, cfg, state.scaffold_literal,
                    lambda i, t=t: batch_key(seed, i, t), replicas,
                    lambda i, r, t=t: replay_key(seed, i, t, r))
            keyed = play_round(state, population, active, cfg, 0.3, None,
                               batches=round_batches(*keys))
            built = play_round(state, population, active, cfg, 0.3, None,
                               batches=round_batches(*keys, build=True))
            np.testing.assert_array_equal(keyed.v, built.v)
            np.testing.assert_array_equal(keyed.state.w, built.state.w)
            np.testing.assert_array_equal(keyed.state.rows, built.state.rows)
            if algo == "scaffold":
                np.testing.assert_array_equal(keyed.state.server_variate, built.state.server_variate)
            np.testing.assert_array_equal(keyed.replays, built.replays)
            state = keyed.state


def separate_passes(state, population, active, cfg, eta, key_for, replay_for, replicas):
    """The round, each replica, then the full-batch expectation, each in its own pass.

    Each pass draws from its rows' Generators: the reference.
    """
    real = play_round(state, population, active, cfg, eta, lambda i: key_for(i).generator())
    if not len(active):  # a round without participants has no replica
        return real, np.zeros((len(state.w), 0, state.w.shape[1]))
    replays = [play_round(state, population, active, cfg, eta,
                          lambda i, r=r: replay_for(i, r).generator()).v for r in range(replicas)]
    replays.append(play_round(state, population, active, cfg, eta, None).v)
    return real, np.stack(replays, axis=1)  # (S, replicas + 1, dim)


def assert_same_round(got, want, want_replays):
    assert same_bits(got.v, want.v)
    assert same_bits(got.replays, want_replays)
    for name in ("w", "rows", "written", "server_variate"):
        assert same_bits(getattr(got.state, name), getattr(want.state, name)), name
    assert got.state.round_index == want.state.round_index


def seed_rounds(rng, seeds, clients, empty):
    """Rows of a full round, then two rounds in which seed `empty` has no participant."""
    rounds = [np.arange(seeds * clients)]
    for _ in range(2):
        rows = [s * clients + np.flatnonzero(rng.random(clients) < 0.6) for s in range(seeds)]
        rows[empty] = rows[empty][:0]
        rounds.append(np.concatenate(rows))
    return rounds


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    variant=st.sampled_from(VARIANTS),
    masters=st.lists(st.integers(0, 2**70), min_size=1, max_size=3, unique=True),
    clients=st.integers(1, 4),
    n=st.integers(2, 5),
    steps=st.integers(1, 3),
    replicas=st.integers(1, 4),
    data=st.data(),
)
def test_one_pass_round_equals_separate_passes(
    kind, variant, masters, clients, n, steps, replicas, data
):
    # The round, its replicas and the full-batch expectation as the last
    # group, trained in one pass, give the round's v and state and each
    # copy's v of separate passes, bit for bit, with S = 1 to 3 seeds, one
    # seed without participants (with S = 1, rounds without any), and
    # batches that may cover every sample.
    algo, literal = variant
    seeds = len(masters)
    rng = np.random.default_rng(masters[0] % 2**32)
    population = stack(client_objectives(kind, rng, seeds * clients, n, 2))
    cfg = LocalConfig(steps=steps, lr=0.05, batch_size=data.draw(st.integers(1, n + 1)),
                      prox_mu=0.3 if algo == "fedprox" else 0.0)
    empty = data.draw(st.integers(0, seeds - 1))
    eta = rng.uniform(0.1, 0.5, size=seeds)
    state = init_state(algo, rng.normal(size=(seeds, population.dim)), clients, literal)
    count = cfg.steps + state.scaffold_literal  # batches a row takes
    for t, active in enumerate(seed_rounds(rng, seeds, clients, empty)):
        def key_for(i, t=t):
            return batch_key(masters[i // clients], i % clients, t)

        def replay_for(i, r, t=t):
            return replay_key(masters[i // clients], i % clients, t, r)

        batches = round_batches(population.n, active, cfg, state.scaffold_literal, key_for,
                                replicas, replay_for)
        batches.append(draw_batches(population.n, active, population.n, None, count))
        got = play_round(state, population, active, cfg, eta, None, batches=batches)
        want = separate_passes(state, population, active, cfg, eta, key_for, replay_for, replicas)
        assert_same_round(got, *want)
        if t:
            assert not got.replays[empty].any()
        state = got.state


@settings(max_examples=30, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    variant=st.sampled_from(VARIANTS),
    seed=st.integers(0, 2**32 - 1),
    clients=st.integers(2, 4),
    n=st.integers(2, 5),
    steps=st.integers(1, 3),
    replicas=st.integers(0, 3),
    block=st.integers(1, 3),
    data=st.data(),
)
def test_row_blocks_give_the_bits_of_one_call(
    kind, variant, seed, clients, n, steps, replicas, block, data
):
    # A byte budget of `block` rows splits each group of a round (its rows
    # and replicas, then the full-batch expectation) into local_train calls
    # of at most `block` rows, none across two groups, which give the bits
    # of one call over each group.
    algo, literal = variant
    rng = np.random.default_rng(seed)
    population = stack(client_objectives(kind, rng, 2 * clients, n, 2))
    cfg = LocalConfig(steps=steps, lr=0.05, batch_size=data.draw(st.integers(1, n)),
                      prox_mu=0.3 if algo == "fedprox" else 0.0)
    state = init_state(algo, rng.normal(size=(2, population.dim)), clients, literal)
    count = cfg.steps + state.scaffold_literal  # batches a row takes
    for t, active in enumerate(seed_rounds(rng, 2, clients, 1)):
        batches = round_batches(population.n, active, cfg, state.scaffold_literal,
                                lambda i, t=t: batch_key(seed, i, t), replicas,
                                lambda i, r, t=t: replay_key(seed, i, t, r))
        batches.append(draw_batches(population.n, active, population.n, None, count))
        args = (state, population, active, cfg, np.array([0.3, 0.2]), None)
        with (mock.patch.object(aggregation, "ROW_BLOCK_BYTES", 8 * population.dim * block),
              mock.patch.object(aggregation, "local_train", wraps=aggregation.local_train) as train):
            blocked = play_round(*args, batches=batches)
        assert train.call_count == sum(-(-group.shape[1] // block) for group in batches)
        with mock.patch.object(aggregation, "ROW_BLOCK_BYTES", 2**62):
            whole = play_round(*args, batches=batches)
        assert_same_round(blocked, whole, whole.replays)
        state = whole.state


TRIAL_SCALARS = ("seed", "failed", "failure_round", "final_loss", "final_grad_norm2",
                 "min_grad_norm2", "final_acc", "rate_mass", "weighted_bias", "initial_gap",
                 "optimum_distance", "uploads_total", "max_staleness")


def same_bits(a, b):
    """Equal as float64 bit patterns: -0.0 differs from 0.0, and NaN equals NaN."""
    return np.array(a, dtype=np.float64).tobytes() == np.array(b, dtype=np.float64).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    variant=st.sampled_from(VARIANTS),
    expected_mode=st.sampled_from(("fullbatch", "mc")),
    phi=st.booleans(),
    seeds=st.lists(st.integers(0, 2**70), min_size=2, max_size=4, unique=True),
    clients=st.integers(2, 4),
    n=st.integers(2, 5),
    iterations=st.integers(2, 6),
    steps=st.integers(1, 3),
    diverge=st.booleans(),
    data=st.data(),
)
def test_lockstep_seeds_equal_separate_trials(
    kind, variant, expected_mode, phi, seeds, clients, n, iterations, steps, diverge, data
):
    algo, literal = variant
    rng = np.random.default_rng(seeds[0] % 2**32)
    cfg = LocalConfig(steps=steps, lr=0.05, batch_size=data.draw(st.integers(1, n)),
                      prox_mu=0.3 if algo == "fedprox" else 0.0)
    # One seed's step size overflows its model by its full round 1.
    bad = data.draw(st.integers(0, len(seeds) - 1)) if diverge else -1
    tasks = []
    for k, seed in enumerate(seeds):
        population = stack(client_objectives(kind, rng, clients, n, 2))
        mask = rng.random((iterations, clients)) < 0.6
        mask[0] = True  # mifa needs every client's first upload
        mask[1] |= k == bad
        eta = 1e200 if k == bad else rng.uniform(0.05, 0.5)
        test_data = None
        if kind != "quadratic":
            test_data = ClientDataset(rng.normal(size=(5, 2)), rng.integers(0, 2, size=5))
        tasks.append(SeedTask(seed, population, AvailabilitySchedule(mask),
                              constant_rates(eta, iterations), rng.normal(size=population.dim),
                              test_data))
    options = dict(phi_replays=3 if phi else 0, phi_every=2 if phi else 0,
                   expected_mode=expected_mode, expected_replays=3, scaffold_literal=literal)
    together = run_trials(tasks, algo, cfg, **options)
    for task, got in zip(tasks, together):
        alone = run_trial(task.population, task.schedule, task.rates, algo, cfg, task.w0,
                          task.seed, test_data=task.test_data, **options)
        assert len(got.rows) == len(alone.rows)
        for a, b in zip(got.rows, alone.rows):
            assert same_bits(astuple(a), astuple(b)), (a, b)
        for name in TRIAL_SCALARS:
            assert same_bits(getattr(got, name), getattr(alone, name)), name
        assert same_bits(got.final_w, alone.final_w)
        assert got.conditions.summary_lines() == alone.conditions.summary_lines()
    if diverge:
        assert together[bad].failed


def close(got, want, scale):
    """Within 1e-9 of scale; past overflow (a non-finite scale), nothing is checked."""
    return abs(got - want) <= 1e-9 * scale or not np.isfinite(scale)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    algo=st.sampled_from(ALGORITHMS),
    expected_mode=st.sampled_from(("fullbatch", "mc")),
    phi=st.booleans(),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3, unique=True),
    clients=st.integers(1, 4),
    n=st.integers(1, 4),
    iterations=st.integers(2, 5),
    data=st.data(),
)
def test_gamma_t_equals_a_per_client_reference(kind, algo, expected_mode, phi, seeds, clients, n,
                                               iterations, data):
    # Every recorded column equals a scalar reference taken seed by seed at
    # the round's broadcast model w_t.  loss, grad_norm2 and gamma_t come from
    # each client's own Objective.loss and Objective.grad: gamma_t is |mean of
    # the participants' gradients - the population gradient|^2.  E_t is
    # |mean of the round's expectation replicas - the population gradient|^2,
    # phi_hat the replicas' variance on a phi round (bit for bit), acc the
    # seed's own test set's evaluate, and t, n_active, uploads and eta_t come
    # from the schedule and step sizes.  E_t, gamma_t and phi_hat are NaN in a
    # round without participants.  One seed may have none after round 0, and
    # one may overflow at round 1, which ends its rows there.
    rng = np.random.default_rng(seeds[0])
    empty, bad = (data.draw(st.integers(-1, len(seeds) - 1)) for _ in range(2))
    bad = -1 if bad == empty else bad  # -1: no such seed
    tasks, objectives, tests = [], [], []
    for k, seed in enumerate(seeds):
        objectives.append(client_objectives(kind, rng, clients, n, 2))
        population = stack(objectives[-1])
        mask = rng.random((iterations, clients)) < 0.6
        mask[0] = True  # mifa needs every client's first upload
        mask[1:] &= k != empty
        mask[1] |= k == bad
        eta = 1e200 if k == bad else rng.uniform(0.05, 0.5)
        test_data = None
        if kind != "quadratic":
            test_data = ClientDataset(rng.normal(size=(5, 2)), rng.integers(0, 2, size=5))
            tests.append(make_objective(population.kind, test_data, **population.params))
        tasks.append(SeedTask(seed, population, AvailabilitySchedule(mask),
                              exponential_rates(eta, 0.9, iterations),
                              rng.normal(size=population.dim), test_data))
    rounds = []  # every round's broadcast models (S, dim) and replicas (S, copies - 1, dim)

    def play(state, *args, **kwargs):
        result = play_round(state, *args, **kwargs)
        rounds.append((state.w, result.replays))
        return result

    replicas, phi_replays = 2, 3 if phi else 0
    with mock.patch.object(harness, "play_round", play):
        outs = run_trials(tasks, algo, LocalConfig(steps=2, lr=0.05, batch_size=1),
                          phi_replays=phi_replays, phi_every=2 if phi else 0,
                          expected_mode=expected_mode, expected_replays=replicas)
    per_upload = 2 if algo == "scaffold" else 1  # scaffold's control variates ride along
    for k, (task, out) in enumerate(zip(tasks, outs)):
        assert len(out.rows) == (2 if k == bad else iterations)
        mask = task.schedule.rounds(0, iterations)
        for t, row in enumerate(out.rows):
            assert (row.t, row.n_active, row.uploads) == (
                t, mask[t].sum(), per_upload * mask[: t + 1].sum())
            assert same_bits(row.eta_t, task.rates.values[t])
            w, replays = rounds[t][0][k], rounds[t][1][k]
            held = replays[-1:] if expected_mode == "fullbatch" else replays[:replicas]
            with np.errstate(over="ignore", invalid="ignore"):
                grads = np.array([objective.grad(w) for objective in objectives[k]])
                grad = grads.mean(axis=0)
                loss = np.mean([objective.loss(w) for objective in objectives[k]])
                # The error allowed scales with the vectors; past overflow, none is checked.
                scale = 1.0 + max(float(v @ v) for v in [*grads, *held])
                assert close(row.loss, loss, 1.0 + abs(loss))
                assert close(row.grad_norm2, float(grad @ grad), scale)
                if mask[t].any():
                    gap, error = grads[mask[t]].mean(axis=0) - grad, held.mean(axis=0) - grad
                    assert close(row.gamma_t, float(gap @ gap), scale)
                    assert close(row.E_t, float(error @ error), scale)
            assert same_bits(row.acc, evaluate(tests[k], w[None])[0] if tests else np.nan) or (
                not np.isfinite(scale))
            if not mask[t].any():
                assert np.isnan([row.gamma_t, row.E_t, row.phi_hat]).all()
                continue
            spread = np.nan
            if phi and t % 2 == 0:
                spread = replays[:phi_replays].var(axis=0, ddof=1).sum()
            assert same_bits(row.phi_hat, spread)


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2, unique=True),
    dim=st.integers(1, 3),
    clients=st.integers(1, 16),
    n=st.integers(1, 3),
    iterations=st.integers(1, 6),
    data=st.data(),
)
@example(seeds=[2], dim=1, clients=12, n=2, iterations=2, data=None)
def test_plain_averaging_measures_with_the_rules_own_sums(seeds, dim, clients, n, iterations,
                                                           data):
    # fedavg, K = 1, full batches and the full-batch expectation: each upload
    # is its client's full gradient, so the expected update is the
    # participants' mean gradient.  Both means, and the population gradient,
    # add the same rows in the same order, so E_t equals gamma_t bit for bit
    # and is 0.0 on a round where all of a seed's clients take part, and
    # each recorded grad_norm2 is g @ g for g = population.grad(w_t).
    rng = np.random.default_rng(seeds[0])
    tasks = []
    for seed in seeds:
        if data is None:
            mask = np.ones((iterations, clients), dtype=bool)
        else:
            cells = iterations * clients
            mask = np.array(data.draw(st.lists(st.booleans(), min_size=cells, max_size=cells)))
        tasks.append(SeedTask(seed, stack(client_objectives("quadratic", rng, clients, n, dim)),
                              AvailabilitySchedule(mask.reshape(iterations, clients)),
                              constant_rates(rng.uniform(0.05, 0.5), iterations),
                              rng.normal(size=dim)))
    models = []  # every round's broadcast models (S, dim)

    def play(state, *args, **kwargs):
        models.append(state.w)
        return play_round(state, *args, **kwargs)

    with mock.patch.object(harness, "play_round", play):
        outs = run_trials(tasks, "fedavg", LocalConfig(steps=1, lr=0.1, batch_size=n))
    for k, (task, out) in enumerate(zip(tasks, outs)):
        assert not out.failed and len(out.rows) == iterations
        for t, row in enumerate(out.rows):
            g = task.population.grad(models[t][k])
            assert same_bits(row.grad_norm2, float(g @ g))
            if row.n_active:
                assert same_bits(row.E_t, row.gamma_t)
            if row.n_active == clients:
                assert row.E_t == 0.0


def per_round_play(seeds, clients):
    """play_round with the round's drawn rows redrawn from its own keys, one row at a time.

    The replica count is the run's; a full-batch group after them is kept.
    """
    def play(state, population, rows, cfg, eta, rng_for, *, batches):
        t = state.round_index
        replicas = batches[0].shape[1] // len(rows) - 1 if len(rows) else 0
        own = round_batches(population.n, rows, cfg, state.scaffold_literal,
                            lambda i: batch_key(seeds[i // clients], i % clients, t), replicas,
                            lambda i, r: replay_key(seeds[i // clients], i % clients, t, r))
        return play_round(state, population, rows, cfg, eta, rng_for, batches=own + batches[1:])
    return play


kernel_draw = streams._draw


def lossy_draw(*args):
    """rng._draw with every third row flagged, so that it draws from its own stream."""
    idx, exact = kernel_draw(*args)
    idx[::3], exact[::3] = -1, False
    return idx, exact


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    variant=st.sampled_from(VARIANTS),
    expected_mode=st.sampled_from(("fullbatch", "mc")),
    phi=st.booleans(),
    seeds=st.lists(st.integers(0, 2**70), min_size=1, max_size=3, unique=True),
    clients=st.integers(1, 4),
    n=st.integers(2, 5),
    iterations=st.integers(2, 6),
    steps=st.integers(1, 3),
    chunk=st.one_of(st.just(1), st.integers(1, 2**14), st.just(2**40)),
    data=st.data(),
)
def test_batches_drawn_ahead_equal_batches_drawn_each_round(
    kind, variant, expected_mode, phi, seeds, clients, n, iterations, steps, chunk, data
):
    # run_trials draws whole rounds ahead, DRAW_CHUNK_BYTES at a time (1
    # byte: one row a draw, every round in pieces; 2**40: the whole run in
    # one), and every third row of a draw falls back to its own stream.  Its
    # rows and finals must equal, bit for bit, those of the same loop drawing
    # each round from batch_key and replay_key.  One seed may overflow at
    # round 1, inside a chunk that holds its later rows.
    algo, literal = variant
    rng = np.random.default_rng(seeds[0] % 2**32)
    cfg = LocalConfig(steps=steps, lr=0.05, batch_size=data.draw(st.integers(1, n)),
                      prox_mu=0.3 if algo == "fedprox" else 0.0)
    bad = data.draw(st.integers(-1, len(seeds) - 1))  # -1: every seed converges
    tasks = []
    for k, seed in enumerate(seeds):
        population = stack(client_objectives(kind, rng, clients, n, 2))
        mask = rng.random((iterations, clients)) < 0.6
        mask[0] = True  # mifa needs every client's first upload
        mask[1] |= k == bad
        eta = 1e200 if k == bad else rng.uniform(0.05, 0.5)
        test_data = None
        if kind != "quadratic":
            test_data = ClientDataset(rng.normal(size=(5, 2)), rng.integers(0, 2, size=5))
        tasks.append(SeedTask(seed, population, AvailabilitySchedule(mask),
                              constant_rates(eta, iterations), rng.normal(size=population.dim),
                              test_data))
    options = dict(phi_replays=3 if phi else 0, phi_every=2 if phi else 0,
                   expected_mode=expected_mode, expected_replays=3, scaffold_literal=literal)
    assert streams._matches_numpy()  # checked before the kernel is made lossy
    with (mock.patch.object(harness, "DRAW_CHUNK_BYTES", chunk),
          mock.patch.object(streams, "_draw", lossy_draw)):
        ahead = run_trials(tasks, algo, cfg, **options)
    with mock.patch.object(harness, "play_round", per_round_play(seeds, clients)):
        each = run_trials(tasks, algo, cfg, **options)
    for got, want in zip(ahead, each):
        assert len(got.rows) == len(want.rows)
        for a, b in zip(got.rows, want.rows):
            assert same_bits(astuple(a), astuple(b)), (a, b)
        for name in TRIAL_SCALARS:
            assert same_bits(getattr(got, name), getattr(want, name)), name
        assert same_bits(got.final_w, want.final_w)
    if bad >= 0:
        assert ahead[bad].failed


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 2**70), min_size=1, max_size=3, unique=True),
    clients=st.integers(1, 12),
    n=st.integers(1, 5),
    iterations=st.integers(1, 40),
    steps=st.integers(1, 3),
    phi=st.sampled_from(((0, 1), (2, 1), (3, 4))),  # (phi_replays, phi_every)
    mc=st.sampled_from((0, 1, 3)),
    data=st.data(),
)
def test_drawn_rounds_equal_each_round_drawn_alone(
    seeds, clients, n, iterations, steps, phi, mc, data
):
    # draw_rounds' windows, from one row a draw to the whole run, tile
    # [0, T) once; each round's rows and batches equal that round drawn
    # alone from batch_key and replay_key.  A seed dropped before a window
    # holds no row of it.  A window of several rounds holds at most a
    # draw's rows, and one round more would exceed them, unless the window
    # already spans a draw's bytes of (seeds, rounds, clients) mask cells,
    # 8 bytes each.
    rng = np.random.default_rng(seeds[0] % 2**32)
    batch_size = data.draw(st.integers(1, n + 1))
    tasks = []
    for seed in seeds:
        mask = rng.random((iterations, clients)) < rng.uniform(0.0, 1.0)
        tasks.append(SeedTask(seed, stack(client_objectives("quadratic", rng, clients, n, 1)),
                              AvailabilitySchedule(mask), constant_rates(0.1, iterations),
                              np.zeros(1)))
    masks = np.stack([task.schedule.rounds(0, iterations) for task in tasks])
    phi_replays, phi_every = phi
    copies = 1 + np.maximum(mc, phi_replays * (np.arange(iterations) % phi_every == 0))
    rows_of = masks.sum(axis=2) * copies  # (S, T)
    budget = data.draw(st.integers(1, max(1, int(rows_of.sum()))))
    row_bytes = 576 + 18 * steps * (2 * min(batch_size, n) - 1)
    cfg = LocalConfig(steps=steps, batch_size=batch_size)
    live, windows = np.ones(len(seeds), dtype=bool), []
    cap = max(1, budget * row_bytes // (8 * len(seeds) * clients))  # rounds of one window
    with mock.patch.object(harness, "DRAW_CHUNK_BYTES", budget * row_bytes):
        while not windows or windows[-1][1] < iterations:
            drop = data.draw(st.integers(-1, len(seeds) - 1))
            if drop >= 0 and live.sum() > 1:
                live[drop] = False
            t0 = windows[-1][1] if windows else 0
            drawn = harness.draw_rounds(tasks, live, copies, t0, batch_size, steps)
            windows.append((t0, t0 + len(drawn)))
            held = rows_of[live, t0:t0 + len(drawn) + 1].sum(axis=0).cumsum()
            assert len(drawn) <= cap and (len(drawn) == 1 or held[len(drawn) - 1] <= budget)
            assert len(held) == len(drawn) or held[-1] > budget or len(drawn) == cap
            for t, (rows, batches) in enumerate(drawn, start=t0):
                want = np.concatenate([k * clients + np.flatnonzero(masks[k, t])
                                       for k in np.flatnonzero(live)])
                assert rows.tolist() == want.tolist()
                own = round_batches(n, want, cfg, False,
                                    lambda i: batch_key(seeds[i // clients], i % clients, t),
                                    copies[t] - 1,
                                    lambda i, r: replay_key(seeds[i // clients], i % clients, t, r))
                assert batches.dtype == own[0].dtype and batches.shape[:2] == own[0].shape[:2]
                assert batches.tobytes() == own[0].tobytes()
    assert [t0 for t0, _ in windows] == [0] + [t1 for _, t1 in windows[:-1]]
    assert windows[-1][1] == iterations and all(t1 > t0 for t0, t1 in windows)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    seeds=st.integers(1, 3),
    clients=st.integers(1, 4),
    n=st.integers(1, 5),
    data=st.data(),
)
def test_measure_equals_a_per_seed_loop(kind, seed, seeds, clients, n, data):
    # Each seed's loss, population gradient, client gradients and accuracy
    # from the stacked passes equal its own population's loss, grad and
    # losses_and_grads, and its own test set's evaluate; a seed whose model
    # turns non-finite leaves every other seed's values byte-identical.
    rng = np.random.default_rng(seed)
    populations = [stack(client_objectives(kind, rng, clients, n, 2)) for _ in range(seeds)]
    population, tests, test_sets = populations[0], [], None
    if kind != "quadratic":
        tests = [make_objective(population.kind, ClientDataset(rng.normal(size=(4, 2)),
                                                               rng.integers(0, 2, size=4)),
                                **population.params) for _ in range(seeds)]
        test_sets = stack(tests)
    W = rng.normal(size=(seeds, population.dim))

    def per_seed(got):
        losses, grads, client_grads, accs = got
        assert losses.shape == accs.shape == (seeds,) and grads.shape == (seeds, population.dim)
        return [(losses[k], grads[k], client_grads[k * clients:(k + 1) * clients], accs[k])
                for k in range(seeds)]

    got = per_seed(harness.measure(stack(populations), test_sets, W))
    for k, (loss, grad, grads, acc) in enumerate(got):
        own = populations[k]
        assert same_bits(loss, own.loss(W[k])) and same_bits(grad, own.grad(W[k]))
        own_grads = own.losses_and_grads(W[k])[1]
        assert same_bits(grads, own_grads) and grads.shape == own_grads.shape
        assert same_bits(acc, evaluate(tests[k], W[k][None])[0] if tests else np.nan)
    bad = data.draw(st.integers(0, seeds - 1))
    W[bad] = data.draw(st.sampled_from((np.inf, -np.inf, np.nan)))
    with np.errstate(over="ignore", invalid="ignore"):
        again = per_seed(harness.measure(stack(populations), test_sets, W))
    for k, (before, after) in enumerate(zip(got, again)):
        if k != bad:
            assert all(same_bits(a, b) for a, b in zip(before, after))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    seeds=st.integers(1, 4),
    clients=st.integers(1, 4),
    n=st.integers(1, 5),
    scale=st.sampled_from((1e-3, 1.0, 1e3)),
)
def test_population_pass_with_one_model_per_seed(kind, seed, seeds, clients, n, scale):
    # Model s measured on seed s's clients in one stacked pass equals each
    # seed's own pass, ridge term included; likewise each seed's accuracy
    # on its own test set.
    rng = np.random.default_rng(seed)
    populations = [stack(client_objectives(kind, rng, clients, n, 2)) for _ in range(seeds)]
    W = scale * rng.normal(size=(seeds, populations[0].dim))
    tests = [ClientDataset(rng.normal(size=(4, 2)), rng.integers(0, 2, size=4))
             for _ in range(seeds)]
    population = populations[0]
    with np.errstate(over="ignore"):
        losses, grads = stack(populations).losses_and_grads(W)
        own_passes = [one.losses_and_grads(W[s]) for s, one in enumerate(populations)]
    for s, (one, (own_losses, own_grads)) in enumerate(zip(populations, own_passes)):
        block = slice(s * clients, (s + 1) * clients)
        assert same_bits(losses[block], own_losses)
        assert same_bits(grads[block], own_grads)
        if kind != "quadratic":  # a regression task predicts nothing
            acc = evaluate(make_objective(population.kind, tests, **population.params), W)
            own = evaluate(make_objective(one.kind, tests[s], **one.params), W[s][None])
            assert same_bits(acc[s], own[0])


def probe_one(objective):
    """The smoothness probe of one objective alone, pair by pair: the reference."""
    rng = np.random.Generator(np.random.Philox(0x5E0071))
    best = np.zeros(objective.num_clients)
    for _ in range(64):
        w1 = rng.normal(scale=1.0, size=objective.dim)
        w2 = w1 + rng.normal(scale=0.1, size=objective.dim)
        diff = objective.losses_and_grads(w1)[1] - objective.losses_and_grads(w2)[1]
        den = np.linalg.norm(w1 - w2)
        if den > 0:
            num = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
            best = np.maximum(best, num / den)
    return 2.0 * max(1.0, best.max())


def probe_objectives(seed, seeds, classes, hidden, clients, n, scale):
    rng = np.random.default_rng(seed)
    objectives = []
    for _ in range(seeds):
        ds = ClientDataset(scale * rng.normal(size=(clients, n, 3)),
                           rng.integers(0, classes, size=(clients, n)))
        objectives.append(MlpObjective(ds, num_classes=classes, hidden=hidden, reg=0.01))
    return objectives


# Small features keep every probe ratio below 1.
FLOOR = dict(seed=5, seeds=3, classes=2, hidden=3, clients=2, n=4, scale=0.01)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    seeds=st.integers(1, 4),
    classes=st.integers(2, 5),
    hidden=st.sampled_from((1, 3, 8, 16)),
    clients=st.integers(1, 3),
    n=st.integers(1, 6),
    scale=st.sampled_from((0.01, 1.0, 4.0)),
)
@example(**FLOOR)
def test_stacked_probe_equals_each_objective_alone(
    seed, seeds, classes, hidden, clients, n, scale
):
    objectives = probe_objectives(seed, seeds, classes, hidden, clients, n, scale)
    want = [probe_one(o) for o in objectives]
    got = stack(objectives).smoothness(seeds)
    assert [repr(v) for v in got] == [repr(v) for v in want]
    assert same_bits(got, want)
    # The one-objective case takes the same path.
    alone = MlpObjective(ClientDataset(objectives[0].features, objectives[0].labels),
                         num_classes=classes, hidden=hidden, reg=0.01)
    assert repr(alone.smoothness()[0]) == repr(want[0])


def test_stacked_probe_keeps_the_float_floor():
    # No probe ratio exceeds 1 here, so every seed's L is the float 2.0 that
    # summary.txt prints as before, not a numpy scalar.
    got = stack(probe_objectives(**FLOOR)).smoothness(FLOOR["seeds"])
    assert got == [2.0] * FLOOR["seeds"] and all(type(v) is float for v in got)


def smoothness_one(objective):
    """One objective's L from its own definition: the reference of the stacked call."""
    if isinstance(objective, QuadraticObjective):
        return 1.0
    if isinstance(objective, MlpObjective):
        return probe_one(objective)
    features = objective.features
    rows = np.concatenate([features, np.ones(features.shape[:-1] + (1,))], axis=-1)
    curvature = 0.25 if objective.num_classes == 2 else 0.5
    return curvature * float(np.max(np.sum(rows * rows, axis=-1))) + objective.reg


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    seeds=st.integers(1, 4),
    classes=st.integers(3, 5),
    hidden=st.sampled_from((1, 3, 8)),
    reg=st.sampled_from((0.01, 0.5)),
    clients=st.integers(1, 3),
    n=st.integers(1, 5),
    d=st.integers(1, 3),
    scale=st.sampled_from((0.01, 1.0, 4.0)),
)
def test_stacked_smoothness_equals_each_objective_alone(
    kind, seed, seeds, classes, hidden, reg, clients, n, d, scale
):
    rng = np.random.default_rng(seed)
    classes = 2 if kind in ("quadratic", "binary") else classes
    objectives = []
    for _ in range(seeds):
        ds = ClientDataset(scale * rng.normal(size=(clients, n, d)),
                           rng.integers(0, classes, size=(clients, n)))
        if kind == "quadratic":
            objectives.append(QuadraticObjective(ds))
        elif kind == "mlp":
            objectives.append(MlpObjective(ds, num_classes=classes, hidden=hidden, reg=reg))
        else:
            objectives.append(LogisticObjective(ds, num_classes=classes, reg=reg))
    got = stack(objectives).smoothness(seeds)
    alone = [o.smoothness()[0] for o in objectives]
    want = [smoothness_one(o) for o in objectives]
    # repr tells a Python float from a numpy float64, which summary.txt
    # prints differently: the quadratic, logistic and MLP-floor values are
    # Python floats, and an MLP value above the floor a float64.
    assert [repr(v) for v in got] == [repr(v) for v in alone] == [repr(v) for v in want]
    assert same_bits(got, alone)
    assert all(isinstance(v, float) for v in got)


def axis_cross_entropy(logits, y, with_loss):
    """Cross-entropy and softmax residual through numpy's class-axis reductions."""
    losses = None
    if with_loss:
        picked = np.take_along_axis(logits, y[..., None], axis=2)[..., 0]
        losses = np.mean(np.logaddexp.reduce(logits, axis=2) - picked, axis=1)
    logits -= logits.max(axis=2, keepdims=True)
    p = np.exp(logits)
    p /= p.sum(axis=2, keepdims=True)
    p -= y[..., None] == np.arange(p.shape[2])
    return losses, p


LOGITS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # wide exponents, subnormals
    st.floats(-30.0, 30.0),
    st.sampled_from((0.0, -0.0, np.inf, -np.inf, np.nan)),
)


@settings(max_examples=300, deadline=None)
@given(
    classes=st.integers(2, 10),
    rows=st.integers(1, 3),
    b=st.integers(1, 4),
    data=st.data(),
)
def test_class_folds_equal_axis_reductions(classes, rows, b, data):
    # The sign of a zero maximum may differ, so the overwritten logits are
    # not compared; the loss and softmax residual that leave the kernel are.
    values = data.draw(st.lists(LOGITS, min_size=rows * b * classes,
                                max_size=rows * b * classes))
    logits = np.array(values).reshape(rows, b, classes)
    y = np.array(data.draw(st.lists(st.integers(0, classes - 1), min_size=rows * b,
                                    max_size=rows * b))).reshape(rows, b)
    with np.errstate(all="ignore"):
        for with_loss in (True, False):
            want = axis_cross_entropy(logits.copy(), y, with_loss)
            got = _cross_entropy(logits.copy(), y, with_loss)
            assert same_bits(got[1], want[1])
            assert (got[0] is None) == (want[0] is None) == (not with_loss)
            if with_loss:
                assert same_bits(got[0], want[0])
