"""Aggregation rules: hand simulations, invariants, and state hygiene.

The quadratic single-point client (gradient w - m) makes every round
traceable on paper, so most expected values here are written down exactly.
A property test checks aggregate against each rule's law written out as a
loop over copies, seeds and clients.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from keyed_streams import batch_key, replay_key, round_batches

from dropfed.aggregation import ALGORITHMS, aggregate, init_state, play_round
from dropfed.errors import ConfigError, IntegrityError
from dropfed.local_trainer import LocalConfig, draw_batches
from dropfed.objectives import ClientDataset, QuadraticObjective


def point_client(m, client_id=0):
    """Quadratic objective on the single point m, so grad(w) = w - m."""
    m = np.atleast_1d(np.asarray(m, dtype=np.float64))
    return QuadraticObjective(
        ClientDataset(m[None, :], np.array([0]), client_id=client_id)
    )


def rng_factory(salt):
    return lambda i: np.random.default_rng((salt, i))


def as_rows(uploads):
    """Sorted ids and the (1, R, dim) uploads of one round, from a {client: vector} dict."""
    ids = np.array(sorted(uploads))
    return ids, np.array([[uploads[i] for i in ids]], dtype=np.float64)


FULL_CFG = LocalConfig(steps=1, lr=0.1, batch_size=1)


# ---------------------------------------------------------------------------
# init and validation


def test_init_state_validation():
    with pytest.raises(ConfigError):
        init_state("adam", np.zeros(2), 3)
    with pytest.raises(ConfigError):
        init_state("fedavg", np.zeros(2), 0)
    st = init_state("scaffold", np.zeros(2), 3)
    np.testing.assert_array_equal(st.server_variate, np.zeros((1, 2)))
    np.testing.assert_array_equal(st.rows, np.zeros((3, 2)))
    np.testing.assert_array_equal(st.written, [-1, -1, -1])
    assert init_state("fedavg", np.zeros(2), 3).server_variate is None
    assert set(ALGORITHMS) == {"fedavg", "fedprox", "mifa", "mimic", "scaffold"}


def test_play_round_checks_objective_count():
    st = init_state("fedavg", np.zeros(1), 3)
    objs = [point_client(0.0)] * 2
    with pytest.raises(ConfigError):
        play_round(st, objs, [0], FULL_CFG, 0.1, rng_factory(0))


def test_play_round_checks_active_ids():
    # Each active id is one client, counted once: a repeated or unknown id
    # is refused rather than weighted twice or read out of range.
    objs = [point_client(0.0, 0), point_client(1.0, 1), point_client(2.0, 2)]
    st = init_state("fedavg", np.array([0.0]), 3)
    np.testing.assert_array_equal(play_round(st, objs, [0, 2], FULL_CFG, 0.1, None).v, [[-1.0]])
    for active in ([0, 2, 2], [0, 3], [5], [-1, 0]):
        with pytest.raises(ConfigError, match=r"distinct rows of 0\.\.2"):
            play_round(st, objs, active, FULL_CFG, 0.1, None)


def test_play_round_refuses_groups_of_part_copies():
    # A group of 3 rows for 2 participants, or no rows at all, is not a
    # round and its replicas: refused before any row trains.
    objs = [point_client(0.0, 0), point_client(1.0, 1), point_client(2.0, 2)]
    st = init_state("fedavg", np.array([0.0]), 3)
    whole = draw_batches(1, np.array([0, 2, 0, 2]), 1, None, 1)
    for groups in ([whole[:, :3]], [whole[:, :2], whole[:, :1]], [], [whole[:, :0]]):
        sizes = [group.shape[1] for group in groups]
        with pytest.raises(ConfigError, match=rf"^batch groups of {re.escape(str(sizes))} rows "
                                              r"for 2 participants; each group must hold whole"):
            play_round(st, objs, [0, 2], FULL_CFG, 0.1, None, batches=groups)
    np.testing.assert_array_equal(
        play_round(st, objs, [0, 2], FULL_CFG, 0.1, None, batches=[whole]).v, [[-1.0]])


@pytest.mark.parametrize("algorithm", ["fedavg", "mimic", "mifa"])
def test_aggregate_refuses_uploads_of_another_layout(algorithm):
    # Uploads are (copies, participants, dim): 5 rows for 2 participants,
    # flat rows, the wrong dimension or no copy at all name their shape.
    st = init_state(algorithm, np.zeros(2), 2)
    ids = np.array([0, 1])
    for shape in ((1, 5, 2), (4, 2), (1, 2, 3), (0, 2, 2)):
        with pytest.raises(ConfigError, match=rf"^uploads of shape {re.escape(str(shape))} for 2 "
                                              r"participants of dimension 2; expected \(copies"):
            aggregate(st, ids, np.ones(shape), 0.1)
    np.testing.assert_array_equal(aggregate(st, ids, np.ones((2, 2, 2)), 0.1).replays, [[[1, 1]]])


# ---------------------------------------------------------------------------
# shared update law


def test_update_law_is_exact():
    # w_{t+1} = w_t - eta * v, bit for bit, for every algorithm.
    objs = [point_client(1.0, 0), point_client(-2.0, 1)]
    for algo in ALGORITHMS:
        st = init_state(algo, np.array([0.3]), 2)
        res = play_round(st, objs, [0, 1], FULL_CFG, 0.37, None)
        np.testing.assert_array_equal(res.state.w, st.w - 0.37 * res.v)
        assert res.state.round_index == 1


def test_full_participation_single_step_gives_population_gradient():
    # K = 1 full batch: v must equal the average full gradient exactly.
    objs = [point_client(1.0, 0), point_client(3.0, 1), point_client(-1.0, 2)]
    w0 = np.array([0.5])
    want = np.mean([o.grad(w0) for o in objs], axis=0)
    for algo in ALGORITHMS:
        st = init_state(algo, w0, 3)
        res = play_round(st, objs, [0, 1, 2], FULL_CFG, 0.1, None)
        np.testing.assert_allclose(res.v, [want], atol=1e-15)


def test_empty_round_is_a_no_op_on_the_model():
    objs = [point_client(1.0, 0), point_client(-1.0, 1)]
    for algo in ALGORITHMS:
        st = init_state(algo, np.array([0.7]), 2)
        res = play_round(st, objs, [], FULL_CFG, 0.5, rng_factory(3))
        np.testing.assert_array_equal(res.v, [[0.0]])
        assert res.state.round_index == 1 and res.replays.shape == (1, 0, 1)
        # Nothing changes, so nothing is copied: no state is ever mutated.
        for name in ("w", "rows", "written", "server_variate"):
            assert getattr(res.state, name) is getattr(st, name), name


def test_rounds_do_not_mutate_input_state():
    objs = [point_client(2.0, 0), point_client(-2.0, 1)]
    for algo in ALGORITHMS:
        st = init_state(algo, np.array([1.0]), 2)
        # Prime one round so memory exists, then snapshot and replay.
        st = play_round(st, objs, [0, 1], FULL_CFG, 0.1, None).state
        w_before = st.w.copy()
        rows_before = st.rows.copy()
        written_before = st.written.copy()
        res1 = play_round(st, objs, [0], FULL_CFG, 0.1, None)
        res2 = play_round(st, objs, [0], FULL_CFG, 0.1, None)
        np.testing.assert_array_equal(st.w, w_before)
        np.testing.assert_array_equal(st.rows, rows_before)
        np.testing.assert_array_equal(st.written, written_before)
        # Replaying the identical round is bit-identical.
        np.testing.assert_array_equal(res1.state.w, res2.state.w)
        np.testing.assert_array_equal(res1.v, res2.v)


# ---------------------------------------------------------------------------
# mimic


def test_mimic_hand_simulation():
    # Clients at +1 and -1, w0 = 0.  Round 0 (both): uploads -1 and +1,
    # v = 0, corrections become (+1, -1), w stays 0.  Round 1 (client 0
    # only): upload -1, shifted by +1 gives v = 0 again, exactly the
    # population gradient at w = 0.
    objs = [point_client(1.0, 0), point_client(-1.0, 1)]
    st = init_state("mimic", np.array([0.0]), 2)
    r0 = play_round(st, objs, [0, 1], FULL_CFG, 0.5, None)
    np.testing.assert_array_equal(r0.v, [[0.0]])
    np.testing.assert_array_equal(r0.state.rows, [[1.0], [-1.0]])
    np.testing.assert_array_equal(r0.state.written, [0, 0])
    r1 = play_round(r0.state, objs, [0], FULL_CFG, 0.5, None)
    np.testing.assert_array_equal(r1.v, [[0.0]])
    # Absent client keeps its old correction and stamp.
    np.testing.assert_array_equal(r1.state.rows[1], [-1.0])
    np.testing.assert_array_equal(r1.state.written, [1, 0])


def test_mimic_correction_identity_and_mean_preservation():
    rng = np.random.default_rng(8)
    dim, n = 4, 6
    st = init_state("mimic", rng.normal(size=dim), n)
    # Seed corrections by a full round of random uploads.
    st = aggregate(st, np.arange(n), rng.normal(size=(1, n, dim)), 0.1).state
    for _ in range(20):
        ids = np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
        uploads = rng.normal(size=(1, len(ids), dim))
        before = st.rows[ids].mean(axis=0)
        res = aggregate(st, ids, uploads, 0.1)
        # v - upload_i - correction_i = 0 after the write.
        np.testing.assert_allclose(res.v - uploads[0] - res.state.rows[ids], 0.0, atol=1e-12)
        after = res.state.rows[ids].mean(axis=0)
        np.testing.assert_allclose(after, before, atol=1e-10)
        st = res.state


def test_mimic_first_round_matches_fedavg():
    rng = np.random.default_rng(9)
    ids, uploads = np.arange(5), rng.normal(size=(1, 5, 3))
    v_avg = aggregate(init_state("fedavg", np.zeros(3), 5), ids, uploads, 0.2)
    v_mim = aggregate(init_state("mimic", np.zeros(3), 5), ids, uploads, 0.2)
    np.testing.assert_array_equal(v_avg.v, v_mim.v)
    np.testing.assert_array_equal(v_avg.state.w, v_mim.state.w)


def test_mimic_exact_on_quadratics_any_schedule():
    # After the first full round, the shifted average equals the population
    # gradient no matter who participates: corrections carry each absent
    # client's offset, and quadratic gradients are affine in w.
    rng = np.random.default_rng(10)
    means = rng.normal(size=(5, 2)) * 3
    objs = [point_client(means[i], i) for i in range(5)]
    st = init_state("mimic", rng.normal(size=2), 5)
    res = play_round(st, objs, list(range(5)), FULL_CFG, 0.3, None)
    for t in range(1, 15):
        active = sorted(rng.choice(5, size=rng.integers(1, 6), replace=False).tolist())
        res = play_round(res.state, objs, active, FULL_CFG, 0.3, None)
        want = np.mean([o.grad(res.state.w[0] + 0.3 * res.v[0]) for o in objs], axis=0)
        np.testing.assert_allclose(res.v, [want], atol=1e-12)


# ---------------------------------------------------------------------------
# mifa


def test_mifa_hand_simulation():
    # Means 1 and 3, eta = 0.5, K = 1 full batch from w0 = 0.
    #   t=0 both:  buffer = (-1, -3),    v = -2,     w -> 1
    #   t=1 {0}:   buffer = (0, -3),     v = -1.5,   w -> 1.75
    #   t=2 {1}:   buffer = (0, -1.25),  v = -0.625, w -> 2.0625
    objs = [point_client(1.0, 0), point_client(3.0, 1)]
    st = init_state("mifa", np.array([0.0]), 2)
    r0 = play_round(st, objs, [0, 1], FULL_CFG, 0.5, None)
    np.testing.assert_allclose(r0.v, [[-2.0]])
    np.testing.assert_allclose(r0.state.w, [[1.0]])
    np.testing.assert_array_equal(r0.state.written, [0, 0])
    r1 = play_round(r0.state, objs, [0], FULL_CFG, 0.5, None)
    np.testing.assert_allclose(r1.v, [[-1.5]])
    np.testing.assert_allclose(r1.state.w, [[1.75]])
    np.testing.assert_array_equal(r1.state.written, [1, 0])
    np.testing.assert_allclose(r1.state.rows[1], [-3.0])  # untouched stale entry
    r2 = play_round(r1.state, objs, [1], FULL_CFG, 0.5, None)
    np.testing.assert_allclose(r2.v, [[-0.625]])
    np.testing.assert_allclose(r2.state.w, [[2.0625]])
    np.testing.assert_array_equal(r2.state.written, [1, 2])


def test_mifa_requires_warm_memory():
    objs = [point_client(1.0, 0), point_client(-1.0, 1)]
    st = init_state("mifa", np.zeros(1), 2)
    with pytest.raises(IntegrityError, match=r"\[1\]"):
        play_round(st, objs, [0], FULL_CFG, 0.1, None)


def test_mifa_round_averages_all_buffers():
    st = init_state("mifa", np.zeros(2), 3)
    first = {i: np.full(2, float(i)) for i in range(3)}  # 0, 1, 2 -> mean 1
    res = aggregate(st, *as_rows(first), 1.0)
    np.testing.assert_array_equal(res.v, [[1.0, 1.0]])
    update = {1: np.full(2, 7.0)}  # buffers now 0, 7, 2 -> mean 3
    res = aggregate(res.state, *as_rows(update), 1.0)
    np.testing.assert_array_equal(res.v, [[3.0, 3.0]])


# ---------------------------------------------------------------------------
# scaffold


def test_scaffold_matches_fedavg_under_full_participation():
    # With every client present each round the variate shifts cancel in the
    # average, for both variate styles.
    rng = np.random.default_rng(24)
    means = rng.normal(size=(4, 2))
    objs = [point_client(means[i], i) for i in range(4)]
    cfg = LocalConfig(steps=1, lr=0.1, batch_size=1)
    for literal in (False, True):
        sc = init_state("scaffold", np.zeros(2), 4, scaffold_literal=literal)
        fa = init_state("fedavg", np.zeros(2), 4)
        for t in range(6):
            sc = play_round(sc, objs, [0, 1, 2, 3], cfg, 0.3, None).state
            fa = play_round(fa, objs, [0, 1, 2, 3], cfg, 0.3, None).state
        np.testing.assert_allclose(sc.w, fa.w, atol=1e-12)


def test_scaffold_variate_bookkeeping():
    objs = [point_client(1.0, 0), point_client(3.0, 1)]
    st = init_state("scaffold", np.array([0.0]), 2)
    res = play_round(st, objs, [0, 1], FULL_CFG, 0.5, None)
    # K = 1 full batch: each client's variate is its full gradient at w0,
    # and the server variate is their mean over N.
    np.testing.assert_allclose(res.state.rows, [[-1.0], [-3.0]])
    np.testing.assert_allclose(res.state.server_variate, [[-2.0]])
    np.testing.assert_array_equal(res.state.written, [0, 0])
    # Partial round: only the participant's variate moves; the server
    # variate absorbs 1/N of the change.
    r1 = play_round(res.state, objs, [0], FULL_CFG, 0.5, None)
    np.testing.assert_allclose(r1.state.rows[1], [-3.0])
    g0_new = objs[0].grad(res.state.w[0])  # raw gradient, variate shift removed
    np.testing.assert_allclose(r1.state.rows[0], g0_new)
    np.testing.assert_allclose(
        r1.state.server_variate, [np.array([-2.0]) + (g0_new - np.array([-1.0])) / 2]
    )


def test_scaffold_literal_anchor_leaves_variates_alone():
    objs = [point_client(1.0, 0), point_client(-1.0, 1)]
    st = init_state("scaffold", np.zeros(1), 2, scaffold_literal=True)
    res = play_round(st, objs, [0, 1], FULL_CFG, 0.2, None)
    np.testing.assert_array_equal(res.state.rows, st.rows)
    np.testing.assert_array_equal(res.state.written, [-1, -1])
    np.testing.assert_array_equal(res.state.server_variate, st.server_variate)


def test_scaffold_drift_correction_pulls_toward_population_descent():
    # Two very different clients, many local steps.  Plain averaging drifts
    # toward whoever is active; the variate correction keeps the partial
    # round close to what a full round would do.
    objs = [point_client(4.0, 0), point_client(-4.0, 1)]
    cfg = LocalConfig(steps=8, lr=0.05, batch_size=1)
    st = init_state("scaffold", np.zeros(1), 2)
    st = play_round(st, objs, [0, 1], cfg, 0.4, None).state
    only0 = play_round(st, objs, [0], cfg, 0.4, None)
    fa = init_state("fedavg", st.w.copy(), 2)
    fa_only0 = play_round(fa, objs, [0], cfg, 0.4, None)
    # Population gradient at st.w is just st.w (means cancel).
    pop = float(st.w[0, 0])
    assert abs(float(only0.v[0, 0]) - pop) < abs(float(fa_only0.v[0, 0]) - pop)


# ---------------------------------------------------------------------------
# written rows and replays


def test_written_rows_by_algorithm():
    # mimic, mifa and scaffold stamp each participant's row with the round;
    # fedavg and fedprox keep no per-client memory.
    objs = [point_client(float(i), i) for i in range(3)]
    for algo in ALGORITHMS:
        st = init_state(algo, np.zeros(1), 3)
        cfg = LocalConfig(steps=1, lr=0.1, batch_size=1, prox_mu=0.1 if algo == "fedprox" else 0.0)
        st = play_round(st, objs, [0, 1, 2], cfg, 0.1, None).state
        st = play_round(st, objs, [1], cfg, 0.1, None).state
        want = [-1, -1, -1] if algo in ("fedavg", "fedprox") else [0, 1, 0]
        np.testing.assert_array_equal(st.written, want)
        assert np.any(st.rows != 0) == (algo not in ("fedavg", "fedprox"))


def test_full_batch_builds_no_stream(monkeypatch):
    def refuse(*_):
        raise AssertionError("full-batch rounds must not build a stream")

    monkeypatch.setattr(np.random, "Generator", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    objs = [point_client(1.0, 0), point_client(-2.0, 1)]
    cfg = LocalConfig(steps=3, lr=0.1, batch_size=1)
    for algo in ALGORITHMS:
        for literal in (False, True):
            st = init_state(algo, np.array([0.3]), 2, scaffold_literal=literal)
            res = play_round(st, objs, [0, 1], cfg, 0.2, None)
            assert res.state.round_index == 1


def test_replicas_match_separate_rounds():
    # Replicas trained beside the round equal one play_round per replica,
    # bit for bit; the round's own result is that of a round without them,
    # and the state is not advanced.
    rng = np.random.default_rng(32)
    objs = [
        QuadraticObjective(ClientDataset(rng.normal(size=(6, 2)) + i, np.zeros(6, dtype=int)))
        for i in range(4)
    ]
    cfg = LocalConfig(steps=3, lr=0.1, batch_size=2)
    train_key, replay_for = (lambda i: batch_key(35, i, 1)), (lambda i, r: replay_key(34, i, 1, r))
    for algo in ALGORITHMS:
        for literal in (False, True):
            st = init_state(algo, rng.normal(size=2), 4, scaffold_literal=literal)
            st = play_round(st, objs, [0, 1, 2, 3], cfg, 0.2, rng_factory(33)).state
            batches = round_batches(6, [3, 1], cfg, st.scaffold_literal, train_key, 3, replay_for)
            got = play_round(st, objs, [3, 1], cfg, 0.2, None, batches=batches)
            alone = play_round(st, objs, [3, 1], cfg, 0.2, lambda i: train_key(i).generator())
            np.testing.assert_array_equal(got.v, alone.v)
            np.testing.assert_array_equal(got.state.w, alone.state.w)
            np.testing.assert_array_equal(got.state.rows, alone.state.rows)
            assert got.replays.shape == (1, 3, 2)
            for r in range(3):
                want = play_round(st, objs, [1, 3], cfg, 0.2,
                                  lambda i: replay_for(i, r).generator()).v
                np.testing.assert_array_equal(got.replays[:, r], want)
            assert st.round_index == 1


# ---------------------------------------------------------------------------
# aggregate against a per-client reference


def sequential_sum(vectors):
    """The vectors added in order, one at a time: the order every average keeps."""
    total = vectors[0]
    for vector in vectors[1:]:
        total = total + vector
    return total


def reference_aggregate(state, ids, uploads, eta, variates):
    """Each rule's law as a loop over copies, seeds and clients: the reference.

    Returns v (copies, S, dim), the new w, rows, written and server variate.
    """
    n, (seeds, dim) = state.num_clients, state.w.shape
    algo = state.algorithm
    persistent = algo == "scaffold" and not state.scaffold_literal
    copies = len(uploads)
    rows, written = state.rows.copy(), state.written.copy()
    server = None if state.server_variate is None else state.server_variate.copy()
    v = np.zeros((copies, seeds, dim))
    if algo == "mifa":
        # Every client of a participating seed must have been heard from.
        playing = {i // n for i in ids.tolist()}
        missing = [i for i in range(seeds * n)
                   if i // n in playing and i not in ids and state.written[i] < 0]
        if missing:
            raise IntegrityError(f"memorized updates missing for clients {missing}")
    for c in range(copies):
        upload = {i: uploads[c, j] for j, i in enumerate(ids.tolist())}
        for s in range(seeds):
            mine = [i for i in ids.tolist() if i // n == s]
            if not mine:
                continue  # a seed without participants keeps its model and memory
            if algo == "mifa":
                # The participants' uploads replace their memorized ones; v is
                # the mean of the seed's N memorized uploads.
                clients = range(s * n, (s + 1) * n)
                v[c, s] = sequential_sum([upload.get(i, state.rows[i]) for i in clients]) / n
            elif algo == "mimic":
                # Each upload shifted by its client's stored correction.
                v[c, s] = sequential_sum([upload[i] + state.rows[i] for i in mine]) / len(mine)
            else:
                v[c, s] = sequential_sum([upload[i] for i in mine]) / len(mine)
            if c:
                continue  # replicas give only their v
            for j, i in enumerate(ids.tolist()):
                if i // n != s:
                    continue
                if algo == "mifa":
                    rows[i] = upload[i]  # the memorized upload
                elif algo == "mimic":
                    rows[i] = v[0, s] - upload[i]  # the correction: v minus the raw upload
                elif persistent:
                    rows[i] = variates[j]  # the control variate: the mean raw gradient
                else:
                    continue  # fedavg, fedprox and within-round scaffold keep no memory
                written[i] = state.round_index
            if persistent:
                # The server variate absorbs (1/N) of the participants' change.
                change = sequential_sum([variates[j] - state.rows[i]
                                         for j, i in enumerate(ids.tolist()) if i // n == s])
                server[s] = server[s] + change / n
    w = np.array([state.w[s] - eta[s] * v[0, s] for s in range(seeds)])
    return v, w, rows, written, server


VARIANTS = [(algo, False) for algo in ALGORITHMS] + [("scaffold", True)]


def bits(a):
    return None if a is None else np.asarray(a, dtype=np.float64).tobytes()


@settings(max_examples=150, deadline=None)
@given(
    variant=st.sampled_from(VARIANTS),
    seed=st.integers(0, 2**32 - 1),
    seeds=st.integers(2, 3),
    clients=st.integers(1, 4),
    dim=st.integers(1, 3),
    copies=st.integers(1, 3),
    unwritten=st.sampled_from((0.0, 0.3)),
    negative_zeros=st.booleans(),
    data=st.data(),
)
def test_aggregate_equals_per_client_reference(
    variant, seed, seeds, clients, dim, copies, unwritten, negative_zeros, data
):
    # A state part way through a run: memory written in earlier rounds, some
    # rows perhaps never written, and one seed without participants.  Uploads
    # of -0.0 check that no sum adds a +0.0 that the reference does not.
    algo, literal = variant
    rng = np.random.default_rng(seed)
    empty = data.draw(st.integers(0, seeds - 1))
    written = np.where(rng.random(seeds * clients) < unwritten, -1,
                       rng.integers(0, 4, size=seeds * clients))
    state = init_state(algo, rng.normal(size=(seeds, dim)), clients, literal)
    state = replace(state, round_index=4, written=written,
                    rows=np.where(written[:, None] < 0, 0.0, rng.normal(size=(seeds * clients, dim))))
    if algo == "scaffold":
        state = replace(state, server_variate=rng.normal(size=(seeds, dim)))
    ids = np.concatenate([
        s * clients + np.sort(rng.choice(clients, size=rng.integers(1, clients + 1), replace=False))
        for s in range(seeds) if s != empty
    ])
    uploads = rng.normal(size=(copies, len(ids), dim))
    if negative_zeros:
        uploads.reshape(-1, dim)[rng.random(copies * len(ids)) < 0.7] = -0.0
    variates = rng.normal(size=(len(ids), dim)) if algo == "scaffold" else None
    eta = rng.uniform(0.1, 0.5, size=seeds)
    before = [bits(state.w), bits(state.rows), state.written.tobytes()]
    try:
        v, w, rows, written, server = reference_aggregate(state, ids, uploads, eta, variates)
    except IntegrityError as missing:
        with pytest.raises(IntegrityError, match=rf"^{re.escape(str(missing))}$"):
            aggregate(state, ids, uploads, eta, variates)
        return
    got = aggregate(state, ids, uploads, eta, variates)
    assert bits(got.v) == bits(v[0])
    # Replicas come back seed-major, one contiguous (copies - 1, dim) block per seed.
    assert bits(got.replays) == bits(v[1:].transpose(1, 0, 2))
    assert got.replays.shape == (seeds, copies - 1, dim) and got.replays.flags.c_contiguous
    assert bits(got.state.w) == bits(w)
    assert bits(got.state.rows) == bits(rows)
    assert got.state.written.tobytes() == written.tobytes()
    assert bits(got.state.server_variate) == bits(server)
    assert got.state.round_index == 5
    assert [bits(state.w), bits(state.rows), state.written.tobytes()] == before


# ---------------------------------------------------------------------------
# one layout


def test_one_seed_is_one_row_of_the_seed_layout():
    # A 1-D w0 is one seed: through a full, a partial and an empty round the
    # state and everything a round gives keep the leading seed axis, with the
    # bits of a state built from w0[None].
    rng = np.random.default_rng(36)
    objs = [
        QuadraticObjective(ClientDataset(rng.normal(size=(6, 2)) + i, np.zeros(6, dtype=int)))
        for i in range(3)
    ]
    cfg = LocalConfig(steps=2, lr=0.1, batch_size=2)
    train_key, replay_for = (lambda i: batch_key(37, i, 0)), (lambda i, r: replay_key(37, i, 0, r))
    w0 = rng.normal(size=2)
    for algo, literal in VARIANTS:
        states = [init_state(algo, w0, 3, literal), init_state(algo, w0[None], 3, literal)]
        assert states[0].w.shape == (1, 2)
        for active in ([0, 1, 2], [2], []):
            batches = round_batches(6, active, cfg, literal, train_key, 2, replay_for)
            flat, stacked = [play_round(s, objs, active, cfg, 0.2, None, batches=batches)
                             for s in states]
            for got, want in [(flat.v, stacked.v), (flat.replays, stacked.replays),
                              (flat.state.w, stacked.state.w),
                              (flat.state.server_variate, stacked.state.server_variate)]:
                assert np.shape(got) == np.shape(want) and bits(got) == bits(want)
            assert flat.v.shape == (1, 2)
            assert flat.replays.shape == (1, (2 if active else 0), 2)
            states = [flat.state, stacked.state]
