"""Stream derivation: determinism, independence, and replay separation.

The keyed batch drawer must give every row exactly what the row's own
stream gives through sample_batch.
"""

import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyed_streams import batch_key, draw_without_replacement, replay_key, stream_keys

from dropfed import local_trainer, rng
from dropfed.config import ExperimentConfig
from dropfed.harness import run_experiment
from dropfed.local_trainer import draw_batches, sample_batch
from dropfed.rng import (
    AVAILABILITY,
    BATCH,
    DATA,
    INIT,
    PARTITION,
    PROBE,
    REPLAY,
    StreamKey,
    StreamKeys,
    draw_keyed,
    generator,
    replay_stream,
    seed_for,
    stream,
)


def draws(g, n=8):
    return g.random(n)


def test_purpose_tags_are_distinct():
    tags = [DATA, PARTITION, AVAILABILITY, INIT, BATCH, REPLAY, PROBE]
    assert len(set(tags)) == 7
    assert tags == sorted(tags)


def test_same_slot_same_draws():
    np.testing.assert_array_equal(
        draws(stream(123, DATA, 0)), draws(stream(123, DATA, 0))
    )
    np.testing.assert_array_equal(
        draws(batch_key(9, 3, 17).generator()), draws(batch_key(9, 3, 17).generator())
    )


def test_different_slots_differ():
    base = draws(stream(123, DATA, 0))
    assert not np.array_equal(base, draws(stream(124, DATA, 0)))
    assert not np.array_equal(base, draws(stream(123, PARTITION, 0)))
    assert not np.array_equal(base, draws(stream(123, DATA, 1)))
    batch = draws(batch_key(1, 0, 5).generator())
    assert not np.array_equal(batch, draws(batch_key(1, 0, 6).generator()))
    assert not np.array_equal(batch, draws(batch_key(1, 1, 5).generator()))


def test_replay_streams_disjoint_from_training():
    train = draws(batch_key(7, 2, 4).generator())
    assert not np.array_equal(train, draws(replay_stream(7, 2, 4, 0)))
    assert not np.array_equal(
        draws(replay_stream(7, 2, 4, 0)), draws(replay_stream(7, 2, 4, 1))
    )


def test_generator_accepts_int_and_seed_sequence():
    a = draws(generator(42))
    b = draws(generator(42))
    np.testing.assert_array_equal(a, b)
    seq = seed_for(42, BATCH, 0, 1)
    np.testing.assert_array_equal(draws(generator(seq)), draws(generator(seq)))


def test_seed_for_spawn_key_layout():
    s = seed_for(5, BATCH, 2, 9)
    assert s.entropy == 5
    assert s.spawn_key == (BATCH, 2, 9)


def test_streams_pass_a_crude_uniformity_check():
    # Not a statistical test suite, just a sanity check that the streams
    # look like uniforms rather than constants or copies.
    vals = stream(0, PROBE, 0).random(10_000)
    assert 0.45 < vals.mean() < 0.55
    assert abs(np.corrcoef(vals[:-1], vals[1:])[0, 1]) < 0.05


def test_module_reexports():
    assert rng.Seed is not None


# ---------------------------------------------------------------------------
# The keyed batch drawer against per-row streams.


def reference(keys, n, b, count):
    """(R, count, b): each key's own stream, sample_batch count times."""
    out = []
    for key in keys:
        g = stream(key.master_seed, *key.spawn_key)
        out.append([sample_batch(g, n, b) for _ in range(count)])
    return np.array(out)


def drawn(keys, n, b, count):
    """draw_batches on keys, as (R, count, b) local indices."""
    rows = np.zeros(len(keys), dtype=np.int64)
    return draw_batches(n, rows, b, stream_keys(keys), count).transpose(1, 0, 2)


@settings(max_examples=50, deadline=None)
@given(
    master=st.integers(0, 2**80),
    replay=st.booleans(),
    rows=st.integers(1, 50),
    count=st.integers(1, 6),
    n=st.integers(2, 3000),
    data=st.data(),
)
def test_drawer_equals_per_row_streams(master, replay, rows, count, n, data):
    b = data.draw(st.integers(1, n))
    index = st.integers(0, 2**32 - 1)
    width = 3 if replay else 2
    slots = data.draw(st.lists(st.tuples(*[index] * width), min_size=rows, max_size=rows))
    keys = [replay_key(master, *s) if replay else batch_key(master, *s) for s in slots]
    want = reference(keys, n, b, count)
    np.testing.assert_array_equal(drawn(keys, n, b, count), want)
    if b < n:
        idx, exact = draw_without_replacement(keys, n, b, count)
        np.testing.assert_array_equal(idx[exact], want[exact])


@settings(max_examples=30, deadline=None)
@given(
    masters=st.lists(st.integers(0, 2**130), min_size=1, max_size=12),
    replay=st.booleans(),
    count=st.integers(1, 4),
    n=st.integers(2, 60),
    data=st.data(),
)
def test_rows_of_different_master_seeds_are_exact(masters, replay, count, n, data):
    # Master seeds of one to five words in one call, as a lockstep run of
    # many seeds draws them: every row comes from the kernel.
    b = data.draw(st.integers(1, n - 1)) if n > 1 else 1
    keys = [replay_key(m, i, 3, 1) if replay else batch_key(m, i, 3) for i, m in enumerate(masters)]
    idx, exact = draw_without_replacement(keys, n, b, count)
    assert exact.all()
    np.testing.assert_array_equal(idx, reference(keys, n, b, count))


@settings(max_examples=40, deadline=None)
@given(
    masters=st.lists(st.integers(0, 2**130), min_size=1, max_size=4),
    count=st.integers(1, 5),
    n=st.integers(2, 200),
    data=st.data(),
)
def test_keys_of_both_lengths_share_one_call(masters, count, n, data):
    # A round trains its rows (3-word batch keys) beside its replicas
    # (4-word replay keys), of several master seeds, in one call: every
    # row comes from the kernel, in the order given.
    b = data.draw(st.integers(1, n - 1))
    slots = st.tuples(st.sampled_from(masters), st.integers(0, 2**32 - 1), st.integers(0, 999))
    batch = [batch_key(*s) for s in data.draw(st.lists(slots, min_size=1, max_size=12))]
    replay = [replay_key(*s, r) for s in data.draw(st.lists(slots, min_size=1, max_size=12))
              for r in range(data.draw(st.integers(1, 3)))]
    keys = data.draw(st.permutations(batch + replay))
    idx, exact = draw_without_replacement(keys, n, b, count)
    assert exact.all()
    streams = [key.generator() for key in keys]
    np.testing.assert_array_equal(idx, [[g.choice(n, b, replace=False) for _ in range(count)]
                                        for g in streams])


def test_a_run_builds_no_batch_stream(monkeypatch, tmp_path):
    # Two seeds, a Monte Carlo expectation and phi samples: every round's
    # training and replay keys are drawn by the kernel, and no row falls
    # back to building its stream.  The keys stay arrays: no row becomes a
    # StreamKey tuple.
    assert rng._matches_numpy()
    built = []
    original = StreamKey.generator
    monkeypatch.setattr(StreamKey, "generator", lambda key: built.append(key) or original(key))
    monkeypatch.setattr(StreamKeys, "__getitem__", lambda keys, r: built.append(r))
    cfg = ExperimentConfig(task="logistic", classes=3, per_class=12, clients=4, iterations=6,
                           local_steps=3, batch_size=3, algorithm="mifa", expected_mode="mc",
                           expected_replays=3, phi_replays=4, phi_every=2, seeds=(1, 2),
                           out=str(tmp_path))
    run_experiment(cfg)
    assert built == []


def test_numpy_drift_sends_every_row_to_its_stream(monkeypatch):
    # Another numpy that draws otherwise: the check fails, nothing comes
    # from the kernel, and the draws still equal each row's own stream.
    monkeypatch.setattr(rng, "_matches_numpy", lambda: False)
    keys = [batch_key(s, i, 1) for s in (4, 2**70) for i in range(5)]
    assert not draw_without_replacement(keys, 12, 4, 3)[1].any()
    np.testing.assert_array_equal(drawn(keys, 12, 4, 3), reference(keys, 12, 4, 3))


def test_numpy_drift_check_warns_once(monkeypatch):
    monkeypatch.setattr(rng, "_draw", lambda *args: None)
    rng._matches_numpy.cache_clear()
    try:
        with pytest.warns(UserWarning, match="its own stream"):
            assert not draw_without_replacement([batch_key(1, 0, 0)], 9, 2, 1)[1].any()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not draw_without_replacement([batch_key(1, 0, 0)], 9, 2, 1)[1].any()
    finally:
        monkeypatch.undo()
        rng._matches_numpy.cache_clear()
    assert rng._matches_numpy()


def test_drawer_reproduces_every_row_on_training_sizes():
    # The benchmark's logistic shape (8 samples, batch 4, 5 steps), the MLP
    # one (20, 5, 6 with an anchor) and a wide client: no row falls back.
    for master, n, b, count in ((77, 8, 4, 5), (3, 20, 5, 6), (2**130 + 5, 500, 32, 2)):
        keys = [batch_key(master, i, t) for i in range(30) for t in (0, 7)]
        keys += [replay_key(master, i, 7, r) for i in range(30) for r in range(3)]
        for group in (keys[:60], keys[60:]):
            idx, exact = draw_without_replacement(group, n, b, count)
            assert exact.all()
            np.testing.assert_array_equal(idx, reference(group, n, b, count))


def textbook_choice(draws, n, size):
    """Floyd's selection, then the Fisher-Yates shuffle, on given bounded draws."""
    picked = []
    for k, v in enumerate(draws[:size]):
        picked.append(n - size + k if v in picked else v)
    for col, i in enumerate(range(size - 1, 0, -1)):
        j = draws[size + col]
        picked[i], picked[j] = picked[j], picked[i]
    return picked


def words_giving(draws, bounds):
    """Philox words whose 32-bit halves, low first, give these bounded draws unrejected."""
    halves = [((v << 32) + (1 << 32) % e + e - 1) // e for v, e in zip(draws, bounds)]
    halves += [0] * (len(halves) % 2)
    return [lo | hi << 32 for lo, hi in zip(halves[::2], halves[1::2])]


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 40), rows=st.integers(1, 4), count=st.integers(1, 3), data=st.data())
def test_floyd_follows_collision_chains(n, rows, count, data):
    # Draws that repeat an earlier draw, or hit the previous step's j
    # (n - size + k - 1), build long chains of collisions, which the
    # vectorised selection must follow.
    size = data.draw(st.integers(1, n - 1))
    bounds = [n - size + k + 1 for k in range(size)] + list(range(size, 1, -1))
    choices, words = [], []
    for _ in range(rows):
        draws = []
        for _ in range(count):
            floyd = []
            for e in bounds[:size]:
                repeat = [st.just(e - 2), st.sampled_from(floyd)] if floyd else []
                floyd.append(data.draw(st.one_of(st.integers(0, e - 1), *repeat)))
            draws += floyd + [data.draw(st.integers(0, e - 1)) for e in bounds[size:]]
            choices.append(textbook_choice(draws[-len(bounds):], n, size))
        words.append(words_giving(draws, bounds * count))
    idx, exact = rng._batches_from_words(np.array(words, dtype=np.uint64), n, size, count)
    assert exact.all()
    np.testing.assert_array_equal(idx.reshape(-1, size), choices)


def test_floyd_follows_a_chain_through_every_step():
    # Step 1 repeats step 0's draw and takes its j; every later step draws
    # the j the step before took, so step 7's collision is 6 links deep.
    n, size = 20, 8
    bounds = [n - size + k + 1 for k in range(size)] + list(range(size, 1, -1))
    draws = [0, 0, 13, 14, 15, 16, 17, 18] + [0] * (size - 1)
    words = np.array([words_giving(draws, bounds)], dtype=np.uint64)
    idx, exact = rng._batches_from_words(words, n, size, 1)
    assert exact.all()
    assert sorted(textbook_choice(draws, n, size)) == [0, 13, 14, 15, 16, 17, 18, 19]
    np.testing.assert_array_equal(idx[0, 0], textbook_choice(draws, n, size))


def test_rejected_draw_flags_only_its_row():
    # A zero word is rejected by Lemire's method for any bound that is not a
    # power of two (its leftover 0 is below 2**32 mod bound), so numpy would
    # draw again: the row must be flagged, its neighbours kept.
    n, b, count = 7, 3, 2
    keys = [batch_key(9, i, 4) for i in range(3)]
    spawn = np.array([key.spawn_key for key in keys], dtype=np.uint32)
    words = rng._raw_words(rng._philox_keys([9] * len(keys), spawn, np.full(len(keys), 3)), 5)
    words[1] = 0
    idx, exact = rng._batches_from_words(words, n, b, count)
    np.testing.assert_array_equal(exact, [True, False, True])
    want = reference(keys, n, b, count)
    np.testing.assert_array_equal(idx[[0, 2]], want[[0, 2]])


def test_flagged_rows_are_drawn_from_their_streams(monkeypatch):
    def lossy(keys, n, b, count):
        idx, exact = draw_keyed(keys, n, b, count)
        idx[1] = -1
        exact[1] = False
        return idx, exact

    monkeypatch.setattr(local_trainer, "draw_keyed", lossy)
    keys = [batch_key(5, i, 2) for i in range(4)]
    np.testing.assert_array_equal(drawn(keys, 10, 3, 4), reference(keys, 10, 3, 4))


def test_rows_outside_the_kernel_fall_back():
    # numpy's tail-shuffle branch (n > 10000 and b > n // 50): every row.
    keys = [batch_key(1, i, 0) for i in range(3)]
    assert not draw_without_replacement(keys, 20000, 500, 2)[1].any()
    np.testing.assert_array_equal(drawn(keys, 20000, 500, 2), reference(keys, 20000, 500, 2))
    # A spawn word of 2**32 or more: that row only.
    keys = [batch_key(1, 0, 0), batch_key(1, 2**32, 0), batch_key(1, 3, 2**40)]
    exact = draw_without_replacement(keys, 9, 2, 3)[1]
    np.testing.assert_array_equal(exact, [True, False, False])
    np.testing.assert_array_equal(drawn(keys, 9, 2, 3), reference(keys, 9, 2, 3))
    # Keys that differ only in master seed, of one or more words: exact.
    seeds = [batch_key(1, 0, 0), batch_key(2, 0, 0), batch_key(2**64 + 3, 0, 0)]
    assert draw_without_replacement(seeds, 9, 2, 3)[1].all()
    np.testing.assert_array_equal(drawn(seeds, 9, 2, 3), reference(seeds, 9, 2, 3))
    # A key without a purpose names no stream; it is not drawn, and the
    # rows of other lengths beside it still are.
    bare = [StreamKey(1, ())]
    assert not draw_without_replacement(bare, 9, 2, 3)[1].any()
    np.testing.assert_array_equal(
        draw_without_replacement(bare + seeds, 9, 2, 3)[1], [False, True, True, True])
    with pytest.raises(TypeError):
        drawn(bare, 9, 2, 3)


def test_batch_over_n_takes_the_full_range_without_warning():
    keys = [batch_key(1, i, 0) for i in range(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = drawn(keys, 5, 9, 3)
    np.testing.assert_array_equal(got, np.broadcast_to(np.arange(5), (2, 3, 5)))


def test_stream_key_builds_its_stream():
    key = replay_key(7, 2, 4, 1)
    assert key == StreamKey(7, (REPLAY, 2, 4, 1))
    np.testing.assert_array_equal(draws(key.generator()), draws(replay_stream(7, 2, 4, 1)))
    np.testing.assert_array_equal(draws(batch_key(7, 2, 4).generator()), draws(stream(7, BATCH, 2, 4)))


def test_threads_draw_what_one_thread_draws():
    # More threads than cores, switching as often as the interpreter allows.
    jobs = [([batch_key(s, i, t) for i in range(40)], 12, 5, 4)
            for s in range(6) for t in range(4)]
    serial = [draw_without_replacement(*job) for job in jobs]
    results = [[None] * len(jobs) for _ in range(4)]
    barrier = threading.Barrier(4)

    def work(slot):
        barrier.wait()
        for j, job in enumerate(jobs):
            results[slot][j] = draw_without_replacement(*job)

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for got in results:
        for (idx, exact), (want_idx, want_exact) in zip(got, serial):
            np.testing.assert_array_equal(idx, want_idx)
            np.testing.assert_array_equal(exact, want_exact)
