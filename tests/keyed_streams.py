"""Batch streams named one row at a time, for tests that key rows by hand.

run_trials keys a run's rows as StreamKeys arrays built from its masks.
These helpers build the same StreamKeys from each row's slot words, so a
test can name a round's rows and replicas and draw them as a run does.
"""

from collections.abc import Sequence

import numpy as np

from dropfed.local_trainer import draw_batches
from dropfed.rng import BATCH, REPLAY, StreamKey, StreamKeys, draw_keyed


def batch_key(master_seed: int, client: int, iteration: int) -> StreamKey:
    """Key of the batch stream of one client at one global iteration."""
    return StreamKey(master_seed, (BATCH, client, iteration))


def replay_key(master_seed: int, client: int, iteration: int, replica: int) -> StreamKey:
    """Key of rng.replay_stream(master_seed, client, iteration, replica)."""
    return StreamKey(master_seed, (REPLAY, client, iteration, replica))


def stream_keys(keys: Sequence[StreamKey]) -> StreamKeys:
    """The keys as arrays, each row's spawn words zero-padded past its own length."""
    seeds, spawn = zip(*keys) if keys else ((), ())
    lengths = np.fromiter(map(len, spawn), dtype=np.intp, count=len(spawn))
    width = lengths.max(initial=0)
    try:
        spawn = np.array([(*words, *[0] * (width - len(words))) for words in spawn],
                         dtype=np.uint64).reshape(len(keys), width)
    except OverflowError:  # a negative or huge word: no row fits the kernel
        spawn = np.zeros((len(keys), 0), dtype=np.uint64)
    return StreamKeys(seeds, spawn, lengths)


def draw_without_replacement(keys: Sequence[StreamKey], n: int, size: int, count: int):
    """rng.draw_keyed on a list of StreamKey."""
    return draw_keyed(stream_keys(keys), n, size, count)


def round_batches(n, ids, cfg, anchored, key_for, replicas=0, replay_for=None, *, build=False):
    """play_round's batches for a round and its replicas, as one group.

    Row i draws from key_for(i) and replica r of row i from replay_for(i,
    r), in play_round's row order; with build, from each key's Generator
    instead of the vectorised drawer.  Scaffold's within-round anchor
    (anchored) takes one batch more.
    """
    ids = np.sort(np.asarray(ids, dtype=np.int64)).tolist()
    keys = [key_for(i) for i in ids] + [replay_for(i, r) for r in range(replicas) for i in ids]
    sources = [key.generator() for key in keys] if build else stream_keys(keys)
    rows = np.tile(np.array(ids, dtype=np.int64), replicas + 1)
    return [draw_batches(n, rows, cfg.batch_size, sources, cfg.steps + anchored)]
