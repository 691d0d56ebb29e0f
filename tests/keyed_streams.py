"""Batch streams named one row at a time, for tests that key rows by hand.

run_trials keys a run's rows as StreamKeys arrays built from its masks.
These helpers name each row by its slot, build the same StreamKeys from the
slots' words, and build each slot's stream the way numpy defines it, so a
test can name a round's rows and replicas, draw them as a run does, and
check the draws against each row's own stream.
"""

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from dropfed.local_trainer import draw_batches
from dropfed.rng import BATCH, REPLAY, StreamKeys, draw_keyed, generator


class Slot(NamedTuple):
    """The slot of one stream, (master seed, (purpose, *indices))."""

    master_seed: int
    spawn_key: tuple[int, ...]

    def generator(self) -> np.random.Generator:
        return generator(np.random.SeedSequence(self.master_seed, spawn_key=self.spawn_key))


def batch_key(master_seed: int, client: int, iteration: int) -> Slot:
    """Slot of the batch stream of one client at one global iteration."""
    return Slot(master_seed, (BATCH, client, iteration))


def replay_key(master_seed: int, client: int, iteration: int, replica: int) -> Slot:
    """Slot of rng.replay_stream(master_seed, client, iteration, replica)."""
    return Slot(master_seed, (REPLAY, client, iteration, replica))


def stream_keys(keys: Sequence[Slot]) -> StreamKeys:
    """The slots as arrays: each master seed named once, in order of first use, and each
    row's spawn words zero-padded past its own length."""
    masters, spawn = zip(*keys) if keys else ((), ())
    seeds = tuple(dict.fromkeys(masters))
    owner = np.array([seeds.index(m) for m in masters], dtype=np.intp)
    lengths = np.fromiter(map(len, spawn), dtype=np.intp, count=len(spawn))
    width = lengths.max(initial=0)
    spawn = np.array([(*words, *[0] * (width - len(words))) for words in spawn],
                     dtype=np.uint64).reshape(len(keys), width)
    return StreamKeys(seeds, owner, spawn, lengths)


def draw_without_replacement(keys: Sequence[Slot], n: int, size: int, count: int):
    """rng.draw_keyed on a list of slots."""
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
