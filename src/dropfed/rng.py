"""Splittable random streams derived from a single master seed.

Every consumer of randomness gets its own counter-based generator keyed by
(purpose, *indices), so adding or removing one consumer (say, a diagnostic
that replays a round) never shifts the draws seen by any other consumer.

Mini-batches are drawn in bulk.  StreamKeys names many batch streams as
arrays without building them, each row a StreamKey, and draw_keyed serves
them in one vectorised pass: per row it gives exactly what `count` calls of
key.generator().choice(n, size, replace=False) would give.  It does so by
redoing numpy's own steps (SeedSequence's hash, Philox words, Lemire's
bounded draw, Floyd's selection and the shuffle) on whole arrays; rows that
need a branch it does not redo are flagged for the caller to draw from the
real stream.  The equality was checked against numpy 2.4.6 and is pinned by
tests/test_rng.py.
"""

from __future__ import annotations

import functools
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Purpose tags.  Values are part of the reproducibility contract: changing
# them changes every stream derived from a master seed.
DATA = 1
PARTITION = 2
AVAILABILITY = 3
INIT = 4
BATCH = 5
REPLAY = 6
PROBE = 7

Seed = int | np.random.SeedSequence


def seed_for(master_seed: int, purpose: int, *indices: int) -> np.random.SeedSequence:
    """Derive the child seed for one (purpose, *indices) slot."""
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(purpose, *indices))


def stream(master_seed: int, purpose: int, *indices: int) -> np.random.Generator:
    """Independent generator for one (purpose, *indices) slot."""
    return np.random.Generator(np.random.Philox(seed_for(master_seed, purpose, *indices)))


def generator(seed: Seed) -> np.random.Generator:
    """Generator from a raw integer seed or an already-derived SeedSequence."""
    return np.random.Generator(np.random.Philox(seed))


def replay_stream(master_seed: int, client: int, iteration: int, replica: int) -> np.random.Generator:
    """Batch stream for diagnostic replays; disjoint from training streams."""
    return stream(master_seed, REPLAY, client, iteration, replica)


class StreamKey(NamedTuple):
    """The slot of one stream, (master seed, (purpose, *indices)), not yet built."""

    master_seed: int
    spawn_key: tuple[int, ...]

    def generator(self) -> np.random.Generator:
        return stream(self.master_seed, *self.spawn_key)


@dataclass(frozen=True)
class StreamKeys:
    """Many slots as arrays: row r is StreamKey(master_seeds[r], spawn[r, :lengths[r]])."""

    master_seeds: Sequence[int]  # (R,), ints of any size
    spawn: np.ndarray  # (R, width) uint64, zero past each row's length
    lengths: np.ndarray  # (R,)

    def __getitem__(self, r: int) -> StreamKey:
        return StreamKey(self.master_seeds[r], tuple(self.spawn[r, : self.lengths[r]].tolist()))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


@functools.lru_cache(maxsize=16)
def _hash_steps(h: int, mult: int, count: int) -> np.ndarray:
    """(count, 2) uint32: the hash constant before and after each of count steps."""
    steps = []
    for _ in range(count):
        steps.append((h, h * mult & _MASK32))
        h = steps[-1][1]
    steps = np.array(steps, dtype=np.uint32)
    steps.flags.writeable = False  # cached, so shared by every caller
    return steps


@functools.lru_cache(maxsize=256)
def _run_pool(master_seed: int) -> tuple[np.ndarray, int]:
    """SeedSequence's pool after the master seed's words, and its hash constant.

    This part of the hash depends on the master seed alone: it is the pool
    of SeedSequence(master_seed), since numpy hashes a short seed as if
    padded with zeros to the pool size, exactly as it pads a seed that a
    spawn key follows.  Each of the 4 + 12 + 4 * (words - 4) hash steps so
    far multiplied the constant by _MULT_A.
    """
    words = max(1, -(-master_seed.bit_length() // 32))
    steps = 16 + 4 * max(0, words - 4)
    pool = np.random.SeedSequence(master_seed).pool.copy()
    pool.flags.writeable = False  # the cached pool is shared by every caller
    return pool, _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32


_STATE_STEPS = _hash_steps(_INIT_B, _MULT_B, 4)


def _philox_keys(master_seeds: Sequence[int], spawn: np.ndarray,
                 lengths: np.ndarray) -> list[list[int]]:
    """Philox(SeedSequence(master_seeds[r], spawn_key=spawn[r, :lengths[r]])) keys, spawn (R, m).

    Each row starts from its own master seed's pool and hash constant (the
    constant differs only between seeds of different word counts); rows that
    share one master seed share one pool, and each pool mixes only its own words.
    """
    which = {seed: j for j, seed in enumerate(dict.fromkeys(master_seeds))}
    at = [which[seed] for seed in master_seeds] if len(which) > 1 else [0]
    pools, constants = zip(*map(_run_pool, which))
    pool = np.array(pools)[at]
    # Spawn word c goes into pool word d with hash step 4 c + d: the row's
    # constant times a power of _MULT_A, all modulo 2**32.
    powers = _hash_steps(1, _MULT_A, 4 * spawn.shape[1]).reshape(-1, 4, 2)
    steps = np.array(constants, dtype=np.uint32)[at][:, None, None, None] * powers
    mixed = (spawn[:, :, None] ^ steps[..., 0]) * steps[..., 1]
    mixed ^= mixed >> 16
    mixed *= np.uint32(_MIX_R)
    for c in range(spawn.shape[1]):
        step = _MIX_L * pool - mixed[:, c]
        step ^= step >> 16
        pool = step if c < lengths.min() else np.where((c < lengths)[:, None], step, pool)
    state = (pool ^ _STATE_STEPS[:, 0]) * _STATE_STEPS[:, 1]
    state ^= state >> 16
    return state.astype("<u4").view("<u8").tolist()


def _raw_words(keys: list[list[int]], count: int) -> np.ndarray:
    """(R, count) first 64-bit outputs of a fresh Philox under each key.

    One Philox, made for this call, is re-keyed for every row: setting its
    state is far cheaper than seeding a new one.
    """
    bitgen = np.random.Philox(0)
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = np.empty((len(keys), count), dtype=np.uint64)
    for r, key in enumerate(keys):
        state["state"]["key"] = key
        bitgen.state = state
        out[r] = bitgen.random_raw(count)
    return out


def _batches_from_words(
    words: np.ndarray, n: int, size: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Turn each row's Philox words into count choices, as Generator.choice does.

    A choice takes size bounded 32-bit draws for Floyd's selection, then
    size - 1 for the shuffle, low half of each word first.  Returns the
    indices (R, count, size) and whether each row used no rejected draw;
    after a rejection numpy draws again, so such a row is not reproduced.
    """
    rows, width = words.shape[0], 2 * size - 1
    excl = np.concatenate([np.arange(n - size + 1, n + 1), np.arange(size, 1, -1)])[:, None]
    # One row per bounded draw, one column per choice: each step is one pass over a row.
    m = np.multiply(words.astype("<u8", copy=False).view("<u4")[:, : count * width]
                    .reshape(-1, width).T, excl.astype(np.uint64), order="C")
    # Lemire: the draw is m >> 32, unless the low word falls below 2**32 mod excl.
    exact = ~(m.astype(np.uint32) < (1 << 32) % excl).any(axis=0).reshape(rows, count).any(axis=1)
    m >>= np.uint64(32)
    val = m.view(np.int64)
    # Floyd: step k draws v_k in [0, j_k] with j_k = n - size + k and takes
    # j_k instead when an earlier step has taken v_k.
    idx = val[:size].copy()
    for k in range(1, size):
        idx[k, (idx[:k] == idx[k]).any(axis=0)] = n - size + k
    at = np.arange(rows * count)
    for col, i in enumerate(range(size - 1, 0, -1)):  # Fisher-Yates, last slot first
        j = val[size + col]
        idx[i], idx[j, at] = idx[j, at], idx[i].copy()
    return idx.T.reshape(rows, count, size), exact


def draw_keyed(keys: StreamKeys, n: int, size: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (R, count, size): row r as count calls of keys[r].generator().choice.

    Each call is choice(n, size, replace=False), 1 <= size < n.  Also returns
    exact (R,): rows marked False hold no valid draws, and the caller must
    draw them from keys[r].generator().  That happens on a rejected bounded
    draw (odds about n / 2**32 per draw), on numpy's tail-shuffle branch
    (n > 10000 and size > n // 50), for a spawn word >= 2**32 or an empty
    spawn key, for a negative master seed, and for every row if this numpy
    draws otherwise (see _matches_numpy).  Rows may differ in master seed
    and in spawn-key length, and never interact: any split of the rows
    gives the same draws.
    """
    rows, drawn = len(keys.lengths), None
    if rows and n <= _MASK32 and not (n > 10000 and size > n // 50) and _matches_numpy():
        drawn = _draw(keys, n, size, count)
    return drawn or (np.zeros((rows, count, size), dtype=np.int64), np.zeros(rows, dtype=bool))


def _draw(keys: StreamKeys, n, size, count) -> tuple[np.ndarray, np.ndarray] | None:
    """draw_keyed's kernel; None when the keys do not fit it."""
    if not keys.spawn.shape[1] or min(map(operator.index, set(keys.master_seeds))) < 0:
        return None
    wide = (keys.spawn > _MASK32).any(axis=1) | (keys.lengths == 0)
    philox_keys = _philox_keys(keys.master_seeds, keys.spawn.astype(np.uint32), keys.lengths)
    raw = _raw_words(philox_keys, -(-count * (2 * size - 1) // 2))
    idx, exact = _batches_from_words(raw, n, size, count)
    return idx, exact & ~wide


@functools.cache
def _matches_numpy() -> bool:
    """Whether the kernel gives this numpy's Generator.choice on a few keys; warns once if not.

    The kernel copies numpy's internals, which another numpy may change.
    """
    keys = StreamKeys((3, 2**40 + 7, 11), np.array([[BATCH, 1, 2], [BATCH, 5, 0], [BATCH, 2, 7]],
                                                   dtype=np.uint64), np.full(3, 3))
    streams = [keys[r].generator() for r in range(3)]
    want = [[g.choice(30, 6, replace=False) for _ in range(2)] for g in streams]
    try:
        got = _draw(keys, 30, 6, 2)
        if got is not None and got[1].all() and np.array_equal(got[0], want):
            return True
    except (KeyError, TypeError, ValueError):  # a changed bit-generator state layout
        pass
    warnings.warn(f"numpy {np.__version__} draws batches unlike the vectorised drawer; "
                  "every batch is drawn from its own stream instead")
    return False
