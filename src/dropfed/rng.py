"""Splittable random streams derived from a single master seed.

Every consumer of randomness gets its own counter-based generator keyed by
(purpose, *indices), so adding or removing one consumer (say, a diagnostic
that replays a round) never shifts the draws seen by any other consumer.

Mini-batches are drawn in bulk.  StreamKeys names many batch streams as
arrays without building them, the master seeds once and each row by its
seed's index, and draw_keyed gives every row exactly what `count` calls of
choice(n, size, replace=False) on that row's own stream (keys.generator(r))
would give.  A vectorised kernel does so for nearly every row by redoing
numpy's own steps (SeedSequence's hash, Philox words, Lemire's bounded
draw, Floyd's selection and the shuffle) on whole arrays; a row that needs
a branch it does not redo is drawn from its built stream instead.  The
equality was checked against numpy 2.4.6 and is pinned by tests/test_rng.py.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

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


@dataclass(frozen=True)
class StreamKeys:
    """Many slots as arrays, not yet built: row r is (seeds[owner[r]], spawn[r, :lengths[r]]).

    A run's master seeds are named once; each row holds its own seed's index.
    """

    seeds: tuple[int, ...]  # ints of any size; a seed may own no row
    owner: np.ndarray  # (R,) indices into seeds
    spawn: np.ndarray  # (R, width) uint64, zero past each row's length
    lengths: np.ndarray  # (R,)

    def generator(self, r: int) -> np.random.Generator:
        """Row r's stream, as stream(seeds[owner[r]], *spawn_key) builds it."""
        spawn_key = tuple(self.spawn[r, : self.lengths[r]].tolist())
        return generator(np.random.SeedSequence(self.seeds[self.owner[r]], spawn_key=spawn_key))


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


def _philox_keys(keys: StreamKeys) -> list[list[int]]:
    """Philox keys of each row's stream, keys.generator(r), for spawn words below 2**32.

    Each row starts from its own master seed's pool and hash constant (the
    constant differs only between seeds of different word counts), looked up
    by its owner; each pool mixes only its own words.
    """
    pools, constants = zip(*map(_run_pool, keys.seeds))
    at = keys.owner if len(keys.seeds) > 1 else [0]  # one seed: its pool broadcasts
    pool, spawn, lengths = np.array(pools)[at], keys.spawn.astype(np.uint32), keys.lengths
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


def draw_keyed(keys: StreamKeys, n: int, size: int, count: int) -> np.ndarray:
    """Indices (R, count, size): row r as count calls of keys.generator(r).choice.

    Each call is choice(n, size, replace=False), 1 <= size < n.  The kernel
    draws every row it can redo; the rest are drawn from their built streams.
    That happens on a rejected bounded draw (odds about n / 2**32 per draw),
    on numpy's tail-shuffle branch (n > 10000 and size > n // 50), for a
    spawn word >= 2**32 or an empty spawn key, for a negative master seed,
    and for every row if this numpy draws otherwise (see _matches_numpy).
    Rows may differ in master seed and in spawn-key length, and never
    interact: any split of the rows gives the same draws.
    """
    rows, drawn = len(keys.lengths), None
    if rows and n <= _MASK32 and not (n > 10000 and size > n // 50) and _matches_numpy():
        drawn = _draw(keys, n, size, count)
    idx, exact = drawn or (np.empty((rows, count, size), dtype=np.int64), np.zeros(rows, bool))
    for r in np.flatnonzero(~exact):
        rng = keys.generator(r)
        idx[r] = [rng.choice(n, size, replace=False) for _ in range(count)]
    return idx


def _draw(keys: StreamKeys, n, size, count) -> tuple[np.ndarray, np.ndarray] | None:
    """draw_keyed's kernel: indices and which rows they reproduce; None for keys that do not fit."""
    if not keys.spawn.shape[1] or min(keys.seeds) < 0:
        return None
    wide = (keys.spawn > _MASK32).any(axis=1) | (keys.lengths == 0)
    raw = _raw_words(_philox_keys(keys), -(-count * (2 * size - 1) // 2))
    idx, exact = _batches_from_words(raw, n, size, count)
    return idx, exact & ~wide


@functools.cache
def _matches_numpy() -> bool:
    """Whether the kernel gives this numpy's Generator.choice on a few keys; warns once if not.

    The kernel copies numpy's internals, which another numpy may change.
    """
    keys = StreamKeys((3, 2**40 + 7, 11), np.arange(3), np.array(
        [[BATCH, 1, 2], [BATCH, 5, 0], [BATCH, 2, 7]], dtype=np.uint64), np.full(3, 3))
    streams = [keys.generator(r) for r in range(3)]
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
