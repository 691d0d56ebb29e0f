"""Server-side aggregation rules and their persistent state.

Every algorithm shares one update law: collect per-client vectors, average
them over the participating set (or all clients, for memorized updates),
and apply w <- w - eta_t * v.  What differs is how each client's vector is
assembled:

* fedavg / fedprox: the raw averaged local gradient.
* mifa: the server remembers each client's last upload and averages the
  memory of all N clients every round.
* mimic: the upload is shifted by a stored correction equal to the gap
  between the last round's global update and the client's own upload, which
  re-centers the average of whoever shows up toward the full-population
  update.
* scaffold: clients correct every local step with control variates before
  uploading (two vectors per client per round cross the wire).

Layout: S seeds run in lockstep as one state, w (S, dim) even for one
seed, with seed s's client i at row s * N + i of the stacked population and
of the per-client memory (mimic's corrections, mifa's last uploads,
scaffold's control variates): one (S * N, dim) array plus the round each
row was last written, -1 if never.  A round's participants are a sorted id
array of R rows, and its uploads one (copies, R, dim) array: copy 0 is the
round, then one copy per replica.  Each seed aggregates over its own rows
with its own step size; a seed with no participant keeps its model.

A round is one training pass: its participants and replicas (replays from
the same state for the Monte Carlo expectation, the phi samples and the
full-batch expectation) train in lockstep, each row on its own batches:
drawn ahead by the caller from a stream per client, round and replica (see
local_trainer), or the whole client dataset every step.  Rows never
interact, so blocks of ROW_BLOCK_BYTES give the bits of one call.  One
aggregate call then gives every copy's v (the replicas' seed-major); only the
round's own copy builds a state and writes the rule's memory.  Averages go
through objectives.group_sums, in the one order the measurements share.

aggregate and play_round never mutate their input state, nor does anything
else: a round with no participant returns a state that shares its arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, IntegrityError
from .local_trainer import LocalConfig, draw_batches, local_train
from .objectives import Objective, ParamVector, group_means, group_sums, stack

ALGORITHMS = ("fedavg", "fedprox", "mifa", "mimic", "scaffold")

# rng_for(i) is row i's batch stream.
RngFactory = Callable[[int], np.random.Generator]
Rate = float | np.ndarray  # a step size for every seed of a state, or one for all


@dataclass
class ServerState:
    """Global model plus whatever per-client memory the chosen algorithm carries."""

    algorithm: str
    w: np.ndarray  # (S, dim): S seeds in lockstep
    num_clients: int  # per seed
    # (S * N, dim): mimic corrections, mifa memorized uploads or scaffold
    # client variates; zero until written.  fedavg and fedprox leave it untouched.
    rows: np.ndarray
    written: np.ndarray  # (S * N,): the round each row was last written, -1 if never
    round_index: int = 0
    # scaffold only: the server control variate of each seed, (S, dim).
    server_variate: np.ndarray | None = None
    # scaffold only: variates rebuilt each round from anchors, not kept across rounds.
    scaffold_literal: bool = False


@dataclass(frozen=True)
class RoundResult:
    """Applied update v_t (S, dim), new state, and replicas' v: C-order (S, replicas, dim)."""

    v: np.ndarray
    state: ServerState
    replays: np.ndarray


def init_state(
    algorithm: str, w0: ParamVector, num_clients: int, scaffold_literal: bool = False
) -> ServerState:
    """Fresh state for S seeds' models w0 (S, dim); a 1-D w0 (dim,) is one seed."""
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if num_clients < 1:
        raise ConfigError(f"num_clients must be >= 1, got {num_clients}")
    w0 = np.array(w0, dtype=np.float64, ndmin=2)
    seeds, dim = w0.shape
    return ServerState(
        algorithm, w0, num_clients,
        rows=np.zeros((seeds * num_clients, dim)),
        written=np.full(seeds * num_clients, -1, dtype=np.int64),
        server_variate=np.zeros_like(w0) if algorithm == "scaffold" else None,
        scaffold_literal=algorithm == "scaffold" and scaffold_literal,
    )


def _write(state: ServerState, ids: np.ndarray, values: np.ndarray) -> dict:
    """Fresh rows and written arrays with the participants' rows replaced."""
    rows = state.rows.copy()
    rows[ids] = values
    written = state.written.copy()
    written[ids] = state.round_index
    return {"rows": rows, "written": written}


def aggregate(
    state: ServerState, ids: np.ndarray, uploads: np.ndarray, eta: Rate,
    variates: np.ndarray | None = None,
) -> RoundResult:
    """Apply the rule to a round's uploads and to any replica copies of them.

    ids are the round's sorted participants, and uploads (copies, len(ids),
    dim) their rows: copy 0 is the round, then one copy per replica.  One
    pass gives every copy's v, each seed averaging its own rows; only copy 0
    moves the model (by its seed's step size in eta) and writes the rule's
    memory.  Uploads of another shape are a ConfigError.

    * fedavg, fedprox, scaffold: v is the mean upload.
    * mifa: the participants' uploads replace their memorized ones, and v is
      the mean of the seed's N memorized uploads.  A participating seed with
      a client never heard from is an IntegrityError.
    * mimic: each upload is shifted by its client's stored correction (zero
      until first written) before the mean, and afterwards every
      participant's correction becomes v minus its raw upload.  The
      participants' corrections therefore keep the mean they had before the
      round, and a client absent since round t' contributes exactly the
      correction written at t'.
    * scaffold with persistent variates: `variates` holds the participants'
      mean raw gradients.  They become the participants' control variates,
      and the server variate absorbs (1/N) of their change.  With
      state.scaffold_literal (variates rebuilt inside the round from
      anchors) every variate stays.
    """
    n, (seeds, dim), copies = state.num_clients, state.w.shape, len(uploads)
    if not copies or uploads.shape[1:] != (len(ids), dim):
        raise ConfigError(f"uploads of shape {uploads.shape} for {len(ids)} participants of "
                          f"dimension {dim}; expected (copies >= 1, {len(ids)}, {dim})")
    owner, real = ids // n, uploads[0]
    changes = {}
    if state.algorithm == "mifa":
        changes = _write(state, ids, real)
        playing = np.bincount(owner, minlength=seeds) > 0
        missing = np.flatnonzero((changes["written"] < 0) & np.repeat(playing, n))
        if missing.size:
            raise IntegrityError(f"memorized updates missing for clients {missing.tolist()}")
        memory, v = state.rows.copy(), []
        for block in uploads:  # each copy puts its rows into one scratch copy of the memory
            memory[ids] = block
            v.append(np.where(playing[:, None], group_means(None, memory, seeds), 0.0))
        v = np.array(v)
    else:
        if state.algorithm == "mimic":
            uploads = uploads + state.rows[ids]
        groups = (np.arange(copies)[:, None] * seeds + owner).ravel()
        v = group_means(groups, uploads.reshape(-1, dim), copies * seeds).reshape(copies, seeds, dim)
    if state.algorithm == "mimic":
        changes = _write(state, ids, v[0][owner] - real)
    elif state.algorithm == "scaffold" and not state.scaffold_literal:
        change = group_sums(owner, variates - state.rows[ids], seeds)[0]
        changes = {"server_variate": state.server_variate + change / n,
                   **_write(state, ids, variates)}
    w = state.w - np.asarray(eta)[..., None] * v[0]
    new = replace(state, w=w, round_index=state.round_index + 1, **changes)
    return RoundResult(v[0], new, np.ascontiguousarray(v[1:].transpose(1, 0, 2)))


# Bytes of one (rows, dim) float64 array of a training block; local_train
# holds about ten such arrays, so this bounds its working memory.  A round
# still holds several (copies * R, dim) arrays whole: the uploads, scaffold's
# anchors and shifts under within_round, mimic's shifted uploads, and
# group_sums' padded block with its cumulative sum.
ROW_BLOCK_BYTES = 192 * 1024


def play_round(
    state: ServerState, objectives: Objective | list[Objective], active: list[int] | np.ndarray,
    cfg: LocalConfig, eta: Rate, rng_for: RngFactory | None, *,
    batches: list[np.ndarray] | None = None,
) -> RoundResult:
    """Run one full round: local training on each active client, then aggregate.

    With S seeds, active holds rows of the stacked population (seed s's
    client i is s * N + i) and eta one step size per seed.  Row i draws its
    batches from the Generator rng_for(i), or with rng_for None trains on
    its whole dataset every step.  batches replaces rng_for when given: a
    list of groups (steps, rows, b), as draw_batches gives them, holding the
    round's sorted participants and then those of each replica copy in turn.
    A group may hold several copies, but only whole ones (else a
    ConfigError), and groups may differ in b (the full-batch expectation is
    one group with b = n).  Replicas train beside the round from the same
    state, and result.replays holds their v.  An empty active set leaves
    every model and memory as it is (v = 0, and the state's arrays are
    shared) and has no replica; it only advances the round counter, as a
    round does for each seed without participants.

    Scaffold's control variates are persistent ones from the state, or with
    state.scaffold_literal anchors on each row's first batch at w_t, ahead
    of its K training batches: client i steps with g_i(w_k) - g_i(w_t) +
    mean_j g_j(w_t), the mean over its seed's participants in its copy.
    """
    population = stack(objectives)
    if population.num_clients != len(state.rows):
        raise ConfigError(f"{population.num_clients} objectives for {len(state.rows)} clients")
    ids = np.sort(np.asarray(active, dtype=np.int64))
    if ids.size and (ids[0] < 0 or ids[-1] >= len(state.rows) or (ids[1:] == ids[:-1]).any()):
        raise ConfigError(f"active ids must be distinct rows of 0..{len(state.rows) - 1}")
    seeds, dim = state.w.shape
    if not ids.size:  # w - eta * 0 is w, bit for bit: every step size is finite
        new = replace(state, round_index=state.round_index + 1)
        return RoundResult(np.zeros_like(state.w), new, np.zeros((seeds, 0, dim)))
    anchored = state.scaffold_literal
    if batches is None:
        sources = None if rng_for is None else [rng_for(i) for i in ids.tolist()]
        batches = [draw_batches(population.n, ids, cfg.batch_size, sources, cfg.steps + anchored)]
    sizes = [group.shape[1] for group in batches]
    copies = sum(sizes) // len(ids)
    if not copies or any(size % len(ids) for size in sizes):
        raise ConfigError(f"batch groups of {sizes} rows for {len(ids)} participants; each "
                          "group must hold whole copies of them, and all at least one")
    rows = np.tile(ids, copies)
    owner = rows // state.num_clients
    size = max(1, ROW_BLOCK_BYTES // (8 * dim))
    blocks, start = [], 0  # (rows, their batches), of at most size rows, none across two groups
    for group in batches:
        blocks += [(slice(start + a, start + min(a + size, group.shape[1])), group[:, a:a + size])
                   for a in range(0, group.shape[1], size)]
        start += group.shape[1]
    if anchored:
        anchors = np.concatenate([population.batch_grad(state.w[owner[b]], batch[0])
                                  for b, batch in blocks])
        groups = np.repeat(np.arange(copies) * seeds, len(ids)) + owner
        anchor_shift = group_means(groups, anchors, copies * seeds)[groups] - anchors
    # Only the round's own rows keep their mean raw gradients: scaffold's new variates.
    uploads, grad_means = np.empty((copies, len(ids), dim)), np.empty((len(ids), dim))
    for b, batch in blocks:
        shift = None
        if anchored:
            shift = anchor_shift[b]
        elif state.algorithm == "scaffold":
            shift = state.server_variate[owner[b]] - state.rows[rows[b]]
        uploads.reshape(-1, dim)[b], grads, _ = local_train(population, state.w[owner[b]],
                                                            batch[anchored:], cfg, shift)
        grad_means[b] = grads[: len(grad_means[b])]
    return aggregate(state, ids, uploads, eta, grad_means)
