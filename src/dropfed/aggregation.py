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

Layout: S seeds run in lockstep as one state, w (S, dim) (one seed may keep
w 1-D), with seed s's client i at row s * N + i of the stacked population
and of the per-client memory (mimic's corrections, mifa's last uploads,
scaffold's control variates): one (S * N, dim) array plus the round each
row was last written, -1 if never.  A round's participants are a sorted id
array and their uploads one (R, dim) array.  Each seed aggregates over its
own rows with its own step size; a seed with no participant keeps its
model.  Local training of every participant, and of every replica of a
replayed round, runs in one lockstep pass, each row with its own batch
stream per client and round (and replica), all drawn in one call (see
local_trainer).  Averages add rows in id order, one at a time, so every
path that averages the same rows agrees bit for bit.

Round functions never mutate their input state; they return a fresh state.
That makes deterministic replays (full-batch expectations, variance probes)
a matter of calling them again on the same state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, IntegrityError
from .local_trainer import LocalConfig, draw_batches, local_train
from .objectives import Objective, ParamVector, stack
from .rng import StreamKey

ALGORITHMS = ("fedavg", "fedprox", "mifa", "mimic", "scaffold")

# rng_for(i) or rng_for(i, r) names row i's (replica r's) batch stream: a
# StreamKey, whose rows are drawn in one vectorised pass, or a Generator.
RngFactory = Callable[..., StreamKey | np.random.Generator]
Rate = float | np.ndarray  # a step size for every seed of a state, or one for all


@dataclass
class ServerState:
    """Global model plus whatever per-client memory the chosen algorithm carries."""

    algorithm: str
    w: np.ndarray  # (dim,) for one seed, or (S, dim) for S seeds in lockstep
    num_clients: int  # per seed
    # (S * N, dim): mimic corrections, mifa memorized uploads or scaffold
    # client variates; zero until written.  fedavg and fedprox leave it untouched.
    rows: np.ndarray
    written: np.ndarray  # (S * N,): the round each row was last written, -1 if never
    round_index: int = 0
    # scaffold only: the server control variate, shaped like w.
    server_variate: np.ndarray | None = None
    # scaffold only: variates rebuilt each round from anchors, not kept across rounds.
    scaffold_literal: bool = False

    @property
    def models(self) -> np.ndarray:
        """w as (S, dim)."""
        return self.w.reshape(-1, self.w.shape[-1])


@dataclass(frozen=True)
class RoundResult:
    """Applied update v_t (shaped like w), the participants and their uploads, and the new state."""

    v: np.ndarray
    ids: np.ndarray
    uploads: np.ndarray
    state: ServerState


def init_state(
    algorithm: str, w0: ParamVector, num_clients: int, scaffold_literal: bool = False
) -> ServerState:
    """Fresh state for one seed's model w0 (dim,), or for S seeds' models (S, dim)."""
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if num_clients < 1:
        raise ConfigError(f"num_clients must be >= 1, got {num_clients}")
    w0 = np.array(w0, dtype=np.float64)
    seeds, dim = w0.reshape(-1, w0.shape[-1]).shape
    return ServerState(
        algorithm, w0, num_clients,
        rows=np.zeros((seeds * num_clients, dim)),
        written=np.full(seeds * num_clients, -1, dtype=np.int64),
        server_variate=np.zeros_like(w0) if algorithm == "scaffold" else None,
        scaffold_literal=algorithm == "scaffold" and scaffold_literal,
    )


def _sums(groups: np.ndarray, values: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums (count, dim) of the rows of values in each of count sorted groups, and their sizes.

    Every sum adds its rows in order, one at a time: the one accumulation
    order all paths share, so alternate paths agree bit for bit (sum(axis=0)
    is pairwise when dim == 1).  Several groups go into a zero-padded
    (count, largest size, dim) block, and each sum is read at its group's
    last real row: summing on into the padding could turn a -0.0 into 0.0.
    An empty group sums to zero.
    """
    sizes = np.bincount(groups, minlength=count)
    padded = np.zeros((count, max(1, sizes.max()), values.shape[-1]))
    padded[groups, np.arange(len(groups)) - (np.cumsum(sizes) - sizes)[groups]] = values
    return np.cumsum(padded, axis=1)[np.arange(count), np.maximum(sizes - 1, 0)], sizes


def _means(groups: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """Each group's mean (count, dim); zero for an empty group."""
    if count == 1:
        return np.cumsum(values, axis=0)[-1:] / len(values)
    sums, sizes = _sums(groups, values, count)
    return sums / np.maximum(sizes, 1)[:, None]


def _write(state: ServerState, ids: np.ndarray, values: np.ndarray) -> dict:
    """Fresh rows and written arrays with the participants' rows replaced."""
    rows = state.rows.copy()
    rows[ids] = values
    written = state.written.copy()
    written[ids] = state.round_index
    return {"rows": rows, "written": written}


def _result(state, ids, uploads, v, eta, **changes) -> RoundResult:
    """Apply each seed's update v (S, dim) with its step size (eta: one, or one per seed)."""
    w = (state.models - np.asarray(eta)[..., None] * v).reshape(state.w.shape)
    new = replace(state, w=w, round_index=state.round_index + 1, **changes)
    return RoundResult(v.reshape(state.w.shape), ids, uploads, new)


def fedavg_round(state: ServerState, ids: np.ndarray, uploads: np.ndarray, eta: Rate) -> RoundResult:
    v = _means(ids // state.num_clients, uploads, len(state.models))
    return _result(state, ids, uploads, v, eta)


def mifa_round(state: ServerState, ids: np.ndarray, uploads: np.ndarray, eta: Rate) -> RoundResult:
    """Average every memorized upload of each seed that has a participant."""
    changes = _write(state, ids, uploads)
    n, seeds = state.num_clients, len(state.models)
    playing = np.bincount(ids // n, minlength=seeds) > 0
    missing = np.flatnonzero((changes["written"] < 0) & np.repeat(playing, n))
    if missing.size:
        raise IntegrityError(f"memorized updates missing for clients {missing.tolist()}")
    memory = _sums(np.arange(seeds * n) // n, changes["rows"], seeds)[0] / n
    return _result(state, ids, uploads, np.where(playing[:, None], memory, 0.0), eta, **changes)


def mimic_round(state: ServerState, ids: np.ndarray, uploads: np.ndarray, eta: Rate) -> RoundResult:
    """Correction-variable aggregation.

    Each participating upload is shifted by that client's stored correction
    (zero until first written), the shifted vectors are averaged into v, and
    afterwards every participant's correction becomes v minus its raw upload.
    The participants' corrections therefore keep the same mean they had
    before the round, and a client absent since round t' contributes exactly
    the correction written at t'.
    """
    owner = ids // state.num_clients
    v = _means(owner, uploads + state.rows[ids], len(state.models))
    return _result(state, ids, uploads, v, eta, **_write(state, ids, v[owner] - uploads))


def scaffold_round(
    state: ServerState, ids: np.ndarray, uploads: np.ndarray, eta: Rate, variates: np.ndarray,
) -> RoundResult:
    """Average the control-variate-corrected uploads.

    With persistent variates, `variates` holds the participants' mean raw
    gradients: they become the participants' control variates, and the
    server variate absorbs (1/N) of their change.  With state.scaffold_literal
    (variates rebuilt inside the round from anchors) every variate stays.
    """
    v = _means(ids // state.num_clients, uploads, len(state.models))
    if state.scaffold_literal:
        return _result(state, ids, uploads, v, eta)
    change = _sums(ids // state.num_clients, variates - state.rows[ids], len(state.models))[0]
    server = state.server_variate.reshape(change.shape) + change / state.num_clients
    return _result(
        state, ids, uploads, v, eta,
        server_variate=server.reshape(state.w.shape), **_write(state, ids, variates),
    )


_RULES = {"fedavg": fedavg_round, "fedprox": fedavg_round, "mifa": mifa_round, "mimic": mimic_round}


def _population(state: ServerState, objectives, active) -> tuple[Objective, np.ndarray]:
    population = stack(objectives)
    if population.num_clients != len(state.rows):
        raise ConfigError(f"{population.num_clients} objectives for {len(state.rows)} clients")
    return population, np.sort(np.asarray(active, dtype=np.int64))


def _rounds(state, population, ids, cfg, eta, rngs, replicas) -> list[RoundResult]:
    """Train every (replica, participant) row in lockstep, then aggregate each replica.

    Every row's batches are drawn in one call before training.  Control
    variates are those of scaffold: persistent ones from the state, or with
    state.scaffold_literal anchors taken on batch 0 of each row's stream at
    the broadcast point, ahead of its K training batches: client i steps with
    g_i(w_k) - g_i(w_t) + mean_j g_j(w_t), the mean over its seed's
    participants in its replica.
    """
    rows = np.tile(ids, replicas)
    seeds = len(state.models)
    owner = rows // state.num_clients
    start = state.models[owner]
    anchored = state.scaffold_literal
    batches = draw_batches(population.n, rows, cfg.batch_size, rngs, cfg.steps + anchored)
    shift = None
    if anchored:
        anchors = population.batch_grad(start, batches[0])
        groups = np.repeat(np.arange(replicas) * seeds, len(ids)) + owner
        shift = _means(groups, anchors, replicas * seeds)[groups] - anchors
        batches = batches[1:]
    elif state.algorithm == "scaffold":
        shift = state.server_variate.reshape(seeds, -1)[owner] - state.rows[rows]
    uploads, grad_means, _ = local_train(population, start, batches, cfg, shift)
    dim = start.shape[1]
    per_replica = zip(uploads.reshape(replicas, len(ids), dim),
                      grad_means.reshape(replicas, len(ids), dim))
    if state.algorithm == "scaffold":
        return [scaffold_round(state, ids, up, eta, g) for up, g in per_replica]
    return [_RULES[state.algorithm](state, ids, up, eta) for up, _ in per_replica]


def play_round(
    state: ServerState, objectives: Objective | list[Objective], active: list[int] | np.ndarray,
    cfg: LocalConfig, eta: Rate, rng_for: RngFactory, *, full_batch: bool = False,
) -> RoundResult:
    """Run one full round: local training on each active client, then aggregate.

    With S seeds, active holds rows of the stacked population (seed s's
    client i is s * N + i) and eta one step size per seed.  rng_for(i)
    names row i's batch stream.  An empty active set leaves the model
    untouched (v = 0) and just advances the round counter, as it does for
    each seed without participants.  full_batch swaps every batch draw for
    the whole client dataset, which is how deterministic per-round
    expectations are replayed; it builds no stream at all.
    """
    population, ids = _population(state, objectives, active)
    if not ids.size:
        new = replace(state, w=state.w.copy(), round_index=state.round_index + 1)
        return RoundResult(np.zeros_like(state.w), ids, np.zeros((0, state.w.shape[-1])), new)
    rngs = None if full_batch else [rng_for(i) for i in ids.tolist()]
    return _rounds(state, population, ids, cfg, eta, rngs, 1)[0]


def replay_round(
    state: ServerState, objectives: Objective | list[Objective], active: list[int] | np.ndarray,
    cfg: LocalConfig, eta: Rate, rng_for: RngFactory, replicas: int,
) -> np.ndarray:
    """Applied updates (replicas, *w.shape) of independent replays of one nonempty round.

    All replicas train in one lockstep pass from `state`, which is not
    advanced; rng_for(i, r) names replica r's batch stream for row i.
    """
    population, ids = _population(state, objectives, active)
    if not ids.size:
        raise ConfigError("cannot replay an empty round")
    rngs = [rng_for(i, r) for r in range(replicas) for i in ids.tolist()]
    results = _rounds(state, population, ids, cfg, eta, rngs, replicas)
    return np.array([res.v for res in results])
