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

Layout: a round's participants are a sorted id array and their uploads one
(S, dim) array, row s belonging to client ids[s].  The per-client memory
(mimic's corrections, mifa's last uploads, scaffold's control variates) is
one (N, dim) array plus an (N,) array of the round each row was last
written, -1 if never.  Local training of all participants, and of all
replicas of a replayed round, runs in one lockstep pass.  Every row keeps
its own batch stream, one per client and round, or per client, round and
replica; a round draws all rows' batches in one call before training (see
local_trainer).  Averages add rows in id order, one at a time, so every path
that averages the same rows agrees bit for bit.

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


@dataclass
class ServerState:
    """Global model plus whatever per-client memory the chosen algorithm carries."""

    algorithm: str
    w: np.ndarray
    num_clients: int
    # (N, dim): mimic corrections, mifa memorized uploads or scaffold client
    # variates; zero until written.  fedavg and fedprox leave it untouched.
    rows: np.ndarray
    # (N,): the round each row was last written, -1 if never.
    written: np.ndarray
    round_index: int = 0
    # scaffold only: the server control variate.
    server_variate: np.ndarray | None = None


@dataclass(frozen=True)
class RoundResult:
    """Applied update v_t, the participants and their uploads, and the new state."""

    v: np.ndarray
    ids: np.ndarray
    uploads: np.ndarray
    state: ServerState


def init_state(algorithm: str, w0: ParamVector, num_clients: int) -> ServerState:
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    if num_clients < 1:
        raise ConfigError(f"num_clients must be >= 1, got {num_clients}")
    w0 = np.array(w0, dtype=np.float64)
    return ServerState(
        algorithm, w0, num_clients,
        rows=np.zeros((num_clients, w0.shape[0])),
        written=np.full(num_clients, -1, dtype=np.int64),
        server_variate=np.zeros_like(w0) if algorithm == "scaffold" else None,
    )


def _mean(rows: np.ndarray) -> np.ndarray:
    # Fixed-order running sum over the rows, then divide: the one
    # accumulation order every path shares, so alternate paths agree
    # bit-for-bit.  (sum(axis=0) is pairwise when dim == 1.)
    return np.cumsum(rows, axis=-2)[..., -1, :] / rows.shape[-2]


def _write(state: ServerState, ids: np.ndarray, values: np.ndarray) -> dict:
    """Fresh rows and written arrays with the participants' rows replaced."""
    rows = state.rows.copy()
    rows[ids] = values
    written = state.written.copy()
    written[ids] = state.round_index
    return {"rows": rows, "written": written}


def _result(state, ids, uploads, v, eta, **changes) -> RoundResult:
    new = replace(state, w=state.w - eta * v, round_index=state.round_index + 1, **changes)
    return RoundResult(v, ids, uploads, new)


def fedavg_round(state: ServerState, ids: np.ndarray, uploads: np.ndarray, eta: float) -> RoundResult:
    return _result(state, ids, uploads, _mean(uploads), eta)


def mifa_round(state: ServerState, ids: np.ndarray, uploads: np.ndarray, eta: float) -> RoundResult:
    changes = _write(state, ids, uploads)
    missing = np.flatnonzero(changes["written"] < 0)
    if missing.size:
        raise IntegrityError(f"memorized updates missing for clients {missing.tolist()}")
    return _result(state, ids, uploads, _mean(changes["rows"]), eta, **changes)


def mimic_round(state: ServerState, ids: np.ndarray, uploads: np.ndarray, eta: float) -> RoundResult:
    """Correction-variable aggregation.

    Each participating upload is shifted by that client's stored correction
    (zero until first written), the shifted vectors are averaged into v, and
    afterwards every participant's correction becomes v minus its raw upload.
    The participants' corrections therefore keep the same mean they had
    before the round, and a client absent since round t' contributes exactly
    the correction written at t'.
    """
    v = _mean(uploads + state.rows[ids])
    return _result(state, ids, uploads, v, eta, **_write(state, ids, v - uploads))


def scaffold_round(
    state: ServerState,
    ids: np.ndarray,
    uploads: np.ndarray,
    eta: float,
    variates: np.ndarray | None = None,
) -> RoundResult:
    """Average the control-variate-corrected uploads.

    With persistent variates, `variates` holds the participants' mean raw
    gradients: they become the participants' control variates, and the
    server variate absorbs (1/N) of their change.  None (variates rebuilt
    inside the round from anchors) leaves every variate alone.
    """
    v = _mean(uploads)
    if variates is None:
        return _result(state, ids, uploads, v, eta)
    change = np.cumsum(variates - state.rows[ids], axis=0)[-1]
    return _result(
        state, ids, uploads, v, eta,
        server_variate=state.server_variate + change / state.num_clients,
        **_write(state, ids, variates),
    )


_RULES = {"fedavg": fedavg_round, "fedprox": fedavg_round, "mifa": mifa_round, "mimic": mimic_round}


def _population(state: ServerState, objectives, active) -> tuple[Objective, np.ndarray]:
    population = stack(objectives)
    if population.num_clients != state.num_clients:
        raise ConfigError(
            f"{population.num_clients} objectives for {state.num_clients} clients"
        )
    return population, np.array(sorted(active), dtype=np.int64)


def _rounds(state, population, ids, cfg, eta, rngs, replicas, literal) -> list[RoundResult]:
    """Train every (replica, participant) row in lockstep, then aggregate each replica.

    Every row's batches are drawn in one call before training.  Control
    variates are those of scaffold: persistent ones from the state, or with
    `literal` anchors taken on batch 0 of each row's stream at the broadcast
    point, ahead of its K training batches: client i steps with
    g_i(w_k) - g_i(w_t) + mean_j g_j(w_t).
    """
    rows = np.tile(ids, replicas)
    dim = state.w.shape[0]
    anchored = state.algorithm == "scaffold" and literal
    batches = draw_batches(population.n, rows, cfg.batch_size, rngs, cfg.steps + anchored)
    shift = None
    if anchored:
        anchors = population.batch_grad(np.repeat(state.w[None], len(rows), axis=0), batches[0])
        anchors = anchors.reshape(replicas, len(ids), dim)
        shift = (_mean(anchors)[:, None] - anchors).reshape(len(rows), dim)
        batches = batches[1:]
    elif state.algorithm == "scaffold":
        shift = np.tile(state.server_variate - state.rows[ids], (replicas, 1))
    uploads, grad_means, _ = local_train(population, state.w, batches, cfg, shift)
    per_replica = zip(uploads.reshape(replicas, len(ids), dim),
                      grad_means.reshape(replicas, len(ids), dim))
    if state.algorithm == "scaffold":
        return [scaffold_round(state, ids, up, eta, None if literal else g) for up, g in per_replica]
    return [_RULES[state.algorithm](state, ids, up, eta) for up, _ in per_replica]


def play_round(
    state: ServerState,
    objectives: Objective | list[Objective],
    active: list[int],
    cfg: LocalConfig,
    eta: float,
    rng_for: RngFactory,
    *,
    scaffold_literal: bool = False,
    full_batch: bool = False,
) -> RoundResult:
    """Run one full round: local training on each active client, then aggregate.

    rng_for(i) names client i's batch stream.  An empty active set leaves
    the model untouched (v = 0) and just advances the round counter.
    full_batch swaps every batch draw for the whole client dataset, which is
    how deterministic per-round expectations are replayed; it builds no
    stream at all.
    """
    population, ids = _population(state, objectives, active)
    if not ids.size:
        new = replace(state, w=state.w.copy(), round_index=state.round_index + 1)
        return RoundResult(np.zeros_like(state.w), ids, np.zeros((0, state.w.shape[0])), new)
    rngs = None if full_batch else [rng_for(i) for i in ids.tolist()]
    return _rounds(state, population, ids, cfg, eta, rngs, 1, scaffold_literal)[0]


def replay_round(
    state: ServerState,
    objectives: Objective | list[Objective],
    active: list[int],
    cfg: LocalConfig,
    eta: float,
    rng_for: RngFactory,
    replicas: int,
    *,
    scaffold_literal: bool = False,
) -> np.ndarray:
    """Applied updates (replicas, dim) of independent replays of one nonempty round.

    All replicas train in one lockstep pass from `state`, which is not
    advanced; rng_for(i, r) names replica r's batch stream for client i.
    """
    population, ids = _population(state, objectives, active)
    if not ids.size:
        raise ConfigError("cannot replay an empty round")
    rngs = [rng_for(i, r) for r in range(replicas) for i in ids.tolist()]
    results = _rounds(state, population, ids, cfg, eta, rngs, replicas, scaffold_literal)
    return np.array([res.v for res in results])
