"""Client-side training: K steps of mini-batch SGD from the broadcast model.

Training runs in lockstep over rows: the active clients of a round, or the
active clients times the replicas of a replayed round.  Each step computes
every row's batch gradient in one batched call on the stacked objective.

RNG rule: every row has its own stream, one per (client, round) or per
(client, round, replica).  A row draws its batches from that stream with
sample_batch, in step order, and the draws are gathered afterwards, so a
row's batches never depend on which other rows share the call.  Full-batch
rows draw nothing and need no stream.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .objectives import Objective, ParamVector


@dataclass(frozen=True)
class LocalConfig:
    """Per-client training knobs shared by every algorithm."""

    steps: int = 1
    lr: float = 0.1
    batch_size: int = 1
    prox_mu: float = 0.0

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.prox_mu < 0:
            raise ConfigError(f"prox_mu must be >= 0, got {self.prox_mu}")


def sample_batch(rng: np.random.Generator, n: int, batch_size: int) -> np.ndarray:
    """Uniform batch without replacement; the full index range when it covers n.

    The full-batch case draws nothing from rng, so deterministic replays do
    not need a matching generator state.
    """
    if batch_size > n:
        warnings.warn(f"batch_size {batch_size} exceeds dataset size {n}; clamping")
    if batch_size >= n:
        return np.arange(n)
    return rng.choice(n, size=batch_size, replace=False)


def draw_batches(
    n: int,
    clients: np.ndarray,
    batch_size: int,
    rngs: Sequence[np.random.Generator] | None,
    count: int,
) -> np.ndarray:
    """Flat sample indices (count, rows, b) for rows of clients holding n samples.

    Row s takes its `count` batches in order from rngs[s]; rngs None gives
    every row the full batch and draws nothing.
    """
    if rngs is None:
        local = np.broadcast_to(np.arange(n), (count, len(clients), n))
    else:
        local = np.array([[sample_batch(rng, n, batch_size) for rng in rngs] for _ in range(count)])
    return np.asarray(clients)[:, None] * n + local


def local_train(
    objective: Objective,
    w_start: ParamVector,
    clients: np.ndarray,
    cfg: LocalConfig,
    rngs: Sequence[np.random.Generator] | None,
    shift: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run K local steps from w_start on every row at once.

    Row s trains client clients[s] on batches from rngs[s] (None: full
    batch).  A step moves it by -lr * (g + shift[s] + prox_mu * (w - w_start))
    with g its batch gradient; shift (scaffold's variates) defaults to zero.
    Returns uploads, mean raw batch gradients and final models, each (rows,
    dim).  The upload is the mean corrected gradient, so w_final = w_start -
    lr * K * upload when prox_mu = 0; with prox_mu > 0 the upload is defined
    through that identity, keeping the server update rule uniform.
    """
    L = objective.smoothness
    if L > 0 and cfg.lr > 1.0 / (10.0 * L):
        # Identical message on purpose: the default warning filter then
        # reports it once per process instead of once per round.
        warnings.warn("local lr exceeds 1/(10 L); small-step analysis does not apply")
    batches = draw_batches(objective.n, clients, cfg.batch_size, rngs, cfg.steps)
    start = np.repeat(np.asarray(w_start, dtype=np.float64)[None], len(clients), axis=0)
    w = start
    grad_sum = np.zeros_like(w)
    step_sum = grad_sum if shift is None else np.zeros_like(w)
    for batch in batches:
        g = objective.batch_grad(w, batch)
        grad_sum += g
        if shift is not None:
            g = g + shift
            step_sum += g
        if cfg.prox_mu > 0.0:
            w = w - cfg.lr * (g + cfg.prox_mu * (w - start))
        else:
            w = w - cfg.lr * g
    grad_mean = grad_sum / cfg.steps
    if cfg.prox_mu > 0.0:
        upload = (start - w) / (cfg.lr * cfg.steps)
    else:
        upload = step_sum / cfg.steps
    return upload, grad_mean, w
