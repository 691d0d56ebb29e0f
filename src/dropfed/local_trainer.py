"""Client-side training: K steps of mini-batch SGD from the broadcast model.

Training runs in lockstep over rows: the active clients of a round, then
the same clients once per replica of the round.  Each step computes every
row's batch gradient in one batched call on the stacked objective.

RNG rule: every row has its own stream, one per (client, round) or per
(client, round, replica), and takes its batches from it in step order, so a
row's batches never depend on which other rows share the call.  The caller
draws the batches up front with draw_batches, a run's for several rounds
at once: rows named by StreamKeys in one vectorised pass that equals
per-row sample_batch calls, rows given a Generator with sample_batch
itself.  Full-batch rows draw nothing and need no stream.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .objectives import Objective, ParamVector
from .rng import StreamKeys, draw_keyed
from .schedules import check_finite, check_steps


@dataclass(frozen=True)
class LocalConfig:
    """Per-client training knobs shared by every algorithm."""

    steps: int = 1
    lr: float = 0.1
    batch_size: int = 1
    prox_mu: float = 0.0

    def __post_init__(self) -> None:
        check_steps(self.steps)
        check_finite("lr", self.lr)
        check_finite("prox_mu", self.prox_mu)
        if self.lr <= 0:
            raise ConfigError(f"lr must be > 0, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.prox_mu < 0:
            raise ConfigError(f"prox_mu must be >= 0, got {self.prox_mu}")


def sample_batch(rng: np.random.Generator | None, n: int, batch_size: int) -> np.ndarray:
    """Uniform batch without replacement; the full index range when it covers n.

    The full-range case draws nothing from rng, so it takes rng None, and
    deterministic replays do not need a matching generator state.
    """
    if batch_size >= n:
        return np.arange(n)
    return rng.choice(n, size=batch_size, replace=False)


def draw_batches(
    n: int, clients: np.ndarray, batch_size: int,
    sources: StreamKeys | Sequence[np.random.Generator] | None, count: int,
) -> np.ndarray:
    """Flat sample indices (count, rows, b) for rows of clients holding n samples.

    Row s takes its `count` batches in order from sources[s].  Keys are
    drawn for all rows in one pass (rng.draw_keyed); a row that pass cannot
    reproduce, or a Generator, draws with sample_batch.  sources None, or a
    batch that covers n, gives every row the full range: a read-only view
    in which every step shares one (rows, n) array.
    """
    clients = np.asarray(clients)
    if sources is None or batch_size >= n or not len(clients):
        return np.broadcast_to(clients[:, None] * n + np.arange(n), (count, len(clients), n))
    if isinstance(sources, StreamKeys):
        local, exact = draw_keyed(sources, n, batch_size, count)
        for s in np.flatnonzero(~exact):
            rng = sources[s].generator()
            local[s] = [sample_batch(rng, n, batch_size) for _ in range(count)]
        local = local.transpose(1, 0, 2)
    else:
        local = np.array([[sample_batch(rng, n, batch_size) for rng in sources] for _ in range(count)])
    return clients[:, None] * n + local


def local_train(
    objective: Objective, w_start: ParamVector, batches: np.ndarray, cfg: LocalConfig,
    shift: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run K local steps from w_start (rows, dim), one model per row, on every row at once.

    batches (K, rows, b) holds each row's flat sample indices for each step,
    as draw_batches gives them.  A step moves row s by -lr * (g + shift[s] +
    prox_mu * (w - w_start)) with g its batch gradient; shift (scaffold's
    variates) defaults to zero.  Returns uploads, mean raw batch gradients
    and final models, each (rows, dim).  The upload is the mean corrected
    gradient, so w_final = w_start - lr * K * upload when prox_mu = 0; with
    prox_mu > 0 the upload is defined through that identity, keeping the
    server update rule uniform.
    """
    if len(batches) != cfg.steps:
        raise ValueError(f"{len(batches)} batches for {cfg.steps} local steps")
    start = np.asarray(w_start, dtype=np.float64)
    w = start.copy()  # each row's model, trained in place
    grad_sum = np.zeros_like(w)
    step_sum = grad_sum if shift is None else np.zeros_like(w)
    for batch in batches:
        g = objective.batch_grad(w, batch)
        grad_sum += g
        if shift is not None:
            g += shift
            step_sum += g
        if cfg.prox_mu > 0.0:
            g += cfg.prox_mu * (w - start)
        g *= cfg.lr
        w -= g
    grad_mean = grad_sum / cfg.steps
    if cfg.prox_mu > 0.0:
        upload = (start - w) / (cfg.lr * cfg.steps)
    else:
        upload = step_sum / cfg.steps
    return upload, grad_mean, w
