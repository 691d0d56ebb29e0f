"""Per-round measurements: losses, bias and variance probes, metrics files.

Three quantities track how far a round's applied update sits from the ideal
central step at the broadcast model w_t:

* expected_update_error: squared distance between the update the round would
  apply with all batch noise removed and the true global gradient.
* participation_bias: squared distance between the participants' mean
  gradient and the global gradient; pure who-showed-up error.
* update_variance: spread of the applied update across independent replays
  of the same round, batch noise only.

The first two read the per-client gradients of one fused population pass
(Objective.losses_and_grads), which also gives the round's loss.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .objectives import Objective


def expected_update_error(v_expected: np.ndarray, grad: np.ndarray) -> float:
    """Squared distance between an expected update and the global gradient."""
    diff = v_expected - grad
    return float(np.dot(diff, diff))


def participation_bias(client_grads: np.ndarray, active: list[int]) -> float:
    """Squared distance between the participants' mean gradient and the global one.

    client_grads holds every client's full gradient, (N, dim), from one
    population pass.
    """
    if not len(active):
        raise ConfigError("participation bias is undefined for an empty round")
    part = np.mean(client_grads[sorted(active)], axis=0)
    return expected_update_error(part, np.mean(client_grads, axis=0))


def update_variance(samples: np.ndarray) -> float:
    """Sample variance of replayed updates, summed over coordinates."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ConfigError("need a (replays >= 2, dim) sample matrix")
    return float(samples.var(axis=0, ddof=1).sum())


def update_variance_stderr(samples: np.ndarray) -> float:
    """Standard error of update_variance, from fourth moments per coordinate.

    Var(s^2) = (1/R) (m4 - s^4 (R-3)/(R-1)) per coordinate; coordinates are
    summed as if independent, which is what the replay noise is here.
    """
    samples = np.asarray(samples, dtype=np.float64)
    r = samples.shape[0]
    if r < 4:
        raise ConfigError("need at least 4 replays for a variance error bar")
    centered = samples - samples.mean(axis=0)
    m4 = np.mean(centered**4, axis=0)
    s2 = samples.var(axis=0, ddof=1)
    per_coord = (m4 - s2 * s2 * (r - 3) / (r - 1)) / r
    return float(np.sqrt(np.sum(np.clip(per_coord, 0.0, None))))


def evaluate(test_sets: Objective, W: np.ndarray) -> np.ndarray | None:
    """Fraction of correct hard predictions of model W[i] on test set i, client i of test_sets.

    None for regression objectives.
    """
    pred = test_sets.predict(W)
    if pred is None:
        return None
    return np.mean(pred == test_sets.labels, axis=1)


@dataclass
class RoundMetrics:
    """One CSV row; field order is the file's column order."""

    t: int
    loss: float
    grad_norm2: float
    E_t: float
    gamma_t: float
    phi_hat: float
    n_active: int
    uploads: int
    acc: float
    eta_t: float


METRIC_COLUMNS = tuple(f.name for f in fields(RoundMetrics))
_INT_COLUMNS = ("t", "n_active", "uploads")


def _fmt(name: str, value) -> str:
    if name in _INT_COLUMNS:
        return str(int(value))
    return repr(float(value))


def write_metrics_csv(rows: list[RoundMetrics], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(c, getattr(row, c)) for c in METRIC_COLUMNS])


def read_metrics_csv(path: str | Path) -> list[RoundMetrics]:
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != METRIC_COLUMNS:
                raise ValueError(f"expected columns {METRIC_COLUMNS}, got {header}")
            for parts in reader:
                rows.append(RoundMetrics(*(int(p) if c in _INT_COLUMNS else float(p)
                                           for c, p in zip(METRIC_COLUMNS, parts))))
    except (OSError, ValueError, TypeError) as exc:  # unreadable, bad header or cell, short row
        raise ConfigError(f"{path}: {exc}") from exc
    return rows


def weighted_participation_bias(etas: np.ndarray, gammas: np.ndarray) -> float:
    """Rate-weighted average of per-round participation bias.

    Rounds with undefined bias (empty rounds, recorded as NaN) are skipped
    along with their weight.
    """
    etas = np.asarray(etas, dtype=np.float64)
    gammas = np.asarray(gammas, dtype=np.float64)
    keep = ~np.isnan(gammas)
    if not keep.any():
        return math.nan
    return float((etas[keep] * gammas[keep]).sum() / etas[keep].sum())
