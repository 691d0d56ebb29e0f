"""Per-round measurements: losses, bias and variance probes, metrics files.

Three quantities track how far a round's applied update sits from the ideal
central step at the broadcast model w_t:

* E_t: squared distance between the update the round would apply with all
  batch noise removed and the true global gradient.
* gamma_t: squared distance between the participants' mean gradient and the
  global gradient; pure who-showed-up error.
* phi_hat, update_variance: spread of the applied update across independent
  replays of the same round, batch noise only.

The first two are expected_update_error of the round's expectation and of
the participants' mean against the global gradient of one fused population
pass; objectives.group_sums takes these means as it takes the rule's, so with
fedavg, K = 1 and full batches E_t == gamma_t, and E_t == 0.0 on a full round.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .objectives import Objective

EXPECTED_MODES = ("fullbatch", "mc")


def check_replicas(phi_replays: int, phi_every: int, expected_mode: str,
                   expected_replays: int) -> None:
    """Refuse replica options under which E_t or phi_hat would silently measure nothing."""
    if expected_mode not in EXPECTED_MODES:
        raise ConfigError(f"expected_mode must be one of {EXPECTED_MODES}, got {expected_mode!r}")
    if phi_replays == 1 or phi_replays < 0:
        raise ConfigError(f"phi_replays must be 0 (off) or >= 2, got {phi_replays}")
    if phi_every < 0:
        raise ConfigError(f"phi_every must be >= 0 (0: off), got {phi_every}")
    if expected_mode == "mc" and expected_replays < 1:
        raise ConfigError(f"expected_mode = mc needs expected_replays >= 1, got {expected_replays}")


def expected_update_error(v_expected: np.ndarray, grad: np.ndarray) -> float | np.ndarray:
    """Squared distance between expected updates and global gradients, per (..., dim) row."""
    diff = v_expected - grad
    errors = np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0]  # np.dot's bits
    return errors if errors.ndim else float(errors)


def update_variance(samples: np.ndarray) -> float | np.ndarray:
    """Sample variance of replayed updates, summed over coordinates, per (..., R, dim) stack."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim < 2 or samples.shape[-2] < 2:
        raise ConfigError("need a (..., replays >= 2, dim) sample stack")
    spread = samples.var(axis=-2, ddof=1).sum(axis=-1)
    return spread if spread.ndim else float(spread)


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


def evaluate(test_sets: Objective, W: np.ndarray) -> np.ndarray:
    """Fraction of correct hard predictions of model W[i] on test set i, client i of test_sets."""
    return np.mean(test_sets.predict(W) == test_sets.labels, axis=1)


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
# One record of a run's (seeds, rounds) table: 80 bytes, in the CSV's column order.
METRIC_DTYPE = np.dtype([(c, "i8" if c in _INT_COLUMNS else "f8") for c in METRIC_COLUMNS])


def write_metrics_csv(table: np.ndarray, path: str | Path) -> None:
    """One seed's METRIC_DTYPE records as CSV, one row each: ints bare, floats by repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRIC_COLUMNS)
        for start in range(0, len(table), 1024):  # plain Python ints and floats, a block at a time
            writer.writerows(map(repr, record) for record in table[start:start + 1024].tolist())


def read_metrics_csv(path: str | Path) -> list[RoundMetrics]:
    rows = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != METRIC_COLUMNS:
                raise ValueError(f"expected columns {METRIC_COLUMNS}, got {header}")
            for parts in reader:
                if len(parts) != len(METRIC_COLUMNS):
                    raise ValueError(f"line {reader.line_num} has {len(parts)} cells, not "
                                     f"{len(METRIC_COLUMNS)}")
                rows.append(RoundMetrics(*(int(p) if c in _INT_COLUMNS else float(p)
                                           for c, p in zip(METRIC_COLUMNS, parts))))
    except (OSError, ValueError, csv.Error) as exc:  # unreadable, bad header, cell or row
        raise ConfigError(f"{path}: {exc}") from exc
    return rows


def weighted_participation_bias(etas: np.ndarray, gammas: np.ndarray) -> float:
    """Rate-weighted average of per-round participation bias.

    Rounds with undefined bias (empty rounds, recorded as NaN) are skipped
    along with their weight.
    """
    keep = ~np.isnan(gammas)
    if not keep.any():
        return math.nan
    return float((etas[keep] * gammas[keep]).sum() / etas[keep].sum())
