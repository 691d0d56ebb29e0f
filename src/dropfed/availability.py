"""Client availability: who participates at each global iteration.

A schedule is materialized up front as one boolean mask of shape (T, N):
mask[t, i] is True when client i is active at iteration t.  Training,
diagnostics, and exported artifacts all read that one mask, so they see the
identical participation pattern.  Every generator forces full participation
at iteration 0 (static_prob_schedule can switch that off to study cold
starts); later rounds follow the scenario's own law.

A client's staleness is the gap between two of its consecutive
appearances.  A first appearance has no earlier one and adds nothing, so a
cold start needs no special case.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .rng import Seed, generator

_BLOCK_CELLS = 1 << 16


@dataclass
class AvailabilitySchedule:
    """Active clients for iterations 0..T-1 over clients 0..N-1, as a (T, N) mask."""

    mask: np.ndarray

    def __post_init__(self) -> None:
        if self.mask.dtype != np.bool_ or self.mask.ndim != 2:
            raise ConfigError(f"need a 2-D boolean mask, got {self.mask.dtype} {self.mask.shape}")
        if self.num_clients < 1:
            raise ConfigError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")

    @property
    def iterations(self) -> int:
        return self.mask.shape[0]

    @property
    def num_clients(self) -> int:
        return self.mask.shape[1]

    @property
    def active_sets(self) -> tuple[tuple[int, ...], ...]:
        """Each round's active client ids in ascending order, derived from the mask."""
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.mask)

    def sizes(self) -> np.ndarray:
        return np.count_nonzero(self.mask, axis=1)

    def max_staleness(self) -> int:
        """Largest gap between consecutive appearances of one client; 0 if none.

        Clients are taken in blocks of about _BLOCK_CELLS mask cells, so the
        pass never holds an array with one element per schedule entry.
        """
        worst, width = 0, max(1, _BLOCK_CELLS // self.iterations)
        for c in range(0, self.num_clients, width):
            block = self.mask[:, c : c + width]
            seen = np.flatnonzero(block.T)  # client * T + round, by client then round
            gaps = np.diff(seen)
            # The step into a client's first appearance comes from another client.
            firsts = np.searchsorted(seen, np.arange(1, block.shape[1]) * self.iterations)
            gaps[firsts[(firsts > 0) & (firsts < seen.size)] - 1] = 0
            worst = max(worst, int(gaps.max(initial=0)))
        return worst

    def to_text(self) -> str:
        """One line per iteration, comma-separated active client ids."""
        return "\n".join(",".join(str(i) for i in ids) for ids in self.active_sets) + "\n"

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_text())


def periodic_schedule(periods: np.ndarray | list[int], iterations: int) -> AvailabilitySchedule:
    """Client i participates exactly when t is a multiple of periods[i]."""
    periods = np.asarray(periods, dtype=np.int64)
    if np.any(periods < 1):
        raise ConfigError(f"periods must be >= 1, got {periods.tolist()}")
    distinct, column = np.unique(periods, return_inverse=True)
    mask = (np.arange(iterations)[:, None] % distinct == 0)[:, column]
    return AvailabilitySchedule(mask)


def check_tau_max(tau_max: int) -> None:
    if tau_max < 1:
        raise ConfigError(f"tau_max must be >= 1, got {tau_max}")


def check_prob(prob: float) -> None:
    if not 0.0 < prob <= 1.0:
        raise ConfigError(f"prob must be in (0, 1], got {prob}")


def weighted_count(ratio: float, num_clients: int) -> int:
    """Clients per round of a weighted schedule; ConfigError unless 1..num_clients."""
    count = int(round(ratio * num_clients))
    if not 1 <= count <= num_clients:
        raise ConfigError(
            f"ratio {ratio} selects {count} of {num_clients} clients; need 1..{num_clients}"
        )
    return count


def round_robin_schedule(
    num_clients: int, iterations: int, tau_max: int, seed: Seed
) -> AvailabilitySchedule:
    """Each client wakes on its own fixed period drawn from {1, ..., tau_max}.

    Periods come from max(1, u) with u uniform on {0, ..., tau_max}, so the
    gap between a client's consecutive appearances never exceeds tau_max.
    """
    check_tau_max(tau_max)
    draws = generator(seed).integers(0, tau_max + 1, size=num_clients)
    return periodic_schedule(np.maximum(1, draws), iterations)


def static_prob_schedule(
    num_clients: int, iterations: int, prob: float, seed: Seed, force_full_start: bool = True
) -> AvailabilitySchedule:
    """Independent coin flips: each client joins each round with probability prob.

    Rounds may be empty.  force_full_start keeps the conventional full round
    at t = 0; switch it off to study cold starts.  The flips of all drawn
    rounds come from one call, row by row, so they are the doubles a
    per-round draw of N would take, in the same order.
    """
    check_prob(prob)
    first = 1 if force_full_start else 0
    mask = np.ones((iterations, num_clients), dtype=bool)
    mask[first:] = generator(seed).random((max(iterations - first, 0), num_clients)) <= prob
    return AvailabilitySchedule(mask)


def weighted_sample_schedule(
    num_clients: int, iterations: int, ratio: float, seed: Seed
) -> AvailabilitySchedule:
    """Exactly round(ratio * N) clients per round, picked by random weights.

    Each round draws fresh weights uniform on [1, 10] and selects without
    replacement: one sequential draw proportional to the remaining weights,
    renormalizing after each pick.  A round's draws interleave with the
    next round's weights, so rounds are drawn one at a time.
    """
    count = weighted_count(ratio, num_clients)
    rng = generator(seed)
    mask = np.zeros((iterations, num_clients), dtype=bool)
    mask[:1] = True
    for row in mask[1:]:
        weights = rng.uniform(1.0, 10.0, size=num_clients)
        remaining = list(range(num_clients))
        for u in rng.random(count):
            edges = np.cumsum(weights[remaining])
            j = int(np.searchsorted(edges, u * edges[-1], side="right"))
            row[remaining.pop(min(j, len(remaining) - 1))] = True
    return AvailabilitySchedule(mask)
