"""Client availability: who participates at each global iteration.

A schedule is a boolean mask of shape (T, N): mask[t, i] is True when client
i is active at iteration t.  Training, diagnostics, and exported artifacts
all read it one way, a window of rounds at a time (rounds(t0, t1) gives rows
t0 to min(t1, T) - 1), so they see the identical participation pattern.  A
random schedule is drawn into its mask up front.  A periodic one (round
robin) is held as its N periods and T, which give its round sizes and worst
staleness; it computes each window's rows when asked and keeps no mask.
Every schedule counts its round sizes as it is made and hands out that one
read-only array.

Every generator forces full participation at iteration 0
(static_prob_schedule can switch that off to study cold starts); later
rounds follow the scenario's own law.

A client's staleness is the gap between two of its consecutive
appearances.  A first appearance has no earlier one and adds nothing, so a
cold start needs no special case.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import ConfigError
from .rng import Seed, generator

_BLOCK_CELLS = 1 << 16


class AvailabilitySchedule:
    """Active clients for iterations 0..T-1 over clients 0..N-1, as a (T, N) mask."""

    def __init__(self, mask: np.ndarray) -> None:
        if mask.dtype != np.bool_ or mask.ndim != 2:
            raise ConfigError(f"need a 2-D boolean mask, got {mask.dtype} {mask.shape}")
        self._set_shape(*mask.shape)
        self._mask, self._sizes = mask, np.count_nonzero(mask, axis=1)
        self._sizes.flags.writeable = False

    def _set_shape(self, iterations: int, num_clients: int) -> None:
        if num_clients < 1:
            raise ConfigError(f"num_clients must be >= 1, got {num_clients}")
        if iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {iterations}")
        self.iterations, self.num_clients = iterations, num_clients

    def rounds(self, t0: int, t1: int) -> np.ndarray:
        """Rows t0..min(t1, T)-1 of the mask, (min(t1, T) - t0, N)."""
        return self._mask[t0:t1]

    @property
    def active_sets(self) -> tuple[tuple[int, ...], ...]:
        """Each round's active client ids in ascending order, derived from the mask."""
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.rounds(0, self.iterations))

    def sizes(self) -> np.ndarray:
        """Active clients of each round (int64), counted as the schedule was made; read-only."""
        return self._sizes

    def max_staleness(self) -> int:
        """Largest gap between consecutive appearances of one client; 0 if none.

        Clients are taken in blocks of about _BLOCK_CELLS mask cells, so the
        pass never holds an array with one element per schedule entry.
        """
        worst, width = 0, max(1, _BLOCK_CELLS // self.iterations)
        for c in range(0, self.num_clients, width):
            block = self._mask[:, c : c + width]
            seen = np.flatnonzero(block.T)  # client * T + round, by client then round
            gaps = np.diff(seen)
            # The step into a client's first appearance comes from another client.
            firsts = np.searchsorted(seen, np.arange(1, block.shape[1]) * self.iterations)
            gaps[firsts[(firsts > 0) & (firsts < seen.size)] - 1] = 0
            worst = max(worst, int(gaps.max(initial=0)))
        return worst

    def lines(self) -> Iterator[str]:
        """One line per iteration, comma-separated active client ids, made a window at a time."""
        step = max(1, _BLOCK_CELLS // self.num_clients)  # rounds of about _BLOCK_CELLS cells
        for t0 in range(0, self.iterations, step):
            yield from (",".join(map(str, np.flatnonzero(row).tolist())) + "\n"
                        for row in self.rounds(t0, t0 + step))


class PeriodicSchedule(AvailabilitySchedule):
    """Client i is active exactly when t is a multiple of periods[i], held as periods and T.

    Client i appears at t = 0, periods[i], 2 periods[i], ..., so its gaps all
    equal its period when that is below T; a longer period shows it at t = 0
    alone.  Each distinct period adds its clients to the sizes of its multiples.
    """

    def __init__(self, periods: np.ndarray, iterations: int) -> None:
        if np.any(periods < 1):
            raise ConfigError(f"periods must be >= 1, got {periods.tolist()}")
        self._distinct, self._column = np.unique(periods, return_inverse=True)
        self._set_shape(iterations, len(self._column))
        self._sizes = np.zeros(iterations, dtype=np.int64)
        for period, clients in zip(self._distinct.tolist(), np.bincount(self._column).tolist()):
            self._sizes[::period] += clients
        self._sizes.flags.writeable = False

    def rounds(self, t0: int, t1: int) -> np.ndarray:
        on = np.arange(t0, min(t1, self.iterations))[:, None] % self._distinct == 0
        return on[:, self._column]

    def max_staleness(self) -> int:
        return int(self._distinct[self._distinct < self.iterations].max(initial=0))


def periodic_schedule(periods: np.ndarray | list[int], iterations: int) -> AvailabilitySchedule:
    """Client i participates exactly when t is a multiple of periods[i]."""
    return PeriodicSchedule(np.asarray(periods, dtype=np.int64), iterations)


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
    rounds come from one Generator, row by row, in blocks of whole rounds
    of about _BLOCK_CELLS doubles each, so they are the doubles a per-round
    draw of N would take, in the same order, and no float array as large as
    the mask is ever held.
    """
    check_prob(prob)
    mask = np.ones((iterations, num_clients), dtype=bool)
    rng, rows = generator(seed), max(1, _BLOCK_CELLS // max(num_clients, 1))
    for t in range(1 if force_full_start else 0, iterations, rows):
        block = mask[t : t + rows]
        np.less_equal(rng.random(block.shape), prob, out=block)
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
