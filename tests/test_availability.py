"""Availability schedules: hand-checked patterns, staleness, text, and properties."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dropfed import availability
from dropfed.availability import (
    AvailabilitySchedule,
    PeriodicSchedule,
    periodic_schedule,
    round_robin_schedule,
    static_prob_schedule,
    weighted_sample_schedule,
)
from dropfed.errors import ConfigError
from dropfed.rng import AVAILABILITY, generator, seed_for


def test_periodic_two_client_pattern():
    # periods [1, 2]: client 0 every round, client 1 on even rounds.
    sched = periodic_schedule([1, 2], 5)
    assert sched.active_sets == ((0, 1), (0,), (0, 1), (0,), (0, 1))
    np.testing.assert_array_equal(sched.sizes(), [2, 1, 2, 1, 2])
    assert sched.iterations == 5
    assert sched.num_clients == 2


def test_periodic_staleness_hand_values():
    # periods [1, 3]: client 1 is active at t = 0, 3, 6, client 0 every round.
    assert periodic_schedule([1, 3], 7).max_staleness() == 3
    # periods [2, 5]: gaps are 2 for client 0 and 5 for client 1 (t = 0, 5, 10).
    assert periodic_schedule([2, 5], 12).max_staleness() == 5
    # Before client 1 reappears, only client 0's gaps count.
    assert periodic_schedule([2, 5], 5).max_staleness() == 2
    assert periodic_schedule([1, 3], 1).max_staleness() == 0


def test_first_appearance_adds_no_staleness():
    # Client 1 first appears at t = 2 and again at t = 5: one gap of 3.
    # Its first appearance is no gap; client 0's gaps are 1.
    mask = np.zeros((6, 2), dtype=bool)
    mask[:, 0] = True
    mask[[2, 5], 1] = True
    assert AvailabilitySchedule(mask).max_staleness() == 3
    mask[5, 1] = False
    assert AvailabilitySchedule(mask).max_staleness() == 1
    assert AvailabilitySchedule(np.zeros((4, 3), dtype=bool)).max_staleness() == 0


def test_schedule_validation():
    with pytest.raises(ConfigError):
        AvailabilitySchedule(np.zeros((1, 0), dtype=bool))
    with pytest.raises(ConfigError):
        AvailabilitySchedule(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ConfigError):
        AvailabilitySchedule(np.zeros(3, dtype=bool))
    with pytest.raises(ConfigError):
        periodic_schedule([], 4)
    with pytest.raises(ConfigError):
        periodic_schedule([1, 0], 4)
    # No rounds: refused as it is made, not at max_staleness, which divides by them.
    with pytest.raises(ConfigError, match="iterations must be >= 1, got 0"):
        periodic_schedule([1, 2], 0)


def test_schedule_sorts_ids():
    sched = AvailabilitySchedule(np.array([[True, False, True, True], [False] * 4]))
    assert sched.active_sets == ((0, 2, 3), ())
    assert sched.num_clients == 4
    assert sched.iterations == 2


def test_round_robin_respects_tau_max():
    for tau in (1, 3, 5, 20):
        sched = round_robin_schedule(12, 200, tau, seed_for(1, AVAILABILITY))
        assert sched.max_staleness() <= tau
        # Round 0 is full: every period divides 0.
        assert sched.active_sets[0] == tuple(range(12))
    with pytest.raises(ConfigError):
        round_robin_schedule(3, 10, 0, seed_for(1, AVAILABILITY))


def test_round_robin_deterministic():
    a = round_robin_schedule(8, 50, 6, seed_for(2, AVAILABILITY))
    b = round_robin_schedule(8, 50, 6, seed_for(2, AVAILABILITY))
    assert a.active_sets == b.active_sets


def test_static_prob_full_start_and_frequency():
    n, t_total, p = 10, 2000, 0.3
    sched = static_prob_schedule(n, t_total, p, seed_for(3, AVAILABILITY))
    assert sched.active_sets[0] == tuple(range(n))
    # Per-client frequency over rounds 1..T-1 stays within 3 binomial sigmas.
    trials = t_total - 1
    margin = 3 * np.sqrt(p * (1 - p) / trials)
    for i in range(n):
        freq = sum(i in s for s in sched.active_sets[1:]) / trials
        assert abs(freq - p) <= margin


def test_static_prob_prob_one_and_cold_start():
    sched = static_prob_schedule(4, 6, 1.0, seed_for(4, AVAILABILITY))
    assert all(s == (0, 1, 2, 3) for s in sched.active_sets)
    cold = static_prob_schedule(4, 200, 0.5, seed_for(4, AVAILABILITY), force_full_start=False)
    assert cold.active_sets[0] != (0, 1, 2, 3) or len(cold.active_sets[0]) == 4
    # With the forced start disabled the first round is just another flip.
    flips = [len(s) for s in cold.active_sets]
    assert min(flips) < 4
    with pytest.raises(ConfigError):
        static_prob_schedule(4, 10, 0.0, seed_for(4, AVAILABILITY))
    with pytest.raises(ConfigError):
        static_prob_schedule(4, 10, 1.5, seed_for(4, AVAILABILITY))


def test_weighted_sample_exact_count():
    n = 10
    sched = weighted_sample_schedule(n, 300, 0.3, seed_for(5, AVAILABILITY))
    sizes = sched.sizes()
    assert sizes[0] == n  # forced full start
    assert all(sizes[1:] == 3)
    # No duplicates within a round (guaranteed by construction, checked anyway).
    for s in sched.active_sets:
        assert len(set(s)) == len(s)


def test_weighted_sample_rounding_and_validation():
    sched = weighted_sample_schedule(10, 5, 0.55, seed_for(6, AVAILABILITY))
    assert all(len(s) == 6 for s in sched.active_sets[1:])  # round(5.5) = 6
    with pytest.raises(ConfigError):
        weighted_sample_schedule(10, 5, 0.01, seed_for(6, AVAILABILITY))
    with pytest.raises(ConfigError):
        weighted_sample_schedule(10, 5, 1.2, seed_for(6, AVAILABILITY))


def test_weighted_sample_covers_all_clients_eventually():
    sched = weighted_sample_schedule(6, 400, 0.5, seed_for(7, AVAILABILITY))
    seen = set()
    for s in sched.active_sets:
        seen.update(s)
    assert seen == set(range(6))
    assert sched.max_staleness() >= 1


def test_sizes_are_counted_once_and_read_only():
    for sched in (periodic_schedule([1, 2], 5), AvailabilitySchedule(np.eye(3, dtype=bool))):
        sizes = sched.sizes()
        assert sizes.dtype == np.int64
        assert sched.sizes() is sizes
        with pytest.raises(ValueError):
            sizes[0] = 7


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    iters=st.integers(min_value=1, max_value=200),
    data=st.data(),
)
def test_periodic_schedule_equals_its_mask(n, iters, data):
    # Periods up to T + 3, so that some clients appear at t = 0 alone.
    periods = data.draw(st.lists(st.integers(1, iters + 3), min_size=n, max_size=n))
    # Sizes and staleness come from the periods, with no round read.
    with mock.patch.object(PeriodicSchedule, "rounds", side_effect=AssertionError("read")):
        sched = periodic_schedule(periods, iters)
        sizes, staleness = sched.sizes(), sched.max_staleness()
    want = AvailabilitySchedule(sched.rounds(0, iters))
    for _ in range(3):
        # Windows that run past T end at T, as the mask's slice does.
        t0 = data.draw(st.integers(0, iters))
        t1 = data.draw(st.integers(t0, iters + 5))
        rows = sched.rounds(t0, t1)
        assert rows.shape == (min(t1, iters) - t0, n)
        np.testing.assert_array_equal(rows, want.rounds(t0, t1))
    np.testing.assert_array_equal(sizes, want.sizes())
    assert sizes.dtype == want.sizes().dtype
    assert staleness == want.max_staleness() == _max_gap_reference(sched.rounds(0, iters))
    assert sched.active_sets == want.active_sets
    assert list(sched.lines()) == list(want.lines())  # T lines, though a window runs past T
    assert (sched.iterations, sched.num_clients) == (want.iterations, want.num_clients)


def test_text_including_empty_rounds():
    mask = np.array([[1, 1, 1], [0, 0, 0], [0, 1, 0], [1, 0, 1]], dtype=bool)
    assert "".join(AvailabilitySchedule(mask).lines()) == "0,1,2\n\n1\n0,2\n"


def test_text_memory_stays_near_the_text():
    # 40 clients x 50,000 rounds at prob 0.5: about 2.6 MB of text, made
    # from the mask's rows with no tuple of ids kept for every round.
    sched = static_prob_schedule(40, 50_000, 0.5, 3)
    tracemalloc.start()
    try:
        text = "".join(sched.lines())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text.count("\n") == 50_000
    assert peak < 4 * len(text)


def _max_gap_reference(mask: np.ndarray) -> int:
    """Per-client walk: the largest gap between consecutive appearances."""
    worst = 0
    for i in range(mask.shape[1]):
        last = None
        for t in range(mask.shape[0]):
            if mask[t, i]:
                if last is not None:
                    worst = max(worst, t - last)
                last = t
    return worst


def _static_reference(n, iters, prob, seed, force_full_start) -> np.ndarray:
    """Reference for the one-call draw: one rng.random(n) per drawn round."""
    rng = generator(seed)
    rows = np.ones((iters, n), dtype=bool)
    for t in range(iters):
        if not (t == 0 and force_full_start):
            rows[t] = rng.random(n) <= prob
    return rows


def _weighted_reference(n, iters, ratio, seed) -> list[tuple[int, ...]]:
    """Reference for the per-round draw of picks: one scalar rng.random() per pick."""
    count = int(round(ratio * n))
    rng = generator(seed)
    sets = [tuple(range(n))]
    for _ in range(1, iters):
        weights = rng.uniform(1.0, 10.0, size=n)
        remaining = list(range(n))
        picked = []
        for _ in range(count):
            edges = np.cumsum(weights[remaining])
            j = int(np.searchsorted(edges, rng.random() * edges[-1], side="right"))
            picked.append(remaining.pop(min(j, len(remaining) - 1)))
        sets.append(tuple(sorted(picked)))
    return sets[:iters]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    iters=st.integers(min_value=1, max_value=60),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_max_staleness_matches_per_client_walk(n, iters, density, seed):
    mask = generator(seed).random((iters, n)) < density
    sched = AvailabilitySchedule(mask)
    assert sched.max_staleness() == _max_gap_reference(mask)
    np.testing.assert_array_equal(sched.sizes(), mask.sum(axis=1))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=1000),
    tau=st.integers(min_value=1, max_value=20),
    iters=st.integers(min_value=1, max_value=1000),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_round_robin_staleness_property(n, tau, iters, seed):
    # Up to the audit_scale benchmark's 1000 clients x 1000 rounds.
    sched = round_robin_schedule(n, iters, tau, seed)
    assert sched.max_staleness() <= tau
    mask = sched.rounds(0, iters)
    assert mask[0].all()
    np.testing.assert_array_equal(sched.sizes(), mask.sum(axis=1))
    if n * iters <= 2000:
        assert sched.max_staleness() == _max_gap_reference(mask)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=200),
    iters=st.integers(min_value=1, max_value=200),
    prob=st.floats(min_value=0.01, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    force_full_start=st.booleans(),
    cells=st.integers(min_value=1, max_value=3000),
)
def test_static_mask_matches_per_round_draws(n, iters, prob, seed, force_full_start, cells):
    # Up to twice the logistic_wide benchmark's 100 clients x 20 rounds each
    # way, drawn in blocks of one round up to all of them.
    with mock.patch.object(availability, "_BLOCK_CELLS", cells):
        sched = static_prob_schedule(n, iters, prob, seed, force_full_start)
    want = _static_reference(n, iters, prob, seed, force_full_start)
    np.testing.assert_array_equal(sched.rounds(0, iters), want)
    np.testing.assert_array_equal(sched.sizes(), want.sum(axis=1))


def test_static_draw_memory_stays_near_the_mask():
    # 1000 clients x 2000 rounds: a 2 MB mask, whose doubles drawn at once
    # would take 16 MB.
    tracemalloc.start()
    try:
        sched = static_prob_schedule(1000, 2000, 0.3, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * sched.rounds(0, 2000).nbytes


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=30),
    iters=st.integers(min_value=1, max_value=30),
    ratio=st.floats(min_value=0.05, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_weighted_mask_matches_per_pick_draws(n, iters, ratio, seed):
    assume(1 <= int(round(ratio * n)) <= n)
    sched = weighted_sample_schedule(n, iters, ratio, seed)
    assert sched.active_sets == tuple(_weighted_reference(n, iters, ratio, seed))
    np.testing.assert_array_equal(sched.sizes(), sched.rounds(0, iters).sum(axis=1))


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=12),
    iters=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_weighted_sample_size_property(n, iters, seed):
    sched = weighted_sample_schedule(n, iters, 0.5, seed)
    want = int(round(0.5 * n))
    for t, s in enumerate(sched.active_sets):
        if t == 0:
            assert len(s) == n
        else:
            assert len(s) == want


def _one_pass_max_staleness(mask):
    """The single-pass form over the whole mask, which holds every entry's position."""
    seen = np.flatnonzero(mask.T)
    gaps = np.diff(seen)
    firsts = np.searchsorted(seen, np.arange(1, mask.shape[1]) * mask.shape[0])
    gaps[firsts[(firsts > 0) & (firsts < seen.size)] - 1] = 0
    return int(gaps.max(initial=0))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    iters=st.integers(min_value=1, max_value=40),
    density=st.floats(min_value=0.0, max_value=1.0),
    empty=st.integers(min_value=0, max_value=30),
    cold=st.booleans(),
    cells=st.integers(min_value=1, max_value=1300),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_blocked_staleness_equals_one_pass(n, iters, density, empty, cold, cells, seed):
    # Blocks of any width, clients that never appear, and rounds 0 that
    # are not full (cold starts).
    rng = generator(seed)
    mask = rng.random((iters, n)) < density
    mask[:, rng.permutation(n)[: empty % (n + 1)]] = False
    mask[0] = mask[0] & cold
    with mock.patch.object(availability, "_BLOCK_CELLS", cells):
        assert AvailabilitySchedule(mask).max_staleness() == _one_pass_max_staleness(mask)


def test_staleness_memory_stays_below_the_mask():
    # 1000 clients x 20000 rounds: a 20 MB mask with 7.26 M entries, whose
    # int64 positions alone would take 58 MB.  The round-robin mask is taken
    # as a plain mask, so that the blocked scan runs, not the periods' max.
    sched = AvailabilitySchedule(round_robin_schedule(1000, 20000, 10, 3).rounds(0, 20000))
    tracemalloc.start()
    try:
        staleness = sched.max_staleness()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert staleness == 10
    assert peak < sched.rounds(0, 20000).nbytes
