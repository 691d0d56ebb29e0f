"""Experiment orchestration: the lockstep trial loop over a run's seeds.

A run builds a synthetic task, deals it to clients and draws availability
schedules.  Each round play_round trains on batches draw_rounds drew ahead,
and measure records every seed's loss, gradients and accuracy.  Every draw
comes from a stream keyed by (master seed, purpose, indices), so runs are
bit-reproducible and replays disturb no training draw.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as streams
from .aggregation import init_state, play_round
from .availability import (
    AvailabilitySchedule,
    round_robin_schedule,
    static_prob_schedule,
    weighted_sample_schedule,
)
from .config import ExperimentConfig
from .data import make_synthetic_classification, partition_shards
from .diagnostics import (
    METRIC_DTYPE,
    RoundMetrics,
    check_replicas,
    evaluate,
    expected_update_error,
    update_variance,
    weighted_participation_bias,
    write_metrics_csv,
)
from .errors import ConfigError
from .local_trainer import LocalConfig, draw_batches
from .objectives import (
    ClientDataset,
    Objective,
    global_optimum,
    group_means,
    make_objective,
    stack,
)
from .schedules import (
    ConditionReport,
    LrSchedule,
    check_conditions,
    constant_rates,
    exponential_rates,
    inverse_time_rates,
)
from .summary import render_summary

OUTPUT_ROOT_ENV = "DROPFED_OUT"
log = logging.getLogger(__name__)

# Bytes one draw of batches holds at its peak.  A row holds about 576 bytes
# of keys and owners, and 18 for each of its steps * (2 b - 1) bounded draws
# (tracemalloc: 421-554 bytes at b = 1 and 1 step, 979 at b = 4 and 5 steps).
DRAW_CHUNK_BYTES = 1 << 22


@dataclass
class TrialOutput:
    """One seed's output: its executed rounds, a view of its run's table, and end-of-run scalars."""

    seed: int
    table: np.ndarray
    final_w: np.ndarray
    failed: bool = False
    failure_round: int = -1
    final_loss: float = math.nan
    final_grad_norm2: float = math.nan
    min_grad_norm2: float = math.nan
    final_acc: float = math.nan
    rate_mass: float = math.nan
    weighted_bias: float = math.nan
    initial_gap: float = math.nan
    optimum_distance: float = math.nan
    uploads_total: int = 0
    max_staleness: int = 0
    conditions: ConditionReport | None = None

    @property
    def rows(self) -> list[RoundMetrics]:  # of plain Python values, built on each read
        return [RoundMetrics(*record) for record in self.table.tolist()]


@dataclass
class SeedTask:
    """One seed's inputs: its clients, schedule, step sizes, first model and test set."""

    seed: int
    population: Objective
    schedule: AvailabilitySchedule
    rates: LrSchedule
    w0: np.ndarray
    test_data: ClientDataset | None = None


def run_trial(
    objectives: Objective | list[Objective], schedule: AvailabilitySchedule, rates: LrSchedule,
    algorithm: str, local_cfg: LocalConfig, w0: np.ndarray, master_seed: int, *,
    test_data: ClientDataset | None = None, **options,
) -> TrialOutput:
    """Run one seed end to end: run_trials on that seed alone, with its keyword options."""
    task = SeedTask(master_seed, stack(objectives), schedule, rates, w0, test_data)
    return run_trials([task], algorithm, local_cfg, **options)[0]


# A diverging model overflows on its way to the non-finite values that the
# loop's isfinite check records as the failure; those overflows are expected.
@np.errstate(over="ignore", invalid="ignore")
def run_trials(
    tasks: list[SeedTask], algorithm: str, local_cfg: LocalConfig, *, phi_replays: int = 0,
    phi_every: int = 0, expected_mode: str = "fullbatch", expected_replays: int = 64,
    scaffold_literal: bool = False, audit_nu: float = 0.01,
) -> list[TrialOutput]:
    """Run every seed's trial in one lockstep pass and measure every round.

    The seeds share N, T and the client data shape (a schedule of another
    shape is a ConfigError), and either all have a test set of one size or
    none has.  Before round 0, settle_seeds stacks their clients once into
    one population and gives each seed's L, worst staleness and audit, and
    the loop each seed's optimum, so an audit that cannot be computed stops
    the run before any training.
    Each round is drawn ahead, played, measured and recorded: draw_rounds
    draws the rows and batches of whole rounds, DRAW_CHUNK_BYTES a draw;
    play_round trains every seed's participants and replicas in one pass
    over that stack, the fullbatch expectation as the last copy; measure
    takes every seed's model through one population pass and one pass over
    the test sets, stacked once.  The final models take one more measure.

    Each seed-round is one record of an (S, T) table, written a round at a
    time; records describe the broadcast model w_t, the *final* fields the
    model after the last round.  A seed whose model turns non-finite stops
    at that round and is marked failed: its clients train no more, its rows
    drawn ahead go unread, its table ends there, and its model, still
    measured because rows never interact, is no longer read.  The other
    seeds go on; with none live, nothing more is measured.
    """
    check_replicas(phi_replays, phi_every, expected_mode, expected_replays)
    S, T, n = len(tasks), tasks[0].schedule.iterations, tasks[0].population.num_clients
    for task in tasks:
        shape = (task.schedule.iterations, task.schedule.num_clients, task.population.num_clients)
        if shape != (T, n, n):
            raise ConfigError("seed {}'s schedule is {} x {} for {} clients; every seed needs "
                              "{} x {}".format(task.seed, *shape, T, n))
        if len(task.rates.values) != T:
            raise ConfigError(f"{len(task.rates.values)} step sizes for {T} iterations")
    if len({task.test_data is None for task in tasks}) > 1:
        raise ConfigError("either every seed has a test set or none has")
    if tasks[0].test_data is not None and tasks[0].population.kind == "quadratic":
        raise ConfigError("a quadratic task predicts no labels, so it takes no test set")
    seeds = tuple(task.seed for task in tasks)
    table = np.zeros((S, T), METRIC_DTYPE)
    table["t"], table["phi_hat"] = range(T), math.nan  # phi_hat is written on phi rounds
    table["n_active"] = [task.schedule.sizes() for task in tasks]
    table["eta_t"] = [task.rates.values for task in tasks]
    # Scaffold's control variates cross the wire with each upload.
    table["uploads"] = np.cumsum(table["n_active"], axis=1) * (2 if algorithm == "scaffold" else 1)
    population, smoothness, outs = settle_seeds(tasks, local_cfg, audit_nu)
    optima = [global_optimum(task.population) for task in tasks]
    steep = ", ".join(f"seed {s} (L = {L:.6g}, 1/(10 L) = {1 / (10 * L):.6g})"
                      for s, L in zip(seeds, smoothness) if L > 0 and local_cfg.lr > 1 / (10 * L))
    if steep:
        log.warning("local lr %r exceeds 1/(10 L), so small-step analysis does not apply, for %s",
                    local_cfg.lr, steep)
    live = np.ones(S, dtype=bool)
    # Seed s's test set is client s of one more stacked objective.
    test_sets = None
    if tasks[0].test_data is not None:
        test_sets = make_objective(population.kind, [task.test_data for task in tasks],
                                   **population.params)
    state = init_state(algorithm, np.stack([task.w0 for task in tasks]), n, scaffold_literal)
    phi_rounds = (phi_replays >= 2 and phi_every > 0) & (np.arange(T) % max(phi_every, 1) == 0)
    # The phi samples and a Monte Carlo expectation read the first replicas; fullbatch, the last.
    copies = 1 + np.maximum(expected_replays * (expected_mode == "mc"), phi_replays * phi_rounds)
    expected = slice(-1, None) if expected_mode == "fullbatch" else slice(expected_replays)
    steps = local_cfg.steps + state.scaffold_literal  # scaffold's anchor batch comes first
    drawn: list[tuple[np.ndarray, np.ndarray]] = []
    for t in range(T):
        if not live.any():
            break
        drawn = drawn or draw_rounds(tasks, live, copies, t, local_cfg.batch_size, steps)
        rows, round_batches = drawn.pop(0)
        eta, batches = table["eta_t"][:, t], [round_batches]
        if expected_mode == "fullbatch":  # the noise-free update trains as the last copy
            batches.append(draw_batches(population.n, rows, population.n, None, steps))
        result = play_round(state, population, rows, local_cfg, eta, None, batches=batches)
        losses, grads, client_grads, accs = measure(population, test_sets, state.w)
        held = result.replays[:, expected].reshape(-1, population.dim)  # each seed's run
        means = group_means(rows // n, client_grads[rows], S), group_means(None, held, S)
        record, some = table[:, t], table["n_active"][:, t] > 0
        record["loss"], record["acc"] = losses, accs
        record["grad_norm2"] = np.matmul(grads[:, None, :], grads[:, :, None])[:, 0, 0]
        record["gamma_t"], record["E_t"] = (
            np.where(some, expected_update_error(mean, grads), math.nan) for mean in means)
        if phi_rounds[t] and rows.size:  # a round without rows has no replays
            phi = update_variance(result.replays[:, :phi_replays])
            record["phi_hat"] = np.where(some, phi, math.nan)
        state = result.state
        for k in np.flatnonzero(live & ~np.isfinite(state.w).all(axis=1)):
            outs[k].failed, outs[k].failure_round, live[k] = True, t, False
            outs[k].final_w = state.w[k]
            drawn = []  # its rows drawn ahead go unread, and the next chunk holds none

    if live.any():
        losses, grads, _, accs = measure(population, test_sets, state.w)
    for k, (out, task, optimum) in enumerate(zip(outs, tasks, optima)):
        out.table = table[k, : out.failure_round + 1 if out.failed else T]
        if live[k]:
            out.final_w, out.final_loss, out.final_acc = state.w[k], float(losses[k]), float(accs[k])
            out.final_grad_norm2 = float(grads[k] @ grads[k])
            if optimum is not None:
                out.optimum_distance = float(np.linalg.norm(out.final_w - optimum))
                out.initial_gap = float(out.table["loss"][0]) - task.population.loss(optimum)
        out.uploads_total = int(out.table["uploads"][-1])
        out.min_grad_norm2 = min(out.table["grad_norm2"].tolist())  # NaN only if the first is
        out.rate_mass = float(out.table["eta_t"].sum())
        out.weighted_bias = weighted_participation_bias(out.table["eta_t"], out.table["gamma_t"])
    return outs


def draw_rounds(tasks: list[SeedTask], live: np.ndarray, copies: np.ndarray, t0: int,
                batch_size: int, steps: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rows and batches (steps, rows, b) of each round from t0 on, in play_round's row order.

    Participants of whole rounds of the live seeds, round t's copies[t] times, up to
    DRAW_CHUNK_BYTES of the drawer's peak and of the (S, rounds, N) mask (a larger round
    alone, in pieces): copy 0 of client i at t on (BATCH, i, t), copy c on (REPLAY, i, t, c - 1).
    """
    seeds, population = tuple(task.seed for task in tasks), tasks[0].population
    row_bytes = 576 + 18 * steps * (2 * min(batch_size, population.n) - 1)
    budget = max(1, DRAW_CHUNK_BYTES // row_bytes)  # rows of one draw
    t2 = t0 + max(1, DRAW_CHUNK_BYTES // (8 * len(tasks) * population.num_clients))  # cells
    sizes = sum(task.schedule.sizes()[t0:t2] for task, on in zip(tasks, live) if on) * copies[t0:t2]
    t1 = t0 + max(1, int(np.searchsorted(np.cumsum(sizes), budget, side="right")))
    window = np.stack([task.schedule.rounds(t0, t1) for task in tasks]) & live[:, None, None]
    at, seed, client = np.nonzero(window.transpose(1, 0, 2))
    playing = seed * population.num_clients + client
    per = np.bincount(at, minlength=t1 - t0)  # participants of each round
    ends = np.cumsum(per)
    bounds = np.concatenate([[0], np.cumsum(per * copies[t0:t1])])
    pieces = []
    for a in range(0, max(bounds[-1], 1), budget):  # key each piece's rows as it is drawn
        row = np.arange(a, min(a + budget, bounds[-1]))
        at = np.searchsorted(bounds, row, side="right") - 1  # each row's round
        copy, who = np.divmod(row - bounds[at], per[at])
        who += (ends - per)[at]
        spawn = np.stack([np.where(copy, streams.REPLAY, streams.BATCH), client[who], t0 + at,
                          np.maximum(copy - 1, 0)], axis=1).astype(np.uint64)
        keys = streams.StreamKeys(seeds, seed[who], spawn, 3 + (copy > 0))
        pieces.append(draw_batches(population.n, playing[who], batch_size, keys, steps))
    batches = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)
    return list(zip(np.split(playing, ends[:-1]), np.split(batches, bounds[1:-1], axis=1)))


def measure(population: Objective, test_sets: Objective | None,
            models: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Losses (S,), population gradients (S, dim), client gradients (S * N, dim), accuracies (S,).

    Model k on seed k's run of clients and on client k of test_sets (NaN
    accuracy without).  Every model goes through the one pass; rows never
    interact, so a failed seed's non-finite model leaves the others' bits alone.
    """
    seeds = len(models)
    losses, grads = population.losses_and_grads(models)
    acc = np.full(seeds, math.nan) if test_sets is None else evaluate(test_sets, models)
    return np.mean(losses.reshape(seeds, -1), axis=1), group_means(None, grads, seeds), grads, acc


def settle_seeds(
    tasks: list[SeedTask], local_cfg: LocalConfig, nu: float
) -> tuple[Objective, list[float], list[TrialOutput]]:
    """The stack of every seed's clients, each seed's L and its output before round 0.

    run and check-schedule alike call it; only run trains on the stack, seed
    s's client i at row s * N + i.  Every seed's L comes from one smoothness
    call on the stack (for an MLP, one probe over every seed's clients).  The
    output holds the seed's worst staleness and, when T >= 2, the audit of
    its step sizes with that staleness (at least 1) as tau_max.
    """
    population = stack([task.population for task in tasks])
    smoothness = population.smoothness(len(tasks))
    outs = [TrialOutput(task.seed, np.empty(0, METRIC_DTYPE), task.w0,
                        max_staleness=task.schedule.max_staleness()) for task in tasks]
    for task, L, out in zip(tasks, smoothness, outs):
        if task.schedule.iterations >= 2:
            out.conditions = check_conditions(
                task.rates, task.schedule.sizes(), local_lr=local_cfg.lr, steps=local_cfg.steps,
                smoothness=L, tau_max=max(1, out.max_staleness),
                num_clients=task.population.num_clients, nu=nu)
    return population, smoothness, outs


def build_task(cfg: ExperimentConfig, seed: int) -> tuple[Objective, ClientDataset | None]:
    """Materialize one seed's stacked client objective and its optional test set."""
    train = make_synthetic_classification(
        cfg.classes, cfg.per_class, cfg.dim, cfg.separation,
        streams.seed_for(seed, streams.DATA, 0),
    )
    clients = partition_shards(
        train, cfg.clients, cfg.shards_per_client, streams.seed_for(seed, streams.PARTITION)
    )
    params = {} if cfg.task == "quadratic" else {"num_classes": cfg.classes, "reg": cfg.reg}
    if cfg.task == "mlp":
        params["hidden"] = cfg.hidden
    test_data = None
    if cfg.task != "quadratic" and cfg.test_per_class > 0:
        test_data = make_synthetic_classification(
            cfg.classes, cfg.test_per_class, cfg.dim, cfg.separation,
            streams.seed_for(seed, streams.DATA, 1),
        )
    return make_objective(cfg.task, clients, **params), test_data


def build_schedule(cfg: ExperimentConfig, seed: int) -> AvailabilitySchedule:
    key = streams.seed_for(seed, streams.AVAILABILITY)
    if cfg.scenario == "round_robin":
        return round_robin_schedule(cfg.clients, cfg.iterations, cfg.tau_max, key)
    if cfg.scenario == "static":
        return static_prob_schedule(cfg.clients, cfg.iterations, cfg.prob, key, cfg.force_full_start)
    return weighted_sample_schedule(cfg.clients, cfg.iterations, cfg.ratio, key)


def build_rates(cfg: ExperimentConfig, schedule: AvailabilitySchedule) -> LrSchedule:
    if cfg.rate_kind == "constant":
        return constant_rates(cfg.eta0, cfg.iterations)
    if cfg.rate_kind == "exponential":
        return exponential_rates(cfg.eta0, cfg.decay, cfg.iterations)
    return inverse_time_rates(cfg.scale, cfg.beta, schedule.sizes(), cfg.clients)


def initial_model(cfg: ExperimentConfig, dim: int, seed: int) -> np.ndarray:
    if cfg.init == "zeros":
        return np.zeros(dim)
    return cfg.init_scale * streams.stream(seed, streams.INIT).standard_normal(dim)


def seed_task(cfg: ExperimentConfig, seed: int) -> SeedTask:
    """One seed's population, schedule, step sizes, first model and test set."""
    population, test_data = build_task(cfg, seed)
    schedule = build_schedule(cfg, seed)
    rates, w0 = build_rates(cfg, schedule), initial_model(cfg, population.dim, seed)
    return SeedTask(seed, population, schedule, rates, w0, test_data)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    outdir: Path
    trials: list[TrialOutput]
    csv_paths: list[Path]
    summary_path: Path

    @property
    def any_failed(self) -> bool:
        return any(t.failed for t in self.trials)


def resolve_outdir(out: str) -> Path:
    """Interpret a run's output path, honoring the output-root env var; no part may be a file."""
    path = Path(out)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    for part in (path, *path.parents):
        if (part.exists() or part.is_symlink()) and not part.is_dir():  # a dangling link too
            raise ConfigError(f"output path {part} exists and is not a directory")
    return path


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every seed in one lockstep pass, write per-seed CSVs plus one summary.txt."""
    cfg.check_partition()
    outdir = resolve_outdir(cfg.out)
    trials = run_trials(
        [seed_task(cfg, seed) for seed in cfg.seeds], cfg.algorithm, cfg.local_config(),
        phi_replays=cfg.phi_replays, phi_every=cfg.phi_every,
        expected_mode=cfg.expected_mode, expected_replays=cfg.expected_replays,
        scaffold_literal=(cfg.scaffold_anchor == "within_round"), audit_nu=cfg.nu,
    )
    outdir.mkdir(parents=True, exist_ok=True)
    csv_paths = [outdir / f"{cfg.algorithm}_{cfg.scenario}_seed{seed}.csv" for seed in cfg.seeds]
    for trial, path in zip(trials, csv_paths):
        write_metrics_csv(trial.table, path)
    summary_path = outdir / "summary.txt"
    summary_path.write_text(render_summary(cfg, trials, csv_paths))
    return ExperimentResult(cfg, outdir, trials, csv_paths, summary_path)
