"""Experiment orchestration: the lockstep trial loop over a run's seeds.

A run is: build a synthetic task, deal it to clients, draw an availability
schedule, then iterate broadcast -> local training -> aggregation while
recording per-round diagnostics.  Every random draw comes from a stream
keyed by (master seed, purpose, indices), so runs are bit-reproducible and
diagnostics can replay any round without disturbing the training draws.
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
    RoundMetrics,
    evaluate,
    expected_update_error,
    participation_bias,
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

# Bytes of one draw's (rows, steps * (2 b - 1)) array of bounded draws, of
# which the drawer holds a few: this bounds its memory at any size.
DRAW_CHUNK_BYTES = 1 << 20


@dataclass
class TrialOutput:
    """Everything one seed produced: per-round rows plus end-of-run scalars."""

    seed: int
    rows: list[RoundMetrics]
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

    The seeds share N, T and the client data shape, and either all have a
    test set of one size or none has.  Before round 0, settle_seeds stacks
    their clients once into one population and gives each seed's L, worst
    staleness and audit, and the loop each seed's optimum and upload counts,
    so an audit that cannot be computed stops the run before any training.
    A round trains every seed's participants and the replicas its
    measurements need in one pass over that stack (see play_round); in
    fullbatch mode the expectation is the last copy.  The other batches are
    drawn ahead, keyed as arrays from the masks, in one draw per chunk of
    whole rounds (DRAW_CHUNK_BYTES).  The test sets are stacked once, and one
    helper measures every seed's model in one population pass and one pass
    over the stacked test sets, each round and once more for the final models.

    Per-round columns describe the broadcast model w_t before the update;
    the *final* fields describe the model after the last round.  A seed
    whose model turns non-finite stops at that round and is marked failed:
    its clients train no more, its rows drawn ahead go unread, and its
    model, still measured because rows never interact, is no longer
    recorded.  The other seeds go on; with none live, nothing more is measured.
    """
    for task in tasks:
        if len(task.rates.values) != task.schedule.iterations:
            raise ConfigError(f"{len(task.rates.values)} step sizes for {task.schedule.iterations} "
                              "iterations")
    if len({task.test_data is None for task in tasks}) > 1:
        raise ConfigError("either every seed has a test set or none has")
    seeds = [task.seed for task in tasks]
    n = tasks[0].population.num_clients
    masks = np.stack([task.schedule.mask for task in tasks])  # (S, T, N)
    participants = masks.sum(axis=2)  # (S, T)
    # Scaffold's control variates cross the wire with each upload.
    uploads = np.cumsum(participants, axis=1) * (2 if algorithm == "scaffold" else 1)
    population, smoothness, outs = settle_seeds(tasks, local_cfg, audit_nu)
    optima = [global_optimum(task.population) for task in tasks]
    steep = ", ".join(f"seed {s} (L = {L:.6g}, 1/(10 L) = {1 / (10 * L):.6g})"
                      for s, L in zip(seeds, smoothness) if L > 0 and local_cfg.lr > 1 / (10 * L))
    if steep:
        log.warning("local lr %r exceeds 1/(10 L), so small-step analysis does not apply, for %s",
                    local_cfg.lr, steep)
    live = np.ones(len(tasks), dtype=bool)
    # Seed s's test set is client s of one more stacked objective.
    test_sets = None
    if tasks[0].test_data is not None:
        test_sets = make_objective(population.kind, [task.test_data for task in tasks],
                                   **population.params)

    def measure(models: np.ndarray) -> list[tuple[int, float, np.ndarray, np.ndarray, float]]:
        """Each live seed's index, loss, mean and client (N, dim) gradients, and accuracy.

        Every seed's model goes through the one pass; rows never interact,
        so a failed seed's non-finite model leaves the others' bits alone.
        """
        losses, grads = population.losses_and_grads(models)
        losses, grads = losses.reshape(len(models), n), grads.reshape(len(models), n, -1)
        acc = np.full(len(models), math.nan) if test_sets is None else evaluate(test_sets, models)
        return [(k, float(np.mean(losses[k])), np.mean(grads[k], axis=0), grads[k], float(acc[k]))
                for k in np.flatnonzero(live)]

    rates = np.stack([task.rates.values for task in tasks])  # (S, T)
    state = init_state(algorithm, np.stack([task.w0 for task in tasks]), n, scaffold_literal)
    T = masks.shape[1]
    phi_rounds = (phi_replays >= 2 and phi_every > 0) & (np.arange(T) % max(phi_every, 1) == 0)
    # The Monte Carlo expectation and the phi samples read the first so many replicas.
    copies = 1 + np.maximum(expected_replays * (expected_mode == "mc"), phi_replays * phi_rounds)
    steps = local_cfg.steps + state.scaffold_literal  # scaffold's anchor batch comes first
    row_bytes = 8 * steps * (2 * min(local_cfg.batch_size, population.n) - 1)
    budget = max(1, DRAW_CHUNK_BYTES // row_bytes)  # rows of one draw

    def draw(t0: int) -> list[np.ndarray]:
        """Batches (steps, rows, b) of each round from t0 on, whole rounds up to budget rows
        (a larger round in pieces), in play_round's row order for the live seeds."""
        sizes = np.cumsum(participants[live, t0:].sum(axis=0) * copies[t0:])
        t1 = t0 + max(1, int(np.searchsorted(sizes, budget, side="right")))
        at, seed, client = np.nonzero((masks[:, t0:t1] & live[:, None, None]).transpose(1, 0, 2))
        per = np.bincount(at, minlength=t1 - t0)  # participants of each round
        bounds = np.concatenate([[0], np.cumsum(per * copies[t0:t1])])
        at = np.repeat(np.arange(t1 - t0), np.diff(bounds))  # now each row's round
        copy, who = np.divmod(np.arange(bounds[-1]) - bounds[at], per[at])
        who += (np.cumsum(per) - per)[at]
        owner, client = seed[who], client[who]
        spawn = np.stack([np.where(copy, streams.REPLAY, streams.BATCH), client, t0 + at,
                          np.maximum(copy - 1, 0)], axis=1).astype(np.uint64)
        master, lengths = np.array(seeds, dtype=object)[owner], 3 + (copy > 0)
        pieces = [draw_batches(population.n, owner[p] * n + client[p], local_cfg.batch_size,
                               streams.StreamKeys(master[p], spawn[p], lengths[p]), steps)
                  for p in (slice(a, a + budget) for a in range(0, max(len(owner), 1), budget))]
        batches = pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=1)
        return np.split(batches, bounds[1:-1], axis=1)

    drawn: list[np.ndarray] = []
    for t in range(T):
        if not live.any():
            break
        drawn = drawn or draw(t)
        playing = masks[:, t] & live[:, None]
        rows = np.flatnonzero(playing)
        eta = rates[:, t]
        batches = [drawn.pop(0)]
        if expected_mode == "fullbatch":  # the noise-free update trains as the last copy
            batches.append(draw_batches(population.n, rows, population.n, None, steps))
        result = play_round(state, population, rows, local_cfg, eta, None, batches=batches)
        expected = result.replays[:expected_replays]  # (replicas, S, dim)
        if expected_mode == "fullbatch":
            expected = result.replays[-1:]
        samples = result.replays[:phi_replays] if phi_rounds[t] else None
        for k, loss, grad, client_grads, acc in measure(state.w):
            active = np.flatnonzero(playing[k]).tolist()
            gamma = e_t = phi = math.nan
            if active:
                gamma = participation_bias(client_grads, active)
                # Each seed's replays as one contiguous (replicas, dim) block,
                # so that their mean and variance add in the one-seed order.
                v_exp = np.ascontiguousarray(expected[:, k]).mean(axis=0)
                e_t = expected_update_error(v_exp, grad)
                if samples is not None:
                    phi = update_variance(np.ascontiguousarray(samples[:, k]))
            outs[k].rows.append(RoundMetrics(
                t=t, loss=loss, grad_norm2=float(grad @ grad), E_t=e_t, gamma_t=gamma, phi_hat=phi,
                n_active=len(active), uploads=int(uploads[k, t]), acc=acc, eta_t=float(eta[k])))
        state = result.state
        failed = np.flatnonzero(live & ~np.isfinite(state.w).all(axis=1))
        for k in failed:
            outs[k].failed, outs[k].failure_round, live[k] = True, t, False
            outs[k].final_w = state.w[k]
            drawn = []  # its rows drawn ahead go unread, and the next chunk holds none

    for k, loss, grad, _, acc in measure(state.w) if live.any() else []:
        out = outs[k]
        out.final_w, out.final_loss, out.final_acc = state.w[k], loss, acc
        out.final_grad_norm2 = float(grad @ grad)
    for out, task, optimum in zip(outs, tasks, optima):
        if not out.failed and optimum is not None:
            out.optimum_distance = float(np.linalg.norm(out.final_w - optimum))
            out.initial_gap = out.rows[0].loss - task.population.loss(optimum)
        out.uploads_total = out.rows[-1].uploads
        out.min_grad_norm2 = min(r.grad_norm2 for r in out.rows)
        executed = task.rates.values[: len(out.rows)]
        out.rate_mass = float(executed.sum())
        out.weighted_bias = weighted_participation_bias(
            executed, np.array([r.gamma_t for r in out.rows])
        )
    return outs


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
    outs = [TrialOutput(task.seed, [], task.w0, max_staleness=task.schedule.max_staleness())
            for task in tasks]
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
        if part.exists() and not part.is_dir():
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
        write_metrics_csv(trial.rows, path)
    summary_path = outdir / "summary.txt"
    summary_path.write_text(render_summary(cfg, trials, csv_paths))
    return ExperimentResult(cfg, outdir, trials, csv_paths, summary_path)
