"""Experiment orchestration: one seed's trial loop and the run over all seeds.

A run is: build a synthetic task, deal it to clients, draw an availability
schedule, then iterate broadcast -> local training -> aggregation while
recording per-round diagnostics.  Every random draw comes from a stream
keyed by (master seed, purpose, indices), so runs are bit-reproducible and
diagnostics can replay any round without disturbing the training draws.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng as streams
from .aggregation import init_state, play_round, replay_round
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
from .local_trainer import LocalConfig
from .objectives import ClientDataset, Objective, global_optimum, make_objective, stack
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


# A diverging model overflows on its way to the non-finite values that the
# loop's isfinite check records as the failure; those overflows are expected.
@np.errstate(over="ignore", invalid="ignore")
def run_trial(
    objectives: Objective | list[Objective],
    schedule: AvailabilitySchedule,
    rates: LrSchedule,
    algorithm: str,
    local_cfg: LocalConfig,
    w0: np.ndarray,
    master_seed: int,
    *,
    test_data: ClientDataset | None = None,
    phi_replays: int = 0,
    phi_every: int = 0,
    expected_mode: str = "fullbatch",
    expected_replays: int = 64,
    scaffold_literal: bool = False,
    audit_nu: float = 0.01,
) -> TrialOutput:
    """Run one seed end to end and measure every round.

    The clients are stacked into one population; one fused pass per round
    gives the loss, the gradient and the participants' mean gradient.

    Per-round columns describe the broadcast model w_t before the update;
    the *final* fields describe the model after the last round.  A non-finite
    model aborts the trial at that round and marks it failed.
    """
    if rates.values.shape[0] != schedule.iterations:
        raise ConfigError(
            f"{rates.values.shape[0]} step sizes for {schedule.iterations} iterations"
        )
    population = stack(objectives)
    state = init_state(algorithm, w0, population.num_clients)
    per_round_uploads = 2 if algorithm == "scaffold" else 1
    rows: list[RoundMetrics] = []
    out = TrialOutput(seed=master_seed, rows=rows, final_w=state.w)
    uploads_total = 0

    def accuracy(w: np.ndarray) -> float:
        measured = None if test_data is None else evaluate(population, w, test_data)
        return math.nan if measured is None else measured

    for t in range(schedule.iterations):
        active = np.flatnonzero(schedule.mask[t]).tolist()
        eta = float(rates.values[t])
        w = state.w
        losses, client_grads = population.losses_and_grads(w)
        loss = float(np.mean(losses))
        grad = np.mean(client_grads, axis=0)
        grad_norm2 = float(grad @ grad)
        acc = accuracy(w)

        gamma = e_t = phi = math.nan

        def train_rng(i: int, t: int = t) -> streams.StreamKey:
            return streams.batch_key(master_seed, i, t)

        result = play_round(
            state, population, active, local_cfg, eta, train_rng,
            scaffold_literal=scaffold_literal,
        )

        if active:
            gamma = participation_bias(client_grads, active)
            if expected_mode == "fullbatch":
                v_exp = play_round(
                    state, population, active, local_cfg, eta, train_rng,
                    scaffold_literal=scaffold_literal, full_batch=True,
                ).v
            else:
                v_exp = _replay_updates(
                    state, population, active, local_cfg, eta, master_seed, t,
                    expected_replays, scaffold_literal,
                ).mean(axis=0)
            e_t = expected_update_error(v_exp, grad)
            if phi_replays >= 2 and phi_every > 0 and t % phi_every == 0:
                samples = _replay_updates(
                    state, population, active, local_cfg, eta, master_seed, t,
                    phi_replays, scaffold_literal,
                )
                phi = update_variance(samples)

        uploads_total += len(active) * per_round_uploads
        rows.append(
            RoundMetrics(
                t=t, loss=loss, grad_norm2=grad_norm2, E_t=e_t, gamma_t=gamma,
                phi_hat=phi, n_active=len(active), uploads=uploads_total,
                acc=acc, eta_t=eta,
            )
        )
        state = result.state
        if not np.all(np.isfinite(state.w)):
            out.failed = True
            out.failure_round = t
            break

    out.final_w = state.w
    out.uploads_total = uploads_total
    out.max_staleness = schedule.max_staleness()
    if not out.failed:
        out.final_loss = population.loss(state.w)
        g = population.grad(state.w)
        out.final_grad_norm2 = float(g @ g)
        out.final_acc = accuracy(state.w)
    out.min_grad_norm2 = min((r.grad_norm2 for r in rows), default=math.nan)
    executed = rates.values[: len(rows)]
    out.rate_mass = float(executed.sum())
    out.weighted_bias = weighted_participation_bias(
        executed, np.array([r.gamma_t for r in rows])
    )
    optimum = global_optimum(population)
    if optimum is not None and not out.failed:
        out.optimum_distance = float(np.linalg.norm(state.w - optimum))
        out.initial_gap = population.loss(w0) - population.loss(optimum)
    if schedule.iterations >= 2:
        out.conditions = audit_schedule(
            rates, schedule, out.max_staleness, local_lr=local_cfg.lr, steps=local_cfg.steps,
            smoothness=population.smoothness, num_clients=population.num_clients, nu=audit_nu,
        )
    return out


def audit_schedule(
    rates: LrSchedule, schedule: AvailabilitySchedule, staleness: int, *,
    local_lr: float, steps: int, smoothness: float, num_clients: int, nu: float,
) -> ConditionReport:
    """Audit a realized schedule's step sizes, with tau_max its worst staleness (at least 1)."""
    return check_conditions(
        rates, schedule.sizes(), local_lr=local_lr, smoothness=smoothness, steps=steps,
        tau_max=max(1, staleness), num_clients=num_clients, nu=nu,
    )


def _replay_updates(
    state, population, active, local_cfg, eta, master_seed, t, count, scaffold_literal
) -> np.ndarray:
    """Replay one round `count` times with fresh batch draws, in one lockstep pass."""
    def replay_rng(i: int, r: int) -> streams.StreamKey:
        return streams.replay_key(master_seed, i, t, r)

    return replay_round(
        state, population, active, local_cfg, eta, replay_rng, count,
        scaffold_literal=scaffold_literal,
    )


def build_task(cfg: ExperimentConfig, seed: int) -> tuple[Objective, ClientDataset | None]:
    """Materialize one seed's stacked client objective and its optional test set."""
    train = make_synthetic_classification(
        cfg.classes, cfg.per_class, cfg.dim, cfg.separation,
        streams.seed_for(seed, streams.DATA, 0),
    )
    clients = partition_shards(
        train, cfg.clients, cfg.shards_per_client, streams.seed_for(seed, streams.PARTITION)
    )
    params: dict = {}
    if cfg.task == "logistic":
        params = {"num_classes": cfg.classes, "reg": cfg.reg}
    elif cfg.task == "mlp":
        params = {"num_classes": cfg.classes, "reg": cfg.reg, "hidden": cfg.hidden}
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
        return static_prob_schedule(
            cfg.clients, cfg.iterations, cfg.prob, key, cfg.force_full_start
        )
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
    """Interpret a run's output path, honoring the output-root env var."""
    path = Path(out)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _run_one_seed(cfg: ExperimentConfig, seed: int, outdir: Path) -> tuple[TrialOutput, Path]:
    population, test_data = build_task(cfg, seed)
    schedule = build_schedule(cfg, seed)
    rates = build_rates(cfg, schedule)
    local_cfg = LocalConfig(
        steps=cfg.local_steps, lr=cfg.local_lr,
        batch_size=cfg.batch_size, prox_mu=cfg.prox_mu,
    )
    w0 = initial_model(cfg, population.dim, seed)
    trial = run_trial(
        population, schedule, rates, cfg.algorithm, local_cfg, w0, seed,
        test_data=test_data,
        phi_replays=cfg.phi_replays, phi_every=cfg.phi_every,
        expected_mode=cfg.expected_mode, expected_replays=cfg.expected_replays,
        scaffold_literal=(cfg.scaffold_anchor == "within_round"),
        audit_nu=cfg.nu,
    )
    csv_path = outdir / f"{cfg.algorithm}_{cfg.scenario}_seed{seed}.csv"
    write_metrics_csv(trial.rows, csv_path)
    return trial, csv_path


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every seed, write per-seed CSVs plus one summary.txt, aggregate."""
    cfg.check_partition()
    outdir = resolve_outdir(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            tagged = list(pool.map(lambda s: _run_one_seed(cfg, s, outdir), cfg.seeds))
    else:
        tagged = [_run_one_seed(cfg, s, outdir) for s in cfg.seeds]
    trials = [t for t, _ in tagged]
    csv_paths = [p for _, p in tagged]
    summary_path = outdir / "summary.txt"
    summary_path.write_text(render_summary(cfg, trials, csv_paths))
    return ExperimentResult(
        config=cfg, outdir=outdir, trials=trials, csv_paths=csv_paths,
        summary_path=summary_path,
    )
