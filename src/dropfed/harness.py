"""Experiment orchestration: config files, the training loop, summaries.

A run is: build a synthetic task, deal it to clients, draw an availability
schedule, then iterate broadcast -> local training -> aggregation while
recording per-round diagnostics.  Every random draw comes from a stream
keyed by (master seed, purpose, indices), so runs are bit-reproducible and
diagnostics can replay any round without disturbing the training draws.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import rng as streams
from .aggregation import ALGORITHMS, init_state, play_round, replay_round
from .availability import (
    AvailabilitySchedule,
    round_robin_schedule,
    static_prob_schedule,
    weighted_sample_schedule,
)
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
from .errors import ConfigError, NumericalError
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

OUTPUT_ROOT_ENV = "DROPFED_OUT"

SCENARIOS = ("round_robin", "static", "weighted")
RATE_KINDS = ("constant", "exponential", "inverse_time")


@dataclass
class ExperimentConfig:
    # [task]
    task: str = "quadratic"
    classes: int = 2
    per_class: int = 50
    dim: int = 2
    separation: float = 4.0
    reg: float = 0.0
    hidden: int = 8
    test_per_class: int = 0
    # [partition]
    clients: int = 10
    shards_per_client: int = 1
    # [federation]
    algorithm: str = "fedavg"
    iterations: int = 100
    local_steps: int = 1
    local_lr: float = 0.1
    batch_size: int = 1_000_000
    prox_mu: float = 0.0
    init: str = "zeros"
    init_scale: float = 1.0
    scaffold_anchor: str = "persistent"
    # [availability]
    scenario: str = "static"
    tau_max: int = 10
    prob: float = 0.5
    ratio: float = 0.5
    force_full_start: bool = True
    # [rates]
    rate_kind: str = "constant"
    eta0: float = 0.1
    decay: float = 0.99
    scale: float = 1.0
    beta: float = 10.0
    nu: float = 0.01
    # [run]
    seeds: tuple[int, ...] = (1,)
    out: str = "runs/out"
    phi_replays: int = 0
    phi_every: int = 0
    expected_mode: str = "fullbatch"
    expected_replays: int = 64
    workers: int = 1

    def __post_init__(self) -> None:
        if self.task not in ("quadratic", "logistic", "mlp"):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.rate_kind not in RATE_KINDS:
            raise ConfigError(f"unknown rate kind {self.rate_kind!r}")
        if self.expected_mode not in ("fullbatch", "mc"):
            raise ConfigError(f"expected_mode must be fullbatch or mc")
        if self.init not in ("zeros", "normal"):
            raise ConfigError(f"init must be zeros or normal, got {self.init!r}")
        if self.scaffold_anchor not in ("persistent", "within_round"):
            raise ConfigError("scaffold_anchor must be persistent or within_round")
        if self.algorithm == "fedprox" and self.prox_mu <= 0:
            raise ConfigError("fedprox needs prox_mu > 0")
        if self.algorithm != "fedprox" and self.prox_mu > 0:
            raise ConfigError("prox_mu > 0 is only meaningful with algorithm = fedprox")
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"duplicate seeds in {self.seeds}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    def fingerprint(self) -> str:
        """Hash of everything that defines the task, data, and participation.

        Two runs are comparable iff their fingerprints match; algorithm,
        iteration count, and step sizes are deliberately excluded.
        """
        parts = [
            self.task, self.classes, self.per_class, self.dim, self.separation,
            self.reg, self.hidden, self.test_per_class, self.clients,
            self.shards_per_client, self.scenario, self.tau_max, self.prob,
            self.ratio, self.force_full_start, ",".join(map(str, self.seeds)),
        ]
        blob = "|".join(repr(p) for p in parts).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


_SECTION_FIELDS = {
    "task": {
        "kind": ("task", str), "classes": ("classes", int),
        "per_class": ("per_class", int), "dim": ("dim", int),
        "separation": ("separation", float), "reg": ("reg", float),
        "hidden": ("hidden", int), "test_per_class": ("test_per_class", int),
    },
    "partition": {
        "clients": ("clients", int),
        "shards_per_client": ("shards_per_client", int),
    },
    "federation": {
        "algorithm": ("algorithm", str), "iterations": ("iterations", int),
        "local_steps": ("local_steps", int), "local_lr": ("local_lr", float),
        "batch_size": ("batch_size", int), "prox_mu": ("prox_mu", float),
        "init": ("init", str), "init_scale": ("init_scale", float),
        "scaffold_anchor": ("scaffold_anchor", str),
    },
    "availability": {
        "scenario": ("scenario", str), "tau_max": ("tau_max", int),
        "prob": ("prob", float), "ratio": ("ratio", float),
        "force_full_start": ("force_full_start", None),
    },
    "rates": {
        "kind": ("rate_kind", str), "eta0": ("eta0", float),
        "decay": ("decay", float), "scale": ("scale", float),
        "beta": ("beta", float), "nu": ("nu", float),
    },
    "run": {
        "seeds": ("seeds", None), "out": ("out", str),
        "phi_replays": ("phi_replays", int), "phi_every": ("phi_every", int),
        "expected_mode": ("expected_mode", str),
        "expected_replays": ("expected_replays", int), "workers": ("workers", int),
    },
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse an INI-style experiment file; unknown sections or keys are errors."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    kwargs = {}
    for section in parser.sections():
        if section not in _SECTION_FIELDS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        known = _SECTION_FIELDS[section]
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            name, conv = known[key]
            try:
                if key == "seeds":
                    kwargs[name] = tuple(int(v) for v in raw.replace(",", " ").split())
                elif key == "force_full_start":
                    kwargs[name] = raw.strip().lower() in ("1", "true", "yes", "on")
                else:
                    kwargs[name] = conv(raw.strip())
            except ValueError as exc:
                raise ConfigError(f"{path}: bad value for {section}.{key}: {raw!r}") from exc
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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


def run_trial(
    objectives: Objective | list[Objective],
    schedule: AvailabilitySchedule,
    rates: LrSchedule,
    algorithm: str,
    local_cfg: LocalConfig,
    w0: np.ndarray,
    master_seed: int,
    *,
    test_objective: Objective | None = None,
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

    for t in range(schedule.iterations):
        active = list(schedule.active_sets[t])
        eta = float(rates.values[t])
        w = state.w
        losses, client_grads = population.losses_and_grads(w)
        loss = float(np.mean(losses))
        grad = np.mean(client_grads, axis=0)
        grad_norm2 = float(grad @ grad)
        acc = math.nan
        if test_objective is not None and test_data is not None:
            measured = evaluate(test_objective, w, test_data)
            acc = math.nan if measured is None else measured

        gamma = e_t = phi = math.nan

        def train_rng(i: int, t: int = t) -> np.random.Generator:
            return streams.batch_stream(master_seed, i, t)

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
        if test_objective is not None and test_data is not None:
            measured = evaluate(test_objective, state.w, test_data)
            out.final_acc = math.nan if measured is None else measured
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
        out.conditions = check_conditions(
            rates,
            schedule.sizes(),
            local_lr=local_cfg.lr,
            smoothness=population.smoothness,
            steps=local_cfg.steps,
            tau_max=max(1, out.max_staleness),
            num_clients=population.num_clients,
            nu=audit_nu,
        )
    return out


def _replay_updates(
    state, population, active, local_cfg, eta, master_seed, t, count, scaffold_literal
) -> np.ndarray:
    """Replay one round `count` times with fresh batch draws, in one lockstep pass."""
    def replay_rng(i: int, r: int) -> np.random.Generator:
        return streams.replay_stream(master_seed, i, t, r)

    return replay_round(
        state, population, active, local_cfg, eta, replay_rng, count,
        scaffold_literal=scaffold_literal,
    )


def build_task(
    cfg: ExperimentConfig, seed: int
) -> tuple[Objective, Objective | None, ClientDataset | None]:
    """Materialize one seed's stacked client objective and optional test-set evaluator."""
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
    objective = make_objective(cfg.task, clients, **params)
    test_objective = None
    test_data = None
    if cfg.task != "quadratic" and cfg.test_per_class > 0:
        test_data = make_synthetic_classification(
            cfg.classes, cfg.test_per_class, cfg.dim, cfg.separation,
            streams.seed_for(seed, streams.DATA, 1),
        )
        test_objective = make_objective(cfg.task, test_data, **params)
    return objective, test_objective, test_data


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
    any_failed: bool


def resolve_outdir(out: str) -> Path:
    """Interpret a run's output path, honoring the output-root env var."""
    path = Path(out)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not path.is_absolute():
        path = Path(root) / path
    return path


def _run_one_seed(cfg: ExperimentConfig, seed: int, outdir: Path) -> tuple[TrialOutput, Path]:
    population, test_objective, test_data = build_task(cfg, seed)
    schedule = build_schedule(cfg, seed)
    rates = build_rates(cfg, schedule)
    local_cfg = LocalConfig(
        steps=cfg.local_steps, lr=cfg.local_lr,
        batch_size=cfg.batch_size, prox_mu=cfg.prox_mu,
    )
    w0 = initial_model(cfg, population.dim, seed)
    trial = run_trial(
        population, schedule, rates, cfg.algorithm, local_cfg, w0, seed,
        test_objective=test_objective, test_data=test_data,
        phi_replays=cfg.phi_replays, phi_every=cfg.phi_every,
        expected_mode=cfg.expected_mode, expected_replays=cfg.expected_replays,
        scaffold_literal=(cfg.scaffold_anchor == "within_round"),
        audit_nu=cfg.nu,
    )
    csv_path = outdir / f"{cfg.algorithm}_{cfg.scenario}_seed{seed}.csv"
    write_metrics_csv(trial.rows, csv_path)
    return trial, csv_path


def _mean_std(values: list[float]) -> tuple[float, float]:
    # Diverged trials leave NaN or inf behind; neither belongs in a mean.
    clean = [v for v in values if math.isfinite(v)]
    if not clean:
        return math.nan, math.nan
    if len(clean) == 1:
        return clean[0], 0.0
    return statistics.mean(clean), statistics.stdev(clean)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every seed, write per-seed CSVs plus one summary.txt, aggregate."""
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
        summary_path=summary_path, any_failed=any(t.failed for t in trials),
    )


def render_summary(
    cfg: ExperimentConfig, trials: list[TrialOutput], csv_paths: list[Path]
) -> str:
    lines = [
        "[run]",
        f"algorithm = {cfg.algorithm}",
        f"scenario = {cfg.scenario}",
        f"task = {cfg.task}",
        f"clients = {cfg.clients}",
        f"iterations = {cfg.iterations}",
        f"local_steps = {cfg.local_steps}",
        f"seeds = {','.join(str(s) for s in cfg.seeds)}",
        f"fingerprint = {cfg.fingerprint()}",
        "",
        "[aggregate]",
    ]
    for name, values in [
        ("final_loss", [t.final_loss for t in trials]),
        ("final_acc", [t.final_acc for t in trials]),
        ("final_grad_norm2", [t.final_grad_norm2 for t in trials]),
        ("optimum_distance", [t.optimum_distance for t in trials]),
        ("rate_mass", [t.rate_mass for t in trials]),
        ("weighted_bias", [t.weighted_bias for t in trials]),
    ]:
        mean, std = _mean_std(values)
        lines.append(f"{name}_mean = {mean!r}")
        lines.append(f"{name}_std = {std!r}")
    lines.append(f"failed_trials = {sum(t.failed for t in trials)}")
    lines.append(f"uploads_budget = {min(t.uploads_total for t in trials)}")
    for trial, path in zip(trials, csv_paths):
        lines += [
            "",
            f"[trial.{trial.seed}]",
            f"csv = {path.name}",
            f"failed = {trial.failed}",
            f"failure_round = {trial.failure_round}",
            f"final_loss = {trial.final_loss!r}",
            f"final_acc = {trial.final_acc!r}",
            f"final_grad_norm2 = {trial.final_grad_norm2!r}",
            f"min_grad_norm2 = {trial.min_grad_norm2!r}",
            f"rate_mass = {trial.rate_mass!r}",
            f"weighted_bias = {trial.weighted_bias!r}",
            f"initial_gap = {trial.initial_gap!r}",
            f"optimum_distance = {trial.optimum_distance!r}",
            f"uploads_total = {trial.uploads_total}",
            f"max_staleness = {trial.max_staleness}",
        ]
        if trial.conditions is not None:
            lines.append(f"conditions_passed = {trial.conditions.passed}")
            lines.append("")
            lines.append(f"[trial.{trial.seed}.conditions]")
            lines += trial.conditions.summary_lines()
    return "\n".join(lines) + "\n"


@dataclass
class ComparisonRow:
    summary: Path
    algorithm: str
    scenario: str
    budget: int
    round_mean: float
    loss_mean: float
    acc_mean: float
    grad_norm2_mean: float
    tied_with_best: bool = False


def compare_runs(summary_paths: list[str | Path]) -> tuple[list[ComparisonRow], str]:
    """Rank runs on the same task at a matched communication budget.

    The budget is the largest upload count every trial of every run reached;
    each trial contributes its metrics at the last round within budget.
    Runs whose task fingerprints differ are refused.
    """
    if len(summary_paths) < 2:
        raise ConfigError("need at least two summaries to compare")
    from .diagnostics import read_metrics_csv

    parsed = []
    for raw in summary_paths:
        path = Path(raw)
        if not path.exists():
            raise ConfigError(f"summary not found: {path}")
        ini = configparser.ConfigParser()
        ini.read(path)
        if "run" not in ini:
            raise ConfigError(f"{path}: not a run summary")
        parsed.append((path, ini))

    prints = {ini["run"]["fingerprint"] for _, ini in parsed}
    if len(prints) != 1:
        raise ConfigError(f"runs are not comparable: task fingerprints {sorted(prints)}")
    budget = min(int(ini["aggregate"]["uploads_budget"]) for _, ini in parsed)

    rows = []
    for path, ini in parsed:
        losses, accs, grads, rounds = [], [], [], []
        for section in ini.sections():
            if not section.startswith("trial.") or section.endswith(".conditions"):
                continue
            metrics = read_metrics_csv(path.parent / ini[section]["csv"])
            within = [m for m in metrics if m.uploads <= budget]
            if not within:
                raise ConfigError(f"{path}: trial {section} has no rounds within budget")
            last = within[-1]
            losses.append(last.loss)
            accs.append(last.acc)
            grads.append(last.grad_norm2)
            rounds.append(last.t)
        rows.append(
            ComparisonRow(
                summary=path,
                algorithm=ini["run"]["algorithm"],
                scenario=ini["run"]["scenario"],
                budget=budget,
                round_mean=statistics.mean(rounds),
                loss_mean=statistics.mean(losses),
                acc_mean=(
                    math.nan
                    if any(math.isnan(a) for a in accs)
                    else statistics.mean(accs)
                ),
                grad_norm2_mean=statistics.mean(grads),
            )
        )

    by_acc = not any(math.isnan(r.acc_mean) for r in rows)
    rows.sort(key=(lambda r: -r.acc_mean) if by_acc else (lambda r: r.loss_mean))
    best = rows[0]
    for row in rows:
        gap = (
            abs(row.acc_mean - best.acc_mean)
            if by_acc
            else abs(row.loss_mean - best.loss_mean)
        )
        row.tied_with_best = row is not best and gap <= 1e-12

    header = (
        f"matched upload budget: {budget}\n"
        f"{'algorithm':<12}{'scenario':<14}{'round':>8}{'loss':>14}"
        f"{'acc':>10}{'grad_norm2':>14}  "
    )
    table = [header.rstrip()]
    for row in rows:
        tie = "  (tie)" if row.tied_with_best else ""
        table.append(
            f"{row.algorithm:<12}{row.scenario:<14}{row.round_mean:>8.1f}"
            f"{row.loss_mean:>14.6g}{row.acc_mean:>10.4f}"
            f"{row.grad_norm2_mean:>14.6g}{tie}"
        )
    return rows, "\n".join(table) + "\n"
