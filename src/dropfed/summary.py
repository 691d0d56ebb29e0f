"""Run summaries: the summary.txt of a run, and ranking runs against each other."""

from __future__ import annotations

import configparser
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .config import ExperimentConfig
from .diagnostics import read_metrics_csv
from .errors import ConfigError

if TYPE_CHECKING:
    from .harness import TrialOutput

# Echoed from the config.
_RUN_FIELDS = ("algorithm", "scenario", "task", "clients", "iterations", "local_steps")
# Aggregated over the trials as <name>_mean and <name>_std.
_AGGREGATE_FIELDS = (
    "final_loss", "final_acc", "final_grad_norm2", "optimum_distance", "rate_mass",
    "weighted_bias",
)
# One line each in a trial's section; floats are printed with repr.
_TRIAL_FIELDS = (
    "failed", "failure_round", "final_loss", "final_acc", "final_grad_norm2",
    "min_grad_norm2", "rate_mass", "weighted_bias", "initial_gap", "optimum_distance",
    "uploads_total", "max_staleness",
)


def _mean_std(values: list[float]) -> tuple[float, float]:
    # Diverged trials leave NaN or inf behind; neither belongs in a mean.
    clean = [v for v in values if math.isfinite(v)]
    if not clean:
        return math.nan, math.nan
    if len(clean) == 1:
        return clean[0], 0.0
    return statistics.mean(clean), statistics.stdev(clean)


def render_summary(
    cfg: ExperimentConfig, trials: list[TrialOutput], csv_paths: list[Path]
) -> str:
    lines = ["[run]"]
    lines += [f"{name} = {getattr(cfg, name)}" for name in _RUN_FIELDS]
    lines += [
        f"seeds = {','.join(str(s) for s in cfg.seeds)}",
        f"fingerprint = {cfg.fingerprint()}",
        "",
        "[aggregate]",
    ]
    for name in _AGGREGATE_FIELDS:
        mean, std = _mean_std([getattr(t, name) for t in trials])
        lines.append(f"{name}_mean = {mean!r}")
        lines.append(f"{name}_std = {std!r}")
    lines.append(f"failed_trials = {sum(t.failed for t in trials)}")
    lines.append(f"uploads_budget = {min(t.uploads_total for t in trials)}")
    for trial, path in zip(trials, csv_paths):
        lines += ["", f"[trial.{trial.seed}]", f"csv = {path.name}"]
        for name in _TRIAL_FIELDS:
            value = getattr(trial, name)
            lines.append(f"{name} = {value!r}" if isinstance(value, float) else f"{name} = {value}")
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
