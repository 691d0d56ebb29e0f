"""Per-layer metrics of one traced command, computed from its spans.

Durations (`.s`) include the span's children; `.self_s` is the span minus
the part its children cover.  With several worker threads, per-layer times
are thread seconds, so they can sum to more than the wall time; their sum
over the command's wall time is `trace.accounted_frac`.
"""

from __future__ import annotations

from collections import defaultdict

import tracer

UNITS = {
    "objectives.batch_grad.calls": "count",
    "objectives.batch_grad.rows": "count",
    "objectives.batch_grad.s": "s",
    "objectives.batch_grad.rows_per_call": "rows",
    "objectives.loss.calls": "count",
    "objectives.loss.s": "s",
    "objectives.smoothness.s": "s",
    "local_trainer.local_train.calls": "count",
    "local_trainer.local_train.self_s": "s",
    "local_trainer.sample_batch.calls": "count",
    "local_trainer.sample_batch.s": "s",
    "rng.stream.calls": "count",
    "rng.stream.s": "s",
    "aggregation.play_round.train.calls": "count",
    "aggregation.play_round.train.s": "s",
    "aggregation.play_round.expected.calls": "count",
    "aggregation.play_round.expected.s": "s",
    "aggregation.play_round.replay.calls": "count",
    "aggregation.play_round.replay.s": "s",
    "aggregation.play_round.self_s": "s",
    "harness.participation_grad.s": "s",
    "harness.run_trial.self_s": "s",
    "harness.trial.train_share": "ratio",
    "harness.pool.cpu_util": "ratio",
    "diagnostics.global_loss.s": "s",
    "diagnostics.global_grad.s": "s",
    "diagnostics.evaluate.s": "s",
    "diagnostics.write_metrics_csv.calls": "count",
    "diagnostics.write_metrics_csv.s": "s",
    "harness.render_summary.s": "s",
    "data.build_task.s": "s",
    "harness.load_config.s": "s",
    "availability.build.s": "s",
    "availability.entries": "count",
    "availability.max_staleness.calls": "count",
    "availability.max_staleness.s": "s",
    "schedules.build_rates.s": "s",
    "schedules.check_conditions.calls": "count",
    "schedules.check_conditions.s": "s",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}

# Counts that a deterministic program repeats exactly on the same inputs.
EXACT = (
    "objectives.batch_grad.calls",
    "objectives.batch_grad.rows",
    "rng.stream.calls",
    "aggregation.play_round.train.calls",
    "aggregation.play_round.expected.calls",
    "aggregation.play_round.replay.calls",
    "local_trainer.sample_batch.calls",
    "availability.entries",
)

ROLES = ("train", "expected", "replay")


def layer_metrics(spans: list[tracer.Span], run_s: float, main_thread: int) -> dict[str, float]:
    """Every metric of UNITS that spans give; the caller adds the others.

    Raises tracer.TraceError when the span tree is inconsistent.
    """
    own = tracer.self_times(spans)
    by_name: dict[str, list[tracer.Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name: str) -> int:
        return len(by_name[name])

    def total(name: str) -> float:
        return sum(s.end - s.start for s in by_name[name])

    def self_s(name: str) -> float:
        return sum(own[s] for s in by_name[name])

    m: dict[str, float] = {}
    for name in ("objectives.batch_grad", "objectives.loss", "local_trainer.sample_batch",
                 "rng.stream", "diagnostics.write_metrics_csv",
                 "availability.max_staleness", "schedules.check_conditions"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    for name in ("objectives.smoothness", "diagnostics.global_loss", "diagnostics.global_grad",
                 "diagnostics.evaluate", "harness.render_summary", "data.build_task",
                 "harness.load_config", "availability.build", "schedules.build_rates"):
        m[f"{name}.s"] = total(name)
    rows = sum(s.work for s in by_name["objectives.batch_grad"])
    m["objectives.batch_grad.rows"] = rows
    m["objectives.batch_grad.rows_per_call"] = rows / max(1, calls("objectives.batch_grad"))
    m["local_trainer.local_train.calls"] = calls("local_trainer.local_train")
    m["local_trainer.local_train.self_s"] = self_s("local_trainer.local_train")
    for role in ROLES:
        name = f"aggregation.play_round.{role}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
    m["aggregation.play_round.self_s"] = sum(self_s(f"aggregation.play_round.{r}") for r in ROLES)
    m["harness.participation_grad.s"] = sum(
        s.end - s.start for s in by_name["objectives.batch_grad"]
        if s.parent is not None and s.parent.name == "harness.run_trial"
    )
    m["harness.run_trial.self_s"] = self_s("harness.run_trial")
    trial = total("harness.run_trial")
    m["harness.trial.train_share"] = total("aggregation.play_round.train") / trial if trial else 0.0
    m["availability.entries"] = sum(s.work for s in by_name["availability.build"])
    top = sum(s.end - s.start for s in tracer.roots(spans, main_thread))
    m["cli.self_s"] = run_s - top
    if m["cli.self_s"] < -tracer.EPS:
        raise tracer.TraceError(f"top-level spans cover {top} s of a {run_s} s command")
    m["trace.run_s"] = run_s
    m["trace.accounted_frac"] = (sum(own.values()) + m["cli.self_s"]) / run_s
    return m
