"""Every function the benchmark's tracer times still exists under its name.

The tracer in bench/ finds its targets by bare name in the modules that
`dropfed.cli` loads.  A target that is renamed or moved out of sight is
skipped without an error, and its per-layer metric then reads 0.  A
target that is found but no longer on a run's path reads 0 as well, so the
smoothness target is also run.
"""

import importlib.util
import sys
from pathlib import Path

import dropfed.cli  # noqa: F401  (loads the modules the benchmark traces)
from dropfed.config import ExperimentConfig
from dropfed.harness import seed_task, settle_seeds

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
# Their functions were deleted when the population pass replaced them,
# harness.replay's (_replay_updates) when replicas began to train inside the
# round's one play_round pass, and local_trainer.sample_batch when every
# batch came from one draw_batches call (rng.draw_keyed, or choice itself).
DEAD = {"diagnostics.global_loss", "diagnostics.global_grad", "harness.replay",
        "local_trainer.sample_batch"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_found():
    tracer = load_tracer()
    targets = tracer.SETUP + tracer.LAYERS
    installer = tracer.Installer()
    try:
        found = set(installer.install(tracer.Tracer(), targets))
    finally:
        installer.uninstall()
    assert {t.span for t in targets} - found == DEAD


def test_settling_seeds_records_one_smoothness_span():
    # Every seed's L comes from one smoothness call on the stack of the seeds.
    tracer = load_tracer()
    cfg = ExperimentConfig(task="mlp", classes=2, per_class=4, clients=2, hidden=2,
                           iterations=3, seeds=(1, 2))
    tasks = [seed_task(cfg, seed) for seed in cfg.seeds]
    spans = tracer.Tracer()
    installer = tracer.Installer()
    try:
        targets = [t for t in tracer.LAYERS if t.span == "objectives.smoothness"]
        assert installer.install(spans, targets) == ["objectives.smoothness"]
        settle_seeds(tasks, cfg.local_config(), cfg.nu)
    finally:
        installer.uninstall()
    assert [s.name for s in spans.spans] == ["objectives.smoothness"]
