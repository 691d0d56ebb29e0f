"""Every function the benchmark's tracer times still exists under its name.

The tracer in bench/ finds its targets by bare name in the modules that
`dropfed.cli` loads.  A target that is renamed or moved out of sight is
skipped without an error, and its per-layer metric then reads 0.
"""

import importlib.util
import sys
from pathlib import Path

import dropfed.cli  # noqa: F401  (loads the modules the benchmark traces)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
# Their functions were deleted when the population pass replaced them,
# and harness.replay's (_replay_updates) when replicas began to train
# inside the round's one play_round pass.
DEAD = {"diagnostics.global_loss", "diagnostics.global_grad", "harness.replay"}


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
