"""Golden outputs: small runs of every task x algorithm against stored files.

The files under tests/data/golden/ were written by the code before the
stacked-client refactor.  Each case re-runs its config and compares every
CSV and summary.txt with them: integers and flags exactly, floats to 1e-12
relative, NaN where NaN was.

    PYTHONPATH=src python tests/test_golden.py --write

re-takes the stored files from the code on PYTHONPATH.
"""

from __future__ import annotations

import math
import shutil
import sys
from pathlib import Path

import pytest

from dropfed.harness import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

RTOL = 1e-12

TASKS = {
    "quadratic": dict(task="quadratic", classes=2, per_class=12, dim=2),
    "logistic": dict(task="logistic", classes=3, per_class=12, dim=2, reg=0.01,
                     test_per_class=5),
    "binary": dict(task="logistic", classes=2, per_class=12, dim=3, reg=0.01,
                   test_per_class=5),
    "mlp": dict(task="mlp", classes=3, per_class=12, dim=3, hidden=4, reg=0.01,
                test_per_class=5, init="normal", init_scale=0.5),
}

COMMON = dict(
    clients=4, shards_per_client=1, iterations=8, local_steps=3, local_lr=0.05,
    batch_size=3, scenario="static", prob=0.5, rate_kind="constant", eta0=0.2,
    seeds=(1, 2),
)

ALGORITHMS = {
    "fedavg": {},
    "fedprox": dict(prox_mu=0.1),
    "mifa": {},
    "mimic": {},
    "scaffold": {},
}

EXTRA = {
    "logistic_scaffold_within_round": ("logistic", dict(algorithm="scaffold",
                                                        scaffold_anchor="within_round")),
    "mlp_scaffold_within_round_mc": ("mlp", dict(algorithm="scaffold",
                                                 scaffold_anchor="within_round",
                                                 expected_mode="mc", expected_replays=3)),
    "logistic_mimic_mc": ("logistic", dict(algorithm="mimic", expected_mode="mc",
                                           expected_replays=3)),
    "quadratic_mifa_phi": ("quadratic", dict(algorithm="mifa", phi_replays=4, phi_every=2)),
    "logistic_scaffold_phi_round_robin": ("logistic", dict(
        algorithm="scaffold", phi_replays=4, phi_every=3, scenario="round_robin", tau_max=3)),
    "mlp_mimic_phi_weighted": ("mlp", dict(algorithm="mimic", phi_replays=3, phi_every=4,
                                           scenario="weighted", ratio=0.5,
                                           rate_kind="inverse_time", scale=0.1)),
    "binary_fedavg_full_batch": ("binary", dict(algorithm="fedavg", batch_size=1000)),
    # No probe ratio exceeds 1 here, so the smoothness is the floor 2.0.
    "mlp_flat_probe_scaffold_mc": ("mlp", dict(
        algorithm="scaffold", classes=4, per_class=40, dim=10, hidden=16, reg=0.0,
        separation=3.0, clients=8, shards_per_client=2, iterations=5, local_steps=5,
        batch_size=5, seeds=(1,), scenario="round_robin", tau_max=4, expected_mode="mc",
        expected_replays=4)),
}


def cases() -> dict[str, dict]:
    out = {}
    for task, base in TASKS.items():
        for algo, extra in ALGORITHMS.items():
            out[f"{task}_{algo}"] = {**COMMON, **base, "algorithm": algo, **extra}
    for name, (task, extra) in EXTRA.items():
        out[name] = {**COMMON, **TASKS[task], **extra}
    return out


CASES = cases()


def _run(name: str, out: Path):
    return run_experiment(ExperimentConfig(**CASES[name], out=str(out)))


def _same_value(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if "." not in want and "e" not in want and "n" not in want:  # ints are exact
        return False
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


def _differences(got: Path, want: Path) -> list[str]:
    got_lines = got.read_text().splitlines()
    want_lines = want.read_text().splitlines()
    if len(got_lines) != len(want_lines):
        return [f"{got.name}: {len(got_lines)} lines, expected {len(want_lines)}"]
    problems = []
    sep = "," if got.suffix == ".csv" else " = "
    for k, (g, w) in enumerate(zip(got_lines, want_lines)):
        gf, wf = g.split(sep), w.split(sep)
        if len(gf) != len(wf) or not all(_same_value(a, b) for a, b in zip(gf, wf)):
            problems.append(f"{got.name}:{k + 1}: {g!r} != {w!r}")
    return problems


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path):
    result = _run(name, tmp_path)
    stored = sorted(p.name for p in (GOLDEN / name).iterdir())
    written = sorted(p.name for p in result.outdir.iterdir())
    assert written == stored
    problems = [p for f in stored for p in _differences(tmp_path / f, GOLDEN / name / f)]
    assert not problems, "\n".join(problems[:20])


def write_golden() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for name in sorted(CASES):
        _run(name, GOLDEN / name)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_golden()
