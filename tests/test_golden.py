"""Golden outputs: small runs of every task x algorithm against stored files.

The run files under tests/data/golden/ were written by the code before the
stacked-client refactor.  Each case re-runs its config and compares every
CSV and summary.txt with them, first value by value (integers and flags
exactly, floats to 1e-12 relative, NaN where NaN was) for a readable
report, then byte for byte.

The schedule files under tests/data/golden/availability/ were written by the
code before availability schedules became one boolean mask: the text of
`dropfed dump-availability` for every seed and the standard output of
`dropfed check-schedule`.  They are compared byte for byte.  The stored
`check-schedule` output of audit_scale/, 1000 clients over 1000 rounds, was
written by the code before shards were dealt in one gather; its drift_gain
lines carry the smoothness of the dealt data.

    PYTHONPATH=src python tests/test_golden.py --write

re-takes the stored files from the code on PYTHONPATH.
"""

from __future__ import annotations

import io
import math
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from dropfed.cli import main
from dropfed.harness import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
SCHEDULES = GOLDEN / "availability"

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
    # One coordinate, 12 clients, K = 1 and full batches: E_t equals gamma_t
    # and is 0 on the full round 0 only if every average adds its rows in
    # the rule's order (numpy's mean(axis=0) sums 12 scalars pairwise).
    # Written after that order became the one order.
    "quadratic_fedavg_1d": ("quadratic", dict(algorithm="fedavg", dim=1, clients=12,
                                              local_steps=1, batch_size=1000)),
    # No probe ratio exceeds 1 here, so the smoothness is the floor 2.0.
    "mlp_flat_probe_scaffold_mc": ("mlp", dict(
        algorithm="scaffold", classes=4, per_class=40, dim=10, hidden=16, reg=0.0,
        separation=3.0, clients=8, shards_per_client=2, iterations=5, local_steps=5,
        batch_size=5, seeds=(1,), scenario="round_robin", tau_max=4, expected_mode="mc",
        expected_replays=4)),
    # Monte Carlo expectation with phi: fewer phi replays than expected ones.
    "logistic_mifa_mc_phi": ("logistic", dict(algorithm="mifa", expected_mode="mc",
                                              expected_replays=4, phi_replays=3, phi_every=2)),
    # More phi replays than expected ones; seed 2 has no participant at
    # round 6, a phi round on which seed 1 plays.
    "mlp_mimic_mc_phi_empty_round": ("mlp", dict(algorithm="mimic", expected_mode="mc",
                                                 expected_replays=2, phi_replays=4, phi_every=2)),
    # A step size that overflows seed 1 at round 9 and seed 2 at round 11,
    # while seed 3 trains on: later rounds still hold live seeds' rows.
    "logistic_mimic_mc_phi_failed_seed": ("logistic", dict(
        algorithm="mimic", expected_mode="mc", expected_replays=3, phi_replays=2, phi_every=2,
        iterations=12, eta0=1e33, seeds=(1, 2, 3))),
    # A step size that overflows seed 1 at round 6 and seed 2 at round 7 of
    # 10: the run stops after round 7, and no seed has final values.
    "logistic_mimic_every_seed_failed": ("logistic", dict(algorithm="mimic", iterations=10,
                                                          eta0=1e50)),
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
    # Within tolerance is not enough: a 1-ulp move in a printed L is a change.
    changed = [f for f in stored if (tmp_path / f).read_bytes() != (GOLDEN / name / f).read_bytes()]
    assert not changed, f"not byte-identical: {changed}"


SCHEDULE_CONFIG = """\
[task]
kind = logistic
classes = 3
per_class = 20
dim = 2
reg = 0.01

[partition]
clients = 12

[federation]
algorithm = mimic
iterations = 40
local_steps = 3
local_lr = 0.05
batch_size = 2

[availability]
{availability}

[rates]
kind = inverse_time
scale = 0.5
beta = 10.0

[run]
seeds = 1, 2, 3
"""

# Case -> ([availability] lines, whether check-schedule output is stored).
# The cold start is stored as schedule text only: the audit of a cold start
# raised before schedules became a mask.
SCHEDULE_CASES = {
    "round_robin": ("scenario = round_robin\ntau_max = 5", True),
    "weighted": ("scenario = weighted\nratio = 0.25", True),
    "static": ("scenario = static\nprob = 0.3\nforce_full_start = true", True),
    "static_cold": ("scenario = static\nprob = 0.3\nforce_full_start = false", False),
}


def _schedule_outputs(name: str, out: Path) -> None:
    """Write one case's schedule files and check-schedule stdout into out."""
    availability, audited = SCHEDULE_CASES[name]
    out.mkdir(parents=True, exist_ok=True)
    config = out.parent / f"{name}.ini"
    config.write_text(SCHEDULE_CONFIG.format(availability=availability))
    try:
        with redirect_stdout(io.StringIO()):
            assert main(["dump-availability", str(config), "--out", str(out)]) == 0
        if audited:
            audit = io.StringIO()
            with redirect_stdout(audit):
                assert main(["check-schedule", str(config)]) == 0
            (out / "check-schedule.txt").write_text(audit.getvalue())
    finally:
        config.unlink()


@pytest.mark.parametrize("name", sorted(SCHEDULE_CASES))
def test_golden_schedules(name, tmp_path):
    _schedule_outputs(name, tmp_path / name)
    stored = sorted(p.name for p in (SCHEDULES / name).iterdir())
    assert sorted(p.name for p in (tmp_path / name).iterdir()) == stored
    for f in stored:
        assert (tmp_path / name / f).read_bytes() == (SCHEDULES / name / f).read_bytes(), f


# The benchmark's audit_scale workload without its [bench] section, three seeds.
AUDIT_SCALE_CONFIG = """\
[task]
kind = logistic
classes = 4
per_class = 500
dim = 2
separation = 3.0

[partition]
clients = 1000
shards_per_client = 2

[federation]
algorithm = mimic
iterations = 1000
local_steps = 5
local_lr = 0.05
batch_size = 4

[availability]
scenario = round_robin
tau_max = 10

[rates]
kind = inverse_time
scale = 0.5
beta = 10.0

[run]
seeds = 1, 2, 3
"""


def _audit_scale_output(tmp: Path) -> str:
    config = tmp / "audit_scale.ini"
    config.write_text(AUDIT_SCALE_CONFIG)
    audit = io.StringIO()
    with redirect_stdout(audit):
        assert main(["check-schedule", str(config)]) == 0
    config.unlink()
    return audit.getvalue()


def test_golden_audit_at_scale(tmp_path):
    stored = (SCHEDULES / "audit_scale" / "check-schedule.txt").read_bytes()
    assert _audit_scale_output(tmp_path).encode() == stored


def write_golden() -> None:
    for name in sorted(CASES):
        shutil.rmtree(GOLDEN / name, ignore_errors=True)
        _run(name, GOLDEN / name)
    for name in sorted(SCHEDULE_CASES):
        shutil.rmtree(SCHEDULES / name, ignore_errors=True)
        _schedule_outputs(name, SCHEDULES / name)
    (SCHEDULES / "audit_scale").mkdir(exist_ok=True)
    (SCHEDULES / "audit_scale" / "check-schedule.txt").write_text(
        _audit_scale_output(SCHEDULES / "audit_scale"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    write_golden()
