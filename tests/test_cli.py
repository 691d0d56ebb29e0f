"""Command-line interface: subcommands, overrides, and exit codes."""

import configparser
import csv
import dataclasses
import io
import os
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropfed.cli import build_parser, main
from dropfed.config import _SECTIONS, ExperimentConfig

BASE_CONFIG = """\
[task]
kind = quadratic
classes = 2
per_class = 10
dim = 2
separation = 3.0

[partition]
clients = 4

[federation]
algorithm = {algorithm}
iterations = {iterations}
batch_size = 5

[availability]
scenario = static
prob = 0.7

[rates]
kind = constant
eta0 = {eta0}

[run]
seeds = 1, 2
out = {out}
"""


def write_config(tmp_path, name="exp.ini", algorithm="fedavg", eta0=0.2,
                 iterations=8, out=None):
    out = out or (tmp_path / "runs" / algorithm)
    path = tmp_path / name
    path.write_text(BASE_CONFIG.format(
        algorithm=algorithm, eta0=eta0, iterations=iterations, out=out
    ))
    return path, out


def test_run_success(tmp_path, capsys):
    cfg_path, outdir = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    assert "summary.txt" in captured.out
    assert (outdir / "fedavg_static_seed1.csv").exists()
    assert (outdir / "fedavg_static_seed2.csv").exists()
    assert (outdir / "summary.txt").exists()


def test_run_config_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[task]\nflavor = mild\n")
    assert main(["run", str(path)]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.ini")]) == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_numerical_error_exit_code(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path, eta0=1e8, iterations=60)
    assert main(["run", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert "numerical failure" in captured.err
    assert "FAILED at round" in captured.out


def test_run_overrides(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    override_out = tmp_path / "elsewhere"
    assert main([
        "run", str(cfg_path),
        "--seed-override", "7",
        "--out", str(override_out),
    ]) == 0
    assert (override_out / "fedavg_static_seed7.csv").exists()
    assert not (override_out / "fedavg_static_seed1.csv").exists()


def test_run_trials_pads_seeds(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    out = tmp_path / "padded"
    assert main(["run", str(cfg_path), "--trials", "4", "--out", str(out)]) == 0
    for seed in (1, 2, 3, 4):
        assert (out / f"fedavg_static_seed{seed}.csv").exists()
    shrunk = tmp_path / "shrunk"
    assert main(["run", str(cfg_path), "--trials", "1", "--out", str(shrunk)]) == 0
    assert (shrunk / "fedavg_static_seed1.csv").exists()
    assert not (shrunk / "fedavg_static_seed2.csv").exists()
    assert main(["run", str(cfg_path), "--trials", "0"]) == 1


def test_run_workers_flag(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    a = tmp_path / "w1"
    b = tmp_path / "w3"
    assert main(["run", str(cfg_path), "--out", str(a)]) == 0
    assert main(["run", str(cfg_path), "--out", str(b), "--workers", "3"]) == 0
    for name in ("fedavg_static_seed1.csv", "fedavg_static_seed2.csv", "summary.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_compare_command(tmp_path, capsys):
    cfg_a, out_a = write_config(tmp_path, name="a.ini", algorithm="fedavg")
    cfg_b, out_b = write_config(tmp_path, name="b.ini", algorithm="mimic")
    assert main(["run", str(cfg_a)]) == 0
    assert main(["run", str(cfg_b)]) == 0
    capsys.readouterr()
    code = main(["compare", str(out_a / "summary.txt"), str(out_b / "summary.txt")])
    assert code == 0
    table = capsys.readouterr().out
    assert "matched upload budget" in table
    assert "fedavg" in table and "mimic" in table
    assert main(["compare", str(out_a / "summary.txt")]) == 1


def test_check_schedule_command(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    assert main(["check-schedule", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "seed 1:" in out and "seed 2:" in out
    assert "passed = " in out
    assert "drift_gain = " in out


AUDIT_CONFIG = """\
[task]
kind = {kind}
classes = 3
per_class = 12
dim = 3
hidden = 4
reg = 0.01

[partition]
clients = 4

[federation]
algorithm = mimic
iterations = {iterations}
local_steps = 3
batch_size = 3

[availability]
{availability}

[rates]
kind = inverse_time
scale = 0.5

[run]
seeds = 1, 2
out = {out}
"""


@pytest.mark.parametrize("kind, availability", [
    ("logistic", "scenario = static\nprob = 0.5"),
    ("mlp", "scenario = round_robin\ntau_max = 3"),  # L from the stacked probe
])
def test_check_schedule_prints_the_audit_that_run_records(tmp_path, capsys, kind, availability):
    cfg_path, out = tmp_path / "exp.ini", tmp_path / "run"
    cfg_path.write_text(AUDIT_CONFIG.format(kind=kind, iterations=6, availability=availability,
                                            out=out))
    assert main(["check-schedule", str(cfg_path)]) == 0
    printed = capsys.readouterr().out.split("seed ")[1:]
    assert main(["run", str(cfg_path)]) == 0
    summary = (out / "summary.txt").read_text()
    for seed, block in zip((1, 2), printed, strict=True):
        head, *lines = block.splitlines()
        section = summary.split(f"[trial.{seed}.conditions]\n")[1].split("\n\n")[0]
        assert head == f"{seed}:" and lines
        assert lines == [f"  {line}" for line in section.splitlines()]


def refuse_data(monkeypatch):
    """Fail the test if any synthetic data is built."""
    def refuse(*_args):
        raise AssertionError("data built for a config that fails before any work")

    monkeypatch.setattr("dropfed.harness.make_synthetic_classification", refuse)


def test_check_schedule_needs_two_rounds(tmp_path, capsys, monkeypatch):
    refuse_data(monkeypatch)  # the rule is read from the config alone
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(AUDIT_CONFIG.format(kind="logistic", iterations=1,
                                            availability="scenario = static", out=tmp_path))
    assert main(["check-schedule", str(cfg_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: need at least two rounds to audit growth\n"


def test_dump_availability_stdout(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    assert main(["dump-availability", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 8  # one line per iteration
    assert lines[0] == "0,1,2,3"  # forced full start


def test_dump_availability_takes_an_uneven_partition(tmp_path, capsys):
    # 20 samples cannot be dealt as 4 clients x 3 shards, but no data is dealt here.
    cfg_path, _ = _config_with(tmp_path, partition="shards_per_client = 3")
    assert main(["dump-availability", str(cfg_path)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == "" and lines[0] == "0,1,2,3" and len(lines) == 8


def test_dump_availability_files(tmp_path):
    cfg_path, _ = write_config(tmp_path)
    dump_dir = tmp_path / "dumps"
    assert main(["dump-availability", str(cfg_path), "--out", str(dump_dir)]) == 0
    for seed in (1, 2):
        path = dump_dir / f"availability_static_seed{seed}.txt"
        assert path.exists()
        assert path.read_text().splitlines()[0] == "0,1,2,3"


def test_parser_requires_subcommand():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])
    args = parser.parse_args(["run", "conf.ini", "--workers", "2"])
    assert args.command == "run"
    assert args.workers == 2


def test_summary_is_wellformed_ini_after_cli_run(tmp_path):
    cfg_path, outdir = write_config(tmp_path)
    assert main(["run", str(cfg_path)]) == 0
    ini = configparser.ConfigParser()
    ini.read(outdir / "summary.txt")
    assert ini["run"]["algorithm"] == "fedavg"
    assert "uploads_budget" in ini["aggregate"]


def _config_with(tmp_path, algorithm="fedavg", **sections):
    """write_config's file with extra `key = value` lines added to given sections."""
    cfg_path, out = write_config(tmp_path, algorithm=algorithm)
    text = cfg_path.read_text()
    for section, lines in sections.items():
        text = text.replace(f"[{section}]\n", f"[{section}]\n{lines}\n")
    cfg_path.write_text(text)
    return cfg_path, out


@pytest.mark.parametrize("command", ["run", "check-schedule"])
def test_cold_start_runs_fedavg(tmp_path, capsys, command):
    cfg_path, _ = _config_with(tmp_path, availability="force_full_start = false")
    assert main([command, str(cfg_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "check-schedule"])
def test_cold_start_mifa_is_a_config_error(tmp_path, capsys, command):
    cfg_path, out = _config_with(tmp_path, algorithm="mifa",
                                 availability="force_full_start = false")
    assert main([command, str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: mifa") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


def test_misspelt_boolean_is_a_config_error(tmp_path, capsys):
    # Only configparser's booleans are read: `ture` is not a silent cold start.
    cfg_path, out = _config_with(tmp_path, availability="force_full_start = ture")
    assert main(["run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: {cfg_path}: bad value for availability.force_full_start: 'ture'\n"
    assert not out.exists()


def test_empty_out_is_a_config_error(tmp_path, capsys, monkeypatch):
    # An empty out would be the working directory, and the run would
    # overwrite any summary.txt there.
    cfg_path, out = write_config(tmp_path)
    cfg_path.write_text(cfg_path.read_text().replace(f"out = {out}\n", "out =\n"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DROPFED_OUT", raising=False)
    assert main(["run", str(cfg_path)]) == 1
    assert capsys.readouterr().err == "config error: out must name an output directory, got ''\n"
    assert list(tmp_path.iterdir()) == [cfg_path]


@pytest.mark.parametrize("command", ["run", "check-schedule"])
def test_uneven_shards_are_a_config_error_before_data(tmp_path, capsys, monkeypatch, command):
    # 20 samples cannot be dealt as 4 clients x 3 shards; no data is built.
    refuse_data(monkeypatch)
    cfg_path, out = _config_with(tmp_path, partition="shards_per_client = 3")
    assert main([command, str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: 20 samples (classes * per_class) cannot split into 12 equal shards\n"
    assert not out.exists()


def test_negative_seed_override_is_a_config_error(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    assert main(["run", str(cfg_path), "--seed-override", "-1"]) == 1
    err = capsys.readouterr().err
    assert "seeds must be >= 0" in err and err.count("\n") == 1
    assert not out.exists()


def test_negative_seed_in_config_is_a_config_error(tmp_path, capsys):
    cfg_path, _ = write_config(tmp_path)
    cfg_path.write_text(cfg_path.read_text().replace("seeds = 1, 2", "seeds = 1, -2"))
    assert main(["check-schedule", str(cfg_path)]) == 1
    assert "seeds must be >= 0" in capsys.readouterr().err


def test_single_phi_replay_is_a_config_error(tmp_path, capsys):
    cfg_path, out = _config_with(tmp_path, run="phi_replays = 1\nphi_every = 2")
    assert main(["run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "phi_replays must be 0 (off) or >= 2" in err and err.count("\n") == 1
    assert not out.exists()


def test_mc_expectation_without_replays_is_a_config_error(tmp_path, capsys):
    cfg_path, out = _config_with(tmp_path, run="expected_mode = mc\nexpected_replays = 0")
    assert main(["run", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert "needs expected_replays >= 1" in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "check-schedule"])
@pytest.mark.parametrize(
    "line, message",
    [
        ("local_steps = 0", "steps must be >= 1, got 0"),
        ("local_lr = 0.0", "lr must be > 0, got 0.0"),
        ("batch_size = 0", "batch_size must be >= 1, got 0"),
        ("prox_mu = -0.5", "prox_mu must be >= 0, got -0.5"),
        ("init = normal\ninit_scale = -1", "init_scale must be > 0, got -1.0"),
    ],
)
def test_local_training_rules_fail_before_any_work(tmp_path, capsys, command, line, message):
    # Each rule's line takes the place of the valid batch_size line.
    cfg_path, out = write_config(tmp_path)
    cfg_path.write_text(cfg_path.read_text().replace("batch_size = 5", line))
    assert main([command, str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "check-schedule"])
@pytest.mark.parametrize(
    "kind, key, value, message",
    [
        ("mlp", "hidden", "200", "mlp would have 1002 parameters, limit is 1000"),
        ("mlp", "hidden", "0", "hidden must be >= 1, got 0"),
        ("quadratic", "dim", "0", "dim must be >= 1, got 0"),
        ("quadratic", "separation", "-1", "separation must be >= 0, got -1.0"),
        ("logistic", "reg", "-0.5", "reg must be >= 0, got -0.5"),
        ("quadratic", "per_class", "0", "per_class must be >= 1, got 0"),
        ("logistic", "test_per_class", "-5", "test_per_class must be >= 0 (0: none), got -5"),
    ],
)
def test_task_rules_fail_before_any_work(tmp_path, capsys, command, kind, key, value, message):
    # The [task] section is rewritten with one setting out of range.
    cfg_path, out = write_config(tmp_path)
    task = {"kind": kind, "classes": 2, "per_class": 10, "dim": 2, "separation": 3.0, key: value}
    text = cfg_path.read_text()
    section = text[text.index("[task]") : text.index("[partition]")]
    lines = "".join(f"{k} = {v}\n" for k, v in task.items())
    cfg_path.write_text(text.replace(section, f"[task]\n{lines}\n"))
    assert main([command, str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "check-schedule"])
@pytest.mark.parametrize(
    "section, lines, message",
    [
        ("rates", "kind = constant\neta0 = 0", "eta0 must be > 0, got 0.0"),
        ("rates", "kind = exponential\ndecay = 0", "decay must be in (0, 1], got 0.0"),
        ("rates", "kind = exponential\ndecay = 1.5", "decay must be in (0, 1], got 1.5"),
        ("rates", "kind = inverse_time\nscale = 0", "scale must be > 0, got 0.0"),
        ("rates", "kind = inverse_time\nbeta = 0", "beta must be > 0, got 0.0"),
        ("rates", "kind = constant\nnu = 1.5", "nu must be in (0, 1), got 1.5"),
        ("availability", "scenario = round_robin\ntau_max = 0", "tau_max must be >= 1, got 0"),
        ("availability", "scenario = static\nprob = 0", "prob must be in (0, 1], got 0.0"),
        ("availability", "scenario = weighted\nratio = 0",
         "ratio 0.0 selects 0 of 4 clients; need 1..4"),
        ("run", "phi_replays = 4\nphi_every = -3", "phi_every must be >= 0 (0: off), got -3"),
    ],
)
def test_schedule_rules_fail_before_any_work(tmp_path, capsys, command, section, lines, message):
    # The section is rewritten with one setting out of range.
    cfg_path, out = write_config(tmp_path)
    text = cfg_path.read_text()
    start = text.index(f"[{section}]")
    end = text.find("\n[", start)
    cfg_path.write_text(text[:start] + f"[{section}]\n{lines}\n" + (text[end:] if end >= 0 else ""))
    assert main([command, str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


FLOAT_KEYS = [(section, f.name) for f in dataclasses.fields(ExperimentConfig)
              if isinstance(f.default, float)
              for section, names in _SECTIONS.items() if f.name in names]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS)
def test_non_finite_floats_fail_before_any_work(tmp_path, capsys, section, key, value):
    # Every float key, set to a non-finite value, whatever kind reads it.
    cfg_path, out = write_config(tmp_path)
    parser = configparser.ConfigParser()
    parser.read(cfg_path)
    parser.setdefault(section, {})[key] = value
    with cfg_path.open("w") as f:
        parser.write(f)
    assert main(["run", str(cfg_path)]) == 1
    assert capsys.readouterr().err == f"config error: {key} must be finite, got {float(value)}\n"
    assert not out.exists()


def test_failing_audit_stops_the_run_before_training(tmp_path, capsys, monkeypatch):
    # 1100 local steps overflow the audit's drift gain, which check-schedule
    # reports too; run stops there, before any round trains.
    def refuse(*_args, **_kwargs):
        raise AssertionError("a run whose audit fails was trained")

    monkeypatch.setattr("dropfed.aggregation.local_train", refuse)
    cfg_path, out = _config_with(tmp_path, federation="local_steps = 1100")
    assert main(["run", str(cfg_path)]) == 2
    assert capsys.readouterr().err == "numerical failure: drift gain overflows for steps=1100\n"
    assert not out.exists()
    assert main(["check-schedule", str(cfg_path)]) == 2


def test_closed_stdout_exits_quietly(tmp_path):
    # 600 seeds print over 100 kB, more than a pipe holds, so the writer
    # still has output left when the reader goes away after the first line.
    cfg_path, _ = write_config(tmp_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    seeds = ",".join(str(s) for s in range(600))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dropfed.cli", "check-schedule", str(cfg_path),
         "--seed-override", seeds],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"seed 0:\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert b"Traceback" not in err and err == b""


# Each command, and dump-availability writing files into --out.
COMMANDS = [["run"], ["check-schedule"], ["dump-availability"],
            ["dump-availability", "--out", "dumps"]]


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_a_run_over_the_memory_budget_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                            command):
    # 2 seeds x 10^12 rounds x 4 clients: the config is refused as it loads.
    refuse_data(monkeypatch)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DROPFED_OUT", raising=False)
    cfg_path, out = write_config(tmp_path, iterations=10**12)
    before = files_under(tmp_path)
    assert main([command[0], str(cfg_path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: 2 seeds x 1000000000000 iterations x 4 clients "
                            "need about 5.51e+05 GiB, over the budget of 1 GiB\n")
    assert files_under(tmp_path) == before and not out.exists()


# Run by a child process: it lowers its own address-space limit to 64 MB
# above what it has mapped once dropfed is loaded, then runs the command line.
LOW_MEMORY_MAIN = """\
import resource, sys
from dropfed.cli import main
with open("/proc/self/status") as status:
    mapped = next(int(line.split()[1]) for line in status if line.startswith("VmSize:")) * 1024
resource.setrlimit(resource.RLIMIT_AS, (mapped + (64 << 20), resource.RLIM_INFINITY))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_a_run_too_large_for_memory_is_one_config_error(tmp_path, command):
    # 2 seeds x 500,000 rounds x 40 clients is under the budget, but one
    # seed's 160 MB static draw is over the child's limit, so its first large
    # allocation fails at once and nothing much is ever allocated.
    cfg_path, out = write_config(tmp_path, iterations=500_000)
    text = cfg_path.read_text().replace("clients = 4\n", "clients = 40\n")
    cfg_path.write_text(text.replace("per_class = 10\n", "per_class = 20\n"))  # a shard each
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("DROPFED_OUT", None)
    before = files_under(tmp_path)
    proc = subprocess.run([sys.executable, "-c", LOW_MEMORY_MAIN, command[0], str(cfg_path),
                           *command[1:]], capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("config error: out of memory") and proc.stderr.count("\n") == 1
    assert files_under(tmp_path) == before and not out.exists()


def example_config() -> configparser.ConfigParser:
    """configs/example.ini at 6 rounds and one seed."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read(Path(__file__).resolve().parents[1] / "configs" / "example.ini")
    parser["federation"]["iterations"] = "6"
    parser["run"]["seeds"] = "1"
    return parser


EXAMPLE_KEYS = [(section, key) for section, keys in example_config().items() for key in keys]
SWEEP_VALUES = ("nan", "inf", "-inf", "0", "-1", "abc", "", "1e400", "2.5")


@pytest.mark.parametrize("section, key", EXAMPLE_KEYS)
@settings(max_examples=len(SWEEP_VALUES), deadline=None)
@given(value=st.sampled_from(SWEEP_VALUES))
def test_every_key_takes_any_value_or_is_a_config_error(tmp_path_factory, section, key, value):
    # One key of the example set to value: each command succeeds, or exits 1
    # with one stderr line and leaves its working directory as it was.
    parser = example_config()
    parser[section][key] = value
    home = tmp_path_factory.mktemp("sweep")
    cfg_path, work = home / "exp.ini", home / "work"
    with cfg_path.open("w") as f:
        parser.write(f)
    work.mkdir()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for command in ("run", "check-schedule"):
            before, err = sorted(work.rglob("*")), io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main([command, str(cfg_path)])
            if code:
                assert code == 1, (command, err.getvalue())
                assert err.getvalue().startswith("config error: ")
                assert err.getvalue().count("\n") == 1
                assert sorted(work.rglob("*")) == before
    finally:
        os.chdir(cwd)


def files_under(path):
    return sorted(path.rglob("*"))


@pytest.mark.parametrize("command", ["run", "check-schedule"])
@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes("[task]\n; réglé\nkind = quadratic\n".encode("latin-1")),
], ids=["directory", "not-utf-8"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, monkeypatch, command, make):
    # Neither may run the default experiment into ./runs/out, nor end in a traceback.
    config = tmp_path / "exp.ini"
    make(config)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DROPFED_OUT", raising=False)
    before = files_under(tmp_path)
    assert main([command, str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {config}: ") and err.count("\n") == 1
    assert files_under(tmp_path) == before


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """The output directories of two finished runs of one task: fedavg, then mimic."""
    home = tmp_path_factory.mktemp("runs")
    outs = []
    for algorithm in ("fedavg", "mimic"):
        cfg_path, out = write_config(home, name=f"{algorithm}.ini", algorithm=algorithm)
        assert main(["run", str(cfg_path)]) == 0
        outs.append(out)
    return outs


def rewrite(path, edit):
    path.write_text(edit(path.read_text()))


def first_row(edit):
    """A metrics CSV's text with edit applied to its first row of numbers."""
    def apply(text):
        header, row, rest = text.split("\n", 2)
        return "\n".join([header, edit(row), rest])
    return apply


BROKEN_RUNS = {
    "deleted-csv": lambda out: (out / "mimic_static_seed2.csv").unlink(),
    "bad-cell": lambda out: rewrite(out / "mimic_static_seed1.csv",
                                    first_row(lambda row: "abc" + row[row.index(","):])),
    "short-row": lambda out: rewrite(out / "mimic_static_seed1.csv",
                                     first_row(lambda row: row.rsplit(",", 1)[0])),
    "long-row": lambda out: rewrite(out / "mimic_static_seed1.csv",
                                    first_row(lambda row: row + ",999")),
    "huge-cell": lambda out: rewrite(out / "mimic_static_seed1.csv", first_row(
        lambda row: "1" * (csv.field_size_limit() + 1) + row)),
    "bad-budget": lambda out: rewrite(out / "summary.txt", lambda text: re.sub(
        r"uploads_budget = \d+", "uploads_budget = x", text)),
    "no-fingerprint": lambda out: rewrite(out / "summary.txt", lambda text: re.sub(
        r"fingerprint = \w+\n", "", text)),
    "no-section-header": lambda out: rewrite(out / "summary.txt",
                                             lambda text: text.replace("[run]\n", "", 1)),
    "no-trial": lambda out: rewrite(out / "summary.txt",
                                    lambda text: text[:text.index("\n[trial.")] + "\n"),
}


@pytest.mark.parametrize("case", BROKEN_RUNS)
def test_compare_on_a_broken_run_is_a_config_error(tmp_path, capsys, two_runs, case):
    a, b = (Path(shutil.copytree(out, tmp_path / out.name)) for out in two_runs)
    BROKEN_RUNS[case](b)
    before = files_under(tmp_path)
    assert main(["compare", str(a / "summary.txt"), str(b / "summary.txt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert files_under(tmp_path) == before


@pytest.mark.parametrize("command", ["run", "dump-availability"])
@pytest.mark.parametrize("below", ["", "sub"])
def test_out_through_a_file_is_a_config_error(tmp_path, capsys, monkeypatch, command, below):
    # An --out that is a file, or lies under one, is refused before any data
    # is built, not with a FileExistsError after every round has trained.
    refuse_data(monkeypatch)
    cfg_path, _ = write_config(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    before = files_under(tmp_path)
    assert main([command, str(cfg_path), "--out", str(taken / below)]) == 1
    assert capsys.readouterr().err == (
        f"config error: output path {taken} exists and is not a directory\n")
    assert files_under(tmp_path) == before and taken.read_text() == "kept\n"


@pytest.mark.filterwarnings("error")
def test_default_batch_size_trains_full_batch_without_warning(tmp_path):
    # The default batch_size covers every client's data, as the example documents.
    cfg_path, out = write_config(tmp_path)
    rewrite(cfg_path, lambda text: text.replace("batch_size = 5\n", ""))
    assert main(["run", str(cfg_path)]) == 0
    assert (out / "summary.txt").exists()


def test_percent_in_a_value_is_taken_literally(tmp_path, capsys):
    # Values are not interpolated, so a `%` is no InterpolationSyntaxError.
    cfg_path, _ = write_config(tmp_path, out=tmp_path / "runs" / "50%")
    assert main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "runs" / "50%" / "summary.txt").exists()
    assert "Traceback" not in capsys.readouterr().err
