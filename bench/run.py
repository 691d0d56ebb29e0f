#!/usr/bin/env python3
"""dropfed benchmark: drive the CLI in-process on fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs `dropfed.cli.main` in this process, one command at a time, on the
workload defined in bench/workloads/NAME.ini, for S seconds.  Each timed
command gets its own seed list, drawn from N, and its outputs are checked
(see outcheck.py).  The first command runs the workload's reference seeds,
untimed, and is also compared with the stored references.

With --trace 0 it reports the end-to-end metrics; only the set-up
functions are wrapped, to time set-up.  With --trace 1 it alternates
untraced and traced commands on one seed list and reports the per-layer
metrics of the traced ones (see layers.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Spans and a full record go under .bench_out/ in the checkout.

    python3 bench/run.py --workload NAME --write-references

re-takes the stored reference outputs of a workload from a serial run.

The benchmark needs the repository's src/ next to bench/, and exits with
code 2 without a result when it is missing.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import layers
import outcheck
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = BENCH / "workloads"
REFERENCES = BENCH / "references"

# Fewest timed commands per run, whatever --seconds says, so that a median
# and the exact-count self-check always have something to work on.
MIN_COMMANDS = 3

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "client_rounds_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Workload:
    name: str
    command: str
    seeds_per_op: int
    reference_seeds: tuple[int, ...]
    program: configparser.ConfigParser

    @property
    def workers(self) -> int:
        return self.program.getint("run", "workers") if self.command == "run" else 1

    def op_seeds(self, seed: int, k: int) -> tuple[int, ...]:
        """Seed list of the k-th timed command of a run with benchmark seed `seed`."""
        rng = random.Random(f"{self.name}:{seed}:{k}")
        return tuple(rng.sample(range(1, 2**31), self.seeds_per_op))


def load_workload(name: str, tiny: bool = False) -> Workload:
    """Read a workload file; `tiny` shrinks it to a smoke-test size."""
    path = WORKLOADS / f"{name}.ini"
    if not path.is_file():
        raise ValueError(f"unknown workload {name!r}; see {WORKLOADS}")
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    cfg.read(path)
    bench = cfg["bench"]
    seeds_per_op = bench.getint("seeds_per_op")
    reference_seeds = tuple(int(v) for v in bench["reference_seeds"].split())
    command = bench["command"]
    cfg.remove_section("bench")
    if tiny:
        cfg["federation"]["iterations"] = "3"
        seeds_per_op = min(seeds_per_op, 2)
        reference_seeds = reference_seeds[:seeds_per_op]
    return Workload(name, command, seeds_per_op, reference_seeds, cfg)


@dataclass
class Command:
    """One timed CLI command and what its outputs showed."""

    seeds: tuple[int, ...]
    run_s: float
    setup_s: float
    cpu_s: float
    client_rounds: int
    failed: int
    problems: list[str]
    stdout: str = ""
    spans: list = field(default_factory=list)


def _cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Runner:
    """Runs a workload's CLI commands in this process and checks their outputs."""

    def __init__(self, workload: Workload, workdir: Path) -> None:
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        from dropfed import cli

        self.workload = workload
        self.main = cli.main
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = workdir / "config.ini"
        with open(self.config, "w") as fh:
            workload.program.write(fh)
        self.outdir = workdir / "out"
        self.installer = tracer.Installer()
        self.main_thread = threading.get_ident()
        # setup_s would silently shrink if a set-up function moved out of sight.
        missing = tracer.SETUP_SPANS - set(self.installer.install(tracer.Tracer(), tracer.SETUP))
        self.installer.uninstall()
        if missing:
            raise RuntimeError(f"set-up functions not found in dropfed: {sorted(missing)}")

    def argv(self, seeds, workers: int | None = None) -> list[str]:
        argv = [self.workload.command, str(self.config), "--seed-override", ",".join(map(str, seeds))]
        if self.workload.command == "run":
            argv += ["--out", str(self.outdir)]
            if workers is not None:
                argv += ["--workers", str(workers)]
        return argv

    def command(self, seeds, *, traced: bool = False, references: bool = False,
                workers: int | None = None) -> Command:
        shutil.rmtree(self.outdir, ignore_errors=True)
        argv = self.argv(seeds, workers)
        recorder = tracer.Tracer()
        self.installer.install(recorder, tracer.SETUP + (tracer.LAYERS if traced else ()))
        stdout, stderr = io.StringIO(), io.StringIO()
        code, error = None, ""
        gc.collect()
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = self.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            error = traceback.format_exc()
        finally:
            run_s = time.perf_counter() - t0
            cpu_s = _cpu_seconds() - cpu0
            self.installer.uninstall()
        setup_s = sum(s.end - s.start for s in recorder.spans if s.name in tracer.SETUP_SPANS)

        problems: dict[int, list[str]] = {-1: []}
        client_rounds = 0
        if code != 0:
            problems[-1].append(f"exit code {code} {error}{stderr.getvalue()[-2000:]}".strip())
        else:
            try:
                if self.workload.command == "run":
                    problems, client_rounds = outcheck.check_run(
                        self.workload.program, seeds, self.outdir)
                else:
                    problems, client_rounds = outcheck.check_audit(
                        self.workload.program, seeds, stdout.getvalue())
                if references:
                    problems[-1] += outcheck.compare_with_references(
                        self.workload.command, self.outdir, stdout.getvalue(),
                        REFERENCES / self.workload.name)
            except (OSError, ValueError, KeyError) as exc:
                problems[-1].append(f"unreadable output: {exc!r}")
        failed = len(seeds) if problems[-1] else sum(1 for s in seeds if problems.get(s))
        flat = [p for key in problems for p in problems[key]]
        return Command(tuple(seeds), run_s, setup_s, cpu_s, client_rounds, failed, flat,
                       stdout.getvalue(), recorder.spans if traced else [])

    def write_references(self) -> list[str]:
        """Store the outputs of a serial run of the reference seeds."""
        cmd = self.command(self.workload.reference_seeds, workers=1)
        if cmd.failed:
            return cmd.problems
        target = REFERENCES / self.workload.name
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        if self.workload.command == "run":
            for path in sorted(self.outdir.iterdir()):
                shutil.copyfile(path, target / path.name)
        else:
            (target / "audit.txt").write_text(cmd.stdout)
        return []


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    if len(ordered) <= 10:
        return "no percentile has ten samples above it"
    j = len(ordered) - 11
    return f"p{100 * (j + 1) // len(ordered)} {ordered[j]:.6f} s"


def environment(workload: Workload) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict mode
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas, "workers": workload.workers,
    }


def measure_end_to_end(runner: Runner, seed: int, seconds: float) -> tuple[dict, list[Command], list[str]]:
    commands = []
    start = time.perf_counter()
    k = 0
    while k < MIN_COMMANDS or time.perf_counter() - start < seconds:
        commands.append(runner.command(runner.workload.op_seeds(seed, k)))
        k += 1
    run_s = [c.run_s for c in commands]
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(c.setup_s for c in commands),
        "client_rounds_per_s": statistics.median(c.client_rounds / c.run_s for c in commands),
        "peak_rss_mb": usage / 1024.0,
    }
    notes = [f"run_s: median {metrics['run_s']:.6f} s, {tail(run_s)}, {len(run_s)} commands"]
    return metrics, commands, notes


def _layer_metrics(runner: Runner, cmd: Command) -> tuple[dict | None, str]:
    """Per-layer metrics of one traced command, or None and why it is invalid."""
    try:
        m = layers.layer_metrics(cmd.spans, cmd.run_s, runner.main_thread)
    except tracer.TraceError as exc:
        return None, str(exc)
    accounted = m["trace.accounted_frac"]
    if runner.workload.workers == 1 and abs(accounted - 1.0) > 1e-6:
        return None, f"self times account for {accounted} of run_s"
    return m, ""


def measure_layers(runner: Runner, seed: int, seconds: float) -> tuple[dict, list[Command], list[str]]:
    # Every command runs one seed list, so that the exact counts of the
    # traced commands can be compared.  Untraced commands alternate with
    # them and give the tracing overhead and the CPU utilisation.
    seeds = runner.workload.op_seeds(seed, 0)
    plain: list[Command] = []
    traced: list[Command] = []
    per_command: list[dict | None] = []
    notes: list[str] = []
    kept_spans = None
    start = time.perf_counter()
    k = 0
    while k < MIN_COMMANDS or time.perf_counter() - start < seconds:
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            cmd = runner.command(seeds, traced=on)
            if not on:
                plain.append(cmd)
                continue
            m, why = _layer_metrics(runner, cmd)
            if m is None:
                notes.append(f"invalid traced command {len(traced)}: {why}")
            elif kept_spans is None:
                kept_spans = cmd.spans
            cmd.spans = []
            per_command.append(m)
            traced.append(cmd)
        k += 1

    valid = [m for m in per_command if m is not None]
    if valid:
        first = {key: valid[0][key] for key in layers.EXACT}
        for i, m in enumerate(per_command):
            diff = {key: (m[key], first[key]) for key in layers.EXACT if m and m[key] != first[key]}
            if diff:
                notes.append(f"invalid traced command {i}: exact counts differ {diff}")
                per_command[i] = None
        valid = [m for m in per_command if m is not None]
    metrics = {}
    if valid:
        metrics = {key: statistics.median(m[key] for m in valid) for key in valid[0]}
        plain_s = statistics.median(c.run_s for c in plain)
        metrics["trace.overhead_frac"] = metrics["trace.run_s"] / plain_s - 1.0
        metrics["harness.pool.cpu_util"] = statistics.median(
            c.cpu_s / (runner.workload.workers * c.run_s) for c in plain)
        spans_file = runner.config.parent / f"spans-seed{seed}.csv"
        write_spans(kept_spans, spans_file)
        notes.append(f"spans of one traced command: {spans_file}")
    notes.append(f"{len(traced)} traced and {len(plain)} untraced commands on seeds {list(seeds)}")
    return metrics, plain + traced, notes


def write_spans(spans, path: Path) -> None:
    ids = {id(s): j for j, s in enumerate(spans)}
    origin = min((s.start for s in spans), default=0.0)
    with open(path, "w") as fh:
        fh.write("id,name,start_s,end_s,parent,trial,thread,work\n")
        for j, s in enumerate(spans):
            parent = ids.get(id(s.parent), "") if s.parent is not None else ""
            trial = "" if s.trial is None else s.trial
            fh.write(f"{j},{s.name},{s.start - origin:.9f},{s.end - origin:.9f},"
                     f"{parent},{trial},{s.thread},{s.work}\n")


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    workload = load_workload(name, tiny)
    workdir = OUT / name
    runner = Runner(workload, workdir)
    env = environment(workload)
    print("env: " + json.dumps(env), flush=True)

    # Untimed first command: warms up, and checks the reference seeds.
    reference = runner.command(workload.reference_seeds, references=not tiny)
    if trace:
        metrics, commands, notes = measure_layers(runner, seed, seconds)
        units = layers.UNITS
        valid = set(metrics) == set(units)
    else:
        metrics, commands, notes = measure_end_to_end(runner, seed, seconds)
        units = END_TO_END_UNITS
        valid = True
    commands = [reference] + commands
    attempted = sum(len(c.seeds) for c in commands)
    failed = sum(c.failed for c in commands)
    invalid = [n for n in notes if n.startswith("invalid")]
    problems = [p for c in commands for p in c.problems]

    print(f"workload {name}, seed {seed}, trace {int(trace)}: {len(commands)} commands, "
          f"{attempted} operations, {failed} failed, fail_frac {failed / attempted:.6f}")
    for note in notes + problems[:20]:
        print(note)
    for key in units:
        if key in metrics:
            print(f"{key} = {metrics[key]:.6g} {units[key]}")
    result = {
        "correct": failed == 0 and not invalid and valid,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    record = dict(result, environment=env, run_s=[c.run_s for c in commands], notes=notes,
                  problems=problems[:200])
    (workdir / f"result-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(runner.outdir, ignore_errors=True)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dropfed" / "__init__.py").is_file():
        print(f"bench: no dropfed sources at {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if not (WORKLOADS / f"{args.workload}.ini").is_file():
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.write_references:
        problems = Runner(load_workload(args.workload), OUT / args.workload).write_references()
        for p in problems:
            print(p, file=sys.stderr)
        return 1 if problems else 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
