"""Command-line entry point.

Exit codes: 0 success, 1 configuration error (an allocation that fails too),
2 numerical failure, 141 (128 + SIGPIPE) when standard output is closed before
everything was written.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import load_config, parse_seeds
from .errors import ConfigError, NumericalError
from .harness import build_schedule, resolve_outdir, run_experiment, seed_task, settle_seeds
from .summary import compare_runs


def _load_with_overrides(args: argparse.Namespace):
    cfg = load_config(args.config)
    if getattr(args, "seed_override", None) is not None:
        cfg = replace(cfg, seeds=parse_seeds(args.seed_override))
    if getattr(args, "trials", None) is not None:
        if args.trials < 1:
            raise ConfigError(f"--trials must be >= 1, got {args.trials}")
        seeds = list(cfg.seeds[: args.trials])
        while len(seeds) < args.trials:
            seeds.append(max(seeds) + 1)
        cfg = replace(cfg, seeds=tuple(seeds))
    if getattr(args, "out", None):
        cfg = replace(cfg, out=args.out)
    if getattr(args, "workers", None) is not None:
        cfg = replace(cfg, workers=args.workers)
    return cfg


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load_with_overrides(args)
    result = run_experiment(cfg)
    for trial, path in zip(result.trials, result.csv_paths):
        status = f"FAILED at round {trial.failure_round}" if trial.failed else "ok"
        print(f"seed {trial.seed}: {path} [{status}]")
    print(f"summary: {result.summary_path}")
    if result.any_failed:
        raise NumericalError("one or more trials diverged; see summary")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    _, table = compare_runs(args.summaries)
    print(table, end="")
    return 0


def _cmd_check_schedule(args: argparse.Namespace) -> int:
    cfg = _load_with_overrides(args)
    cfg.check_partition()
    if cfg.iterations < 2:
        raise ConfigError("need at least two rounds to audit growth")
    tasks = [seed_task(cfg, seed) for seed in cfg.seeds]
    for out in settle_seeds(tasks, cfg.local_config(), cfg.nu)[2]:
        print(f"seed {out.seed}:")
        for line in out.conditions.summary_lines():
            print(f"  {line}")
    return 0


def _cmd_dump_availability(args: argparse.Namespace) -> int:
    cfg = _load_with_overrides(args)
    if args.out:
        outdir = resolve_outdir(args.out)
        for seed in cfg.seeds:
            schedule = build_schedule(cfg, seed)
            outdir.mkdir(parents=True, exist_ok=True)  # once a schedule is built
            path = outdir / f"availability_{cfg.scenario}_seed{seed}.txt"
            schedule.save(path)
            print(path)
    else:
        print(build_schedule(cfg, cfg.seeds[0]).to_text(), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dropfed",
        description="Deterministic federated-learning simulator with client dropout",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("config", help="experiment config file (INI format)")
        p.add_argument("--seed-override", help="comma-separated seeds replacing the config's")
        p.add_argument("--trials", type=int, help="number of seeds to run")
        p.add_argument("--out", help="output directory override")

    p_run = sub.add_parser("run", help="run an experiment and write metrics CSVs")
    add_common(p_run)
    p_run.add_argument("--workers", type=int, help="accepted and checked (>= 1), but seeds always "
                       "run in one lockstep pass: it changes neither outputs nor speed")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="rank finished runs at a matched upload budget")
    p_cmp.add_argument("summaries", nargs="+", help="summary.txt files of the runs")
    p_cmp.set_defaults(func=_cmd_compare)

    p_chk = sub.add_parser("check-schedule", help="audit step sizes against stability conditions")
    add_common(p_chk)
    p_chk.set_defaults(func=_cmd_check_schedule)

    p_dmp = sub.add_parser("dump-availability", help="write availability schedules as text")
    add_common(p_dmp)
    p_dmp.set_defaults(func=_cmd_dump_availability)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # under the budget, but more than this machine gives
        detail = " ".join(str(exc).split())
        print("config error: out of memory" + (f": {detail}" if detail else ""), file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader has gone (`| head`): send what is still buffered nowhere.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
