"""Output checks for one dropfed command.

Two kinds of check run on a command's outputs:

* against stored references, taken with ``run.py --write-references`` from a
  serial run at the commit that defined the benchmark, for the fixed
  reference seeds of each workload;
* against the oracle's independent expectations, for every seed.

Integer columns, counts and flags must match exactly.  Floats match within
RTOL: a wrong result (another batch, stream, client or formula) moves them
by far more, while an ulp move, even grown over a few dozen rounds, stays
far below it.
"""

from __future__ import annotations

import configparser
import csv
import math
from pathlib import Path

import numpy as np

import oracle

RTOL = 1e-8
# Absolute slack for CSV floats, as a share of the column's largest magnitude:
# a quantity that is exactly zero in one implementation may come out at
# rounding level in another (gamma_t of a full round, for one).
COLUMN_ATOL = 1e-12
SCALAR_ATOL = 1e-15

COLUMNS = ("t", "loss", "grad_norm2", "E_t", "gamma_t", "phi_hat", "n_active", "uploads", "acc", "eta_t")
INT_COLUMNS = ("t", "n_active", "uploads")


def close(a: float, b: float, atol: float = SCALAR_ATOL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + atol


def read_csv(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return {}
    header, body = rows[0], rows[1:]
    return {name: [r[j] if j < len(r) else "" for r in body] for j, name in enumerate(header)}


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def compare_csv(got: Path, ref: Path) -> list[str]:
    """Mismatches between a metrics CSV and its reference, first per column."""
    g, r = read_csv(got), read_csv(ref)
    if list(g) != list(r):
        return [f"{got.name}: columns {list(g)} != {list(r)}"]
    problems = []
    for col, ref_vals in r.items():
        got_vals = g[col]
        if len(got_vals) != len(ref_vals):
            problems.append(f"{got.name}: {len(got_vals)} rows != {len(ref_vals)}")
            break
        if col in INT_COLUMNS:
            bad = [j for j, (a, b) in enumerate(zip(got_vals, ref_vals)) if a != b]
        else:
            ref_f = [_float(v) for v in ref_vals]
            finite = [abs(v) for v in ref_f if math.isfinite(v)]
            atol = COLUMN_ATOL * max(finite, default=0.0)
            bad = [
                j for j, (a, b) in enumerate(zip(got_vals, ref_f))
                if not close(_float(a), b, atol)
            ]
        if bad:
            j = bad[0]
            problems.append(f"{got.name}: {col}[{j}] = {got_vals[j]} != {ref_vals[j]}")
    return problems


def parse_report(text: str) -> dict[tuple[str, str], str]:
    """`key = value` lines keyed by (heading, key); any other line is a heading."""
    out: dict[tuple[str, str], str] = {}
    heading = ""
    for line in text.splitlines():
        if " = " in line:
            key, value = line.strip().split(" = ", 1)
            out[(heading, key)] = value
        elif line.strip():
            heading = line.strip()
    return out


def _value_matches(got: str, ref: str) -> bool:
    try:
        return int(got) == int(ref)
    except ValueError:
        pass
    try:
        return close(float(got), float(ref))
    except ValueError:
        return got == ref


def compare_report(got_text: str, ref_text: str, name: str) -> list[str]:
    """Mismatches between two summary or audit reports."""
    g, r = parse_report(got_text), parse_report(ref_text)
    if set(g) != set(r):
        missing = sorted(set(r) - set(g))[:3]
        extra = sorted(set(g) - set(r))[:3]
        return [f"{name}: keys differ, missing {missing}, extra {extra}"]
    return [
        f"{name}: [{h}] {k} = {g[(h, k)]} != {r[(h, k)]}"
        for (h, k) in r
        if not _value_matches(g[(h, k)], r[(h, k)])
    ]


def compare_with_references(command: str, outdir: Path, stdout: str, refdir: Path) -> list[str]:
    if command == "check-schedule":
        return compare_report(stdout, (refdir / "audit.txt").read_text(), "audit")
    problems = []
    refs = sorted(p.name for p in refdir.iterdir())
    got = sorted(p.name for p in outdir.iterdir()) if outdir.is_dir() else []
    if got != refs:
        return [f"output files {got} != {refs}"]
    for name in refs:
        if name.endswith(".csv"):
            problems += compare_csv(outdir / name, refdir / name)
        else:
            problems += compare_report(
                (outdir / name).read_text(), (refdir / name).read_text(), name
            )
    return problems


# ---------------------------------------------------------------------------
# Independent checks.


def _compare_audit(report: dict, heading: str, expected: dict, prefix: str) -> list[str]:
    problems = []
    for key, want in expected.items():
        got = report.get((heading, key))
        if got is None:
            problems.append(f"{prefix}: no {key}")
        elif isinstance(want, (bool, int)):
            if got != str(want):
                problems.append(f"{prefix}: {key} = {got}, expected {want}")
        elif not close(_float(got), want):
            problems.append(f"{prefix}: {key} = {got}, expected {want!r}")
    return problems


def _check_metrics_csv(cfg, path, sizes, eta) -> list[str]:
    if not path.is_file():
        return [f"missing {path.name}"]
    cols = read_csv(path)
    if tuple(cols) != COLUMNS:
        return [f"{path.name}: columns {list(cols)}"]
    tag = path.name
    problems = []
    iterations = len(sizes)
    t = [int(v) for v in cols["t"]]
    if t != list(range(iterations)):
        return [f"{tag}: rounds {t[:3]}... of {len(t)}, expected {iterations}"]
    per_round = 2 if cfg.get("federation", "algorithm") == "scaffold" else 1
    n_active = np.array([int(v) for v in cols["n_active"]])
    uploads = np.array([int(v) for v in cols["uploads"]])
    if not np.array_equal(n_active, sizes):
        problems.append(f"{tag}: n_active differs from the availability law")
    if not np.array_equal(uploads, np.cumsum(sizes * per_round)):
        problems.append(f"{tag}: uploads differ from the cumulative active count")
    f = {c: np.array([_float(v) for v in cols[c]]) for c in COLUMNS if c not in INT_COLUMNS}
    if not all(close(a, b) for a, b in zip(f["eta_t"], eta)):
        problems.append(f"{tag}: eta_t differs from the rate law")
    for c in ("loss", "grad_norm2"):
        if not np.all(np.isfinite(f[c]) & (f[c] >= 0)):
            problems.append(f"{tag}: {c} not finite and non-negative")
    active = sizes > 0
    for c in ("E_t", "gamma_t"):
        ok = np.where(active, np.isfinite(f[c]) & (f[c] >= 0), np.isnan(f[c]))
        if not ok.all():
            problems.append(f"{tag}: {c} wrong on round {int(np.flatnonzero(~ok)[0])}")
    every = cfg.getint("run", "phi_every")
    measured = active & (cfg.getint("run", "phi_replays") >= 2) & (every > 0)
    if every > 0:
        measured &= np.arange(iterations) % every == 0
    ok = np.where(measured, np.isfinite(f["phi_hat"]) & (f["phi_hat"] >= 0), np.isnan(f["phi_hat"]))
    if not ok.all():
        problems.append(f"{tag}: phi_hat wrong on round {int(np.flatnonzero(~ok)[0])}")
    pool = cfg.getint("task", "classes") * cfg.getint("task", "test_per_class")
    acc = f["acc"]
    if pool > 0:
        hits = acc * pool
        if not np.all((acc >= 0) & (acc <= 1) & (np.abs(hits - np.round(hits)) < 1e-6)):
            problems.append(f"{tag}: acc is not a share of the {pool} test samples")
    elif not np.all(np.isnan(acc)):
        problems.append(f"{tag}: acc reported without a test pool")
    if cfg.get("task", "kind") == "logistic" and cfg.get("federation", "init") == "zeros":
        # Zero weights give every class probability 1/C.
        if not close(f["loss"][0], math.log(cfg.getint("task", "classes")), 1e-12):
            problems.append(f"{tag}: loss[0] = {f['loss'][0]!r}, expected log(classes)")
    return problems


def check_run(cfg: configparser.ConfigParser, seeds, outdir: Path) -> tuple[dict[int, list[str]], int]:
    """Problems per seed (key -1: the whole command) and the summed active counts."""
    algorithm = cfg.get("federation", "algorithm")
    scenario = cfg.get("availability", "scenario")
    problems: dict[int, list[str]] = {s: [] for s in (-1, *seeds)}
    summary_path = outdir / "summary.txt"
    if not summary_path.is_file():
        problems[-1].append("no summary.txt")
        return problems, 0
    report = parse_report(summary_path.read_text())
    if report.get(("[aggregate]", "failed_trials")) != "0":
        problems[-1].append("failed_trials is not 0")
    if report.get(("[run]", "seeds")) != ",".join(str(s) for s in seeds):
        problems[-1].append("summary seed list differs from the command's")
    totals = []
    client_rounds = 0
    for seed in seeds:
        sizes, stale = oracle.availability(cfg, seed)
        eta = oracle.rates(cfg, sizes)
        client_rounds += int(sizes.sum())
        name = f"{algorithm}_{scenario}_seed{seed}.csv"
        mine = problems[seed]
        mine += _check_metrics_csv(cfg, outdir / name, sizes, eta)
        section = f"[trial.{seed}]"
        uploads = int(np.cumsum(sizes * (2 if algorithm == "scaffold" else 1))[-1])
        totals.append(uploads)
        expected = {
            "csv": name, "failed": "False", "failure_round": "-1",
            "uploads_total": str(uploads), "max_staleness": str(stale),
        }
        for key, want in expected.items():
            got = report.get((section, key))
            if got != want:
                mine.append(f"{section} {key} = {got}, expected {want}")
        if not mine and (outdir / name).is_file():
            grads = [_float(v) for v in read_csv(outdir / name)["grad_norm2"]]
            if not close(_float(report.get((section, "min_grad_norm2"), "nan")), min(grads)):
                mine.append(f"{section} min_grad_norm2 is not the column minimum")
            if not close(_float(report.get((section, "rate_mass"), "nan")), float(eta.sum())):
                mine.append(f"{section} rate_mass is not the summed rates")
            for key in ("final_loss", "final_grad_norm2"):
                if not math.isfinite(_float(report.get((section, key), "nan"))):
                    mine.append(f"{section} {key} is not finite")
        if cfg.get("task", "kind") == "logistic":
            want = oracle.audit(cfg, sizes, eta, oracle.logistic_smoothness(cfg, seed), stale)
            mine += _compare_audit(report, f"[trial.{seed}.conditions]", want, section)
    if totals and report.get(("[aggregate]", "uploads_budget")) != str(min(totals)):
        problems[-1].append("uploads_budget is not the smallest trial upload count")
    return problems, client_rounds


def check_audit(cfg: configparser.ConfigParser, seeds, stdout: str) -> tuple[dict[int, list[str]], int]:
    """Problems per seed of a check-schedule command and the summed active counts."""
    problems: dict[int, list[str]] = {s: [] for s in (-1, *seeds)}
    report = parse_report(stdout)
    headings = [f"seed {s}:" for s in seeds]
    if sorted({h for h, _ in report}) != sorted(headings):
        problems[-1].append(f"audit sections {sorted({h for h, _ in report})}")
    client_rounds = 0
    for seed, heading in zip(seeds, headings):
        sizes, stale = oracle.availability(cfg, seed)
        eta = oracle.rates(cfg, sizes)
        client_rounds += int(sizes.sum())
        want = oracle.audit(cfg, sizes, eta, oracle.logistic_smoothness(cfg, seed), stale)
        problems[seed] += _compare_audit(report, heading, want, heading)
    return problems, client_rounds
