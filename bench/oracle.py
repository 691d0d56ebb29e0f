"""Independent expectations for dropfed outputs, recomputed from a workload.

The oracle does not import dropfed.  It re-derives what a correct run must
report from the reproducibility contract (each consumer of randomness draws
from Philox seeded by SeedSequence(master_seed, spawn_key=(purpose, ...)),
with the purpose tags fixed in ``dropfed.rng``) and from the documented
formulas: availability laws, step-size laws, the logistic smoothness bound
and the stability audit.  That lets every timed command be checked, on any
seed, for the quantities that are exact or nearly so.
"""

from __future__ import annotations

import configparser
import math

import numpy as np

# Purpose tags of the stream contract (dropfed.rng).
DATA = 1
AVAILABILITY = 3


def generator(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=master_seed, spawn_key=key))
    )


def availability(cfg: configparser.ConfigParser, seed: int) -> tuple[np.ndarray, int]:
    """Active-set sizes per round and the largest staleness of a participant."""
    n = cfg.getint("partition", "clients")
    iterations = cfg.getint("federation", "iterations")
    scenario = cfg.get("availability", "scenario")
    rng = generator(seed, AVAILABILITY)
    if scenario == "round_robin":
        tau_max = cfg.getint("availability", "tau_max")
        periods = np.maximum(1, rng.integers(0, tau_max + 1, size=n))
        t = np.arange(iterations)
        sizes = np.zeros(iterations, dtype=np.int64)
        for p, count in zip(*np.unique(periods, return_counts=True)):
            sizes[t % p == 0] += count
        # Client i is active at 0, p_i, 2 p_i, ...; each gap is p_i.
        seen_twice = periods[periods <= iterations - 1]
        return sizes, int(seen_twice.max(initial=0))
    if scenario == "static":
        if not cfg.getboolean("availability", "force_full_start"):
            raise ValueError("the oracle needs force_full_start = true")
        prob = cfg.getfloat("availability", "prob")
        active = np.ones((iterations, n), dtype=bool)
        if iterations > 1:
            active[1:] = rng.random((iterations - 1, n)) <= prob
        worst = 0
        for i in range(n):
            times = np.flatnonzero(active[:, i])
            if len(times) > 1:
                worst = max(worst, int(np.diff(times).max()))
        return active.sum(axis=1).astype(np.int64), worst
    raise ValueError(f"the oracle has no model of scenario {scenario!r}")


def rates(cfg: configparser.ConfigParser, sizes: np.ndarray) -> np.ndarray:
    kind = cfg.get("rates", "kind")
    iterations = len(sizes)
    if kind == "constant":
        return np.full(iterations, cfg.getfloat("rates", "eta0"))
    if kind == "exponential":
        eta0, decay = cfg.getfloat("rates", "eta0"), cfg.getfloat("rates", "decay")
        return eta0 * decay ** np.arange(iterations, dtype=np.float64)
    scale, beta = cfg.getfloat("rates", "scale"), cfg.getfloat("rates", "beta")
    n = cfg.getint("partition", "clients")
    values = np.empty(iterations)
    for t, s in enumerate(sizes):
        if s > 0:
            values[t] = scale * s / (t + beta)
        else:
            values[t] = values[t - 1] if t > 0 else scale * n / beta
    return values


def training_features(cfg: configparser.ConfigParser, seed: int) -> np.ndarray:
    """The pooled training features: one unit-variance Gaussian blob per class."""
    classes = cfg.getint("task", "classes")
    per_class = cfg.getint("task", "per_class")
    dim = cfg.getint("task", "dim")
    separation = cfg.getfloat("task", "separation")
    means = np.zeros((classes, dim))
    if dim == 1:
        means[:, 0] = (np.arange(classes) - (classes - 1) / 2.0) * separation
    else:
        radius = separation / (2.0 * math.sin(math.pi / classes))
        angles = 2.0 * math.pi * np.arange(classes) / classes
        means[:, 0] = radius * np.cos(angles)
        means[:, 1] = radius * np.sin(angles)
    rng = generator(seed, DATA, 0)
    return np.concatenate(
        [means[c] + rng.standard_normal((per_class, dim)) for c in range(classes)]
    )


def logistic_smoothness(cfg: configparser.ConfigParser, seed: int) -> float:
    """Largest client smoothness bound: curvature * max ||[x, 1]||^2 + reg.

    Shards cover the whole training set, so the maximum over clients is the
    maximum over all samples.
    """
    if cfg.get("task", "kind") != "logistic":
        raise ValueError("the oracle bounds smoothness for logistic tasks only")
    x = training_features(cfg, seed)
    aug = np.hstack([x, np.ones((x.shape[0], 1))])
    curvature = 0.25 if cfg.getint("task", "classes") == 2 else 0.5
    return curvature * float(np.max(np.sum(aug * aug, axis=1))) + cfg.getfloat("task", "reg")


def audit(
    cfg: configparser.ConfigParser,
    sizes: np.ndarray,
    eta: np.ndarray,
    smoothness: float,
    max_staleness: int,
) -> dict[str, object]:
    """The stability audit's report lines, keyed as the program prints them."""
    lr = cfg.getfloat("federation", "local_lr")
    steps = cfg.getint("federation", "local_steps")
    n = cfg.getint("partition", "clients")
    nu = cfg.getfloat("rates", "nu")
    tau_max = max(1, max_staleness)
    a = (lr * smoothness) ** 2
    drift = (((2.0 + 2.0 * a) ** steps - 1.0) / (steps * (2.0 * a + 1.0)) + 1.0) * smoothness**2
    divergence = 16.0 * (lr * smoothness) ** 2 * steps * (steps - 1)
    s = np.asarray(sizes, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = eta[:-1] * s[1:] / (eta[1:] * s[:-1])
        lhs = (1.0 / eta[:-1]) * (1.0 / (2.0 * eta[:-1]) - smoothness / 2.0)
        rhs = (rho - nu) * drift * tau_max * n / (2.0 * nu * s[:-1])
    defined = (s[:-1] > 0) & (s[1:] > 0)
    undefined = int((~defined).sum())
    growth_ok = defined & (rho > 1.0)
    step_ok = defined & (lhs >= rhs)
    weight_ok = defined & (nu < rho - 1.0)
    return {
        "rounds_checked": len(rho) - undefined,
        "rounds_undefined": undefined,
        "growth_failures": int((~growth_ok).sum()) - undefined,
        "step_failures": int((~step_ok).sum()) - undefined,
        "weight_failures": int((~weight_ok).sum()) - undefined,
        "drift_gain": drift,
        "divergence_gain": divergence,
        "nu": nu,
        "passed": bool(np.all(growth_ok[defined]) and np.all(step_ok[defined])),
    }
