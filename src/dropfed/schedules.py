"""Server step-size schedules and the conditions that make them safe.

The inverse-time schedule eta_t = c * |S_t| / (t + beta) is the one the
correction-variable analysis favors: consecutive rates then satisfy the
growth ratio rho_t = eta_t |S_{t+1}| / (eta_{t+1} |S_t|) = (t+beta+1)/(t+beta) > 1
regardless of participation sizes.  `feasible_inverse_time_scale` computes
the largest coefficient c that keeps the per-round stability inequality true
for every horizon round at once, and `check_conditions` audits any realized
(eta_t, |S_t|) pair sequence after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError


def check_steps(steps: int) -> None:
    """Reject a local step count K below 1."""
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")


def drift_gain(local_lr: float, smoothness: float, steps: int) -> float:
    """Amplification of a broadcast-model perturbation through K local steps.

    Equals [((2 + 2*a)^K - 1) / (K * (2a + 1)) + 1] * L^2 with a = (lr*L)^2.
    Grows geometrically in K, so absurd K overflows; that raises rather than
    returning inf because downstream feasibility math would silently pass.
    """
    check_steps(steps)
    if local_lr < 0 or smoothness <= 0:
        raise ConfigError("need local_lr >= 0 and smoothness > 0")
    a = (local_lr * smoothness) ** 2
    base = 2.0 + 2.0 * a
    if steps * math.log2(base) > 1000.0:
        raise NumericalError(f"drift gain overflows for steps={steps}")
    return ((base**steps - 1.0) / (steps * (2.0 * a + 1.0)) + 1.0) * smoothness**2


def divergence_gain(local_lr: float, smoothness: float, steps: int) -> float:
    """16 (lr L)^2 K (K-1): plain local SGD needs this below 1 to stay stable."""
    check_steps(steps)
    return 16.0 * (local_lr * smoothness) ** 2 * steps * (steps - 1)


@dataclass(frozen=True)
class LrSchedule:
    """Realized per-iteration server step sizes."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or len(vals) == 0:
            raise ConfigError("schedule needs a non-empty 1-D value array")
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            raise ConfigError("step sizes must be finite and positive")
        object.__setattr__(self, "values", vals)


def check_finite(name: str, value: float) -> None:
    """The rule of every float option: NaN and +-inf pass range checks written with < and <=."""
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")


def check_positive(name: str, value: float) -> None:
    """The rule of eta0 (constant, exponential) and of scale and beta (inverse_time)."""
    if value <= 0:
        raise ConfigError(f"{name} must be > 0, got {value}")


def check_decay(decay: float) -> None:
    if not 0.0 < decay <= 1.0:
        raise ConfigError(f"decay must be in (0, 1], got {decay}")


def check_nu(nu: float) -> None:
    if not 0.0 < nu < 1.0:
        raise ConfigError(f"nu must be in (0, 1), got {nu}")


def constant_rates(eta0: float, iterations: int) -> LrSchedule:
    check_positive("eta0", eta0)
    return LrSchedule(np.full(iterations, float(eta0)))


def exponential_rates(eta0: float, decay: float, iterations: int) -> LrSchedule:
    """eta_t = eta0 * decay^t with decay in (0, 1]."""
    check_positive("eta0", eta0)
    check_decay(decay)
    return LrSchedule(eta0 * decay ** np.arange(iterations, dtype=np.float64))


def inverse_time_rates(
    scale: float, beta: float, sizes: np.ndarray, num_clients: int
) -> LrSchedule:
    """eta_t = scale * |S_t| / (t + beta), the participation-scaled decay law.

    Empty rounds have no defined rate; they inherit the previous round's
    value (full participation at t = 0 for an empty start).
    """
    check_positive("scale", scale)
    check_positive("beta", beta)
    sizes = np.asarray(sizes, dtype=np.int64)
    rounds = np.arange(len(sizes))
    # Each round reads the rate of the last nonempty round up to it, if any.
    source = np.maximum.accumulate(np.where(sizes > 0, rounds, -1))
    values = (scale * sizes / (rounds + beta))[source]
    values[source < 0] = scale * num_clients / beta
    return LrSchedule(values)


def feasible_inverse_time_scale(
    beta: float, num_clients: int, tau_max: int, smoothness: float, local_lr: float, steps: int,
    nu: float = 0.01, horizon: int = 10_000,
) -> float:
    """Largest inverse-time coefficient c passing the stability check everywhere.

    For each round the check reduces to A_t c^2 + B_t c - C_t <= 0 with

        A_t = phi * tau_max * N^2 * ((1 - nu) (t + beta) + 1)
        B_t = nu * L * N * (t + beta)^2
        C_t = nu * (t + beta)^3

    (phi = drift_gain), derived by bounding the participation size by N.  The
    positive root gives the per-round cap; the minimum over the horizon is
    returned, backed off by one part in 1e9 so the binding round still passes
    under floating-point evaluation instead of sitting on exact equality.
    """
    check_nu(nu)
    if tau_max < 1 or num_clients < 1 or horizon < 1:
        raise ConfigError("tau_max, num_clients, horizon must be >= 1")
    phi = drift_gain(local_lr, smoothness, steps)
    t = np.arange(horizon, dtype=np.float64) + beta
    a = phi * tau_max * num_clients**2 * ((1.0 - nu) * t + 1.0)
    b = nu * smoothness * num_clients * t**2
    c = nu * t**3
    roots = (np.sqrt(b * b + 4.0 * a * c) - b) / (2.0 * a)
    return float(roots.min()) * (1.0 - 1e-9)


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of auditing a realized schedule against the stability theory.

    `rho` and the per-round checks cover iterations 0..T-2 (the growth ratio
    needs a successor rate).  `undefined` lists rounds excluded because a
    participation size was zero.  `weight_ok` (nu < rho_t - 1, needed by the
    telescoping weights) is informational; `passed` requires only the growth
    and step-size checks.
    """

    rho: np.ndarray
    growth_ok: np.ndarray
    step_ok: np.ndarray
    weight_ok: np.ndarray
    undefined: tuple[int, ...]
    nu: float
    drift: float
    divergence: float
    passed: bool

    def summary_lines(self) -> list[str]:
        evaluated = len(self.rho) - len(self.undefined)
        return [
            f"rounds_checked = {evaluated}",
            f"rounds_undefined = {len(self.undefined)}",
            f"growth_failures = {int((~self.growth_ok).sum() - len(self.undefined))}",
            f"step_failures = {int((~self.step_ok).sum() - len(self.undefined))}",
            f"weight_failures = {int((~self.weight_ok).sum() - len(self.undefined))}",
            f"drift_gain = {self.drift!r}",
            f"divergence_gain = {self.divergence!r}",
            f"nu = {self.nu!r}",
            f"passed = {self.passed}",
        ]


def check_conditions(
    schedule: LrSchedule, sizes: np.ndarray, *, local_lr: float, smoothness: float, steps: int,
    tau_max: int, num_clients: int, nu: float = 0.01,
) -> ConditionReport:
    """Audit every executed round with a successor for the two stability checks.

    Growth: rho_t = eta_t |S_{t+1}| / (eta_{t+1} |S_t|) must exceed 1.
    Step size: (1/eta_t) (1/(2 eta_t) - L/2) must cover
    (rho_t - nu) * drift_gain * tau_max * N / (2 nu |S_t|).
    """
    check_nu(nu)
    eta = schedule.values
    sizes = np.asarray(sizes, dtype=np.float64)
    if len(sizes) != len(eta):
        raise ConfigError(f"{len(sizes)} sizes for {len(eta)} rates")
    if len(eta) < 2:
        raise ConfigError("need at least two rounds to audit growth")
    phi = drift_gain(local_lr, smoothness, steps)
    div = divergence_gain(local_lr, smoothness, steps)

    with np.errstate(divide="ignore", invalid="ignore"):
        rho = eta[:-1] * sizes[1:] / (eta[1:] * sizes[:-1])
        lhs = (1.0 / eta[:-1]) * (1.0 / (2.0 * eta[:-1]) - smoothness / 2.0)
        rhs = (rho - nu) * phi * tau_max * num_clients / (2.0 * nu * sizes[:-1])
    defined = (sizes[:-1] > 0) & (sizes[1:] > 0)
    undefined = tuple(int(t) for t in np.nonzero(~defined)[0])
    growth_ok = defined & (rho > 1.0)
    step_ok = defined & (lhs >= rhs)
    weight_ok = defined & (nu < rho - 1.0)
    passed = bool(np.all(growth_ok[defined]) and np.all(step_ok[defined]))
    return ConditionReport(rho, growth_ok, step_ok, weight_ok, undefined, nu, phi, div, passed)
