"""Step-size schedules, gain constants, and the stability audit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropfed.errors import ConfigError, NumericalError
from dropfed.schedules import (
    ConditionReport,
    LrSchedule,
    check_conditions,
    constant_rates,
    divergence_gain,
    drift_gain,
    exponential_rates,
    feasible_inverse_time_scale,
    inverse_time_rates,
)


def test_drift_gain_hand_values():
    # a = (lr L)^2.  K = 1: (2+2a-1)/(2a+1) + 1 = 2 for any a, times L^2.
    assert drift_gain(0.1, 1.0, 1) == pytest.approx(2.0)
    assert drift_gain(0.7, 1.0, 1) == pytest.approx(2.0)
    assert drift_gain(0.1, 2.0, 1) == pytest.approx(8.0)
    # K = 2, a = 0: (4^... ) ((2)^2-1)/(2*1) + 1 = 3/2 + 1 = 2.5.
    assert drift_gain(0.0, 1.0, 2) == pytest.approx(2.5)
    # K = 2, a = 1: ((4)^2-1)/(2*3) + 1 = 15/6 + 1 = 3.5.
    assert drift_gain(1.0, 1.0, 2) == pytest.approx(3.5)


def test_drift_gain_monotone_in_steps():
    vals = [drift_gain(0.1, 1.0, k) for k in range(1, 12)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_drift_gain_overflow_guard():
    with pytest.raises(NumericalError):
        drift_gain(0.1, 1.0, 10_000)
    with pytest.raises(ConfigError):
        drift_gain(0.1, 1.0, 0)
    with pytest.raises(ConfigError):
        drift_gain(-0.1, 1.0, 2)
    with pytest.raises(ConfigError):
        drift_gain(0.1, 0.0, 2)


def test_divergence_gain_values():
    assert divergence_gain(0.1, 1.0, 1) == 0.0  # K = 1 never diverges this way
    assert divergence_gain(0.1, 1.0, 2) == pytest.approx(16 * 0.01 * 2)
    assert divergence_gain(0.5, 2.0, 3) == pytest.approx(16 * 1.0 * 6)
    with pytest.raises(ConfigError):
        divergence_gain(0.1, 1.0, 0)


def test_constant_and_exponential_rates():
    const = constant_rates(0.2, 4)
    np.testing.assert_array_equal(const.values, [0.2] * 4)
    expo = exponential_rates(1.0, 0.5, 4)
    np.testing.assert_allclose(expo.values, [1.0, 0.5, 0.25, 0.125])
    # Consecutive ratio is exactly 1/decay under equal sizes.
    np.testing.assert_allclose(expo.values[:-1] / expo.values[1:], 2.0)
    with pytest.raises(ConfigError):
        constant_rates(0.0, 4)
    with pytest.raises(ConfigError):
        exponential_rates(1.0, 0.0, 4)
    with pytest.raises(ConfigError):
        exponential_rates(1.0, 1.5, 4)


def test_inverse_time_values_and_substitution():
    sizes = np.array([10, 3, 0, 5])
    sched = inverse_time_rates(2.0, 10.0, sizes, num_clients=10)
    np.testing.assert_allclose(
        sched.values, [2.0 * 10 / 10, 2.0 * 3 / 11, 2.0 * 3 / 11, 2.0 * 5 / 13]
    )
    # Empty first round falls back to full-participation form c*N/beta.
    lead = inverse_time_rates(1.0, 5.0, np.array([0, 4]), num_clients=8)
    np.testing.assert_allclose(lead.values, [8.0 / 5.0, 4.0 / 6.0])
    with pytest.raises(ConfigError):
        inverse_time_rates(0.0, 10.0, sizes, 10)
    with pytest.raises(ConfigError):
        inverse_time_rates(1.0, 0.0, sizes, 10)


def inverse_time_loop(scale, beta, sizes, num_clients):
    """The per-round definition: carry the previous rate across empty rounds."""
    values = np.empty(len(sizes))
    for t, s in enumerate(sizes):
        if s > 0:
            values[t] = scale * s / (t + beta)
        else:
            values[t] = values[t - 1] if t > 0 else scale * num_clients / beta
    return values


@settings(max_examples=200, deadline=None)
@given(
    scale=st.floats(1e-3, 1e3),
    beta=st.floats(1e-2, 1e3),
    num_clients=st.integers(1, 1000),
    runs=st.lists(st.tuples(st.booleans(), st.integers(1, 60)), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverse_time_rates_equal_the_per_round_loop(scale, beta, num_clients, runs, seed):
    # Alternating runs of empty and nonempty rounds, possibly starting empty.
    rng = np.random.default_rng(seed)
    sizes = np.concatenate([
        rng.integers(1, num_clients + 1, size=length) if filled else np.zeros(length, dtype=int)
        for filled, length in runs
    ])
    sched = inverse_time_rates(scale, beta, sizes, num_clients)
    values = inverse_time_loop(scale, beta, sizes, num_clients)
    assert sched.values.tobytes() == values.tobytes()


def test_inverse_time_growth_ratio_is_universal():
    # rho_t = (t+beta+1)/(t+beta) whatever the participation sizes do.
    rng = np.random.default_rng(0)
    sizes = rng.integers(1, 11, size=50)
    sched = inverse_time_rates(0.7, 8.0, sizes, 10)
    t = np.arange(49, dtype=float)
    rho = sched.values[:-1] * sizes[1:] / (sched.values[1:] * sizes[:-1])
    np.testing.assert_allclose(rho, (t + 9.0) / (t + 8.0))


def test_lr_schedule_validation():
    with pytest.raises(ConfigError):
        LrSchedule(np.array([]))
    with pytest.raises(ConfigError):
        LrSchedule(np.array([[0.1]]))
    with pytest.raises(ConfigError):
        LrSchedule(np.array([0.1, 0.0]))
    with pytest.raises(ConfigError):
        LrSchedule(np.array([0.1, np.nan]))
    with pytest.raises(ConfigError):
        LrSchedule(np.array([0.1, -1.0]))


def test_feasible_scale_passes_own_audit():
    # The returned c must satisfy the audited inequality at every round even
    # in the worst case of full participation everywhere.
    beta, n, tau = 10.0, 10, 5
    c = feasible_inverse_time_scale(beta, n, tau, smoothness=1.0, local_lr=0.1,
                                    steps=1, nu=0.01, horizon=2000)
    assert c > 0
    sizes = np.full(2000, n)
    sched = inverse_time_rates(c, beta, sizes, n)
    report = check_conditions(sched, sizes, local_lr=0.1, smoothness=1.0,
                              steps=1, tau_max=tau, num_clients=n, nu=0.01)
    assert report.passed


def test_feasible_scale_negative_control():
    # Blowing the returned cap up by 50x must break the audit somewhere.
    beta, n, tau = 10.0, 10, 5
    c = feasible_inverse_time_scale(beta, n, tau, smoothness=1.0, local_lr=0.1,
                                    steps=1, nu=0.01, horizon=500)
    sizes = np.full(500, n)
    sched = inverse_time_rates(50.0 * c, beta, sizes, n)
    report = check_conditions(sched, sizes, local_lr=0.1, smoothness=1.0,
                              steps=1, tau_max=tau, num_clients=n, nu=0.01)
    assert not report.passed


def test_feasible_scale_monotone_in_difficulty():
    base = dict(smoothness=1.0, local_lr=0.1, steps=1, nu=0.01, horizon=500)
    easy = feasible_inverse_time_scale(10.0, 10, 5, **base)
    more_clients = feasible_inverse_time_scale(10.0, 30, 5, **base)
    more_delay = feasible_inverse_time_scale(10.0, 10, 20, **base)
    assert more_clients < easy
    assert more_delay < easy
    with pytest.raises(ConfigError):
        feasible_inverse_time_scale(10.0, 10, 0, **base)
    with pytest.raises(ConfigError):
        feasible_inverse_time_scale(10.0, 10, 5, smoothness=1.0, local_lr=0.1,
                                    steps=1, nu=1.5, horizon=10)


def test_check_conditions_growth_and_rho():
    # Constant rates with constant sizes: rho = 1 exactly, growth fails.
    sizes = np.full(5, 4)
    const = constant_rates(0.1, 5)
    report = check_conditions(const, sizes, local_lr=0.1, smoothness=1.0,
                              steps=1, tau_max=3, num_clients=4)
    np.testing.assert_allclose(report.rho, 1.0)
    assert not report.growth_ok.any()
    assert not report.passed
    # Inverse-time rates with the feasible scale: everything defined passes.
    c = feasible_inverse_time_scale(10.0, 4, 3, smoothness=1.0, local_lr=0.1,
                                    steps=1, horizon=50)
    sched = inverse_time_rates(c, 10.0, sizes[:50], 4)
    good = check_conditions(sched, sizes[:5], local_lr=0.1, smoothness=1.0,
                            steps=1, tau_max=3, num_clients=4)
    assert good.passed
    assert good.undefined == ()


def test_check_conditions_skips_empty_rounds():
    sizes = np.array([4, 0, 4, 4])
    sched = inverse_time_rates(0.01, 10.0, sizes, 4)
    report = check_conditions(sched, sizes, local_lr=0.1, smoothness=1.0,
                              steps=1, tau_max=2, num_clients=4)
    # Rounds 0 and 1 touch the empty round, so both are undefined.
    assert report.undefined == (0, 1)
    assert not report.growth_ok[0] and not report.growth_ok[1]
    # passed only consults the defined rounds.
    assert report.passed == bool(report.growth_ok[2] and report.step_ok[2])


def test_check_conditions_weight_is_informational():
    # Pick nu big enough that nu < rho - 1 fails while growth and step pass.
    sizes = np.full(10, 4)
    c = feasible_inverse_time_scale(10.0, 4, 2, smoothness=1.0, local_lr=0.1,
                                    steps=1, nu=0.5, horizon=50)
    sched = inverse_time_rates(c, 10.0, sizes, 4)
    report = check_conditions(sched, sizes, local_lr=0.1, smoothness=1.0,
                              steps=1, tau_max=2, num_clients=4, nu=0.5)
    # rho - 1 = 1/(t + 10) <= 0.1 < nu here.
    assert not report.weight_ok.any()
    assert report.passed


def test_check_conditions_validation_and_summary():
    sizes = np.full(3, 2)
    sched = constant_rates(0.1, 3)
    with pytest.raises(ConfigError):
        check_conditions(sched, sizes[:2], local_lr=0.1, smoothness=1.0,
                         steps=1, tau_max=1, num_clients=2)
    with pytest.raises(ConfigError):
        check_conditions(constant_rates(0.1, 1), sizes[:1], local_lr=0.1,
                         smoothness=1.0, steps=1, tau_max=1, num_clients=2)
    with pytest.raises(ConfigError):
        check_conditions(sched, sizes, local_lr=0.1, smoothness=1.0,
                         steps=1, tau_max=1, num_clients=2, nu=0.0)
    report = check_conditions(sched, sizes, local_lr=0.1, smoothness=1.0,
                              steps=1, tau_max=1, num_clients=2)
    lines = report.summary_lines()
    assert any(line.startswith("passed = ") for line in lines)
    assert any(line.startswith("drift_gain = ") for line in lines)
    assert isinstance(report, ConditionReport)
