"""Kinematic step equations: substitution values, clamping, and step-composition laws."""

import math

import numpy as np
import pytest

from fcwsim.kinematics import (
    SampleClock,
    TimedState,
    VehicleState,
    step_ca_batch,
    step_position_ca,
    step_position_cv,
    step_velocity_ca,
)


def integrate_clamped(x0, v0, a, duration, n=200_000):
    """Independent oracle: fine-step Euler integration with the speed clamped at rest."""
    dt = duration / n
    x, v = x0, v0
    for _ in range(n):
        v_next = max(0.0, v + a * dt)
        x += 0.5 * (v + v_next) * dt
        v = v_next
    return x


def test_position_cv_substitutions():
    assert step_position_cv(0.0, 0.0, 0.1) == 0.0
    assert step_position_cv(10.0, 20.0, 0.1) == pytest.approx(12.0, rel=1e-9)
    assert step_position_cv(5.0, 3.0, 1.0) == pytest.approx(8.0, rel=1e-9)


def test_velocity_ca_substitutions():
    assert step_velocity_ca(20.0, 0.0, 0.1) == 20.0
    assert step_velocity_ca(20.0, -2.0, 0.5) == pytest.approx(19.0, rel=1e-9)
    assert step_velocity_ca(1.0, -30.0, 0.1) == 0.0  # raw value would be -2


def test_position_ca_substitutions():
    assert step_position_ca(0.0, 0.0, 0.0, 0.1) == 0.0
    assert step_position_ca(0.0, 10.0, -2.0, 1.0) == pytest.approx(9.0, rel=1e-9)


def test_position_ca_stops_mid_interval():
    # stops at t* = 0.1 s; closed form 1*0.1 - 5*0.01 = 0.05
    got = step_position_ca(0.0, 1.0, -10.0, 1.0)
    assert got == pytest.approx(0.05, rel=1e-9)
    assert got == pytest.approx(integrate_clamped(0.0, 1.0, -10.0, 1.0), abs=1e-6)


def test_position_ca_matches_oracle_on_random_braking():
    rng = np.random.default_rng(7)
    for _ in range(25):
        x0 = float(rng.uniform(-50, 50))
        v0 = float(rng.uniform(0, 30))
        a = float(rng.uniform(-10, -0.5))
        dt = float(rng.uniform(0.05, 3.0))
        assert step_position_ca(x0, v0, a, dt) == pytest.approx(
            integrate_clamped(x0, v0, a, dt), abs=1e-5
        )


def test_batch_step_is_the_scalar_step_elementwise():
    rng = np.random.default_rng(11)
    x = rng.uniform(-50, 50, 400)
    v = np.concatenate([rng.uniform(0, 30, 300), np.zeros(50), rng.uniform(0, 0.01, 50)])
    a = np.concatenate([rng.uniform(-10, 3, 350), np.zeros(25), np.full(25, -0.0)])
    for dt in (0.1, 0.05, 1.7):
        bx, bv = step_ca_batch(x, v, a, dt)
        for i in range(len(x)):
            args = float(x[i]), float(v[i]), float(a[i]), dt
            assert (bx[i].hex(), bv[i].hex()) == (step_position_ca(*args).hex(), step_velocity_ca(*args[1:]).hex())


def test_non_finite_inputs_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            step_position_cv(bad, 1.0, 0.1)
        with pytest.raises(ValueError):
            step_velocity_ca(1.0, bad, 0.1)
        with pytest.raises(ValueError):
            step_position_ca(0.0, 1.0, bad, 0.1)


def test_nonpositive_dt_rejected():
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError):
            step_position_cv(0.0, 1.0, dt)
        with pytest.raises(ValueError):
            step_velocity_ca(1.0, 0.0, dt)
        with pytest.raises(ValueError):
            step_position_ca(0.0, 1.0, 0.0, dt)


def test_cv_composition_linearity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = float(rng.uniform(-100, 100))
        v = float(rng.uniform(0, 40))
        dt = float(rng.uniform(1e-3, 1.0))
        twice = step_position_cv(step_position_cv(x, v, dt), v, dt)
        assert twice == pytest.approx(step_position_cv(x, v, 2 * dt), rel=1e-12, abs=1e-12)


def test_ca_reduces_to_cv_for_zero_acceleration():
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = float(rng.uniform(-100, 100))
        v = float(rng.uniform(0, 40))
        dt = float(rng.uniform(1e-3, 1.0))
        assert step_position_ca(x, v, 0.0, dt) == step_position_cv(x, v, dt)


def test_braking_position_nondecreasing_and_bounded():
    rng = np.random.default_rng(17)
    for _ in range(100):
        x = float(rng.uniform(-10, 10))
        v = float(rng.uniform(0, 40))
        a = float(rng.uniform(-10, -0.1))
        bound = x + v * v / (2 * abs(a))
        prev = x
        for dt in np.linspace(0.01, 30.0, 40):
            cur = step_position_ca(x, v, a, float(dt))
            assert cur >= prev - 1e-12
            assert cur <= bound + 1e-9
            prev = cur


def test_velocity_never_negative():
    rng = np.random.default_rng(19)
    for _ in range(500):
        v = float(rng.uniform(0, 40))
        a = float(rng.uniform(-50, 10))
        dt = float(rng.uniform(1e-3, 5.0))
        assert step_velocity_ca(v, a, dt) >= 0.0


def test_vehicle_state_validation():
    VehicleState(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        VehicleState(math.nan, 0.0, 0.0)
    with pytest.raises(ValueError):
        VehicleState(0.0, -0.1, 0.0)
    with pytest.raises(ValueError):
        VehicleState(0.0, 0.0, math.inf)


def test_timed_state_and_clock_validation():
    TimedState(0.0, VehicleState(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        TimedState(-1.0, VehicleState(0.0, 0.0, 0.0))
    assert SampleClock().t_s == 0.1
    with pytest.raises(ValueError):
        SampleClock(t_s=0.0)
    with pytest.raises(ValueError):
        SampleClock(t_s=0.1, step_index=-1)
