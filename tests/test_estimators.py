"""Estimator behavior: dead-reckoning substitutions, exactness under loss, filter health."""

import math

import numpy as np
import pytest

from fcwsim.channel import ReceivedSlot, apply_mask
from fcwsim.errors import ConfigError
from fcwsim.estimators import (
    DeadReckonState,
    EstimatorKind,
    KalmanConfig,
    KalmanState,
    ca_predict,
    cv_predict,
    estimate_stream,
    kalman_correct,
    kalman_emit,
    kalman_init,
    kalman_predict,
)
from fcwsim.kinematics import SampleClock, TimedState, VehicleState, step_position_ca, step_velocity_ca

CLOCK = SampleClock(t_s=0.1)


def fold_trace(x0, v0, segments, t_s=0.1):
    """Build a piecewise-constant-acceleration truth sequence with the step functions.

    segments: list of (acceleration, n_steps). Returns TimedStates; the
    recorded acceleration at each step is the one active over the next
    interval, so segment breakpoints land on exact sample indices.
    """
    states = []
    x, v = x0, v0
    k = 0
    for a, steps in segments:
        for _ in range(steps):
            states.append(TimedState(k * t_s, VehicleState(x, v, a)))
            x = step_position_ca(x, v, a, t_s)
            v = step_velocity_ca(v, a, t_s)
            k += 1
    states.append(TimedState(k * t_s, VehicleState(x, v, segments[-1][0])))
    return states


def test_cv_predict_substitutions():
    s = DeadReckonState(VehicleState(0.0, 0.0, 0.0))
    assert cv_predict(s, 0.1).est == VehicleState(0.0, 0.0, 0.0)
    s = DeadReckonState(VehicleState(12.0, 20.0, -3.0))
    assert cv_predict(s, 0.1).est == VehicleState(14.0, 20.0, 0.0)
    s = DeadReckonState(VehicleState(0.0, 5.0, 0.0))
    assert cv_predict(cv_predict(s, 0.1), 0.1).est.x == pytest.approx(1.0, rel=1e-12)


def test_ca_predict_substitutions():
    s = DeadReckonState(VehicleState(0.0, 10.0, 0.0))
    assert ca_predict(s, 0.1).est == VehicleState(1.0, 10.0, 0.0)
    s = DeadReckonState(VehicleState(0.0, 10.0, -2.0))
    got = ca_predict(s, 0.1).est
    assert got.x == pytest.approx(0.99, rel=1e-9)
    assert got.v == pytest.approx(9.8, rel=1e-9)
    assert got.a == -2.0


def test_ca_predict_stopping():
    # stops at t* = 0.01 s: x = 0.1*0.01 - 5*0.0001 = 0.0005
    s = DeadReckonState(VehicleState(0.0, 0.1, -10.0))
    got = ca_predict(s, 0.1).est
    assert got.x == pytest.approx(0.0005, rel=1e-9)
    assert got.v == 0.0
    assert got.a == -10.0


def test_kalman_predict_substitutions():
    s = KalmanState(np.array([2.0, 0.0]), np.zeros((2, 2)), 0.0)
    got = kalman_predict(s, 0.1, q=1.0)
    assert got.mean == pytest.approx([2.0, 0.2], rel=1e-12)

    s = KalmanState(np.array([10.0, 0.0]), np.zeros((2, 2)), -2.0)
    got = kalman_predict(s, 0.1, q=1.0)
    assert got.mean == pytest.approx([9.8, 0.99], rel=1e-12)

    s = KalmanState(np.array([0.0, 0.0]), np.eye(2), 0.0)
    got = kalman_predict(s, 0.1, q=0.0)
    assert got.cov == pytest.approx(np.array([[1.0, 0.1], [0.1, 1.01]]), rel=1e-12)


def test_kalman_correct_zero_gain():
    s = KalmanState(np.array([1.0, 2.0]), np.zeros((2, 2)), 0.0)
    got = kalman_correct(s, 100.0, 1.0)
    assert got.mean == pytest.approx([1.0, 2.0], abs=0.0)


def test_kalman_correct_perfect_measurement_limit():
    s = KalmanState(np.array([5.0, 10.0]), np.eye(2), 0.0)
    got = kalman_correct(s, 12.0, 1e-12)
    assert got.mean[1] == pytest.approx(12.0, abs=1e-9)


def test_kalman_correct_scalar_innovation():
    s = KalmanState(np.array([0.0, 0.0]), np.eye(2), 0.0)
    got = kalman_correct(s, 2.0, 1.0)
    assert got.mean == pytest.approx([0.0, 1.0], rel=1e-12)
    assert got.cov[1, 1] == pytest.approx(0.5, rel=1e-12)


def test_kalman_correct_rejects_bad_inputs():
    s = KalmanState(np.array([0.0, 0.0]), np.eye(2), 0.0)
    with pytest.raises(ValueError):
        kalman_correct(s, math.nan, 1.0)
    with pytest.raises(ValueError):
        kalman_correct(s, 0.0, 0.0)


def test_kalman_emit_mapping():
    s = KalmanState(np.array([9.8, 0.99]), np.eye(2), -2.0)
    assert kalman_emit(s) == VehicleState(0.99, 9.8, -2.0)
    s = KalmanState(np.array([-0.5, 3.0]), np.eye(2), 0.0)
    assert kalman_emit(s) == VehicleState(3.0, 0.0, 0.0)
    s = kalman_init(VehicleState(7.0, 4.0, 1.0), KalmanConfig())
    assert kalman_emit(s) == VehicleState(7.0, 4.0, 1.0)


def test_kalman_config_validation():
    with pytest.raises(ConfigError):
        KalmanConfig(q=0.0)
    with pytest.raises(ConfigError):
        KalmanConfig(r=-1.0)
    with pytest.raises(ConfigError):
        KalmanConfig(p0=-0.5)


def test_stream_requires_delivered_first_slot():
    with pytest.raises(ValueError):
        estimate_stream([], EstimatorKind.CONSTANT_VELOCITY, CLOCK)
    slots = [ReceivedSlot(0, None), ReceivedSlot(1, None)]
    with pytest.raises(ValueError):
        estimate_stream(slots, EstimatorKind.CONSTANT_VELOCITY, CLOCK)


def test_stream_no_loss_snaps_to_received():
    states = fold_trace(0.0, 20.0, [(0.0, 30), (-3.0, 40)])
    slots = apply_mask(states, [True] * len(states))
    for kind in (EstimatorKind.CONSTANT_VELOCITY, EstimatorKind.CONSTANT_ACCELERATION):
        estimates = estimate_stream(slots, kind, CLOCK)
        assert estimates == [ts.state for ts in states]


def test_cv_stream_under_loss():
    states = [
        TimedState(0.0, VehicleState(0.0, 10.0, -2.0)),
        TimedState(0.1, VehicleState(0.0, 10.0, -2.0)),  # payload ignored: dropped
        TimedState(0.2, VehicleState(0.0, 10.0, -2.0)),
    ]
    slots = apply_mask(states, [True, False, False])
    estimates = estimate_stream(slots, EstimatorKind.CONSTANT_VELOCITY, CLOCK)
    assert [e.x for e in estimates] == pytest.approx([0.0, 1.0, 2.0], rel=1e-9)
    assert [e.v for e in estimates] == [10.0, 10.0, 10.0]
    assert [e.a for e in estimates] == [-2.0, 0.0, 0.0]


def test_ca_stream_under_loss():
    states = [
        TimedState(0.0, VehicleState(0.0, 10.0, -2.0)),
        TimedState(0.1, VehicleState(0.0, 10.0, -2.0)),
        TimedState(0.2, VehicleState(0.0, 10.0, -2.0)),
    ]
    slots = apply_mask(states, [True, False, False])
    estimates = estimate_stream(slots, EstimatorKind.CONSTANT_ACCELERATION, CLOCK)
    # hand iteration; closed form x(t) = 10t - t^2 agrees at t = 0.1, 0.2
    assert [e.v for e in estimates] == pytest.approx([10.0, 9.8, 9.6], rel=1e-9)
    assert [e.x for e in estimates] == pytest.approx([0.0, 0.99, 1.96], rel=1e-9)
    assert all(e.a == -2.0 for e in estimates)
    assert estimates[1].x == pytest.approx(10 * 0.1 - 0.1**2, rel=1e-9)
    assert estimates[2].x == pytest.approx(10 * 0.2 - 0.2**2, rel=1e-9)


def random_mask(rng, n):
    mask = [bool(rng.random() > 0.5) for _ in range(n)]
    mask[0] = True
    return mask


def test_cv_exact_on_constant_velocity_trajectories():
    rng = np.random.default_rng(23)
    for _ in range(50):
        v = float(rng.uniform(0, 35))
        states = fold_trace(float(rng.uniform(-10, 10)), v, [(0.0, 60)])
        slots = apply_mask(states, random_mask(rng, len(states)))
        estimates = estimate_stream(slots, EstimatorKind.CONSTANT_VELOCITY, CLOCK)
        for est, ts in zip(estimates, states):
            assert est.x - ts.state.x == 0.0
            assert est.v == ts.state.v


def test_ca_exact_on_piecewise_constant_acceleration():
    rng = np.random.default_rng(29)
    for _ in range(50):
        segments = [
            (0.0, int(rng.integers(5, 20))),
            (float(rng.uniform(-6, -1)), int(rng.integers(5, 40))),
            (0.0, int(rng.integers(5, 20))),
        ]
        states = fold_trace(0.0, float(rng.uniform(10, 30)), segments)
        breakpoints = {0, segments[0][1], segments[0][1] + segments[1][1]}
        mask = random_mask(rng, len(states))
        for b in breakpoints:
            mask[b] = True
        estimates = estimate_stream(apply_mask(states, mask), EstimatorKind.CONSTANT_ACCELERATION, CLOCK)
        for est, ts in zip(estimates, states):
            assert est.x - ts.state.x == 0.0
            assert est.v - ts.state.v == 0.0


def test_kalman_covariance_stays_symmetric_psd():
    rng = np.random.default_rng(31)
    kcfg = KalmanConfig()
    s = kalman_init(VehicleState(0.0, 10.0, 0.0), kcfg)
    for _ in range(1000):
        if rng.random() < 0.5:
            s = kalman_predict(s, 0.1, kcfg.q)
        else:
            s = kalman_correct(s, float(rng.normal(0, 50)), kcfg.r)
        assert np.allclose(s.cov, s.cov.T, rtol=1e-9, atol=0.0)
        eigs = np.linalg.eigvalsh(s.cov)
        assert eigs.min() >= -1e-9 * np.trace(s.cov)


def test_kalman_tracks_noiseless_constant_acceleration():
    states = fold_trace(0.0, 25.0, [(-2.0, 80)])
    slots = apply_mask(states, [True] * len(states))
    estimates = estimate_stream(slots, EstimatorKind.KALMAN, CLOCK, KalmanConfig())
    errs = [abs(e.x - ts.state.x) for e, ts in zip(estimates, states)]
    assert max(errs[:50]) < 1e-3


def test_kalman_converges_from_perturbed_init():
    # wrong initial speed (+2 m/s) and inflated covariance; measured decay
    # reaches ~3e-11 by step 50 with the default tuning
    dt, a = 0.1, -2.0
    kcfg = KalmanConfig(p0=10.0)
    x_t, v_t = 0.0, 15.0
    s = KalmanState(np.array([v_t + 2.0, x_t]), np.eye(2) * kcfg.p0, a)
    err = None
    for _ in range(50):
        x_t = step_position_ca(x_t, v_t, a, dt)
        v_t = step_velocity_ca(v_t, a, dt)
        s = kalman_predict(s, dt, kcfg.q)
        s = kalman_correct(s, x_t, kcfg.r)
        err = abs(kalman_emit(s).x - x_t)
    assert err < 1e-3


def test_kalman_ignores_received_velocity_between_updates():
    # corrupt the received speeds: position estimates must not change
    states = fold_trace(0.0, 20.0, [(-1.0, 40)])
    tweaked = [
        TimedState(ts.t, VehicleState(ts.state.x, ts.state.v + 3.0, ts.state.a))
        for ts in states
    ]
    tweaked[0] = states[0]  # same initialization sample
    mask = [True] * len(states)
    a = estimate_stream(apply_mask(states, mask), EstimatorKind.KALMAN, CLOCK)
    b = estimate_stream(apply_mask(tweaked, mask), EstimatorKind.KALMAN, CLOCK)
    assert [e.x for e in a] == [e.x for e in b]


def test_ca_beats_cv_position_error_smoke():
    from fcwsim.harness import derive_seed, run_scenario
    from fcwsim.scenarios import GenConfig, generate_fleet

    fleet = generate_fleet(GenConfig(n_scenarios=10))
    sums = {EstimatorKind.CONSTANT_VELOCITY: 0.0, EstimatorKind.CONSTANT_ACCELERATION: 0.0}
    for trace in fleet:
        for seed_index in range(10):
            seed = derive_seed(0, trace.id, 0.3, seed_index)
            for kind in sums:
                log, _ = run_scenario(trace, kind, 0.3, seed)
                sums[kind] += sum(abs(r.est_state.x - r.true_state.x) for r in log)
    assert sums[EstimatorKind.CONSTANT_ACCELERATION] < sums[EstimatorKind.CONSTANT_VELOCITY]
