"""Estimator behavior: dead-reckoning substitutions, exactness under loss, filter health."""

import math

import numpy as np
import pytest

from fcwsim.channel import ReceivedSlot, apply_mask
from fcwsim.errors import ConfigError
from fcwsim.estimators import (
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
from tracebuild import fold_trace

CLOCK = SampleClock(t_s=0.1)


def test_cv_predict_substitutions():
    assert cv_predict(VehicleState(0.0, 0.0, 0.0), 0.1) == VehicleState(0.0, 0.0, 0.0)
    assert cv_predict(VehicleState(12.0, 20.0, -3.0), 0.1) == VehicleState(14.0, 20.0, 0.0)
    s = VehicleState(0.0, 5.0, 0.0)
    assert cv_predict(cv_predict(s, 0.1), 0.1).x == pytest.approx(1.0, rel=1e-12)


def test_ca_predict_substitutions():
    assert ca_predict(VehicleState(0.0, 10.0, 0.0), 0.1) == VehicleState(1.0, 10.0, 0.0)
    got = ca_predict(VehicleState(0.0, 10.0, -2.0), 0.1)
    assert got.x == pytest.approx(0.99, rel=1e-9)
    assert got.v == pytest.approx(9.8, rel=1e-9)
    assert got.a == -2.0


def test_ca_predict_stopping():
    # stops at t* = 0.01 s: x = 0.1*0.01 - 5*0.0001 = 0.0005
    got = ca_predict(VehicleState(0.0, 0.1, -10.0), 0.1)
    assert got.x == pytest.approx(0.0005, rel=1e-9)
    assert got.v == 0.0
    assert got.a == -10.0


def test_kalman_predict_substitutions():
    got = kalman_predict(KalmanState(2.0, 0.0, 0.0, 0.0, 0.0, 0.0), 0.1, q=1.0)
    assert (got.v, got.x) == pytest.approx((2.0, 0.2), rel=1e-12)

    got = kalman_predict(KalmanState(10.0, 0.0, 0.0, 0.0, 0.0, -2.0), 0.1, q=1.0)
    assert (got.v, got.x) == pytest.approx((9.8, 0.99), rel=1e-12)

    got = kalman_predict(KalmanState(0.0, 0.0, 1.0, 0.0, 1.0, 0.0), 0.1, q=0.0)
    assert (got.p_vv, got.p_vx, got.p_xx) == pytest.approx((1.0, 0.1, 1.01), rel=1e-12)


def test_kalman_predict_rejects_an_overflowing_covariance():
    # the covariance never depends on the trace's values, so its overflow is the tuning's fault
    big = 1.7e308
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match="kalman tuning"):
        kalman_predict(KalmanState(0.0, 0.0, big, big, big, 0.0), 0.1, 1.0)
    entries = np.array([1.0, big, 1.0]), np.array([0.0, big, 0.0]), np.array([1.0, big, 1.0])
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match="kalman tuning"):
        kalman_predict(KalmanState(np.zeros(3), np.zeros(3), *entries, np.zeros(3)), 0.1, 1.0)
    with np.errstate(over="ignore"), pytest.raises(ConfigError, match="kalman tuning"):
        kalman_predict(KalmanState(0.0, 0.0, 1.0, 0.0, 1.0, 0.0), 10.0, 1e308)


def test_kalman_correct_zero_gain():
    got = kalman_correct(KalmanState(1.0, 2.0, 0.0, 0.0, 0.0, 0.0), 100.0, 0.0, 1.0)
    assert (got.v, got.x) == pytest.approx((1.0, 2.0), abs=0.0)


def test_kalman_correct_perfect_measurement_limit():
    got = kalman_correct(KalmanState(5.0, 10.0, 1.0, 0.0, 1.0, 0.0), 12.0, 0.0, 1e-12)
    assert got.x == pytest.approx(12.0, abs=1e-9)


def test_kalman_correct_scalar_innovation():
    got = kalman_correct(KalmanState(0.0, 0.0, 1.0, 0.0, 1.0, 0.0), 2.0, 0.0, 1.0)
    assert (got.v, got.x) == pytest.approx((0.0, 1.0), rel=1e-12)
    assert got.p_xx == pytest.approx(0.5, rel=1e-12)


def test_kalman_correct_rejects_bad_inputs():
    s = KalmanState(0.0, 0.0, 1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        kalman_correct(s, math.nan, 0.0, 1.0)
    with pytest.raises(ValueError):
        kalman_correct(s, 0.0, 0.0, 0.0)
    runs = KalmanState(np.zeros(3), np.zeros(3), np.ones(3), np.zeros(3), np.ones(3), np.zeros(3))
    with pytest.raises(ValueError, match="non-finite measurement"):
        kalman_correct(runs, np.array([0.0, math.nan, 1.0]), np.zeros(3), 1.0)


def test_kalman_emit_mapping():
    assert kalman_emit(KalmanState(9.8, 0.99, 1.0, 0.0, 1.0, -2.0)) == (0.99, 9.8, -2.0)
    assert kalman_emit(KalmanState(-0.5, 3.0, 1.0, 0.0, 1.0, 0.0)) == (3.0, 0.0, 0.0)
    s = kalman_init(7.0, 4.0, 1.0, KalmanConfig().p0)
    assert kalman_emit(s) == (7.0, 4.0, 1.0)


@pytest.mark.parametrize("v0, v_emitted", [(-1.0, 0.0), (-0.0, 0.0), (0.0, 0.0), (2.5, 2.5)])
def test_kalman_init_emit_one_run_and_many(v0, v_emitted):
    expected = [value.hex() for value in (3.0, v_emitted, -1.5)]  # hex keeps the sign bit of a zero
    one = kalman_init(3.0, v0, -1.5, 2.0)
    assert [float(value).hex() for value in kalman_emit(one)] == expected
    many = kalman_init(np.full(2, 3.0), np.full(2, v0), np.full(2, -1.5), 2.0)
    for run in range(2):
        assert [float(value[run]).hex() for value in kalman_emit(many)] == expected

    def predict(s, measured_x):
        return kalman_predict(s, 0.1, 1.0)

    def correct(s, measured_x):
        return kalman_correct(s, measured_x, 0.5, 0.01)

    many = KalmanState(*np.broadcast_arrays(*many))  # a covariance per run, as estimate_batch holds it
    for step in (predict, correct, predict, predict, correct):
        one, many = step(one, 3.5), step(many, np.full(2, 3.5))
        for name, value, values in zip(KalmanState._fields, one, many):
            assert [float(value).hex()] * 2 == [float(run).hex() for run in np.broadcast_to(values, 2)], name


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
    slots = [ReceivedSlot(None), ReceivedSlot(None)]
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
    s = kalman_init(0.0, 10.0, 0.0, kcfg.p0)
    for _ in range(1000):
        if rng.random() < 0.5:
            s = kalman_predict(s, 0.1, kcfg.q)
        else:
            s = kalman_correct(s, float(rng.normal(0, 50)), s.u, kcfg.r)
        assert s.p_vv >= 0.0 and s.p_xx >= 0.0  # symmetric by construction: p_vx is stored once
        assert s.p_vv * s.p_xx - s.p_vx ** 2 >= -1e-9 * (s.p_vv + s.p_xx) ** 2


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
    s = KalmanState(v_t + 2.0, x_t, kcfg.p0, 0.0, kcfg.p0, a)
    err = None
    for _ in range(50):
        x_t = step_position_ca(x_t, v_t, a, dt)
        v_t = step_velocity_ca(v_t, a, dt)
        s = kalman_predict(s, dt, kcfg.q)
        s = kalman_correct(s, x_t, a, kcfg.r)
        err = abs(kalman_emit(s)[0] - x_t)
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
