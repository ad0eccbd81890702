"""Leading-vehicle state estimators fed by the lossy BSM stream.

Three reconstruction algorithms, selected per run:

  - constant velocity: hold the last received speed, advance position
    linearly; report zero acceleration while packets are missing.
  - constant acceleration: hold the last received acceleration, advance
    speed and position with the exact constant-acceleration step.
  - Kalman: discrete filter on the double integrator driven by the last
    received acceleration as control input, correcting on received
    positions only.

Kalman plant, state X = [v; x]:

    F = [[1, 0], [dt, 1]]      exact zero-order-hold transition
    G = [dt, dt^2/2]           input response (u = held acceleration)
    C = [0, 1]                 position is the only measurement
    Q = q * [[dt,     dt^2/2],
             [dt^2/2, dt^3/3]] continuous white-noise-acceleration model

Received speeds are not measurements; they only seed the state at the
first delivered slot. During loss the filter runs predict-only with the
held input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional, Sequence

import numpy as np

from .channel import ReceivedSlot
from .errors import ConfigError
from .kinematics import (
    SampleClock,
    VehicleState,
    step_ca_batch,
    step_position_ca,
    step_position_cv,
    step_velocity_ca,
)


class EstimatorKind(Enum):
    CONSTANT_VELOCITY = "cv"
    CONSTANT_ACCELERATION = "ca"
    KALMAN = "kalman"


@dataclass(frozen=True)
class KalmanConfig:
    """Filter tuning: process-noise intensity q ((m/s^2)^2), measurement
    variance r (m^2), initial covariance scale p0. Defaults are tuning
    choices, adjustable from the CLI."""

    q: float = 1.0
    r: float = 0.01
    p0: float = 1.0

    def __post_init__(self):
        if not (self.q > 0.0 and math.isfinite(self.q)):
            raise ConfigError(f"process noise q must be > 0: {self.q}")
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ConfigError(f"measurement noise r must be > 0: {self.r}")
        if not (self.p0 >= 0.0 and math.isfinite(self.p0)):
            raise ConfigError(f"initial covariance p0 must be >= 0: {self.p0}")


@dataclass(frozen=True)
class KalmanState:
    """Filter state: mean [v; x], 2x2 covariance, held acceleration input."""

    mean: np.ndarray
    cov: np.ndarray
    held_input: float


def cv_predict(est: VehicleState, dt: float) -> VehicleState:
    """Constant-velocity coast: advance x, hold v, report a = 0."""
    return VehicleState(step_position_cv(est.x, est.v, dt), est.v, 0.0)


def ca_predict(est: VehicleState, dt: float) -> VehicleState:
    """Constant-acceleration coast: advance x and v with held a."""
    return VehicleState(
        step_position_ca(est.x, est.v, est.a, dt),
        step_velocity_ca(est.v, est.a, dt),
        est.a,
    )


def kalman_init(state: VehicleState, kcfg: KalmanConfig) -> KalmanState:
    """Seed the filter from the first received BSM."""
    mean = np.array([state.v, state.x], dtype=float)
    cov = np.eye(2) * kcfg.p0
    return KalmanState(mean, cov, state.a)


def kalman_predict(s: KalmanState, dt: float, q: float = 1.0) -> KalmanState:
    """Time update over dt with the held acceleration as input.

    The mean update is F @ mean + G @ u, written out in the same expression
    order as the kinematic step functions so that loss-free streams over
    model-consistent data replay the sender's trajectory bit-identically.
    """
    v, x = float(s.mean[0]), float(s.mean[1])
    u = s.held_input
    mean = np.array([v + u * dt, x + v * dt + 0.5 * u * dt * dt])
    f = np.array([[1.0, 0.0], [dt, 1.0]])
    half = 0.5 * dt * dt
    qm = q * np.array([[dt, half], [half, dt ** 3 / 3.0]])
    cov = f @ s.cov @ f.T + qm
    return KalmanState(mean, cov, s.held_input)


def kalman_correct(s: KalmanState, measured_x: float, r: float) -> KalmanState:
    """Measurement update with a received position; Joseph-form covariance."""
    if not math.isfinite(measured_x):
        raise ValueError(f"non-finite measurement: {measured_x}")
    if r <= 0.0:
        raise ValueError(f"measurement variance must be > 0: {r}")
    innovation_var = s.cov[1, 1] + r
    gain = s.cov[:, 1] / innovation_var
    mean = s.mean + gain * (measured_x - s.mean[1])
    ikc = np.eye(2)
    ikc[:, 1] -= gain
    cov = ikc @ s.cov @ ikc.T + r * np.outer(gain, gain)
    cov = 0.5 * (cov + cov.T)
    return KalmanState(mean, cov, s.held_input)


def kalman_emit(s: KalmanState) -> VehicleState:
    """Map the filter state to a VehicleState (speed clamped at rest)."""
    return VehicleState(float(s.mean[1]), max(0.0, float(s.mean[0])), s.held_input)


def estimate_stream(
    slots: Sequence[ReceivedSlot],
    kind: EstimatorKind,
    clock: SampleClock,
    kcfg: Optional[KalmanConfig] = None,
) -> list[VehicleState]:
    """Reconstruct the sender state at every slot of a received stream.

    Delivered slots snap the dead-reckoning estimators to the received
    state (measurement-update the Kalman filter); dropped slots advance by
    the selected prediction rule. slots[0] must be delivered.
    """
    if not slots or not slots[0].delivered:
        raise ValueError("estimate_stream requires a delivered slot 0")
    dt = clock.t_s
    if kind is EstimatorKind.KALMAN:
        return _kalman_stream(slots, dt, kcfg or KalmanConfig())

    predict = cv_predict if kind is EstimatorKind.CONSTANT_VELOCITY else ca_predict
    est = slots[0].state
    estimates = [est]
    for slot in slots[1:]:
        est = slot.state if slot.delivered else predict(est, dt)
        estimates.append(est)
    return estimates


def _kalman_stream(slots: Sequence[ReceivedSlot], dt: float, kcfg: KalmanConfig) -> list[VehicleState]:
    s = kalman_init(slots[0].state, kcfg)
    estimates = [kalman_emit(s)]
    for slot in slots[1:]:
        s = kalman_predict(s, dt, kcfg.q)
        if slot.delivered:
            received = slot.state
            s = kalman_correct(s, received.x, kcfg.r)
            # The newly received acceleration drives predictions from here on.
            s = KalmanState(s.mean, s.cov, received.a)
        estimates.append(kalman_emit(s))
    return estimates


def estimate_batch(
    lv_x: np.ndarray,
    lv_v: np.ndarray,
    lv_a: np.ndarray,
    delivered: np.ndarray,
    kind: EstimatorKind,
    dt: float,
    kcfg: Optional[KalmanConfig] = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """`estimate_stream` for many runs at once, one step at a time.

    delivered[k] is step k's delivery mask over all runs (shape: the run
    shape); lv_x[k], lv_v[k], lv_a[k] are the sender's state at step k,
    broadcastable to the run shape. Yields the estimated (x, v, a) arrays
    of every step. Each run's estimates are bitwise those `estimate_stream`
    gives for its slots: the updates are the scalar expressions applied
    elementwise, and the Kalman covariance goes through the same 2x2
    matrix products, stacked over runs.
    """
    if len(delivered) == 0 or not delivered[0].all():
        raise ValueError("estimate_batch requires every run's slot 0 delivered")
    first = (np.broadcast_to(col[0], delivered.shape[1:]) for col in (lv_x, lv_v, lv_a))
    rest = zip(delivered[1:], lv_x[1:], lv_v[1:], lv_a[1:])
    if kind is EstimatorKind.KALMAN:
        steps = _kalman_steps(*first, rest, dt, kcfg or KalmanConfig())
    else:
        steps = _dead_reckon_steps(*first, rest, dt, kind is EstimatorKind.CONSTANT_VELOCITY)
    for x, v, a in steps:
        if not (np.isfinite(x).all() and np.isfinite(v).all() and np.isfinite(a).all()):
            raise ValueError("non-finite vehicle state estimate")
        yield x, v, a


def _dead_reckon_steps(x, v, a, rest, dt: float, constant_velocity: bool):
    yield x, v, a
    for d, rx, rv, ra in rest:
        if constant_velocity:
            px, pv, pa = x + v * dt, v, 0.0
        else:
            px, pv = step_ca_batch(x, v, a, dt)
            pa = a
        x, v, a = np.where(d, rx, px), np.where(d, rv, pv), np.where(d, ra, pa)
        yield x, v, a


def _kalman_steps(mean_x, mean_v, held, rest, dt: float, kcfg: KalmanConfig):
    cov = np.broadcast_to(np.eye(2) * kcfg.p0, mean_x.shape + (2, 2))
    yield mean_x, _clamp_at_rest(mean_v), held
    f = np.array([[1.0, 0.0], [dt, 1.0]])
    half = 0.5 * dt * dt
    qm = kcfg.q * np.array([[dt, half], [half, dt ** 3 / 3.0]])
    r = kcfg.r
    for d, rx, _, ra in rest:
        # predict (kalman_predict)
        mean_v, mean_x = mean_v + held * dt, mean_x + mean_v * dt + 0.5 * held * dt * dt
        cov = f @ cov @ f.T + qm
        # correct (kalman_correct), kept only where the slot was delivered
        gain = cov[..., :, 1] / (cov[..., 1, 1] + r)[..., None]
        innovation = rx - mean_x
        ikc = np.empty_like(cov)
        ikc[..., 0, 0], ikc[..., 1, 0] = 1.0, 0.0
        ikc[..., 0, 1], ikc[..., 1, 1] = 0.0 - gain[..., 0], 1.0 - gain[..., 1]
        corrected = ikc @ cov @ ikc.swapaxes(-1, -2) + r * (gain[..., :, None] * gain[..., None, :])
        corrected = 0.5 * (corrected + corrected.swapaxes(-1, -2))
        mean_v = np.where(d, mean_v + gain[..., 0] * innovation, mean_v)
        mean_x = np.where(d, mean_x + gain[..., 1] * innovation, mean_x)
        cov = np.where(d[..., None, None], corrected, cov)
        held = np.where(d, ra, held)
        yield mean_x, _clamp_at_rest(mean_v), held


def _clamp_at_rest(v: np.ndarray) -> np.ndarray:
    """Elementwise max(0.0, v), with Python's choice of 0.0 for v <= 0."""
    return np.where(v > 0.0, v, 0.0)
