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
held input. `kalman_init`, `kalman_predict`, `kalman_correct` (which also
holds the received acceleration) and `kalman_emit` (which clamps the speed
at rest) step one run or many (leading run axes), so `estimate_stream` and
`estimate_batch` run the same filter code. The state holds the symmetric
covariance P as its three distinct entries, and the prediction
F P F^T + Q is written out on them; only the correction's Joseph product
builds P as a 2x2 matrix, for numpy's matrix product.

`estimate_stream` steps one run through the scalar functions and is the
reference. `estimate_batch` steps many runs in one loop: each step
predicts every run, then keeps the received state (for Kalman, the
correction) where the slot was delivered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .channel import ReceivedSlot
from .errors import ConfigError, TraceFormatError
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


class KalmanState(NamedTuple):
    """Filter state: mean speed v and position x, the covariance's three distinct
    entries, and the held acceleration input u.

    Each field is a float for one run, or an array broadcastable to the run shape.
    """

    v: float | np.ndarray
    x: float | np.ndarray
    p_vv: float | np.ndarray
    p_vx: float | np.ndarray
    p_xx: float | np.ndarray
    u: float | np.ndarray


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


def kalman_init(x: float | np.ndarray, v: float | np.ndarray, a: float | np.ndarray, p0: float) -> KalmanState:
    """Seed the filter from the first received BSM's (x, v, a), for one run or many."""
    return KalmanState(v, x, p0, 0.0, p0, a)


def kalman_predict(s: KalmanState, dt: float, q: float) -> KalmanState:
    """Time update over dt with the held acceleration as input.

    The mean update is F @ mean + G @ u, written out in the same expression
    order as the kinematic step functions so that loss-free streams over
    model-consistent data replay the sender's trajectory bit-identically.

    F @ P @ F.T + Q is written out entry by entry. Each entry of F @ P
    and of (F @ P) @ F.T is a sum a0*b0 + a1*b1 in which a1*b1 is exact,
    its F factor being 1 or 0. OpenBLAS computes the entry as
    fma(a1, b1, a0*b0), which is then the one rounded add written below,
    so the result is bitwise the matrix products' without a BLAS call per
    2x2.
    """
    v, x, p_vv, p_vx, p_xx, u = s
    p_vv, p_vx, p_xx = (p_vv + q * dt, (p_vv * dt + p_vx) + q * (0.5 * dt * dt),
                        ((dt * p_vv + p_vx) * dt + (dt * p_vx + p_xx)) + q * (dt ** 3 / 3.0))
    if not all(np.isfinite(p).all() for p in (p_vv, p_vx, p_xx)):  # from q, r, p0, dt and losses, never the trace
        raise ConfigError(f"the kalman tuning (q, r, p0) overflows the filter covariance at q={q}, dt={dt}")
    return KalmanState(v + u * dt, x + v * dt + 0.5 * u * dt * dt, p_vv, p_vx, p_xx, u)


def kalman_correct(s: KalmanState, measured_x: float | np.ndarray, measured_a: float | np.ndarray,
                   r: float) -> KalmanState:
    """Measurement update with a received BSM: Joseph-form covariance from its
    position, and its acceleration as the input that drives later predictions."""
    if not np.isfinite(measured_x).all():
        raise ValueError(f"non-finite measurement: {measured_x}")
    if r <= 0.0:
        raise ValueError(f"measurement variance must be > 0: {r}")
    residual, innovation_var = measured_x - s.x, s.p_xx + r
    gain = np.stack(np.broadcast_arrays(s.p_vx / innovation_var, s.p_xx / innovation_var), axis=-1)
    # The Joseph product stays numpy's 2x2 `@`: the golden bytes hold OpenBLAS's fma results.
    cov = np.stack(np.broadcast_arrays(s.p_vv, s.p_vx, s.p_vx, s.p_xx), axis=-1).reshape(gain.shape + (2,))
    ikc = np.eye(2) - gain[..., :, None] * np.array([0.0, 1.0])  # I - K C
    cov = ikc @ cov @ ikc.swapaxes(-1, -2) + r * (gain[..., :, None] * gain[..., None, :])
    cov = 0.5 * (cov + cov.swapaxes(-1, -2))
    return KalmanState(s.v + gain[..., 0] * residual, s.x + gain[..., 1] * residual,
                       cov[..., 0, 0], cov[..., 0, 1], cov[..., 1, 1], measured_a)


def kalman_emit(s: KalmanState) -> tuple[float | np.ndarray, np.ndarray, float | np.ndarray]:
    """The estimate (x, v, a) the filter state stands for: its speed clamped at rest
    (a negative or -0.0 mean speed emits 0.0); the state itself stays unclamped."""
    return s.x, np.where(s.v > 0.0, s.v, 0.0), s.u


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


@np.errstate(over="ignore", invalid="ignore")  # an overflow is caught as a non-finite mean
def _kalman_stream(slots: Sequence[ReceivedSlot], dt: float, kcfg: KalmanConfig) -> list[VehicleState]:
    first = slots[0].state
    s = kalman_init(first.x, first.v, first.a, kcfg.p0)
    estimates = [VehicleState(*map(float, kalman_emit(s)))]
    for k, slot in enumerate(slots[1:], 1):
        s = kalman_predict(s, dt, kcfg.q)
        if slot.delivered:
            s = kalman_correct(s, slot.state.x, slot.state.a, kcfg.r)
        if not (np.isfinite(s.v) and np.isfinite(s.x)):
            raise TraceFormatError(f"non-finite vehicle state estimate at step {k}: "
                                   f"v={s.v}, x={s.x} (the LV trace overflows the kalman estimator)")
        estimates.append(VehicleState(*map(float, kalman_emit(s))))
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
    broadcastable to the run shape. Yields every step's (x, v, a), each
    broadcastable to the run shape and never written to again. Each run's
    estimates are bitwise those `estimate_stream` gives for its slots: the
    dead-reckoning updates are the scalar expressions applied elementwise,
    and the Kalman filter is the same `kalman_init`, `kalman_predict`,
    `kalman_correct` and `kalman_emit`. An estimate that overflows is
    yielded as it is, non-finite; the caller checks it.
    """
    if len(delivered) == 0 or not delivered[0].all():
        raise ValueError("estimate_batch requires every run's slot 0 delivered")
    kcfg = kcfg or KalmanConfig()
    run_shape = delivered.shape[1:]
    x, v, a = (np.broadcast_to(col[0], run_shape) for col in (lv_x, lv_v, lv_a))
    s = kalman_init(x, v, a, kcfg.p0)
    for k, d in enumerate(delivered):
        if k and kind is EstimatorKind.KALMAN:
            predicted = kalman_predict(s, dt, kcfg.q)
            corrected = kalman_correct(predicted, lv_x[k], lv_a[k], kcfg.r)  # kept only where the slot was delivered
            s = KalmanState(*(np.where(d, c, p) for c, p in zip(corrected, predicted)))
        elif k:
            if kind is EstimatorKind.CONSTANT_VELOCITY:
                px, pv, pa = x + v * dt, v, 0.0
            else:
                (px, pv), pa = step_ca_batch(x, v, a, dt), a
            x, v, a = np.where(d, lv_x[k], px), np.where(d, lv_v[k], pv), np.where(d, lv_a[k], pa)
        if kind is EstimatorKind.KALMAN:
            x, v, a = kalman_emit(s)
        yield x, v, a
