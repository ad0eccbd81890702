"""Longitudinal vehicle kinematics: domain types and discrete step equations.

Conventions used throughout the package:
  - SI units (m, m/s, m/s^2, s).
  - Decelerations are negative accelerations.
  - Speeds never go negative: braking stops a vehicle, it does not reverse.
    The constant-acceleration position step integrates only up to the
    stopping time when the vehicle would come to rest mid-interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class VehicleState:
    """Longitudinal state of one vehicle at an instant.

    x: position along the lane (m), v: speed (m/s, >= 0),
    a: acceleration (m/s^2, negative while braking).
    """

    x: float
    v: float
    a: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.v) and math.isfinite(self.a)):
            raise ValueError(f"non-finite vehicle state: x={self.x}, v={self.v}, a={self.a}")
        if self.v < 0.0:
            raise ValueError(f"negative speed: v={self.v}")


@dataclass(frozen=True)
class TimedState:
    """A VehicleState stamped with time since scenario start (s)."""

    t: float
    state: VehicleState

    def __post_init__(self):
        if not math.isfinite(self.t) or self.t < 0.0:
            raise ValueError(f"invalid timestamp: t={self.t}")


@dataclass(frozen=True)
class SampleClock:
    """Fixed-rate sampling clock; default 10 Hz (0.1 s period)."""

    t_s: float = 0.1

    def __post_init__(self):
        if not math.isfinite(self.t_s) or self.t_s <= 0.0:
            raise ValueError(f"sample period must be positive: t_s={self.t_s}")


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"non-finite input: {name}={value}")


def step_position_cv(x: float, v: float, dt: float) -> float:
    """Advance position by dt at constant speed: x + v*dt."""
    _check_finite(x=x, v=v, dt=dt)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive: {dt}")
    return x + v * dt


def step_velocity_ca(v: float, a: float, dt: float) -> float:
    """Advance speed by dt at constant acceleration, clamped at rest: max(0, v + a*dt)."""
    _check_finite(v=v, a=a, dt=dt)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive: {dt}")
    return max(0.0, v + a * dt)


def step_position_ca(x: float, v: float, a: float, dt: float) -> float:
    """Advance position by dt at constant acceleration: x + v*dt + a*dt^2/2.

    If the vehicle would come to rest inside the interval (v + a*dt < 0),
    the displacement is integrated only up to the stopping time -v/a, so a
    braking vehicle ends exactly at its rest position instead of rolling
    backwards.
    """
    _check_finite(x=x, v=v, a=a, dt=dt)
    if dt <= 0.0:
        raise ValueError(f"dt must be positive: {dt}")
    if v + a * dt < 0.0:
        t_stop = -v / a
        return x + v * t_stop + 0.5 * a * t_stop * t_stop
    return x + v * dt + 0.5 * a * dt * dt


def step_ca_batch(x: np.ndarray, v: np.ndarray, a: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(step_position_ca, step_velocity_ca) elementwise over arrays, bit for bit.

    Inputs are not checked; callers pass finite states and a positive dt.
    """
    stop = v + a * dt < 0.0
    t_stop = -v / np.where(stop, a, -1.0)
    x = np.where(stop, x + v * t_stop + 0.5 * a * t_stop * t_stop, x + v * dt + 0.5 * a * dt * dt)
    v = v + a * dt
    return x, np.where(v > 0.0, v, 0.0)
