"""CAMP Linear forward-collision-warning decision.

The warning range r_w is the brake-onset range (BOR) plus the distance
covered during the driver/brake reaction time t_d:

    r_w = BOR + r_d
    r_d = 0.5 * (a_FV - a_LV) * t_d^2 + (v_FV - v_LV) * t_d

BOR comes from one of three kinematic cases, selected by whether the
leading vehicle is stationary now and, if not, whether it keeps moving or
stops while the following vehicle brakes at the required deceleration
d_rqd (a regression fit from the CAMP human-braking studies). A warning
fires when the current gap is at or inside r_w.

Speeds predicted over t_d assume constant acceleration and clamp at zero;
negative warning ranges (opening gaps) floor at zero.

The rule is stated once, in `warning_range`, elementwise over numpy arrays
of any shape. `evaluate` applies it to one step, `evaluate_steps` to every
step of a run, and `warn_batch` to the sweep kernel's blocks of runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigError
from .kinematics import VehicleState


@dataclass(frozen=True)
class CampParams:
    """Decision parameters.

    t_d: driver + brake reaction time (s); eps_v: speed below which the
    leading vehicle counts as stationary (m/s); min_decel: magnitude floor
    applied to d_rqd and to the LV braking level (m/s^2), guarding the
    stopping-time divisions; length_offset: subtracted from the raw
    center-to-center gap for bumper-referenced data (m).
    """

    t_d: float = 1.6
    eps_v: float = 0.5
    min_decel: float = 0.1
    length_offset: float = 0.0

    def __post_init__(self):
        if not (self.t_d > 0.0 and math.isfinite(self.t_d)):
            raise ConfigError(f"reaction time must be > 0: {self.t_d}")
        if not (self.eps_v > 0.0 and math.isfinite(self.eps_v)):
            raise ConfigError(f"stationary threshold must be > 0: {self.eps_v}")
        if not (self.min_decel > 0.0 and math.isfinite(self.min_decel)):
            raise ConfigError(f"deceleration floor must be > 0: {self.min_decel}")
        if not math.isfinite(self.length_offset):
            raise ConfigError(f"non-finite length offset: {self.length_offset}")

    def gap(self, x_lv: float | np.ndarray, x_fv: float | np.ndarray) -> float | np.ndarray:
        """The monitored gap between LV position x_lv and FV position x_fv, for one step or many."""
        return x_lv - x_fv - self.length_offset


class BorCase(IntEnum):
    """Which brake-onset-range case applied."""

    LV_STATIONARY = 1
    LV_KEEPS_MOVING = 2
    LV_STOPS_FIRST = 3


@dataclass(frozen=True)
class WarningDecision:
    """Full breakdown of one warning evaluation."""

    r_w: float
    r_d: float
    bor: float
    bor_case: BorCase
    gap: float
    warn: bool


def _where(condition, x, y):
    """np.where, with a 0-d result as a numpy scalar, whose arithmetic skips the ufunc machinery."""
    return np.where(condition, x, y)[()]


def predict_speeds(v_fv, a_fv, v_lv, a_lv, t_d: float) -> tuple[np.ndarray, np.ndarray]:
    """FV and LV speeds after t_d at constant acceleration, clamped at rest."""
    v_fvp, v_lvp = v_fv + a_fv * t_d, v_lv + a_lv * t_d
    return _where(v_fvp > 0.0, v_fvp, 0.0), _where(v_lvp > 0.0, v_lvp, 0.0)


def required_decel(a_lv, v_lv, v_fv, v_lvp, min_decel: float) -> np.ndarray:
    """Required FV deceleration for crash avoidance (CAMP regression).

    d = -5.3 + 0.68*a_LV + 2.57*[v_LV > 0] - 0.086*(v_FV - v_LVP),
    capped at -min_decel so the result is always a genuine deceleration.
    """
    d = -5.3 + 0.68 * a_lv + _where(v_lv > 0.0, 2.57, 0.0) - 0.086 * (v_fv - v_lvp)
    return _where(-min_decel < d, -min_decel, d)


def brake_onset_range(v_fvp, v_lvp, d_rqd, d_lv, v_lv, params: CampParams) -> tuple[np.ndarray, np.ndarray]:
    """Brake-onset range and the BorCase that produced it, given the LV's current speed v_lv.

    Case 1 (LV stationary, v_lv <= eps_v):
        BOR = -v_FVP^2 / (2 * d_rqd)
    Otherwise compare stopping times t_F = v_FVP/|d_rqd| and
    t_L = v_LVP/|d_LV| (infinite unless d_LV < 0):
    Case 2 (LV still moving when the FV's braking resolves, t_L >= t_F):
        BOR = -(v_FVP - v_LVP)^2 / (2 * (d_rqd - d_LV)) when the FV must
        out-brake the LV (d_rqd < d_LV), else 0.
    Case 3 (LV stops first, t_L < t_F):
        BOR = v_FVP^2/(-2*d_rqd) - v_LVP^2/(-2*d_LV)
    The result floors at zero. Every case is computed for every element
    and the one that applies selected; a division that no selected case
    uses gets a stand-in denominator of -1.
    """
    if not np.asarray(d_rqd < 0.0).all():
        raise ValueError(f"required deceleration must be negative: {d_rqd}")
    braking, outbrakes = d_lv < 0.0, d_rqd < d_lv
    d_lv_braking = _where(braking, d_lv, -1.0)
    t_f = v_fvp / -d_rqd
    t_l = _where(braking, v_lvp / -d_lv_braking, math.inf)
    stationary, keeps_moving = v_lv <= params.eps_v, t_l >= t_f
    case = _where(stationary, BorCase.LV_STATIONARY.value,
                  _where(keeps_moving, BorCase.LV_KEEPS_MOVING.value, BorCase.LV_STOPS_FIRST.value))
    dv = v_fvp - v_lvp
    bor = _where(stationary, -(v_fvp * v_fvp) / (2.0 * d_rqd), _where(
        keeps_moving,
        _where(outbrakes, -(dv * dv) / (2.0 * _where(outbrakes, d_rqd - d_lv, -1.0)), 0.0),
        v_fvp * v_fvp / (-2.0 * d_rqd) - v_lvp * v_lvp / (-2.0 * d_lv_braking)))
    return _where(bor > 0.0, bor, 0.0), case


@np.errstate(over="ignore", invalid="ignore")  # an overflowing range is inf or nan, silently, as with Python floats
def warning_range(v_fv, a_fv, v_lv, a_lv, params: CampParams) -> tuple[np.ndarray, ...]:
    """(r_w, r_d, bor, case) from the FV's and (estimated) LV's speeds and accelerations.

    Elementwise over numpy arrays of any shape that broadcast together, 0-d
    included; case is an int array of BorCase values.
    """
    t_d, floor = params.t_d, -params.min_decel
    v_fvp, v_lvp = predict_speeds(v_fv, a_fv, v_lv, a_lv, t_d)
    d_rqd = required_decel(a_lv, v_lv, v_fv, v_lvp, params.min_decel)
    # LV braking level: floor weak braking at min_decel; a non-braking LV
    # never stops on its own (infinite stopping time, handled in the cases).
    d_lv = _where((a_lv < 0.0) & (floor < a_lv), floor, a_lv)
    bor, case = brake_onset_range(v_fvp, v_lvp, d_rqd, d_lv, v_lv, params)
    r_d = 0.5 * (a_fv - a_lv) * t_d * t_d + (v_fv - v_lv) * t_d
    r_w = bor + r_d
    return _where(r_w > 0.0, r_w, 0.0), r_d, bor, case


def warn_batch(gap: np.ndarray, v_fv, a_fv, v_lv, a_lv, params: CampParams) -> np.ndarray:
    """Whether each gap is at or inside its warning range (`warning_range`'s arguments)."""
    if not np.isfinite(gap).all():
        raise ValueError("non-finite gap")
    return gap <= warning_range(v_fv, a_fv, v_lv, a_lv, params)[0]


def evaluate_steps(gap: np.ndarray, v_fv, a_fv, v_lv, a_lv, params: CampParams) -> list[WarningDecision]:
    """`evaluate` for every step of 1-d arrays of gaps and `warning_range`'s arguments, in one rule call."""
    if not np.isfinite(gap).all():
        raise ValueError(f"non-finite gap: {gap}")
    r_w, r_d, bor, case = warning_range(v_fv, a_fv, v_lv, a_lv, params)
    return list(map(WarningDecision, r_w.tolist(), r_d.tolist(), bor.tolist(), map(BorCase, case.tolist()),
                    gap.tolist(), (gap <= r_w).tolist()))


def evaluate(gap: float, fv: VehicleState, lv_est: VehicleState, params: CampParams) -> WarningDecision:
    """Flag a hazard when the gap is at or inside the warning range: `evaluate_steps` for one step."""
    if not math.isfinite(gap):
        raise ValueError(f"non-finite gap: {gap}")
    r_w, r_d, bor, case = warning_range(fv.v, fv.a, lv_est.v, lv_est.a, params)
    return WarningDecision(float(r_w), float(r_d), float(bor), BorCase(case), gap, bool(gap <= r_w))
