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


def predict_speeds(fv: VehicleState, lv: VehicleState, t_d: float) -> tuple[float, float]:
    """Speeds after t_d at constant acceleration, clamped at rest."""
    v_fvp = max(0.0, fv.v + fv.a * t_d)
    v_lvp = max(0.0, lv.v + lv.a * t_d)
    return v_fvp, v_lvp


def required_decel(a_lv: float, v_lv: float, v_fv: float, v_lvp: float, min_decel: float) -> float:
    """Required FV deceleration for crash avoidance (CAMP regression).

    d = -5.3 + 0.68*a_LV + 2.57*[v_LV > 0] - 0.086*(v_FV - v_LVP),
    capped at -min_decel so the result is always a genuine deceleration.
    """
    moving = 2.57 if v_lv > 0.0 else 0.0
    d = -5.3 + 0.68 * a_lv + moving - 0.086 * (v_fv - v_lvp)
    return min(d, -min_decel)


def brake_onset_range(
    v_fvp: float,
    v_lvp: float,
    d_rqd: float,
    d_lv: float,
    lv_now: VehicleState,
    params: CampParams,
) -> tuple[float, BorCase]:
    """Brake-onset range and the kinematic case that produced it.

    Case 1 (LV stationary, lv_now.v <= eps_v):
        BOR = -v_FVP^2 / (2 * d_rqd)
    Otherwise compare stopping times t_F = v_FVP/|d_rqd| and
    t_L = v_LVP/|d_LV| (infinite unless d_LV < 0):
    Case 2 (LV still moving when the FV's braking resolves, t_L >= t_F):
        BOR = -(v_FVP - v_LVP)^2 / (2 * (d_rqd - d_LV)) when the FV must
        out-brake the LV (d_rqd < d_LV), else 0.
    Case 3 (LV stops first, t_L < t_F):
        BOR = v_FVP^2/(-2*d_rqd) - v_LVP^2/(-2*d_LV)
    The result floors at zero.
    """
    if not d_rqd < 0.0:
        raise ValueError(f"required deceleration must be negative: {d_rqd}")
    if lv_now.v <= params.eps_v:
        bor = -(v_fvp * v_fvp) / (2.0 * d_rqd)
        return max(0.0, bor), BorCase.LV_STATIONARY

    t_f = v_fvp / -d_rqd
    t_l = v_lvp / -d_lv if d_lv < 0.0 else math.inf
    if t_l >= t_f:
        dv = v_fvp - v_lvp
        bor = -(dv * dv) / (2.0 * (d_rqd - d_lv)) if d_rqd < d_lv else 0.0
        return max(0.0, bor), BorCase.LV_KEEPS_MOVING

    bor = v_fvp * v_fvp / (-2.0 * d_rqd) - v_lvp * v_lvp / (-2.0 * d_lv)
    return max(0.0, bor), BorCase.LV_STOPS_FIRST


def warning_range(
    fv: VehicleState, lv_est: VehicleState, params: CampParams
) -> tuple[float, float, float, BorCase]:
    """Compute (r_w, r_d, bor, bor_case) from the FV and (estimated) LV states."""
    v_fvp, v_lvp = predict_speeds(fv, lv_est, params.t_d)
    d_rqd = required_decel(lv_est.a, lv_est.v, fv.v, v_lvp, params.min_decel)
    # LV braking level: floor weak braking at min_decel; a non-braking LV
    # never stops on its own (infinite stopping time, handled in the cases).
    d_lv = min(lv_est.a, -params.min_decel) if lv_est.a < 0.0 else lv_est.a
    bor, case = brake_onset_range(v_fvp, v_lvp, d_rqd, d_lv, lv_est, params)
    t_d = params.t_d
    r_d = 0.5 * (fv.a - lv_est.a) * t_d * t_d + (fv.v - lv_est.v) * t_d
    r_w = max(0.0, bor + r_d)
    return r_w, r_d, bor, case


def evaluate(
    gap: float, fv: VehicleState, lv_est: VehicleState, params: CampParams
) -> WarningDecision:
    """Flag a hazard when the gap is at or inside the warning range."""
    if not math.isfinite(gap):
        raise ValueError(f"non-finite gap: {gap}")
    r_w, r_d, bor, case = warning_range(fv, lv_est, params)
    return WarningDecision(r_w, r_d, bor, case, gap, gap <= r_w)


@np.errstate(over="ignore", invalid="ignore")  # as silent as the scalar path's float overflow to inf
def warn_batch(
    gap: np.ndarray,
    fv_v: np.ndarray,
    fv_a: np.ndarray,
    lv_v: np.ndarray,
    lv_a: np.ndarray,
    params: CampParams,
) -> np.ndarray:
    """`evaluate(...).warn` over arrays of (gap, FV, estimated LV) states.

    Every branch of `warning_range` is computed elementwise with the same
    expressions and the applicable one selected, so each element equals
    the scalar decision. Divisions a branch does not select get a harmless
    stand-in denominator.
    """
    if not np.isfinite(gap).all():
        raise ValueError("non-finite gap")
    t_d, floor = params.t_d, -params.min_decel
    v_fvp = np.where(fv_v + fv_a * t_d > 0.0, fv_v + fv_a * t_d, 0.0)
    v_lvp = np.where(lv_v + lv_a * t_d > 0.0, lv_v + lv_a * t_d, 0.0)
    moving = np.where(lv_v > 0.0, 2.57, 0.0)
    d_rqd = -5.3 + 0.68 * lv_a + moving - 0.086 * (fv_v - v_lvp)
    d_rqd = np.where(floor < d_rqd, floor, d_rqd)
    d_lv = np.where((lv_a < 0.0) & (floor < lv_a), floor, lv_a)
    braking = d_lv < 0.0
    d_lv_neg = np.where(braking, d_lv, -1.0)

    bor_stationary = -(v_fvp * v_fvp) / (2.0 * d_rqd)
    t_f = v_fvp / -d_rqd
    t_l = np.where(braking, v_lvp / -d_lv_neg, math.inf)
    dv = v_fvp - v_lvp
    outbrakes = d_rqd < d_lv
    bor_keeps_moving = np.where(
        outbrakes, -(dv * dv) / (2.0 * np.where(outbrakes, d_rqd - d_lv, -1.0)), 0.0
    )
    bor_stops_first = v_fvp * v_fvp / (-2.0 * d_rqd) - v_lvp * v_lvp / (-2.0 * d_lv_neg)
    bor = np.where(
        lv_v <= params.eps_v,
        bor_stationary,
        np.where(t_l >= t_f, bor_keeps_moving, bor_stops_first),
    )
    bor = np.where(bor > 0.0, bor, 0.0)
    r_d = 0.5 * (fv_a - lv_a) * t_d * t_d + (fv_v - lv_v) * t_d
    r_w = bor + r_d
    return gap <= np.where(r_w > 0.0, r_w, 0.0)
