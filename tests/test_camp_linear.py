"""Warning-range computation: regression values, BOR cases, boundary behavior."""

import math

import numpy as np
import pytest

from fcwsim.camp_linear import (
    BorCase,
    CampParams,
    brake_onset_range,
    evaluate,
    predict_speeds,
    required_decel,
    warning_range,
)
from fcwsim.kinematics import VehicleState

PARAMS = CampParams()


def bor_oracle(v_fvp, v_lvp, d_fv, d_lv, dt=1e-4, horizon=120.0):
    """Independent oracle: smallest initial gap with no contact.

    Integrates both braking profiles (speeds clamped at rest) and returns
    the largest amount by which the FV out-travels the LV, i.e. the minimum
    starting separation that avoids contact.
    """
    x_f = x_l = 0.0
    v_f, v_l = v_fvp, v_lvp
    worst = 0.0
    for _ in range(int(horizon / dt)):
        nf = max(0.0, v_f + d_fv * dt)
        nl = max(0.0, v_l + d_lv * dt)
        x_f += 0.5 * (v_f + nf) * dt
        x_l += 0.5 * (v_l + nl) * dt
        v_f, v_l = nf, nl
        worst = max(worst, x_f - x_l)
        if v_f == 0.0 and v_l == 0.0:
            break
    return worst


def test_predict_speeds_substitutions():
    assert predict_speeds(20.0, 0.0, 15.0, 0.0, 1.0) == (20.0, 15.0)
    got = predict_speeds(20.0, -2.0, 15.0, 1.0, 1.0)
    assert got == pytest.approx((18.0, 16.0), rel=1e-9)
    _, v_lvp = predict_speeds(20.0, 0.0, 1.0, -3.0, 1.0)
    assert v_lvp == 0.0  # clamped from -2


def test_required_decel_substitutions():
    assert required_decel(0.0, 0.0, 10.0, 10.0, PARAMS.min_decel) == pytest.approx(-5.3, rel=1e-9)
    assert required_decel(0.0, 10.0, 10.0, 10.0, PARAMS.min_decel) == pytest.approx(-2.73, rel=1e-9)
    assert required_decel(-3.0, 10.0, 15.0, 10.0, PARAMS.min_decel) == pytest.approx(-5.2, rel=1e-9)


def test_required_decel_floor():
    # large positive LV acceleration would make the regression positive
    assert required_decel(10.0, 10.0, 0.0, 20.0, PARAMS.min_decel) == -PARAMS.min_decel


def test_bor_case1_stationary():
    bor, case = brake_onset_range(20.0, 0.0, -5.0, 0.0, 0.0, PARAMS)
    assert case == BorCase.LV_STATIONARY
    assert bor == pytest.approx(40.0, rel=1e-9)


def test_bor_case2_lv_keeps_moving():
    # t_L = 5 > t_F = 4, so the both-moving formula applies: 100/6 m
    bor, case = brake_onset_range(20.0, 10.0, -5.0, -2.0, 10.0, PARAMS)
    assert case == BorCase.LV_KEEPS_MOVING
    assert bor == pytest.approx(100.0 / 6.0, rel=1e-9)
    assert bor == pytest.approx(bor_oracle(20.0, 10.0, -5.0, -2.0), abs=1e-3)


def test_bor_case3_lv_stops_first():
    bor, case = brake_onset_range(20.0, 10.0, -5.0, -10.0, 10.0, PARAMS)
    assert case == BorCase.LV_STOPS_FIRST
    assert bor == pytest.approx(35.0, rel=1e-9)
    assert bor == pytest.approx(bor_oracle(20.0, 10.0, -5.0, -10.0), abs=1e-3)


def test_bor_matches_relative_motion_oracle_randomized():
    rng = np.random.default_rng(37)
    for _ in range(20):
        v_fvp = float(rng.uniform(5, 35))
        v_lvp = float(rng.uniform(0.6, v_fvp))  # moving LV, closing conflict
        d_rqd = float(rng.uniform(-9, -1))
        d_lv = float(rng.uniform(-9, -0.5))
        bor, _ = brake_onset_range(v_fvp, v_lvp, d_rqd, d_lv, v_lvp, PARAMS)
        assert bor == pytest.approx(bor_oracle(v_fvp, v_lvp, d_rqd, d_lv), abs=5e-3)


def test_bor_requires_negative_required_decel():
    with pytest.raises(ValueError):
        brake_onset_range(20.0, 10.0, 0.0, -2.0, 10.0, PARAMS)


def test_bor_never_negative():
    rng = np.random.default_rng(41)
    for _ in range(300):
        v_fvp = float(rng.uniform(0, 40))
        v_lvp = float(rng.uniform(0, 40))
        d_rqd = float(rng.uniform(-10, -0.1))
        d_lv = float(rng.uniform(-10, 5))
        v_lv = float(rng.uniform(0, 40))
        bor, _ = brake_onset_range(v_fvp, v_lvp, d_rqd, d_lv, v_lv, PARAMS)
        assert bor >= 0.0


def test_bor_case1_closed_form():
    rng = np.random.default_rng(43)
    for _ in range(100):
        v_fvp = float(rng.uniform(0, 40))
        d_rqd = float(rng.uniform(-10, -0.1))
        v_lv = float(rng.uniform(0, PARAMS.eps_v))
        bor, case = brake_onset_range(v_fvp, 0.0, d_rqd, 0.0, v_lv, PARAMS)
        assert case == BorCase.LV_STATIONARY
        assert bor == v_fvp * v_fvp / (2.0 * abs(d_rqd))


def test_bor_case_boundary_continuity():
    # with t_L == t_F the moving and stops-first formulas coincide
    rng = np.random.default_rng(47)
    for _ in range(100):
        v_fvp = float(rng.uniform(5, 40))
        v_lvp = float(rng.uniform(1, v_fvp))
        d_rqd = float(rng.uniform(-10, -0.5))
        d_lv = d_rqd * v_lvp / v_fvp  # equal stopping times
        case2 = -((v_fvp - v_lvp) ** 2) / (2.0 * (d_rqd - d_lv))
        case3 = v_fvp**2 / (-2.0 * d_rqd) - v_lvp**2 / (-2.0 * d_lv)
        assert case2 == pytest.approx(case3, abs=1e-6)
        bor, _ = brake_onset_range(v_fvp, v_lvp, d_rqd, d_lv, v_lvp, PARAMS)
        assert bor == pytest.approx(max(0.0, case2), abs=1e-6)


def test_reaction_distance_substitutions():
    params = CampParams(t_d=1.0)
    # equal accelerations, 10 m/s closing speed
    r_w, r_d, bor, _ = warning_range(20.0, -1.0, 10.0, -1.0, params)
    assert r_d == pytest.approx(10.0, rel=1e-9)
    # equal speeds, 2 m/s^2 acceleration difference
    r_w, r_d, bor, _ = warning_range(10.0, 1.0, 10.0, -1.0, params)
    assert r_d == pytest.approx(1.0, rel=1e-9)


def test_degenerate_rest_case():
    fv = VehicleState(0.0, 0.0, 0.0)
    lv = VehicleState(50.0, 0.0, 0.0)
    r_w, r_d, bor, case = warning_range(fv.v, fv.a, lv.v, lv.a, PARAMS)
    assert (r_w, r_d, bor) == (0.0, 0.0, 0.0)
    assert case == BorCase.LV_STATIONARY
    assert not evaluate(50.0, fv, lv, PARAMS).warn


def test_evaluate_threshold_inclusive():
    fv = VehicleState(0.0, 20.0, 0.0)
    lv = VehicleState(100.0, 0.1, 0.0)
    r_w, _, _, _ = warning_range(fv.v, fv.a, lv.v, lv.a, PARAMS)
    assert r_w > 0.0
    assert not evaluate(r_w + 1.0, fv, lv, PARAMS).warn
    assert evaluate(r_w, fv, lv, PARAMS).warn  # boundary fires
    assert evaluate(r_w - 0.1, fv, lv, PARAMS).warn


def test_warn_monotone_in_gap():
    rng = np.random.default_rng(53)
    for _ in range(100):
        fv = VehicleState(0.0, float(rng.uniform(0, 40)), float(rng.uniform(-5, 2)))
        lv = VehicleState(10.0, float(rng.uniform(0, 40)), float(rng.uniform(-8, 2)))
        gap1 = float(rng.uniform(0, 120))
        gap2 = float(rng.uniform(0, gap1))
        if evaluate(gap1, fv, lv, PARAMS).warn:
            assert evaluate(gap2, fv, lv, PARAMS).warn


def test_evaluate_pure_and_deterministic():
    fv = VehicleState(0.0, 22.0, -1.0)
    lv = VehicleState(30.0, 12.0, -4.0)
    a = evaluate(28.0, fv, lv, PARAMS)
    b = evaluate(28.0, fv, lv, PARAMS)
    assert a == b
    assert a.r_w == max(0.0, a.bor + a.r_d)


def test_evaluate_rejects_non_finite_gap():
    with pytest.raises(ValueError):
        evaluate(math.nan, VehicleState(0, 1, 0), VehicleState(5, 1, 0), PARAMS)


def test_params_validation():
    with pytest.raises(ValueError):
        CampParams(t_d=0.0)
    with pytest.raises(ValueError):
        CampParams(eps_v=-1.0)
    with pytest.raises(ValueError):
        CampParams(min_decel=0.0)
    with pytest.raises(ValueError):
        CampParams(length_offset=math.inf)
