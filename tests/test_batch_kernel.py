"""The batched sweep kernel against the scalar per-run oracle.

The oracle for one run is transmit/apply_mask -> estimate_stream ->
evaluate, as `run_scenario` chains them. The kernel is estimate_batch ->
warn_batch over many runs at once, and `sweep`/`run_cell` on top of it.
Estimates must agree bit for bit, warnings and aggregated cells exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fcwsim.camp_linear import CampParams, evaluate, warn_batch
from fcwsim.channel import apply_mask
from fcwsim.estimators import EstimatorKind, KalmanConfig, estimate_batch, estimate_stream
from fcwsim.harness import RunConfig, SweepCell, derive_seed, run_cell, run_scenario, sweep, truth_decisions
from fcwsim.kinematics import SampleClock, VehicleState
from fcwsim.metrics import aggregate
from test_acceptance import KALMAN_TUNINGS
from tracebuild import trace_from_states

CONFIGS = [
    (EstimatorKind.CONSTANT_VELOCITY, None),
    (EstimatorKind.CONSTANT_ACCELERATION, None),
    *((EstimatorKind.KALMAN, KalmanConfig(q=q, r=r)) for q, r in KALMAN_TUNINGS),
]

positions = st.floats(-200.0, 400.0)
speeds = st.one_of(st.sampled_from([0.0, 1e-3, 0.5]), st.floats(0.0, 40.0))
accels = st.one_of(st.sampled_from([0.0, -0.1, -2.0]), st.floats(-10.0, 5.0))
states = st.builds(VehicleState, positions, speeds, accels)
camps = st.builds(
    CampParams,
    t_d=st.floats(0.5, 3.0),
    eps_v=st.floats(0.1, 2.0),
    min_decel=st.floats(0.05, 1.0),
    length_offset=st.floats(-2.0, 5.0),
)


@st.composite
def fleets(draw):
    """1-3 traces of 2-12 steps at one sample period; lengths vary within a fleet."""
    t_s = draw(st.sampled_from([0.1, 0.05, 0.2]))
    fleet = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(2, 12))
        lv = [draw(states) for _ in range(n)]
        fv = [draw(states) for _ in range(n)]
        fv[0] = VehicleState(lv[0].x - draw(st.floats(0.5, 100.0)), fv[0].v, fv[0].a)
        fleet.append(trace_from_states(f"s{i}", t_s, lv, fv))
    return fleet


def masks_for(n_steps):
    """Random delivery masks plus the all-delivered (PER 0) and all-lost (PER 1) ones."""
    random = st.lists(st.lists(st.booleans(), min_size=n_steps - 1, max_size=n_steps - 1), max_size=4)
    return random.map(lambda ms: [[True] * n_steps, [True] + [False] * (n_steps - 1)] + [[True] + m for m in ms])


def columns(side):
    return [np.array([getattr(ts.state, name) for ts in side])[:, None] for name in ("x", "v", "a")]


def bits(*values):
    return [float(v).hex() for v in values]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), fleet=fleets(), camp=camps)
def test_kernel_matches_scalar_oracle_run_by_run(data, fleet, camp):
    for trace in fleet:
        masks = data.draw(masks_for(len(trace)))
        delivered = np.array(masks).T
        lv, (fv_x, fv_v, fv_a) = columns(trace.lv), columns(trace.fv)
        off = camp.length_offset
        truth = warn_batch(lv[0] - fv_x - off, fv_v, fv_a, lv[1], lv[2], camp)[:, 0]
        assert truth.tolist() == [d.warn for d in truth_decisions(trace, camp)]
        for kind, kcfg in CONFIGS:
            steps = list(estimate_batch(*lv, delivered, kind, trace.t_s, kcfg))
            warns = [warn_batch(x - fv_x[k] - off, fv_v[k], fv_a[k], v, a, camp) for k, (x, v, a) in enumerate(steps)]
            for m, mask in enumerate(masks):
                oracle = estimate_stream(apply_mask(trace.lv, mask), kind, SampleClock(trace.t_s), kcfg)
                for k, (est, fv_ts) in enumerate(zip(oracle, trace.fv)):
                    x, v, a = (arr[m] for arr in steps[k])
                    assert bits(x, v, a) == bits(est.x, est.v, est.a), (kind, k, mask)
                    decision = evaluate(est.x - fv_ts.state.x - off, fv_ts.state, est, camp)
                    assert warns[k][m] == decision.warn, (kind, k, mask)


@settings(max_examples=30, deadline=None)
@given(fleet=fleets(), camp=camps, seeds=st.integers(1, 3), master_seed=st.integers(0, 2**32))
def test_sweep_matches_scalar_runs(fleet, camp, seeds, master_seed):
    pers = (0.0, 0.4, 1.0)
    for q, r in KALMAN_TUNINGS:
        cfg = RunConfig(pers=pers, seeds=seeds, camp=camp, kalman=KalmanConfig(q=q, r=r), master_seed=master_seed)
        expected = [
            SweepCell(kind, per, aggregate([
                run_scenario(trace, kind, per, derive_seed(master_seed, trace.id, per, j), camp, cfg.kalman)[1]
                for trace in fleet
                for j in range(seeds)
            ]), len(fleet), seeds)
            for kind in cfg.estimators
            for per in pers
        ]
        assert sweep(fleet, cfg) == expected
        truth = {trace.id: truth_decisions(trace, camp) for trace in fleet}
        assert run_cell(fleet, EstimatorKind.KALMAN, 0.4, cfg, truth) == expected[-2]
