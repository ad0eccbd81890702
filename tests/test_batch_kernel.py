"""The batched sweep kernel against the scalar per-run oracle.

The oracle for one run is transmit/apply_mask -> estimate_stream ->
evaluate, as `run_scenario` chains them. The kernel is estimate_batch ->
warn_batch over many runs at once, and `count_runs`/`sweep`/`run_cell` on
top of it. Estimates must agree bit for bit, warnings, per-run counts and
aggregated cells exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcwsim import estimators
from fcwsim.camp_linear import CampParams, evaluate, warn_batch
from fcwsim.channel import apply_mask
from fcwsim.estimators import EstimatorKind, KalmanConfig, estimate_batch, estimate_stream
from fcwsim.harness import RunConfig, SweepCell, count_runs, derive_seed, run_cell, run_scenario, sweep, truth_decisions
from fcwsim.kinematics import SampleClock, VehicleState
from fcwsim.metrics import ConfusionCounts, aggregate
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
    """1-3 traces of 2-12 steps; lengths and sample periods vary within a fleet."""
    fleet = []
    for i in range(draw(st.integers(1, 3))):
        t_s = draw(st.sampled_from([0.1, 0.05, 0.2]))
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
            steps = []
            for k0, x, v, a in estimate_batch(*lv, delivered, kind, trace.t_s, kcfg):
                assert k0 == len(steps)
                steps.extend(zip(x, v, a))
            assert len(steps) == len(trace)
            warns = [warn_batch(x - fv_x[k] - off, fv_v[k], fv_a[k], v, a, camp) for k, (x, v, a) in enumerate(steps)]
            for m, mask in enumerate(masks):
                oracle = estimate_stream(apply_mask(trace.lv, mask), kind, SampleClock(trace.t_s), kcfg)
                for k, (est, fv_ts) in enumerate(zip(oracle, trace.fv)):
                    x, v, a = (arr[m] for arr in steps[k])
                    assert bits(x, v, a) == bits(est.x, est.v, est.a), (kind, k, mask)
                    decision = evaluate(est.x - fv_ts.state.x - off, fv_ts.state, est, camp)
                    assert warns[k][m] == decision.warn, (kind, k, mask)


# Blocks of 1, 2 and 7 run-steps put block boundaries mid-trace, leave a
# partial last block and make a block shorter than one step's runs; almost
# every drawn fleet does all three, so those sizes need fewer examples.
@pytest.mark.parametrize(
    "block, examples",
    [pytest.param(block, examples, id=f"block{block}") for block, examples in ((estimators.BLOCK, 30), (1, 10), (2, 10), (7, 10))],
)
def test_sweep_matches_scalar_runs(block, examples, monkeypatch):
    monkeypatch.setattr(estimators, "BLOCK", block)
    check = given(fleet=fleets(), camp=camps, seeds=st.integers(1, 3), master_seed=st.integers(0, 2**32))(
        _check_sweep_against_scalar_runs
    )
    settings(max_examples=examples, deadline=None)(check)()


def _check_sweep_against_scalar_runs(fleet, camp, seeds, master_seed):
    pers = (0.0, 0.4, 1.0)

    def scalar_runs(kind, per, kalman):
        """run_scenario's counts for one cell, one list of seeds per scenario."""
        return [[run_scenario(trace, kind, per, derive_seed(master_seed, trace.id, per, j), camp, kalman)[1]
                 for j in range(seeds)] for trace in fleet]

    # The Kalman tuning does not reach a CV or CA run, so their runs serve every tuning.
    dead_reckoning = {(kind, per): scalar_runs(kind, per, None)
                      for kind in (EstimatorKind.CONSTANT_VELOCITY, EstimatorKind.CONSTANT_ACCELERATION) for per in pers}
    for q, r in KALMAN_TUNINGS:
        cfg = RunConfig(pers=pers, seeds=seeds, camp=camp, kalman=KalmanConfig(q=q, r=r), master_seed=master_seed)
        runs = [[scalar_runs(kind, per, cfg.kalman) if kind is EstimatorKind.KALMAN else dead_reckoning[kind, per]
                 for per in pers] for kind in cfg.estimators]
        counts = count_runs(fleet, cfg)
        assert counts.shape == (len(cfg.estimators), len(pers), len(fleet), seeds, 4)
        for e, p, i, j in np.ndindex(counts.shape[:-1]):
            assert ConfusionCounts(*counts[e, p, i, j].tolist()) == runs[e][p][i][j], (e, p, i, j)
        expected = [
            SweepCell(kind, per, aggregate([c for scenario in runs[e][p] for c in scenario]), len(fleet), seeds)
            for e, kind in enumerate(cfg.estimators)
            for p, per in enumerate(pers)
        ]
        assert sweep(fleet, cfg) == expected
        for cell in expected:
            assert run_cell(fleet, cell.estimator, cell.per, cfg) == cell


@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_estimate_overflow_inside_a_block_is_rejected(kind):
    # From x = 1e308, v = 5e307 with nothing delivered after slot 0, step 1
    # is finite and step 2 overflows, inside the one block of 5 steps. Run 0
    # starts at rest and stays finite, so the error names run 1.
    n = 5
    lv = [np.tile([0.0, value], (n, 1)) for value in (1e308, 5e307, 0.0)]
    delivered = np.zeros((n, 2), dtype=bool)
    delivered[0] = True
    overflow = pytest.raises(ValueError, match="non-finite vehicle state estimate")
    with np.errstate(over="ignore", invalid="ignore"), overflow as error:
        list(estimate_batch(*lv, delivered, kind, 1.0))
    assert error.value.run == (1,)
