"""The batched sweep kernel against the scalar per-run oracle.

The oracle for one run is transmit/apply_mask -> estimate_stream ->
`evaluate` per step, or `evaluate_steps` per run as `run_scenario` calls
it. The kernel is estimate_batch -> warn_batch over many runs at once, and
`count_runs`/`sweep`/`run_cell` on top of it. Estimates must agree bit for
bit, warnings, per-run counts and aggregated cells exactly, and an
overflowing estimate or gap must be named by its steps and scenario at
every block size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcwsim import harness
from fcwsim.camp_linear import CampParams, evaluate, warn_batch
from fcwsim.channel import apply_mask
from fcwsim.estimators import EstimatorKind, KalmanConfig, estimate_batch, estimate_stream, kalman_emit, kalman_init
from fcwsim.errors import TraceFormatError
from fcwsim.harness import RunConfig, SweepCell, count_runs, derive_seed, run_cell, run_scenario, sweep, truth_decisions
from fcwsim.kinematics import SampleClock, VehicleState
from fcwsim.metrics import ConfusionCounts, aggregate
from fcwsim.scenarios import GenConfig, ScenarioTrace, generate_fleet
from test_acceptance import KALMAN_TUNINGS
from tracebuild import fast_follower_trace, lv_jump_trace, trace_from_states

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
            steps = list(estimate_batch(*lv, delivered, kind, trace.t_s, kcfg))
            assert len(steps) == len(trace)
            warns = [warn_batch(x - fv_x[k] - off, fv_v[k], fv_a[k], v, a, camp) for k, (x, v, a) in enumerate(steps)]
            for m, mask in enumerate(masks):
                oracle = estimate_stream(apply_mask(trace.lv, mask), kind, SampleClock(trace.t_s), kcfg)
                for k, (est, fv_ts) in enumerate(zip(oracle, trace.fv)):
                    x, v, a = (arr[m] for arr in steps[k])
                    assert bits(x, v, a) == bits(est.x, est.v, est.a), (kind, k, mask)
                    decision = evaluate(est.x - fv_ts.state.x - off, fv_ts.state, est, camp)
                    assert warns[k][m] == decision.warn, (kind, k, mask)


def test_first_kalman_estimate_is_emit_of_init():
    lv_x, lv_v, lv_a = np.array([[3.0, 7.0], [3.5, 7.5]]), np.array([[-0.0, 2.5], [1.0, 2.0]]), np.full((2, 2), -1.5)
    kcfg = KalmanConfig(p0=3.0)
    first = next(estimate_batch(lv_x, lv_v, lv_a, np.ones((2, 2), bool), EstimatorKind.KALMAN, 0.1, kcfg))
    expected = kalman_emit(kalman_init(lv_x[0], lv_v[0], lv_a[0], kcfg.p0))
    assert [np.asarray(got).tobytes() for got in first] == [np.asarray(value).tobytes() for value in expected]
    assert not np.signbit(first[1]).any()


# Blocks of 1, 2 and 7 run-steps put block boundaries mid-trace, leave a
# partial last block and make a block shorter than one step's runs; almost
# every drawn fleet does all three, so those sizes need fewer examples.
@pytest.mark.parametrize(
    "block, examples",
    [pytest.param(block, examples, id=f"block{block}") for block, examples in ((harness.BLOCK, 30), (1, 10), (2, 10), (7, 10))],
)
def test_sweep_matches_scalar_runs(block, examples, monkeypatch):
    monkeypatch.setattr(harness, "BLOCK", block)
    spans = []

    def recording_warn_batch(*args):
        """warn_batch that records each call's (elements, elements per step); the truth pass calls it too."""
        shape = np.broadcast_shapes(*(np.shape(arg) for arg in args[:5]))
        spans.append((int(np.prod(shape)), int(np.prod(shape[1:]))))
        return warn_batch(*args)

    monkeypatch.setattr(harness, "warn_batch", recording_warn_batch)
    check = given(fleet=fleets(), camp=camps, seeds=st.integers(1, 3), master_seed=st.integers(0, 2**32))(
        _check_sweep_against_scalar_runs
    )
    settings(max_examples=examples, deadline=None)(check)()
    assert spans
    assert [span for span in spans if span[0] > max(block, span[1])] == []


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


@pytest.mark.parametrize("fleet, camp", [
    pytest.param([fast_follower_trace()], CampParams(), id="v_fv1e200"),
    pytest.param(generate_fleet(GenConfig(n_scenarios=2, seed=1)), CampParams(t_d=1e200), id="t_d1e200"),
])
def test_sweep_matches_scalar_runs_where_the_warning_range_overflows(fleet, camp):
    # The warning range overflows to inf on both paths; under the suite's warnings-as-errors
    # filter, a numpy RuntimeWarning from the kernel fails this test.
    _check_sweep_against_scalar_runs(fleet, camp, seeds=2, master_seed=0)


@pytest.mark.parametrize("kind", list(EstimatorKind))
def test_estimate_overflow_inside_a_block_is_rejected(kind):
    # From x = 1e308, v = 5e307 with nothing delivered after slot 0, step 1
    # is finite and step 2 overflows. Run 0 starts at rest and stays finite.
    # estimate_batch yields the overflow as it is, and the sweep rejects it
    # (test below).
    n = 5
    lv = [np.tile([0.0, value], (n, 1)) for value in (1e308, 5e307, 0.0)]
    delivered = np.zeros((n, 2), dtype=bool)
    delivered[0] = True
    with np.errstate(over="ignore", invalid="ignore"):
        steps = list(estimate_batch(*lv, delivered, kind, 1.0))
    finite = [np.isfinite(np.broadcast_arrays(*step)).all(axis=0).tolist() for step in steps]
    assert finite == [[True, True], [True, True]] + [[True, False]] * (n - 2)


@pytest.mark.parametrize("block, middle, cfg, steps", [
    *(pytest.param(block, lv_jump_trace("s0002", 151, 0.1), RunConfig(pers=(0.0,), seeds=1), steps,
                   id=f"{block}-{steps}") for block, steps in ((harness.BLOCK, "0-150"), (1, "2-2"), (7, "2-3"))),
    *(pytest.param(block, lv_jump_trace("s0002", 6, 2.0, x_fv=-4e307), RunConfig(pers=(0.5,), seeds=1, master_seed=32),
                   steps, id=f"gap-{block}-{steps}") for block, steps in ((harness.BLOCK, "0-5"), (1, "5-5"), (7, "0-5"))),
])
def test_sweep_names_the_steps_and_scenario_that_overflow(block, middle, cfg, steps, monkeypatch):
    # The middle scenario's delivered jumps of 8e307 m overflow the Kalman
    # speed at step 2. Three runs per estimator put step 2 in a block of
    # steps 0-150, of step 2 alone, or of steps 2-3, a block ending mid-trace.
    # In the "gap" cases, the middle scenario has 6 steps of 2 s and its own
    # group of one run; at PER 0.5 and master seed 32 its Kalman position
    # stays finite, but at step 5 is over 1.3e308 m ahead of the FV at
    # -4e307 m, so only the gap overflows (steps 0-5 in one block, or 5-5).
    first, last = generate_fleet(GenConfig(n_scenarios=2, seed=1))
    monkeypatch.setattr(harness, "BLOCK", block)
    with pytest.raises(TraceFormatError) as error:
        sweep([first, middle, last], cfg)
    assert str(error.value) == (f"non-finite vehicle state estimate in steps {steps} "
                                "(the LV trace overflows the kalman estimator) in scenario s0002")
