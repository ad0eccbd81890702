"""Pipeline orchestration: determinism, truth-side independence, sweep structure."""

import hashlib
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fcwsim.camp_linear import CampParams
from fcwsim.errors import ConfigError
from fcwsim.estimators import EstimatorKind
from fcwsim.harness import (
    RunConfig,
    SweepCell,
    derive_seed,
    run_cell,
    run_scenario,
    sweep,
    truth_decisions,
    write_step_log,
    write_summary_csv,
    write_summary_json,
)
from fcwsim.kinematics import VehicleState, step_position_cv
from fcwsim.metrics import aggregate
from fcwsim.scenarios import GenConfig, generate_fleet, load_fleet, save_fleet
from tracebuild import trace_from_states

ALL_KINDS = tuple(EstimatorKind)


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(GenConfig(n_scenarios=6, seed=2))


def constant_velocity_trace(n=40, t_s=0.1):
    # built with the stepwise fold so dead reckoning can replay it exactly
    lv, fv = [], []
    x_lv, x_fv = 30.0, 0.0
    for _ in range(n):
        lv.append(VehicleState(x_lv, 12.0, 0.0))
        fv.append(VehicleState(x_fv, 15.0, 0.0))
        x_lv = step_position_cv(x_lv, 12.0, t_s)
        x_fv = step_position_cv(x_fv, 15.0, t_s)
    return trace_from_states("cv-closing", t_s, lv, fv)


def test_derive_seed_is_stable_and_spread():
    a = derive_seed(0, "s0001", 0.3, 0)
    assert a == derive_seed(0, "s0001", 0.3, 0) == 9680090156939884924
    others = {
        derive_seed(1, "s0001", 0.3, 0),
        derive_seed(0, "s0002", 0.3, 0),
        derive_seed(0, "s0001", 0.4, 0),
        derive_seed(0, "s0001", 0.3, 1),
    }
    assert a not in others
    assert len(others) == 4
    assert 0 <= a < 2**64


@given(master_seed=st.integers(0, 2**64), scenario_id=st.text(min_size=1), per=st.floats(0.0, 1.0),
       seed_index=st.integers(0, 10**6))
@example(master_seed=7, scenario_id="sçénario-€-😀", per=0.1, seed_index=19)
def test_derive_seed_is_the_sha256_of_its_key(master_seed, scenario_id, per, seed_index):
    # derive_seed may take SHA-256 from a built-in module instead of hashlib; the bytes must not move.
    key = f"fcwsim:v1|{master_seed}|{scenario_id}|{per:.10g}|{seed_index}".encode("utf-8")
    expected = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
    assert derive_seed(master_seed, scenario_id, per, seed_index) == expected


def test_zero_loss_run_matches_truth(fleet):
    for kind in ALL_KINDS:
        for trace in fleet:
            log, counts = run_scenario(trace, kind, 0.0, seed=7)
            assert counts.is_ == 0 and counts.ih == 0
            assert all(r.est.warn == r.truth.warn for r in log)
            assert all(r.delivered for r in log)


def test_total_loss_cv_on_constant_velocity_trace():
    # dead reckoning from slot 0 alone still reproduces a constant-velocity LV
    trace = constant_velocity_trace()
    log, counts = run_scenario(trace, EstimatorKind.CONSTANT_VELOCITY, 1.0, seed=3)
    assert sum(r.delivered for r in log) == 1
    assert all(r.est_state.x - r.true_state.x == 0.0 for r in log)
    assert all(r.est.warn == r.truth.warn for r in log)
    assert counts.is_ == 0 and counts.ih == 0


def test_run_scenario_deterministic_replay(fleet):
    trace = fleet[0]
    a_log, a_counts = run_scenario(trace, EstimatorKind.KALMAN, 0.4, seed=99)
    b_log, b_counts = run_scenario(trace, EstimatorKind.KALMAN, 0.4, seed=99)
    assert a_counts == b_counts
    assert a_log == b_log


def test_truth_side_independent_of_estimator_and_per(fleet):
    camp = CampParams()
    trace = fleet[1]
    reference = truth_decisions(trace, camp)
    for kind in ALL_KINDS:
        for per in (0.0, 0.5, 0.9):
            log, _ = run_scenario(trace, kind, per, seed=13, camp=camp)
            assert [r.truth for r in log] == reference


def test_counts_conservation_per_cell(fleet):
    cfg = RunConfig(estimators=(EstimatorKind.CONSTANT_ACCELERATION,), pers=(0.3,), seeds=4)
    cell = run_cell(fleet, EstimatorKind.CONSTANT_ACCELERATION, 0.3, cfg)
    # every step of every run is classified exactly once
    for trace in fleet:
        for seed_index in range(cfg.seeds):
            seed = derive_seed(cfg.master_seed, trace.id, 0.3, seed_index)
            _, counts = run_scenario(trace, EstimatorKind.CONSTANT_ACCELERATION, 0.3, seed)
            assert counts.total == len(trace)


def test_sweep_grid_structure(fleet):
    pers = tuple(round(0.1 * i, 10) for i in range(1, 10))
    cfg = RunConfig(estimators=ALL_KINDS, pers=pers, seeds=1)
    cells = sweep(fleet, cfg)
    assert len(cells) == 27
    assert [(c.estimator, c.per) for c in cells] == [(k, p) for k in ALL_KINDS for p in pers]


def test_sweep_zero_loss_is_perfect(fleet):
    cells = sweep(fleet, RunConfig(pers=(0.0,), seeds=2))
    for cell in cells:
        assert cell.summary.mean_accuracy == 1.0


def test_truth_always_follows_the_cells_camp_params():
    # Truth decisions made under other CAMP parameters do not reach a cell: at zero loss it stays perfect.
    fleet = generate_fleet(GenConfig(n_scenarios=10, seed=0))
    cfg = RunConfig(pers=(0.0,), seeds=1, camp=CampParams(t_d=3.0))
    stale = {trace.id: truth_decisions(trace, CampParams()) for trace in fleet}
    for kind in ALL_KINDS:
        cell = run_cell(fleet, kind, 0.0, cfg, stale)
        assert cell == run_cell(fleet, kind, 0.0, cfg)
        assert (cell.summary.mean_tp, cell.summary.mean_accuracy) == (1.0, 1.0)


def test_sweep_input_validation(fleet, tmp_path):
    with pytest.raises(ConfigError):
        sweep([], RunConfig())
    with pytest.raises(ConfigError):
        run_cell([], EstimatorKind.CONSTANT_VELOCITY, 0.5, RunConfig())
    # run_cell's PER passes the same checks as a sweep grid's
    for per in (1.5, float("nan"), -0.2):
        with pytest.raises(ConfigError, match="PER must be in"):
            run_cell(fleet, EstimatorKind.CONSTANT_VELOCITY, per, RunConfig(seeds=1))
    # two periods in one fleet: each trace steps at its own, as it does alone
    mixed = list(fleet) + [constant_velocity_trace(t_s=0.05)]
    cfg = RunConfig(pers=(0.0, 0.5), seeds=2)
    expected = [
        SweepCell(kind, per, aggregate([
            run_scenario(trace, kind, per, derive_seed(0, trace.id, per, j))[1] for trace in mixed for j in range(2)
        ]), len(mixed), 2)
        for kind in cfg.estimators
        for per in cfg.pers
    ]
    assert sweep(mixed, cfg) == expected
    assert run_cell(mixed, EstimatorKind.CONSTANT_VELOCITY, 0.5, cfg) == expected[1]
    # saved with manifest t_s null, it reloads as it was
    save_fleet(mixed, tmp_path)
    assert json.loads((tmp_path / "manifest.json").read_text())["t_s"] is None
    reloaded = load_fleet(tmp_path)
    assert reloaded == mixed
    assert sweep(reloaded, cfg) == expected


def test_sweep_never_builds_per_step_states(tmp_path):
    save_fleet(generate_fleet(GenConfig(n_scenarios=3, seed=4)), tmp_path)
    fleet = load_fleet(tmp_path)
    sweep(fleet, RunConfig(pers=(0.0, 0.5), seeds=2))
    assert not any({"lv", "fv"} & vars(trace).keys() for trace in fleet)


def test_duplicate_ids_are_config_errors(fleet):
    twice = list(fleet) + [fleet[0]]
    with pytest.raises(ConfigError, match="duplicate scenario id"):
        sweep(twice, RunConfig(pers=(0.0,), seeds=1))
    with pytest.raises(ConfigError, match="duplicate scenario id"):
        run_cell(twice, EstimatorKind.CONSTANT_VELOCITY, 0.0, RunConfig(pers=(0.0,), seeds=1))


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(estimators=())
    with pytest.raises(ConfigError):
        RunConfig(pers=())
    with pytest.raises(ConfigError):
        RunConfig(pers=(1.2,))
    with pytest.raises(ConfigError):
        RunConfig(seeds=0)
    # a repeated grid value would draw the same masks twice and write duplicate cells
    with pytest.raises(ConfigError, match="repeated"):
        RunConfig(estimators=(EstimatorKind.KALMAN, EstimatorKind.CONSTANT_VELOCITY, EstimatorKind.KALMAN))
    with pytest.raises(ConfigError, match="repeated"):
        RunConfig(pers=(0.5, 0.1, 0.5))
    with pytest.raises(ConfigError, match="repeated"):
        RunConfig(pers=(0.0, -0.0))
    # distinct floats that share a derive_seed key, or only a printed `per` label, would head two rows alike
    with pytest.raises(ConfigError, match="repeated"):
        RunConfig(pers=(0.1, 0.10000000001))
    with pytest.raises(ConfigError, match="repeated"):
        RunConfig(pers=(0.1, 0.1000000001))


def test_step_log_csv_shape(tmp_path, fleet):
    log, _ = run_scenario(fleet[0], EstimatorKind.CONSTANT_ACCELERATION, 0.3, seed=5)
    path = tmp_path / "log.csv"
    write_step_log(log, path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["step", "t", "delivered"]
    assert "warn_true" in header and "warn_est" in header
    assert len(lines) == len(log) + 1
    row = dict(zip(header, lines[1].split(",")))
    assert row["step"] == "0" and row["delivered"] == "1"
    float(row["r_w_true"])  # numeric fields parse back


def test_summary_writers(tmp_path, fleet):
    cfg = RunConfig(estimators=(EstimatorKind.CONSTANT_VELOCITY,), pers=(0.0, 0.5), seeds=2)
    cells = sweep(fleet, cfg)
    csv_path = tmp_path / "summary.csv"
    json_path = tmp_path / "summary.json"
    write_summary_csv(cells, csv_path)
    write_summary_json(cells, cfg, json_path)

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "estimator,per,mean_tp,mean_accuracy,n_scenarios,n_seeds,n_undefined_tp"
    assert len(lines) == 3
    assert lines[1].startswith("cv,0,")

    import json

    payload = json.loads(json_path.read_text())
    assert payload["config"]["seeds"] == 2
    assert len(payload["cells"]) == 2
    assert payload["cells"][0]["estimator"] == "cv"
    assert payload["cells"][0]["mean_accuracy"] == 1.0
