"""Fleet generation and CSV/manifest ingestion."""

import json

import pytest

from fcwsim.errors import ConfigError, TraceFormatError
from fcwsim.kinematics import TimedState, VehicleState, step_position_ca, step_position_cv, step_velocity_ca
from fcwsim.scenarios import (
    GenConfig,
    ScenarioTrace,
    generate_fleet,
    load_csv,
    load_fleet,
    save_csv,
    save_fleet,
)


def test_default_fleet_shape():
    fleet = generate_fleet(GenConfig())
    assert len(fleet) == 100
    assert len({trace.id for trace in fleet}) == 100
    assert all(len(trace) == 151 for trace in fleet)


def test_generated_traces_satisfy_invariants():
    for trace in generate_fleet(GenConfig(n_scenarios=10, seed=3)):
        assert trace.lv[0].state.x - trace.fv[0].state.x > 0.0
        assert all(ts.state.v >= 0.0 for ts in trace.lv)


def test_generated_lv_motion_replays_through_step_functions():
    # stepwise integration-scheme agreement, bit for bit
    for trace in generate_fleet(GenConfig(n_scenarios=5, seed=9)):
        for k in range(len(trace) - 1):
            lv_k, lv_next = trace.lv[k].state, trace.lv[k + 1].state
            assert lv_next.x == step_position_ca(lv_k.x, lv_k.v, lv_k.a, trace.t_s)
            assert lv_next.v == step_velocity_ca(lv_k.v, lv_k.a, trace.t_s)
            fv_k, fv_next = trace.fv[k].state, trace.fv[k + 1].state
            assert fv_next.x == step_position_cv(fv_k.x, fv_k.v, trace.t_s)
            assert fv_next.v == fv_k.v


def test_braking_ladder_reaches_exact_rest():
    # every LV that stops inside the window must hit exactly 0.0, and the
    # step before must reach it through the plain linear update (no clamp)
    fleet = generate_fleet(GenConfig(n_scenarios=30, seed=21))
    stopped = 0
    for trace in fleet:
        speeds = [ts.state.v for ts in trace.lv]
        if 0.0 in speeds:
            stopped += 1
            k = speeds.index(0.0)
            prev = trace.lv[k - 1].state
            assert prev.v + prev.a * trace.t_s == 0.0
            assert all(v == 0.0 for v in speeds[k:])
            assert all(ts.state.a == 0.0 for ts in trace.lv[k:])
    assert stopped > 0


def test_zero_width_ranges_give_identical_traces():
    cfg = GenConfig(
        n_scenarios=4,
        speed_range=(20.0, 20.0),
        headway_range=(1.0, 1.0),
        decel_range=(-4.0, -4.0),
        onset_range=(2.0, 2.0),
        seed=5,
    )
    fleet = generate_fleet(cfg)
    first = [(ts.state.x, ts.state.v, ts.state.a) for ts in fleet[0].lv]
    for trace in fleet[1:]:
        assert [(ts.state.x, ts.state.v, ts.state.a) for ts in trace.lv] == first


def test_brake_to_rest_duration_and_distance():
    # -4 m/s^2 from 20 m/s: rest exactly 5 s after onset, 50 m travelled
    cfg = GenConfig(
        n_scenarios=1,
        speed_range=(20.0, 20.0),
        decel_range=(-4.0, -4.0),
        onset_range=(2.0, 2.0),
        seed=1,
    )
    trace = generate_fleet(cfg)[0]
    onset = 20  # 2.0 s at 10 Hz
    rest = onset + 50
    assert trace.lv[rest].state.v == 0.0
    assert trace.lv[rest - 1].state.v > 0.0
    advanced = trace.lv[rest].state.x - trace.lv[onset].state.x
    assert advanced == pytest.approx(20.0**2 / (2 * 4.0), abs=1e-5)


def test_generation_deterministic():
    a = generate_fleet(GenConfig(n_scenarios=5, seed=11))
    b = generate_fleet(GenConfig(n_scenarios=5, seed=11))
    assert a == b


def test_gen_config_validation():
    with pytest.raises(ConfigError):
        GenConfig(n_scenarios=0)
    with pytest.raises(ConfigError):
        GenConfig(duration=0.0)
    with pytest.raises(ConfigError):
        GenConfig(decel_range=(-2.0, 1.0))
    with pytest.raises(ConfigError):
        GenConfig(speed_range=(30.0, 15.0))
    with pytest.raises(ConfigError):
        GenConfig(onset_range=(2.0, 20.0))
    with pytest.raises(ConfigError):
        GenConfig(headway_range=(0.0, 1.0))


def test_trace_invariant_validation():
    lv = (TimedState(0.0, VehicleState(10.0, 5.0, 0.0)), TimedState(0.1, VehicleState(10.5, 5.0, 0.0)))
    fv = (TimedState(0.0, VehicleState(0.0, 5.0, 0.0)), TimedState(0.1, VehicleState(0.5, 5.0, 0.0)))
    ScenarioTrace("ok", 0.1, lv, fv)
    with pytest.raises(ValueError):
        ScenarioTrace("short", 0.1, lv[:1], fv[:1])
    with pytest.raises(ValueError):
        ScenarioTrace("mismatch", 0.1, lv, fv[:1])
    with pytest.raises(ValueError):
        ScenarioTrace("gap", 0.1, fv, lv)  # LV behind FV
    bad_t = (lv[0], TimedState(0.3, VehicleState(10.5, 5.0, 0.0)))
    with pytest.raises(ValueError):
        ScenarioTrace("jump", 0.1, bad_t, fv)
    late = tuple(TimedState(ts.t + 1.0, ts.state) for ts in lv)
    with pytest.raises(ValueError):
        ScenarioTrace("origin", 0.1, late, late)


def test_csv_round_trip_is_exact(tmp_path):
    trace = generate_fleet(GenConfig(n_scenarios=1, seed=13))[0]
    path = tmp_path / "trace.csv"
    save_csv(trace, path)
    loaded = load_csv(path, trace_id=trace.id)
    assert loaded == trace


def test_load_csv_minimal_file(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text(
        "t,x_lv,v_lv,a_lv,x_fv,v_fv,a_fv\n"
        "0.0,20.0,10.0,0.0,0.0,8.0,0.0\n"
        "0.1,21.0,10.0,0.0,0.8,8.0,0.0\n"
    )
    trace = load_csv(path)
    assert len(trace) == 2
    assert trace.t_s == pytest.approx(0.1)
    assert trace.id == "two"


@pytest.mark.parametrize(
    "rows,fragment",
    [
        ("0.0,20,10,0,0,8,0\n0.1,21,10,0,0.8,8,0\n0.3,22,10,0,1.6,8,0\n", "row 4"),
        ("0.0,20,-1,0,0,8,0\n0.1,21,10,0,0.8,8,0\n", "negative speed"),
        ("0.0,20,10,0,0,8,0\n0.1,nan,10,0,0.8,8,0\n", "non-finite"),
        ("0.0,20,10,0,0,8,0\n0.1,abc,10,0,0.8,8,0\n", "non-numeric"),
        ("0.0,20,10,0,0,8,0\n", "at least 2"),
        ("0.5,20,10,0,0,8,0\n0.6,21,10,0,0.8,8,0\n", "origin"),
    ],
)
def test_load_csv_row_errors(tmp_path, rows, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("t,x_lv,v_lv,a_lv,x_fv,v_fv,a_fv\n" + rows)
    with pytest.raises(TraceFormatError, match=fragment):
        load_csv(path)


def test_load_csv_header_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x_lv,v_lv,a_lv,x_fv,v_fv\n0,20,10,0,0,8\n")
    with pytest.raises(TraceFormatError, match="missing columns"):
        load_csv(path)
    path.write_text("t,x_lv,v_lv,a_lv,x_fv,v_fv,a_fv,extra\n0,20,10,0,0,8,0,1\n")
    with pytest.raises(TraceFormatError, match="unknown columns"):
        load_csv(path)
    with pytest.raises(TraceFormatError, match="cannot open"):
        load_csv(tmp_path / "missing.csv")


def test_fleet_round_trip(tmp_path):
    fleet = generate_fleet(GenConfig(n_scenarios=3, seed=17))
    save_fleet(fleet, tmp_path / "fleet")
    manifest = json.loads((tmp_path / "fleet" / "manifest.json").read_text())
    assert [e["id"] for e in manifest["scenarios"]] == [t.id for t in fleet]
    assert load_fleet(tmp_path / "fleet") == fleet


def test_fleet_write_is_byte_deterministic(tmp_path):
    fleet = generate_fleet(GenConfig(n_scenarios=2, seed=19))
    save_fleet(fleet, tmp_path / "a")
    save_fleet(fleet, tmp_path / "b")
    for name in ("manifest.json", "s0000.csv", "s0001.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_load_fleet_errors(tmp_path):
    with pytest.raises(TraceFormatError, match="cannot open"):
        load_fleet(tmp_path / "nowhere")
    fleet_dir = tmp_path / "fleet"
    fleet_dir.mkdir()
    (fleet_dir / "manifest.json").write_text("{not json")
    with pytest.raises(TraceFormatError, match="invalid JSON"):
        load_fleet(fleet_dir)
    for manifest in ('{"scenarios": []}', "[]"):
        (fleet_dir / "manifest.json").write_text(manifest)
        with pytest.raises(TraceFormatError, match="no scenarios"):
            load_fleet(fleet_dir)


def _write_fleet_with(tmp_path, edit):
    """A saved 3-scenario fleet whose manifest has been passed through `edit`."""
    fleet_dir = tmp_path / "fleet"
    save_fleet(generate_fleet(GenConfig(n_scenarios=3, seed=5)), fleet_dir)
    manifest = json.loads((fleet_dir / "manifest.json").read_text())
    edit(manifest)
    (fleet_dir / "manifest.json").write_text(json.dumps(manifest))
    return fleet_dir


def test_load_fleet_rejects_duplicate_ids(tmp_path):
    def reuse_first_id(manifest):
        manifest["scenarios"][2]["id"] = manifest["scenarios"][0]["id"]

    with pytest.raises(TraceFormatError, match="duplicate scenario id 's0000'"):
        load_fleet(_write_fleet_with(tmp_path, reuse_first_id))


def test_load_fleet_rejects_files_outside_the_fleet(tmp_path):
    def escape(manifest):
        manifest["scenarios"][1]["file"] = "../s0001.csv"

    fleet_dir = _write_fleet_with(tmp_path, escape)
    (tmp_path / "s0001.csv").write_bytes((fleet_dir / "s0001.csv").read_bytes())
    with pytest.raises(TraceFormatError, match="outside the fleet directory"):
        load_fleet(fleet_dir)


def test_load_fleet_rejects_manifest_period_mismatch(tmp_path):
    def wrong_period(manifest):
        manifest["t_s"] = 0.2

    with pytest.raises(TraceFormatError, match="t_s 0.2 != sample period 0.1"):
        load_fleet(_write_fleet_with(tmp_path, wrong_period))
