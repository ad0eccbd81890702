"""Fleet generation and CSV/manifest ingestion."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcwsim.errors import ConfigError, TraceFormatError
from fcwsim.kinematics import step_position_ca, step_position_cv, step_velocity_ca
from fcwsim.scenarios import (
    GenConfig,
    ScenarioTrace,
    generate_fleet,
    load_csv,
    load_fleet,
    load_scenario,
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
    ok = np.array([[0.0, 10.0, 5.0, 0.0, 0.0, 5.0, 0.0], [0.1, 10.5, 5.0, 0.0, 0.5, 5.0, 0.0]])
    ScenarioTrace("ok", 0.1, ok)
    cases = [
        ("short", ok[:1], "at least 2 steps"),
        ("gap", ok[:, [0, 4, 5, 6, 1, 2, 3]], "initial gap"),  # LV behind FV
        ("jump", with_value(ok, 1, 0, 0.3), "step 1: non-uniform sampling"),
        ("origin", with_value(ok, 0, 0, 1.0), "step 0: time origin"),
        ("nan", with_value(ok, 1, 6, np.nan), "step 1: non-finite a_fv=nan"),
        ("reverse", with_value(ok, 1, 2, -0.5), "step 1: negative speed v_lv=-0.5"),
        ("columns", ok[:, :6], "shape"),
    ]
    for trace_id, data, fragment in cases:
        with pytest.raises(ValueError, match=f"trace {trace_id}: .*{fragment}"):
            ScenarioTrace(trace_id, 0.1, data)
    with pytest.raises(ValueError, match="sample period"):
        ScenarioTrace("period", 0.0, ok)


def with_value(data, k, j, value):
    data = data.copy()
    data[k, j] = value
    return data


def test_trace_data_is_a_read_only_copy():
    data = np.array([[0.0, 10.0, 5.0, 0.0, 0.0, 5.0, 0.0], [0.1, 10.5, 5.0, 0.0, 0.5, 5.0, 0.0]])
    trace = ScenarioTrace("ro", 0.1, data)
    data[1, 1] = 99.0
    assert trace.data[1, 1] == 10.5
    with pytest.raises(ValueError, match="read-only"):
        trace.data[1, 1] = 99.0
    assert trace == ScenarioTrace("ro", 0.1, trace.data)
    assert trace != ScenarioTrace("other", 0.1, trace.data)
    with pytest.raises(TypeError):
        hash(trace)


def test_state_views_match_the_array():
    trace = generate_fleet(GenConfig(n_scenarios=1, seed=8))[0]
    for k, (lv, fv) in enumerate(trace.steps()):
        row = trace.data[k].tolist()
        assert (lv.t, lv.state.x, lv.state.v, lv.state.a) == tuple(row[:4])
        assert (fv.t, fv.state.x, fv.state.v, fv.state.a) == (row[0], *row[4:])
        assert type(lv.state.x) is float


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


@pytest.mark.parametrize(
    "rows,fragment",
    [
        ("0.0,20,10,0,0,8,0\n0.1,nan,10,0,0.8,8,0\n0.2,abc,10,0,1.6,8,0\n", "row 3: non-finite x_lv=nan"),
        ("0.0,20,10,0,0,8,0\n0.1,abc,10,0,0.8,8,0\n0.2,nan,10,0,1.6,8,0\n", "row 3: non-numeric"),
        ("0.0,20,10,0,0,8,0\n0.1,21,10,0,0.8,-8,0\n0.2,22,10\n", "row 3: negative speed v_fv=-8.0"),
        ("0.0,20,10,0,0,8,0\n0.1,21,10,0,0.8,8\n0.2,22,-1,0,1.6,8,0\n", "row 3: expected 7 fields, got 6"),
        ("0.0,20,10,0,0,8,inf\n0.1,21,-10,0,0.8,8,0\n", "row 2: non-finite a_fv=inf"),
        ("0.0,20,10,0,0,8,0\n0.1,21,10,0,0.8,8,0\n0.3,22,10,0,1.6,8,0\n0.5,23,10,0,2.4,8,0\n",
         r"row 4: non-uniform sampling \(dt=0.19999999999999998, expected 0.1\)"),
        ("0.0,20,10,0,0,8,0\n0.0,21,10,0,0.8,8,0\n0.3,22,10,0,1.6,8,0\n", "row 3: non-increasing"),
        ("0.5,20,10,0,0,8,0\n0.0,21,10,0,0.8,8,0\n", "row 2: time origin must be 0, got 0.5"),
        ("-1e308,20,10,0,0,8,0\n1e308,21,10,0,0.8,8,0\n", "row 2: time origin"),
        ("-1e-10,20,10,0,0,8,0\n0.1,21,10,0,0.8,8,0\n", "row 2: time origin must be 0, got -1e-10"),
        ("0.0,20,10,0,0,8,0\n1e308,21,10,0,0.8,8,0\n-1e308,22,10,0,1.6,8,0\n", r"row 4: non-uniform sampling \(dt=-inf"),
        ("0.0,0,10,0,0,8,0\n0.1,1,10,0,0.8,8,0\n", "trace bad: initial gap"),
    ],
)
def test_load_csv_reports_the_first_bad_row(tmp_path, rows, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("t,x_lv,v_lv,a_lv,x_fv,v_fv,a_fv\n" + rows)
    with pytest.raises(TraceFormatError, match=fragment):
        load_csv(path)


def test_blank_lines_are_skipped_but_shift_row_numbers(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text(
        "t,x_lv,v_lv,a_lv,x_fv,v_fv,a_fv\n"
        "0.0,20,10,0,0,8,0\n"
        "\n"
        "0.1,21,10,0,0.8,8,0\n"
        "0.2,22,-1,0,1.6,8,0\n"
    )
    with pytest.raises(TraceFormatError, match="row 5: negative speed v_lv=-1.0"):
        load_csv(path)
    path.write_text(path.read_text().replace("-1", "10"))
    assert len(load_csv(path)) == 3


def test_header_columns_may_be_reordered_and_padded(tmp_path):
    path = tmp_path / "reordered.csv"
    path.write_text(
        " a_fv, v_fv ,x_fv,t,  a_lv,v_lv,x_lv\n"
        "0, 8, 0,0.0,0,10,20\n"
        "0,8,0.8,0.1,-2, 10,21\n"
    )
    trace = load_csv(path)
    assert trace.data.tolist() == [[0.0, 20.0, 10.0, 0.0, 0.0, 8.0, 0.0], [0.1, 21.0, 10.0, -2.0, 0.8, 8.0, 0.0]]


def test_load_csv_accepts_python_float_syntax(tmp_path):
    path = tmp_path / "syntax.csv"
    path.write_text("t,x_lv,v_lv,a_lv,x_fv,v_fv,a_fv\n0,1_000, 1.5,-0,0,8,0\n0.1,1_001,1.5,0,0.8,8,0\n")
    assert load_csv(path).data[0].tolist() == [0.0, 1000.0, 1.5, -0.0, 0.0, 8.0, 0.0]
    path.write_text("t,x_lv,v_lv,a_lv,x_fv,v_fv,a_fv\n0,20,10,0,0,8,0\n0.1,21,Infinity,0,0.8,8,0\n")
    with pytest.raises(TraceFormatError, match="row 3: non-finite v_lv=inf"):
        load_csv(path)


finite_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def random_traces(draw):
    """Finite traces on an exact 2**-3 s grid with arbitrary other values, speeds made non-negative."""
    n = draw(st.integers(2, 8))
    rows = [[k * 0.125] + [draw(finite_values) for _ in range(6)] for k in range(n)]
    for row in rows:
        for j in (2, 5):
            if row[j] < 0.0:
                row[j] = -row[j]
    if not rows[0][1] - rows[0][4] > 0.0:
        rows[0][1], rows[0][4] = 1.0, 0.0
    return ScenarioTrace("r", 0.125, np.array(rows))


@settings(max_examples=100, deadline=None)
@given(trace=random_traces())
def test_save_load_round_trip_is_bitwise(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("round") / "r.csv"
    save_csv(trace, path)
    loaded = load_csv(path)
    assert loaded.id == trace.id and loaded.t_s == trace.t_s
    assert loaded.data.tobytes() == trace.data.tobytes()


def test_load_csv_header_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x_lv,v_lv,a_lv,x_fv,v_fv\n0,20,10,0,0,8\n")
    with pytest.raises(TraceFormatError, match="missing columns"):
        load_csv(path)
    path.write_text("t,x_lv,v_lv,a_lv,x_fv,v_fv,a_fv,extra\n0,20,10,0,0,8,0,1\n")
    with pytest.raises(TraceFormatError, match="unknown columns"):
        load_csv(path)
    path.write_text("t,x_lv,v_lv,a_lv,x_fv,v_fv,a_fv,t\n0,20,10,0,0,8,0,5\n0.1,21,10,0,0.8,8,0,5\n")
    with pytest.raises(TraceFormatError, match="repeated columns"):
        load_csv(path)
    with pytest.raises(TraceFormatError, match="cannot open"):
        load_csv(tmp_path / "missing.csv")


def test_fleet_round_trip(tmp_path):
    fleet = generate_fleet(GenConfig(n_scenarios=3, seed=17))
    save_fleet(fleet, tmp_path / "fleet")
    manifest = json.loads((tmp_path / "fleet" / "manifest.json").read_text())
    assert [e["id"] for e in manifest["scenarios"]] == [t.id for t in fleet]
    assert load_fleet(tmp_path / "fleet") == fleet
    for trace in fleet:
        assert load_scenario(tmp_path / "fleet", trace.id) == trace
    with pytest.raises(ConfigError, match="'s0003' not in fleet"):
        load_scenario(tmp_path / "fleet", "s0003")


def test_fleet_write_is_byte_deterministic(tmp_path):
    fleet = generate_fleet(GenConfig(n_scenarios=2, seed=19))
    save_fleet(fleet, tmp_path / "a")
    save_fleet(fleet, tmp_path / "b")
    for name in ("manifest.json", "s0000.csv", "s0001.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _load_first(fleet_dir):
    return load_scenario(fleet_dir, "s0000")


def test_load_fleet_errors(tmp_path):
    fleet_dir = tmp_path / "fleet"
    for load in (load_fleet, _load_first):
        with pytest.raises(TraceFormatError, match="cannot open"):
            load(tmp_path / "nowhere")
        fleet_dir.mkdir(exist_ok=True)
        (fleet_dir / "manifest.json").write_text("{not json")
        with pytest.raises(TraceFormatError, match="invalid JSON"):
            load(fleet_dir)
        for manifest, fragment in (
            ('{"scenarios": []}', "no scenarios"),
            ("[]", "no scenarios"),
            ('{"t_s": NaN, "scenarios": [{"id": "s0000", "file": "s0000.csv"}]}', "invalid t_s"),
            ('{"scenarios": [{"id": "s0000"}]}', "missing id/file"),
        ):
            (fleet_dir / "manifest.json").write_text(manifest)
            with pytest.raises(TraceFormatError, match=fragment):
                load(fleet_dir)


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

    fleet_dir = _write_fleet_with(tmp_path, reuse_first_id)
    for load in (load_fleet, _load_first):
        with pytest.raises(TraceFormatError, match="duplicate scenario id 's0000'"):
            load(fleet_dir)


def test_load_fleet_rejects_files_outside_the_fleet(tmp_path):
    def escape(manifest):
        manifest["scenarios"][1]["file"] = "../s0001.csv"

    fleet_dir = _write_fleet_with(tmp_path, escape)
    (tmp_path / "s0001.csv").write_bytes((fleet_dir / "s0001.csv").read_bytes())
    for load in (load_fleet, _load_first):
        with pytest.raises(TraceFormatError, match="outside the fleet directory"):
            load(fleet_dir)


def test_load_fleet_rejects_manifest_period_mismatch(tmp_path):
    def wrong_period(manifest):
        manifest["t_s"] = 0.2

    fleet_dir = _write_fleet_with(tmp_path, wrong_period)
    for load in (load_fleet, _load_first):
        with pytest.raises(TraceFormatError, match="t_s 0.2 != sample period 0.1"):
            load(fleet_dir)
