"""Fleet generation and CSV/manifest ingestion."""

import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcwsim.errors import ConfigError, TraceFormatError
from fcwsim.scenarios import CSV_COLUMNS
from fcwsim.kinematics import step_position_ca, step_position_cv, step_velocity_ca
from fcwsim.scenarios import (
    GenConfig,
    ScenarioTrace,
    _uniform_draws,
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


_finite = st.floats(-1e300, 1e300)  # every difference hi - lo stays finite, as numpy requires
# numpy takes (-0.0, 0.0) but refuses (0.0, -0.0), so a signed zero sorts below an unsigned one.
_ordered = st.tuples(_finite, _finite).map(lambda t: sorted(t, key=lambda v: (v, math.copysign(1.0, v))))
_ranges = st.lists(st.one_of(_ordered, _finite.map(lambda v: (v, v))),
                   min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), ranges=_ranges, n=st.integers(1, 9))
@example(seed=0, ranges=[(15.0, 30.0), (15.0, 30.0), (0.8, 2.5), (-8.0, -2.0), (2.0, 5.0)], n=7)
@example(seed=0, ranges=[(-0.0, 0.0)], n=1)
@example(seed=2**32 - 1, ranges=[(0.0, 1.0)], n=1)
@example(seed=2**32, ranges=[(-1.0, -1.0), (0.0, 1.0)], n=3)
@example(seed=2**63, ranges=[(-1e300, 1e300)], n=5)
@example(seed=2**64 - 1, ranges=[(1.0, 2.0), (3.0, 3.0), (-5.0, 7.0)], n=9)
def test_generator_draws_match_numpy_uniform(seed, ranges, n):
    rng = np.random.Generator(np.random.Philox(seed))
    expected = [[rng.uniform(lo, hi) for lo, hi in ranges] for _ in range(n)]
    assert _uniform_draws(seed, ranges, n).tobytes() == np.array(expected, dtype=np.float64).tobytes()


@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 9))
@example(seed=0, n=1)
def test_reversed_signed_zero_range_draws_as_zero_range(seed, n):
    # `gen --onset=0:-0` passes GenConfig; numpy's uniform(0.0, -0.0) would refuse the range, this draws zeros.
    assert _uniform_draws(seed, [(0.0, -0.0)], n).tobytes() == _uniform_draws(seed, [(0.0, 0.0)], n).tobytes()


def test_gen_config_takes_the_seeds_philox_takes():
    for seed in (-1, 2**64):
        with pytest.raises(ConfigError, match=re.escape(f"generator seed must be in [0, 2**64): {seed}")):
            GenConfig(seed=seed)
    assert GenConfig(seed=2**64 - 1).seed == 2**64 - 1


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
    assert ScenarioTrace("ok", ok).t_s == 0.1
    three = np.vstack([ok, [0.2, 11.0, 5.0, 0.0, 1.0, 5.0, 0.0]])
    assert ScenarioTrace("three", three).t_s == 0.1
    cases = [
        ("short", ok[:1], "at least 2 steps"),
        ("gap", ok[:, [0, 4, 5, 6, 1, 2, 3]], "initial gap"),  # LV behind FV
        ("jump", with_value(three, 2, 0, 0.3), "step 2: non-uniform sampling"),
        ("still", with_value(ok, 1, 0, 0.0), "step 1: non-increasing timestamps"),
        ("origin", with_value(ok, 0, 0, 1.0), "step 0: time origin"),
        ("nan", with_value(ok, 1, 6, np.nan), "step 1: non-finite a_fv=nan"),
        ("reverse", with_value(ok, 1, 2, -0.5), "step 1: negative speed v_lv=-0.5"),
        ("overflow", with_value(with_value(ok, 1, 1, 1.5e308), 1, 4, -1.5e308), "step 1: non-finite gap"),
        ("columns", ok[:, :6], "shape"),
    ]
    for trace_id, data, fragment in cases:
        with pytest.raises(ValueError, match=f"trace {trace_id}: .*{fragment}"):
            ScenarioTrace(trace_id, data)


def with_value(data, k, j, value):
    data = data.copy()
    data[k, j] = value
    return data


def test_trace_data_is_a_read_only_copy():
    data = np.array([[0.0, 10.0, 5.0, 0.0, 0.0, 5.0, 0.0], [0.1, 10.5, 5.0, 0.0, 0.5, 5.0, 0.0]])
    trace = ScenarioTrace("ro", data)
    data[1, 1] = 99.0
    assert trace.data[1, 1] == 10.5
    with pytest.raises(ValueError, match="read-only"):
        trace.data[1, 1] = 99.0
    assert trace == ScenarioTrace("ro", trace.data)
    assert trace != ScenarioTrace("other", trace.data)
    with pytest.raises(TypeError):
        hash(trace)


def test_state_views_match_the_array():
    trace = generate_fleet(GenConfig(n_scenarios=1, seed=8))[0]
    for k, (lv, fv) in enumerate(zip(trace.lv, trace.fv)):
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
        ("0.0,20,10,0,0,8,0\n0.1,1.5e308,10,0,-1.5e308,8,0\n0.2,22,-1,0,1.6,8,0\n",
         "row 3: non-finite gap x_lv - x_fv: x_lv=1.5e"),
        ("0.0,20,10,0,0,8,0\n0.1,21,10,0,0.8,8,0\n0.3,22,10,0,1.6,8,0\n0.5,23,10,0,2.4,8,0\n",
         r"row 4: non-uniform sampling \(dt=0.19999999999999998, expected 0.1\)"),
        ("0.0,20,10,0,0,8,0\n0.0,21,10,0,0.8,8,0\n0.3,22,10,0,1.6,8,0\n", "row 3: non-increasing"),
        ("0.5,20,10,0,0,8,0\n0.0,21,10,0,0.8,8,0\n", "row 2: time origin must be 0, got 0.5"),
        ("-1e308,20,10,0,0,8,0\n1e308,21,10,0,0.8,8,0\n", "row 2: time origin"),
        ("-1e-10,20,10,0,0,8,0\n0.1,21,10,0,0.8,8,0\n", "row 2: time origin must be 0, got -1e-10"),
        ("1e-10,20,10,0,0,8,0\n0.1,21,10,0,0.8,8,0\n", "row 2: time origin must be 0, got 1e-10"),
        ("0.0,20,10,0,0,8,0\n1e308,21,10,0,0.8,8,0\n-1e308,22,10,0,1.6,8,0\n", r"row 4: non-uniform sampling \(dt=-inf"),
        ("0.0,0,10,0,0,8,0\n0.1,1,10,0,0.8,8,0\n", "row 2: initial gap must be positive"),
    ],
)
def test_load_csv_reports_the_first_bad_row(tmp_path, rows, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("t,x_lv,v_lv,a_lv,x_fv,v_fv,a_fv\n" + rows)
    with pytest.raises(TraceFormatError, match=fragment):
        load_csv(path)


@pytest.mark.parametrize(
    "rows",
    [
        [[0.0, np.nan, 10.0, 0.0, 0.0, 8.0, 0.0]],
        [],
        [[0.0, 0.0, 10.0, 0.0, 0.0, 8.0, 0.0], [0.1, 1.0, 10.0, 0.0, 0.8, 8.0, 0.0]],
        [[0.0, 20.0, 10.0, 0.0, 0.0, 8.0, 0.0], [0.1, 21.0, -1.0, 0.0, 0.8, 8.0, 0.0], [0.3, np.inf, 10.0, 0.0, 1.6, 8.0, 0.0]],
    ],
    ids=["one-row-nan", "no-rows", "initial-gap", "negative-speed-first"],
)
def test_load_csv_reports_the_fault_scenario_trace_raises(tmp_path, rows):
    # Step k of the array is row k + 2 of the file (after the header); a missing step is the row after the last.
    data = np.array(rows, dtype=np.float64).reshape(-1, 7)
    with pytest.raises(ValueError) as from_array:
        ScenarioTrace("t", data)
    path = tmp_path / "t.csv"
    path.write_text("t,x_lv,v_lv,a_lv,x_fv,v_fv,a_fv\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    with pytest.raises(TraceFormatError) as from_csv:
        load_csv(path)
    step, fault = str(from_array.value).removeprefix("trace t: step ").split(": ", 1)
    assert str(from_csv.value) == f"{path}: row {int(step) + 2}: {fault}"


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
    """Valid traces on an exact 2**-3 s grid with arbitrary other finite values.

    Speeds are made non-negative. A row from which either vehicle could
    dead-reckon to overflow over the trace's duration (four times
    |x| + |v| T + |a| T^2 / 2 not finite) is divided by 16, which also
    keeps its gap finite.
    """
    n = draw(st.integers(2, 8))
    duration = (n - 1) * 0.125
    rows = [[k * 0.125] + [draw(finite_values) for _ in range(6)] for k in range(n)]
    for row in rows:
        for j in (2, 5):
            if row[j] < 0.0:
                row[j] = -row[j]
        reach = [abs(x) + abs(v) * duration + abs(a) * duration * duration / 2 for x, v, a in (row[1:4], row[4:7])]
        if not math.isfinite(4.0 * max(reach)):
            row[1:] = [value / 16 for value in row[1:]]
    if not rows[0][1] - rows[0][4] > 0.0:
        rows[0][1], rows[0][4] = 1.0, 0.0
    return ScenarioTrace("r", np.array(rows))


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
            ('{"t_s": true, "scenarios": [{"id": "s0000", "file": "s0000.csv"}]}', "invalid t_s"),
            ('{"t_s": false, "scenarios": [{"id": "s0000", "file": "s0000.csv"}]}', "invalid t_s"),
            ('{"scenarios": [{"id": "s0000"}]}', "missing id/file"),
            ('{"scenarios": [{"id": "", "file": "s0000.csv"}, {"id": "s0000", "file": "s0000.csv"}]}',
             "missing id/file"),
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


def test_load_fleet_rejects_a_symlink_out_of_the_fleet(tmp_path):
    fleet_dir = _write_fleet_with(tmp_path, lambda manifest: None)
    outside = tmp_path / "s0001.csv"
    (fleet_dir / "s0001.csv").rename(outside)
    (fleet_dir / "s0001.csv").symlink_to(outside)
    for load in (load_fleet, _load_first):
        with pytest.raises(TraceFormatError, match="'s0001.csv' lies outside the fleet directory"):
            load(fleet_dir)
    (fleet_dir / "s0001.csv").unlink()
    (fleet_dir / "s0001.csv").symlink_to(fleet_dir / "s0000.csv")
    assert load_fleet(fleet_dir)[1].data.tobytes() == load_fleet(fleet_dir)[0].data.tobytes()


def test_load_fleet_rejects_manifest_period_mismatch(tmp_path):
    def wrong_period(manifest):
        manifest["t_s"] = 0.2

    fleet_dir = _write_fleet_with(tmp_path, wrong_period)
    for load in (load_fleet, _load_first):
        with pytest.raises(TraceFormatError, match="t_s 0.2 != sample period 0.1"):
            load(fleet_dir)


def test_state_that_dead_reckons_to_overflow_is_rejected(tmp_path):
    # Over the 20 s trace, 4 * (|x| + |v| T + |a| T^2 / 2) must stay finite for both vehicles.
    ok = np.array([[0.0, 200.0, 10.0, 0.0, 0.0, 8.0, 0.0], [10.0, 300.0, 10.0, 0.0, 80.0, 8.0, 0.0],
                   [20.0, 400.0, 10.0, 0.0, 160.0, 8.0, 0.0]])
    assert ScenarioTrace("edge", with_value(ok, 1, 1, 4e307)).t_s == 10.0
    cases = [
        (with_value(ok, 1, 1, 4.5e307), "step 1: dead reckoning from x_lv=4.5e+307, v_lv=10.0, a_lv=0.0"),
        (with_value(ok, 2, 2, 1e307), "step 2: dead reckoning from x_lv=400.0, v_lv=1e+307"),
        (with_value(ok, 1, 6, -1e306), "step 1: dead reckoning from x_fv=80.0, v_fv=8.0, a_fv=-1e+306"),
    ]
    for data, fragment in cases:
        with pytest.raises(ValueError, match=re.escape(f"trace r: {fragment}")):
            ScenarioTrace("r", data)
        path = tmp_path / "r.csv"
        path.write_text("t,x_lv,v_lv,a_lv,x_fv,v_fv,a_fv\n" + "".join(",".join(map(repr, row)) + "\n" for row in data.tolist()))
        with pytest.raises(TraceFormatError, match=re.escape(fragment.replace("step 1", "row 3").replace("step 2", "row 4"))):
            load_csv(path)


ARABIC_INDIC = str.maketrans("0123456789", "".join(chr(0x660 + d) for d in range(10)))
FIELD_EDITS = [  # what a hand-edited or foreign CSV may hold in one field
    lambda f: "#" + f,
    lambda f: f'"{f}"',
    lambda f: f[:1] + "_" + f[1:] if f[1:2].isdigit() else f,  # 1_000
    lambda f: f.translate(ARABIC_INDIC),
    lambda f: "",
    lambda f: "\ufeff" + f,
    lambda f: f" {f}\t",
    lambda f: f"\u2003{f}\xa0",
    lambda f: f + "\x0c",
    lambda f: f.replace(".0", ".0e0"),
]
ROW_EDITS = [lambda fields: fields + [""], lambda fields: fields[:-1], lambda fields: fields + ["0"]]


@st.composite
def csv_texts(draw):
    """A valid trace CSV's text with a few perturbations from FIELD_EDITS, ROW_EDITS and odd lines."""
    n = draw(st.integers(1, 5))
    rows = [[repr(v) for v in (k * 0.125, 20.0 + k, 10.0, 0.0, 2.0 * k, 8.0, 0.0)] for k in range(n)]
    for k, j, edit in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 6), st.sampled_from(FIELD_EDITS)),
                                    max_size=3)):
        rows[k][j] = edit(rows[k][j])
    for k, edit in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(ROW_EDITS)), max_size=2)):
        rows[k] = edit(rows[k])
    lines = [",".join(CSV_COLUMNS)] + [",".join(row) for row in rows]
    for k, line in draw(st.lists(st.tuples(st.integers(1, n + 1), st.sampled_from(["", " ", "\t", "\r"])),
                                 max_size=2)):
        lines.insert(k, line)
    ends = draw(st.lists(st.sampled_from(["\r\n", "\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return ("\ufeff" if draw(st.integers(0, 3)) == 3 else "") + text


def load_outcome(path):
    try:
        trace = load_csv(path)
    except TraceFormatError as exc:
        return str(exc)
    return trace.id, trace.data.tobytes()


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_loadtxt_path_agrees_with_the_row_loop(tmp_path_factory, text):
    # With np.loadtxt failing, load_csv parses every row with float(): the bits or message to match.
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        expected = load_outcome(path)
    assert load_outcome(path) == expected
