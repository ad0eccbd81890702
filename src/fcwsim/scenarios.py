"""Scenario traces: synthetic braking-conflict generator and CSV ingestion.

A trace holds time-aligned leading-vehicle (LV) and following-vehicle (FV)
states at a fixed sample period, time origin t = 0, as one read-only
float64 array of shape (steps, 7) whose columns follow the CSV schema.

CSV schema (one row per step, required header, '.' decimal):

    t,x_lv,v_lv,a_lv,x_fv,v_fv,a_fv

Floats are written with repr so a saved trace reloads bit-identically;
lines end in CRLF.

The generator stands in for a naturalistic near-crash dataset: both
vehicles cruise at sampled speeds with a sampled time headway; at a
sampled onset time the LV brakes at a constant sampled deceleration until
rest while the FV holds speed (reacting is the warning system's job, so
hazard steps genuinely occur). LV motion is integrated stepwise with the
exact constant-acceleration kinematics, which keeps generated traces
piecewise-consistent with the dead-reckoning predictors.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path, PurePath
from typing import Iterator, Sequence

import numpy as np

from .channel import philox_random
from .errors import ConfigError, TraceFormatError
from .kinematics import TimedState, VehicleState, step_ca_batch

CSV_COLUMNS = ("t", "x_lv", "v_lv", "a_lv", "x_fv", "v_fv", "a_fv")
LV_COLUMNS, FV_COLUMNS = (1, 2, 3), (4, 5, 6)  # each vehicle's (x, v, a) in CSV_COLUMNS
SPEED_COLUMNS = (LV_COLUMNS[1], FV_COLUMNS[1])
TIME_TOLERANCE = 1e-9
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True, eq=False)
class ScenarioTrace:
    """Paired LV/FV states sampled every t_s seconds.

    `data` is a read-only float64 array of shape (steps, 7), one row per
    step, columns in CSV_COLUMNS order. Its time column is the only
    statement of the sample period: `t_s` is the spacing of the first two
    timestamps, and every later step must keep it. `lv` and `fv` give the
    same states as TimedState tuples for the per-run path; they are
    built on first use.
    """

    id: str
    data: np.ndarray
    t_s: float = field(init=False)

    def __post_init__(self):
        data = np.array(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != len(CSV_COLUMNS):
            raise ValueError(f"trace {self.id}: data must have shape (steps, 7), got {data.shape}")
        fault = _first_fault(data)
        if fault:
            raise ValueError(f"trace {self.id}: step {fault[0]}: {fault[1]}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "t_s", float(data[1, 0]) - float(data[0, 0]))

    def __eq__(self, other):
        if not isinstance(other, ScenarioTrace):
            return NotImplemented
        return self.id == other.id and np.array_equal(self.data, other.data)

    __hash__ = None

    def __len__(self) -> int:
        return len(self.data)

    @cached_property
    def lv(self) -> tuple[TimedState, ...]:
        return self._states(LV_COLUMNS)

    @cached_property
    def fv(self) -> tuple[TimedState, ...]:
        return self._states(FV_COLUMNS)

    def _states(self, columns: tuple[int, int, int]) -> tuple[TimedState, ...]:
        rows = self.data[:, (0, *columns)].tolist()
        return tuple(TimedState(t, VehicleState(x, v, a)) for t, x, v, a in rows)


def _first_fault(data: np.ndarray) -> tuple[int, str] | None:
    """A (steps, 7) trace array's first fault and its step, or None. In order: fewer than 2 steps (at the
    first missing step), _bad_value's, _bad_timing's and _bad_reach's faults, a non-positive initial gap."""
    if len(data) < 2:
        return len(data), f"needs at least 2 steps, got {len(data)}"
    fault = _bad_value(data) or _bad_timing(data[:, 0]) or _bad_reach(data)
    if fault is None and float(data[0, LV_COLUMNS[0]]) - float(data[0, FV_COLUMNS[0]]) <= 0.0:
        fault = 0, "initial gap must be positive"
    return fault


def _bad_value(data: np.ndarray) -> tuple[int, str] | None:
    """First step holding a non-finite value, a negative speed or a non-finite gap, with what is wrong there."""
    finite = np.isfinite(data)
    negative = data[:, SPEED_COLUMNS] < 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing x_lv - x_fv is inf
        gap_finite = np.isfinite(data[:, LV_COLUMNS[0]] - data[:, FV_COLUMNS[0]])
    bad = ~finite.all(axis=1) | negative.any(axis=1) | ~gap_finite
    if not bad.any():
        return None
    k = int(bad.argmax())
    if not finite[k].all():
        j = int(finite[k].argmin())
        return k, f"non-finite {CSV_COLUMNS[j]}={float(data[k, j])}"
    if negative[k].any():
        j = SPEED_COLUMNS[int(negative[k].argmax())]
        return k, f"negative speed {CSV_COLUMNS[j]}={float(data[k, j])}"
    x_lv, x_fv = float(data[k, LV_COLUMNS[0]]), float(data[k, FV_COLUMNS[0]])
    return k, f"non-finite gap x_lv - x_fv: x_lv={x_lv}, x_fv={x_fv}"


def _bad_timing(t: np.ndarray) -> tuple[int, str] | None:
    """First step off the time origin or off the grid its first two steps set, with what is wrong there."""
    if t[0] != 0.0:
        return 0, f"time origin must be 0, got {float(t[0])}"
    t_s = float(t[1]) - float(t[0])
    if t_s <= 0.0:
        return 1, "non-increasing timestamps"
    with np.errstate(over="ignore"):  # an overflowing difference is off the grid as inf
        dt = np.diff(t)
        off = np.abs(dt - t_s) > TIME_TOLERANCE
    if not off.any():
        return None
    k = int(off.argmax())
    return k + 1, f"non-uniform sampling (dt={float(dt[k])}, expected {t_s})"


def _bad_reach(data: np.ndarray) -> tuple[int, str] | None:
    """First step from which a vehicle's CV/CA prediction over the trace's duration could overflow.

    From a row (x, v, a), dead reckoning reaches at most |x| + |v| T + |a| T^2 / 2
    within the duration T. Four times that must be finite for both vehicles,
    so an estimated position and its gap to the other vehicle stay finite,
    with room for rounding.
    """
    duration = float(data[-1, 0])
    x, v, a = (np.abs(data[:, columns]) for columns in zip(LV_COLUMNS, FV_COLUMNS))  # (steps, vehicle), LV first
    with np.errstate(over="ignore"):  # an overflowing reach is inf
        bad = ~np.isfinite(4.0 * (x + v * duration + a * duration * duration / 2))
    if not bad.any():
        return None
    k, vehicle = divmod(int(bad.argmax()), 2)
    state = ", ".join(f"{CSV_COLUMNS[j]}={float(data[k, j])}" for j in (LV_COLUMNS, FV_COLUMNS)[vehicle])
    return k, f"dead reckoning from {state} could overflow within the trace's {duration} s"


@dataclass(frozen=True)
class GenConfig:
    """Synthetic-fleet sampling ranges; defaults span near-crash to crash."""

    n_scenarios: int = 100
    speed_range: tuple[float, float] = (15.0, 30.0)
    headway_range: tuple[float, float] = (0.8, 2.5)
    decel_range: tuple[float, float] = (-8.0, -2.0)
    onset_range: tuple[float, float] = (2.0, 5.0)
    duration: float = 15.0
    t_s: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_scenarios < 1:
            raise ConfigError(f"need at least one scenario: {self.n_scenarios}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"generator seed must be in [0, 2**64): {self.seed}")
        if not (0.0 < self.duration < math.inf and 0.0 < self.t_s < math.inf):
            raise ConfigError(f"duration and sample period must be positive and finite: {self.duration}, {self.t_s}")
        if self.duration < 2 * self.t_s:
            raise ConfigError(f"duration {self.duration} too short for two samples at t_s={self.t_s}")
        for name, (lo, hi) in (
            ("speed", self.speed_range),
            ("headway", self.headway_range),
            ("decel", self.decel_range),
            ("onset", self.onset_range),
        ):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ConfigError(f"empty or non-finite {name} range: ({lo}, {hi})")
        if self.speed_range[0] <= 0.0:
            raise ConfigError(f"cruise speeds must be positive: {self.speed_range}")
        if self.headway_range[0] <= 0.0:
            raise ConfigError(f"headways must be positive: {self.headway_range}")
        if self.decel_range[1] >= 0.0:
            raise ConfigError(f"braking decelerations must be negative: {self.decel_range}")
        if self.onset_range[0] < 0.0 or self.onset_range[1] >= self.duration:
            raise ConfigError(f"brake onset must fall inside the scenario: {self.onset_range}")


def generate_fleet(cfg: GenConfig) -> list[ScenarioTrace]:
    """Sample cfg.n_scenarios braking-conflict traces, deterministic in cfg.seed.

    Each scenario's speeds, headway, deceleration and onset are the next five
    `Generator(Philox(cfg.seed)).uniform` draws, taken without numpy.random
    (see _uniform_draws).
    The sampled braking level is snapped so the LV comes to rest exactly on
    a sample boundary (see _snap_braking); the drift from the sampled values
    is below half a sample period's worth of deceleration. All scenarios
    are integrated together, step by step, with step_ca_batch for the LV
    and step_position_cv's expression for the FV. Ranges that pass
    GenConfig but overflow, or give a trace ScenarioTrace rejects, are a
    ConfigError naming cfg.
    """
    try:
        return [ScenarioTrace(f"s{i:04d}", rows) for i, rows in enumerate(_integrate_fleet(cfg))]
    except (ArithmeticError, ValueError) as exc:  # ValueError includes _snap_braking's ConfigError
        raise ConfigError(f"{cfg} gives no valid fleet: {exc}") from exc


@np.errstate(over="ignore", invalid="ignore")  # an overflow shows up as a non-finite trace
def _integrate_fleet(cfg: GenConfig) -> np.ndarray:
    """The fleet's rows, shape (scenarios, steps, 7), before validation."""
    ranges = (cfg.speed_range, cfg.speed_range, cfg.headway_range, cfg.decel_range, cfg.onset_range)
    n_steps = round(cfg.duration / cfg.t_s) + 1
    params = []
    for v_raw, v_fv, headway, decel_raw, onset in _uniform_draws(cfg.seed, ranges, cfg.n_scenarios).tolist():
        v_lv, decel = _snap_braking(v_raw, decel_raw, cfg.t_s)
        params.append((v_lv, v_fv, headway * v_fv, decel, round(onset / cfg.t_s)))
    v, v_fv, x_lv, decel, onset_step = (np.array(column) for column in zip(*params))
    x_fv = np.zeros_like(x_lv)
    dt = cfg.t_s
    data = np.zeros((cfg.n_scenarios, n_steps, len(CSV_COLUMNS)))
    data[:, :, FV_COLUMNS[1]] = v_fv[:, None]
    stepped = (CSV_COLUMNS.index("t"), *LV_COLUMNS, FV_COLUMNS[0])  # t, the LV's (x, v, a) and x_fv
    for k in range(n_steps):
        # The braking level applies from the onset step until the LV rests.
        a = np.where((k >= onset_step) & (v > 0.0), decel, 0.0)
        for j, column in zip(stepped, (k * dt, x_lv, v, a, x_fv)):
            data[:, k, j] = column
        x_lv, v = step_ca_batch(x_lv, v, a, dt)
        x_fv = x_fv + v_fv * dt
    return data


def _uniform_draws(seed: int, ranges: Sequence[tuple[float, float]], n: int) -> np.ndarray:
    """n rows of one draw per (lo, hi) in ranges, as an (n, len(ranges)) float64 array.

    Row by row, left to right, these are the values successive
    `Generator(Philox(seed)).uniform(lo, hi)` calls return: numpy computes
    each as lo + (hi - lo) * u from the stream's next double u, and so does
    this, with the stream taken from channel.philox_random.
    """
    lo, hi = np.array(ranges, dtype=np.float64).T
    u = philox_random(n * len(lo), np.array([seed], dtype=np.uint64)).reshape(n, len(lo))
    return lo + (hi - lo) * u


def _snap_braking(v_raw: float, decel_raw: float, t_s: float) -> tuple[float, float]:
    """Adjust (speed, deceleration) so braking to rest spans whole samples.

    The per-step speed decrement is placed on a 2^-30 grid and the starting
    speed set to an exact multiple of it, which makes the braking velocity
    ladder exact in floating point: every step is the plain linear update
    (no mid-interval stop) and the final step lands on exactly 0.0. The
    deceleration is additionally nudged by ulps until decel * t_s
    reproduces the decrement exactly, so stepwise replays of the trace are
    bit-identical whether they go through the kinematic steps or a linear
    state-space update.
    """
    n = max(1, round(v_raw / (abs(decel_raw) * t_s)))
    m0 = max(1, round(v_raw / n * 2 ** 30))
    for attempt in range(64):
        m = m0 + ((attempt + 1) // 2) * (1 if attempt % 2 else -1)
        if m <= 0:
            continue
        dec_step = m / 2 ** 30
        for candidate in _ulp_neighbors(-dec_step / t_s, 16):
            if candidate * t_s == -dec_step:
                return dec_step * n, candidate
    raise ConfigError(f"cannot snap braking for v={v_raw}, decel={decel_raw}, t_s={t_s}")


def _ulp_neighbors(value: float, radius: int) -> Iterator[float]:
    yield value
    up, down = value, value
    for _ in range(radius):
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
        yield up
        yield down


def save_csv(trace: ScenarioTrace, path: Path | str) -> None:
    """Write a trace in the package CSV schema, CRLF line endings.

    Each distinct value is formatted once, keyed by its bit pattern so -0.0 keeps its sign.
    """
    keys, index = np.unique(trace.data.ravel().view(np.uint64), return_inverse=True)
    text = np.array([repr(value) for value in keys.view(np.float64).tolist()], dtype=object)
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(map(",".join, text[index.reshape(trace.data.shape)].tolist()))
    Path(path).write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")


def load_csv(path: Path | str, trace_id: str | None = None) -> ScenarioTrace:
    """Parse and validate one trace CSV; errors carry the offending row number.

    The data rows are parsed by one np.loadtxt call and validated by
    ScenarioTrace. If either fails, the rows are parsed again one at a time
    with Python's float(), which also takes syntax loadtxt rejects (1_000,
    non-ASCII digits), and ScenarioTrace's first fault (_first_fault) is
    reported for its row. A row that does not parse (field count,
    non-numeric) ends the rows; a value fault above it is reported first,
    else the parse error.
    """
    path = Path(path)
    trace_id = path.stem if trace_id is None else trace_id
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            header = next(csv.reader(handle), None)
            text = handle.read()
    except OSError as exc:
        raise TraceFormatError(f"{path}: cannot open ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    if header is None:
        raise TraceFormatError(f"{path}: empty file")
    header = [name.strip() for name in header]
    missing = [name for name in CSV_COLUMNS if name not in header]
    if missing:
        raise TraceFormatError(f"{path}: missing columns {missing}")
    extra = [name for name in header if name not in CSV_COLUMNS]
    if extra:
        raise TraceFormatError(f"{path}: unknown columns {extra}")
    if len(header) != len(CSV_COLUMNS):
        raise TraceFormatError(f"{path}: repeated columns in header {header}")
    order = [header.index(name) for name in CSV_COLUMNS]

    if text.strip("\r\n"):  # np.loadtxt warns when there is no row
        try:
            data = np.loadtxt(io.StringIO(text), delimiter=",", comments=None, dtype=np.float64, ndmin=2)
            if data.shape[1] == len(CSV_COLUMNS):
                return ScenarioTrace(trace_id, data[:, order])
        except ValueError:
            pass

    rows, row_nos, parse_error = [], [], None
    for row_no, row in enumerate(csv.reader(io.StringIO(text, newline="")), start=2):
        if not row:
            continue
        if len(row) != len(header):
            parse_error = f"row {row_no}: expected {len(header)} fields, got {len(row)}"
            break
        try:
            rows.append([*map(float, row)])
        except ValueError as exc:
            parse_error = f"row {row_no}: non-numeric value ({exc})"
            break
        row_nos.append(row_no)

    data = np.array(rows, dtype=np.float64).reshape(-1, len(CSV_COLUMNS))[:, order]
    fault = _bad_value(data) if parse_error else _first_fault(data)
    if fault:
        row_nos.append(row_nos[-1] + 1 if row_nos else 2)  # the row of a step past the last
        raise TraceFormatError(f"{path}: row {row_nos[fault[0]]}: {fault[1]}")
    if parse_error:
        raise TraceFormatError(f"{path}: {parse_error}")
    return ScenarioTrace(trace_id, data)


def save_fleet(traces: Sequence[ScenarioTrace], out_dir: Path | str) -> Path:
    """Write one CSV per trace plus a JSON manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for trace in traces:
        filename = f"{trace.id}.csv"
        save_csv(trace, out_dir / filename)
        entries.append({"id": trace.id, "file": filename})
    periods = {trace.t_s for trace in traces}
    manifest = {"t_s": periods.pop() if len(periods) == 1 else None, "scenarios": entries}
    manifest_path = out_dir / MANIFEST_NAME
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest_path


def load_fleet(fleet_dir: Path | str) -> list[ScenarioTrace]:
    """Load every scenario listed in a fleet directory's manifest, in manifest order.

    The whole manifest is checked before any CSV is parsed.
    """
    manifest_path, t_s, files = _read_manifest(Path(fleet_dir))
    return [_load_entry(manifest_path, t_s, scenario_id, path) for scenario_id, path in files.items()]


def load_scenario(fleet_dir: Path | str, scenario_id: str) -> ScenarioTrace:
    """Load one scenario of a fleet directory, after checking the whole manifest.

    Only that scenario's CSV is parsed; an id the manifest does not list
    is a ConfigError.
    """
    manifest_path, t_s, files = _read_manifest(Path(fleet_dir))
    if scenario_id not in files:
        raise ConfigError(f"scenario {scenario_id!r} not in fleet (ids: {sorted(files)[:5]}...)")
    return _load_entry(manifest_path, t_s, scenario_id, files[scenario_id])


def _read_manifest(fleet_dir: Path) -> tuple[Path, float | None, dict[str, Path]]:
    """Check a fleet manifest; returns its path, its t_s and each scenario's CSV path by id.

    Rejects manifests that would corrupt results without failing: repeated
    ids (loss masks are keyed by id) and files outside the fleet
    directory. The CSVs themselves are not opened.
    """
    manifest_path = fleet_dir / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise TraceFormatError(f"{manifest_path}: cannot open ({exc})") from exc
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise TraceFormatError(f"{manifest_path}: invalid JSON ({exc})") from exc
    entries = manifest.get("scenarios") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not entries:
        raise TraceFormatError(f"{manifest_path}: no scenarios listed")
    t_s = manifest.get("t_s")
    if t_s is not None and not (type(t_s) in (int, float) and math.isfinite(t_s)):  # a bool is no period
        raise TraceFormatError(f"{manifest_path}: invalid t_s {t_s!r}")
    root = fleet_dir.resolve()
    files = {}
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("id"), str) and entry["id"]
                and isinstance(entry.get("file"), str)):
            raise TraceFormatError(f"{manifest_path}: manifest entry missing id/file strings: {entry}")
        if entry["id"] in files:
            raise TraceFormatError(f"{manifest_path}: duplicate scenario id {entry['id']!r}")
        path = fleet_dir / entry["file"]
        # A single plain name that is not a symlink names a file in the fleet directory itself.
        name = PurePath(entry["file"]).parts
        if (len(name) != 1 or name[0] == ".." or path.is_symlink()) and not path.resolve().is_relative_to(root):
            raise TraceFormatError(f"{manifest_path}: file {entry['file']!r} lies outside the fleet directory")
        files[entry["id"]] = path
    return manifest_path, t_s, files


def _load_entry(manifest_path: Path, t_s: float | None, scenario_id: str, path: Path) -> ScenarioTrace:
    """Parse one manifest entry's CSV; a manifest t_s that disagrees with its period is rejected."""
    trace = load_csv(path, trace_id=scenario_id)
    if t_s is not None and abs(trace.t_s - t_s) > TIME_TOLERANCE:
        raise TraceFormatError(f"{manifest_path}: t_s {t_s} != sample period {trace.t_s} of {path.name}")
    return trace
