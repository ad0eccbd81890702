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
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, TraceFormatError
from .kinematics import TimedState, VehicleState, step_ca_batch

CSV_COLUMNS = ("t", "x_lv", "v_lv", "a_lv", "x_fv", "v_fv", "a_fv")
SPEED_COLUMNS = (2, 5)
TIME_TOLERANCE = 1e-9
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True, eq=False)
class ScenarioTrace:
    """Paired LV/FV states sampled every t_s seconds.

    `data` is a read-only float64 array of shape (steps, 7), one row per
    step, columns in CSV_COLUMNS order. `lv` and `fv` give the same states
    as TimedState tuples for the scalar per-run path; they are built on
    first use.
    """

    id: str
    t_s: float
    data: np.ndarray

    def __post_init__(self):
        if self.t_s <= 0.0 or not math.isfinite(self.t_s):
            raise ValueError(f"trace {self.id}: invalid sample period {self.t_s}")
        data = np.array(self.data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != len(CSV_COLUMNS):
            raise ValueError(f"trace {self.id}: data must have shape (steps, 7), got {data.shape}")
        if len(data) < 2:
            raise ValueError(f"trace {self.id}: needs at least 2 steps, got {len(data)}")
        fault = _bad_value(data) or _bad_timing(data[:, 0], self.t_s)
        if fault:
            raise ValueError(f"trace {self.id}: step {fault[0]}: {fault[1]}")
        if float(data[0, 1]) - float(data[0, 4]) <= 0.0:
            raise ValueError(f"trace {self.id}: initial gap must be positive")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def __eq__(self, other):
        if not isinstance(other, ScenarioTrace):
            return NotImplemented
        return self.id == other.id and self.t_s == other.t_s and np.array_equal(self.data, other.data)

    __hash__ = None

    def __len__(self) -> int:
        return len(self.data)

    @cached_property
    def lv(self) -> tuple[TimedState, ...]:
        return self._states(1)

    @cached_property
    def fv(self) -> tuple[TimedState, ...]:
        return self._states(4)

    def _states(self, first: int) -> tuple[TimedState, ...]:
        columns = self.data[:, (0, first, first + 1, first + 2)].tolist()
        return tuple(TimedState(t, VehicleState(x, v, a)) for t, x, v, a in columns)

    def steps(self) -> Iterator[tuple[TimedState, TimedState]]:
        return zip(self.lv, self.fv)


def _bad_value(data: np.ndarray) -> tuple[int, str] | None:
    """First step holding a non-finite value or a negative speed, with what is wrong there."""
    finite = np.isfinite(data)
    negative = data[:, SPEED_COLUMNS] < 0.0
    bad = ~finite.all(axis=1) | negative.any(axis=1)
    if not bad.any():
        return None
    k = int(bad.argmax())
    if not finite[k].all():
        j = int(finite[k].argmin())
        return k, f"non-finite {CSV_COLUMNS[j]}={float(data[k, j])}"
    j = SPEED_COLUMNS[int(negative[k].argmax())]
    return k, f"negative speed {CSV_COLUMNS[j]}={float(data[k, j])}"


def _bad_timing(t: np.ndarray, t_s: float) -> tuple[int, str] | None:
    """First step off the time origin or off a positive t_s sampling grid, with what is wrong there."""
    if not 0.0 <= t[0] <= TIME_TOLERANCE:  # a negative origin could not be a TimedState
        return 0, f"time origin must be 0, got {float(t[0])}"
    if t_s <= 0.0:
        return 1, "non-increasing timestamps"
    with np.errstate(over="ignore"):  # an overflowing difference is off the grid as inf
        dt = np.diff(t)
        off = np.abs(dt - t_s) > TIME_TOLERANCE
    if not off.any():
        return None
    k = int(off.argmax())
    return k + 1, f"non-uniform sampling (dt={float(dt[k])}, expected {t_s})"


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
        if self.seed < 0:
            raise ConfigError(f"generator seed must be >= 0: {self.seed}")
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

    The sampled braking level is snapped so the LV comes to rest exactly on
    a sample boundary (see _snap_braking); the drift from the sampled values
    is below half a sample period's worth of deceleration. All scenarios
    are integrated together, step by step, with step_ca_batch for the LV
    and step_position_cv's expression for the FV.
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    n_steps = round(cfg.duration / cfg.t_s) + 1
    params = []
    for _ in range(cfg.n_scenarios):
        v_raw = float(rng.uniform(*cfg.speed_range))
        v_fv = float(rng.uniform(*cfg.speed_range))
        headway = float(rng.uniform(*cfg.headway_range))
        decel_raw = float(rng.uniform(*cfg.decel_range))
        onset_step = round(float(rng.uniform(*cfg.onset_range)) / cfg.t_s)
        v_lv, decel = _snap_braking(v_raw, decel_raw, cfg.t_s)
        params.append((v_lv, v_fv, headway * v_fv, decel, onset_step))
    v, v_fv, x_lv, decel, onset_step = (np.array(column) for column in zip(*params))
    x_fv = np.zeros_like(x_lv)
    dt = cfg.t_s
    data = np.zeros((cfg.n_scenarios, n_steps, len(CSV_COLUMNS)))
    data[:, :, 5] = v_fv[:, None]
    for k in range(n_steps):
        # The braking level applies from the onset step until the LV rests.
        a = np.where((k >= onset_step) & (v > 0.0), decel, 0.0)
        data[:, k, 0] = k * dt
        data[:, k, 1], data[:, k, 2], data[:, k, 3], data[:, k, 4] = x_lv, v, a, x_fv
        x_lv, v = step_ca_batch(x_lv, v, a, dt)
        x_fv = x_fv + v_fv * dt
    return [ScenarioTrace(f"s{i:04d}", dt, rows) for i, rows in enumerate(data)]


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
    """Write a trace in the package CSV schema, CRLF line endings."""
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(map(repr, row)) for row in trace.data.tolist())
    Path(path).write_text("\r\n".join(lines) + "\r\n", encoding="utf-8", newline="")


def load_csv(path: Path | str, trace_id: str | None = None) -> ScenarioTrace:
    """Parse and validate one trace CSV; errors carry the offending row number.

    Faults confined to one row (field count, non-numeric, non-finite or
    negative speed) are reported for the first such row; faults of the
    sequence (row count, time origin, sampling, initial gap) after them.
    """
    path = Path(path)
    try:
        handle = path.open("r", encoding="utf-8", newline="")
    except OSError as exc:
        raise TraceFormatError(f"{path}: cannot open ({exc})") from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
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

        rows, row_nos, parse_error = [], [], None
        for row_no, row in enumerate(reader, start=2):
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
    fault = _bad_value(data)
    if fault:
        raise TraceFormatError(f"{path}: row {row_nos[fault[0]]}: {fault[1]}")
    if parse_error:
        raise TraceFormatError(f"{path}: {parse_error}")
    if len(data) < 2:
        raise TraceFormatError(f"{path}: needs at least 2 data rows, got {len(data)}")
    t_s = float(data[1, 0]) - float(data[0, 0])
    fault = _bad_timing(data[:, 0], t_s)
    if fault:
        raise TraceFormatError(f"{path}: row {row_nos[fault[0]]}: {fault[1]}")
    try:
        return ScenarioTrace(trace_id or path.stem, t_s, data)
    except ValueError as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc


def save_fleet(traces: Sequence[ScenarioTrace], out_dir: Path | str) -> Path:
    """Write one CSV per trace plus a JSON manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for trace in traces:
        filename = f"{trace.id}.csv"
        save_csv(trace, out_dir / filename)
        entries.append({"id": trace.id, "file": filename})
    manifest = {"t_s": traces[0].t_s if traces else None, "scenarios": entries}
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
    ids (truth and loss masks are keyed by id) and files outside the fleet
    directory. The CSVs themselves are not opened.
    """
    manifest_path = fleet_dir / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise TraceFormatError(f"{manifest_path}: cannot open ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{manifest_path}: invalid JSON ({exc})") from exc
    entries = manifest.get("scenarios") if isinstance(manifest, dict) else None
    if not isinstance(entries, list) or not entries:
        raise TraceFormatError(f"{manifest_path}: no scenarios listed")
    t_s = manifest.get("t_s")
    if t_s is not None and not (isinstance(t_s, (int, float)) and math.isfinite(t_s)):
        raise TraceFormatError(f"{manifest_path}: invalid t_s {t_s!r}")
    root = fleet_dir.resolve()
    files = {}
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("id"), str) and isinstance(entry.get("file"), str)):
            raise TraceFormatError(f"{manifest_path}: manifest entry missing id/file strings: {entry}")
        if entry["id"] in files:
            raise TraceFormatError(f"{manifest_path}: duplicate scenario id {entry['id']!r}")
        path = fleet_dir / entry["file"]
        if not path.resolve().is_relative_to(root):
            raise TraceFormatError(f"{manifest_path}: file {entry['file']!r} lies outside the fleet directory")
        files[entry["id"]] = path
    return manifest_path, t_s, files


def _load_entry(manifest_path: Path, t_s: float | None, scenario_id: str, path: Path) -> ScenarioTrace:
    """Parse one manifest entry's CSV; a manifest t_s that disagrees with its period is rejected."""
    trace = load_csv(path, trace_id=scenario_id)
    if t_s is not None and abs(trace.t_s - t_s) > TIME_TOLERANCE:
        raise TraceFormatError(f"{manifest_path}: t_s {t_s} != sample period {trace.t_s} of {path.name}")
    return trace
