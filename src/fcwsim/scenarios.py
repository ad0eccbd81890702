"""Scenario traces: synthetic braking-conflict generator and CSV ingestion.

A trace holds time-aligned leading-vehicle (LV) and following-vehicle (FV)
state sequences at a fixed sample period, time origin t = 0.

CSV schema (one row per step, required header, '.' decimal):

    t,x_lv,v_lv,a_lv,x_fv,v_fv,a_fv

Floats are written with repr so a saved trace reloads bit-identically.

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
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, TraceFormatError
from .kinematics import TimedState, VehicleState, step_position_ca, step_position_cv, step_velocity_ca

CSV_COLUMNS = ("t", "x_lv", "v_lv", "a_lv", "x_fv", "v_fv", "a_fv")
TIME_TOLERANCE = 1e-9
MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class ScenarioTrace:
    """Paired LV/FV state sequences sampled every t_s seconds."""

    id: str
    t_s: float
    lv: tuple[TimedState, ...]
    fv: tuple[TimedState, ...]

    def __post_init__(self):
        if self.t_s <= 0.0 or not math.isfinite(self.t_s):
            raise ValueError(f"trace {self.id}: invalid sample period {self.t_s}")
        if len(self.lv) != len(self.fv):
            raise ValueError(f"trace {self.id}: LV/FV length mismatch ({len(self.lv)} vs {len(self.fv)})")
        if len(self.lv) < 2:
            raise ValueError(f"trace {self.id}: needs at least 2 steps, got {len(self.lv)}")
        if abs(self.lv[0].t) > TIME_TOLERANCE:
            raise ValueError(f"trace {self.id}: time origin must be 0, got {self.lv[0].t}")
        for k, (lv_ts, fv_ts) in enumerate(zip(self.lv, self.fv)):
            if abs(lv_ts.t - fv_ts.t) > TIME_TOLERANCE:
                raise ValueError(f"trace {self.id}: LV/FV timestamps differ at step {k}")
            if k > 0 and abs(lv_ts.t - self.lv[k - 1].t - self.t_s) > TIME_TOLERANCE:
                raise ValueError(
                    f"trace {self.id}: non-uniform sampling at step {k} "
                    f"(dt={lv_ts.t - self.lv[k - 1].t}, expected {self.t_s})"
                )
        if self.lv[0].state.x - self.fv[0].state.x <= 0.0:
            raise ValueError(f"trace {self.id}: initial gap must be positive")

    def __len__(self) -> int:
        return len(self.lv)

    def steps(self) -> Iterator[tuple[TimedState, TimedState]]:
        return zip(self.lv, self.fv)


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
        if self.duration <= 0.0 or self.t_s <= 0.0:
            raise ConfigError(f"duration and sample period must be positive: {self.duration}, {self.t_s}")
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
    is below half a sample period's worth of deceleration.
    """
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    n_steps = round(cfg.duration / cfg.t_s) + 1
    traces = []
    for i in range(cfg.n_scenarios):
        v_raw = float(rng.uniform(*cfg.speed_range))
        v_fv = float(rng.uniform(*cfg.speed_range))
        headway = float(rng.uniform(*cfg.headway_range))
        decel_raw = float(rng.uniform(*cfg.decel_range))
        onset_step = round(float(rng.uniform(*cfg.onset_range)) / cfg.t_s)
        v_lv, decel = _snap_braking(v_raw, decel_raw, cfg.t_s)
        traces.append(
            _build_trace(f"s{i:04d}", cfg.t_s, n_steps, v_lv, v_fv, headway * v_fv, decel, onset_step)
        )
    return traces


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


def _build_trace(
    trace_id: str,
    t_s: float,
    n_steps: int,
    v_lv: float,
    v_fv: float,
    gap0: float,
    decel: float,
    onset_step: int,
) -> ScenarioTrace:
    lv, fv = [], []
    x_lv, x_fv, v = gap0, 0.0, v_lv
    for k in range(n_steps):
        # The braking level applies from the onset step until the LV rests.
        a = decel if (k >= onset_step and v > 0.0) else 0.0
        t = k * t_s
        lv.append(TimedState(t, VehicleState(x_lv, v, a)))
        fv.append(TimedState(t, VehicleState(x_fv, v_fv, 0.0)))
        x_lv = step_position_ca(x_lv, v, a, t_s)
        v = step_velocity_ca(v, a, t_s)
        x_fv = step_position_cv(x_fv, v_fv, t_s)
    return ScenarioTrace(trace_id, t_s, tuple(lv), tuple(fv))


def save_csv(trace: ScenarioTrace, path: Path | str) -> None:
    """Write a trace in the package CSV schema."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for lv_ts, fv_ts in trace.steps():
            lv_s, fv_s = lv_ts.state, fv_ts.state
            writer.writerow(
                [repr(v) for v in (lv_ts.t, lv_s.x, lv_s.v, lv_s.a, fv_s.x, fv_s.v, fv_s.a)]
            )


def load_csv(path: Path | str, trace_id: str | None = None) -> ScenarioTrace:
    """Parse and validate one trace CSV; errors carry the offending row number."""
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
        idx = {name: header.index(name) for name in CSV_COLUMNS}

        rows = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise TraceFormatError(f"{path}: row {row_no}: expected {len(header)} fields, got {len(row)}")
            try:
                values = {name: float(row[idx[name]]) for name in CSV_COLUMNS}
            except ValueError as exc:
                raise TraceFormatError(f"{path}: row {row_no}: non-numeric value ({exc})") from exc
            for name, value in values.items():
                if not math.isfinite(value):
                    raise TraceFormatError(f"{path}: row {row_no}: non-finite {name}={value}")
            for name in ("v_lv", "v_fv"):
                if values[name] < 0.0:
                    raise TraceFormatError(f"{path}: row {row_no}: negative speed {name}={values[name]}")
            rows.append((row_no, values))

    if len(rows) < 2:
        raise TraceFormatError(f"{path}: needs at least 2 data rows, got {len(rows)}")
    if abs(rows[0][1]["t"]) > TIME_TOLERANCE:
        raise TraceFormatError(f"{path}: row {rows[0][0]}: time origin must be 0, got {rows[0][1]['t']}")
    t_s = rows[1][1]["t"] - rows[0][1]["t"]
    if t_s <= 0.0:
        raise TraceFormatError(f"{path}: row {rows[1][0]}: non-increasing timestamps")
    for (prev_no, prev), (row_no, cur) in zip(rows, rows[1:]):
        if abs(cur["t"] - prev["t"] - t_s) > TIME_TOLERANCE:
            raise TraceFormatError(
                f"{path}: row {row_no}: non-uniform sampling (dt={cur['t'] - prev['t']}, expected {t_s})"
            )

    lv = tuple(
        TimedState(r["t"], VehicleState(r["x_lv"], r["v_lv"], r["a_lv"])) for _, r in rows
    )
    fv = tuple(
        TimedState(r["t"], VehicleState(r["x_fv"], r["v_fv"], r["a_fv"])) for _, r in rows
    )
    try:
        return ScenarioTrace(trace_id or path.stem, t_s, lv, fv)
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
    """Load every scenario listed in a fleet directory's manifest.

    Rejects manifests that would corrupt results without failing: repeated
    ids (truth and loss masks are keyed by id), files outside the fleet
    directory, and a manifest `t_s` that disagrees with a trace's period.
    """
    fleet_dir = Path(fleet_dir)
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
    traces, ids = [], set()
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("id"), str) and isinstance(entry.get("file"), str)):
            raise TraceFormatError(f"{manifest_path}: manifest entry missing id/file strings: {entry}")
        if entry["id"] in ids:
            raise TraceFormatError(f"{manifest_path}: duplicate scenario id {entry['id']!r}")
        ids.add(entry["id"])
        path = fleet_dir / entry["file"]
        if not path.resolve().is_relative_to(root):
            raise TraceFormatError(f"{manifest_path}: file {entry['file']!r} lies outside the fleet directory")
        trace = load_csv(path, trace_id=entry["id"])
        if t_s is not None and abs(trace.t_s - t_s) > TIME_TOLERANCE:
            raise TraceFormatError(f"{manifest_path}: t_s {t_s} != sample period {trace.t_s} of {path.name}")
        traces.append(trace)
    return traces
