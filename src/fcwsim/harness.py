"""Run orchestration: scenario x estimator x PER x seed sweeps.

Per step the pipeline is: channel slot -> estimator update -> two warning
evaluations -> confusion classification. The truth decision uses the exact
LV state; the estimated decision uses the reconstructed LV state for both
the warning range and the monitored gap (the system only knows the LV
through the network). The FV state is exact on both sides.

Every (scenario, PER, seed-index) cell draws its loss pattern from an
independent substream keyed by a SHA-256 mix of the master seed, so sweep
results never depend on the order runs are computed in, and extending the
PER grid or seed count never perturbs existing cells. All estimators face
the same loss masks, making their comparison paired.

`run_scenario` steps one run through the per-run functions, with the
CAMP Linear rule called once for each side of the run; it backs `run` and
is the reference the batched sweep kernel is tested against. `count_runs`
steps many runs together over arrays into one count array, `sweep`
aggregates each cell's slab of it, and `run_cell` is a one-cell sweep. Both
paths call the same `camp_linear.warning_range`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .camp_linear import CampParams, WarningDecision, evaluate_steps, warn_batch
from .channel import ChannelConfig, delivery_masks, transmit
from .errors import ConfigError, TraceFormatError
from .estimators import EstimatorKind, KalmanConfig, estimate_batch, estimate_stream
from .kinematics import SampleClock, VehicleState
from .metrics import ConfusionCounts, MetricSummary, aggregate, classify_step, confusion
from .scenarios import FV_COLUMNS, LV_COLUMNS, ScenarioTrace

try:  # built-in SHA-256, as random.py takes sha512: importing hashlib loads OpenSSL (3.7 MB of peak RSS)
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

SEED_DOMAIN = "fcwsim:v1"

# Run-steps per block of warnings that `count_runs` evaluates, truth and
# estimates alike: 32 KB per float64 array. A block spreads numpy's per-call
# cost over its steps; its size bounds the extra memory. A 200-run sweep
# (20 scenarios x 10 PERs x 1 seed) peaks at 31.2 MB RSS, against 35.0 MB
# with one block per group, on x86-64 Linux. Groups of 4,096 runs or more
# get one step per block.
BLOCK = 4096


def derive_seed(master_seed: int, scenario_id: str, per: float, seed_index: int) -> int:
    """64-bit channel seed for one (scenario, PER, repetition) cell.

    First 8 bytes (big-endian) of SHA-256 over
    "fcwsim:v1|<master>|<scenario id>|<per with 10 sig. digits>|<index>".
    """
    key = f"{SEED_DOMAIN}|{master_seed}|{scenario_id}|{per:.10g}|{seed_index}"
    return int.from_bytes(sha256(key.encode("utf-8")).digest()[:8], "big")


@dataclass(frozen=True)
class RunConfig:
    """Sweep grid plus the shared decision/estimator parameters."""

    estimators: tuple[EstimatorKind, ...] = (
        EstimatorKind.CONSTANT_VELOCITY,
        EstimatorKind.CONSTANT_ACCELERATION,
        EstimatorKind.KALMAN,
    )
    pers: tuple[float, ...] = tuple(round(0.1 * i, 10) for i in range(1, 10))
    seeds: int = 20
    camp: CampParams = CampParams()
    kalman: KalmanConfig = KalmanConfig()
    master_seed: int = 0

    def __post_init__(self):
        if not self.estimators:
            raise ConfigError("at least one estimator required")
        if not self.pers:
            raise ConfigError("at least one PER value required")
        # Two PERs must differ as floats, as derive_seed keys and as the `per` field the writers print.
        per_keys = (set(self.pers), {f"{per:.10g}" for per in self.pers}, {_fmt(per) for per in self.pers})
        if len(set(self.estimators)) < len(self.estimators) or min(map(len, per_keys)) < len(self.pers):
            raise ConfigError(f"repeated estimator or PER: {[k.value for k in self.estimators]}, {list(self.pers)}")
        for per in self.pers:
            if not 0.0 <= per <= 1.0:
                raise ConfigError(f"PER must be in [0, 1]: {per}")
        if self.seeds < 1:
            raise ConfigError(f"at least one seed required: {self.seeds}")


@dataclass(frozen=True)
class StepRecord:
    """One pipeline step: states, delivery flag, and both decisions."""

    t: float
    true_state: VehicleState
    est_state: VehicleState
    delivered: bool
    truth: WarningDecision
    est: WarningDecision


@dataclass(frozen=True)
class SweepCell:
    """Aggregated metrics for one (estimator, PER) grid point."""

    estimator: EstimatorKind
    per: float
    summary: MetricSummary
    n_scenarios: int
    n_seeds: int


def truth_decisions(trace: ScenarioTrace, camp: CampParams) -> list[WarningDecision]:
    """Warning decisions from exact LV data, one per step; independent of estimator/PER/seed."""
    (x_lv, v_lv, a_lv), (x_fv, v_fv, a_fv) = (trace.data[:, columns].T for columns in (LV_COLUMNS, FV_COLUMNS))
    return evaluate_steps(camp.gap(x_lv, x_fv), v_fv, a_fv, v_lv, a_lv, camp)


def run_scenario(
    trace: ScenarioTrace,
    kind: EstimatorKind,
    per: float,
    seed: int,
    camp: CampParams = CampParams(),
    kalman: KalmanConfig = KalmanConfig(),
) -> tuple[list[StepRecord], ConfusionCounts]:
    """Run one scenario through the full pipeline; deterministic in all inputs."""
    slots = transmit(trace.lv, ChannelConfig(per=per, seed=seed))
    estimates = estimate_stream(slots, kind, SampleClock(t_s=trace.t_s), kalman)
    truth = truth_decisions(trace, camp)
    x_fv, v_fv, a_fv = trace.data[:, FV_COLUMNS].T
    x, v, a = np.array([(est.x, est.v, est.a) for est in estimates]).T
    est_decisions = evaluate_steps(camp.gap(x, x_fv), v_fv, a_fv, v, a, camp)

    log = []
    counts = ConfusionCounts()
    for lv_ts, est_state, slot, truth_decision, est_decision in zip(trace.lv, estimates, slots, truth, est_decisions):
        counts = classify_step(truth_decision.warn, est_decision.warn, counts)
        log.append(StepRecord(lv_ts.t, lv_ts.state, est_state, slot.delivered, truth_decision, est_decision))
    return log, counts


def run_cell(fleet: Sequence[ScenarioTrace], kind: EstimatorKind, per: float, cfg: RunConfig,
             truth: object = None) -> SweepCell:
    """One (estimator, PER) cell as `sweep` gives it; `truth` has no effect (truth always follows cfg.camp)."""
    return sweep(fleet, replace(cfg, estimators=(kind,), pers=(per,)))[0]


def sweep(fleet: Sequence[ScenarioTrace], cfg: RunConfig) -> list[SweepCell]:
    """Full (estimator, PER) cross product, averaged over scenarios x seeds.

    Cells come in the configured (estimator, PER) order, and each is
    `aggregate` over its slab of `count_runs`'s array.
    """
    counts = count_runs(fleet, cfg)
    return [SweepCell(kind, per, aggregate(per_counts), len(fleet), cfg.seeds)
            for kind, kind_counts in zip(cfg.estimators, counts) for per, per_counts in zip(cfg.pers, kind_counts)]


def count_runs(fleet: Sequence[ScenarioTrace], cfg: RunConfig) -> np.ndarray:
    """Every run's (ch, cs, is_, ih) as an (estimator, PER, scenario, seed, 4) int64 array.

    Entry [e, p, i, j] is what `run_scenario` counts for fleet[i] under
    cfg's estimator e, PER p and seed index j. Runs are grouped by
    trace length and sample period, so each trace steps at its own period.
    A group's runs have shape (PER, scenario, seed) and its per-scenario
    arrays are shaped (steps, 1, scenario, 1) so a block of steps
    broadcasts over the runs. Each group's loss masks are drawn once, and
    every estimator steps all of the group's runs through time together on
    them, before the next group's arrays are built. A group's truth warnings,
    from the exact LV states under cfg.camp, fill one (steps, 1, scenario, 1)
    bool array a block of steps at a time, and each estimator's warnings come
    a block of steps at a time from `_warn_blocks`; `_block_steps` sizes both.
    """
    if not fleet:
        raise ConfigError("sweep requires a non-empty fleet")
    seen = set()
    for trace in fleet:
        if trace.id in seen:
            raise ConfigError(f"duplicate scenario id {trace.id!r}: loss masks are keyed by id")
        seen.add(trace.id)

    by_shape: dict[tuple[int, float], list[int]] = {}
    for i, trace in enumerate(fleet):
        by_shape.setdefault((len(trace), trace.t_s), []).append(i)
    counts = np.zeros((len(cfg.estimators), len(cfg.pers), len(fleet), cfg.seeds, 4), dtype=np.int64)
    for (n_steps, t_s), members in by_shape.items():
        traces = [fleet[i] for i in members]
        data = np.stack([t.data for t in traces], axis=1)[:, None, :, :, None]
        lv, fv = (tuple(data[..., j, :] for j in columns) for columns in (LV_COLUMNS, FV_COLUMNS))
        truth_warn = np.empty((n_steps, 1, len(traces), 1), dtype=bool)
        size = _block_steps(n_steps, truth_warn.shape[1:])
        for k0 in range(0, n_steps, size):
            steps = slice(k0, k0 + size)
            truth_warn[steps] = warn_batch(cfg.camp.gap(lv[0][steps], fv[0][steps]), fv[1][steps], fv[2][steps],
                                           lv[1][steps], lv[2][steps], cfg.camp)
        seeds = [derive_seed(cfg.master_seed, t.id, per, j)
                 for per in cfg.pers for t in traces for j in range(cfg.seeds)]
        pers = np.repeat(cfg.pers, len(traces) * cfg.seeds)
        delivered = delivery_masks(n_steps, pers, seeds).reshape(n_steps, len(cfg.pers), len(traces), cfg.seeds)
        n_truth = truth_warn.sum(axis=0)
        for kind_counts, kind in zip(counts, cfg.estimators):
            ch = np.zeros(delivered.shape[1:], dtype=np.int64)
            n_warn = np.zeros_like(ch)
            estimates = estimate_batch(*lv, delivered, kind, t_s, cfg.kalman)
            for steps, warn in _warn_blocks(estimates, ch.shape, fv, traces, kind, cfg.camp):
                ch += (truth_warn[steps] & warn).sum(axis=0)
                n_warn += warn.sum(axis=0)
            kind_counts[:, members] = np.stack(confusion(ch, n_truth, n_warn, n_steps), axis=-1)
    return counts


def _block_steps(n_steps: int, run_shape: tuple[int, ...]) -> int:
    """Steps per block of warnings over runs of `run_shape`: about BLOCK run-steps, and at least one step."""
    return min(n_steps, max(1, BLOCK // int(np.prod(run_shape))))


def _warn_blocks(estimates: Iterable[tuple[np.ndarray, ...]], run_shape: tuple[int, ...], fv: tuple[np.ndarray, ...],
                 traces: Sequence[ScenarioTrace], kind: EstimatorKind,
                 camp: CampParams) -> Iterator[tuple[slice, np.ndarray]]:
    """Warnings from the `kind` estimator's per-step LV (x, v, a) over runs of `run_shape`, a block of steps at a time.

    Yields (steps, warn) for consecutive blocks of about BLOCK run-steps,
    and at least one step each. fv is the FV's (x, v, a) per step, shaped
    (steps, 1, scenario, 1) like run axis 1, the scenario axis of `traces`.
    `estimates` runs with numpy's overflow warnings off, and a non-finite LV
    estimate is a TraceFormatError that names the block's steps and the
    scenario of its first non-finite run.
    """
    n_steps = len(fv[0])
    size = _block_steps(n_steps, run_shape)
    block = np.empty((3, size, *run_shape))
    for k0 in range(0, n_steps, size):
        n = min(size, n_steps - k0)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught as a non-finite block
            for i, (x, v, a) in zip(range(n), estimates):
                block[0, i], block[1, i], block[2, i] = x, v, a
        finite = np.isfinite(block[:, :n]).all(axis=(0, 1))
        if not finite.all():
            raise TraceFormatError(f"non-finite vehicle state estimate in steps {k0}-{k0 + n - 1} (the LV trace "
                                   f"overflows the {kind.value} estimator) in scenario {traces[np.argwhere(~finite)[0][1]].id}")
        (x, v, a), steps = block[:, :n], slice(k0, k0 + n)
        yield steps, warn_batch(camp.gap(x, fv[0][steps]), fv[1][steps], fv[2][steps], v, a, camp)


# ---------------------------------------------------------------------------
# Artifact writers. Floats use 9 significant digits so repeated runs produce
# byte-identical, replayable files.
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    return format(value, ".9g")


STEP_LOG_COLUMNS = (
    "step,t,delivered,true_x,true_v,true_a,est_x,est_v,est_a,"
    "gap,r_w_true,r_d_true,bor_true,bor_case_true,warn_true,"
    "gap_est,r_w_est,r_d_est,bor_est,bor_case_est,warn_est"
)


def write_step_log(log: Sequence[StepRecord], path: Path | str) -> None:
    """Per-step trace CSV: states, delivery flag, and both decision breakdowns."""
    lines = [STEP_LOG_COLUMNS]
    for k, r in enumerate(log):
        t, e, td, ed = r.true_state, r.est_state, r.truth, r.est
        lines.append(
            ",".join(
                (
                    str(k), _fmt(r.t), str(int(r.delivered)),
                    _fmt(t.x), _fmt(t.v), _fmt(t.a),
                    _fmt(e.x), _fmt(e.v), _fmt(e.a),
                    _fmt(td.gap), _fmt(td.r_w), _fmt(td.r_d), _fmt(td.bor),
                    str(int(td.bor_case)), str(int(td.warn)),
                    _fmt(ed.gap), _fmt(ed.r_w), _fmt(ed.r_d), _fmt(ed.bor),
                    str(int(ed.bor_case)), str(int(ed.warn)),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


SUMMARY_COLUMNS = "estimator,per,mean_tp,mean_accuracy,n_scenarios,n_seeds,n_undefined_tp"


def write_summary_csv(cells: Sequence[SweepCell], path: Path | str) -> None:
    """Sweep summary CSV, one row per (estimator, PER) cell."""
    lines = [SUMMARY_COLUMNS]
    for cell in cells:
        s = cell.summary
        lines.append(
            ",".join(
                (
                    cell.estimator.value, _fmt(cell.per),
                    _fmt(s.mean_tp) if s.mean_tp is not None else "",
                    _fmt(s.mean_accuracy) if s.mean_accuracy is not None else "",
                    str(cell.n_scenarios), str(cell.n_seeds), str(s.n_undefined_tp),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_summary_json(cells: Sequence[SweepCell], cfg: RunConfig, path: Path | str) -> None:
    """Sweep summary JSON with the full config echo and per-cell spreads."""
    payload = {
        "config": {
            "estimators": [k.value for k in cfg.estimators],
            "pers": list(cfg.pers),
            "seeds": cfg.seeds,
            "master_seed": cfg.master_seed,
            **asdict(cfg.camp),
            **{f"kalman_{name}": value for name, value in asdict(cfg.kalman).items()},
        },
        "cells": [
            {
                "estimator": cell.estimator.value,
                "per": cell.per,
                "n_scenarios": cell.n_scenarios,
                "n_seeds": cell.n_seeds,
                **asdict(cell.summary),
            }
            for cell in cells
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
