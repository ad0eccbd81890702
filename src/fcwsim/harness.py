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

`run_scenario` steps one run through the scalar functions; it backs `run`
and is the reference the batched sweep kernel is tested against.
`count_runs` steps many runs together over arrays into one count array,
`sweep` aggregates each cell's slab of it, and `run_cell` is a one-cell sweep.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .camp_linear import CampParams, WarningDecision, evaluate, warn_batch
from .channel import ChannelConfig, delivery_masks, transmit
from .errors import ConfigError, TraceFormatError
from .estimators import EstimatorKind, KalmanConfig, block_steps, estimate_batch, estimate_stream
from .kinematics import SampleClock, VehicleState
from .metrics import ConfusionCounts, MetricSummary, aggregate, classify_step
from .scenarios import ScenarioTrace

try:  # built-in SHA-256, as random.py takes sha512: importing hashlib loads OpenSSL (3.7 MB of peak RSS)
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

SEED_DOMAIN = "fcwsim:v1"


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

    step: int
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
    """Warning decisions from exact LV data; independent of estimator/PER/seed."""
    decisions = []
    offset = camp.length_offset
    for lv_ts, fv_ts in trace.steps():
        gap = lv_ts.state.x - fv_ts.state.x - offset
        decisions.append(evaluate(gap, fv_ts.state, lv_ts.state, camp))
    return decisions


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

    offset = camp.length_offset
    log = []
    counts = ConfusionCounts()
    for k, (lv_ts, fv_ts) in enumerate(trace.steps()):
        est_state = estimates[k]
        est_gap = est_state.x - fv_ts.state.x - offset
        est_decision = evaluate(est_gap, fv_ts.state, est_state, camp)
        counts = classify_step(truth[k].warn, est_decision.warn, counts)
        log.append(
            StepRecord(k, lv_ts.t, lv_ts.state, est_state, slots[k].delivered, truth[k], est_decision)
        )
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
    them, before the next group's arrays are built. Warnings are evaluated
    and counted once per block `estimate_batch` yields. Truth warnings come
    from blocks of the same evaluation on the exact LV states under cfg.camp.
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
        lv = data[..., 1, :], data[..., 2, :], data[..., 3, :]
        fv = data[..., 4, :], data[..., 5, :], data[..., 6, :]
        truth_warn = np.empty((n_steps, 1, len(traces), 1), dtype=bool)
        size = block_steps(len(traces))
        for k0 in range(0, n_steps, size):
            block = slice(k0, k0 + size)
            truth_warn[block] = warn_batch(lv[0][block] - fv[0][block] - cfg.camp.length_offset,
                                           fv[1][block], fv[2][block], lv[1][block], lv[2][block], cfg.camp)
        seeds = [derive_seed(cfg.master_seed, t.id, per, j)
                 for per in cfg.pers for t in traces for j in range(cfg.seeds)]
        pers = np.repeat(cfg.pers, len(traces) * cfg.seeds)
        delivered = delivery_masks(n_steps, pers, seeds).reshape(n_steps, len(cfg.pers), len(traces), cfg.seeds)
        n_truth = truth_warn.sum(axis=0)
        for kind_counts, kind in zip(counts, cfg.estimators):
            ch = np.zeros(delivered.shape[1:], dtype=np.int64)
            n_warn = np.zeros_like(ch)
            try:
                for k0, x, v, a in estimate_batch(*lv, delivered, kind, t_s, cfg.kalman):
                    block = slice(k0, k0 + len(x))
                    gap = x - fv[0][block] - cfg.camp.length_offset
                    warn = warn_batch(gap, fv[1][block], fv[2][block], v, a, cfg.camp)
                    ch += (truth_warn[block] & warn).sum(axis=0)
                    n_warn += warn.sum(axis=0)
            except TraceFormatError as exc:  # an estimate overflowed: name the run's scenario
                raise TraceFormatError(f"{exc} in scenario {traces[exc.run[1]].id}") from exc
            is_ = n_truth - ch
            ih = n_warn - ch
            cs = n_steps - ch - is_ - ih
            kind_counts[:, members] = np.stack((ch, cs, is_, ih), axis=-1)
    return counts


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
    for r in log:
        t, e, td, ed = r.true_state, r.est_state, r.truth, r.est
        lines.append(
            ",".join(
                (
                    str(r.step), _fmt(r.t), str(int(r.delivered)),
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
