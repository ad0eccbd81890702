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
and is the reference the batched sweep kernel is tested against. `sweep`
and `run_cell` step every run of an estimator together over arrays.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .camp_linear import CampParams, WarningDecision, evaluate, warn_batch
from .channel import ChannelConfig, delivery_mask, transmit
from .errors import ConfigError
from .estimators import EstimatorKind, KalmanConfig, estimate_batch, estimate_stream
from .kinematics import SampleClock, VehicleState
from .metrics import ConfusionCounts, MetricSummary, aggregate
from .scenarios import ScenarioTrace

SEED_DOMAIN = "fcwsim:v1"


def derive_seed(master_seed: int, scenario_id: str, per: float, seed_index: int) -> int:
    """64-bit channel seed for one (scenario, PER, repetition) cell.

    First 8 bytes (big-endian) of SHA-256 over
    "fcwsim:v1|<master>|<scenario id>|<per with 10 sig. digits>|<index>".
    """
    key = f"{SEED_DOMAIN}|{master_seed}|{scenario_id}|{per:.10g}|{seed_index}"
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


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
    t_s: Optional[float] = None  # None: take the fleet's period

    def __post_init__(self):
        if not self.estimators:
            raise ConfigError("at least one estimator required")
        if not self.pers:
            raise ConfigError("at least one PER value required")
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
    truth: Optional[Sequence[WarningDecision]] = None,
) -> tuple[list[StepRecord], ConfusionCounts]:
    """Run one scenario through the full pipeline; deterministic in all inputs.

    `truth` may carry precomputed truth decisions for the trace; otherwise
    they are evaluated here.
    """
    slots = transmit(trace.lv, ChannelConfig(per=per, seed=seed))
    estimates = estimate_stream(slots, kind, SampleClock(t_s=trace.t_s), kalman)
    if truth is None:
        truth = truth_decisions(trace, camp)

    offset = camp.length_offset
    log = []
    ch = cs = is_ = ih = 0
    for k, (lv_ts, fv_ts) in enumerate(trace.steps()):
        est_state = estimates[k]
        est_gap = est_state.x - fv_ts.state.x - offset
        est_decision = evaluate(est_gap, fv_ts.state, est_state, camp)
        truth_decision = truth[k]
        if truth_decision.warn:
            if est_decision.warn:
                ch += 1
            else:
                is_ += 1
        elif est_decision.warn:
            ih += 1
        else:
            cs += 1
        log.append(
            StepRecord(k, lv_ts.t, lv_ts.state, est_state, slots[k].delivered, truth_decision, est_decision)
        )
    return log, ConfusionCounts(ch=ch, cs=cs, is_=is_, ih=ih)


def run_cell(
    fleet: Sequence[ScenarioTrace],
    kind: EstimatorKind,
    per: float,
    cfg: RunConfig,
    truth: Optional[dict[str, list[WarningDecision]]] = None,
) -> SweepCell:
    """Aggregate one (estimator, PER) cell over all scenarios and seed indices."""
    return _Batch(fleet, (per,), cfg, truth).cells(kind)[0]


def sweep(fleet: Sequence[ScenarioTrace], cfg: RunConfig) -> list[SweepCell]:
    """Full (estimator, PER) cross product, averaged over scenarios x seeds.

    Cells are emitted in the configured (estimator, PER) order. Each
    estimator steps all of its (PER, scenario, seed) runs through time
    together, and every estimator reads the same loss masks.
    """
    if not fleet:
        raise ConfigError("sweep requires a non-empty fleet")
    _check_clock(fleet, cfg)
    batch = _Batch(fleet, cfg.pers, cfg)
    return [cell for kind in cfg.estimators for cell in batch.cells(kind)]


class _Batch:
    """All (PER, scenario, seed) runs of a sweep, as arrays.

    Runs are grouped by trace length and sample period; a group's runs
    have shape (PER, scenario, seed) and its per-scenario arrays are
    shaped (steps, 1, scenario, 1) so step k broadcasts over the runs.
    The loss masks are drawn once here and shared by every estimator.
    Truth warnings come from `truth` ({id: decisions}) when given, else
    from the same batched warning evaluation on the exact LV states.
    """

    def __init__(self, fleet, pers, cfg: RunConfig, truth=None) -> None:
        _check_ids(fleet)
        self.fleet, self.pers, self.cfg = fleet, pers, cfg
        groups: dict[tuple[int, float], list[int]] = {}
        for i, trace in enumerate(fleet):
            groups.setdefault((len(trace), trace.t_s), []).append(i)
        self.groups = []
        for (n_steps, t_s), members in groups.items():
            traces = [fleet[i] for i in members]
            data = np.stack([t.data for t in traces], axis=1)[:, None, :, :, None]
            lv = data[..., 1, :], data[..., 2, :], data[..., 3, :]
            fv = data[..., 4, :], data[..., 5, :], data[..., 6, :]
            if truth is None:
                truth_warn = warn_batch(lv[0] - fv[0] - cfg.camp.length_offset, fv[1], fv[2], lv[1], lv[2], cfg.camp)
            else:
                truth_warn = np.array([[d.warn for d in truth[t.id]] for t in traces]).T[:, None, :, None]
            delivered = np.empty((n_steps, len(pers), len(traces), cfg.seeds), dtype=bool)
            for p, per in enumerate(pers):
                for s, t in enumerate(traces):
                    for j in range(cfg.seeds):
                        seed = derive_seed(cfg.master_seed, t.id, per, j)
                        delivered[:, p, s, j] = delivery_mask(n_steps, per, seed)
            self.groups.append((members, t_s, lv, fv, truth_warn, delivered))

    def cells(self, kind: EstimatorKind) -> list[SweepCell]:
        """One cell per PER for `kind`; runs are aggregated in (scenario, seed) order."""
        cfg = self.cfg
        counts = np.zeros((len(self.pers), len(self.fleet), cfg.seeds, 4), dtype=np.int64)
        for members, t_s, lv, fv, truth_warn, delivered in self.groups:
            ch = np.zeros(delivered.shape[1:], dtype=np.int64)
            n_warn = np.zeros_like(ch)
            estimates = estimate_batch(*lv, delivered, kind, t_s, cfg.kalman)
            for k, (x, v, a) in enumerate(estimates):
                gap = x - fv[0][k] - cfg.camp.length_offset
                warn = warn_batch(gap, fv[1][k], fv[2][k], v, a, cfg.camp)
                ch += truth_warn[k] & warn
                n_warn += warn
            n_truth = truth_warn.sum(axis=0)
            is_ = n_truth - ch
            ih = n_warn - ch
            cs = len(delivered) - ch - is_ - ih
            counts[:, members] = np.stack((ch, cs, is_, ih), axis=-1)
        return [
            SweepCell(
                kind, per, aggregate([ConfusionCounts(*c) for c in per_counts.reshape(-1, 4).tolist()]),
                len(self.fleet), cfg.seeds,
            )
            for per, per_counts in zip(self.pers, counts)
        ]


def _check_ids(fleet: Sequence[ScenarioTrace]) -> None:
    seen = set()
    for trace in fleet:
        if trace.id in seen:
            raise ConfigError(f"duplicate scenario id {trace.id!r}: truth and loss masks are keyed by id")
        seen.add(trace.id)


def _check_clock(fleet: Sequence[ScenarioTrace], cfg: RunConfig) -> None:
    periods = {trace.t_s for trace in fleet}
    if len(periods) > 1:
        raise ConfigError(f"fleet mixes sample periods: {sorted(periods)}")
    if cfg.t_s is not None and abs(cfg.t_s - fleet[0].t_s) > 1e-9:
        raise ConfigError(f"configured sample period {cfg.t_s} != fleet period {fleet[0].t_s}")


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
            "t_d": cfg.camp.t_d,
            "eps_v": cfg.camp.eps_v,
            "min_decel": cfg.camp.min_decel,
            "length_offset": cfg.camp.length_offset,
            "kalman_q": cfg.kalman.q,
            "kalman_r": cfg.kalman.r,
            "kalman_p0": cfg.kalman.p0,
        },
        "cells": [
            {
                "estimator": cell.estimator.value,
                "per": cell.per,
                "mean_tp": cell.summary.mean_tp,
                "mean_accuracy": cell.summary.mean_accuracy,
                "tp_std": cell.summary.tp_std,
                "accuracy_std": cell.summary.accuracy_std,
                "n_scenarios": cell.n_scenarios,
                "n_seeds": cell.n_seeds,
                "n_undefined_tp": cell.summary.n_undefined_tp,
                "n_undefined_accuracy": cell.summary.n_undefined_accuracy,
            }
            for cell in cells
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
