"""Traced in-process pass: spans around the benchmark's calls into each fcwsim layer.

Nothing inside the program is instrumented. The benchmark calls each
module's public functions in the order the program does and records a
span around every call:

  - a sweep cell is first computed by `harness.run_cell` with no spans
    inside, then replayed run by run as derive_seed -> transmit ->
    estimate_stream -> evaluate, and once per cell aggregate;
  - a replay call is load_fleet -> derive_seed -> run_scenario ->
    write_step_log, and run_scenario is then replayed as transmit ->
    estimate_stream -> truth_decisions -> evaluate.

A replayed result must equal the program's own (`==` on MetricSummary,
ConfusionCounts and written bytes), or the pass raises Unfaithful rather
than report layer numbers for a different computation.

Spans are (run id, name, parent name, start, end) tuples kept in memory;
all spans of one run share its id and are stored when the run ends. The
harness's self time is its spans' duration minus that of their replayed
children.
"""

from __future__ import annotations

import itertools
import json
import statistics
import time
from collections import Counter, defaultdict
from functools import reduce
from pathlib import Path

from fcwsim import camp_linear, channel, cli, estimators, harness, metrics, scenarios
from fcwsim.kinematics import SampleClock

clock = time.perf_counter

KINDS = ("cv", "ca", "kalman")

PER_LAYER = (
    ("scenarios.generate_fleet.busy_s", "s"),
    ("scenarios.save_fleet.busy_s", "s"),
    ("scenarios.save_fleet.bytes", "bytes"),
    ("scenarios.load_fleet.busy_s", "s"),
    ("cli.import_s", "s"),
    ("channel.transmit.busy_s", "s"),
    ("channel.transmit.slots", "count"),
    ("channel.delivered_ratio", "ratio"),
    *((f"estimators.{k}.busy_s", "s") for k in KINDS),
    *((f"estimators.{k}.steps_per_s", "steps/s") for k in KINDS),
    ("estimators.kalman.corrections", "count"),
    ("estimators.kalman.predicts", "count"),
    ("camp_linear.evaluate.calls", "count"),
    ("camp_linear.evaluate.busy_s", "s"),
    ("camp_linear.evaluate.per_s", "calls/s"),
    ("harness.derive_seed.busy_s", "s"),
    ("harness.truth_decisions.busy_s", "s"),
    *((f"harness.run_cell.{k}.busy_s", "s") for k in KINDS),
    ("harness.self_s", "s"),
    ("harness.parallel_efficiency", "ratio"),
    ("harness.cell_imbalance", "ratio"),
    ("harness.run_scenario.busy_s", "s"),
    ("harness.write_step_log.busy_s", "s"),
    ("harness.write_summary.busy_s", "s"),
    ("metrics.aggregate.busy_s", "s"),
    ("repo.src_lines", "lines"),
    ("trace.overhead_s", "s"),
)


class Unfaithful(RuntimeError):
    """The traced replay computed something other than what the program computes."""


class Tracer:
    """Spans and counts of one traced pass, held in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, str | None, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)

    def new_run(self) -> int:
        return next(self._ids)

    def end_run(self, run_id: int, parent: str | None, spans) -> None:
        """Store a finished run's (name, start, end) spans."""
        self.spans.extend((run_id, name, parent, start, end) for name, start, end in spans)

    def timed(self, name: str, fn, *args):
        """Call fn(*args) as a run of its own with one span."""
        start = clock()
        result = fn(*args)
        self.end_run(self.new_run(), None, ((name, start, clock()),))
        return result

    def count_run(self, kind: estimators.EstimatorKind, slots, n_evaluated: int) -> None:
        delivered = sum(1 for s in slots if s.delivered)
        c = self.counts
        c["channel.transmit.slots"] += len(slots)
        c["channel.delivered"] += delivered
        c[f"estimators.{kind.value}.steps"] += len(slots)
        c["camp_linear.evaluate.calls"] += n_evaluated
        if kind is estimators.EstimatorKind.KALMAN:
            # The filter predicts at every slot after the first and corrects on each delivered one.
            c["estimators.kalman.predicts"] += len(slots) - 1
            c["estimators.kalman.corrections"] += delivered - 1

    def write(self, path: Path) -> None:
        path.write_text(
            "".join(json.dumps({"run": r, "name": n, "parent": p, "start": s, "end": e}) + "\n"
                    for r, n, p, s, e in self.spans),
            encoding="utf-8",
        )

    def values(self) -> dict[str, float]:
        """Per-layer totals from the spans and counts; a layer this pass never called reads 0."""
        busy: dict[str, float] = defaultdict(float)
        child_s = 0.0
        for _, name, parent, start, end in self.spans:
            busy[name] += end - start
            if parent is not None:
                child_s += end - start
        c = self.counts
        values = {
            "scenarios.load_fleet.busy_s": busy["scenarios.load_fleet"],
            "channel.transmit.busy_s": busy["channel.transmit"],
            "channel.transmit.slots": c["channel.transmit.slots"],
            "channel.delivered_ratio": _ratio(c["channel.delivered"], c["channel.transmit.slots"]),
            "estimators.kalman.corrections": c["estimators.kalman.corrections"],
            "estimators.kalman.predicts": c["estimators.kalman.predicts"],
            "camp_linear.evaluate.calls": c["camp_linear.evaluate.calls"],
            "camp_linear.evaluate.busy_s": busy["camp_linear.evaluate"],
            "camp_linear.evaluate.per_s": _ratio(c["camp_linear.evaluate.calls"], busy["camp_linear.evaluate"]),
            "harness.derive_seed.busy_s": busy["harness.derive_seed"],
            "harness.truth_decisions.busy_s": busy["harness.truth_decisions"],
            "harness.run_scenario.busy_s": busy["harness.run_scenario"],
            "harness.write_step_log.busy_s": busy["harness.write_step_log"],
            "harness.write_summary.busy_s": busy["harness.write_summary"],
            "metrics.aggregate.busy_s": busy["metrics.aggregate"],
        }
        parent_s = busy["harness.run_scenario"]
        for k in KINDS:
            values[f"estimators.{k}.busy_s"] = busy[f"estimators.{k}"]
            values[f"estimators.{k}.steps_per_s"] = _ratio(c[f"estimators.{k}.steps"], busy[f"estimators.{k}"])
            values[f"harness.run_cell.{k}.busy_s"] = busy[f"harness.run_cell.{k}"]
            parent_s += busy[f"harness.run_cell.{k}"]
        values["harness.self_s"] = parent_s - child_s
        return values


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _same_dirs(a: Path, b: Path) -> bool:
    """Whether two directories hold the same file names with the same bytes."""
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names
    )


def _confusion(truth, decisions) -> metrics.ConfusionCounts:
    """Fold a run's (truth, estimate) warnings with the metrics module's own classifier."""
    return reduce(
        lambda acc, pair: metrics.classify_step(pair[0].warn, pair[1].warn, acc),
        zip(truth, decisions),
        metrics.ConfusionCounts(),
    )


def _evaluate_stream(trace, estimates, camp) -> list:
    """Estimated-side warning decisions, with the gap formed as run_scenario forms it."""
    offset = camp.length_offset
    return [
        camp_linear.evaluate(est.x - fv.state.x - offset, fv.state, est, camp)
        for est, fv in zip(estimates, trace.fv)
    ]


def setup_values(n_scenarios: int, seed: int, fleet_dir: Path, out: Path) -> dict[str, float]:
    """Generate and save the fleet in-process; its bytes must equal the CLI's fleet."""
    start = clock()
    traces = scenarios.generate_fleet(scenarios.GenConfig(n_scenarios=n_scenarios, seed=seed))
    generated = clock()
    scenarios.save_fleet(traces, out)
    saved = clock()
    if not _same_dirs(out, fleet_dir):
        raise Unfaithful("in-process fleet differs from `fcwsim gen` output")
    return {
        "scenarios.generate_fleet.busy_s": generated - start,
        "scenarios.save_fleet.busy_s": saved - generated,
        "scenarios.save_fleet.bytes": sum(p.stat().st_size for p in out.iterdir()),
    }


def replay_cell(tracer: Tracer, parent: str, fleet, truth, kind, per: float, cfg) -> metrics.MetricSummary:
    """One (estimator, PER) cell replayed run by run with a span per layer call."""
    est_span = f"estimators.{kind.value}"
    counts = []
    for trace in fleet:
        sample_clock = SampleClock(t_s=trace.t_s)
        for seed_index in range(cfg.seeds):
            t0 = clock()
            seed = harness.derive_seed(cfg.master_seed, trace.id, per, seed_index)
            t1 = clock()
            slots = channel.transmit(trace.lv, channel.ChannelConfig(per=per, seed=seed))
            t2 = clock()
            estimates = estimators.estimate_stream(slots, kind, sample_clock, cfg.kalman)
            t3 = clock()
            decisions = _evaluate_stream(trace, estimates, cfg.camp)
            t4 = clock()
            tracer.end_run(tracer.new_run(), parent, (
                ("harness.derive_seed", t0, t1),
                ("channel.transmit", t1, t2),
                (est_span, t2, t3),
                ("camp_linear.evaluate", t3, t4),
            ))
            tracer.count_run(kind, slots, len(decisions))
            counts.append(_confusion(truth[trace.id], decisions))
    start = clock()
    summary = metrics.aggregate(counts)
    tracer.end_run(tracer.new_run(), parent, (("metrics.aggregate", start, clock()),))
    return summary


def trace_sweep(w, fleet_dir: Path, seed: int, out: Path, cli_out: Path, cli_wall: float, spans: Path) -> dict:
    """The sweep traced in-process; every cell must equal `run_cell`'s and the CLI's bytes."""
    tracer = Tracer()
    start = clock()
    fleet = tracer.timed("scenarios.load_fleet", scenarios.load_fleet, fleet_dir)
    cfg = harness.RunConfig(
        estimators=cli.parse_estimators(w.estimators), pers=cli.parse_per_grid(w.per),
        seeds=w.seeds, master_seed=seed,
    )
    truth = {t.id: tracer.timed("harness.truth_decisions", harness.truth_decisions, t, cfg.camp) for t in fleet}
    cells, cell_walls = [], []
    for kind in cfg.estimators:
        parent = f"harness.run_cell.{kind.value}"
        for per in cfg.pers:
            t0 = clock()
            cell = harness.run_cell(fleet, kind, per, cfg, truth)
            t1 = clock()
            tracer.end_run(tracer.new_run(), None, ((parent, t0, t1),))
            cell_walls.append(t1 - t0)
            replayed = replay_cell(tracer, parent, fleet, truth, kind, per, cfg)
            if replayed != cell.summary:
                raise Unfaithful(f"{kind.value} PER {per}: replay {replayed} != run_cell {cell.summary}")
            cells.append(cell)
    out.mkdir()
    t0 = clock()
    harness.write_summary_csv(cells, out / "summary.csv")
    harness.write_summary_json(cells, cfg, out / "summary.json")
    tracer.end_run(tracer.new_run(), None, (("harness.write_summary", t0, clock()),))
    wall = clock() - start
    if not _same_dirs(out, cli_out):
        raise Unfaithful("in-process summary differs from `fcwsim sweep` output")
    tracer.write(spans)
    values = tracer.values()
    values["harness.parallel_efficiency"] = sum(cell_walls) / (w.jobs * cli_wall)
    values["harness.cell_imbalance"] = max(cell_walls) / statistics.mean(cell_walls)
    values["trace.overhead_s"] = wall
    return values


def trace_replay(calls, fleet_dir: Path, seed: int, out: Path, cli_out: Path, spans: Path) -> dict:
    """The replay cycle traced in-process; every step log must equal the CLI's bytes."""
    tracer = Tracer()
    camp = camp_linear.CampParams()
    out.mkdir()
    start = clock()
    for i, (scenario, estimator, per) in enumerate(calls):
        run_id = tracer.new_run()
        kind = cli.parse_estimators(estimator)[0]
        t0 = clock()
        trace = next(t for t in scenarios.load_fleet(fleet_dir) if t.id == scenario)
        t1 = clock()
        run_seed = harness.derive_seed(seed, trace.id, per, 0)
        t2 = clock()
        log, counts = harness.run_scenario(trace, kind, per, run_seed)
        t3 = clock()
        harness.write_step_log(log, out / f"{i}.csv")
        t4 = clock()
        slots = channel.transmit(trace.lv, channel.ChannelConfig(per=per, seed=run_seed))
        t5 = clock()
        estimates = estimators.estimate_stream(slots, kind, SampleClock(t_s=trace.t_s))
        t6 = clock()
        truth = harness.truth_decisions(trace, camp)
        t7 = clock()
        decisions = _evaluate_stream(trace, estimates, camp)
        t8 = clock()
        tracer.end_run(run_id, None, (
            ("scenarios.load_fleet", t0, t1),
            ("harness.derive_seed", t1, t2),
            ("harness.run_scenario", t2, t3),
            ("harness.write_step_log", t3, t4),
        ))
        tracer.end_run(run_id, "harness.run_scenario", (
            ("channel.transmit", t4, t5),
            (f"estimators.{kind.value}", t5, t6),
            ("harness.truth_decisions", t6, t7),
            ("camp_linear.evaluate", t7, t8),
        ))
        tracer.count_run(kind, slots, len(decisions))
        replayed = _confusion(truth, decisions)
        if replayed != counts:
            raise Unfaithful(f"call {i}: replay {replayed} != run_scenario {counts}")
        if (out / f"{i}.csv").read_bytes() != (cli_out / f"{i}.csv").read_bytes():
            raise Unfaithful(f"call {i}: in-process step log differs from `fcwsim run` output")
    wall = clock() - start
    tracer.write(spans)
    values = tracer.values()
    values["harness.parallel_efficiency"] = 0.0
    values["harness.cell_imbalance"] = 0.0
    values["trace.overhead_s"] = wall
    return values


def with_units(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric in declaration order, with its unit."""
    if set(values) != {name for name, _ in PER_LAYER}:
        raise KeyError(f"per-layer names differ: {sorted(set(values) ^ {n for n, _ in PER_LAYER})}")
    return {name: (values[name], unit) for name, unit in PER_LAYER}
