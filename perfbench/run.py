#!/usr/bin/env python3
"""fcwsim benchmark: end-to-end CLI timings and a traced per-layer pass.

Run from the repository root:

    python3 perfbench/run.py --workload grid-full --seed 1 --seconds 30 --trace 0

Every timed step is a fresh `python -m fcwsim.cli` process with `src` on
the path. `--trace 0` repeats the workload's job until `--seconds` have
passed and prints the end-to-end metrics declared in BENCHMARK.json.
`--trace 1` runs the job once through the CLI, then once more in-process
with spans around each call into a layer (tracing.py), and prints the
per-layer metrics. Both modes check the program's outputs; every CLI
invocation that exits non-zero or fails a check counts as failed.

The last stdout line is the JSON result; the lines before it give the
run context and the same numbers under the names people use for them.
`--record` writes the outputs' digests for the given seed into
digests.json instead of measuring. README.md says why each workload
exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from importlib import metadata
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
DIGESTS = BENCH_DIR / "digests.json"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

SETUP_MIN = 3  # fresh `gen` processes per timed run, at least
SETUP_GAP_S = 3.0  # and one more whenever the last is this old
MIN_JOBS = 2  # a run always makes two job invocations, so their bytes can be compared
IMPORT_REPEATS = 5
PROCESS_TIMEOUT_S = 170.0
SUMMARY_FILES = ("summary.csv", "summary.json")
REPLAY_ESTIMATORS = ("cv", "ca", "kalman")
REPLAY_PERS = tuple(round(0.1 * i, 1) for i in range(1, 10))


@dataclass(frozen=True)
class Workload:
    """One benchmark job. A sweep when `calls` is 0, else a replay cycle of `calls` runs."""

    name: str
    n_scenarios: int
    estimators: str = "cv,ca,kalman"
    per: str = ""
    seeds: int = 1
    jobs: int = 1
    calls: int = 0

    @property
    def is_sweep(self) -> bool:
        return self.calls == 0

    @property
    def n_cells(self) -> int:
        start, stop, step = (float(p) for p in self.per.split(":"))
        return len(self.estimators.split(",")) * (round((stop - start) / step) + 1)

    @property
    def runs_per_job(self) -> int:
        """Runs of 151 steps in one job invocation: a whole sweep, or one `run`."""
        return self.n_scenarios * self.seeds * self.n_cells if self.is_sweep else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-full", n_scenarios=20, per="0.0:0.9:0.1", seeds=1, jobs=1),
        Workload("deadreckon-par", n_scenarios=100, estimators="cv,ca", per="0.5:0.9:0.1", seeds=2, jobs=2),
        Workload("replay", n_scenarios=100, calls=40),
    )
}

# Metric names people use for the end-to-end numbers, per kind of workload.
ALIASES = {
    True: {"wall_p50_s": "sweep_s", "wall_p75_s": "sweep_p75_s", "wall_p90_s": "sweep_p90_s",
           "cpu_p50_s": "sweep_cpu_s", "cpu_p90_s": "sweep_cpu_p90_s"},
    False: {"wall_p50_s": "replay_p50_s", "wall_p75_s": "replay_p75_s", "wall_p90_s": "replay_p90_s",
            "cpu_p50_s": "replay_cpu_s", "cpu_p90_s": "replay_cpu_p90_s"},
}


@dataclass(frozen=True)
class Proc:
    """One finished CLI process. CPU and peak RSS include the workers it reaped."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stderr: str


def run_cli(args: list[str], cwd: Path) -> Proc:
    """Run `fcwsim <args>` in a fresh interpreter and wait for it."""
    with tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "fcwsim.cli", *args],
            cwd=cwd, env=ENV, stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


class Tally:
    """CLI invocations attempted, and the ones that failed: a bad exit or a failed output check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def record(self, label: str, proc: Proc, problems: list[Optional[str]]) -> None:
        self.attempted += 1
        found = [p for p in problems if p]
        if proc.returncode != 0:
            found.insert(0, f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if found:
            self.problems.append(f"{label}: " + "; ".join(found))

    @property
    def failed(self) -> int:
        return len(self.problems)


def mismatch(actual, expected, what: str) -> Optional[str]:
    """A problem message when an expected value is known and differs."""
    if expected is not None and actual != expected:
        return f"{what} differ"
    return None


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fleet_digest(fleet: Path) -> str:
    """SHA-256 over the names and bytes of every file of a fleet directory."""
    h = hashlib.sha256()
    for path in sorted(fleet.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def recorded(w: Workload, seed: int) -> Optional[dict]:
    """Digests recorded for this workload's exact sizes at this seed, if any."""
    entry = load_digests().get(w.name)
    if entry is None or entry["config"] != asdict(w):
        return None
    return entry["seeds"].get(str(seed))


# ---------------------------------------------------------------------------
# Set-up: fresh `gen` processes building the workload's fleet.
# ---------------------------------------------------------------------------

class FleetGen:
    """Fresh `gen` processes building the workload's fleet; every copy must match the first.

    The first one builds `fleet`, the fleet the jobs use. A timed run calls
    `pace` after each job, so the later ones are spread over the whole run
    and `setup_s` sees the same mix of host clock speeds as the jobs.
    """

    def __init__(self, w: Workload, seed: int, work: Path, tally: Tally, expected: Optional[dict]) -> None:
        self.args = ["gen", "--n", str(w.n_scenarios), "--seed", str(seed)]
        self.work, self.tally, self.expected = work, tally, expected
        self.fleet = work / "fleet0"
        self.walls: list[float] = []
        self.first: Optional[str] = None
        self.gen()

    def gen(self) -> None:
        fleet = self.work / f"fleet{len(self.walls)}"
        proc = run_cli([*self.args, "--out", str(fleet)], self.work)
        digest = fleet_digest(fleet) if proc.returncode == 0 else None
        self.first = self.first or digest
        self.tally.record("gen", proc, [
            mismatch(digest, self.first, "fleet bytes and the first gen's"),
            mismatch(digest, self.expected and self.expected["fleet"], "fleet bytes and recorded digest"),
        ])
        if self.walls:
            shutil.rmtree(fleet, ignore_errors=True)
        self.walls.append(proc.wall_s)
        self.last_end = time.perf_counter()

    def pace(self) -> None:
        """Generate once more if too few gens were made or the last one is SETUP_GAP_S old."""
        if len(self.walls) < SETUP_MIN or time.perf_counter() - self.last_end >= SETUP_GAP_S:
            self.gen()


def fleet_rows(fleet: Path) -> dict[str, int]:
    """Steps per scenario id, read from the fleet's manifest and CSVs."""
    manifest = json.loads((fleet / "manifest.json").read_text(encoding="utf-8"))
    return {
        e["id"]: len((fleet / e["file"]).read_text(encoding="utf-8").splitlines()) - 1
        for e in manifest["scenarios"]
    }


# ---------------------------------------------------------------------------
# Sweep jobs.
# ---------------------------------------------------------------------------

def sweep_args(w: Workload, fleet: Path, seed: int, out: Path, jobs: int, per: Optional[str] = None) -> list[str]:
    return [
        "sweep", "--fleet", str(fleet), "--estimators", w.estimators, "--per", per or w.per,
        "--seeds", str(w.seeds), "--master-seed", str(seed), "--jobs", str(jobs), "--out", str(out),
    ]


def check_sweep(proc: Proc, out: Path, n_cells: int) -> tuple[Optional[dict], list[str]]:
    """Digests of a sweep's outputs, and problems: cell count and the zero-loss invariant."""
    if proc.returncode != 0:
        return None, []
    try:
        digests = {name: sha256_file(out / name) for name in SUMMARY_FILES}
        cells = json.loads((out / "summary.json").read_text(encoding="utf-8"))["cells"]
        problems = [csv_mismatch((out / "summary.csv").read_text(encoding="utf-8"), cells)]
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return None, [f"unreadable output ({exc!r})"]
    if len(cells) != n_cells:
        problems.append(f"{len(cells)} cells, expected {n_cells}")
    for c in cells:
        if c["per"] == 0.0 and not c["mean_tp"] == c["mean_accuracy"] == 1.0:
            problems.append(f"zero-loss {c['estimator']} cell has tp {c['mean_tp']} accuracy {c['mean_accuracy']}")
    return digests, problems


def csv_mismatch(text: str, cells: list[dict]) -> Optional[str]:
    """A problem when summary.csv does not list the cells of summary.json, row for row."""
    lines = text.splitlines()
    col = {name: i for i, name in enumerate(lines[0].split(","))}
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(cells):
        return f"summary.csv has {len(rows)} rows for {len(cells)} cells"
    for row, cell in zip(rows, cells):
        if len(row) != len(col):
            return "malformed summary.csv row"
        for key in col:
            value, want = row[col[key]], cell[key]
            if isinstance(want, float):
                same = value != "" and math.isclose(float(value), want, rel_tol=1e-8)
            else:
                same = value == ("" if want is None else str(want))
            if not same:
                return f"summary.csv {key} {value!r} != summary.json {want!r}"
    return None


def summary_digests(expected: Optional[dict]) -> Optional[dict]:
    return expected and {name: expected[name] for name in SUMMARY_FILES}


def sweep_once(w, fleet, seed, out, tally, reference, jobs=None, label="sweep") -> tuple[Proc, Optional[dict]]:
    """One checked sweep into `out`; its outputs must match `reference` when that is given."""
    shutil.rmtree(out, ignore_errors=True)
    proc = run_cli(sweep_args(w, fleet, seed, out, jobs or w.jobs), out.parent)
    digests, problems = check_sweep(proc, out, w.n_cells)
    problems.append(mismatch(digests, reference, "summary bytes and the reference"))
    tally.record(label, proc, problems)
    return proc, digests


def sweep_fallback_checks(w, fleet, seed, work, tally, reference) -> None:
    """Checks for a seed with no recorded digests, on a workload with no zero-loss cells.

    A serial sweep must give the parallel sweep's bytes, and a PER 0 sweep
    of the same fleet must score every cell exactly 1.0.
    """
    if w.jobs > 1:
        sweep_once(w, fleet, seed, work / "serial-out", tally, reference, jobs=1, label="sweep --jobs 1")
    if float(w.per.split(":")[0]) > 0.0:
        out = work / "zero-loss-out"
        proc = run_cli(sweep_args(w, fleet, seed, out, 1, per="0.0"), work)
        _, problems = check_sweep(proc, out, len(w.estimators.split(",")))
        tally.record("sweep --per 0.0", proc, problems)


def measure_sweeps(w, gens, seed, seconds, work, tally, expected) -> list[Proc]:
    """Repeat the sweep until `seconds` are used; every sweep must give the same bytes."""
    fleet = gens.fleet
    reference = summary_digests(expected)
    procs = []
    start = time.perf_counter()
    while len(procs) < MIN_JOBS or time.perf_counter() - start + procs[-1].wall_s <= seconds:
        proc, digests = sweep_once(w, fleet, seed, work / "sweep-out", tally, reference)
        reference = reference or digests
        procs.append(proc)
        gens.pace()
    if expected is None:
        sweep_fallback_checks(w, fleet, seed, work, tally, reference)
    return procs


# ---------------------------------------------------------------------------
# Replay jobs: a closed loop of single `fcwsim run` invocations, one client.
# ---------------------------------------------------------------------------

def replay_calls(w: Workload, rows: dict[str, int], seed: int) -> list[tuple[str, str, float]]:
    """The replay cycle: (scenario, estimator, PER), scenarios in a seeded order."""
    ids = sorted(rows)
    random.Random(seed).shuffle(ids)
    return [
        (ids[i % len(ids)], REPLAY_ESTIMATORS[i % 3], REPLAY_PERS[(i // 3) % len(REPLAY_PERS)])
        for i in range(w.calls)
    ]


def run_args(fleet: Path, call: tuple[str, str, float], seed: int, out: Path) -> list[str]:
    scenario, estimator, per = call
    return [
        "run", "--fleet", str(fleet), "--scenario", scenario, "--estimator", estimator,
        "--per", repr(per), "--seed", str(seed), "--out", str(out),
    ]


def check_step_log(proc: Proc, out: Path, estimator: str, n_rows: int, zero_loss: bool):
    """Digest of a step log, and problems: row count, snapping and the zero-loss invariant.

    cv and ca snap to every delivered message, so a delivered row's
    estimate equals the true state; at PER 0 every estimated warning
    equals the true one, for every estimator.
    """
    if proc.returncode != 0:
        return None, []
    try:
        data = out.read_bytes()
        problems = step_log_problems(data.decode("utf-8").splitlines(), estimator, n_rows, zero_loss)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return None, [f"unreadable output ({exc!r})"]
    return hashlib.sha256(data).hexdigest(), problems


def step_log_problems(lines: list[str], estimator: str, n_rows: int, zero_loss: bool) -> list[str]:
    col = {name: i for i, name in enumerate(lines[0].split(","))}
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    if len(rows) != n_rows:
        problems.append(f"{len(rows)} step rows, expected {n_rows}")
    snaps = estimator in ("cv", "ca")
    for r in rows:
        if len(r) != len(col):
            return problems + ["malformed step row"]
        if snaps and r[col["delivered"]] == "1" and any(r[col[f"true_{q}"]] != r[col[f"est_{q}"]] for q in "xva"):
            return problems + [f"delivered step {r[0]} not snapped to the received state"]
        if zero_loss and r[col["warn_true"]] != r[col["warn_est"]]:
            return problems + [f"zero-loss step {r[0]} warns differently from truth"]
    return problems


def replay_once(fleet, call, seed, out, tally, rows, reference, zero_loss=False, label="run"):
    """One checked `run` writing the step log `out`; it must match `reference` when that is given."""
    out.unlink(missing_ok=True)
    proc = run_cli(run_args(fleet, call, seed, out), out.parent)
    digest, problems = check_step_log(proc, out, call[1], rows[call[0]], zero_loss)
    problems.append(mismatch(digest, reference, "step-log bytes and the reference"))
    tally.record(label, proc, problems)
    return proc, digest


def replay_zero_loss_checks(fleet, calls, seed, work, tally, rows) -> None:
    """PER 0 replays of the cycle's first scenario, one per estimator."""
    for estimator in REPLAY_ESTIMATORS:
        replay_once(fleet, (calls[0][0], estimator, 0.0), seed, work / "zero-loss.csv", tally, rows, None,
                    zero_loss=True, label="run --per 0.0")


def measure_replay(w, gens, seed, seconds, work, tally, expected) -> list[Proc]:
    """Cycle through the calls until `seconds` are used, at least one cycle plus one call.

    A call repeated in a later cycle must give the first cycle's bytes.
    """
    fleet = gens.fleet
    rows = fleet_rows(fleet)
    calls = replay_calls(w, rows, seed)
    reference = list(expected["step_logs"]) if expected else [None] * len(calls)
    procs = []
    start = time.perf_counter()
    while len(procs) <= len(calls) or time.perf_counter() - start + procs[-1].wall_s <= seconds:
        k = len(procs) % len(calls)
        proc, digest = replay_once(fleet, calls[k], seed, work / "step-log.csv", tally, rows, reference[k])
        reference[k] = reference[k] or digest
        procs.append(proc)
        gens.pace()
    if expected is None:
        replay_zero_loss_checks(fleet, calls, seed, work, tally, rows)
    return procs


# ---------------------------------------------------------------------------
# Modes.
# ---------------------------------------------------------------------------

def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def timed_run(w, seed, seconds, work, tally, expected) -> tuple[dict, dict, dict]:
    """End-to-end metrics with tracing off; returns (metrics, printed-only numbers, run sizes).

    On a shared host the same job runs up to 1.7x faster while the host's
    clock is boosted, in spells of seconds to minutes, so the median job of
    one run depends on how long those spells lasted. The p90 job is the job
    at the host's sustained clock and moves far less between runs, so the
    job metrics are p90s; the medians and p75 are printed only.
    """
    gens = FleetGen(w, seed, work, tally, expected)
    measure = measure_sweeps if w.is_sweep else measure_replay
    procs = measure(w, gens, seed, seconds, work, tally, expected)
    walls = [p.wall_s for p in procs]
    cpus = [p.cpu_s for p in procs]
    metrics = {
        "setup_s": (statistics.median(gens.walls), "s"),
        "wall_p90_s": (p90(walls), "s"),
        "cpu_p90_s": (p90(cpus), "s"),
        "peak_rss_mb": (max(p.rss_mb for p in procs), "MB"),
    }
    printed = {
        "wall_p50_s": (statistics.median(walls), "s"),
        "wall_p75_s": (statistics.quantiles(walls, n=4, method="inclusive")[2], "s"),
        "runs_per_s": (w.runs_per_job / statistics.median(walls), "runs/s"),
        "cpu_p50_s": (statistics.median(cpus), "s"),
    }
    return metrics, printed, {"gen_processes": len(gens.walls), "job_processes": len(procs)}


def traced_run(w, seed, work, tally, expected) -> tuple[dict, dict]:
    """Per-layer metrics: the job once through the CLI, then traced in-process."""
    sys.path.insert(0, str(SRC))
    import tracing

    fleet = FleetGen(w, seed, work, tally, expected).fleet
    cli_out = work / "cli-out"
    spans = WORK_ROOT / f"spans-{w.name}.jsonl"
    if w.is_sweep:
        proc, digests = sweep_once(w, fleet, seed, cli_out, tally, summary_digests(expected))
        if expected is None:
            sweep_fallback_checks(w, fleet, seed, work, tally, digests)
        values = tracing.trace_sweep(w, fleet, seed, work / "traced", cli_out, proc.wall_s, spans)
    else:
        rows = fleet_rows(fleet)
        calls = replay_calls(w, rows, seed)
        cli_out.mkdir()
        for i, call in enumerate(calls):
            replay_once(fleet, call, seed, cli_out / f"{i}.csv", tally, rows, expected and expected["step_logs"][i])
        if expected is None:
            replay_zero_loss_checks(fleet, calls, seed, work, tally, rows)
        values = tracing.trace_replay(calls, fleet, seed, work / "traced", cli_out, spans)
    values.update(tracing.setup_values(w.n_scenarios, seed, fleet, work / "traced-fleet"))
    values["cli.import_s"] = statistics.median(import_seconds(work) for _ in range(IMPORT_REPEATS))
    values["repo.src_lines"] = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))
    return tracing.with_units(values), {"gen_processes": 1, "job_processes": 1 if w.is_sweep else w.calls}


def import_seconds(work: Path) -> float:
    """Time to `import fcwsim.cli` in a fresh interpreter, measured inside it."""
    code = "import time; t = time.perf_counter(); import fcwsim.cli; print(time.perf_counter() - t)"
    done = subprocess.run([sys.executable, "-c", code], cwd=work, env=ENV, capture_output=True,
                          text=True, check=True, timeout=PROCESS_TIMEOUT_S)
    return float(done.stdout)


def record(w, seed, work) -> dict:
    """Digests of the job's outputs at one seed; sweeps run serially here."""
    tally = Tally()
    fleet = FleetGen(w, seed, work, tally, None).fleet
    entry = {"fleet": fleet_digest(fleet)}
    if w.is_sweep:
        entry.update(sweep_once(w, fleet, seed, work / "sweep-out", tally, None, jobs=1)[1] or {})
    else:
        rows = fleet_rows(fleet)
        entry["step_logs"] = [
            replay_once(fleet, call, seed, work / "step-log.csv", tally, rows, None)[1]
            for call in replay_calls(w, rows, seed)
        ]
    if tally.problems:
        raise RuntimeError("; ".join(tally.problems))
    data = load_digests() if DIGESTS.exists() else {}
    slot = data.setdefault(w.name, {"config": asdict(w), "seeds": {}})
    if slot["config"] != asdict(w):
        slot.update(config=asdict(w), seeds={})
    slot["seeds"][str(seed)] = entry
    DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return entry


def run_context(w: Workload, seed: int, trace: int) -> dict:
    return {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "sizes": {k: v for k, v in asdict(w).items() if k != "name" and v not in ("", 0)}
        | {"runs_per_job": w.runs_per_job},
    }


def print_report(w, metrics, tally, context) -> None:
    """The run context and every number, the printed-only medians included."""
    print("context " + json.dumps(context, sort_keys=True))
    aliases = ALIASES[w.is_sweep]
    for name, (value, unit) in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        print(f"{name:40s} {value:16.6f} {unit}{alias}")
    print(f"{'error_rate':40s} {tally.failed / tally.attempted:16.6f} ratio  "
          f"({tally.failed} of {tally.attempted} invocations failed)")
    for problem in tally.problems:
        print(f"FAILED {problem}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="feeds `gen --seed`, `--master-seed` and the replay order")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of a --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="write this seed's output digests to digests.json")
    return parser.parse_args(argv)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "fcwsim" / "cli.py").is_file():
        print(f"error: no fcwsim sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT))
    try:
        if args.record:
            print(json.dumps(record(w, args.seed, work), indent=2))
            return 0
        context = run_context(w, args.seed, args.trace)
        tally = Tally()
        expected = recorded(w, args.seed)
        context["recorded_digests"] = expected is not None
        printed_only = {}
        if args.trace:
            metrics, sizes = traced_run(w, args.seed, work, tally, expected)
        else:
            metrics, printed_only, sizes = timed_run(w, args.seed, args.seconds, work, tally, expected)
        context["sizes"].update(sizes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print_report(w, metrics | printed_only, tally, context)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # A terminated benchmark still stops its child process and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
