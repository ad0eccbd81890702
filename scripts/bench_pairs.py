"""Paired timing of `fcwsim sweep` for two source trees; writes a BENCH_<n>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json

PARENT and CHANGE are repository roots whose `src/` holds the fcwsim
package. Every timed job is a fresh `python -m fcwsim.cli` process (with
the workers it reaps), and the two trees run alternately for PAIRS pairs:
pair i runs the parent first for odd i, the change first for even i. The
jobs:

  - grid-full: `sweep --estimators cv,ca,kalman --per 0.0:0.9:0.1 --seeds 1`
    on `gen --n 20` (fleet built once, untimed);
  - deadreckon-par: `sweep --estimators cv,ca --per 0.5:0.9:0.1 --seeds 2
    --jobs 2` on `gen --n 100` (fleet built once, untimed);
  - default: `gen --n 100 --seed 0` plus the default `sweep`, both timed.

Each job's summary files must be byte-identical between the trees, and
so must the step logs of a few untimed `run` calls (RUNS, covering every
estimator) on the default job's fleet. The JSON holds, per job and tree,
the median and quartiles of wall and CPU seconds and every run, the pairs
the change won, `nproc`, the Python and numpy versions and each tree's
`src/fcwsim` line count. Stdout gets one line per job: both trees'
median CPU seconds, the pairs the change won and the line counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SWEEP_GRID = ["--estimators", "cv,ca,kalman", "--per", "0.0:0.9:0.1", "--seeds", "1", "--jobs", "1"]
SWEEP_DEADRECKON = ["--estimators", "cv,ca", "--per", "0.5:0.9:0.1", "--seeds", "2", "--jobs", "2"]
JOBS = {  # name: (fleet size, whether `gen` is timed, sweep flags)
    "grid-full": (20, False, SWEEP_GRID),
    "deadreckon-par": (100, False, SWEEP_DEADRECKON),
    "default": (100, True, []),
}
PAIRS = 10  # a gain counts when the change wins 9 of 10 pairs
RUNS = [  # untimed `run` calls on the default fleet, whose step logs must match
    ["--scenario", "s0011", "--estimator", "kalman", "--per", "0.2", "--seed", "3"],
    ["--scenario", "s0042", "--estimator", "kalman", "--per", "0.9", "--seed", "1"],
    ["--scenario", "s0042", "--estimator", "ca", "--per", "0.9", "--seed", "1"],
    ["--scenario", "s0042", "--estimator", "cv", "--per", "0.9", "--seed", "1"],
]


def cli(tree: Path, args: list[str]) -> tuple[float, float]:
    """Run `fcwsim <args>` from `tree`'s sources; returns (wall, CPU) seconds."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "fcwsim.cli", *args], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{tree}: fcwsim {' '.join(args)} failed")
    return wall, usage.ru_utime + usage.ru_stime


def job(tree: Path, work: Path, name: str) -> tuple[float, float]:
    """One timed run of a job; its summary lands in work/<name>-out."""
    n, gen_timed, flags = JOBS[name]
    fleet, out = work / f"{name}-fleet", work / f"{name}-out"
    shutil.rmtree(out, ignore_errors=True)
    wall = cpu = 0.0
    if gen_timed or not fleet.exists():
        shutil.rmtree(fleet, ignore_errors=True)
        wall, cpu = cli(tree, ["gen", "--n", str(n), "--seed", "0", "--out", str(fleet)])
        if not gen_timed:
            wall = cpu = 0.0
    sweep_wall, sweep_cpu = cli(tree, ["sweep", "--fleet", str(fleet), *flags, "--out", str(out)])
    return wall + sweep_wall, cpu + sweep_cpu


def check_step_logs(trees: dict[str, Path], work: dict[str, Path]) -> None:
    """Run each of RUNS from both trees on their default fleets; their step logs must be equal."""
    for flags in RUNS:
        logs = []
        for side, tree in trees.items():
            log = work[side] / "step_log.csv"
            cli(tree, ["run", "--fleet", str(work[side] / "default-fleet"), *flags, "--out", str(log)])
            logs.append(log.read_bytes())
        if logs[0] != logs[1]:
            raise RuntimeError(f"run {' '.join(flags)}: step log differs between the trees")


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times = {name: {side: ([], []) for side in trees} for name in JOBS}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        work = {side: Path(tmp) / side for side in trees}
        for path in work.values():
            path.mkdir()
        for i in range(1, PAIRS + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for name in JOBS:
                for side in order:
                    wall, cpu = job(trees[side], work[side], name)
                    times[name][side][0].append(wall)
                    times[name][side][1].append(cpu)
                for summary in ("summary.csv", "summary.json"):
                    a, b = (work[side] / f"{name}-out" / summary for side in trees)
                    if a.read_bytes() != b.read_bytes():
                        raise RuntimeError(f"{name}: {summary} differs between the trees")
            print(f"pair {i}/{PAIRS} done", file=sys.stderr)
        check_step_logs(trees, work)
    numpy_version = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                   capture_output=True, text=True, check=True).stdout.strip()
    result = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version},
        "pairs": PAIRS,
        "src_lines": {side: sum(len(p.read_text().splitlines()) for p in (tree / "src" / "fcwsim").glob("*.py"))
                      for side, tree in trees.items()},
        "jobs": {
            name: {
                "flags": JOBS[name][2],
                "n_scenarios": JOBS[name][0],
                "gen_timed": JOBS[name][1],
                **{side: {"wall_s": spread(t[0]), "cpu_s": spread(t[1])} for side, t in sides.items()},
                "change_wins": {metric: sum(c < p for p, c in zip(sides["parent"][m], sides["change"][m]))
                                for m, metric in enumerate(("wall_s", "cpu_s"))},
            }
            for name, sides in times.items()
        },
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    lines = result["src_lines"]
    for name, r in result["jobs"].items():
        print(f"{name}: CPU median {r['parent']['cpu_s']['median']:.3f} -> {r['change']['cpu_s']['median']:.3f} s, "
              f"change wins {r['change_wins']['cpu_s']}/{PAIRS}, src_lines {lines['parent']} -> {lines['change']}")


if __name__ == "__main__":
    main()
