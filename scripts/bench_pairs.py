"""Paired timing of fcwsim jobs for two source trees; writes a BENCH_<n>.json.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json

PARENT and CHANGE are repository roots whose `src/` holds the fcwsim
package. Each `src/` is copied to `<tmp>/parent/src` and `<tmp>/change/src`,
and each side's fleets and outputs are written next to its copy: peak RSS
grows with the length of the paths a process uses, so both sides use
paths of the same length. Every timed job is a fresh `python -m fcwsim.cli`
process (with the workers it reaps), and the two trees run alternately
for PAIRS pairs:
pair i runs the parent first for odd i, the change first for even i. The
jobs:

  - grid-full: `sweep --estimators cv,ca,kalman --per 0.0:0.9:0.1 --seeds 1`
    on `gen --n 20` (fleet built once, untimed);
  - deadreckon-par: `sweep --estimators cv,ca --per 0.5:0.9:0.1 --seeds 2
    --jobs 2` on `gen --n 100` (fleet built once, untimed);
  - default: `gen --n 100 --seed 0` plus the default `sweep`, both timed;
  - run: one `run` call on `gen --n 100` (fleet built once, untimed), as
    the benchmark's replay workload makes them;
  - gen: `gen --n 20 --seed 0` alone, timed, the benchmark's `grid-full`
    set-up.

Each job's fleet and outputs (summary files, or the step log) must be
byte-identical between the trees, and so must the step logs of a few
untimed `run` calls (RUNS, covering every estimator) on the default
job's fleet. The JSON holds, per job and tree, the median and quartiles
of wall and CPU seconds and of peak RSS (`ru_maxrss`, in MB) and every
run, the pairs the change won, `nproc`, the Python and numpy versions
and each tree's `src/fcwsim` line count. Stdout gets one line per job:
both trees' median CPU seconds and peak RSS, the pairs the change won on
each, and the line counts.
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
RUN = ["--scenario", "s0042", "--estimator", "kalman", "--per", "0.9", "--seed", "1"]
JOBS = {  # name: (fleet size, whether `gen` is timed, the timed command after it, if any)
    "grid-full": (20, False, ["sweep", *SWEEP_GRID]),
    "deadreckon-par": (100, False, ["sweep", *SWEEP_DEADRECKON]),
    "default": (100, True, ["sweep"]),
    "run": (100, False, ["run", *RUN]),
    "gen": (20, True, []),
}
OUTPUTS = {"sweep": ("summary.csv", "summary.json"), "run": ("step_log.csv",)}  # compared between the trees
PAIRS = 10  # a gain counts when the change wins 9 of 10 pairs
METRICS = ("wall_s", "cpu_s", "peak_rss_mb")
RUNS = [  # untimed `run` calls on the default fleet, whose step logs must match
    ["--scenario", "s0011", "--estimator", "kalman", "--per", "0.2", "--seed", "3"],
    ["--scenario", "s0042", "--estimator", "kalman", "--per", "0.9", "--seed", "1"],
    ["--scenario", "s0042", "--estimator", "ca", "--per", "0.9", "--seed", "1"],
    ["--scenario", "s0042", "--estimator", "cv", "--per", "0.9", "--seed", "1"],
]


def cli(tree: Path, args: list[str]) -> tuple[float, float, float]:
    """Run `fcwsim <args>` from `tree`'s sources; returns wall and CPU seconds and peak RSS in MB."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "fcwsim.cli", *args], env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{tree}: fcwsim {' '.join(args)} failed")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def job(tree: Path, name: str) -> tuple[float, float, float]:
    """One timed run of a job; its fleet is tree/<name>-fleet and its outputs land in tree/<name>-out."""
    n, gen_timed, timed = JOBS[name]
    fleet, out = tree / f"{name}-fleet", tree / f"{name}-out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    gen = (0.0, 0.0, 0.0)
    if gen_timed or not fleet.exists():
        shutil.rmtree(fleet, ignore_errors=True)
        built = cli(tree, ["gen", "--n", str(n), "--seed", "0", "--out", str(fleet)])
        if gen_timed:
            gen = built
    if not timed:
        return gen
    command, *flags = timed
    target = out / OUTPUTS["run"][0] if command == "run" else out
    wall, cpu, rss = cli(tree, [command, "--fleet", str(fleet), *flags, "--out", str(target)])
    return gen[0] + wall, gen[1] + cpu, max(gen[2], rss)


def outputs(tree: Path, name: str) -> dict[str, bytes]:
    """A job's fleet files and outputs, by path relative to tree."""
    timed = JOBS[name][2]
    files = sorted((tree / f"{name}-fleet").iterdir())
    if timed:
        files += [tree / f"{name}-out" / output for output in OUTPUTS[timed[0]]]
    return {str(path.relative_to(tree)): path.read_bytes() for path in files}


def check_step_logs(trees: dict[str, Path]) -> None:
    """Run each of RUNS from both trees on their default fleets; their step logs must be equal."""
    for flags in RUNS:
        logs = []
        for tree in trees.values():
            log = tree / "step_log.csv"
            cli(tree, ["run", "--fleet", str(tree / "default-fleet"), *flags, "--out", str(log)])
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
    sources = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    times = {name: {side: ([], [], []) for side in sources} for name in JOBS}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in sources}
        for side, tree in trees.items():
            shutil.copytree(sources[side] / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        for i in range(1, PAIRS + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for name in JOBS:
                for side in order:
                    for values, value in zip(times[name][side], job(trees[side], name)):
                        values.append(value)
                a, b = (outputs(tree, name) for tree in trees.values())
                if a != b:
                    differ = sorted(path for path in a.keys() | b.keys() if a.get(path) != b.get(path))
                    raise RuntimeError(f"{name}: {', '.join(differ)} differ between the trees")
            print(f"pair {i}/{PAIRS} done", file=sys.stderr)
        check_step_logs(trees)
    numpy_version = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                   capture_output=True, text=True, check=True).stdout.strip()
    result = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version},
        "pairs": PAIRS,
        "src_lines": {side: sum(len(p.read_text().splitlines()) for p in (tree / "src" / "fcwsim").glob("*.py"))
                      for side, tree in sources.items()},
        "jobs": {
            name: {
                "command": JOBS[name][2],
                "n_scenarios": JOBS[name][0],
                "gen_timed": JOBS[name][1],
                **{side: dict(zip(METRICS, map(spread, t))) for side, t in sides.items()},
                "change_wins": {metric: sum(c < p for p, c in zip(sides["parent"][m], sides["change"][m]))
                                for m, metric in enumerate(METRICS)},
            }
            for name, sides in times.items()
        },
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    lines = result["src_lines"]
    for name, r in result["jobs"].items():
        print(f"{name}: CPU median {r['parent']['cpu_s']['median']:.3f} -> {r['change']['cpu_s']['median']:.3f} s, "
              f"change wins {r['change_wins']['cpu_s']}/{PAIRS}, peak RSS median "
              f"{r['parent']['peak_rss_mb']['median']:.2f} -> {r['change']['peak_rss_mb']['median']:.2f} MB, "
              f"change wins {r['change_wins']['peak_rss_mb']}/{PAIRS}, "
              f"src_lines {lines['parent']} -> {lines['change']}")


if __name__ == "__main__":
    main()
