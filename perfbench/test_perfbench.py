"""Tests of the benchmark itself, at toy size.

Run with `python3 -m pytest perfbench -q` from the repository root; the
repository's own test suite does not collect this file.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

TOY = {
    "grid-full": run.Workload("grid-full", n_scenarios=3, per="0.0:0.9:0.1"),
    "deadreckon-par": run.Workload("deadreckon-par", n_scenarios=3, estimators="cv,ca", per="0.5:0.9:0.1", jobs=2),
    "replay": run.Workload("replay", n_scenarios=3, calls=4),
}


@pytest.fixture(autouse=True)
def toy_sizes(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", TOY)
    monkeypatch.setattr(run, "SETUP_MIN", 2)
    monkeypatch.setattr(run, "IMPORT_REPEATS", 1)


def bench(capsys, workload: str, trace: int = 0) -> tuple[int, dict, str]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace)])
    out = capsys.readouterr().out
    return code, json.loads(out.splitlines()[-1]), out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TOY))
def test_every_declared_metric_is_emitted(capsys, workload, trace):
    code, result, out = bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert "error_rate" in out and '"nproc"' in out and '"loadavg_start"' in out
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        for alias in run.ALIASES[TOY[workload].is_sweep].values():
            assert alias in out


def test_traced_sweep_accounts_for_run_cell_wall(capsys):
    _, result, _ = bench(capsys, "grid-full", trace=1)
    m = {name: v["value"] for name, v in result["metrics"].items()}
    children = sum(m[f"estimators.{k}.busy_s"] for k in ("cv", "ca", "kalman")) + sum(
        m[name] for name in ("harness.derive_seed.busy_s", "channel.transmit.busy_s",
                             "camp_linear.evaluate.busy_s", "metrics.aggregate.busy_s"))
    run_cell = sum(m[f"harness.run_cell.{k}.busy_s"] for k in ("cv", "ca", "kalman"))
    assert children + m["harness.self_s"] == pytest.approx(run_cell)
    assert m["estimators.kalman.predicts"] == 3 * 10 * 150
    assert m["camp_linear.evaluate.calls"] == 3 * 3 * 10 * 151


def tamper_after(monkeypatch, command: str, relative_out) -> None:
    """Make every `command` invocation append a line to its output."""
    real = run.run_cli

    def tampering(args, cwd):
        proc = real(args, cwd)
        if args[0] == command:
            out = Path(args[args.index("--out") + 1])
            with (out / relative_out if relative_out else out).open("a", encoding="utf-8") as handle:
                handle.write("tampered\n")
        return proc

    monkeypatch.setattr(run, "run_cli", tampering)


@pytest.mark.parametrize("workload,command,output", [
    ("grid-full", "sweep", "summary.csv"),
    ("deadreckon-par", "sweep", "summary.json"),
    ("replay", "run", None),
])
def test_tampered_output_raises_error_rate(capsys, monkeypatch, workload, command, output):
    tamper_after(monkeypatch, command, output)
    code, result, out = bench(capsys, workload)
    assert code == 0
    assert not result["correct"]
    assert result["failed"] >= 1
    assert "FAILED" in out


def test_recorded_digest_mismatch_fails(capsys, monkeypatch):
    monkeypatch.setattr(run, "recorded", lambda w, seed: {
        "fleet": "0" * 64, "summary.csv": "0" * 64, "summary.json": "0" * 64,
    })
    _, result, _ = bench(capsys, "grid-full")
    assert result["failed"] == result["attempted"]


def test_unfaithful_replay_stops_the_traced_run(capsys, monkeypatch):
    sys.path.insert(0, str(run.SRC))
    import tracing
    from fcwsim import metrics

    monkeypatch.setattr(tracing, "_confusion", lambda truth, decisions: metrics.ConfusionCounts(ch=1))
    with pytest.raises(tracing.Unfaithful):
        run.main(["--workload", "grid-full", "--seed", "3", "--trace", "1"])
    assert not capsys.readouterr().out.strip()


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
