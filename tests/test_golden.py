"""Sweep output bytes pinned to committed golden files.

`tests/golden/summary.{csv,json}` were written by the scalar per-run sweep
(before the batched kernel replaced it) from

    fcwsim gen --n 6 --seed 2
    fcwsim sweep --estimators cv,ca,kalman --per 0.0:1.0:0.1 --seeds 3
                 --kalman-q 10 --kalman-r 1e-4 --length-offset 0.5

Any change to the sweep that moves a single output byte fails here.
"""

from pathlib import Path

from fcwsim.cli import main

GOLDEN = Path(__file__).parent / "golden"


def test_sweep_matches_golden_bytes(tmp_path):
    fleet_dir, out = tmp_path / "fleet", tmp_path / "out"
    assert main(["gen", "--n", "6", "--seed", "2", "--out", str(fleet_dir)]) == 0
    assert main([
        "sweep", "--fleet", str(fleet_dir), "--estimators", "cv,ca,kalman",
        "--per", "0.0:1.0:0.1", "--seeds", "3", "--kalman-q", "10", "--kalman-r", "1e-4",
        "--length-offset", "0.5", "--out", str(out),
    ]) == 0
    for name in ("summary.csv", "summary.json"):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), f"{name} differs from golden"
