"""Fleet and sweep output bytes pinned to committed golden files.

`tests/golden/summary.{csv,json}` were written by the scalar per-run sweep
(before the batched kernel replaced it) from

    fcwsim gen --n 6 --seed 2
    fcwsim sweep --estimators cv,ca,kalman --per 0.0:1.0:0.1 --seeds 3
                 --kalman-q 10 --kalman-r 1e-4 --length-offset 0.5

`tests/golden/fleets.json` holds the SHA-256 of every file two `gen`
invocations wrote before traces were held as arrays, keyed by their
arguments. Any change that moves a single output byte fails here.
"""

import hashlib
import json
import shlex
from pathlib import Path

import pytest

from fcwsim.cli import main
from fcwsim.scenarios import load_fleet, save_fleet

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


FLEET_DIGESTS = json.loads((GOLDEN / "fleets.json").read_text())


def digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("command", sorted(FLEET_DIGESTS))
def test_gen_matches_golden_bytes_and_resaves_identically(tmp_path, command):
    fleet_dir, resaved = tmp_path / "fleet", tmp_path / "resaved"
    assert main([*shlex.split(command), "--out", str(fleet_dir)]) == 0
    assert digests(fleet_dir) == FLEET_DIGESTS[command]
    save_fleet(load_fleet(fleet_dir), resaved)
    assert digests(resaved) == FLEET_DIGESTS[command]
