"""Fleet and sweep output bytes pinned to committed golden files.

`tests/golden/summary.{csv,json}` were written by the scalar per-run sweep
(before the batched kernel replaced it) from

    fcwsim gen --n 6 --seed 2
    fcwsim sweep --estimators cv,ca,kalman --per 0.0:1.0:0.1 --seeds 3
                 --kalman-q 10 --kalman-r 1e-4 --length-offset 0.5

`tests/golden/fleets.json` holds the SHA-256 of every file two `gen`
invocations wrote before traces were held as arrays, keyed by their
arguments. `tests/golden/step_logs.json` holds the SHA-256 of the step log
of `run` on the same fleet, keyed by its arguments, one per estimator and
one tuned Kalman run, written before the scalar and batched Kalman filter
became one. Any change that moves a single output byte fails here.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fcwsim
from fcwsim.cli import main
from fcwsim.scenarios import load_fleet, save_fleet

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_SWEEP = ["--estimators", "cv,ca,kalman", "--per", "0.0:1.0:0.1", "--seeds", "3",
                "--kalman-q", "10", "--kalman-r", "1e-4", "--length-offset", "0.5"]

STEP_LOG_DIGESTS = json.loads((GOLDEN / "step_logs.json").read_text())


def _assert_golden_summaries(out):
    for name in ("summary.csv", "summary.json"):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), f"{name} differs from golden"


def test_sweep_matches_golden_bytes(tmp_path):
    fleet_dir, out = tmp_path / "fleet", tmp_path / "out"
    assert main(["gen", "--n", "6", "--seed", "2", "--out", str(fleet_dir)]) == 0
    assert main(["sweep", "--fleet", str(fleet_dir), *GOLDEN_SWEEP, "--out", str(out)]) == 0
    _assert_golden_summaries(out)


def _step_log_digests(cli, fleet_dir, tmp_path):
    """SHA-256 of the step log of each golden `run` command, run by `cli(argv)`."""
    logs, log = {}, tmp_path / "step_log.csv"
    for command in STEP_LOG_DIGESTS:
        cli([*shlex.split(command), "--fleet", str(fleet_dir), "--out", str(log)])
        logs[command] = hashlib.sha256(log.read_bytes()).hexdigest()
    return logs


def test_run_matches_golden_step_log_bytes(tmp_path):
    def cli(argv):
        assert main(argv) == 0

    fleet_dir = tmp_path / "fleet"
    cli(["gen", "--n", "6", "--seed", "2", "--out", str(fleet_dir)])
    assert _step_log_digests(cli, fleet_dir, tmp_path) == STEP_LOG_DIGESTS


def _fresh_env(**overrides):
    """This environment with fcwsim importable, OPENBLAS_NUM_THREADS unset, then `overrides` applied."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    paths = [str(Path(fcwsim.__file__).parents[1]), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return {**env, **overrides}


def test_fresh_cli_processes_match_golden_bytes(tmp_path):
    """In-process tests import numpy before fcwsim.cli, so only a fresh process runs with the CLI's BLAS setting."""
    def cli(argv):
        subprocess.run([sys.executable, "-m", "fcwsim.cli", *argv], env=_fresh_env(), check=True,
                       stdout=subprocess.DEVNULL)

    fleet_dir, out = tmp_path / "fleet", tmp_path / "out"
    cli(["gen", "--n", "6", "--seed", "2", "--out", str(fleet_dir)])
    cli(["sweep", "--fleet", str(fleet_dir), *GOLDEN_SWEEP, "--out", str(out)])
    _assert_golden_summaries(out)
    assert _step_log_digests(cli, fleet_dir, tmp_path) == STEP_LOG_DIGESTS


def test_cli_defaults_blas_threads_before_numpy_loads_and_keeps_a_user_value():
    check = ("import os, sys; import fcwsim; numpy_loaded = 'numpy' in sys.modules; "
             "import fcwsim.cli; print(numpy_loaded, os.environ['OPENBLAS_NUM_THREADS'])")
    for env, expected in ((_fresh_env(), "1"), (_fresh_env(OPENBLAS_NUM_THREADS="2"), "2")):
        printed = subprocess.run([sys.executable, "-c", check], env=env, check=True,
                                 capture_output=True, text=True).stdout
        assert printed == f"False {expected}\n"


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
