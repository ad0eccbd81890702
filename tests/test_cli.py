"""CLI subcommands, flag parsing, and exit codes."""

import gc
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fcwsim
from fcwsim.camp_linear import CampParams
from fcwsim.cli import _camp_from, _kalman_from, build_parser, main, parse_estimators, parse_per_grid
from fcwsim.errors import ConfigError
from fcwsim.estimators import EstimatorKind, KalmanConfig
from fcwsim.harness import RunConfig
from fcwsim.scenarios import GenConfig, ScenarioTrace, generate_fleet, save_fleet
from tracebuild import fast_follower_trace, lv_jump_trace


@pytest.fixture()
def fleet_dir(tmp_path):
    out = tmp_path / "fleet"
    assert main(["gen", "--n", "4", "--seed", "7", "--out", str(out)]) == 0
    return out


def test_parse_per_grid_colon_form():
    grid = parse_per_grid("0.1:0.9:0.1")
    assert grid == tuple(round(0.1 * i, 10) for i in range(1, 10))
    assert parse_per_grid("0.5:0.5:0.1") == (0.5,)


def test_parse_per_grid_list_form():
    assert parse_per_grid("0.3") == (0.3,)
    assert parse_per_grid("0.1,0.5,0.9") == (0.1, 0.5, 0.9)


def test_parse_per_grid_list_entries_are_used_as_given():
    assert parse_per_grid("0.0512345678912,1e-11,0.5") == (0.0512345678912, 1e-11, 0.5)


def test_parse_per_grid_errors():
    for bad in ("0.1:0.9", "0.9:0.1:0.1", "0.1:0.9:0", "a,b", "nan:1:0.1", "0:inf:0.1", "0:1:nan"):
        with pytest.raises(ConfigError):
            parse_per_grid(bad)


def test_parse_estimators():
    assert parse_estimators("cv,ca,kalman") == (
        EstimatorKind.CONSTANT_VELOCITY,
        EstimatorKind.CONSTANT_ACCELERATION,
        EstimatorKind.KALMAN,
    )
    with pytest.raises(ConfigError):
        parse_estimators("cv,ekf")


def test_gen_writes_fleet(fleet_dir):
    manifest = json.loads((fleet_dir / "manifest.json").read_text())
    assert len(manifest["scenarios"]) == 4
    assert manifest["t_s"] == 0.1
    for entry in manifest["scenarios"]:
        assert (fleet_dir / entry["file"]).exists()


def test_run_writes_step_log(tmp_path, fleet_dir):
    out = tmp_path / "log.csv"
    code = main([
        "run", "--fleet", str(fleet_dir), "--scenario", "s0001",
        "--estimator", "ca", "--per", "0.3", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("step,t,delivered")
    assert len(lines) == 152  # 151 steps + header


def test_run_rate_flag_must_match_fleet(tmp_path, fleet_dir, capsys):
    # the fleet's time column is the only statement of its period: run and sweep take no --rate
    run = ["run", "--fleet", str(fleet_dir), "--scenario", "s0000",
           "--estimator", "cv", "--per", "0.1", "--out", str(tmp_path / "log.csv")]
    sweep = ["sweep", "--fleet", str(fleet_dir), "--per", "0.1", "--seeds", "1", "--out", str(tmp_path / "sweep")]
    for args in (run, sweep):
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--rate", "10"]) == 2
        assert "unrecognized arguments: --rate 10" in capsys.readouterr().err


def test_run_config_errors(tmp_path, fleet_dir, capsys):
    out = str(tmp_path / "log.csv")
    base = ["run", "--fleet", str(fleet_dir), "--out", out, "--per", "0.3"]
    assert main(base + ["--scenario", "nope", "--estimator", "cv"]) == 2
    assert capsys.readouterr().err == (
        "error: scenario 'nope' not in fleet (ids: ['s0000', 's0001', 's0002', 's0003']...)\n")
    assert main(base + ["--scenario", "s0000", "--estimator", "ukf"]) == 2
    capsys.readouterr()
    for per in ("1.5", "nan"):
        assert main([
            "run", "--fleet", str(fleet_dir), "--scenario", "s0000",
            "--estimator", "cv", "--per", per, "--out", out,
        ]) == 2
        assert capsys.readouterr().err == f"error: packet error ratio must be in [0, 1]: {per}\n"
    sweep = ["sweep", "--fleet", str(fleet_dir), "--per", "0.5", "--seeds", "1", "--out", str(tmp_path / "sweep")]
    for bad in (["--td", "-1"], ["--eps-v", "0"], ["--min-decel", "nan"], ["--length-offset", "inf"]):
        assert main(base + ["--scenario", "s0000", "--estimator", "cv"] + bad) == 2
        assert main(sweep + bad) == 2


def test_missing_fleet_is_parse_error(tmp_path):
    code = main([
        "run", "--fleet", str(tmp_path / "nothing"), "--scenario", "s0000",
        "--estimator", "cv", "--per", "0.3", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 3


def test_corrupt_fleet_is_parse_error(tmp_path, fleet_dir):
    run = ["run", "--fleet", str(fleet_dir), "--estimator", "cv", "--per", "0.3", "--out", str(tmp_path / "x.csv")]
    sweep = ["sweep", "--fleet", str(fleet_dir), "--per", "0.0", "--seeds", "1", "--out", str(tmp_path / "out")]
    (fleet_dir / "s0000.csv").write_text("t,x_lv\n0,1\n")
    assert main(run + ["--scenario", "s0000"]) == 3
    # run parses only its own scenario's CSV; sweep parses them all
    assert main(run + ["--scenario", "s0001"]) == 0
    assert main(sweep) == 3

    # every manifest fault still fails run, whichever scenario it names
    manifest_path = fleet_dir / "manifest.json"
    manifest = manifest_path.read_text()
    entries = json.loads(manifest)["scenarios"]
    duplicate = [entries[0], entries[1], {**entries[2], "id": "s0001"}, entries[3]]
    escaping = [entries[0], entries[1], entries[2], {**entries[3], "file": "../s0003.csv"}]
    (tmp_path / "s0003.csv").write_bytes((fleet_dir / "s0003.csv").read_bytes())
    for bad in ("{not json", json.dumps({"t_s": 0.1, "scenarios": duplicate}),
                json.dumps({"t_s": 0.1, "scenarios": escaping}), json.dumps({"t_s": 0.2, "scenarios": entries})):
        manifest_path.write_text(bad)
        assert main(run + ["--scenario", "s0001"]) == 3
    manifest_path.write_text(manifest)
    assert main(run + ["--scenario", "s0001"]) == 0


def _non_utf8_fleet_args(tmp_path):
    fleet = tmp_path / "fleet"
    assert main(["gen", "--n", "2", "--seed", "0", "--out", str(fleet)]) == 0
    run = ["run", "--fleet", str(fleet), "--scenario", "s0001", "--estimator", "cv", "--per", "0.3",
           "--out", str(tmp_path / "x.csv")]
    sweep = ["sweep", "--fleet", str(fleet), "--per", "0.3", "--seeds", "1", "--out", str(tmp_path / "out")]
    return fleet, (run, sweep)


def test_non_utf8_csv_is_parse_error(tmp_path, capsys):
    fleet, commands = _non_utf8_fleet_args(tmp_path)
    lines = (fleet / "s0001.csv").read_bytes().split(b"\r\n")
    lines[5] += b"\xff"
    (fleet / "s0001.csv").write_bytes(b"\r\n".join(lines))
    for argv in commands:
        assert main(argv) == 3
        assert f"error: {fleet / 's0001.csv'}: not UTF-8 text" in capsys.readouterr().err


def test_non_utf8_manifest_is_parse_error(tmp_path, capsys):
    fleet, commands = _non_utf8_fleet_args(tmp_path)
    manifest = fleet / "manifest.json"
    manifest.write_bytes(manifest.read_bytes().replace(b'"s0000"', b'"s0000\xff"'))
    for argv in commands:
        assert main(argv) == 3
        assert f"error: {manifest}: invalid JSON" in capsys.readouterr().err


def _printed_after(tmp_path, fleet_dir, command, expression):
    """Run `command` through fcwsim.cli.main in a fresh interpreter, then print `expression`; returns the print."""
    argv = {
        "gen": ["gen", "--n", "3", "--seed", "1", "--out", str(tmp_path / "gen")],
        "run": ["run", "--fleet", str(fleet_dir), "--scenario", "s0001", "--estimator", "kalman", "--per", "0.5",
                "--out", str(tmp_path / "x.csv")],
        "sweep": ["sweep", "--fleet", str(fleet_dir), "--per", "0.5", "--seeds", "2", "--out", str(tmp_path / "out")],
    }[command]
    code = f"import sys; from fcwsim.cli import main; assert main({argv!r}) == 0; print({expression})"
    src = str(Path(fcwsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("command", ["gen", "run", "sweep"])
def test_commands_do_not_import_numpy_random(tmp_path, fleet_dir, command):
    # Scenario parameters and loss masks both come from channel's reproduction of numpy's Philox stream.
    assert _printed_after(tmp_path, fleet_dir, command, "'numpy.random' in sys.modules") == "False"


def test_gen_loads_only_the_generator(tmp_path, fleet_dir):
    # cli imports what run and sweep need where they use it.
    others = ("fcwsim.harness", "fcwsim.estimators", "fcwsim.camp_linear", "fcwsim.metrics")
    assert _printed_after(tmp_path, fleet_dir, "gen", f"[m for m in {others!r} if m in sys.modules]") == "[]"


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_callers_gc_state(tmp_path, fleet_dir, enabled):
    # Only `python -m fcwsim.cli` turns the cyclic GC off during its imports and freezes what they made.
    commands = (["gen", "--n", "2", "--out", str(tmp_path / "gen")],
                ["run", "--fleet", str(fleet_dir), "--scenario", "s0001", "--estimator", "kalman", "--per", "0.5",
                 "--out", str(tmp_path / "x.csv")],
                ["sweep", "--fleet", str(fleet_dir), "--per", "0.5", "--seeds", "2", "--out", str(tmp_path / "out")])
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        for argv in commands:
            assert main(argv) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_installed_command_starts_up_as_the_module_does(tmp_path):
    # The installed `fcwsim` script imports pyproject.toml's entry point and exits with what calling it returns.
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    module, function = re.search(r'^fcwsim = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    script = ("import atexit, gc, sys\n"
              "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0))\n"
              f"from {module} import {function}\n"
              f"sys.exit({function}())\n")
    src = str(Path(fcwsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script, "gen", "--n", "2", "--out", str(tmp_path / "gen")],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == [f"wrote 2 scenarios to {tmp_path / 'gen'}", "True True"]


def test_gen_rejects_a_seed_outside_philox_range(tmp_path, capsys):
    assert main(["gen", "--n", "2", "--seed", str(2**64), "--out", str(tmp_path / "f")]) == 2
    assert capsys.readouterr().err == f"error: generator seed must be in [0, 2**64): {2**64}\n"
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_run_and_sweep_do_not_load_openssl(tmp_path, fleet_dir, command):
    # derive_seed takes SHA-256 from the interpreter's built-in module (_sha2 or _sha256) when there
    # is one; hashlib would load OpenSSL's libcrypto through _hashlib.
    builtin_sha256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
    loaded = _printed_after(tmp_path, fleet_dir, command, "'_hashlib' in sys.modules")
    assert loaded == "False" or not builtin_sha256


def test_sweep_rejects_duplicate_ids_as_parse_error(tmp_path, fleet_dir):
    manifest = json.loads((fleet_dir / "manifest.json").read_text())
    manifest["scenarios"][1]["id"] = manifest["scenarios"][0]["id"]
    (fleet_dir / "manifest.json").write_text(json.dumps(manifest))
    assert main(["sweep", "--fleet", str(fleet_dir), "--per", "0.0", "--seeds", "1",
                 "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out").exists()


def test_fleet_timing_is_settled_at_load_time(tmp_path, fleet_dir, capsys):
    run = ["run", "--fleet", str(fleet_dir), "--scenario", "s0001", "--estimator", "cv", "--per", "0.5",
           "--out", str(tmp_path / "log.csv")]
    sweep = ["sweep", "--fleet", str(fleet_dir), "--per", "0.5", "--seeds", "2", "--out", str(tmp_path / "out")]
    csv_path = fleet_dir / "s0001.csv"
    header, *rows = csv_path.read_text().splitlines()
    # a period within 1e-9 of the manifest's loads, and sweep steps each trace at its own period
    scaled = [f"{float(t) * (1 + 5e-9)!r},{rest}" for t, rest in (row.split(",", 1) for row in rows)]
    csv_path.write_text("\n".join([header, *scaled]) + "\n")
    assert main(sweep) == 0
    assert main(run) == 0
    # a time origin off 0 would set a period other than the second timestamp
    csv_path.write_text("\n".join([header, "1e-10," + rows[0].split(",", 1)[1], *rows[1:]]) + "\n")
    capsys.readouterr()
    for args in (run, sweep):
        assert main(args) == 3
        assert "row 2: time origin must be 0, got 1e-10" in capsys.readouterr().err


def test_sweep_rejects_repeated_grid_values(tmp_path, fleet_dir, capsys):
    sweep = ["sweep", "--fleet", str(fleet_dir), "--seeds", "1", "--out", str(tmp_path / "out")]
    for grid in (
        ["--estimators", "cv,cv", "--per", "0.5"],
        ["--estimators", "cv", "--per", "0.1,0.10000000001"],
        ["--estimators", "cv", "--per", "0.1,0.1000000001"],  # distinct PERs printed alike
    ):
        assert main(sweep + grid) == 2
        assert "repeated estimator or PER" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_writes_summaries(tmp_path, fleet_dir):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--fleet", str(fleet_dir), "--estimators", "cv,ca",
        "--per", "0.2,0.8", "--seeds", "2", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 2 estimators x 2 PERs
    payload = json.loads((out / "summary.json").read_text())
    assert [c["per"] for c in payload["cells"]] == [0.2, 0.8, 0.2, 0.8]


def test_sweep_kalman_flags(tmp_path, fleet_dir):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--fleet", str(fleet_dir), "--estimators", "kalman",
        "--per", "0.5", "--seeds", "1", "--out", str(out),
        "--kalman-q", "5.0", "--kalman-r", "0.5", "--td", "1.2",
    ])
    assert code == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["config"]["kalman_q"] == 5.0
    assert payload["config"]["kalman_r"] == 0.5
    assert payload["config"]["t_d"] == 1.2


def test_run_and_sweep_defaults_are_the_config_defaults():
    # The 11 literals stay in cli.py, since gen must not load the config modules; this catches drift.
    parser = build_parser()
    run = parser.parse_args(["run", "--fleet", "f", "--scenario", "s", "--estimator", "cv", "--per", "0", "--out", "o"])
    swp = parser.parse_args(["sweep", "--fleet", "f", "--out", "o"])
    defaults = RunConfig()
    for args in (run, swp):
        assert _camp_from(args) == CampParams()
        assert _kalman_from(args) == KalmanConfig()
    assert parse_estimators(swp.estimators) == defaults.estimators
    assert parse_per_grid(swp.per) == defaults.pers
    assert (swp.seeds, swp.master_seed, run.seed) == (defaults.seeds, defaults.master_seed, defaults.master_seed)


def test_kalman_tuning_that_overflows_the_covariance_is_config_error(tmp_path, capsys):
    fleet = tmp_path / "fleet"
    assert main(["gen", "--n", "3", "--out", str(fleet)]) == 0
    sweep = ["sweep", "--fleet", str(fleet), "--estimators", "kalman", "--seeds", "5", "--out", str(tmp_path / "out")]
    run = ["run", "--fleet", str(fleet), "--scenario", "s0000", "--estimator", "kalman", "--out", str(tmp_path / "x.csv")]
    for argv in (sweep + ["--per", "0.0", "--kalman-p0", "1e308"],
                 sweep + ["--per", "0.97", "--kalman-q", "1e306"],
                 run + ["--per", "0.0", "--kalman-p0", "1e308"],
                 run + ["--per", "1.0", "--kalman-p0", "1e308"]):
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: the kalman tuning (q, r, p0) overflows the filter covariance")
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "out").exists()
    # tunings whose covariance stays finite still run
    assert main(sweep + ["--per", "0.97", "--kalman-q", "1e300"]) == 0
    assert main(sweep + ["--per", "0.0", "--kalman-p0", "5e307"]) == 0


def test_run_and_sweep_are_silent_when_the_warning_range_overflows(tmp_path, fleet_dir):
    # An FV at 1e200 m/s, or t_d = 1e200 s, makes the warning range overflow to inf. The scalar
    # path's floats do so silently, and the sweep's arrays must not print numpy's RuntimeWarnings.
    save_fleet([fast_follower_trace()], tmp_path / "fast")
    src = str(Path(fcwsim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for fleet, camp in ((tmp_path / "fast", []), (fleet_dir, ["--td", "1e200"])):
        for argv in (["sweep", "--fleet", str(fleet), "--seeds", "2", "--out", str(tmp_path / "out")],
                     ["run", "--fleet", str(fleet), "--scenario", "s0000", "--estimator", "kalman", "--per", "0.5",
                      "--out", str(tmp_path / "x.csv")]):
            done = subprocess.run([sys.executable, "-m", "fcwsim.cli", *argv, *camp], env=env, capture_output=True,
                                  text=True)
            assert (done.returncode, done.stderr) == (0, ""), argv + camp


def test_gen_rejects_bad_config(tmp_path, capsys):
    assert main(["gen", "--n", "0", "--out", str(tmp_path / "f")]) == 2
    assert main(["gen", "--n", "2", "--decel=-2:3", "--out", str(tmp_path / "f")]) == 2
    # leading-dash range without '=' is an argparse-level error, still exit 2
    assert main(["gen", "--n", "2", "--decel", "-2:3", "--out", str(tmp_path / "f")]) == 2
    for bad in (["--duration", "nan"], ["--duration", "inf"], ["--seed", "-1"]):
        assert main(["gen", "--n", "2", *bad, "--out", str(tmp_path / "f")]) == 2
    # each passes GenConfig's range checks, and none may warn on the way (warnings are errors here):
    # the number of braking steps overflows, or its divisor underflows to 0, or a position overflows
    # at the first step or during the numpy integration
    for bad in (["--speed", "1e308:1.5e308", "--headway", "2:2"],
                ["--speed", "1e200:1e200", "--decel=-1e-200:-1e-200"],
                ["--decel=-5e-324:-5e-324"],
                ["--speed", "1e308:1e308", "--headway", "2:2", "--decel=-8:-8"],
                ["--speed", "1e307:1e307", "--headway", "10:10"]):
        capsys.readouterr()
        assert main(["gen", "--n", "3", *bad, "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: GenConfig(n_scenarios=3, ") and "gives no valid fleet" in err
    assert not (tmp_path / "f").exists()


def test_unwritable_output_is_config_error(tmp_path, fleet_dir, capsys):
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    run = ["run", "--fleet", str(fleet_dir), "--scenario", "s0000", "--estimator", "cv", "--per", "0.3"]
    sweep = ["sweep", "--fleet", str(fleet_dir), "--per", "0.3", "--seeds", "1"]
    for args, out, error in ((run, tmp_path / "nodir" / "x.csv", "No such file or directory"),
                             (run, tmp_path, "Is a directory"),
                             (sweep, a_file, "File exists"),
                             (["gen", "--n", "3"], a_file, "File exists")):
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and error in err


def test_run_replays_seed_index_zero_of_sweep(tmp_path, capsys):
    fleet = tmp_path / "fleet"
    assert main(["gen", "--n", "1", "--seed", "0", "--out", str(fleet)]) == 0
    # on this scenario seed indices 0 and 1 give different error counts for both cases
    for kind, per, seed in (("cv", "0.9", 3), ("kalman", "0.5", 11)):
        capsys.readouterr()
        assert main(["run", "--fleet", str(fleet), "--scenario", "s0000", "--estimator", kind,
                     "--per", per, "--seed", str(seed), "--out", str(tmp_path / "log.csv")]) == 0
        printed = capsys.readouterr().out.strip().rstrip(")").split("(")[1]
        ch, cs, is_, ih = (int(field.split("=")[1]) for field in printed.split())
        assert 0 < ch + cs < ch + cs + is_ + ih  # some steps are wrong, so the seed shows
        assert main(["sweep", "--fleet", str(fleet), "--estimators", kind, "--per", per,
                     "--seeds", "1", "--master-seed", str(seed), "--out", str(tmp_path / "sweep")]) == 0
        cell, = json.loads((tmp_path / "sweep" / "summary.json").read_text())["cells"]
        assert cell["mean_accuracy"] == (ch + cs) / (ch + cs + is_ + ih)
        assert cell["mean_tp"] == ch / (ch + is_)


def test_run_replays_sweep_at_a_per_with_more_than_ten_decimals(tmp_path, capsys):
    # Rounding this PER to 10 decimals gives another seed key and loss mask: seed index 0 then counts (121, 29, 1, 0).
    fleet, per = tmp_path / "fleet", "0.0512345678912"
    assert main(["gen", "--n", "1", "--seed", "1", "--out", str(fleet)]) == 0
    capsys.readouterr()
    assert main(["run", "--fleet", str(fleet), "--scenario", "s0000", "--estimator", "cv", "--per", per,
                 "--seed", "1", "--out", str(tmp_path / "log.csv")]) == 0
    assert capsys.readouterr().out.endswith("(ch=122 cs=29 is=0 ih=0)\n")
    assert main(["sweep", "--fleet", str(fleet), "--estimators", "cv", "--per", per, "--seeds", "1",
                 "--master-seed", "1", "--out", str(tmp_path / "sweep")]) == 0
    cell, = json.loads((tmp_path / "sweep" / "summary.json").read_text())["cells"]
    assert (cell["per"], cell["mean_tp"], cell["mean_accuracy"]) == (float(per), 1.0, 1.0)


def test_fleet_that_dead_reckons_to_overflow_is_parse_error(tmp_path, capsys):
    fleet = tmp_path / "fleet"
    assert main(["gen", "--n", "2", "--seed", "1", "--out", str(fleet)]) == 0
    path = fleet / "s0001.csv"
    header, *rows = path.read_text().splitlines()
    # Every value and every x_lv - x_fv stays finite, but one lost slot dead-reckons x_lv to inf.
    rows = [",".join((t, "1.7e308", "1e308", "0", "0", v_fv, "0")) for t, *_, v_fv, _ in (row.split(",") for row in rows)]
    path.write_text("\n".join([header, *rows]) + "\n")
    run = ["run", "--fleet", str(fleet), "--scenario", "s0001", "--per", "0.5", "--out", str(tmp_path / "x.csv")]
    sweep = ["sweep", "--fleet", str(fleet), "--seeds", "1", "--per", "0.5", "--out", str(tmp_path / "out")]
    for argv in (run + ["--estimator", "cv"], run + ["--estimator", "kalman"], sweep):
        assert main(argv) == 3
        assert "s0001.csv: row 2: dead reckoning from x_lv=1.7e+308, v_lv=1e+308, a_lv=0.0" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "out").exists()


def test_fleet_that_overflows_the_kalman_filter_is_parse_error(tmp_path, capsys):
    # Each value dead-reckons within reach, but every delivered jump of 8e307 m
    # is a huge innovation, and the corrected Kalman speed overflows at step 2.
    data = np.zeros((151, 7))
    data[:, 0] = np.arange(151) * 0.1
    data[:, 1] = np.where(np.arange(151) % 2, -4e307, 4e307)
    fleet = tmp_path / "fleet"
    save_fleet([ScenarioTrace("s0000", data)], fleet)
    run = ["run", "--fleet", str(fleet), "--scenario", "s0000", "--per", "0.0", "--out", str(tmp_path / "x.csv")]
    sweep = ["sweep", "--fleet", str(fleet), "--seeds", "1", "--per", "0.0", "--out", str(tmp_path / "out")]
    for argv in (run + ["--estimator", "kalman"], sweep):
        assert main(argv) == 3
        assert capsys.readouterr().err == ("error: non-finite vehicle state estimate in steps 0-150 "
                                           "(the LV trace overflows the kalman estimator) in scenario s0000\n")
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "out").exists()
    assert main(run + ["--estimator", "cv"]) == 0
    # In a fleet of several scenarios the sweep names the one that overflows. It is not the
    # first of its (length, period) group, and its fleet index differs from its group index.
    first, second = generate_fleet(GenConfig(n_scenarios=2, seed=1))
    save_fleet([first, ScenarioTrace(second.id, second.data[:100]), ScenarioTrace("s0002", data)], tmp_path / "several")
    sweep[2] = str(tmp_path / "several")
    assert main(sweep) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite vehicle state estimate") and err.endswith(" in scenario s0002\n")
    assert not (tmp_path / "out").exists()


def test_run_and_sweep_word_a_kalman_overflow_alike(tmp_path, capsys):
    # The Kalman estimate overflows at seeds 0, 1 and 4, its gap to the FV at -4e307 m at seed 2; seed 3 runs.
    fleet = tmp_path / "fleet"
    save_fleet([lv_jump_trace("s0000", 6, 2.0, x_fv=-4e307)], fleet)
    run = ["run", "--fleet", str(fleet), "--scenario", "s0000", "--estimator", "kalman", "--per", "0.5",
           "--out", str(tmp_path / "x.csv")]
    sweep = ["sweep", "--fleet", str(fleet), "--estimators", "kalman", "--seeds", "1", "--per", "0.5",
             "--out", str(tmp_path / "out")]
    line = ("error: non-finite vehicle state estimate in steps 0-5 "
            "(the LV trace overflows the kalman estimator) in scenario s0000\n")
    for seed in range(5):
        for argv in (run + ["--seed", str(seed)], sweep + ["--master-seed", str(seed)]):
            capsys.readouterr()
            code = main(argv)
            assert (code, capsys.readouterr().err) == ((0, "") if seed == 3 else (3, line))


@pytest.mark.parametrize("trace, run_flags, sweep_flags, source", [
    # At seed 2 the Kalman position stays finite, but its gap to the FV at -4e307 m overflows at step 5.
    pytest.param(lv_jump_trace("s0000", 6, 2.0, x_fv=-4e307), ["--estimator", "kalman", "--seed", "2"],
                 ["--master-seed", "2"], "the kalman estimator", id="estimated"),
    # x_lv - x_fv is finite at every row (1, then -8e307), but -8e307 - 1e308 is not.
    pytest.param(ScenarioTrace("s0000", np.array([[0.0, 1.0, 0, 0, 0.0, 0, 0]]
                                                 + [[0.1 * k, -4e307, 0, 0, 4e307, 0, 0] for k in range(1, 6)])),
                 ["--estimator", "cv", "--length-offset=1e308"], ["--length-offset=1e308"], "the truth side", id="truth"),
])
def test_fleet_whose_gap_overflows_is_parse_error(tmp_path, capsys, trace, run_flags, sweep_flags, source):
    # The loader accepts the fleet, and the monitored gap of one side overflows in both `run` and `sweep`.
    fleet = tmp_path / "fleet"
    save_fleet([trace], fleet)
    run = ["run", "--fleet", str(fleet), "--scenario", "s0000", "--per", "0.5", "--out", str(tmp_path / "x.csv")]
    sweep = ["sweep", "--fleet", str(fleet), "--seeds", "1", "--per", "0.5", "--out", str(tmp_path / "out")]
    for argv in (run + run_flags, sweep + sweep_flags):
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == ("error: non-finite vehicle state estimate in steps 0-5 "
                                           f"(the LV trace overflows {source}) in scenario s0000\n")
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "out").exists()
    # the dead-reckoning side of each fleet, with no length offset, runs
    assert main(run + ["--estimator", "cv", "--seed", "2"]) == 0
    assert main(sweep + ["--estimators", "cv,ca"]) == 0
