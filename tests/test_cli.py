"""CLI subcommands, flag parsing, and exit codes."""

import json

import pytest

from fcwsim.cli import main, parse_estimators, parse_per_grid
from fcwsim.errors import ConfigError
from fcwsim.estimators import EstimatorKind


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


def test_run_rate_flag_must_match_fleet(tmp_path, fleet_dir):
    out = tmp_path / "log.csv"
    args = ["run", "--fleet", str(fleet_dir), "--scenario", "s0000",
            "--estimator", "cv", "--per", "0.1", "--out", str(out)]
    assert main(args + ["--rate", "10"]) == 0
    assert main(args + ["--rate", "5"]) == 2


def test_run_config_errors(tmp_path, fleet_dir, capsys):
    out = str(tmp_path / "log.csv")
    base = ["run", "--fleet", str(fleet_dir), "--out", out, "--per", "0.3"]
    assert main(base + ["--scenario", "nope", "--estimator", "cv"]) == 2
    assert capsys.readouterr().err == (
        "error: scenario 'nope' not in fleet (ids: ['s0000', 's0001', 's0002', 's0003']...)\n")
    assert main(base + ["--scenario", "s0000", "--estimator", "ukf"]) == 2
    assert main([
        "run", "--fleet", str(fleet_dir), "--scenario", "s0000",
        "--estimator", "cv", "--per", "1.5", "--out", out,
    ]) == 2
    sweep = ["sweep", "--fleet", str(fleet_dir), "--per", "0.5", "--seeds", "1", "--out", str(tmp_path / "sweep")]
    for bad in (["--td", "-1"], ["--eps-v", "0"], ["--min-decel", "nan"],
                ["--length-offset", "inf"], ["--rate", "nan"]):
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


def test_sweep_rejects_duplicate_ids_as_parse_error(tmp_path, fleet_dir):
    manifest = json.loads((fleet_dir / "manifest.json").read_text())
    manifest["scenarios"][1]["id"] = manifest["scenarios"][0]["id"]
    (fleet_dir / "manifest.json").write_text(json.dumps(manifest))
    assert main(["sweep", "--fleet", str(fleet_dir), "--per", "0.0", "--seeds", "1",
                 "--out", str(tmp_path / "out")]) == 3
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


def test_gen_rejects_bad_config(tmp_path):
    assert main(["gen", "--n", "0", "--out", str(tmp_path / "f")]) == 2
    assert main(["gen", "--n", "2", "--decel=-2:3", "--out", str(tmp_path / "f")]) == 2
    # leading-dash range without '=' is an argparse-level error, still exit 2
    assert main(["gen", "--n", "2", "--decel", "-2:3", "--out", str(tmp_path / "f")]) == 2
    for bad in (["--duration", "nan"], ["--duration", "inf"], ["--seed", "-1"]):
        assert main(["gen", "--n", "2", *bad, "--out", str(tmp_path / "f")]) == 2
