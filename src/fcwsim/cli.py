"""Command-line front end.

Subcommands:
  gen    sample a synthetic braking-conflict fleet to CSV + manifest
  run    replay one scenario at a fixed PER and write the per-step log
  sweep  run the full estimator x PER grid and write summary CSV + JSON

Exit codes: 0 success, 2 configuration error or unwritable output, 3 input
parse error.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

# numpy's OpenBLAS starts a thread per core at import; the only BLAS calls here are the Kalman correction's 2x2
# products, which it never splits.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Run as a program, the cyclic GC stays off while numpy loads, and the objects made so far (tens of thousands,
# nearly all alive until exit) are then frozen, so neither the collections during the job nor the one at
# interpreter exit walk them. A caller that imports this module keeps its own gc state.
if __name__ == "__main__":
    gc.disable()

from .errors import ConfigError, TraceFormatError
from .scenarios import GenConfig, generate_fleet, load_fleet, load_scenario, save_fleet

if __name__ == "__main__":
    gc.freeze()
    gc.enable()

# run and sweep import the estimators, CAMP Linear and the harness where they use them, so gen never loads them.
if TYPE_CHECKING:
    from .camp_linear import CampParams
    from .estimators import EstimatorKind, KalmanConfig


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"non-numeric range {text!r}") from exc


def parse_per_grid(text: str) -> tuple[float, ...]:
    """PER grid: either 'start:stop:step' (inclusive) or 'p1,p2,...'.

    A grid's points are rounded to 10 decimals, which undoes the float
    error that start + i*step accumulates; list entries are used as given,
    so `run --per P` replays the `sweep --per P` runs for every P.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"PER grid must be START:STOP:STEP, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError as exc:
            raise ConfigError(f"non-numeric PER grid {text!r}") from exc
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0.0 or stop < start:
            raise ConfigError(f"invalid PER grid {text!r}")
        count = int(round((stop - start) / step))
        values = tuple(round(start + i * step, 10) for i in range(count + 1))
        return tuple(v for v in values if v <= stop + 1e-12)
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"non-numeric PER list {text!r}") from exc


def parse_estimators(text: str) -> tuple[EstimatorKind, ...]:
    from .estimators import EstimatorKind

    kinds = []
    for name in text.split(","):
        name = name.strip().lower()
        try:
            kinds.append(EstimatorKind(name))
        except ValueError:
            valid = ", ".join(k.value for k in EstimatorKind)
            raise ConfigError(f"unknown estimator {name!r} (choose from: {valid})") from None
    return tuple(kinds)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--td", type=float, default=1.6, help="driver+brake reaction time, s (default 1.6)")
    parser.add_argument("--kalman-q", type=float, default=1.0, help="Kalman process-noise intensity (default 1.0)")
    parser.add_argument("--kalman-r", type=float, default=0.01, help="Kalman measurement variance, m^2 (default 0.01)")
    parser.add_argument("--kalman-p0", type=float, default=1.0, help="Kalman initial covariance scale (default 1.0)")
    parser.add_argument("--eps-v", type=float, default=0.5, help="LV stationary threshold, m/s (default 0.5)")
    parser.add_argument("--min-decel", type=float, default=0.1, help="deceleration magnitude floor, m/s^2 (default 0.1)")
    parser.add_argument("--length-offset", type=float, default=0.0,
                        help="subtracted from the center-to-center gap, m (default 0)")


def _camp_from(args) -> CampParams:
    from .camp_linear import CampParams

    return CampParams(t_d=args.td, eps_v=args.eps_v, min_decel=args.min_decel,
                      length_offset=args.length_offset)


def _kalman_from(args) -> KalmanConfig:
    from .estimators import KalmanConfig

    return KalmanConfig(q=args.kalman_q, r=args.kalman_r, p0=args.kalman_p0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fcwsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    g = GenConfig  # gen's defaults; run's and sweep's stay literals: their config classes live in modules gen never loads
    gen = sub.add_parser("gen", help="generate a synthetic scenario fleet")
    gen.add_argument("--n", type=int, default=g.n_scenarios, help=f"number of scenarios (default {g.n_scenarios})")
    gen.add_argument("--seed", type=int, default=g.seed, help=f"generator seed (default {g.seed})")
    gen.add_argument("--out", required=True, help="output fleet directory")
    for flag, (lo, hi), what in (("--speed", g.speed_range, "cruise speed range, m/s"),
                                 ("--headway", g.headway_range, "initial time headway range, s"),
                                 ("--decel", g.decel_range, "LV braking deceleration range, m/s^2; pass as --decel={}"),
                                 ("--onset", g.onset_range, "brake onset time range, s")):
        span = f"{lo:g}:{hi:g}"
        gen.add_argument(flag, type=_parse_range, default=(lo, hi), metavar="LO:HI",
                         help=f"{what.format(span)} (default {span})")
    gen.add_argument("--duration", type=float, default=g.duration, help=f"scenario length, s (default {g.duration:g})")
    gen.add_argument("--rate", type=float, default=1 / g.t_s, help=f"sample rate, Hz (default {1 / g.t_s:g})")

    run = sub.add_parser("run", help="replay one scenario and write the step log")
    run.add_argument("--fleet", required=True, help="fleet directory (from gen)")
    run.add_argument("--scenario", required=True, help="scenario id from the fleet manifest")
    run.add_argument("--estimator", required=True, help="cv, ca, or kalman")
    run.add_argument("--per", type=float, required=True, help="packet error ratio in [0, 1]")
    run.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    run.add_argument("--out", required=True, help="output step-log CSV path")
    _add_common_flags(run)

    swp = sub.add_parser("sweep", help="run the estimator x PER grid")
    swp.add_argument("--fleet", required=True, help="fleet directory (from gen)")
    swp.add_argument("--estimators", default="cv,ca,kalman", help="comma list (default cv,ca,kalman)")
    swp.add_argument("--per", default="0.1:0.9:0.1", help="grid START:STOP:STEP or comma list (default 0.1:0.9:0.1)")
    swp.add_argument("--seeds", type=int, default=20, help="loss realizations per scenario (default 20)")
    swp.add_argument("--master-seed", type=int, default=0, help="sweep master seed (default 0)")
    swp.add_argument("--jobs", type=int, default=1,
                     help="accepted for compatibility; has no effect (a sweep runs in one process)")
    swp.add_argument("--out", required=True, help="output directory for summary.csv / summary.json")
    _add_common_flags(swp)
    return parser


def _cmd_gen(args) -> int:
    cfg = GenConfig(
        n_scenarios=args.n,
        speed_range=args.speed,
        headway_range=args.headway,
        decel_range=args.decel,
        onset_range=args.onset,
        duration=args.duration,
        t_s=1.0 / args.rate if args.rate > 0 else 0.0,
        seed=args.seed,
    )
    traces = generate_fleet(cfg)
    manifest = save_fleet(traces, args.out)
    print(f"wrote {len(traces)} scenarios to {manifest.parent}")
    return 0


def _cmd_run(args) -> int:
    from .harness import derive_seed, run_scenario, write_step_log

    trace = load_scenario(args.fleet, args.scenario)
    kinds = parse_estimators(args.estimator)
    if len(kinds) != 1:
        raise ConfigError(f"run takes exactly one estimator, got {args.estimator!r}")
    kind = kinds[0]
    seed = derive_seed(args.seed, trace.id, args.per, 0)
    log, counts = run_scenario(trace, kind, args.per, seed, _camp_from(args), _kalman_from(args))
    write_step_log(log, args.out)
    print(f"wrote {len(log)} steps to {args.out} "
          f"(ch={counts.ch} cs={counts.cs} is={counts.is_} ih={counts.ih})")
    return 0


def _cmd_sweep(args) -> int:
    from .harness import RunConfig, sweep, write_summary_csv, write_summary_json

    fleet = load_fleet(args.fleet)
    cfg = RunConfig(
        estimators=parse_estimators(args.estimators),
        pers=parse_per_grid(args.per),
        seeds=args.seeds,
        camp=_camp_from(args),
        kalman=_kalman_from(args),
        master_seed=args.master_seed,
    )
    cells = sweep(fleet, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_summary_csv(cells, out_dir / "summary.csv")
    write_summary_json(cells, cfg, out_dir / "summary.json")
    print(f"wrote {len(cells)} cells to {out_dir / 'summary.csv'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on bad flags / --help
        return int(exc.code or 0)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_sweep(args)
    except (ConfigError, OSError) as exc:  # OSError: an output path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TraceFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
