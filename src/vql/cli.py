"""Command-line harness.

Subcommands:
  gen       build a synthetic scenario file from a seed and preset
  run2d     run the 2D pipeline on a scenario, write the track file
  run3d     lift a 2D track into 3D using the scenario's cameras
  eval      score a track against a scenario (optionally with 3D metrics)
  selfcheck run the oracle suite, nonzero exit on any failure

Exit codes: 0 success, 2 validation or input error (a bad value, or a path
that cannot be read or written), 1 internal failure.
Selfcheck runs the oracles one after another, in registry order.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import fileio, metrics
from .pipeline import NoDetectionError, Pipeline, PipelineConfig, finalize_3d
from .scenario import PRESETS, gen_scenario, preset_params

__all__ = ["main"]


def _cmd_gen(args) -> int:
    scenario = gen_scenario(args.seed, preset_params(args.preset))
    fileio.save_scenario(scenario, args.out)
    print(f"wrote {args.out}: preset {args.preset}, seed {args.seed}, {len(scenario.features)} frames")
    return 0


def _cmd_run2d(args) -> int:
    scenario = fileio.load_scenario(args.scenario)
    cfg = fileio.load_config(args.config) if args.config else PipelineConfig()
    pipe = Pipeline(scenario.query, cfg)
    track = pipe.run(scenario.features)
    fileio.save_track(track, args.out)
    span = "none" if track.interval is None else f"{track.interval.start_frame}..{track.interval.end_frame}"
    print(f"wrote {args.out}: {len(track.results)} frames, interval {span}")
    return 0


def _cmd_run3d(args) -> int:
    scenario = fileio.load_scenario(args.scenario)
    track = fileio.load_track(args.track)
    if scenario.alignment_src is None:
        raise fileio.SchemaError(f"{args.scenario}: scenario carries no alignment point pairs")
    try:
        track = finalize_3d(
            track,
            scenario.cameras,
            (scenario.alignment_src, scenario.alignment_dst),
            fileio.load_config(args.config) if args.config else PipelineConfig(),
        )
        note = f"aggregated point {np.round(track.world_point, 6).tolist()}"
    except NoDetectionError as exc:
        note = f"no detection ({exc}); track written without 3D output"
    fileio.save_track(track, args.out)
    print(f"wrote {args.out}: {note}")
    return 0


def _cmd_eval(args) -> int:
    scenario = fileio.load_scenario(args.scenario)
    track = fileio.load_track(args.track)
    report_2d = metrics.eval_2d(track, scenario)
    payload = {
        "tAP25": report_2d.t_ap25,
        "stAP25": report_2d.st_ap25,
        "recovery_pct": report_2d.recovery_pct,
        "success_pct": report_2d.success_pct,
    }
    if args.metrics_3d:
        report_3d = metrics.eval_3d(track, scenario)
        payload.update(
            {
                "3d_success_pct": report_3d.success_pct,
                "3d_success_star_pct": report_3d.success_star_pct,
                "3d_l2": report_3d.l2,
                "3d_angle": report_3d.angle,
                "3d_qwp_pct": report_3d.qwp_pct,
            }
        )
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key:>22}: {value}")
    return 0


def _cmd_selfcheck(args) -> int:
    from .selfcheck import run_checks

    results = run_checks(args.filter)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return 2
    failures = 0
    rows = []
    for name, passed, detail in results:
        rows.append({"name": name, "passed": passed, "detail": detail})
        if not args.json:
            status = "PASS" if passed else "FAIL"
            print(f"[{status}] {name}: {detail}")
        failures += 0 if passed else 1
    if args.json:
        print(json.dumps({"checks": rows, "failures": failures}, sort_keys=True))
    else:
        print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vql", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic scenario")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--preset", choices=sorted(PRESETS), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("run2d", help="run the 2D pipeline over a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_run2d)

    p = sub.add_parser("run3d", help="lift a track into 3D")
    p.add_argument("--scenario", required=True)
    p.add_argument("--track", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_run3d)

    p = sub.add_parser("eval", help="score a track against a scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--track", required=True)
    p.add_argument("--metrics-3d", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("selfcheck", help="run the oracle suite")
    p.add_argument("--filter", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_selfcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # the package's typed errors are ValueErrors; a path that cannot be read or written is an OSError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
