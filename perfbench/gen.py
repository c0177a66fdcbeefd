"""Write the benchmark's scenario files from seeds, before anything is timed.

    PYTHONPATH=src python3 perfbench/gen.py --out DIR --preset drift --seeds 7000 --frames 55

The measured process starts this script as a child, so the generator's
memory never counts in the measured peak RSS, and the library under test
sees only the files written here.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys


def scenario_path(out_dir: str, preset: str, seed: int) -> str:
    return os.path.join(out_dir, f"{preset}-{seed}.json")


def write_scenarios(out_dir: str, preset: str, seeds: list[int], n_frames: int | None = None) -> list[str]:
    """Generate one scenario per seed; ``n_frames`` shortens the preset."""
    from vql import fileio
    from vql.scenario import gen_scenario, preset_params

    params = preset_params(preset)
    if n_frames is not None:
        params = dataclasses.replace(params, n_frames=n_frames)
    paths = []
    for seed in seeds:
        path = scenario_path(out_dir, preset, seed)
        fileio.save_scenario(gen_scenario(seed, params), path)
        paths.append(path)
    return paths


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--preset", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--frames", type=int, help="shorten the preset to this many frames")
    args = parser.parse_args(argv)
    write_scenarios(args.out, args.preset, args.seeds, args.frames)
    return 0


if __name__ == "__main__":
    sys.exit(main())
