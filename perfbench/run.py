"""vql benchmark: closed-loop drift, frozen and geo queries, timed end to end
and per layer.

    python3 perfbench/run.py --workload geo --seed 7 --seconds 40 --trace 0

Run it from anywhere inside a checkout; it builds nothing and imports vql
from the checkout's ``src``. Scenario files are generated from ``--seed`` in
a child process before anything is timed. With ``--trace 0`` the last line
of standard output holds the end-to-end metrics; with ``--trace 1`` it runs
untraced and then traced queries and holds the per-layer metrics, taken from
spans recorded around the library's public functions. The line before it
holds the report: sample counts, failures, 3D quality on geo and the
environment (Python, numpy, BLAS and its thread count, nproc, seed). Both
are also written, with the spans of a traced run, under ``.perfbench_out/``.

Exit codes: 0 when every query passed its checks, 1 when one failed (the
result is still printed), 2 on a usage error or missing vql sources.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1  # one client, one query at a time; also the steadiest timing


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, help="drift, frozen or geo")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "vql", "__init__.py")):
        print(f"error: no vql sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy loads, in this process and in the generator
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, src)
    import harness

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
