#!/usr/bin/env python3
"""Benchmark of the typovec pipeline; see perfbench/README.md.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
Earlier lines carry the environment, the sha256 of every artifact and the
per-layer metrics that could not be measured.  Failed checks go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

# BLAS and OpenMP pools are pinned to one thread, here and in every child:
# on two cores a second thread doubled CPU time without lowering wall time.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here))
    from spec import RUN_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes in both modes; checks metric names and units")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    src = here.parent / "src"
    if not (src / "typovec" / "cli.py").is_file():
        print(f"error: typovec sources not found in {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # SystemExit unwinds the stage runner, which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, str(src))
    import bench  # imports numpy, so only after the thread pins

    if args.smoke:
        return bench.smoke(THREAD_VARS)
    result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                False, THREAD_VARS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
