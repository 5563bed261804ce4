"""pavecast benchmark entry point.

    python3 perfbench/run.py --workload train-2k --seed 0 --seconds 10 --trace 0

Prints a few human-readable lines, then as its last line one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Exits 2 when the
checkout holds no pavecast sources and 1 when the workload's process fails.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import os

# BLAS reads its thread count when NumPy is first imported, here and in the
# measuring process that inherits this environment; one thread keeps timings
# steady and results bit-reproducible on any host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Measure one pavecast workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import harness
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = harness.spec.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.spec.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result, lines = harness.execute(workload, args.seed, args.seconds, bool(args.trace))
    except harness.WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
