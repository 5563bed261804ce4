"""Per-epoch cost of training: loss_and_grads wall time and minor page faults.

    python3 tools/epoch_faults.py [--records 2000] [--locations 320]
        [--epochs 20] [--runs 3] [--seed 0] [--env KEY=VALUE ...] [--src DIR]

Trains perfbench's train-2k configuration (reference_benchmark_config with
its generator resized to --records records at --locations locations, for
--epochs epochs) --runs times in one child process, and times every
model.loss_and_grads call there: wall time, and the minor page faults that
resource.getrusage counts over it. It prints the rows and edges (self loops
included) of the tensors those calls ran on, the medians of each run's first
epoch and of every later epoch, then one JSON object with the same figures.

--env KEY=VALUE sets a variable in the child's environment only, for
example an allocator setting such as MALLOC_MMAP_THRESHOLD_=131072; glibc
reads those when a process starts. --src measures the pavecast sources in
DIR instead of the src directory next to this one. The child runs BLAS with
one thread, as perfbench does.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def measure(records: int, locations: int, epochs: int, runs: int, seed: int) -> dict:
    """Train in this process; per epoch, loss_and_grads' seconds and faults."""
    from pavecast import pipeline, trainer

    base = pipeline.reference_benchmark_config(seed)
    config = replace(
        base, dataset=pipeline.DatasetSource(synthetic=replace(
            base.dataset.synthetic, n_records=records, n_locations=locations)),
        train=replace(base.train, epochs=epochs))
    data = pipeline.prepare_data(config)
    graph, graph_config = pipeline.build_history_graph(config, data)
    epochs_by_run: list[list[tuple[float, int]]] = []
    sizes = set()  # (rows, edges) of the tensors each epoch ran on
    inner = trainer.loss_and_grads

    def timed(gt, *args, **kwargs):
        sizes.add((gt.n, len(gt.layout.src)))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        out = inner(gt, *args, **kwargs)
        epochs_by_run[-1].append((time.perf_counter() - t0,
                                  resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults))
        return out

    trainer.loss_and_grads = timed  # train_on_graph looks the name up per call
    try:
        for _ in range(runs):
            epochs_by_run.append([])
            trainer.train_on_graph(graph, data.history_nodes, config.model, config.train,
                                   graph_config)
    finally:
        trainer.loss_and_grads = inner
    first = [run[0] for run in epochs_by_run]
    later = [epoch for run in epochs_by_run for epoch in run[1:]]

    def medians(samples):
        if not samples:
            return None, None
        return (1e3 * statistics.median(s for s, _ in samples),
                statistics.median(f for _, f in samples))

    (first_ms, first_faults), (later_ms, later_faults) = medians(first), medians(later)
    ((rows, edges),) = sizes
    return {"rows": rows, "edges": edges,
            "runs": runs, "epochs": epochs,
            "first_ms_p50": first_ms, "first_faults_p50": first_faults,
            "later_ms_p50": later_ms, "later_faults_p50": later_faults,
            "later_samples": len(later)}


def _env_pair(text: str) -> tuple[str, str]:
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    return key, value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=2000)
    parser.add_argument("--locations", type=int, default=320)
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--env", type=_env_pair, action="append", default=[],
                        metavar="KEY=VALUE", help="set in the child's environment only")
    parser.add_argument("--src", type=Path, default=SRC,
                        help="pavecast sources to measure (default: %(default)s)")
    parser.add_argument("--in-process", action="store_true",
                        help="measure in this process (the child runs with this flag)")
    args = parser.parse_args(argv)
    if args.epochs < 1 or args.runs < 1:
        parser.error("--epochs and --runs must be at least 1")
    sizes = (args.records, args.locations, args.epochs, args.runs, args.seed)
    if args.in_process:
        sys.path.insert(0, str(args.src))
        # the --env variables as this process sees them
        print(json.dumps({**measure(*sizes),
                          "env": {key: os.environ.get(key) for key, _ in args.env}}))
        return 0

    env = {**os.environ, **{name: "1" for name in BLAS_THREADS}, **dict(args.env)}
    cmd = [sys.executable, __file__, "--in-process", "--src", str(args.src.resolve()),
           *(f"--{name}={value}" for name, value in
             zip(("records", "locations", "epochs", "runs", "seed"), sizes)),
           *(f"--env={key}={value}" for key, value in args.env)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"error: the measuring process exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print("child env: " + (" ".join(f"{k}={v}" for k, v in result["env"].items())
                           or "(inherited)"))
    print(f"tensors: {result['rows']} rows, {result['edges']} edges with self loops; "
          f"{args.runs} runs x {args.epochs} epochs")
    print(f"epoch 1:    median {result['first_ms_p50']:.1f} ms, "
          f"{result['first_faults_p50']:,.0f} minor faults")
    if result["later_samples"]:
        print(f"epochs 2-{args.epochs}: median {result['later_ms_p50']:.1f} ms, "
              f"{result['later_faults_p50']:,.0f} minor faults "
              f"({result['later_samples']} epochs)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
