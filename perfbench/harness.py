"""One benchmark run: generate inputs, measure in a fresh process, check outputs.

worker.py generates the inputs from the seed, outside every timing, and runs
the workload in a fresh process of its own, so peak memory is the
workload's; this process then checks what it wrote against reference.py.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import reference
import spec
from spec import pipeline, trainer

HERE = Path(__file__).resolve().parent
WORK_DIR = spec.ROOT / ".perfbench_work"
DEADLINE_S = 170.0  # a run must end within 180 s


class WorkerError(RuntimeError):
    """The measuring process failed or overran the deadline."""


def environment() -> dict:
    """Host facts recorded with every result."""
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "loadavg": " ".join(f"{x:.2f}" for x in os.getloadavg()),
    }


def measure(workload: spec.Workload, seed: int, seconds: float, trace: bool,
            work: Path, deadline: float) -> dict:
    """Generate the inputs into `work` and measure, in a worker process."""
    job = {"workload": workload.to_dict(), "seed": seed, "seconds": seconds,
           "trace": trace, "work": str(work)}
    job_path, out_path = work / "job.json", work / "out.json"
    job_path.write_text(json.dumps(job))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path),
                               str(out_path)], capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker overran the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(out_path.read_text())


def check(workload: spec.Workload, seed: int, work: Path,
          out: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes): graph builds, training epochs and queries.

    A build fails when its edge digest or per-origin counts differ from the
    reference graph; a query fails when its prediction is missing,
    non-finite or off the reference, or when its round's MAE is; the last
    round's epochs fail when the final attention coefficients do not sum to
    one per target and head.
    """
    config = spec.run_config(workload, seed, work / spec.CSV_NAME)
    graph_config = pipeline.effective_graph_config(config)
    data = pipeline.prepare_data(config)
    cols = reference.history_arrays(data.history_nodes)[0]
    digest, counts = reference.edge_digest(reference.parent_edges(
        reference.graph_parents(cols, data.init_count, graph_config)))
    expected = {"digest": digest, "counts": counts}
    bad_builds = sum(g != expected for g in out["graphs"])
    notes = [f"graph: {sum(counts.values())} edges {counts}, "
             f"{len(out['graphs']) - bad_builds}/{len(out['graphs'])} builds match"]

    records = data.test_records[:workload.queries]
    params_path = work / (spec.TRAINED_CHECKPOINT if workload.job == "train"
                          else spec.SEED_CHECKPOINT)
    ref = reference.Reference(trainer.load_checkpoint(params_path).params, config.model)
    forecast = (reference.forecast_predicted if workload.job == "predicted"
                else reference.forecast_ignore)
    ref_yhat = forecast(ref, graph_config, data.stats, config.features,
                        data.history_nodes, records)
    y_true = np.array([r.detect_info for r in records])
    bad_queries = 0
    for r in out["rounds"]:
        if r["y"] != y_true.tolist() or not reference.mae_matches(r["mae"], y_true, ref_yhat):
            bad_queries += len(records)
        else:
            bad_queries += reference.failed_predictions(r["yhat"], ref_yhat)
    notes.append(f"queries: {bad_queries} of {len(records) * len(out['rounds'])} off the "
                 f"reference (tolerance {reference.PREDICTION_TOL:g} relative)")

    epochs = out["epochs_per_round"]
    bad_epochs = 0
    if out["attention_deviation"] is not None:
        if not out["attention_deviation"] <= reference.ATTENTION_TOL:
            bad_epochs = epochs
        notes.append(f"attention sum deviation {out['attention_deviation']:.3g} "
                     f"(limit {reference.ATTENTION_TOL:g})")
    attempted = len(out["graphs"]) + len(out["rounds"]) * (len(records) + epochs)
    return attempted, bad_builds + bad_queries + bad_epochs, notes


def end_to_end(out: dict, queries: int) -> dict[str, float]:
    """Medians of the timed steps, in seconds at reference host speed."""
    rounds = out["rounds"]
    return {
        "setup_s": statistics.median(out["setup_ref_s"]),
        "job_s": statistics.median(r["job_ref_s"] for r in rounds),
        "forecast_qps": queries / statistics.median(r["forecast_ref_s"] for r in rounds),
        "peak_rss_mb": out["peak_rss_mb"],
    }


def execute(workload: spec.Workload, seed: int, seconds: float,
            trace: bool) -> tuple[dict, list[str]]:
    """The result object and the human-readable lines printed before it."""
    deadline = time.monotonic() + DEADLINE_S
    env = environment()
    lines = [f"perfbench workload={workload.name} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)}",
             "env: " + " ".join(f"{k}={v}" for k, v in env.items())]
    WORK_DIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
            out = measure(workload, seed, seconds, trace, Path(tmp), deadline)
            attempted, failed, notes = check(workload, seed, Path(tmp), out)
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    queries = len(out["rounds"][0]["yhat"])
    lines += [f"check: {note}" for note in notes]
    lines.append(f"ops: {attempted} attempted, {failed} failed; "
                 f"{len(out['rounds'])} job repetitions of {queries} queries; "
                 f"test_mae {out['rounds'][-1]['mae']:.6f}")
    epoch_ms = [1000.0 * s for r in out["rounds"] for s in r["epoch_s"]]
    if epoch_ms:
        p50, p90 = np.percentile(epoch_ms, [50, 90])
        lines.append(f"train_epoch_ms: p50 {p50:.2f} p90 {p90:.2f} "
                     f"over {len(epoch_ms)} epochs")
    lines.append(f"wall clock: setup_s {statistics.median(out['setup_s']):.4f}, job_s "
                 f"{statistics.median(r['job_s'] for r in out['rounds']):.4f}, forecast_s "
                 f"{statistics.median(r['forecast_s'] for r in out['rounds']):.4f}")
    if out["absent"]:
        lines.append("absent (not traced): " + ", ".join(out["absent"]))

    if trace:
        metrics = out["per_layer"]
        units = spec.PER_LAYER
    else:
        metrics = end_to_end(out, queries)
        units = spec.END_TO_END
    lines += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, lines
