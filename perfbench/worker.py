"""Runs one workload in a fresh process and writes what it measured as JSON.

Usage: python3 worker.py JOB_JSON OUT_JSON. harness.py writes the job file
(workload, seed, run length, trace flag, work directory), starts this
process and checks what it writes. The inputs are generated here first,
outside every timing, so that the parent process stays small: a child's
peak-memory reading starts from its parent's.

Set-up is repeated spec.SETUPS times. The workload's job then repeats until
the next repetition would end after the run length; a traced run spends the
first half untraced and the second half traced, so the two halves give the
tracing overhead. Every timed step is also measured in seconds at a
reference host speed (HostSpeed).
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

import reference
import spec
from spec import model, pipeline, sg, trainer
from tracing import Tracer

KERNEL_REF_S = 0.04  # calibration kernel time that defines reference host speed


class HostSpeed:
    """Converts wall time into seconds at a reference host speed.

    On a shared host the CPU's speed drifts by tens of percent over seconds
    to minutes. A fixed calibration kernel slows down with it. The kernel
    mixes NumPy gathers, scatter-adds and small matmuls with Python object
    churn, like pavecast's own work. Timed around 10-epoch trainings, its
    time correlated 0.86 with theirs, and dividing by it cut their spread
    from 28% to 9% of the median. It tracks short steps best, so it runs
    after every timed step, and each step uses the mean of the kernel runs
    before and after it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((2000, 48))
        self._w = rng.standard_normal((48, 48))
        self._idx = rng.integers(0, 2000, 12000)
        self._kernel()  # warm-up: first calls pay one-off costs
        self._last = self._kernel_s()

    def _kernel(self) -> None:
        acc = np.zeros_like(self._x)
        for _ in range(6):
            y = np.tanh(self._x @ self._w)[self._idx]
            np.add.at(acc, self._idx[:3000], y[:3000])
            rows = sorted((float(v), i) for i, v in enumerate(y[:3000, 0]))
            [{"i": i, "v": v} for v, i in rows]

    def _kernel_s(self) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def timed(self, step):
        """(result, wall seconds, reference-speed seconds) of step()."""
        t0 = time.perf_counter()
        result = step()
        wall = time.perf_counter() - t0
        before, self._last = self._last, self._kernel_s()
        return result, wall, wall * KERNEL_REF_S / (0.5 * (before + self._last))


class Session:
    """The workload's inputs, set up once per set-up pass, and its job."""

    def __init__(self, job: dict):
        self.workload = spec.Workload(**job["workload"])
        work = Path(job["work"])
        self.config = spec.run_config(self.workload, job["seed"], work / spec.CSV_NAME)
        self.graph_config = pipeline.effective_graph_config(self.config)
        self.checkpoint = None if self.workload.job == "train" else work / spec.SEED_CHECKPOINT
        self.saved = work / spec.TRAINED_CHECKPOINT
        self.params = self.data = self.graph = self.tensors = None

    def setup(self) -> None:
        """From the CSV (and checkpoint) to a built graph and prepared tensors."""
        if self.checkpoint:
            self.params = trainer.load_checkpoint(self.checkpoint).params
        data = pipeline.prepare_data(self.config)
        meta = sg.graph_nodes_from_processed(data.history_nodes, data.init_count)
        self.graph = sg.build_graph(meta, data.init_count, self.graph_config)
        self.tensors = model.prepare_tensors(self.graph, data.history_nodes,
                                             l_res_m=self.graph_config.l_res_m)
        queries = self.workload.queries
        self.data = data if queries is None else replace(
            data, test_records=data.test_records[:queries])

    def _train(self, stamps: list[float]):
        return trainer.train_on_graph(
            self.graph, self.data.history_nodes, self.config.model, self.config.train,
            self.graph_config, log=lambda _msg: stamps.append(time.perf_counter()))

    def _save(self, result) -> None:
        trainer.save_checkpoint(self.saved, trainer.Checkpoint(
            model_config=self.config.model, graph_config=self.graph_config,
            train_config=self.config.train, stats=self.data.stats,
            schema=self.config.features, params=result.params, adam=result.adam,
            loss_trace=result.loss_trace, final_train_mae=result.final_train_mae,
            run_config=self.config.to_dict(), attention_max_dev=result.attention_max_dev))

    def job(self, speed: HostSpeed) -> dict:
        """One repetition, each step timed in wall and reference-speed seconds."""
        train = self.workload.job == "train"
        stamps: list[float] = []
        steps: list[tuple[float, float]] = []

        def timed(step):
            result, wall, ref = speed.timed(step)
            steps.append((wall, ref))
            return result

        if train:
            result = timed(lambda: self._train(stamps))
            self.params = result.params
        report = timed(lambda: pipeline.evaluate_test(
            self.config, self.data, self.graph, self.graph_config, self.params,
            strategy="ignore" if train else self.workload.job))
        forecast_s, forecast_ref_s = steps[-1]
        if train:
            timed(lambda: self._save(result))
        return {"job_s": sum(w for w, _ in steps), "job_ref_s": sum(r for _, r in steps),
                "forecast_s": forecast_s, "forecast_ref_s": forecast_ref_s,
                "epoch_s": np.diff(stamps).tolist(), "mae": report.mae,
                "y": [p[0] for p in report.pairs], "yhat": [p[1] for p in report.pairs]}

    def rounds(self, seconds: float, speed: HostSpeed) -> list[dict]:
        """Repeat the job for about `seconds`, collecting cyclic garbage between
        repetitions so that peak memory is one repetition's, whatever their count."""
        out: list[dict] = []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            out.append(self.job(speed))
            gc.collect()
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                return out

    def edge_digest(self) -> dict:
        edges = self.graph.to_json_dict()["edges"]
        digest, counts = reference.edge_digest((e["from"], e["to"], e["origin"]) for e in edges)
        return {"digest": digest, "counts": counts}


def _ms_per_call(summary: dict, name: str) -> float:
    entry = summary.get(name)
    return 1000.0 * entry["seconds"] / entry["calls"] if entry else 0.0


def _percentiles_ms(seconds: list[float]) -> tuple[float, float, int]:
    if not seconds:
        return 0.0, 0.0, 0
    p50, p90 = np.percentile(1000.0 * np.asarray(seconds), [50, 90])
    return float(p50), float(p90), len(seconds)


def per_layer(setup_trace: Tracer, job_trace: Tracer, setup_s: list[float],
              untraced: list[dict], traced: list[dict], graph: dict,
              checkpoint_bytes: int) -> dict[str, float]:
    """Every spec.PER_LAYER metric.

    Set-up metrics are per set-up and job metrics per job repetition; a
    `_ms` is the mean inclusive time of one call, and `<module>.self_pct` is
    the module's self time as a share of the traced jobs' wall time.
    """
    m = dict.fromkeys(spec.PER_LAYER, 0.0)
    setups, jobs = setup_trace.summary(), job_trace.summary()
    n_setups, n_jobs = len(setup_s), len(traced)

    def seconds(summary, name, key="seconds"):
        return summary.get(name, {}).get(key, 0.0)

    m["dataset.load_records_s"] = seconds(setups, "dataset.load_records") / n_setups
    m["dataset.prepare_data_s"] = (
        seconds(setups, "pipeline.prepare_data", "self_seconds") / n_setups)
    m["stgraph.build_graph_s"] = seconds(setups, "stgraph.build_graph") / n_setups
    m["trainer.load_checkpoint_ms"] = _ms_per_call(setups, "trainer.load_checkpoint")
    m["stgraph.edges"] = sum(graph["counts"].values())
    for origin in ("init", "top", "hard"):
        m[f"stgraph.edges_{origin}"] = graph["counts"].get(origin, 0)

    for span in spec.JOB_SPANS:
        m[f"{span}_calls"] = jobs.get(span, {}).get("calls", 0) / n_jobs
        m[f"{span}_ms"] = _ms_per_call(jobs, span)
    for kind in spec.NDGRAD_KINDS:
        m[f"ndgrad.{kind}.calls"] = jobs.get(f"ndgrad.{kind}", {}).get("calls", 0) / n_jobs
        m[f"ndgrad.{kind}.ms"] = _ms_per_call(jobs, f"ndgrad.{kind}")
    for kind in spec.NDGRAD_BYTES_KINDS:
        m[f"ndgrad.{kind}.mbytes_computed"] = (
            job_trace.counters[f"ndgrad.{kind}"]["bytes"] / n_jobs / 1e6)
    backwards = jobs.get("ndgrad.backward", {}).get("calls", 0)
    if backwards:
        tape = job_trace.counters["ndgrad.backward"]
        m["ndgrad.tape_nodes"] = tape["tape_nodes"] / backwards
        m["ndgrad.tape_mbytes_computed"] = tape["tape_bytes"] / backwards / 1e6
    m["python.gc_collections"] = job_trace.gc_collections / n_jobs
    m["python.gc_ms"] = 1000.0 * job_trace.gc_seconds / n_jobs

    epoch_s = [s for r in untraced for s in r["epoch_s"]]
    (m["trainer.epoch_ms_p50"], m["trainer.epoch_ms_p90"],
     m["trainer.epoch_samples"]) = _percentiles_ms(epoch_s)
    (m["trainer.query_ms_p50"], m["trainer.query_ms_p90"],
     m["trainer.query_samples"]) = _percentiles_ms(job_trace.durations("trainer.predict_one"))
    m["trainer.save_checkpoint_ms"] = _ms_per_call(jobs, "trainer.save_checkpoint")
    m["trainer.checkpoint_bytes"] = checkpoint_bytes
    m["evaluation.build_report_ms"] = _ms_per_call(jobs, "evaluation.build_report")
    m["evaluation.test_mae"] = traced[-1]["mae"]

    wall = sum(r["job_s"] for r in traced)
    attributed = 0.0
    for module in spec.MODULES:
        own = sum(entry["self_seconds"] for name, entry in jobs.items()
                  if name.split(".")[0] == module)
        m[f"{module}.self_pct"] = 100.0 * own / wall
        attributed += m[f"{module}.self_pct"]
    m["unattributed.self_pct"] = 100.0 - attributed
    # the first repetition also warms caches, so it is left out when it can be
    baseline = untraced[1:] or untraced
    m["trace.overhead_pct"] = 100.0 * (
        np.median([r["job_ref_s"] for r in traced])
        / np.median([r["job_ref_s"] for r in baseline]) - 1.0)
    return {name: float(value) for name, value in m.items()}


def run(job: dict) -> dict:
    spec.write_inputs(spec.Workload(**job["workload"]), job["seed"], Path(job["work"]))
    gc.collect()
    session = Session(job)
    seconds, trace = job["seconds"], job["trace"]
    setup_trace, job_trace = Tracer(), Tracer()
    speed = HostSpeed()
    setup_s, setup_ref_s, graphs = [], [], []
    with setup_trace if trace else nullcontext():
        for _ in range(spec.SETUPS):
            _, wall, ref = speed.timed(session.setup)
            setup_s.append(wall)
            setup_ref_s.append(ref)
            graphs.append(session.edge_digest())
            gc.collect()
    untraced = session.rounds(seconds / 2 if trace else seconds, speed)
    traced = []
    if trace:
        with job_trace:
            traced = session.rounds(seconds / 2, speed)

    deviation = None
    if session.workload.job == "train":
        probes: list = []
        model.forward_values(session.tensors, session.params, session.config.model,
                             probes=probes)
        deviation = model.attention_sum_deviation(probes)
    ckpt = session.checkpoint or session.saved
    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "graphs": graphs,
        "rounds": untraced + traced,
        "epochs_per_round": session.config.train.epochs if session.workload.job == "train" else 0,
        "attention_deviation": deviation,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "absent": sorted(set(setup_trace.absent + job_trace.absent)),
    }
    if trace:
        out["per_layer"] = per_layer(setup_trace, job_trace, setup_s, untraced, traced,
                                     graphs[-1], ckpt.stat().st_size)
    return out


if __name__ == "__main__":
    job_path, out_path = sys.argv[1:3]
    result = run(json.loads(Path(job_path).read_text()))
    Path(out_path).write_text(json.dumps(result))
