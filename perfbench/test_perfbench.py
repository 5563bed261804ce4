"""Tests of the benchmark itself at a tiny size.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

import harness
import reference
import spec
from spec import model, trainer
from tracing import Tracer

TINY = {job: spec.Workload(f"tiny-{job}", 200, 40, job, epochs=3,
                           queries=4 if job == "predicted" else None)
        for job in ("train", "predicted", "ignore")}


@pytest.fixture(scope="module")
def measured(tmp_path_factory):
    """One untraced tiny ignore run: (workload, work directory, worker output)."""
    work = tmp_path_factory.mktemp("perfbench")
    workload = TINY["ignore"]
    out = harness.measure(workload, 1, 0.1, False, work,
                          deadline=time.monotonic() + harness.DEADLINE_S)
    return workload, work, out


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("job", sorted(TINY))
def test_every_metric_printed_with_unit(job, trace):
    result, lines = harness.execute(TINY[job], seed=1, seconds=0.1, trace=trace)
    units = spec.PER_LAYER if trace else spec.END_TO_END
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == list(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"])
        assert any(line.startswith(f"{name} ") and line.endswith(f" {units[name]}")
                   for line in lines)
    json.dumps(result)


def test_benchmark_json_matches_spec():
    doc = json.loads((spec.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spec.PER_LAYER


def _failed(measured, out):
    workload, work, _ = measured
    return harness.check(workload, 1, work, out)[1]


def test_clean_run_has_no_failures(measured):
    assert _failed(measured, measured[2]) == 0


@pytest.mark.parametrize("corrupt", [
    lambda yhat: yhat.__setitem__(0, yhat[0] + 1e-3),
    lambda yhat: yhat.__setitem__(-1, float("nan")),
])
def test_corrupted_prediction_fails(measured, corrupt):
    out = json.loads(json.dumps(measured[2]))
    corrupt(out["rounds"][0]["yhat"])
    assert _failed(measured, out) == 1


def test_missing_prediction_fails_every_query(measured):
    out = json.loads(json.dumps(measured[2]))
    out["rounds"][0]["yhat"].pop()
    assert _failed(measured, out) == len(out["rounds"][0]["y"])


def test_corrupted_edge_list_fails_its_build(measured):
    out = json.loads(json.dumps(measured[2]))
    edges = _graph_edges(measured)
    k = next(i for i, (_, _, origin) in enumerate(edges) if origin == "top")
    edges[k] = (*edges[k][:2], "hard")
    digest, counts = reference.edge_digest(edges)
    out["graphs"][0] = {"digest": digest, "counts": counts}
    assert _failed(measured, out) == 1


def _graph_edges(measured):
    workload, work, _ = measured
    config = spec.run_config(workload, 1, work / spec.CSV_NAME)
    data = spec.pipeline.prepare_data(config)
    cols = reference.history_arrays(data.history_nodes)[0]
    return list(reference.parent_edges(reference.graph_parents(
        cols, data.init_count, config.graph)))


def test_tracer_restores_functions_and_reports_absent(monkeypatch):
    original = model.prepare_tensors
    monkeypatch.delattr(trainer, "predict_one")
    with Tracer() as tracer:
        assert trainer.prepare_tensors is model.prepare_tensors is not original
    assert "trainer.predict_one" in tracer.absent
    assert trainer.prepare_tensors is model.prepare_tensors is original


def test_reference_forward_matches_package(measured):
    workload, work, _ = measured
    config = spec.run_config(workload, 1, work / spec.CSV_NAME)
    data = spec.pipeline.prepare_data(config)
    graph = spec.sg.build_graph(spec.sg.graph_nodes_from_processed(
        data.history_nodes, data.init_count), data.init_count, config.graph)
    params = trainer.load_checkpoint(work / spec.SEED_CHECKPOINT).params
    expected = model.forward_values(model.prepare_tensors(graph, data.history_nodes),
                                    params, config.model)
    cols, x_full, x_st, t_norm = reference.history_arrays(data.history_nodes)
    parents = reference.graph_parents(cols, data.init_count, config.graph)
    ref = reference.Reference(params, config.model)
    z, z_st = ref.embed(x_full, x_st)
    got = ref.predict(z, z_st, t_norm, np.arange(len(parents)), parents)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
