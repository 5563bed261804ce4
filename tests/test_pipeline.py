import json
import math
from dataclasses import replace

import numpy as np
import pytest

from pavecast import dataset as ds
from pavecast import evaluation as ev
from pavecast import trainer as tr
from pavecast.pipeline import (DatasetSource, RunConfig, RunConfigError, run_experiment,
                               run_generalization, run_matrix, reference_benchmark_config)

from conftest import tiny_run_config


def test_run_experiment_smoke_and_shapes():
    res = run_experiment(tiny_run_config())
    assert res.test_report.rmse == pytest.approx(np.sqrt(res.test_report.mse), abs=1e-12)
    assert len(res.checkpoint.loss_trace) == 12
    assert res.checkpoint.final_train_mae > 0
    assert set(res.timings) == {"graph_build", "train", "predict"}


def test_run_experiment_deterministic(tmp_path):
    a = run_experiment(tiny_run_config())
    b = run_experiment(tiny_run_config())
    assert a.test_report.mae == b.test_report.mae
    assert a.checkpoint.loss_trace == b.checkpoint.loss_trace
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    tr.save_checkpoint(pa, a.checkpoint)
    tr.save_checkpoint(pb, b.checkpoint)
    assert pa.read_bytes() == pb.read_bytes()


def test_strategies_run_end_to_end():
    for strategy in ("ignore", "true", "predicted"):
        cfg = RunConfig.from_dict({**tiny_run_config().to_dict(),
                                   "strategy": strategy})
        res = run_experiment(cfg)
        assert np.isfinite(res.test_report.mae)


def test_no_top_variant_uses_k_zero_graph():
    cfg = tiny_run_config(variant="stgan_no_top")
    from pavecast.pipeline import effective_graph_config
    assert effective_graph_config(cfg).top_k == 0
    assert cfg.graph.top_k == 5


def test_run_config_roundtrip():
    cfg = tiny_run_config(variant="gat")
    clone = RunConfig.from_dict(cfg.to_dict())
    assert clone == cfg
    bench = reference_benchmark_config()
    assert RunConfig.from_dict(bench.to_dict()) == bench


def csv_run_config():
    return replace(tiny_run_config(), dataset=DatasetSource(csv="data.csv",
                                                            time_format="iso8601"))


@pytest.mark.parametrize("make", [tiny_run_config, reference_benchmark_config,
                                  csv_run_config], ids=["tiny", "benchmark", "csv"])
def test_run_config_roundtrips_through_json(make):
    cfg = make()
    clone = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert clone == cfg and hash(clone) == hash(cfg)


def test_dataset_csv_key_wins_and_no_key_reads_the_default_generator():
    doc = tiny_run_config().to_dict()
    doc["dataset"]["csv"] = "data.csv"  # as --set dataset.csv=data.csv writes it
    assert RunConfig.from_dict(doc).dataset == DatasetSource(csv="data.csv")
    doc["dataset"] = {}
    assert RunConfig.from_dict(doc).dataset == DatasetSource(synthetic=ds.SyntheticConfig())


def test_dataset_needs_exactly_one_of_csv_and_synthetic():
    for both_or_neither in (dict(), dict(csv="data.csv", synthetic=ds.SyntheticConfig())):
        with pytest.raises(RunConfigError, match="^dataset needs exactly one of csv or synthetic"):
            DatasetSource(**both_or_neither)


def test_time_format_other_than_days_needs_a_csv():
    with pytest.raises(RunConfigError, match="^dataset.time_format 'iso8601' needs a csv"):
        RunConfig.from_dict({"dataset": {"synthetic": {}, "time_format": "iso8601"}})
    assert RunConfig.from_dict({"dataset": {"synthetic": {}, "time_format": "days"}}) \
        == RunConfig()


def test_generalization_axes():
    cfg = tiny_run_config(epochs=6)
    for axis in ("time", "longitude", "latitude"):
        report = run_generalization(cfg, axis, k=90, s=10)
        assert report.split["axis"] == axis
        assert np.isfinite(report.mae)


def test_generalization_rerun_is_deterministic():
    cfg = tiny_run_config(epochs=6)
    first = run_generalization(cfg, "longitude", k=90, s=10)
    assert run_generalization(cfg, "longitude", k=90, s=10).to_dict() == first.to_dict()


def test_matrix_variant_axis_has_eight_rows():
    rows = run_matrix(tiny_run_config(epochs=4), ["variant"])
    assert [r.cell for r in rows] == list(
        ("stgan", "stgan_no_top", "stgan_eam", "stgan_no_td",
         "top_mlp", "gcn", "gcn_mlp", "gat"))


def test_matrix_sweep_defaults():
    rows = run_matrix(tiny_run_config(epochs=3), ["heads", "layers"])
    assert [r.cell for r in rows][:3] == ["H=1", "H=5", "H=10"]
    assert [r.cell for r in rows][3:] == ["L=1", "L=2", "L=3"]


def test_matrix_env_mask_rows():
    rows = run_matrix(tiny_run_config(epochs=3), ["env_mask"])
    assert len(rows) == 8
    assert all(r.cell.startswith("mask:") for r in rows)


def test_matrix_generalization_axis_rows():
    rows = run_matrix(tiny_run_config(epochs=2), ["generalization"], gen_intervals=(0,))
    assert [r.cell for r in rows] == ["time:s=0", "longitude:s=0", "latitude:s=0"]
    assert all(r.axis == "generalization" for r in rows)
    assert all(math.isfinite(v) for r in rows for v in (r.train_mae, r.test_mae))


def test_matrix_rejects_unknown_axis():
    with pytest.raises(Exception, match="unknown matrix axes"):
        run_matrix(tiny_run_config(), ["bogus"])
