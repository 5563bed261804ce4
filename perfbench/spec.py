"""Workloads, run configurations and metric names shared by every perfbench file.

Importing this module puts the checkout's own ``src/`` first on ``sys.path``,
so the benchmark always measures the sources next to it, never an installed
copy of the package. The other perfbench files take the pavecast modules
from here, so that no import of them can run before the path is set.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "pavecast" / "__init__.py").is_file():
    raise ImportError(f"no pavecast sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from pavecast import dataset as ds  # noqa: E402
from pavecast import model  # noqa: E402
from pavecast import ndgrad  # noqa: E402
from pavecast import pipeline  # noqa: E402
from pavecast import stgraph as sg  # noqa: E402
from pavecast import trainer  # noqa: E402

SETUPS = 3  # set-ups per run; setup_s is their median
CSV_NAME, SEED_CHECKPOINT, TRAINED_CHECKPOINT = "records.csv", "seed.ckpt", "trained.ckpt"


@dataclass(frozen=True)
class Workload:
    """One benchmark input and the job a run repeats on it.

    job is "train" (train `epochs` epochs, forecast the test records under
    the ignore strategy, save a checkpoint), "predicted" (forecast the first
    `queries` test records in time order, feeding predictions back) or
    "ignore" (forecast every test record against the pristine graph).
    """

    name: str
    n_records: int
    n_locations: int
    job: str
    epochs: int = 20
    queries: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)


WORKLOADS = {w.name: w for w in (
    Workload("train-2k", 2000, 320, "train"),
    Workload("autoregress-2k", 2000, 320, "predicted", queries=20),
    Workload("bulk-8k", 8000, 1280, "ignore"),
)}


def synthetic_config(n_records: int, n_locations: int) -> ds.SyntheticConfig:
    """The reference benchmark's generator, resized; its data seed stays fixed."""
    base = pipeline.reference_benchmark_config().dataset.synthetic
    return replace(base, n_records=n_records, n_locations=n_locations)


def run_config(workload: Workload, seed: int, csv_path) -> pipeline.RunConfig:
    """reference_benchmark_config at `seed`, reading the generated CSV."""
    base = pipeline.reference_benchmark_config(seed)
    return replace(base, dataset=pipeline.DatasetSource(csv=str(csv_path)),
                   train=replace(base.train, epochs=workload.epochs, seed=seed,
                                 log_every=1))


def write_inputs(workload: Workload, seed: int, work: Path) -> None:
    """Generate the workload's CSV and, for forecasting jobs, a checkpoint
    holding init_params at `seed`."""
    records = ds.generate_synthetic(synthetic_config(workload.n_records,
                                                     workload.n_locations))
    csv_path = work / CSV_NAME
    ds.write_records(csv_path, records)
    if workload.job == "train":
        return
    config = run_config(workload, seed, csv_path)
    data = pipeline.prepare_data(config, records=records)
    params = model.init_params(config.model, config.features.dim_full,
                               config.features.dim_st, seed)
    trainer.save_checkpoint(work / SEED_CHECKPOINT, trainer.Checkpoint(
        model_config=config.model, graph_config=pipeline.effective_graph_config(config),
        train_config=config.train, stats=data.stats, schema=config.features,
        params=params, adam=ndgrad.adam_init(params, lr=config.train.lr), loss_trace=[],
        final_train_mae=float("nan"), run_config=config.to_dict()))


END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "forecast_qps": "1/s",
    "peak_rss_mb": "MB",
}

NDGRAD_KINDS = ("matmul", "gather_rows", "gather_rows_mixed", "weighted_segment_sum",
                "segment_softmax", "elu", "leaky_relu", "add", "add_rowvec",
                "slice_rows", "concat_cols")
NDGRAD_BYTES_KINDS = ("gather_rows_mixed", "gather_rows", "weighted_segment_sum")
MODULES = ("dataset", "pipeline", "stgraph", "model", "ndgrad", "trainer", "evaluation")
JOB_SPANS = ("stgraph.combined_parents", "stgraph.expand", "model.prepare_tensors",
             "model.forward_values", "model.loss_and_grads", "ndgrad.backward",
             "ndgrad.adam_step")


def _per_layer_units() -> dict[str, str]:
    units = {
        "dataset.load_records_s": "s",
        "dataset.prepare_data_s": "s",
        "stgraph.build_graph_s": "s",
        "trainer.load_checkpoint_ms": "ms",
        "stgraph.edges": "count",
        "stgraph.edges_init": "count",
        "stgraph.edges_top": "count",
        "stgraph.edges_hard": "count",
    }
    for span in JOB_SPANS:
        units[f"{span}_calls"] = "count"
        units[f"{span}_ms"] = "ms"
    for kind in NDGRAD_KINDS:
        units[f"ndgrad.{kind}.calls"] = "count"
        units[f"ndgrad.{kind}.ms"] = "ms"
    for kind in NDGRAD_BYTES_KINDS:
        units[f"ndgrad.{kind}.mbytes_computed"] = "MB"
    units.update({
        "ndgrad.tape_nodes": "count",
        "ndgrad.tape_mbytes_computed": "MB",
        "python.gc_collections": "count",
        "python.gc_ms": "ms",
        "trainer.epoch_ms_p50": "ms",
        "trainer.epoch_ms_p90": "ms",
        "trainer.epoch_samples": "count",
        "trainer.query_ms_p50": "ms",
        "trainer.query_ms_p90": "ms",
        "trainer.query_samples": "count",
        "trainer.save_checkpoint_ms": "ms",
        "trainer.checkpoint_bytes": "bytes",
        "evaluation.build_report_ms": "ms",
        "evaluation.test_mae": "level",
    })
    for module in MODULES + ("unattributed",):
        units[f"{module}.self_pct"] = "%"
    units["trace.overhead_pct"] = "%"
    return units


PER_LAYER = _per_layer_units()
