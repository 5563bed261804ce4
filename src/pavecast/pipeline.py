"""End-to-end experiment wiring: config -> data -> graph -> model -> report.

One RunConfig JSON document fully determines a run: dataset source, split
fractions, graph thresholds, model variant and sizes, and training
settings, whose seed (train.seed) is the one that initializes the model.
Reruns of the same config produce identical artifacts.
Generalization runs (train one side of an axis, forecast the other) reuse
the temporal run's preparation, training and forecast steps; only the
split differs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import dataset as ds
from . import evaluation as ev
from . import stgraph as sg
from . import trainer as tr
from .config import RunConfigError, read_config
from .model import VARIANTS, ModelConfig
from .trainer import InferenceContext, TrainConfig


def reference_benchmark_config(seed: int = 0) -> "RunConfig":
    """The frozen synthetic benchmark used for model-ordering runs.

    2000 records, 10/70/20 temporal split, default graph thresholds, and
    `seed` as train.seed. The model is deliberately narrow (hidden 48) and
    trained 250 epochs. Reseeded runs do not land close together: stgan's
    test MAE read 1.2663, 1.1273 and 1.1340 on seeds 0-2, a spread of 0.14,
    so variants are compared over several seeds.
    """
    return RunConfig(
        dataset=DatasetSource(synthetic=ds.SyntheticConfig(
            seed=0, driver_obs_bias=0.0, driver_spell_days=(35.0, 120.0))),
        model=ModelConfig(variant="stgan", extractor_hidden=(24, 48), head_hidden=48),
        train=TrainConfig(epochs=250, seed=seed))


@dataclass(frozen=True)
class DatasetSource:
    """Exactly one of: a CSV path, read in time_format, or a synthetic config."""

    csv: str | None = None
    time_format: str = "days"
    synthetic: ds.SyntheticConfig | None = None

    def __post_init__(self):
        if (self.csv is None) == (self.synthetic is None):
            raise RunConfigError("dataset needs exactly one of csv or synthetic")
        if self.csv is None and self.time_format != "days":
            raise RunConfigError(f"dataset.time_format {self.time_format!r} "
                                 "needs a csv: synthetic data has no time text")


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetSource = field(
        default_factory=lambda: DatasetSource(synthetic=ds.SyntheticConfig()))
    split: tuple[float, float, float] = (0.1, 0.7, 0.2)
    strategy: str = "ignore"
    graph: sg.GraphConfig = field(default_factory=sg.GraphConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    features: ds.FeatureSchema = field(default_factory=ds.FeatureSchema)

    def __post_init__(self):
        if self.strategy not in tr.STRATEGIES:
            raise RunConfigError(f"unknown strategy {self.strategy!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        src = d.pop("dataset")
        d["dataset"] = ({"csv": src["csv"], "time_format": src["time_format"]}
                        if self.dataset.csv is not None else {"synthetic": src["synthetic"]})
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """The config a JSON document describes, read by config.read_config. A
        dataset object with a csv key reads that file, whatever synthetic
        section it also holds (--set dataset.csv=PATH switches to a file); one
        without reads its synthetic section, by default the default generator."""
        src = d.get("dataset") if isinstance(d, dict) else None
        if isinstance(src, dict):
            d = {**d, "dataset": ({**src, "synthetic": None} if "csv" in src
                                  else {"synthetic": {}, **src})}
        return read_config(cls, d, "config")


def effective_graph_config(config: RunConfig) -> sg.GraphConfig:
    """The no-ranked-edges ablation is realized at graph build time."""
    return config.graph if config.model.modules.ranked else replace(config.graph, top_k=0)


def load_dataset(config: RunConfig, log=None) -> np.recarray:
    """The configured records; a CSV's skipped rows are counted to log, with
    the first one's row number and reason."""
    if config.dataset.csv is None:
        return ds.generate_synthetic(config.dataset.synthetic)
    report = ds.load_records(config.dataset.csv, config.dataset.time_format)
    if report.skipped_rows and log:
        row, reason = report.skipped_rows[0]
        log(f"warning: skipped {len(report.skipped_rows)} invalid rows "
            f"(first: row {row}: {reason})")
    return report.records


@dataclass
class PreparedData:
    stats: ds.PreprocessStats
    history_nodes: ds.NodeTable   # init + train, ids 0..n_hist-1
    test_records: np.recarray  # of ds.RECORD_DTYPE
    init_count: int


def _prepare(config: RunConfig, records, history, test_records, init_count: int,
             stats: ds.PreprocessStats | None = None) -> PreparedData:
    """Preprocess the time-sorted history under stats, by default fitted on it
    with a time range over every record so test timestamps stay in [0, 1]."""
    if stats is None:
        times = records["collect_time"]
        stats = ds.fit_standardizer(history, time_range=(times.min(), times.max()))
    return PreparedData(stats=stats,
                        history_nodes=ds.preprocess_records(history, stats,
                                                            config.features),
                        test_records=test_records, init_count=init_count)


def prepare_data(config: RunConfig, records=None,
                 stats: ds.PreprocessStats | None = None, log=None) -> PreparedData:
    """Split records in time order and preprocess the historical part.

    Standardization statistics come from the historical (init + train) rows
    unless given (a checkpoint's, so new data is read as the model was
    trained); the time range spans the whole segment.
    """
    if records is None:
        records = load_dataset(config, log)
    init_recs, train_recs, test_recs = ds.split_segment(records, config.split)
    return _prepare(config, records, records[:len(init_recs) + len(train_recs)], test_recs,
                    len(init_recs), stats)


@dataclass
class RunResult:
    config: RunConfig
    checkpoint: tr.Checkpoint
    test_report: ev.EvalReport
    timings: dict[str, float]


def build_history_graph(config: RunConfig,
                        data: PreparedData) -> tuple[sg.STGraph, sg.GraphConfig]:
    """The init + train graph under the effective graph config, and that config."""
    graph_cfg = effective_graph_config(config)
    cols = sg.graph_nodes_from_processed(data.history_nodes)
    return sg.build_graph(cols, data.init_count, graph_cfg), graph_cfg


def _train_model(config: RunConfig, data: PreparedData, log=None):
    t0 = time.perf_counter()
    graph, graph_cfg = build_history_graph(config, data)
    t_graph = time.perf_counter() - t0

    t0 = time.perf_counter()
    result = tr.train_on_graph(graph, data.history_nodes, config.model,
                               config.train, graph_cfg, log=log)
    t_train = time.perf_counter() - t0
    return graph, graph_cfg, result, {"graph_build": t_graph, "train": t_train}


def _forecast(config: RunConfig, data: PreparedData, graph, graph_cfg, params,
              strategy: str, allow_past: bool = False):
    """(observed, predicted) values of the test records, forecast in order.

    The test records are the queries: each sits at its own coordinates, so
    test locations need no historical observation (spatial generalization
    splits have none).
    """
    ctx = InferenceContext(params=params, model_config=config.model,
                           graph_config=graph_cfg, stats=data.stats,
                           schema=config.features)
    test = data.test_records
    yhat = tr.predict_sequence(ctx, graph, data.history_nodes, test, strategy,
                               allow_past=allow_past)
    return np.array(test["detect_info"]), yhat


def evaluate_test(config: RunConfig, data: PreparedData, graph, graph_cfg,
                  params, strategy: str | None = None) -> ev.EvalReport:
    """Predict the held-out records under the configured strategy and score."""
    strategy = strategy or config.strategy
    y_true, yhat = _forecast(config, data, graph, graph_cfg, params, strategy)
    return ev.build_report(y_true, yhat,
                           {"kind": "temporal", "strategy": strategy,
                            "n_test": len(y_true)})


def run_experiment(config: RunConfig, log=None, records=None) -> RunResult:
    """Train one model per the config and evaluate it on the test split."""
    data = prepare_data(config, records=records, log=log)
    graph, graph_cfg, result, timings = _train_model(config, data, log=log)

    t0 = time.perf_counter()
    test_report = evaluate_test(config, data, graph, graph_cfg, result.params)
    timings["predict"] = time.perf_counter() - t0

    ckpt = tr.Checkpoint(model_config=config.model, graph_config=graph_cfg,
                         train_config=config.train, stats=data.stats,
                         schema=config.features, params=result.params,
                         adam=result.adam, loss_trace=result.loss_trace,
                         final_train_mae=result.final_train_mae,
                         run_config=config.to_dict(),
                         attention_max_dev=result.attention_max_dev)
    return RunResult(config=config, checkpoint=ckpt, test_report=test_report,
                     timings=timings)


# ---------------------------------------------------------------------------
# Experiment matrices


MATRIX_AXES = ("variant", "heads", "layers", "env_mask", "generalization")
HEADS_SWEEP = (1, 5, 10)
LAYERS_SWEEP = (1, 2, 3)


@dataclass
class MatrixRow:
    axis: str
    cell: str
    train_mae: float
    test_mae: float
    test_mse: float
    test_rmse: float
    wall_s: float


def run_matrix(config: RunConfig, axes, log=None,
               gen_intervals=None) -> list[MatrixRow]:
    """One row per cell over the requested experiment axes, seeds held fixed."""
    unknown = [a for a in axes if a not in MATRIX_AXES]
    if unknown:
        raise RunConfigError(f"unknown matrix axes {unknown}; choose from {MATRIX_AXES}")
    records = load_dataset(config, log)
    n = len(records)
    intervals = gen_intervals if gen_intervals is not None else (0, n // 20, n // 10)
    model_sweeps = {"variant": ("{}", VARIANTS), "heads": ("H={}", HEADS_SWEEP),
                    "layers": ("L={}", LAYERS_SWEEP)}
    cells = []  # (axis, cell, run config, (generalization axis, gap) or None)
    for axis in axes:
        if axis in model_sweeps:
            label, values = model_sweeps[axis]
            cells += [(axis, label.format(v),
                       replace(config, model=replace(config.model, **{axis: v})), None)
                      for v in values]
        elif axis == "env_mask":
            cells += [(axis, f"mask:{f}",
                       replace(config, features=config.features.without_env(f)), None)
                      for f in config.features.env_features]
        else:
            cells += [(axis, f"{ax}:s={s}", config, (ax, s))
                      for ax in ("time", "longitude", "latitude") for s in intervals]

    rows: list[MatrixRow] = []
    for axis, cell, cell_cfg, split in cells:
        t0 = time.perf_counter()
        if split is None:
            result = run_experiment(cell_cfg, records=records)
            train_mae, report = result.checkpoint.final_train_mae, result.test_report
        else:
            report = run_generalization(cell_cfg, split[0], int(0.7 * n), split[1],
                                        records=records)
            train_mae = report.train_mae
        rows.append(MatrixRow(axis, cell, train_mae, report.mae, report.mse,
                              report.rmse, time.perf_counter() - t0))
        if log:
            log(f"{axis}/{cell}: test mae {report.mae:.4f}")
    return rows


# ---------------------------------------------------------------------------
# Generalization splits (train one side of an axis, predict the other)


def run_generalization(config: RunConfig, axis: str, k: int, s: int,
                       records=None, log=None) -> ev.EvalReport:
    """Axis-sorted split with a removed gap; queries may sit inside the
    historical time span, so parents are restricted to no-later train nodes."""
    if records is None:
        records = load_dataset(config, log)
    t, loc = records["collect_time"], records["location_id"]
    history, test = (records[ids[np.lexsort((loc[ids], t[ids]))]]  # stable: ties keep
                     for ids in ev.generalization_split(records, axis, k, s))  # the axis order
    data = _prepare(config, records, history, test,
                    init_count=max(1, int(len(history) * config.split[0])))
    graph, graph_cfg, result, _ = _train_model(config, data, log=log)
    y_true, yhat = _forecast(config, data, graph, graph_cfg, result.params,
                             "ignore", allow_past=True)
    return ev.build_report(y_true, yhat,
                           {"kind": "generalization", "axis": axis, "k": k, "s": s},
                           train_mae=result.final_train_mae)
