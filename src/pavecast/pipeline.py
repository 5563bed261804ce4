"""End-to-end experiment wiring: config -> data -> graph -> model -> report.

One RunConfig JSON document fully determines a run: dataset source, split
fractions, graph thresholds, model variant and sizes, training settings,
and the master seed. Reruns of the same config produce identical artifacts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import dataset as ds
from . import evaluation as ev
from . import stgraph as sg
from . import trainer as tr
from .model import ModelConfig
from .trainer import InferenceContext, Query, TrainConfig


class RunConfigError(ValueError):
    """Run configuration missing or contradictory."""


def reference_benchmark_config(seed: int = 0) -> "RunConfig":
    """The frozen synthetic benchmark used for model-ordering runs.

    2000 records, 10/70/20 temporal split, default graph thresholds. The
    model is deliberately narrow (hidden 48) and trained 250 epochs: at this
    capacity the attention variants separate cleanly and reseeded runs land
    within a few thousandths of each other.
    """
    return RunConfig(
        seed=seed,
        dataset=DatasetSource(synthetic=ds.SyntheticConfig(
            seed=0, driver_obs_bias=0.0, driver_spell_days=(35.0, 120.0))),
        model=ModelConfig(variant="stgan", hidden=48, extractor_hidden=(24, 48),
                          head_hidden=48),
        train=TrainConfig(epochs=250))


@dataclass(frozen=True)
class DatasetSource:
    """Exactly one of: a CSV path, or a synthetic generator config."""

    csv: str | None = None
    time_format: str = "days"
    synthetic: ds.SyntheticConfig | None = None

    def __post_init__(self):
        if (self.csv is None) == (self.synthetic is None):
            raise RunConfigError("dataset needs exactly one of csv or synthetic")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
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
        d = {
            "seed": self.seed,
            "split": list(self.split),
            "strategy": self.strategy,
            "graph": asdict(self.graph),
            "model": self.model.to_dict(),
            "train": asdict(self.train),
            "features": {"env_features": list(self.features.env_features),
                         "include_type_onehot": self.features.include_type_onehot,
                         "include_conf": self.features.include_conf},
        }
        if self.dataset.csv is not None:
            d["dataset"] = {"csv": self.dataset.csv,
                            "time_format": self.dataset.time_format}
        else:
            d["dataset"] = {"synthetic": asdict(self.dataset.synthetic)}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        src = d.get("dataset", {})
        if "csv" in src:
            dataset = DatasetSource(csv=src["csv"],
                                    time_format=src.get("time_format", "days"))
        elif "synthetic" in src:
            dataset = DatasetSource(synthetic=ds.SyntheticConfig(**src["synthetic"]))
        else:
            dataset = DatasetSource(synthetic=ds.SyntheticConfig())
        feats = d.get("features", {})
        schema = ds.FeatureSchema(
            env_features=tuple(feats.get("env_features", ds.ENV_FEATURES)),
            include_type_onehot=feats.get("include_type_onehot", True),
            include_conf=feats.get("include_conf", True))
        return cls(
            seed=d.get("seed", 0),
            dataset=dataset,
            split=tuple(d.get("split", (0.1, 0.7, 0.2))),
            strategy=d.get("strategy", "ignore"),
            graph=sg.GraphConfig(**d.get("graph", {})),
            model=ModelConfig.from_dict({**ModelConfig().to_dict(), **d.get("model", {})}),
            train=TrainConfig(**d.get("train", {})),
            features=schema)


def effective_graph_config(config: RunConfig) -> sg.GraphConfig:
    """The no-ranked-edges ablation is realized at graph build time."""
    if config.model.variant == "stgan_no_top":
        return replace(config.graph, top_k=0)
    return config.graph


def load_dataset(config: RunConfig) -> list[ds.RawRecord]:
    if config.dataset.csv is not None:
        report = ds.load_records(config.dataset.csv,
                                 ds.CsvSchema(time_format=config.dataset.time_format))
        return report.records
    return ds.generate_synthetic(config.dataset.synthetic)


@dataclass
class PreparedData:
    records: list[ds.RawRecord]
    stats: ds.PreprocessStats
    history_nodes: list[ds.ProcessedNode]   # init + train, ids 0..n_hist-1
    test_records: list[ds.RawRecord]
    init_count: int


def prepare_data(config: RunConfig, records=None) -> PreparedData:
    """Split records in time order and preprocess the historical part.

    Standardization statistics come from the historical (init + train) rows;
    the time range spans the whole segment so test timestamps stay in [0, 1].
    """
    if records is None:
        records = load_dataset(config)
    init_recs, train_recs, test_recs = ds.split_segment(records, config.split)
    history = init_recs + train_recs
    times = [r.collect_time for r in records]
    stats = ds.fit_standardizer(history, time_range=(min(times), max(times)))
    history_nodes = ds.preprocess_records(history, stats, config.features)
    return PreparedData(records=records, stats=stats, history_nodes=history_nodes,
                        test_records=test_recs, init_count=len(init_recs))


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
    meta = sg.graph_nodes_from_processed(data.history_nodes, data.init_count)
    return sg.build_graph(meta, data.init_count, graph_cfg), graph_cfg


def _train_model(config: RunConfig, data: PreparedData, log=None):
    t0 = time.perf_counter()
    graph, graph_cfg = build_history_graph(config, data)
    t_graph = time.perf_counter() - t0

    train_cfg = replace(config.train, seed=config.seed)
    t0 = time.perf_counter()
    result = tr.train_on_graph(graph, data.history_nodes, config.model,
                               train_cfg, graph_cfg, log=log)
    t_train = time.perf_counter() - t0
    return graph, graph_cfg, train_cfg, result, {"graph_build": t_graph,
                                                 "train": t_train}


def evaluate_test(config: RunConfig, data: PreparedData, graph, graph_cfg,
                  params, strategy: str | None = None) -> ev.EvalReport:
    """Predict the held-out records under the configured strategy and score."""
    strategy = strategy or config.strategy
    ctx = InferenceContext(params=params, model_config=config.model,
                           graph_config=graph_cfg, stats=data.stats,
                           schema=config.features)
    queries = [Query(r.location_id, r.collect_time,
                     coords=(r.longitude_gcj, r.latitude_gcj))
               for r in data.test_records]
    y_true = np.array([r.detect_info for r in data.test_records])
    yhat = tr.predict_sequence(ctx, graph, data.history_nodes, queries, strategy,
                               observed=data.test_records)
    return ev.build_report(y_true, yhat,
                           {"kind": "temporal", "strategy": strategy,
                            "n_test": len(queries)})


def run_experiment(config: RunConfig, log=None, records=None) -> RunResult:
    """Train one model per the config and evaluate it on the test split."""
    data = prepare_data(config, records=records)
    graph, graph_cfg, train_cfg, result, timings = _train_model(config, data, log=log)

    t0 = time.perf_counter()
    test_report = evaluate_test(config, data, graph, graph_cfg, result.params)
    timings["predict"] = time.perf_counter() - t0

    ckpt = tr.Checkpoint(model_config=config.model, graph_config=graph_cfg,
                         train_config=train_cfg, stats=data.stats,
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


def _matrix_cell(axis: str, cell: str, config: RunConfig, records) -> MatrixRow:
    t0 = time.perf_counter()
    result = run_experiment(config, records=records)
    return MatrixRow(axis=axis, cell=cell,
                     train_mae=result.checkpoint.final_train_mae,
                     test_mae=result.test_report.mae,
                     test_mse=result.test_report.mse,
                     test_rmse=result.test_report.rmse,
                     wall_s=time.perf_counter() - t0)


def run_matrix(config: RunConfig, axes, log=None,
               gen_intervals=None) -> list[MatrixRow]:
    """One row per cell over the requested experiment axes, seeds held fixed."""
    from .model import VARIANTS
    unknown = [a for a in axes if a not in MATRIX_AXES]
    if unknown:
        raise RunConfigError(f"unknown matrix axes {unknown}; choose from {MATRIX_AXES}")
    records = load_dataset(config)
    rows: list[MatrixRow] = []

    def note(row):
        rows.append(row)
        if log:
            log(f"{row.axis}/{row.cell}: test mae {row.test_mae:.4f}")

    for axis in axes:
        if axis == "variant":
            for variant in VARIANTS:
                cell_cfg = replace(config, model=replace(config.model, variant=variant))
                note(_matrix_cell(axis, variant, cell_cfg, records))
        elif axis == "heads":
            for h in HEADS_SWEEP:
                cell_cfg = replace(config, model=replace(config.model, heads=h))
                note(_matrix_cell(axis, f"H={h}", cell_cfg, records))
        elif axis == "layers":
            for layers in LAYERS_SWEEP:
                cell_cfg = replace(config, model=replace(config.model, layers=layers))
                note(_matrix_cell(axis, f"L={layers}", cell_cfg, records))
        elif axis == "env_mask":
            for feature in config.features.env_features:
                cell_cfg = replace(config,
                                   features=config.features.without_env(feature))
                note(_matrix_cell(axis, f"mask:{feature}", cell_cfg, records))
        elif axis == "generalization":
            n = len(records)
            k = int(0.7 * n)
            intervals = gen_intervals if gen_intervals is not None \
                else (0, n // 20, n // 10)
            for ax in ("time", "longitude", "latitude"):
                for s in intervals:
                    t0 = time.perf_counter()
                    report = run_generalization(config, ax, k, s, records=records)
                    note(MatrixRow(axis="generalization", cell=f"{ax}:s={s}",
                                   train_mae=report.train_mae,
                                   test_mae=report.mae, test_mse=report.mse,
                                   test_rmse=report.rmse,
                                   wall_s=time.perf_counter() - t0))
    return rows


# ---------------------------------------------------------------------------
# Generalization splits (train one side of an axis, predict the other)


def run_generalization(config: RunConfig, axis: str, k: int, s: int,
                       records=None, log=None) -> ev.EvalReport:
    """Axis-sorted split with a removed gap; queries may sit inside the
    historical time span, so parents are restricted to no-later train nodes."""
    if records is None:
        records = load_dataset(config)
    all_stats = ds.fit_standardizer(records)  # axis split: fit range over all
    probe_nodes = ds.preprocess_records(records, all_stats, config.features)
    train_ids, test_ids = ev.generalization_split(probe_nodes, axis, k, s)

    train_records = sorted((records[i] for i in train_ids),
                           key=lambda r: (r.collect_time, r.location_id))
    test_records = sorted((records[i] for i in test_ids),
                          key=lambda r: (r.collect_time, r.location_id))
    times = [r.collect_time for r in records]
    stats = ds.fit_standardizer(train_records, time_range=(min(times), max(times)))
    history_nodes = ds.preprocess_records(train_records, stats, config.features)
    data = PreparedData(records=records, stats=stats, history_nodes=history_nodes,
                        test_records=test_records,
                        init_count=max(1, int(len(history_nodes) * config.split[0])))
    graph, graph_cfg, _, result, _ = _train_model(config, data, log=log)

    ctx = InferenceContext(params=result.params, model_config=config.model,
                           graph_config=graph_cfg, stats=stats,
                           schema=config.features)
    # spatial splits put test locations outside the training set, so each
    # query carries the record's own coordinates
    queries = [Query(r.location_id, r.collect_time,
                     coords=(r.longitude_gcj, r.latitude_gcj))
               for r in test_records]
    yhat = tr.predict_sequence(ctx, graph, history_nodes, queries, allow_past=True)
    y_true = np.array([r.detect_info for r in test_records])
    return ev.build_report(y_true, yhat,
                           {"kind": "generalization", "axis": axis, "k": k, "s": s},
                           train_mae=result.final_train_mae)
