"""End-to-end experiment wiring: config -> data -> graph -> model -> report.

One RunConfig JSON document fully determines a run: dataset source, split
fractions, graph thresholds, model variant and sizes, training settings,
and the master seed. Reruns of the same config produce identical artifacts.
Generalization runs (train one side of an axis, forecast the other) reuse
the temporal run's preparation, training and forecast steps; only the
split differs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, asdict, replace
from operator import attrgetter

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
        if self.seed < 0:
            raise RunConfigError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        d = {
            "seed": self.seed,
            "split": list(self.split),
            "strategy": self.strategy,
            "graph": asdict(self.graph),
            "model": self.model.to_dict(),
            "train": asdict(self.train),
            "features": asdict(self.features),
        }
        if self.dataset.csv is not None:
            d["dataset"] = {"csv": self.dataset.csv,
                            "time_format": self.dataset.time_format}
        else:
            d["dataset"] = {"synthetic": asdict(self.dataset.synthetic)}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """The config a JSON document describes; RunConfigError names the first
        key no section has and the first value of a type its field rejects."""
        d = _checked(cls, "config", d)
        src = _checked(DatasetSource, "dataset", d.get("dataset", {}))
        if "csv" in src:
            dataset = DatasetSource(csv=src["csv"],
                                    time_format=src.get("time_format", "days"))
        else:
            dataset = DatasetSource(synthetic=ds.SyntheticConfig(**_checked(
                ds.SyntheticConfig, "dataset.synthetic", src.get("synthetic", {}))))
        feats = _checked(ds.FeatureSchema, "features", d.get("features", {}))
        return cls(
            seed=d.get("seed", 0),
            dataset=dataset,
            split=tuple(d.get("split", (0.1, 0.7, 0.2))),
            strategy=d.get("strategy", "ignore"),
            graph=sg.GraphConfig(**_checked(sg.GraphConfig, "graph", d.get("graph", {}))),
            model=ModelConfig.from_dict({**ModelConfig().to_dict(),
                                         **_checked(ModelConfig, "model", d.get("model", {}))}),
            train=TrainConfig(**_checked(TrainConfig, "train", d.get("train", {}))),
            features=ds.FeatureSchema(**{**feats, "env_features": tuple(
                feats.get("env_features", ds.ENV_FEATURES))}))


# JSON types a field annotation names; any other name is a config section
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str,
               "tuple": (list, tuple), "None": type(None)}


def _admits(annotation: str, value) -> bool:
    """Whether a JSON value fits a field annotation such as "int | None" or
    "tuple[float, ...]" (element by element); a bool is no number."""
    for option in annotation.split("|"):
        name, _, inner = option.strip().partition("[")
        if isinstance(value, bool) and name != "bool":
            continue
        if isinstance(value, _JSON_TYPES.get(name, dict)) and (
                not inner or all(_admits(inner.split(",")[0].rstrip("]"), v)
                                 for v in value)):
            return True
    return False


def _checked(cls, section: str, values) -> dict:
    """values, once every key is a field of cls and every value fits its
    field's annotation."""
    if not isinstance(values, dict):
        raise RunConfigError(f"{section} must be an object, got {values!r}")
    annotations = {f.name: f.type for f in fields(cls)}
    for key, value in values.items():
        if key not in annotations:
            raise RunConfigError(f"unknown {section} key {key!r}")
        if not _admits(annotations[key], value):
            raise RunConfigError(f"{section}.{key} must be {annotations[key]}, "
                                 f"got {value!r}")
    return values


def effective_graph_config(config: RunConfig) -> sg.GraphConfig:
    """The no-ranked-edges ablation is realized at graph build time."""
    if config.model.variant == "stgan_no_top":
        return replace(config.graph, top_k=0)
    return config.graph


def load_dataset(config: RunConfig, log=None) -> list[ds.RawRecord]:
    """The configured records; a CSV's skipped rows are counted to log, with
    the first one's row number and reason."""
    if config.dataset.csv is None:
        return ds.generate_synthetic(config.dataset.synthetic)
    report = ds.load_records(config.dataset.csv,
                             ds.CsvSchema(time_format=config.dataset.time_format))
    if report.skipped_rows and log:
        row, reason = report.skipped_rows[0]
        log(f"warning: skipped {len(report.skipped_rows)} invalid rows "
            f"(first: row {row}: {reason})")
    return report.records


@dataclass
class PreparedData:
    stats: ds.PreprocessStats
    history_nodes: list[ds.ProcessedNode]   # init + train, ids 0..n_hist-1
    test_records: list[ds.RawRecord]
    init_count: int


def _prepare(config: RunConfig, records, history, test_records, init_count: int,
             stats: ds.PreprocessStats | None = None) -> PreparedData:
    """Preprocess the time-sorted history under stats, by default fitted on it
    with a time range over every record so test timestamps stay in [0, 1]."""
    if stats is None:
        times = [r.collect_time for r in records]
        stats = ds.fit_standardizer(history, time_range=(min(times), max(times)))
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
    return _prepare(config, records, init_recs + train_recs, test_recs,
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

    train_cfg = replace(config.train, seed=config.seed)
    t0 = time.perf_counter()
    result = tr.train_on_graph(graph, data.history_nodes, config.model,
                               train_cfg, graph_cfg, log=log)
    t_train = time.perf_counter() - t0
    return graph, graph_cfg, train_cfg, result, {"graph_build": t_graph,
                                                 "train": t_train}


def _forecast(config: RunConfig, data: PreparedData, graph, graph_cfg, params,
              strategy: str, allow_past: bool = False):
    """(observed, predicted) values of the test records, forecast in order.

    Each query carries its record's own coordinates, so test locations need
    no historical observation (spatial generalization splits have none).
    """
    ctx = InferenceContext(params=params, model_config=config.model,
                           graph_config=graph_cfg, stats=data.stats,
                           schema=config.features)
    queries = [Query(r.location_id, r.collect_time,
                     coords=(r.longitude_gcj, r.latitude_gcj))
               for r in data.test_records]
    yhat = tr.predict_sequence(ctx, graph, data.history_nodes, queries, strategy,
                               observed=data.test_records, allow_past=allow_past)
    return np.array([r.detect_info for r in data.test_records]), yhat


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


def run_matrix(config: RunConfig, axes, log=None,
               gen_intervals=None) -> list[MatrixRow]:
    """One row per cell over the requested experiment axes, seeds held fixed."""
    from .model import VARIANTS
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
    train_ids, test_ids = ev.generalization_split(records, axis, k, s)
    by_time = attrgetter("collect_time", "location_id")
    history = sorted((records[i] for i in train_ids), key=by_time)
    data = _prepare(config, records, history,
                    sorted((records[i] for i in test_ids), key=by_time),
                    init_count=max(1, int(len(history) * config.split[0])))
    graph, graph_cfg, _, result, _ = _train_model(config, data, log=log)
    y_true, yhat = _forecast(config, data, graph, graph_cfg, result.params,
                             "ignore", allow_past=True)
    return ev.build_report(y_true, yhat,
                           {"kind": "generalization", "axis": axis, "k": k, "s": s},
                           train_mae=result.final_train_mae)
