"""Full-batch training, autoregressive prediction, and checkpointing.

Training runs full-batch over the training nodes' ancestor cone in the
initialization + training graph, with the mean-absolute-error loss taken
over training nodes only (initialization nodes pass messages but are never
scored, and those outside the cone reach no loss term). Prediction is graph
autoregression. predict_sequence answers a query table, records of
dataset.RECORD_DTYPE in time order, under a continuation strategy: it
appends every query as a row and wires them all in one call, since a row's
parents depend on the coordinates and times before it alone. "ignore"
wires every query against the history; "true" and "predicted" wire each
query against everything before it. The rows are a dataset.NodeTable: a
spatial-temporal row per query (dataset.query_nodes, which reads only the
query's location, coordinates and time), or under "true" the query's whole
record (dataset.preprocess_records). predict_sequence reads the caller's
graph and node table and writes neither: it forecasts on the graph that
STGraph.grow returns and on the table that joins the caller's and the
query rows.

Edges point from older to newer rows, so an L-layer model's prediction for
a query reads only the rows within L parent hops of it (its ancestor cone),
and never its own row's features (the leakage barrier: the self loop
carries only the spatial-temporal representation). Under "ignore" no query
is in another's cone. Under "true" every row holds its record from the
start, which is what a later forecast should read of it. Either way one
predict_one step answers every query: one prepare_tensors over the joint
ancestor cone and one forward pass.

Only "predicted" writes a forecast back into the graph, so only it has to
wait: a query's forecast reads its cone's earlier queries, which must hold
their own forecasts first. Its forecasts are level-synchronous. A query's
level is 1 plus the highest level among the earlier queries in its cone,
or 1 if there are none (query_levels). Two queries on one level are not in
each other's cones, so one predict_one step answers the whole level, after
which the level's rows take their forecasts (dataset.write_readings) for the
levels above. Nothing is cached: each step flattens its cone afresh, so
nothing goes stale when a level's rows are overwritten.

Checkpoints are a JSON manifest followed by little-endian float64 parameter
sections with per-section checksums; identical (config, seed, data) produce
byte-identical files. Adam's hyperparameters and step count are kept, its
moments are not: nothing resumes training from a checkpoint. The checksums
do not cover the manifest, so load_checkpoint raises
CheckpointIntegrityError naming any manifest section it cannot build or
whose values have the wrong type, and the first parameter whose name or
shape differs from what model.param_shapes lists for the manifest's model
config and feature widths.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from . import ndgrad as ng
from .config import read_config, read_field
from .dataset import (COORD_BOUNDS, FeatureSchema, NodeTable, PreprocessStats,
                      preprocess_records, query_nodes, write_readings)
from .model import (ModelConfig, attention_sum_deviation, first_nonfinite_primitive,
                    forward_values, init_params, loss_and_grads, param_shapes,
                    prepare_tensors)
from .stgraph import GraphConfig, STGraph

STRATEGIES = ("ignore", "true", "predicted")

CHECKPOINT_MAGIC = b"PVCASTCK"
CHECKPOINT_VERSION = 4


class DivergenceError(ArithmeticError):
    """Training loss became non-finite; names the first non-finite primitive."""


class QueryError(ValueError):
    """A prediction query violates the temporal or location contract."""


class StrategyError(ValueError):
    """A continuation strategy was misused."""


class CheckpointVersionError(ValueError):
    """Checkpoint written by an incompatible format version."""


class CheckpointIntegrityError(ValueError):
    """Checkpoint bytes fail a structural or checksum test."""


class TrainConfigError(ValueError):
    """Training settings out of range."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 200
    lr: float = 0.004
    seed: int = 0
    log_every: int = 0  # 0 silences progress lines
    track_attention: bool = False

    def __post_init__(self):
        if self.epochs < 0 or not 0 < self.lr < math.inf:
            raise TrainConfigError("epochs must be >= 0 and lr finite and > 0")
        for name in ("seed", "log_every"):
            if getattr(self, name) < 0:
                raise TrainConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class TrainResult:
    """attention_max_dev covers the coefficients of the training cone (see
    train_on_graph). Its rows model_config.layers hops from the loss rows,
    all initialization rows, keep only their self loop, whose one
    coefficient is exactly 1."""

    params: dict[str, np.ndarray]
    adam: ng.AdamState
    loss_trace: list[float]
    final_train_mae: float
    attention_max_dev: float | None


# numpy's overflow warnings would repeat what DivergenceError reports: the
# non-finite loss and the primitive that first produced a non-finite value
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_on_graph(graph: STGraph, nodes: NodeTable,
                   model_config: ModelConfig, train_config: TrainConfig,
                   graph_config: GraphConfig, log=None) -> TrainResult:
    """Full-batch Adam on the MAE loss over an init+train graph.

    The loss covers exactly the non-initialization nodes; test nodes must
    not be in the graph at all. The tensors flatten only the loss rows'
    ancestor cone within model_config.layers parent hops (the loss rows
    are its targets, as predict_one's queries are its), since the loss
    reads nothing outside it; degrees, and so gcn_w, stay the whole
    graph's. The epochs, a divergence's diagnosis, the final forward pass
    behind final_train_mae and the attention probes all run on it. Every
    epoch repeats one sweep with the same array shapes, so the epochs share
    one ndgrad.Workspace, which keeps their large arrays from the second
    epoch on; it is dropped before the final forward pass. A graph without
    loss rows raises ModelConfigError before any epoch, whatever the count.
    """
    gt = prepare_tensors(graph, nodes, l_res_m=graph_config.l_res_m,
                         targets=np.arange(graph.init_count, graph.n),
                         hops=model_config.layers)
    params = init_params(model_config, gt.x_full.shape[1], gt.x_st.shape[1],
                         train_config.seed)
    adam = ng.adam_init(params, lr=train_config.lr)
    trace: list[float] = []
    max_dev = 0.0 if train_config.track_attention else None
    workspace = ng.Workspace()
    for epoch in range(train_config.epochs):
        probes = [] if train_config.track_attention else None
        loss, grads = loss_and_grads(gt, params, model_config, probes=probes,
                                     workspace=workspace)
        if not math.isfinite(loss):
            kind = first_nonfinite_primitive(gt, params, model_config)
            raise DivergenceError(f"loss became non-finite at epoch {epoch}, "
                                  f"first in a {kind} primitive")
        if probes is not None:
            max_dev = max(max_dev, attention_sum_deviation(probes))
        trace.append(loss)
        ng.adam_step(params, grads, adam)
        if log and train_config.log_every and epoch % train_config.log_every == 0:
            log(f"epoch {epoch}: train mae {loss:.6f}")
    del workspace  # its buffers would sit idle under the forward pass's arrays
    final_probes = [] if train_config.track_attention else None
    yhat = forward_values(gt, params, model_config, probes=final_probes)
    if final_probes is not None:
        max_dev = max(max_dev, attention_sum_deviation(final_probes))
    final_mae = float(np.mean(np.abs(yhat - gt.y[gt.targets])))
    return TrainResult(params=params, adam=adam, loss_trace=trace,
                       final_train_mae=final_mae, attention_max_dev=max_dev)


# ---------------------------------------------------------------------------
# Prediction


@dataclass
class InferenceContext:
    """Everything a frozen model needs to answer queries."""

    params: dict[str, np.ndarray]
    model_config: ModelConfig
    graph_config: GraphConfig
    stats: PreprocessStats
    schema: FeatureSchema


def query_levels(graph: STGraph, base_n: int) -> np.ndarray:
    """The level of each query row base_n, base_n + 1, ... of a grown graph.

    A query's level is 1 plus the highest level among the query rows
    within L parent hops of it, or 1 if there are none. History rows never
    have query parents, so a chain of parent hops from a query to an
    earlier one starts with a query parent, whose level already exceeds
    that earlier query's. Levels therefore follow from the query-to-query
    edges alone, for every L. Parents precede children in the CSR, so one
    pass over those edges in row order computes every level.
    """
    parent = graph.parent[graph.offsets[base_n]:] - base_n
    levels = np.ones(graph.n - base_n, dtype=np.intp)
    linked = parent >= 0
    if not linked.any():
        return levels
    child = np.repeat(np.arange(len(levels)), np.diff(graph.offsets[base_n:]))
    lv = levels.tolist()
    for c, p in zip(child[linked].tolist(), parent[linked].tolist()):
        lv[c] = max(lv[c], lv[p] + 1)
    return np.array(lv)


def predict_one(ctx: InferenceContext, graph: STGraph, nodes: NodeTable,
                rows) -> np.ndarray:
    """One autoregressive step: the forecasts for graph rows `rows`, in order.

    Runs one forward pass over the rows' joint ancestor cone only. Edges
    point from older rows to newer ones, so rows after the newest target
    never enter that cone. A target may lie in another's cone only if its
    row already holds what the other's forecast should read of it: its
    observed record (a history row, or a query under "true"), never a
    forecast still to be made. Its own forecast does not read its own row's
    features, which the leakage barrier keeps out.
    """
    gt = prepare_tensors(graph, nodes, l_res_m=ctx.graph_config.l_res_m,
                         targets=rows, hops=ctx.model_config.layers)
    return forward_values(gt, ctx.params, ctx.model_config)


def predict_sequence(ctx: InferenceContext, graph: STGraph, nodes: NodeTable,
                     queries: np.recarray, strategy: str = "ignore",
                     allow_past: bool = False) -> np.ndarray:
    """Forecast a query table under one continuation strategy.

    queries is a records table (dataset.RECORD_DTYPE) sorted by
    collect_time; each record is a query at its own location, coordinates
    and time. Every query becomes a row, and one combined_parents call wires
    them all. "ignore" wires each query against the history alone.
    allow_past admits ignore-strategy queries timestamped inside the
    historical span (for generalization splits); their parents are then the
    no-later history. "true" and "predicted" wire each query against every
    row before it, earlier queries included.

    Under "ignore" and "predicted" a row carries spatial-temporal features
    only (dataset.query_nodes), read from the query's coordinates and time;
    its other columns are not read. Under "ignore" no query has a query
    parent. Under "true" a row holds the query's whole record from the start
    (dataset.preprocess_records): a forecast never reads its own row's
    features, and every earlier query it reads already holds its record.
    "ignore" and "true" take one predict_one pass for every query. Under
    "predicted" a query's row must hold its forecast before later forecasts
    read it, so the queries are answered level by level (see query_levels),
    one predict_one step per level. Two queries on one level are not within
    L parent hops of each other, so neither forecast reads the other's row;
    every query within L hops of a query sits on a lower level, and its row
    took its forecast after that level's step. The forecast runs on a grown
    copy of the graph and node table: it reads the caller's and writes
    neither.
    """
    if strategy not in STRATEGIES:
        raise StrategyError(f"unknown strategy {strategy!r}")
    times = queries["collect_time"]
    if not np.isfinite(times).all():
        raise QueryError(f"query time {times[~np.isfinite(times)][0]} is not finite")
    if (np.diff(times) < 0).any():
        raise QueryError("queries must be sorted by time")
    for name, bound in COORD_BOUNDS.items():
        off = ~(np.abs(queries[name]) <= bound)
        if off.any():
            raise QueryError(f"query {name} {queries[name][off][0]} is outside "
                             f"[-{bound}, {bound}]")
    if not len(queries):
        return np.empty(0)

    base_n, history = graph.n, graph.t_raw
    if base_n and not (allow_past and strategy == "ignore") and times[0] < history[-1]:
        raise QueryError(f"query time {times[0]} precedes the latest historical observation")
    if strategy == "true":
        rows = preprocess_records(queries, ctx.stats, ctx.schema)
    else:
        place_and_time = ("location_id", *COORD_BOUNDS, "collect_time")
        rows = query_nodes(*(queries[c] for c in place_and_time), ctx.stats, ctx.schema)
    if strategy == "ignore":
        limits = np.searchsorted(history, rows.t_raw, side="right")
    else:
        limits = np.arange(base_n, base_n + len(queries))
    graph = graph.grow([rows.lon, rows.lat, rows.t_raw, rows.t_norm], limits, ctx.graph_config)
    nodes = nodes + rows
    if strategy != "predicted":
        return predict_one(ctx, graph, nodes, base_n + np.arange(len(queries)))
    levels = query_levels(graph, base_n)
    top = int(levels.max())
    out = np.empty(len(queries))
    for level in range(1, top + 1):
        ks = np.flatnonzero(levels == level)
        out[ks] = predict_one(ctx, graph, nodes, base_n + ks)
        if level < top:
            write_readings(nodes, base_n + ks, out[ks], ctx.stats, ctx.schema)
    return out


# ---------------------------------------------------------------------------
# Checkpoint format: MAGIC | u32 version | u64 manifest bytes | manifest JSON
# | packed little-endian float64 parameter sections


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


@dataclass
class Checkpoint:
    model_config: ModelConfig
    graph_config: GraphConfig
    train_config: TrainConfig
    stats: PreprocessStats
    schema: FeatureSchema
    params: dict[str, np.ndarray]
    adam: ng.AdamState  # saved without its moments
    loss_trace: list[float]
    final_train_mae: float
    run_config: dict | None = None
    attention_max_dev: float | None = None


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    blobs, entries, offset = [], [], 0
    for name, arr in ckpt.params.items():
        blob = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        entries.append({"name": f"param:{name}", "shape": list(arr.shape),
                        "offset": offset, "nbytes": len(blob), "crc32": zlib.crc32(blob)})
        blobs.append(blob)
        offset += len(blob)

    manifest = {
        "format_version": CHECKPOINT_VERSION,
        "model_config": asdict(ckpt.model_config),
        "graph_config": asdict(ckpt.graph_config),
        "train_config": asdict(ckpt.train_config),
        "stats": ckpt.stats.to_dict(),
        "feature_schema": asdict(ckpt.schema),
        "adam": {"lr": ckpt.adam.lr, "t": ckpt.adam.t},
        "loss_trace": ckpt.loss_trace,
        "final_train_mae": ckpt.final_train_mae,
        "attention_max_dev": ckpt.attention_max_dev,
        "run_config": ckpt.run_config,
        "sections": entries,
    }
    mbytes = _canonical_json(manifest)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(np.uint32(CHECKPOINT_VERSION).tobytes())
        fh.write(np.uint64(len(mbytes)).tobytes())
        fh.write(mbytes)
        for blob in blobs:
            fh.write(blob)


def _check_param_shapes(params: dict[str, np.ndarray], model_config: ModelConfig,
                        schema: FeatureSchema) -> None:
    """The parameters must be those param_shapes lists for the manifest's
    model_config and feature widths, name for name and shape for shape: the
    checksums cover their bytes, not the config that reads them. Compares
    shapes only; nothing is drawn or allocated."""
    want = param_shapes(model_config, schema.dim_full, schema.dim_st)
    for name, shape in want.items():
        if name not in params:
            raise CheckpointIntegrityError(
                f"checkpoint has no parameter {name}, which its model_config needs")
        if params[name].shape != shape:
            raise CheckpointIntegrityError(
                f"parameter {name} has shape {params[name].shape}, but the manifest's "
                f"model_config and feature_schema give {shape}")
    extra = [name for name in params if name not in want]
    if extra:
        raise CheckpointIntegrityError(
            f"parameter {extra[0]} is not one the manifest's model_config uses")


def load_checkpoint(path) -> Checkpoint:
    """The checkpoint at path; CheckpointIntegrityError also names a manifest
    section that is missing, does not build or holds a value of the wrong type."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise CheckpointIntegrityError("bad magic: not a checkpoint file")
    if len(raw) < 20:
        raise CheckpointIntegrityError("header truncated")
    version = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {version}, this build reads {CHECKPOINT_VERSION}")
    mlen = int(np.frombuffer(raw[12:20], dtype="<u8")[0])
    try:
        manifest = json.loads(raw[20:20 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointIntegrityError(f"manifest unreadable: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CheckpointIntegrityError("manifest is not a JSON object")
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"manifest version {manifest.get('format_version')}, "
            f"this build reads {CHECKPOINT_VERSION}")

    def section(name, read):
        """read(manifest[name]); a section that does not read is named here."""
        if name not in manifest:
            raise CheckpointIntegrityError(f"manifest has no {name} section")
        try:
            return read(manifest[name])
        except CheckpointIntegrityError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointIntegrityError(f"manifest section {name} is malformed: "
                                           f"{type(exc).__name__}: {exc}") from None

    def config(name, cls):
        return section(name, lambda v: read_config(cls, v, name))

    def value(name):  # read as the Checkpoint field of that name holds it
        return section(name, lambda v: read_field(Checkpoint, name, v, name))

    body = raw[20 + mlen:]

    def arrays(entries):
        out = {}
        for entry in entries:
            blob = body[entry["offset"]: entry["offset"] + entry["nbytes"]]
            if len(blob) != entry["nbytes"]:
                raise CheckpointIntegrityError(f"section {entry['name']} truncated")
            if zlib.crc32(blob) != entry["crc32"]:
                raise CheckpointIntegrityError(f"section {entry['name']} failed checksum")
            out[entry["name"]] = np.frombuffer(blob, dtype="<f8").reshape(
                entry["shape"]).astype(np.float64)
        return out

    params = {name.split(":", 1)[1]: arr
              for name, arr in section("sections", arrays).items()
              if name.startswith("param:")}
    ckpt = Checkpoint(
        model_config=config("model_config", ModelConfig),
        graph_config=config("graph_config", GraphConfig),
        train_config=config("train_config", TrainConfig),
        stats=section("stats", PreprocessStats.from_dict),
        schema=config("feature_schema", FeatureSchema),
        params=params, adam=config("adam", ng.AdamState),
        loss_trace=value("loss_trace"), final_train_mae=value("final_train_mae"),
        run_config=manifest.get("run_config"),
        attention_max_dev=value("attention_max_dev") if "attention_max_dev" in manifest else None)
    _check_param_shapes(ckpt.params, ckpt.model_config, ckpt.schema)
    return ckpt
