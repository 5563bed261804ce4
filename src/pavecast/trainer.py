"""Full-graph training, autoregressive prediction, and checkpointing.

Training runs full-batch over the initialization + training graph with the
mean-absolute-error loss taken over training nodes only (initialization
nodes pass messages but are never scored). Prediction is graph
autoregression. predict_sequence answers a query list under a continuation
strategy: it appends every query as a node carrying spatial-temporal
features only and wires them all in one call, since a node's parents depend
on the coordinates and times before it alone. "ignore" wires every query
against the history and answers them all in one forward pass. "true" and
"predicted" wire each query against everything before it and take one step
per query: predict_one, the forward pass for that query's node, after which
the node takes its observed record or its prediction. predict_sequence
leaves the caller's graph as it was.

Both forward passes cover the queries' ancestor cone, no cache: edges point
from older to newer nodes, so an L-layer model's prediction for a query
reads only the nodes within L parent hops of it, and prepare_tensors
flattens just those. Each step is O(cone) instead of O(graph); a later
query is never in an earlier one's cone, and with nothing cached there is
nothing to invalidate when a strategy overwrites a query's node.

Checkpoints are a JSON manifest followed by little-endian float64 parameter
sections with per-section checksums; identical (config, seed, data) produce
byte-identical files. Adam's hyperparameters and step count are kept, its
moments are not: nothing resumes training from a checkpoint.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field, asdict

import numpy as np

from . import ndgrad as ng
from .dataset import FeatureSchema, PreprocessStats, ProcessedNode, RawRecord, apply_preprocess
from .model import (ModelConfig, attention_sum_deviation, first_nonfinite_primitive,
                    forward_values, init_params, loss_and_grads, prepare_tensors)
from .stgraph import GraphConfig, STGraph

STRATEGIES = ("ignore", "true", "predicted")

CHECKPOINT_MAGIC = b"PVCASTCK"
CHECKPOINT_VERSION = 2


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


@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    adam: ng.AdamState
    loss_trace: list[float]
    final_train_mae: float
    attention_max_dev: float | None


def train_on_graph(graph: STGraph, nodes: list[ProcessedNode],
                   model_config: ModelConfig, train_config: TrainConfig,
                   graph_config: GraphConfig, log=None) -> TrainResult:
    """Full-batch Adam on the MAE loss over an init+train graph.

    The loss covers exactly the non-initialization nodes; test nodes must
    not be in the graph at all.
    """
    gt = prepare_tensors(graph, nodes, l_res_m=graph_config.l_res_m)
    loss_ids = np.arange(graph.init_count, graph.n)
    params = init_params(model_config, gt.x_full.shape[1], gt.x_st.shape[1],
                         train_config.seed)
    adam = ng.adam_init(params, lr=train_config.lr)
    trace: list[float] = []
    max_dev = 0.0 if train_config.track_attention else None
    for epoch in range(train_config.epochs):
        probes = [] if train_config.track_attention else None
        loss, grads, _ = loss_and_grads(gt, params, model_config, loss_ids,
                                        probes=probes)
        if not math.isfinite(loss):
            kind = first_nonfinite_primitive(gt, params, model_config, loss_ids)
            raise DivergenceError(f"loss became non-finite at epoch {epoch}, "
                                  f"first in a {kind} primitive")
        if probes is not None:
            max_dev = max(max_dev, attention_sum_deviation(probes))
        trace.append(loss)
        ng.adam_step(params, grads, adam)
        if log and train_config.log_every and epoch % train_config.log_every == 0:
            log(f"epoch {epoch}: train mae {loss:.6f}")
    final_probes = [] if train_config.track_attention else None
    yhat = forward_values(gt, params, model_config, probes=final_probes)
    if final_probes is not None:
        max_dev = max(max_dev, attention_sum_deviation(final_probes))
    final_mae = float(np.mean(np.abs(yhat[loss_ids] - gt.y[loss_ids])))
    return TrainResult(params=params, adam=adam, loss_trace=trace,
                       final_train_mae=final_mae, attention_max_dev=max_dev)


# ---------------------------------------------------------------------------
# Prediction


@dataclass(frozen=True)
class Query:
    location_id: int
    t_raw: float
    coords: tuple[float, float] | None = None  # overrides the location lookup


@dataclass
class InferenceContext:
    """Everything a frozen model needs to answer queries."""

    params: dict[str, np.ndarray]
    model_config: ModelConfig
    graph_config: GraphConfig
    stats: PreprocessStats
    schema: FeatureSchema


def _location_coords(nodes: list[ProcessedNode], location_id: int) -> tuple[float, float]:
    for node in nodes:
        if node.location_id == location_id:
            return node.coords
    raise QueryError(f"location {location_id} has no historical observations")


def query_node(ctx: InferenceContext, nodes: list[ProcessedNode], node_id: int,
               query: Query) -> ProcessedNode:
    """A feature-bearing node for a future query: spatial-temporal slots only."""
    if not math.isfinite(query.t_raw):
        raise QueryError(f"query time {query.t_raw} is not finite")
    lon, lat = query.coords or _location_coords(nodes, query.location_id)
    t_norm = ctx.stats.rescale_time(query.t_raw)
    x_full = np.zeros(ctx.schema.dim_full)
    x_st = np.array([ctx.stats.standardize("longitude_gcj", lon),
                     ctx.stats.standardize("latitude_gcj", lat),
                     t_norm])
    x_full[-3:] = x_st
    return ProcessedNode(node_id=node_id, location_id=query.location_id,
                         x_full=x_full, x_st=x_st, y=float("nan"),
                         t_norm=t_norm, t_raw=query.t_raw, coords=(lon, lat))


def predicted_node(ctx: InferenceContext, base: ProcessedNode,
                   yhat: float) -> ProcessedNode:
    """Commit-ready node carrying a prediction in the deterioration slot.

    Environmental, confidence and type slots stay zero, which is the
    training mean in standardized space.
    """
    x_full = base.x_full.copy()
    info_slot = len(ctx.schema.env_features)
    x_full[info_slot] = ctx.stats.standardize("detect_info", yhat)
    return ProcessedNode(node_id=base.node_id, location_id=base.location_id,
                         x_full=x_full, x_st=base.x_st.copy(), y=float(yhat),
                         t_norm=base.t_norm, t_raw=base.t_raw, coords=base.coords)


def predict_one(ctx: InferenceContext, graph: STGraph, nodes: list[ProcessedNode],
                row: int) -> float:
    """One autoregressive step: the forecast for graph row `row`, a wired query node.

    Runs the forward pass over the row's ancestor cone only. Edges point
    from older rows to newer ones, so rows after it never enter that cone.
    """
    gt = prepare_tensors(graph, nodes, l_res_m=ctx.graph_config.l_res_m,
                         targets=[row], hops=ctx.model_config.layers)
    return float(forward_values(gt, ctx.params, ctx.model_config)[-1])


def predict_sequence(ctx: InferenceContext, graph: STGraph,
                     nodes: list[ProcessedNode], queries: list[Query],
                     strategy: str = "ignore",
                     observed: list[RawRecord] | None = None,
                     allow_past: bool = False) -> np.ndarray:
    """Predict a time-sorted query list under one continuation strategy.

    Every query becomes a node carrying spatial-temporal features only, and
    one combined_parents call wires them all. "ignore" wires each query
    against the history alone and answers all of them in one forward pass:
    edges only point from older to newer nodes, so no query reaches another
    query or a historical node's representation. allow_past admits
    ignore-strategy queries timestamped inside the historical span (for
    generalization splits); their parents are then the no-later history.
    "true" and "predicted" wire each query against every row before it,
    earlier queries included, and take one predict_one step per query in
    time order, overwriting the query's node with its observed record
    (caller-supplied) or its own prediction before the next step reads it.
    The caller's graph and node list end as they were.
    """
    for earlier, later in zip(queries, queries[1:]):
        if later.t_raw < earlier.t_raw:
            raise QueryError("queries must be sorted by time")
    if strategy not in STRATEGIES:
        raise StrategyError(f"unknown strategy {strategy!r}")
    if strategy == "true" and (observed is None or len(observed) != len(queries)):
        raise StrategyError("true-feedback needs one observed record per query")
    if not queries:
        return np.empty(0)

    base_n, base_nodes = graph.n, len(nodes)
    history = graph.t_raw
    if base_n and not (allow_past and strategy == "ignore") \
            and queries[0].t_raw < history[-1]:
        raise QueryError(f"query time {queries[0].t_raw} precedes the latest "
                         "historical observation")
    qnodes = [query_node(ctx, nodes, base_n + k, q) for k, q in enumerate(queries)]
    cols = [np.array(col) for col in zip(*((*q.coords, q.t_raw, q.t_norm) for q in qnodes))]
    if strategy == "ignore":
        limits = np.searchsorted(history, cols[2], side="right")
    else:
        limits = np.arange(base_n, base_n + len(queries))
    try:
        graph.grow(cols, limits, ctx.graph_config)
        nodes.extend(qnodes)
        if strategy == "ignore":
            gt = prepare_tensors(graph, nodes, l_res_m=ctx.graph_config.l_res_m,
                                 targets=np.arange(base_n, graph.n),
                                 hops=ctx.model_config.layers)
            return forward_values(gt, ctx.params, ctx.model_config)[gt.n - len(queries):]
        out = np.empty(len(queries))
        for k, row in enumerate(range(base_n, graph.n)):
            out[k] = predict_one(ctx, graph, nodes, row)
            if strategy == "true":
                nodes[row] = apply_preprocess(observed[k], ctx.stats, ctx.schema,
                                              node_id=row)
            else:
                nodes[row] = predicted_node(ctx, nodes[row], out[k])
        return out
    finally:
        graph.truncate(base_n)
        del nodes[base_nodes:]


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
        "model_config": ckpt.model_config.to_dict(),
        "graph_config": asdict(ckpt.graph_config),
        "train_config": asdict(ckpt.train_config),
        "stats": ckpt.stats.to_dict(),
        "feature_schema": asdict(ckpt.schema),
        "adam": {"lr": ckpt.adam.lr, "beta1": ckpt.adam.beta1,
                 "beta2": ckpt.adam.beta2, "eps": ckpt.adam.eps, "t": ckpt.adam.t},
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


def load_checkpoint(path) -> Checkpoint:
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
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"manifest version {manifest.get('format_version')}, "
            f"this build reads {CHECKPOINT_VERSION}")

    body = raw[20 + mlen:]
    arrays = {}
    for entry in manifest["sections"]:
        blob = body[entry["offset"]: entry["offset"] + entry["nbytes"]]
        if len(blob) != entry["nbytes"]:
            raise CheckpointIntegrityError(f"section {entry['name']} truncated")
        if zlib.crc32(blob) != entry["crc32"]:
            raise CheckpointIntegrityError(f"section {entry['name']} failed checksum")
        arrays[entry["name"]] = np.frombuffer(blob, dtype="<f8").reshape(
            entry["shape"]).astype(np.float64)

    params = {name.split(":", 1)[1]: arrays[name]
              for name in arrays if name.startswith("param:")}
    a = manifest["adam"]
    adam = ng.AdamState(lr=a["lr"], beta1=a["beta1"], beta2=a["beta2"],
                        eps=a["eps"], t=a["t"])

    fs = manifest["feature_schema"]
    return Checkpoint(
        model_config=ModelConfig.from_dict(manifest["model_config"]),
        graph_config=GraphConfig(**manifest["graph_config"]),
        train_config=TrainConfig(**manifest["train_config"]),
        stats=PreprocessStats.from_dict(manifest["stats"]),
        schema=FeatureSchema(**{**fs, "env_features": tuple(fs["env_features"])}),
        params=params, adam=adam,
        loss_trace=list(manifest["loss_trace"]),
        final_train_mae=manifest["final_train_mae"],
        run_config=manifest.get("run_config"),
        attention_max_dev=manifest.get("attention_max_dev"))
