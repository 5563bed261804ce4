"""Full-graph training, autoregressive prediction, and checkpointing.

Training runs full-batch over the initialization + training graph with the
mean-absolute-error loss taken over training nodes only (initialization
nodes pass messages but are never scored). Prediction is graph
autoregression. predict_sequence answers a query list under a continuation
strategy: it appends every query as a row and wires them all in one call,
since a row's parents depend on the coordinates and times before it alone.
"ignore" wires every query against the history; "true" and "predicted"
wire each query against everything before it. The rows are built as
arrays by dataset: a spatial-temporal row per query (dataset.query_nodes),
or under "true" the query's observed record (dataset.preprocess_records).
predict_sequence reads the caller's graph and node list and writes neither:
it forecasts on the graph that STGraph.grow returns and on a node list of
its own.

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
which the level's rows take their forecasts (dataset.with_readings) for the
levels above. Nothing is cached: each step flattens its cone afresh, so
nothing goes stale when a level's rows are overwritten.

Checkpoints are a JSON manifest followed by little-endian float64 parameter
sections with per-section checksums; identical (config, seed, data) produce
byte-identical files. Adam's hyperparameters and step count are kept, its
moments are not: nothing resumes training from a checkpoint. The checksums
do not cover the manifest, so load_checkpoint raises
CheckpointIntegrityError naming any manifest section it cannot build.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from . import ndgrad as ng
from .dataset import (COORD_BOUNDS, FeatureSchema, PreprocessStats, ProcessedNode, RawRecord,
                      preprocess_records, query_nodes, with_readings)
from .model import (ModelConfig, attention_sum_deviation, first_nonfinite_primitive,
                    forward_values, init_params, loss_and_grads, prepare_tensors)
from .stgraph import GraphConfig, STGraph

STRATEGIES = ("ignore", "true", "predicted")

CHECKPOINT_MAGIC = b"PVCASTCK"
CHECKPOINT_VERSION = 3


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


# numpy's overflow warnings would repeat what DivergenceError reports: the
# non-finite loss and the primitive that first produced a non-finite value
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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


def predict_one(ctx: InferenceContext, graph: STGraph, nodes: list[ProcessedNode],
                rows) -> np.ndarray:
    """One autoregressive step: the forecasts for graph rows `rows`, wired queries.

    Runs one forward pass over the rows' joint ancestor cone only, and reads
    each row's output where prepare_tensors placed it. Edges point from
    older rows to newer ones, so rows after the newest target never enter
    that cone. A target may lie in another's cone only if its node already
    holds what the other's forecast should read of it: its observed record
    under "true", never a forecast still to be made. Its own forecast does
    not read its own node's features, which the leakage barrier keeps out.
    """
    gt = prepare_tensors(graph, nodes, l_res_m=ctx.graph_config.l_res_m,
                         targets=rows, hops=ctx.model_config.layers)
    return forward_values(gt, ctx.params, ctx.model_config)[gt.targets]


def _query_columns(nodes: list[ProcessedNode], queries: list[Query]):
    """Location ids, longitudes, latitudes and times of the queries.

    A query without coords sits at its location's first history row; the
    lookup is built once, and only if some query needs it.
    """
    times = np.array([q.t_raw for q in queries], dtype=float)
    if not np.isfinite(times).all():
        raise QueryError(f"query time {times[~np.isfinite(times)][0]} is not finite")
    where = {}
    if not all(q.coords for q in queries):
        where = {p.location_id: p.coords for p in reversed(nodes)}
    coords = []
    for q in queries:
        at = q.coords or where.get(q.location_id)
        if at is None:
            raise QueryError(f"location {q.location_id} has no historical observations")
        coords.append(at)
    lon, lat = np.array(coords, dtype=float).reshape(-1, 2).T
    for (name, bound), col in zip(COORD_BOUNDS.items(), (lon, lat)):
        off = ~(np.abs(col) <= bound)
        if off.any():
            raise QueryError(f"query {name} {col[off][0]} is outside [-{bound}, {bound}]")
    return [q.location_id for q in queries], lon, lat, times


def predict_sequence(ctx: InferenceContext, graph: STGraph,
                     nodes: list[ProcessedNode], queries: list[Query],
                     strategy: str = "ignore",
                     observed: list[RawRecord] | None = None,
                     allow_past: bool = False) -> np.ndarray:
    """Predict a time-sorted query list under one continuation strategy.

    Every query becomes a row, and one combined_parents call wires them all.
    "ignore" wires each query against the history alone. allow_past admits
    ignore-strategy queries timestamped inside the historical span (for
    generalization splits); their parents are then the no-later history.
    "true" and "predicted" wire each query against every row before it,
    earlier queries included. A query's coordinates are its own, or its
    location's first history row's.

    Under "ignore" a row carries spatial-temporal features only, and no
    query has a query parent. Under "true" a row holds its observed record
    from the start (caller-supplied, and matching the query's location,
    coordinates and time): a forecast never reads its own row's features,
    and every earlier query it reads already holds its record. Both take one
    predict_one pass for every query. Under "predicted" a query's row must
    hold its forecast before later forecasts read it, so the queries are
    answered level by level (see query_levels), one predict_one step per
    level. Two queries on one level are not within L parent hops of each
    other, so neither forecast reads the other's row; every query within L
    hops of a query sits on a lower level, and its row took its forecast
    after that level's step. The forecast runs on a grown copy of the graph
    and node list: it reads the caller's and writes neither.
    """
    for earlier, later in zip(queries, queries[1:]):
        if later.t_raw < earlier.t_raw:
            raise QueryError("queries must be sorted by time")
    if strategy not in STRATEGIES:
        raise StrategyError(f"unknown strategy {strategy!r}")
    if strategy == "true":
        if observed is None or len(observed) != len(queries):
            raise StrategyError("true-feedback needs one observed record per query")
        for q, r in zip(queries, observed):
            if (r.location_id, r.collect_time) != (q.location_id, q.t_raw):
                raise StrategyError(f"observed record ({r.location_id}, {r.collect_time}) "
                                    f"differs from its query ({q.location_id}, {q.t_raw})")
    if not queries:
        return np.empty(0)

    base_n, history = graph.n, graph.t_raw
    if base_n and not (allow_past and strategy == "ignore") \
            and queries[0].t_raw < history[-1]:
        raise QueryError(f"query time {queries[0].t_raw} precedes the latest "
                         "historical observation")
    locations, lon, lat, t_raw = _query_columns(nodes, queries)
    if strategy == "true":
        for r, at in zip(observed, zip(lon.tolist(), lat.tolist())):
            if (r.longitude_gcj, r.latitude_gcj) != at:
                raise StrategyError(f"observed record at ({r.longitude_gcj}, "
                                    f"{r.latitude_gcj}) differs from its query at {at}")
        rows = preprocess_records(observed, ctx.stats, ctx.schema)
    else:
        rows = query_nodes(locations, lon, lat, t_raw, ctx.stats, ctx.schema)
    if strategy == "ignore":
        limits = np.searchsorted(history, t_raw, side="right")
    else:
        limits = np.arange(base_n, base_n + len(queries))
    t_norm = np.array([p.t_norm for p in rows])
    graph = graph.grow([lon, lat, t_raw, t_norm], limits, ctx.graph_config)
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
            ids = (base_n + ks).tolist()
            written = with_readings([nodes[i] for i in ids], out[ks], ctx.stats, ctx.schema)
            for i, node in zip(ids, written):
                nodes[i] = node
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
    if not isinstance(manifest, dict):
        raise CheckpointIntegrityError("manifest is not a JSON object")
    if manifest.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"manifest version {manifest.get('format_version')}, "
            f"this build reads {CHECKPOINT_VERSION}")

    def section(name, build):
        """build(manifest[name]). The checksums cover the parameters only, so
        a section that does not build is reported here, by name."""
        if name not in manifest:
            raise CheckpointIntegrityError(f"manifest has no {name} section")
        try:
            return build(manifest[name])
        except CheckpointIntegrityError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointIntegrityError(f"manifest section {name} is malformed: "
                                           f"{type(exc).__name__}: {exc}") from None

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

    params = {name.split(":", 1)[1]: value
              for name, value in section("sections", arrays).items()
              if name.startswith("param:")}
    return Checkpoint(
        model_config=section("model_config", ModelConfig.from_dict),
        graph_config=section("graph_config", lambda d: GraphConfig(**d)),
        train_config=section("train_config", lambda d: TrainConfig(**d)),
        stats=section("stats", PreprocessStats.from_dict),
        schema=section("feature_schema", lambda fs: FeatureSchema(
            **{**fs, "env_features": tuple(fs["env_features"])})),
        params=params, adam=section("adam", lambda a: ng.AdamState(
            lr=a["lr"], beta1=a["beta1"], beta2=a["beta2"], eps=a["eps"], t=a["t"])),
        loss_trace=section("loss_trace", list),
        final_train_mae=section("final_train_mae", float),
        run_config=manifest.get("run_config"),
        attention_max_dev=manifest.get("attention_max_dev"))
