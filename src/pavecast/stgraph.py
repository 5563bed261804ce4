"""Directed spatiotemporal graph over (location, time) observation nodes.

Edges point from older nodes to newer ones. Two mechanisms create them:
proximity edges when both the location and time gaps fall under configured
thresholds, and ranked compensation edges that force every node to connect
to its K closest predecessors under a joint space-time score, so sparse
series still receive information. An initialization block of the earliest
nodes is mutually visible (proximity edges in both directions) and seeds
the autoregressive expansion.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

EARTH_RADIUS_M = 6371000.0
_DEG = math.pi / 180.0


class TemporalOrderError(ValueError):
    """A node was inserted or queried out of temporal order."""


class DuplicateIdError(ValueError):
    """A node id was inserted twice."""


class ConstructionError(ValueError):
    """The graph cannot be built from the given inputs."""


@dataclass(frozen=True)
class GraphConfig:
    l_res_m: float = 200.0    # proximity threshold, meters
    t_res_days: float = 14.0  # proximity threshold, days
    top_k: int = 5
    top_mode: str = "merged"  # "merged": rank all predecessors; "additional": only non-proximity ones

    def __post_init__(self):
        if self.l_res_m <= 0 or self.t_res_days <= 0:
            raise ConstructionError("l_res_m and t_res_days must be positive")
        if self.top_k < 0:
            raise ConstructionError("top_k must be >= 0")
        if self.top_mode not in ("merged", "additional"):
            raise ConstructionError(f"unknown top_mode {self.top_mode!r}")


@dataclass(frozen=True)
class GraphNode:
    node_id: int
    lon: float
    lat: float
    t_raw: float
    t_norm: float
    is_init: bool


@dataclass(frozen=True)
class ParentEdge:
    parent: int
    dt_days: float
    dist_m: float
    origin: str  # "hard" | "top" | "init"


@dataclass
class STGraph:
    nodes: list[GraphNode] = field(default_factory=list)
    parents: list[list[ParentEdge]] = field(default_factory=list)
    init_count: int = 0
    max_non_init_t: float = -math.inf

    def copy(self) -> "STGraph":
        return STGraph(nodes=list(self.nodes),
                       parents=[list(p) for p in self.parents],
                       init_count=self.init_count,
                       max_non_init_t=self.max_non_init_t)

    @property
    def n(self) -> int:
        return len(self.nodes)

    def edge_count(self) -> int:
        return sum(len(p) for p in self.parents)

    def to_json_dict(self) -> dict:
        return {
            "nodes": [{"id": nd.node_id, "lon": nd.lon, "lat": nd.lat,
                       "t_raw": nd.t_raw, "t_norm": nd.t_norm, "is_init": nd.is_init}
                      for nd in self.nodes],
            "edges": [{"from": e.parent, "to": nd.node_id, "origin": e.origin,
                       "dt_norm": abs(nd.t_norm - self.nodes[e.parent].t_norm),
                       "dist_m": e.dist_m}
                      for nd, plist in zip(self.nodes, self.parents) for e in plist],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "STGraph":
        """Rebuild a graph whose node ids are their positions 0..n-1."""
        nodes = [GraphNode(node_id=n["id"], lon=n["lon"], lat=n["lat"],
                           t_raw=n["t_raw"], t_norm=n["t_norm"], is_init=n["is_init"])
                 for n in d["nodes"]]
        n = len(nodes)
        if [nd.node_id for nd in nodes] != list(range(n)):
            raise ConstructionError("node ids must equal their positions 0..n-1")
        graph = cls(nodes=nodes, parents=[[] for _ in nodes],
                    init_count=sum(1 for nd in nodes if nd.is_init))
        non_init = [nd.t_raw for nd in nodes if not nd.is_init]
        graph.max_non_init_t = max(non_init) if non_init else -math.inf
        for e in d["edges"]:
            if not (0 <= e["from"] < n and 0 <= e["to"] < n):
                raise ConstructionError(f"edge {e['from']}->{e['to']} names no node")
            dst, src = nodes[e["to"]], nodes[e["from"]]
            graph.parents[e["to"]].append(ParentEdge(
                parent=e["from"], dt_days=abs(dst.t_raw - src.t_raw),
                dist_m=e["dist_m"], origin=e["origin"]))
        return graph


def _columns(nodes: list[GraphNode]):
    """(ids, lons, lats, t_raw) arrays of a node list."""
    return (np.array([c.node_id for c in nodes]), np.array([c.lon for c in nodes]),
            np.array([c.lat for c in nodes]), np.array([c.t_raw for c in nodes]))


def _distances(node: GraphNode, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
    """Equirectangular approximation, meters, from node to each (lon, lat) in degrees."""
    dphi = (lats - node.lat) * _DEG
    dlam = (lons - node.lon) * _DEG
    cos_mid = np.cos(0.5 * (lats + node.lat) * _DEG)
    dist = EARTH_RADIUS_M * np.sqrt(dphi * dphi + (cos_mid * dlam) ** 2)
    if not np.isfinite(dist).all():
        raise ArithmeticError("non-finite coordinates")
    return dist


def _proximity(node: GraphNode, lons, lats, ts, config: GraphConfig):
    """(dist_m, dt_days, within both thresholds) from node to each candidate."""
    dist = _distances(node, lons, lats)
    dt = np.abs(node.t_raw - ts)
    return dist, dt, (dist <= config.l_res_m) & (dt <= config.t_res_days)


def _edges(picks, ids, dt, dist, origin: str) -> list[ParentEdge]:
    return [ParentEdge(parent=int(ids[k]), dt_days=float(dt[k]),
                       dist_m=float(dist[k]), origin=origin) for k in picks]


def combined_parents(node: GraphNode, candidates: list[GraphNode],
                     config: GraphConfig) -> list[ParentEdge]:
    """Ranked edges first, then remaining proximity edges sorted by parent id.

    Ranked edges go to the top_k candidates with the lowest
    dist/l_res + dt/t_res score, ties broken by lower id; proximity edges go
    to every candidate within both thresholds (inclusive), so top_k=0 gives
    the pure proximity set. A parent picked by both mechanisms appears once,
    labelled "top".
    """
    if not candidates:
        return []
    ids, lons, lats, ts = _columns(candidates)
    dist, dt, hard_mask = _proximity(node, lons, lats, ts, config)
    score = dist / config.l_res_m + dt / config.t_res_days
    if config.top_mode == "additional":
        pool = np.flatnonzero(~hard_mask)
    else:
        pool = np.arange(len(candidates))
    order = pool[np.lexsort((ids[pool], score[pool]))][: config.top_k]
    hard_mask[order] = False
    extra = np.flatnonzero(hard_mask)
    extra = extra[np.argsort(ids[extra])]
    return (_edges(order, ids, dt, dist, "top")
            + _edges(extra, ids, dt, dist, "hard"))


def build_init_graph(init_nodes: list[GraphNode], config: GraphConfig) -> STGraph:
    """Mutually visible initialization block: proximity edges both directions."""
    if not init_nodes:
        raise ConstructionError("initialization block must be non-empty")
    ids, lons, lats, ts = _columns(init_nodes)
    if not np.array_equal(ids, np.arange(len(init_nodes))):
        raise ConstructionError("node ids must equal their positions 0..n-1")
    graph = STGraph(nodes=list(init_nodes), init_count=len(init_nodes))
    for i, nd in enumerate(init_nodes):
        dist, dt, near = _proximity(nd, lons, lats, ts, config)
        near[i] = False
        graph.parents.append(_edges(np.flatnonzero(near), ids, dt, dist, "init"))
    return graph


def expand(graph: STGraph, new_node: GraphNode, config: GraphConfig) -> None:
    """Append one node in temporal order, wiring ranked + proximity parents.

    The new node's id must be its position, graph.n.
    """
    if new_node.t_raw < graph.max_non_init_t:
        raise TemporalOrderError(
            f"node at t={new_node.t_raw} arrives before the newest graph node "
            f"at t={graph.max_non_init_t}")
    if new_node.node_id < graph.n:
        raise DuplicateIdError(f"node id {new_node.node_id} already present")
    if new_node.node_id != graph.n:
        raise ConstructionError(
            f"node id {new_node.node_id} is not the next position {graph.n}")
    parents = combined_parents(new_node, graph.nodes, config)
    graph.nodes.append(new_node)
    graph.parents.append(parents)
    if not new_node.is_init:
        graph.max_non_init_t = max(graph.max_non_init_t, new_node.t_raw)


def build_graph(nodes_meta: list[GraphNode], init_count: int,
                config: GraphConfig) -> STGraph:
    """Initialization block plus one-by-one temporal expansion of the rest."""
    if init_count <= 0 or init_count > len(nodes_meta):
        raise ConstructionError(f"bad init_count {init_count} for {len(nodes_meta)} nodes")
    graph = build_init_graph(nodes_meta[:init_count], config)
    for nd in nodes_meta[init_count:]:
        expand(graph, nd, config)
    return graph


def graph_nodes_from_processed(nodes, init_count: int = 0) -> list[GraphNode]:
    """GraphNode metadata from ProcessedNode objects (ids must be 0..n-1)."""
    return [GraphNode(node_id=p.node_id, lon=p.coords[0], lat=p.coords[1],
                      t_raw=p.t_raw, t_norm=p.t_norm, is_init=(i < init_count))
            for i, p in enumerate(nodes)]


def save_graph_json(graph: STGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph.to_json_dict(), fh, indent=1, sort_keys=True)


def load_graph_json(path) -> STGraph:
    with open(path, encoding="utf-8") as fh:
        return STGraph.from_json_dict(json.load(fh))
