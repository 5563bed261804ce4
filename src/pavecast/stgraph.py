"""Directed spatiotemporal graph over (location, time) observation nodes.

Edges point from older nodes to newer ones. Two mechanisms create them:
proximity edges when both the location and time gaps fall under configured
thresholds, and ranked compensation edges that force every node to connect
to its K closest predecessors under a joint space-time score, so sparse
series still receive information. An initialization block of the earliest
nodes is mutually visible (proximity edges in both directions) and seeds
the autoregressive expansion.

Layout: an STGraph is columnar. Node i is row i of the float64 columns
lon, lat, t_raw and t_norm (a node's id is its position), and the first
init_count rows are the initialization block. Parent edges are kept in CSR
form: the parents of node i are entries offsets[i]:offsets[i + 1] of the
per-edge columns parent, dist_m and origin (a code into ORIGINS). Rows grow
with amortised doubling, so appending a node never copies the history.

Sorted-time contract: t_raw is nondecreasing over the rows of every graph
that build_init_graph, expand and from_json_dict produce, and
combined_parents relies on it to read only a time window of the history.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6371000.0
_DEG = math.pi / 180.0

ORIGINS = ("init", "top", "hard")
INIT, TOP, HARD = range(len(ORIGINS))
_ORIGIN_DTYPE = np.int8
_NODE_COLUMNS = ("lon", "lat", "t_raw", "t_norm")


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


Parents = tuple[np.ndarray, np.ndarray, np.ndarray]  # (parent, dist_m, origin)


def _no_parents() -> Parents:
    return (np.empty(0, np.int64), np.empty(0), np.empty(0, _ORIGIN_DTYPE))


def _grown(arr: np.ndarray, need: int) -> np.ndarray:
    """arr itself if it holds need rows, else a copy with doubled capacity."""
    if need <= len(arr):
        return arr
    out = np.empty(max(need, 2 * len(arr)), arr.dtype)
    out[:len(arr)] = arr
    return out


class STGraph:
    """Node columns plus CSR parent lists; see the module docstring."""

    def __init__(self):
        self.n = 0
        self.init_count = 0
        self._m = 0
        self._cols = {name: np.empty(16) for name in _NODE_COLUMNS}
        self._offsets = np.zeros(17, np.int64)
        self._parent = np.empty(64, np.int64)
        self._dist = np.empty(64)
        self._origin = np.empty(64, _ORIGIN_DTYPE)

    # views of the stored rows, valid until the next append or truncate
    lon = property(lambda self: self._cols["lon"][:self.n])
    lat = property(lambda self: self._cols["lat"][:self.n])
    t_raw = property(lambda self: self._cols["t_raw"][:self.n])
    t_norm = property(lambda self: self._cols["t_norm"][:self.n])
    offsets = property(lambda self: self._offsets[:self.n + 1])
    parent = property(lambda self: self._parent[:self._m])
    dist_m = property(lambda self: self._dist[:self._m])
    origin = property(lambda self: self._origin[:self._m])

    @property
    def child(self) -> np.ndarray:
        """The node each parent edge points to, per edge."""
        return np.repeat(np.arange(self.n), np.diff(self.offsets))

    def edge_count(self) -> int:
        return self._m

    def origin_counts(self) -> dict[str, int]:
        counts = np.bincount(self.origin, minlength=len(ORIGINS))
        return {name: int(c) for name, c in zip(ORIGINS, counts)}

    def append(self, node: GraphNode, parents: Parents | None = None) -> None:
        """Add node as row n with the given parent edges, unchecked.

        expand and build_init_graph are the checked ways to grow a graph.
        """
        parent, dist, origin = parents if parents is not None else _no_parents()
        i, m, k = self.n, self._m, len(parent)
        for name in _NODE_COLUMNS:
            col = self._cols[name] = _grown(self._cols[name], i + 1)
            col[i] = getattr(node, name)
        self._offsets = _grown(self._offsets, i + 2)
        self._parent = _grown(self._parent, m + k)
        self._dist = _grown(self._dist, m + k)
        self._origin = _grown(self._origin, m + k)
        self._parent[m:m + k] = parent
        self._dist[m:m + k] = dist
        self._origin[m:m + k] = origin
        self._offsets[i + 1] = m + k
        self.n, self._m = i + 1, m + k

    def truncate(self, n: int) -> None:
        """Drop the nodes from position n on, with their parent edges."""
        self.n = n
        self._m = int(self._offsets[n])
        self.init_count = min(self.init_count, n)

    def copy(self) -> "STGraph":
        return copy.deepcopy(self)

    def to_json_dict(self) -> dict:
        lon, lat, t_raw, t_norm = (self._cols[name][:self.n].tolist()
                                   for name in _NODE_COLUMNS)
        child, tn = self.child, self.t_norm
        dt_norm = np.abs(tn[child] - tn[self.parent]).tolist()
        return {
            "nodes": [{"id": i, "lon": lon[i], "lat": lat[i], "t_raw": t_raw[i],
                       "t_norm": t_norm[i], "is_init": i < self.init_count}
                      for i in range(self.n)],
            "edges": [{"from": p, "to": c, "origin": ORIGINS[o], "dt_norm": dt, "dist_m": d}
                      for p, c, o, dt, d in zip(self.parent.tolist(), child.tolist(),
                                                self.origin.tolist(), dt_norm,
                                                self.dist_m.tolist())],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "STGraph":
        """Rebuild a graph whose node ids are their positions 0..n-1.

        Raises ConstructionError for anything the kernel cannot trust:
        non-positional ids, non-finite coordinates or times, t_raw out of
        order, init nodes that are not a prefix, and edges naming no node
        or an unknown origin.
        """
        nodes = d["nodes"]
        n = len(nodes)
        if [nd["id"] for nd in nodes] != list(range(n)):
            raise ConstructionError("node ids must equal their positions 0..n-1")
        graph = cls()
        for name in _NODE_COLUMNS:
            graph._cols[name] = np.array([nd[name] for nd in nodes], dtype=float)
        if not all(np.isfinite(col).all() for col in graph._cols.values()):
            raise ConstructionError("node coordinates and times must be finite")
        if np.any(np.diff(graph._cols["t_raw"]) < 0):
            raise ConstructionError("node t_raw must be nondecreasing")
        is_init = [bool(nd["is_init"]) for nd in nodes]
        init_count = sum(is_init)
        if is_init != [True] * init_count + [False] * (n - init_count):
            raise ConstructionError("init nodes must come first")
        edges = d["edges"]
        src = np.array([e["from"] for e in edges], dtype=np.int64)
        dst = np.array([e["to"] for e in edges], dtype=np.int64)
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if bad.any():
            k = int(np.argmax(bad))
            raise ConstructionError(f"edge {src[k]}->{dst[k]} names no node")
        try:
            origin = np.array([ORIGINS.index(e["origin"]) for e in edges], _ORIGIN_DTYPE)
        except ValueError as exc:
            raise ConstructionError(f"unknown edge origin: {exc}") from exc
        order = np.argsort(dst, kind="stable")  # group by child, file order within
        graph.n, graph.init_count, graph._m = n, init_count, len(edges)
        graph._offsets = np.concatenate(([0], np.cumsum(np.bincount(dst, minlength=n))))
        graph._parent = src[order]
        graph._dist = np.array([e["dist_m"] for e in edges], dtype=float)[order]
        graph._origin = origin[order]
        return graph


def _distances(node: GraphNode, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
    """Equirectangular approximation, meters, from node to each (lon, lat) in degrees."""
    dphi = (lats - node.lat) * _DEG
    dlam = (lons - node.lon) * _DEG
    cos_mid = np.cos(0.5 * (lats + node.lat) * _DEG)
    dist = EARTH_RADIUS_M * np.sqrt(dphi * dphi + (cos_mid * dlam) ** 2)
    if not np.isfinite(dist).all():
        raise ArithmeticError("non-finite coordinates")
    return dist


def _proximity(node: GraphNode, graph: STGraph, lo: int, hi: int, config: GraphConfig):
    """(dist_m, dt_days, within both thresholds) from node to rows lo:hi."""
    dist = _distances(node, graph.lon[lo:hi], graph.lat[lo:hi])
    dt = np.abs(node.t_raw - graph.t_raw[lo:hi])
    return dist, dt, (dist <= config.l_res_m) & (dt <= config.t_res_days)


def _time_window(ts: np.ndarray, t: float, t_res: float) -> tuple[int, int]:
    """Rows lo:hi of the sorted ts that hold every row with |t - ts| <= t_res.

    The bounds carry a slack far above the rounding error of t -+ t_res, so
    the window is only a candidate filter: callers apply the exact mask.
    """
    slack = 16 * np.finfo(float).eps * (abs(t) + t_res)
    return (int(np.searchsorted(ts, t - t_res - slack, side="left")),
            int(np.searchsorted(ts, t + t_res + slack, side="right")))


def combined_parents(node: GraphNode, graph: STGraph, config: GraphConfig,
                     limit: int | None = None) -> Parents:
    """Parents of node among the first `limit` rows of graph (default: all).

    Returns (parent, dist_m, origin) arrays: ranked edges first, then the
    remaining proximity edges in id order. Ranked edges go to the top_k
    candidates with the lowest dist/l_res + dt/t_res score, ties broken by
    lower id; proximity edges go to every candidate within both thresholds
    (inclusive), so top_k=0 gives the pure proximity set. A parent picked by
    both mechanisms appears once, as a ranked edge.

    The candidates must be sorted by time and no later than node. Proximity
    candidates come from a time window; ranked ones from a scan back in time
    that stops once the next older candidate's dt/t_res, a lower bound on
    its score and on every older one's, is strictly above the K-th best.
    """
    if not math.isfinite(node.t_raw):
        raise ArithmeticError("non-finite time")
    n = graph.n if limit is None else limit
    if n == 0:
        return _no_parents()
    ts = graph.t_raw[:n]
    if ts[-1] > node.t_raw:
        raise TemporalOrderError(
            f"node at t={node.t_raw} is older than a candidate at t={ts[-1]}")
    k = config.top_k
    lo, _ = _time_window(ts, node.t_raw, config.t_res_days)
    start = max(0, min(lo, n - k))
    while True:
        dist, dt, hard = _proximity(node, graph, start, n, config)
        score = dist / config.l_res_m + dt / config.t_res_days
        pool = np.flatnonzero(~hard) if config.top_mode == "additional" else np.arange(n - start)
        if k == 0:
            kth = -math.inf
        elif len(pool) < k:
            kth = math.inf
        else:
            kth = np.partition(score[pool], k - 1)[k - 1]
        if start == 0 or abs(node.t_raw - ts[start - 1]) / config.t_res_days > kth:
            break
        start = max(0, n - 2 * (n - start))
    pool = pool[score[pool] <= kth]  # the top_k and every tie with the K-th
    top = pool[np.argsort(score[pool], kind="stable")[:k]]  # stable: ties to lower id
    hard[top] = False
    extra = np.flatnonzero(hard)
    picks = np.concatenate((top, extra))
    origin = np.full(len(picks), HARD, _ORIGIN_DTYPE)
    origin[:len(top)] = TOP
    return picks + start, dist[picks], origin


def build_init_graph(init_nodes: list[GraphNode], config: GraphConfig) -> STGraph:
    """Mutually visible initialization block: proximity edges both directions."""
    if not init_nodes:
        raise ConstructionError("initialization block must be non-empty")
    if [nd.node_id for nd in init_nodes] != list(range(len(init_nodes))):
        raise ConstructionError("node ids must equal their positions 0..n-1")
    block = STGraph()
    for nd in init_nodes:
        block.append(nd)
    if not np.isfinite(block.t_raw).all() or np.any(np.diff(block.t_raw) < 0):
        raise ConstructionError("init node times must be finite and nondecreasing")
    graph = STGraph()
    for i, nd in enumerate(init_nodes):
        lo, hi = _time_window(block.t_raw, nd.t_raw, config.t_res_days)
        dist, _, near = _proximity(nd, block, lo, hi, config)
        near[i - lo] = False
        picks = np.flatnonzero(near)
        graph.append(nd, (picks + lo, dist[picks], np.full(len(picks), INIT, _ORIGIN_DTYPE)))
    graph.init_count = graph.n
    return graph


def expand(graph: STGraph, new_node: GraphNode, config: GraphConfig) -> None:
    """Append one non-init node in temporal order, wiring ranked + proximity parents.

    The new node's id must be its position, graph.n, and its time no
    earlier than the newest node's, init nodes included.
    """
    if new_node.is_init:
        raise ConstructionError("only build_init_graph adds init nodes")
    if graph.n and new_node.t_raw < graph.t_raw[-1]:
        raise TemporalOrderError(
            f"node at t={new_node.t_raw} arrives before the newest graph node "
            f"at t={graph.t_raw[-1]}")
    if new_node.node_id < graph.n:
        raise DuplicateIdError(f"node id {new_node.node_id} already present")
    if new_node.node_id != graph.n:
        raise ConstructionError(
            f"node id {new_node.node_id} is not the next position {graph.n}")
    graph.append(new_node, combined_parents(new_node, graph, config))


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
    text = json.dumps(graph.to_json_dict(), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_graph_json(path) -> STGraph:
    with open(path, encoding="utf-8") as fh:
        return STGraph.from_json_dict(json.load(fh))
