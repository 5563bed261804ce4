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
per-edge columns parent, dist_m and origin (a code into ORIGINS). A graph
is a value: grow returns a new graph holding the old rows followed by the
new ones, and leaves the graph it was called on as it was.

Wiring: a node's parents depend only on the coordinates and times of the
rows before it, never on their features or edges. So combined_parents, the
one wiring kernel, wires a batch of rows per call, each against its own
prefix: build_graph calls it twice, a forecast once for all its queries.

Sorted-time contract: t_raw is nondecreasing over the rows of every graph
that build_graph produces. combined_parents relies on it: each row's
candidate prefix must be sorted by time and no later than the row, so that
the row is scored against a time window of it only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

EARTH_RADIUS_M = 6371000.0
_DEG = math.pi / 180.0

ORIGINS = ("init", "top", "hard")
INIT, TOP, HARD = range(len(ORIGINS))
_ORIGIN_DTYPE = np.int8
_NODE_COLUMNS = ("lon", "lat", "t_raw", "t_norm")
_BLOCK_CELLS = 1 << 17  # B x W scores per kernel block: bounds its scratch memory


class ConstructionError(ValueError):
    """The graph cannot be built from the given inputs."""


class TemporalOrderError(ConstructionError):
    """A node was inserted or queried out of temporal order."""


@dataclass(frozen=True)
class GraphConfig:
    l_res_m: float = 200.0    # proximity threshold, meters
    t_res_days: float = 14.0  # proximity threshold, days
    top_k: int = 5
    top_mode: str = "merged"  # "merged": rank all predecessors; "additional": only non-proximity ones

    def __post_init__(self):
        if not (0 < self.l_res_m < math.inf and 0 < self.t_res_days < math.inf):
            raise ConstructionError("l_res_m and t_res_days must be finite and positive")
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


Wiring = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # CSR (offsets, parent, dist_m, origin)
_NO_EDGES = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))  # (row, parent, dist_m)


def _checked_rows(ids, is_init, cols) -> int:
    """The number of init rows, once the rows pass every check the kernel relies on.

    Raises ConstructionError for non-positional ids, non-finite coordinates
    or times and init rows that are not a prefix, and TemporalOrderError for
    t_raw out of order. cols are the _NODE_COLUMNS arrays.
    """
    if list(ids) != list(range(len(ids))):
        raise ConstructionError("node ids must equal their positions 0..n-1")
    if not all(np.isfinite(col).all() for col in cols):
        raise ConstructionError("node coordinates and times must be finite")
    if np.any(np.diff(cols[_NODE_COLUMNS.index("t_raw")]) < 0):
        raise TemporalOrderError("node t_raw must be nondecreasing")
    init_count = sum(is_init)
    if list(is_init) != [True] * init_count + [False] * (len(ids) - init_count):
        raise ConstructionError("init nodes must come first")
    return init_count


def _column(dtype=float):
    """A field defaulting to an empty column, as in a graph with no rows."""
    return field(default_factory=lambda: np.empty(0, dtype))


@dataclass(frozen=True, eq=False)
class STGraph:
    """Node columns plus CSR parent lists; see the module docstring.

    A value: grow returns a new graph, and no method writes the arrays.
    STGraph() is the graph with no rows.
    """

    lon: np.ndarray = _column()
    lat: np.ndarray = _column()
    t_raw: np.ndarray = _column()
    t_norm: np.ndarray = _column()
    offsets: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    parent: np.ndarray = _column(np.int64)
    dist_m: np.ndarray = _column()
    origin: np.ndarray = _column(_ORIGIN_DTYPE)
    init_count: int = 0

    @property
    def n(self) -> int:
        return len(self.t_raw)

    @property
    def child(self) -> np.ndarray:
        """The node each parent edge points to, per edge."""
        return np.repeat(np.arange(self.n), np.diff(self.offsets))

    def edge_count(self) -> int:
        return len(self.parent)

    def origin_counts(self) -> dict[str, int]:
        counts = np.bincount(self.origin, minlength=len(ORIGINS))
        return {name: int(c) for name, c in zip(ORIGINS, counts)}

    def grow(self, cols, limits, config: GraphConfig, mutual: bool = False) -> "STGraph":
        """This graph plus rows holding cols (the _NODE_COLUMNS arrays), new row r
        wired by combined_parents against the rows [0, limits[r]) of the result."""
        lon, lat, t_raw, t_norm = (np.concatenate((getattr(self, name), col))
                                   for name, col in zip(_NODE_COLUMNS, cols))
        offsets, parent, dist_m, origin = combined_parents(lon, lat, t_raw, limits,
                                                           config, mutual)
        return STGraph(lon, lat, t_raw, t_norm,
                       np.concatenate((self.offsets, self.edge_count() + offsets[1:])),
                       np.concatenate((self.parent, parent)),
                       np.concatenate((self.dist_m, dist_m)),
                       np.concatenate((self.origin, origin)), self.init_count)

    def to_json_dict(self) -> dict:
        lon, lat, t_raw, t_norm = (getattr(self, name).tolist() for name in _NODE_COLUMNS)
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


def _distances(lon, lat, lons: np.ndarray, lats: np.ndarray) -> np.ndarray:
    """Equirectangular approximation, meters, from each row's (lon, lat) to the
    (lons, lats) on that row, all in degrees."""
    dphi = (lats - lat) * _DEG
    dlam = (lons - lon) * _DEG
    cos_mid = np.cos(0.5 * (lats + lat) * _DEG)
    return EARTH_RADIUS_M * np.sqrt(dphi * dphi + (cos_mid * dlam) ** 2)


def _time_window(ts: np.ndarray, t: np.ndarray, span) -> tuple[np.ndarray, np.ndarray]:
    """Rows lo:hi of the sorted ts that hold every row with |t - ts| <= span, per t.

    The bounds carry a slack far above the rounding error of t -+ span, so
    the window is only a candidate filter: callers apply the exact mask.
    """
    slack = 16 * np.finfo(float).eps * (np.abs(t) + span)
    return (np.searchsorted(ts, t - span - slack, side="left"),
            np.searchsorted(ts, t + span + slack, side="right"))


def _wire_block(lon, lat, t_raw, rows, start, end, config: GraphConfig, mutual: bool):
    """Score rows against their own candidate windows [start, end) as one matrix.

    Returns (passed, kth, top, hard): the rows whose window passes the
    stopping rule, each row's K-th best score, and the passed rows' ranked
    (in rank order) and other (in id order) edges as (row, parent, dist_m).
    """
    idx = start[:, None] + np.arange(int((end - start).max(initial=0)))
    valid = idx < end[:, None]
    if mutual:
        valid &= idx != rows[:, None]
    idx = np.minimum(idx, len(t_raw) - 1)
    dist = _distances(lon[rows, None], lat[rows, None], lon[idx], lat[idx])
    if not (np.isfinite(dist) | ~valid).all():
        raise ArithmeticError("non-finite coordinates")
    t = t_raw[rows]
    dt = np.abs(t[:, None] - t_raw[idx])
    hard = valid & (dist <= config.l_res_m) & (dt <= config.t_res_days)
    k = 0 if mutual else config.top_k
    passed, kth, top = np.ones(len(rows), bool), np.full(len(rows), -math.inf), _NO_EDGES
    if k:
        score = dist / config.l_res_m + dt / config.t_res_days
        pool = valid & ~hard if config.top_mode == "additional" else valid
        masked = np.where(pool, score, math.inf)  # inf: fewer than K in the pool
        kth[:] = np.partition(masked, k - 1, axis=1)[:, k - 1] if idx.shape[1] >= k else math.inf
        # every candidate older than the window scores at least its dt/t_res
        passed = (start == 0) | (np.abs(t - t_raw[np.maximum(start - 1, 0)])
                                 / config.t_res_days > kth)
        r, c = np.nonzero(pool & (masked <= kth[:, None]) & passed[:, None])
        order = np.lexsort((c, score[r, c], r))  # ties to the lower id
        r, c = r[order], c[order]
        ranked = np.arange(len(r)) - np.searchsorted(r, r) < k
        r, c = r[ranked], c[ranked]
        hard[r, c] = False
        top = (r, idx[r, c], dist[r, c])
    hr, hc = np.nonzero(hard & passed[:, None])
    return passed, kth, top, (hr, idx[hr, hc], dist[hr, hc])


def combined_parents(lon: np.ndarray, lat: np.ndarray, t_raw: np.ndarray, limits,
                     config: GraphConfig, mutual: bool = False) -> Wiring:
    """CSR parent lists of the last len(limits) rows of the columns lon, lat, t_raw.

    New row r is wired against the rows [0, limits[r]): first ranked edges
    to the top_k candidates with the lowest dist/l_res + dt/t_res score,
    ties to the lower id, then proximity edges to every other candidate
    within both thresholds (inclusive), in id order; top_k=0 gives the pure
    proximity set. mutual wires an initialization block instead: parents are
    every other row of [0, limit), older or newer, within both thresholds.

    The rows [0, max(limits)) must be sorted by time and, unless mutual, no
    later than the rows they are candidates of. Each row is scored against
    its own time window, a block of rows at once. Ranked candidates lie in
    the window too once the next older candidate's dt/t_res, a lower bound
    on its score and every older one's, is strictly above the K-th best;
    only the rows that fail that rule are rescored over a wider window.
    """
    limits = np.asarray(limits, np.int64)
    rows = np.arange(len(t_raw) - len(limits), len(t_raw))
    t = t_raw[rows]
    if not np.isfinite(t).all():
        raise ArithmeticError("non-finite time")
    ts = t_raw[:limits.max(initial=0)]
    lo, hi = _time_window(ts, t, config.t_res_days)
    if mutual:
        start, end = np.minimum(lo, limits), np.minimum(hi, limits)
    else:
        late = (limits > 0) & (t_raw[np.maximum(limits - 1, 0)] > t)
        if late.any():
            r = int(np.argmax(late))
            raise TemporalOrderError(f"node at t={t[r]} is older than a candidate "
                                     f"at t={t_raw[limits[r] - 1]}")
        start, end = np.maximum(0, np.minimum(lo, limits - config.top_k)), limits
    tops, hards, pending = [], [], np.arange(len(limits))
    while len(pending):
        step = max(_BLOCK_CELLS // max(int((end - start)[pending].max()), 1), 1)
        failed = []
        for block in np.split(pending, range(step, len(pending), step)):
            passed, kth, top, hard = _wire_block(lon, lat, t_raw, rows[block], start[block],
                                                 end[block], config, mutual)
            tops.append((block[top[0]], *top[1:]))
            hards.append((block[hard[0]], *hard[1:]))
            # widen by at most a doubling, less where the K-th score bounds
            # the time gap of any better candidate
            redo, kth = block[~passed], kth[~passed]
            bound, _ = _time_window(ts, t[redo], kth * config.t_res_days)
            doubled = 2 * start[redo] - end[redo]
            start[redo] = np.maximum(0, np.minimum(np.maximum(bound, doubled), start[redo] - 1))
            failed.append(redo)
        pending = np.concatenate(failed)
    pos, parent, dist = (np.concatenate(col) for col in zip(_NO_EDGES, *tops, *hards))
    origin = np.full(len(pos), INIT if mutual else HARD, _ORIGIN_DTYPE)
    origin[:sum(len(r) for r, _, _ in tops)] = TOP
    order = np.argsort(pos, kind="stable")  # per row: ranked edges, then the rest
    offsets = np.concatenate(([0], np.cumsum(np.bincount(pos, minlength=len(limits)))))
    return offsets, parent[order], dist[order], origin[order]


def build_graph(nodes_meta: list[GraphNode], init_count: int,
                config: GraphConfig) -> STGraph:
    """The initialization block, then every later row wired against the rows before it.

    Raises ConstructionError for rows that fail _checked_rows
    (TemporalOrderError for rows out of time order) and for an init_count
    other than the number of rows flagged is_init.
    """
    n = len(nodes_meta)
    if init_count <= 0 or init_count > n:
        raise ConstructionError(f"bad init_count {init_count} for {n} nodes")
    cols = [np.array([getattr(nd, name) for nd in nodes_meta], dtype=float)
            for name in _NODE_COLUMNS]
    flagged = _checked_rows([nd.node_id for nd in nodes_meta],
                            [nd.is_init for nd in nodes_meta], cols)
    if flagged != init_count:
        raise ConstructionError(f"init_count {init_count}, but {flagged} init nodes")
    init = STGraph().grow([col[:init_count] for col in cols], np.full(init_count, init_count),
                          config, mutual=True)
    return replace(init, init_count=init_count).grow(
        [col[init_count:] for col in cols], np.arange(init_count, n), config)


def graph_nodes_from_processed(nodes, init_count: int = 0) -> list[GraphNode]:
    """GraphNode metadata from ProcessedNode objects (ids must be 0..n-1)."""
    return [GraphNode(node_id=p.node_id, lon=p.coords[0], lat=p.coords[1],
                      t_raw=p.t_raw, t_norm=p.t_norm, is_init=(i < init_count))
            for i, p in enumerate(nodes)]


def save_graph_json(graph: STGraph, path) -> None:
    text = json.dumps(graph.to_json_dict(), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

