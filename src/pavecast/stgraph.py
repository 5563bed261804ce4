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
It scores each row against its candidates in rounds, and each candidate
once. The first round scores a time window that holds every proximity
candidate and at least K rows. A row whose K-th best score could still be
beaten by an older row carries its K best candidates, and the proximity
candidates it may yet rank, into the next round. That round scores only
the older rows its window did not cover, plus the K it holds. Every round
groups its rows by width into blocks, each scored as one padded matrix.

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
_SLACK = 16 * np.finfo(float).eps  # relative slack of a time window's bounds
_BLOCK_FIXED_CELLS = 2048  # a kernel block's fixed cost, in scores
_GROWTH = 4  # a row's widened window is at most this many times as wide


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
    (lons, lats) on that row, all in degrees. Computed in place, so that at
    most three temporaries the size of lons are alive at once."""
    dphi = lats - lat
    dphi *= _DEG
    cos_mid = lats + lat
    cos_mid *= 0.5
    cos_mid *= _DEG
    np.cos(cos_mid, out=cos_mid)
    dlam = lons - lon
    dlam *= _DEG
    cos_mid *= dlam
    del dlam
    np.square(cos_mid, out=cos_mid)
    np.square(dphi, out=dphi)
    dphi += cos_mid
    del cos_mid
    np.sqrt(dphi, out=dphi)
    dphi *= EARTH_RADIUS_M
    return dphi


def _time_window(ts: np.ndarray, t: np.ndarray, span) -> tuple[np.ndarray, np.ndarray]:
    """Rows lo:hi of the sorted ts that hold every row with |t - ts| <= span, per t.

    The bounds carry a slack far above the rounding error of t -+ span, so
    the window is only a candidate filter: callers apply the exact mask.
    """
    slack = _SLACK * (np.abs(t) + span)
    return (np.searchsorted(ts, t - span - slack, side="left"),
            np.searchsorted(ts, t + span + slack, side="right"))


def _blocks(width: np.ndarray) -> list[np.ndarray | slice]:
    """Blocks of rows of similar width, as indices into width.

    A block pads its rows to its widest one, and costs _BLOCK_FIXED_CELLS
    scores beyond them. Rows that fit one block padded by less than that
    are one block, slice(None). Otherwise, going from the widest rows down,
    each block takes the run of next narrower rows with the least cost per
    row (fixed cost plus padding over the rows), so a block ends where the
    next row would pad more than that. No block holds more than
    _BLOCK_CELLS scores, or one row.
    """
    top = int(width.max(initial=0))
    if len(width) * top <= _BLOCK_CELLS and \
            len(width) * top - int(width.sum()) <= _BLOCK_FIXED_CELLS:
        return [slice(None)]
    order = np.argsort(width, kind="stable")
    w = width[order]
    cells = np.concatenate(([0], np.cumsum(w)))
    blocks, hi = [], len(w)
    while hi:
        top = int(w[hi - 1])
        size = np.arange(1, min(max(_BLOCK_CELLS // max(top, 1), 1), hi) + 1)
        padding = size * top - (cells[hi] - cells[hi - size])
        lo = hi - int(size[np.argmin((_BLOCK_FIXED_CELLS + padding) / size)])
        blocks.append(order[lo:hi])
        hi = lo
    return blocks


def _wire_block(lon, lat, t_raw, rows, held, start, end, config: GraphConfig, mutual: bool):
    """Score rows against the candidates they hold and their windows [start, end).

    held (B x h) holds the ids of the candidates each row ranked best so
    far, -1 for none; h is 0 on the rows' first windows, the only ones that
    can hold proximity candidates. Returns (passed, kth, best, hard): the
    rows that pass the stopping rule, each row's K-th best score, each
    row's K best candidates as (row, parent, dist_m, rank) in rank order,
    ties to the lower id, and the first windows' proximity candidates as
    (row, parent, dist_m) in id order, less the ranked ones of passed rows.
    """
    n_held = held.shape[1]
    width = n_held + int((end - start).max(initial=0))
    idx = np.empty((len(rows), width), np.int64)
    valid = np.empty(idx.shape, bool)
    np.add(start[:, None], np.arange(width - n_held), out=idx[:, n_held:])
    np.less(idx[:, n_held:], end[:, None], out=valid[:, n_held:])
    np.minimum(idx, len(t_raw) - 1, out=idx)
    if n_held:
        np.greater_equal(held, 0, out=valid[:, :n_held])
        np.maximum(held, 0, out=idx[:, :n_held])
    if mutual:
        valid &= idx != rows[:, None]
    dist = _distances(lon[rows, None], lat[rows, None], lon[idx], lat[idx])
    # padded cells point at any row: only a valid one's distance must be finite
    if not np.isfinite(dist).all() and not (np.isfinite(dist) | ~valid).all():
        raise ArithmeticError("non-finite coordinates")
    t = t_raw[rows]
    dt = t_raw[idx]
    np.subtract(t[:, None], dt, out=dt)
    np.abs(dt, out=dt)
    hard = None
    if not n_held:
        hard = valid & (dist <= config.l_res_m) & (dt <= config.t_res_days)
    k = 0 if mutual else config.top_k
    passed, kth, best = np.ones(len(rows), bool), None, (*_NO_EDGES, _NO_EDGES[0])
    if k:
        score = dt
        score /= config.t_res_days
        score += dist / config.l_res_m
        pool = valid if hard is None or config.top_mode == "merged" else valid & ~hard
        np.copyto(score, math.inf, where=~pool)  # inf: fewer than K in the pool
        kth = (np.partition(score, k - 1, axis=1)[:, k - 1] if width >= k
               else np.full(len(rows), math.inf))
        # every candidate older than the window scores at least its dt/t_res
        passed = (start == 0) | (np.abs(t - t_raw[np.maximum(start - 1, 0)])
                                 / config.t_res_days > kth)
        r, c = np.nonzero(score <= kth[:, None] if np.isfinite(kth).all()
                          else pool & (score <= kth[:, None]))
        parent = idx[r, c]
        order = np.lexsort((parent, score[r, c], r))  # ties to the lower id; r stays sorted
        rank = np.arange(len(r)) - np.searchsorted(r, r)
        ranked = rank < k
        order, r = order[ranked], r[ranked]
        c = c[order]
        best = (r, parent[order], dist[r, c], rank[ranked])
        if hard is not None:
            top = passed[r]
            hard[r[top], c[top]] = False
    if hard is None:
        return passed, kth, best, _NO_EDGES
    hr, hc = np.nonzero(hard)
    return passed, kth, best, (hr, idx[hr, hc], dist[hr, hc])


def combined_parents(lon: np.ndarray, lat: np.ndarray, t_raw: np.ndarray, limits,
                     config: GraphConfig, mutual: bool = False) -> Wiring:
    """CSR parent lists of the last len(limits) rows of the columns lon, lat, t_raw.

    New row r is wired against the rows [0, limits[r]): first ranked edges
    to the top_k candidates with the lowest dist/l_res + dt/t_res score,
    ties to the lower id, then proximity edges to every other candidate
    within both thresholds (inclusive), in id order; top_k=0 gives the pure
    proximity set. mutual wires an initialization block instead: parents are
    every other row of [0, limit), older or newer, within both thresholds.
    Writes none of its arguments.

    The rows [0, max(limits)) must be sorted by time and, unless mutual, no
    later than the rows they are candidates of. A row is first scored over
    the window [min(lo, limit - K), limit), where lo is the oldest row
    within t_res of it: that window holds every proximity candidate and at
    least K rows. Ranked candidates lie in the window too once the next
    older candidate's dt/t_res, a lower bound on its score and on every
    older one's, is strictly above the K-th best score. A row that fails
    that rule holds on to its K best candidates and is scored again over
    those and the older rows its window did not cover only: the window
    grows to at most _GROWTH times its width, and to no row whose dt/t_res
    exceeds the K-th best score. Its first window's proximity candidates
    become edges once it passes, less those it ranked. Each round groups
    its rows into blocks of similar width (_blocks), each scored as one
    matrix of at most _BLOCK_CELLS scores.
    """
    limits = np.asarray(limits, np.int64)
    rows = np.arange(len(t_raw) - len(limits), len(t_raw))
    t = t_raw[rows]
    if not np.isfinite(t).all():
        raise ArithmeticError("non-finite time")
    ts = t_raw[:limits.max(initial=0)]
    lo, hi = _time_window(ts, t, config.t_res_days)
    k = 0 if mutual else config.top_k
    if mutual:
        start, end = np.minimum(lo, limits), np.minimum(hi, limits)
    else:
        late = (limits > 0) & (t_raw[np.maximum(limits - 1, 0)] > t)
        if late.any():
            r = int(np.argmax(late))
            raise TemporalOrderError(f"node at t={t[r]} is older than a candidate "
                                     f"at t={t_raw[limits[r] - 1]}")
        start, end = np.maximum(0, np.minimum(lo, limits - k)), limits
    # each round: the rows still to wire, as positions into limits, with the
    # candidates they hold and their next window
    pending, held = np.arange(len(limits)), np.empty((len(limits), 0), np.int64)
    tops, hards, provisional = [], [], []
    first_round = 0  # how many entries of tops the first round made
    while len(pending):
        carried = []
        for b in _blocks(held.shape[1] + end - start):
            pb = pending[b]
            passed, kth, (r, parent, dist, rank), (hr, hp, hd) = _wire_block(
                lon, lat, t_raw, rows[pb], held[b], start[b], end[b], config, mutual)
            if passed.all():
                tops.append((pb[r], parent, dist))
                hards.append((pb[hr], hp, hd))
                continue
            top, done = passed[r], passed[hr]
            tops.append((pb[r[top]], parent[top], dist[top]))
            hards.append((pb[hr[done]], hp[done], hd[done]))
            provisional.append((pb[hr[~done]], hp[~done], hd[~done]))
            redo, top = np.flatnonzero(~passed), ~top
            keep = np.full((len(redo), k), -1, np.int64)
            keep[np.searchsorted(redo, r[top]), rank[top]] = parent[top]
            pr, s = pb[redo], start[b][redo]
            # no candidate better than the K-th is older than t - kth * t_res
            bound = _time_window(ts, t[pr], kth[redo] * config.t_res_days)[0]
            grown = np.maximum(bound, limits[pr] - _GROWTH * (limits[pr] - s))
            carried.append((pr, keep, np.maximum(0, np.minimum(grown, s - 1)), s))
        first_round = first_round or len(tops)
        if not carried:
            break
        pending, held, start, end = (np.concatenate(col) for col in zip(*carried))
    n_top = sum(len(r) for r, _, _ in tops)
    row, prov, prov_dist = (np.concatenate(col) for col in zip(_NO_EDGES, *provisional))
    if len(row):  # rows that failed their first window, all ranked in later rounds
        pos, parent, _ = (np.concatenate(col) for col in zip(*tops[first_round:]))
        ranked = np.sort(pos * len(t_raw) + parent)
        key = row * len(t_raw) + prov
        other = ranked[np.minimum(np.searchsorted(ranked, key), len(ranked) - 1)] != key
        hards.append((row[other], prov[other], prov_dist[other]))
    pos, parent, dist = (np.concatenate(col) for col in zip(_NO_EDGES, *tops, *hards))
    origin = np.full(len(pos), INIT if mutual else HARD, _ORIGIN_DTYPE)
    origin[:n_top] = TOP
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

