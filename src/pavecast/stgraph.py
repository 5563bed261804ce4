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
init_count rows are the initialization block. Rows enter build_graph and
grow alike, as those four _NODE_COLUMNS arrays. Parent edges are kept in
CSR form: the parents of node i are entries offsets[i]:offsets[i + 1] of
the per-edge columns parent, dist_m and origin (a code into ORIGINS). A
graph is a value: grow returns a new graph holding the old rows followed
by the new ones, and leaves the graph it was called on as it was.

Wiring: a node's parents depend only on the coordinates and times of the
rows before it, never on their features or edges. So combined_parents, the
one wiring kernel, wires a batch of rows per call, each against its own
prefix: build_graph calls it twice, a forecast once for all its queries.
It scores a row in rounds on a grid of cells about l_res wide, against the
candidates within s * l_res and s * t_res of it only, from s = 1, which
holds every proximity candidate, until its K-th best score is at most s.

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
_BLOCK_CELLS = 1 << 14  # (row, candidate) pairs scored at once: bounds a round's scratch
_SLACK = 16 * np.finfo(float).eps  # relative slack of a reach's bounds
_BLOCK_PAD = 4096  # padded scores that cost less than ranking one more block


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


Wiring = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # CSR (offsets, parent, dist_m, origin)
_NO_EDGES = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))  # (row, parent, dist_m)


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
    return ts.searchsorted(t - span - slack, "left"), ts.searchsorted(t + span + slack, "right")


def _spans(weight: np.ndarray) -> list[tuple[int, int]]:
    """Runs [i, j) of consecutive rows, each weighing at most _BLOCK_CELLS or one row."""
    cum, cuts = np.add.accumulate(weight), [0]
    while cuts[-1] < len(cum):
        base = cum[cuts[-1] - 1] if cuts[-1] else 0
        cuts.append(max(int(cum.searchsorted(base + _BLOCK_CELLS, "right")), cuts[-1] + 1))
    return list(zip(cuts, cuts[1:])) or [(0, 0)]


def _flatten(start, size: np.ndarray) -> np.ndarray:
    """The size[i] integers from start[i] of every run i, run after run."""
    end = np.add.accumulate(size)
    return (start - end + size).repeat(size) + np.arange(end[-1] if len(end) else 0)


def _kth(score: np.ndarray, counts: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th lowest score (inf below k), score holding counts[r]
    scores of each row r, row after row. The rows go in one inf-padded
    matrix, unless it would pad more than its scores + _BLOCK_PAD: then the
    rows over half the widest count go in one, which pads less than their
    scores, and the rest recurse."""
    top = int(counts.max(initial=0))
    if len(counts) * top > 2 * len(score) + _BLOCK_PAD:
        kth = np.empty(len(counts))
        wide = 2 * counts > top
        for part in (wide, ~wide):
            kth[part] = _kth(score[part.repeat(counts)], counts[part], k)
        return kth
    padded = np.full((len(counts), max(top, k)), math.inf)
    padded[np.arange(padded.shape[1]) < counts[:, None]] = score
    padded.partition(k - 1, axis=1)
    return padded[:, k - 1]


def _wire_rows(lon, lat, t_raw, rows, pr, cand, counts, reach, covered,
               config: GraphConfig, k: int, mutual: bool):
    """Score the pairs (rows[pr], cand), grouped by row, counts[r] for rows[r].
    Returns the rows that pass, each row's next reach and the passed rows'
    edges as (row index, parent, dist_m, key), key a rank or k + parent."""
    r = rows[pr]
    dist = _distances(lon[r], lat[r], lon[cand], lat[cand])
    score = np.abs(t_raw[r] - t_raw[cand])
    hard = (dist <= config.l_res_m) & (score <= config.t_res_days)
    if mutual:
        hard &= cand != r
    passed, edges = np.ones(len(rows), bool), []
    if k:
        score /= config.t_res_days
        score += dist / config.l_res_m
        if config.top_mode == "additional":
            score[hard] = math.inf
        kth = _kth(score, counts, k)
        passed = (kth <= reach) | covered
        done = passed[pr]
        best = (score <= kth[pr]) & (score < math.inf) & done  # in the pool
        sel = best.nonzero()[0]
        sel = sel[np.lexsort((cand[sel], score[sel], pr[sel]))]  # ties to the lower id
        row = pr[sel]
        rank = np.arange(len(sel)) - row.searchsorted(row)
        top = rank < k
        sel = sel[top]
        hard[sel] = False
        hard &= done
        edges.append((row[top], cand[sel], dist[sel], rank[top]))
        reach = np.where(kth < math.inf, kth, 4 * reach)
    h = hard.nonzero()[0]
    edges.append((pr[h], cand[h], dist[h], k + cand[h]))
    return passed, reach, edges


def _grid_edges(lon, lat, t_raw, limits: np.ndarray, config: GraphConfig, k: int,
                mutual: bool) -> list:
    """combined_parents' edges as _wire_rows' pieces keyed by position in limits,
    returned before the CSR columns are allocated, once its scratch is freed."""
    n_c = int(limits.max(initial=0))
    if not n_c:
        return []
    rows = np.arange(len(t_raw) - len(limits), len(t_raw))
    at = np.array((lat, lon))
    low = at.min(axis=1, keepdims=True)
    lat0, lon0 = low.ravel()
    lat1, lon1 = at.max(axis=1)
    if not all(map(math.isfinite, (lat0, lat1, lon0, lon1))):
        raise ArithmeticError("non-finite coordinates")
    cos_lo = max(math.cos(min(max(-lat0, lat1), 90.0) * _DEG) - 4 * _SLACK, 1e-300)
    deg = config.l_res_m / (EARTH_RADIUS_M * _DEG)  # l_res in degrees of latitude
    height = lat1 - lat0
    width = (lon1 - lon0) * cos_lo
    side = max(deg, math.sqrt(height * width / n_c), (height + width) / n_c)
    # a reach s spans s * per + pad cells either way, slack included
    per = deg * (1 + _SLACK) / side
    pad = _SLACK * max(-lat0, lat1, -lon0, lon1) / side
    at -= low
    at *= [[1 / side], [cos_lo / side]]  # in cells from the grid's corner
    xy = at[:, :n_c].astype(np.int64)  # each candidate's cell
    ny, nx = (xy.max(axis=1) + 1).tolist()
    key = xy[0] * nx + xy[1]
    runs = np.sort(key * n_c + np.arange(n_c))  # by cell, then id
    by_cell = runs % n_c
    occupied = np.bincount(key, minlength=ny * nx) > 0
    at = at[:, rows]
    last = np.array([[ny - 1], [nx - 1]])
    pending = np.flatnonzero(limits > 0)
    reach = np.ones(len(limits))
    edges = []
    while len(pending):
        s = reach[pending]
        lim = limits[pending]
        lo, hi = _time_window(t_raw[:n_c], t_raw[rows[pending]], s * config.t_res_days)
        lo = np.minimum(lo, lim)
        hi = np.minimum(hi, lim)  # lim unless mutual: no row below lim is later
        half = s * per + pad
        here = at[:, pending]
        box_lo = np.maximum(np.floor(here - half), 0)
        box_hi = np.minimum(np.floor(here + half), last)
        ys, xs = np.maximum(box_hi - box_lo + 1, 0).astype(np.int64)
        area = ys * xs
        covered = (area == ny * nx) & (lo == 0)
        corner = (box_lo[0] * nx + box_lo[1]).astype(np.int64)
        failed = []
        for i, j in _spans(area):
            # the span's (row, cell) entries, then each one's run of candidates
            er = np.arange(j - i).repeat(area[i:j])
            w = _flatten(0, area[i:j])
            wide = xs[i:j][er]
            cells = corner[i:j][er] + w + w // wide * (nx - wide)
            keep = occupied[cells]
            er = er[keep]
            cells = cells[keep] * n_c
            a = runs.searchsorted(cells + lo[i:j][er])
            size = runs.searchsorted(cells + hi[i:j][er]) - a
            counts = np.bincount(er, size, j - i).astype(np.int64)
            for p, q in _spans(counts):
                e = slice(*er.searchsorted((p, q)))
                now = pending[i + p:i + q]
                passed, nxt, out = _wire_rows(
                    lon, lat, t_raw, rows[now], er[e].repeat(size[e]) - p,
                    by_cell[_flatten(a[e], size[e])], counts[p:q], s[i + p:i + q],
                    covered[i + p:i + q], config, k, mutual)
                edges += [(now[r], *rest) for r, *rest in out]
                reach[now] = nxt
                failed.append(now[~passed])
        pending = np.concatenate(failed)
    return edges


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
    later than the rows they are candidates of. They go on a grid of cells
    l_res tall and l_res / cos(max |lat|) wide (coarser if that makes more
    cells than candidates), sorted by cell, then id: a cell's candidates in
    a time window are one run, found by searchsorted. A round scores a row
    against the candidates within its reach s: in the cells within s * l_res
    and the times within s * t_res, widened by _time_window's slack. s starts
    at 1, which holds every proximity candidate. R * |dphi| and R *
    cos(max |lat|) * |dlam| bound the distance from below, so a row whose K-th
    best score is at most s is done: every candidate out of reach scores
    more. Others go again with s set to that score (4s while they have fewer
    than K) until they are done or reach every candidate.
    """
    limits = np.asarray(limits, np.int64)
    n, k = len(t_raw), 0 if mutual else config.top_k
    t = t_raw[n - len(limits):]
    if not np.isfinite(t).all():
        raise ArithmeticError("non-finite time")
    if not mutual:
        late = (limits > 0) & (t_raw[np.maximum(limits - 1, 0)] > t)
        if late.any():
            raise TemporalOrderError(f"node at t={t[late][0]} is older than a candidate "
                                     f"at t={t_raw[limits[late][0] - 1]}")
    pos, parent, dist, key = (np.concatenate(col) for col in zip(
        (*_NO_EDGES, _NO_EDGES[0]), *_grid_edges(lon, lat, t_raw, limits, config, k, mutual)))
    origin = np.full(len(pos), INIT if mutual else HARD, _ORIGIN_DTYPE)
    origin[key < k] = TOP
    order = (pos * (n + k) + key).argsort(kind="stable")  # ranked edges first, by rank
    offsets = np.zeros(len(limits) + 1, np.int64)
    np.add.accumulate(np.bincount(pos, minlength=len(limits)), out=offsets[1:])
    return offsets, parent[order], dist[order], origin[order]


def build_graph(cols, init_count: int, config: GraphConfig) -> STGraph:
    """The initialization block, then every later row wired against the rows before it.

    cols are the _NODE_COLUMNS arrays, as STGraph.grow takes them, and the
    first init_count rows are the initialization block. Raises
    ConstructionError for other than four columns of one length, an
    init_count outside [1, n] and non-finite coordinates or times, and
    TemporalOrderError for a t_raw that goes backwards.
    """
    cols = [np.asarray(col, dtype=float) for col in cols]
    if len(cols) != len(_NODE_COLUMNS) or len({col.shape for col in cols}) != 1 \
            or cols[0].ndim != 1:
        raise ConstructionError(f"expected the columns {', '.join(_NODE_COLUMNS)}, "
                                f"one length each, got shapes {[col.shape for col in cols]}")
    n = len(cols[0])
    if init_count <= 0 or init_count > n:
        raise ConstructionError(f"bad init_count {init_count} for {n} nodes")
    if not all(np.isfinite(col).all() for col in cols):
        raise ConstructionError("node coordinates and times must be finite")
    if np.any(np.diff(cols[_NODE_COLUMNS.index("t_raw")]) < 0):
        raise TemporalOrderError("node t_raw must be nondecreasing")
    init = STGraph().grow([col[:init_count] for col in cols], np.full(init_count, init_count),
                          config, mutual=True)
    return replace(init, init_count=init_count).grow(
        [col[init_count:] for col in cols], np.arange(init_count, n), config)


def graph_nodes_from_processed(nodes, init_count: int = 0) -> list[np.ndarray]:
    """The _NODE_COLUMNS arrays of ProcessedNode objects, row i read from nodes[i].

    init_count is ignored (build_graph takes the initialization block's
    size); it stays only because perfbench/worker.py still passes it.
    """
    return [np.fromiter(values, float, len(nodes)) for values in (
        (p.coords[0] for p in nodes), (p.coords[1] for p in nodes),
        (p.t_raw for p in nodes), (p.t_norm for p in nodes))]


def save_graph_json(graph: STGraph, path) -> None:
    text = json.dumps(graph.to_json_dict(), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

