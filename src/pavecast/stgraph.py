"""Directed spatiotemporal graph over (location, time) observation nodes.

Edges point from older nodes to newer ones. Two mechanisms create them:
proximity edges when both the location and time gaps fall under configured
thresholds, and ranked compensation edges that force every node to connect
to its K closest predecessors under a joint space-time score, so sparse
series still receive information. One rule ranks every predecessor,
proximity ones included: one among the K best is a ranked edge only. An
initialization block of the earliest nodes is mutually visible (proximity
edges in both directions) and seeds the autoregressive expansion.

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
older prefix: build_graph calls it twice, a forecast once for all its queries.
It scores a row in rounds on a grid of cells about l_res wide. No candidate
is newer than the row's newest one, g * t_res older than the row, so every
candidate scores at least g + dist / l_res: a round at reach s scores only
the candidates within (s - g) * l_res and s * t_res of the row, since any
other scores over s. It starts at s = g + 1, which holds every proximity
candidate, and stops once the row's K-th best score is at most s, so a
query months past the history scans only the cells near it.

Sorted-time contract: t_raw is nondecreasing over the rows of every graph
that build_graph produces. combined_parents relies on it: each row's
candidate prefix must be sorted by time and no later than the row, so a
row's time window ends where its prefix does and only its start is searched.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

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
    """The proximity thresholds and K; the ranking rule is no setting."""

    l_res_m: float = 200.0    # proximity threshold, meters
    t_res_days: float = 14.0  # proximity threshold, days
    top_k: int = 5
    # the one ranking rule, not a field: every candidate is ranked, proximity
    # ones included; it stays only because perfbench/reference.py reads it
    top_mode = "merged"

    def __post_init__(self):
        if not (0 < self.l_res_m < math.inf and 0 < self.t_res_days < math.inf):
            raise ConstructionError("l_res_m and t_res_days must be finite and positive")
        if self.top_k < 0:
            raise ConstructionError("top_k must be >= 0")


Wiring = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]  # CSR (offsets, parent, dist_m, origin)
_NO_EDGES = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))  # (row, parent, dist_m)


@dataclass(frozen=True, eq=False)
class STGraph:
    """Node columns plus CSR parent lists; see the module docstring.

    A value: grow returns a new graph, and no method writes the arrays.
    """

    lon: np.ndarray
    lat: np.ndarray
    t_raw: np.ndarray
    t_norm: np.ndarray
    offsets: np.ndarray
    parent: np.ndarray
    dist_m: np.ndarray
    origin: np.ndarray
    init_count: int

    @property
    def n(self) -> int:
        return len(self.t_raw)

    @property
    def child(self) -> np.ndarray:
        """The node each parent edge points to, per edge."""
        return np.repeat(np.arange(self.n), np.diff(self.offsets))

    def edge_count(self) -> int:
        return len(self.parent)

    def parent_counts(self, ids) -> np.ndarray:
        return self.offsets[ids + 1] - self.offsets[ids]

    def edge_positions(self, ids) -> np.ndarray:
        """Positions of the parent edges of rows ids, row by row in stored order."""
        return _flatten(self.offsets[ids], self.parent_counts(ids))

    def origin_counts(self) -> dict[str, int]:
        counts = np.bincount(self.origin, minlength=len(ORIGINS))
        return {name: int(c) for name, c in zip(ORIGINS, counts)}

    def grow(self, cols, limits, config: GraphConfig) -> "STGraph":
        """This graph plus rows holding cols (the _NODE_COLUMNS arrays), new row r
        wired by combined_parents against the rows [0, limits[r]) of the result."""
        lon, lat, t_raw, t_norm = (np.concatenate((getattr(self, name), col))
                                   for name, col in zip(_NODE_COLUMNS, cols))
        offsets, parent, dist_m, origin = combined_parents(lon, lat, t_raw, limits, config)
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


def _window_start(ts: np.ndarray, t: np.ndarray, span) -> np.ndarray:
    """The first row of the sorted ts with t - ts <= span, per t.

    The bound carries a slack far above the rounding error of t - span, so
    it is only a candidate filter: callers apply the exact mask.
    """
    return ts.searchsorted(t - span - _SLACK * (np.abs(t) + span), "left")


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
    scores, and the rest recurse. A k over every count pads nothing."""
    top = int(counts.max(initial=0))
    if k > top:
        return np.full(len(counts), math.inf)
    if len(counts) * top > 2 * len(score) + _BLOCK_PAD:
        kth = np.empty(len(counts))
        wide = 2 * counts > top
        for part in (wide, ~wide):
            kth[part] = _kth(score[part.repeat(counts)], counts[part], k)
        return kth
    padded = np.full((len(counts), top), math.inf)
    padded[np.arange(padded.shape[1]) < counts[:, None]] = score
    padded.partition(k - 1, axis=1)
    return padded[:, k - 1]


def _wire_rows(lon, lat, t_raw, rows, pr, cand, counts, reach, near, covered,
               config: GraphConfig, k: int):
    """Score the pairs (rows[pr], cand), grouped by row, counts[r] for rows[r],
    at each row's reach, near its reach less its gap. Returns the rows that
    pass, each row's next reach and the passed rows' edges as (row index,
    parent, dist_m, key), key a rank or k + parent."""
    r = rows[pr]
    dist = _distances(lon[r], lat[r], lon[cand], lat[cand])
    score = np.abs(t_raw[r] - t_raw[cand])
    hard = (dist <= config.l_res_m) & (score <= config.t_res_days)
    passed, edges = np.ones(len(rows), bool), []
    if k:
        score /= config.t_res_days
        score += dist / config.l_res_m
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
        reach = np.where(kth < math.inf, kth, reach + 3 * near)  # g + 4(s - g) below K
    h = hard.nonzero()[0]
    edges.append((pr[h], cand[h], dist[h], k + cand[h]))
    return passed, reach, edges


def _grid_edges(lon, lat, t_raw, limits: np.ndarray, config: GraphConfig, k: int,
                gap: np.ndarray) -> list:
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
    reach = gap + 1
    edges = []
    while len(pending):
        s = reach[pending]
        near = s - gap[pending]  # a score <= s puts dist under near * l_res
        hi = limits[pending]  # no candidate is later than its row
        lo = np.minimum(_window_start(t_raw[:n_c], t_raw[rows[pending]], s * config.t_res_days),
                        hi)
        half = near * per + pad
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
                    near[i + p:i + q], covered[i + p:i + q], config, k)
                edges += [(now[r], *rest) for r, *rest in out]
                reach[now] = nxt
                failed.append(now[~passed])
        pending = np.concatenate(failed)
    return edges


def combined_parents(lon: np.ndarray, lat: np.ndarray, t_raw: np.ndarray, limits,
                     config: GraphConfig) -> Wiring:
    """CSR parent lists of the last len(limits) rows of the columns lon, lat, t_raw.

    New row r is wired against the rows [0, limits[r]): first ranked edges
    to the top_k candidates with the lowest dist/l_res + dt/t_res score,
    ties to the lower id, proximity candidates ranked too, then proximity
    edges to every other candidate within both thresholds (inclusive), in
    id order; top_k=0 gives the pure
    proximity set. Writes none of its arguments. Raises ConstructionError
    for a limit outside [0, i], i being the row's index in the columns: a
    row is never its own or a newer row's candidate.

    The rows [0, max(limits)) must be sorted by time and no later than the
    rows they are candidates of. They go on a grid of cells l_res tall and
    l_res / cos(max |lat|) wide (coarser if that makes more cells than
    candidates), sorted by cell, then id: a cell's candidates in a time
    window are one run, found by searchsorted.

    A row's gap g is dt / t_res to its newest candidate, rounded down far
    past a score's rounding error: every candidate's time term is at least
    g. g is clamped at 2^52, where g + 1 is still exact: a smaller lower
    bound is still a bound, so the edges stay those of a scan. From 2^53 on
    g + 1 would round to g, and a row's reach would never grow.
    A round scores a row against the candidates within its reach s: in
    the cells within (s - g) * l_res and the times within s * t_res,
    widened by _window_start's slack. R * |dphi| and R *
    cos(max |lat|) * |dlam| bound the distance from below, so a candidate
    out of reach scores over s: over s in time, or over g + (s - g) in
    space. A row whose K-th best score is at most s is therefore done, with
    the edges a scan of every candidate gives. s starts at g + 1, which
    holds every proximity candidate. Other rows go again with s set to that
    score (g + 4(s - g) while they have fewer than K) until they are done or
    reach every candidate.
    """
    limits = np.asarray(limits, np.int64)
    n = len(t_raw)
    first = n - len(limits)  # the first new row
    bad = (limits < 0) | (limits > first + np.arange(len(limits)))
    if bad.any():
        r = int(np.argmax(bad))
        raise ConstructionError(f"row {first + r} has limit {limits[r]}, outside "
                                f"[0, {first + r}]: its candidates are rows before it")
    # no row ranks more than max(limits) candidates; the clamp also keeps the
    # sort key pos * (n + k) inside int64
    k = min(config.top_k, int(limits.max(initial=0)))
    t = t_raw[first:]
    if not np.isfinite(t).all():
        raise ArithmeticError("non-finite time")
    newest = t_raw[np.maximum(limits - 1, 0)]
    late = (limits > 0) & (newest > t)
    if late.any():
        raise TemporalOrderError(f"node at t={t[late][0]} is older than a candidate "
                                 f"at t={t_raw[limits[late][0] - 1]}")
    # dt / t_res to the newest candidate, rounded down far past a score's
    # rounding error: it bounds every candidate's time term from below
    gap = np.minimum((t - newest) * ((1 - _SLACK) / config.t_res_days), 2.0**52)
    pos, parent, dist, key = (np.concatenate(col) for col in zip(
        (*_NO_EDGES, _NO_EDGES[0]), *_grid_edges(lon, lat, t_raw, limits, config, k, gap)))
    origin = np.full(len(pos), HARD, _ORIGIN_DTYPE)
    origin[key < k] = TOP
    order = (pos * (n + k) + key).argsort(kind="stable")  # ranked edges first, by rank
    offsets = np.zeros(len(limits) + 1, np.int64)
    np.add.accumulate(np.bincount(pos, minlength=len(limits)), out=offsets[1:])
    return offsets, parent[order], dist[order], origin[order]


def build_graph(cols, init_count: int, config: GraphConfig) -> STGraph:
    """The initialization block, then every later row wired against the rows before it.

    cols are the _NODE_COLUMNS arrays, as STGraph.grow takes them, and the
    first init_count rows are the initialization block. A block row gets its
    proximity parents among the rows before it (top_k=0), and every block
    edge is added reversed too, so the block's rows see one another both
    ways; a block row's parents are INIT, in id order. Raises
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
    head = [col[:init_count] for col in cols]
    offsets, parent, dist_m, _ = combined_parents(*head[:3], np.arange(init_count),
                                                  replace(config, top_k=0))
    # mirror each edge: _distances gives a -> b and b -> a the same bits
    child = np.arange(init_count).repeat(np.diff(offsets))
    child, parent = np.concatenate((child, parent)), np.concatenate((parent, child))
    order = (child * init_count + parent).argsort()
    np.add.accumulate(np.bincount(child, minlength=init_count), out=offsets[1:])
    init = STGraph(*head, offsets, parent[order], np.concatenate((dist_m, dist_m))[order],
                   np.full(len(order), INIT, _ORIGIN_DTYPE), init_count)
    del child, parent, dist_m, order  # not alive through the later rows' wiring
    return init.grow([col[init_count:] for col in cols], np.arange(init_count, n), config)


def graph_nodes_from_processed(nodes, init_count: int = 0) -> list[np.ndarray]:
    """The _NODE_COLUMNS arrays of a dataset.NodeTable. init_count is ignored
    (build_graph takes it); it stays only because perfbench/worker.py passes it."""
    return [nodes.lon, nodes.lat, nodes.t_raw, nodes.t_norm]


def save_graph_json(graph: STGraph, path) -> None:
    text = json.dumps(graph.to_json_dict(), sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)

