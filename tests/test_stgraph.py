import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pavecast import dataset as ds
from pavecast import pipeline
from pavecast import stgraph as sg

from conftest import small_instance


class Row(NamedTuple):
    """One graph row as the brute-force oracles read it; node_id is its position."""
    node_id: int
    lon: float
    lat: float
    t_raw: float
    t_norm: float


def rand_nodes(rng, n, extent=0.01, span=100.0):
    """Random time-sorted rows with ids equal to positions."""
    ts = np.sort(rng.uniform(0, span, n))
    return [Row(node_id=i,
                lon=121.0 + float(rng.uniform(-extent, extent)),
                lat=31.0 + float(rng.uniform(-extent, extent)),
                t_raw=float(ts[i]), t_norm=float(ts[i] / span))
            for i in range(n)]


def equirect_m(a, b):
    """Scalar equirectangular distance in meters between (lon, lat) degree pairs."""
    (lon_a, lat_a), (lon_b, lat_b) = a, b
    deg = math.pi / 180.0
    dphi = (lat_b - lat_a) * deg
    dlam = (lon_b - lon_a) * deg
    cos_mid = math.cos(0.5 * (lat_a + lat_b) * deg)
    return 6371000.0 * math.sqrt(dphi * dphi + (cos_mid * dlam) ** 2)


def brute_force_parents(node, candidates, config):
    """O(n log n) reference: full sort for ranked edges, linear filter for proximity."""
    scored = sorted(
        ((equirect_m((node.lon, node.lat), (c.lon, c.lat)) / config.l_res_m
          + abs(node.t_raw - c.t_raw) / config.t_res_days, c.node_id)
         for c in candidates))
    top = [nid for _, nid in scored[:config.top_k]]
    hard = [c.node_id for c in candidates
            if equirect_m((node.lon, node.lat), (c.lon, c.lat)) <= config.l_res_m
            and abs(node.t_raw - c.t_raw) <= config.t_res_days]
    return set(top) | set(hard), top


def brute_force_graph_edges(nodes, init_count, config):
    """Edge set over the final node list, candidates restricted to temporal order."""
    edges = set()
    for i, nd in enumerate(nodes):
        if i < init_count:
            for j in range(init_count):
                if j == i:
                    continue
                other = nodes[j]
                if (equirect_m((nd.lon, nd.lat), (other.lon, other.lat))
                        <= config.l_res_m
                        and abs(nd.t_raw - other.t_raw) <= config.t_res_days):
                    edges.add((other.node_id, nd.node_id))
        else:
            parent_ids, _ = brute_force_parents(nd, nodes[:i], config)
            edges.update((p, nd.node_id) for p in parent_ids)
    return edges


def edge_set(graph):
    return set(zip(graph.parent.tolist(), graph.child.tolist()))


def in_degree(graph):
    return np.diff(graph.offsets)


def columns(nodes):
    """The lon, lat, t_raw and t_norm columns of the given nodes."""
    return [np.array([getattr(nd, name) for nd in nodes], dtype=float)
            for name in ("lon", "lat", "t_raw", "t_norm")]


def wire(nodes, limits, config):
    """One combined_parents call for the last len(limits) nodes: per row, its
    parents as (parent, origin, dist_m) tuples."""
    offsets, parent, dist, origin = sg.combined_parents(*columns(nodes)[:3], limits, config)
    assert offsets[0] == 0 and offsets[-1] == len(parent) == len(dist) == len(origin)
    edges = [(int(p), sg.ORIGINS[o], float(d)) for p, o, d in zip(parent, origin, dist)]
    return [edges[a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def parents(node, candidates, config):
    """combined_parents over the candidates, as (parent, origin, dist_m) tuples."""
    (row,) = wire(candidates + [node], [len(candidates)], config)
    return row


def proximity(node, candidates, config=None):
    """The pure proximity parent set: combined_parents with no ranked edges."""
    return parents(node, candidates, replace(config or sg.GraphConfig(), top_k=0))


def ranked(node, candidates, config):
    """Parent ids of the ranked ("top") edges, in rank order."""
    return [p for p, origin, _ in parents(node, candidates, config) if origin == "top"]


def pair_distance(a, b):
    """Distance in meters that combined_parents reports between two (lon, lat)."""
    far = sg.GraphConfig(l_res_m=1e9, t_res_days=1e9, top_k=1)
    node = Row(1, a[0], a[1], 0.0, 0.0)
    ((_, _, dist),) = parents(node, [Row(0, b[0], b[1], 0.0, 0.0)], far)
    return dist


# ---------------------------------------------------------------------------
# distances


def test_edge_positions_list_each_rows_parent_edges_in_stored_order():
    graph = small_instance(67, n=12)["graph"]
    off = graph.offsets
    for ids in (np.arange(graph.n), np.random.default_rng(0).choice(graph.n, 7),
                np.empty(0, np.int64)):
        assert graph.parent_counts(ids).tolist() == [off[i + 1] - off[i] for i in ids]
        assert graph.edge_positions(ids).tolist() == [
            p for i in ids for p in range(off[i], off[i + 1])]


def test_distance_identical_points():
    assert pair_distance((121.0, 31.0), (121.0, 31.0)) == 0.0


def test_distance_symmetric():
    a, b = (121.002, 31.01), (121.03, 30.98)
    assert pair_distance(a, b) == pair_distance(b, a)


def test_distance_hand_value():
    # one hundredth of a degree of longitude at 31 deg N
    d = pair_distance((121.0, 31.0), (121.01, 31.0))
    assert d == pytest.approx(953.1, abs=0.2)
    assert d == pytest.approx(equirect_m((121.0, 31.0), (121.01, 31.0)), rel=1e-15)


@pytest.mark.filterwarnings(
    "ignore:invalid value encountered in subtract:RuntimeWarning",
    "ignore:invalid value encountered in cos:RuntimeWarning")
def test_distance_nonfinite():
    node = Row(1, float("nan"), 31.0, 1.0, 0.1)
    cand = Row(0, 121.0, 31.0, 0.0, 0.0)
    with pytest.raises(ArithmeticError):
        parents(node, [cand], sg.GraphConfig())
    with pytest.raises(ArithmeticError):
        parents(cand._replace(node_id=1, t_raw=2.0), [node._replace(node_id=0)],
                sg.GraphConfig(top_k=0))
    with pytest.raises(ArithmeticError):
        parents(node._replace(lon=121.0), [cand._replace(lat=math.inf)], sg.GraphConfig())


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_non_finite_time_of_a_new_row_is_rejected(t):
    cand = Row(0, 121.0, 31.0, 0.0, 0.0)
    with pytest.raises(ArithmeticError, match="^non-finite time$"):
        parents(cand._replace(node_id=1, t_raw=t), [cand], sg.GraphConfig())


# ---------------------------------------------------------------------------
# proximity edges (top_k=0)


def test_hard_edge_trivial_inclusion():
    cfg = sg.GraphConfig(top_k=0)
    cand = Row(0, 121.0, 31.0, 10.0, 0.1)
    g = sg.build_graph(columns([cand, Row(1, 121.0, 31.0, 10.0, 0.1)]), 1, cfg)
    assert g.to_json_dict()["edges"] == [
        {"from": 0, "to": 1, "origin": "hard", "dt_norm": 0.0, "dist_m": 0.0}]


def test_hard_edge_threshold_is_inclusive_and_strict_beyond():
    cfg = sg.GraphConfig(l_res_m=200.0, t_res_days=14.0)
    node = Row(1, 121.0, 31.0, 20.0, 0.2)
    # ~0.0021 deg of longitude is just over 200 m at 31 N
    beyond = Row(0, 121.0021, 31.0, 20.0, 0.2)
    assert equirect_m((121.0, 31.0), (121.0021, 31.0)) > 200.0
    assert proximity(node, [beyond], cfg) == []
    at_time_limit = Row(0, 121.0, 31.0, 6.0, 0.06)
    assert len(proximity(node, [at_time_limit], cfg)) == 1


def test_hard_edges_match_brute_force_filter():
    rng = np.random.default_rng(17)
    cfg = sg.GraphConfig(l_res_m=400.0, t_res_days=10.0)
    nodes = rand_nodes(rng, 31, extent=0.006, span=60.0)
    target, candidates = nodes[-1], nodes[:-1]
    got = [p for p, _, _ in proximity(target, candidates, cfg)]
    want = [c.node_id for c in candidates
            if equirect_m((target.lon, target.lat), (c.lon, c.lat)) <= cfg.l_res_m
            and abs(target.t_raw - c.t_raw) <= cfg.t_res_days]
    assert got == want and got  # non-degenerate instance, in id order


# ---------------------------------------------------------------------------
# ranked edges


def test_top_returns_all_when_fewer_than_k():
    cfg = sg.GraphConfig(top_k=5)
    rng = np.random.default_rng(3)
    nodes = rand_nodes(rng, 4)
    assert len(ranked(nodes[-1], nodes[:-1], cfg)) == 3


def test_top_tie_broken_by_lower_id():
    cfg = sg.GraphConfig(top_k=1)
    node = Row(5, 121.0, 31.0, 50.0, 0.5)
    twin = Row(2, 121.001, 31.0, 40.0, 0.4)
    far = Row(0, 121.5, 31.0, 10.0, 0.1)
    candidates = [far, far._replace(node_id=1, t_raw=20.0), twin,
                  far._replace(node_id=3, t_raw=40.0), twin._replace(node_id=4)]
    assert ranked(node, candidates, cfg) == [2]


def test_top_matches_sorted_oracle_prefix():
    rng = np.random.default_rng(5)
    cfg = sg.GraphConfig(top_k=5)
    nodes = rand_nodes(rng, 13)
    target, candidates = nodes[-1], nodes[:-1]
    _, oracle_top = brute_force_parents(target, candidates, cfg)
    assert ranked(target, candidates, cfg) == oracle_top


T_RES = 14.0
# every case runs combined_parents' one ranking rule, named in its id
RANKING = pytest.mark.parametrize("top_mode", [sg.GraphConfig.top_mode])
SPOTS = [(121.0, 31.0), (121.001, 31.0), (121.0, 31.0015), (121.0023, 30.999)]


@settings(deadline=None, max_examples=150)
@given(t=st.sampled_from([6.1, 0.0, 37.25, 1000.3]) | st.floats(-50.0, 500.0),
       picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=30),
       top_k=st.sampled_from([0, 1, 5]))
def test_combined_parents_matches_brute_force_at_boundaries(t, picks, top_k):
    """Candidate times on and one ulp either side of t - t_res, repeated
    locations and times (score ties), against the full-sort oracle."""
    cfg = sg.GraphConfig(l_res_m=200.0, t_res_days=T_RES, top_k=top_k)
    edge = t - T_RES
    times = [np.nextafter(edge, -math.inf), edge, np.nextafter(edge, math.inf),
             t - 3 * T_RES, t - 0.5 * T_RES, t]
    rows = sorted(((float(times[i]), SPOTS[j]) for i, j in picks), key=lambda r: r[0])
    candidates = [Row(k, lon, lat, ts, 0.0)
                  for k, (ts, (lon, lat)) in enumerate(rows)]
    node = Row(len(candidates), *SPOTS[0], t, 0.0)
    got = parents(node, candidates, cfg)
    want, want_top = brute_force_parents(node, candidates, cfg)
    ids = [p for p, _, _ in got]
    assert len(ids) == len(set(ids)) and set(ids) == want
    assert [p for p, origin, _ in got if origin == "top"] == want_top
    hard = [p for p, origin, _ in got if origin == "hard"]
    assert hard == sorted(hard)


@settings(deadline=None, max_examples=150)
@given(rows=st.lists(st.tuples(st.sampled_from([0.0, 6.1, 20.1, 37.25]) | st.floats(0.0, 400.0),
                               st.integers(0, 3)), min_size=1, max_size=40),
       data=st.data(),
       top_k=st.sampled_from([0, 1, 3, 5]),
       block_cells=st.sampled_from([1, 8, 64, 1 << 17]))
def test_batched_kernel_equals_row_by_row_calls_and_brute_force(rows, data, top_k,
                                                                 block_cells):
    """One combined_parents call for a batch of rows, each with its own prefix
    limit (0 included), split into blocks of every size, against one call per
    row and the full-sort oracle. Sparse times make rows widen their window;
    repeated spots and times make score ties."""
    cfg = sg.GraphConfig(l_res_m=200.0, t_res_days=T_RES, top_k=top_k)
    nodes = [Row(i, *SPOTS[j], t, 0.0)
             for i, (t, j) in enumerate(sorted(rows, key=lambda r: r[0]))]
    first = len(nodes) - data.draw(st.integers(1, len(nodes)))
    limits = [data.draw(st.integers(0, row)) for row in range(first, len(nodes))]
    with mock.patch.object(sg, "_BLOCK_CELLS", block_cells):
        batched = wire(nodes, limits, cfg)
    for row, limit, got in zip(range(first, len(nodes)), limits, batched):
        node, candidates = nodes[row], nodes[:limit]
        assert got == parents(node, candidates, cfg)
        want, want_top = brute_force_parents(node, candidates, cfg)
        ids = [p for p, _, _ in got]
        assert len(ids) == len(set(ids)) and set(ids) == want
        origins = [origin for _, origin, _ in got]
        n_top = origins.count("top")
        assert ids[:n_top] == want_top  # ranked edges first, in rank order
        assert origins[n_top:] == ["hard"] * (len(ids) - n_top)
        assert ids[n_top:] == sorted(ids[n_top:])  # then proximity edges in id order


def test_scan_goes_on_past_a_candidate_tied_with_the_kth_score():
    # twins beyond the time window: the newer one alone fills top_k=1, the
    # older one's dt/t_res equals that score, and the tie goes to the lower id
    cfg = sg.GraphConfig(t_res_days=14.0, top_k=1)
    twin = Row(0, 121.0, 31.0, 0.0, 0.0)
    node = Row(2, 121.0, 31.0, 42.0, 1.0)
    assert ranked(node, [twin, twin._replace(node_id=1)], cfg) == [0]


def test_window_keeps_parent_whose_time_gap_rounds_to_t_res():
    # |6.1 - ts| rounds to exactly 14.0, while ts < 6.1 - 14 in floating point
    cfg = sg.GraphConfig(t_res_days=14.0, top_k=0)
    ts = -7.900000000000001
    assert abs(6.1 - ts) <= 14.0 and not ts >= 6.1 - 14.0
    cand = Row(0, 121.0, 31.0, ts, 0.0)
    assert proximity(Row(1, 121.0, 31.0, 6.1, 1.0), [cand], cfg) \
        == [(0, "hard", 0.0)]


@RANKING
def test_windowed_build_matches_brute_force_on_450_nodes(monkeypatch, top_mode):
    rng = np.random.default_rng(450)
    cfg = sg.GraphConfig(l_res_m=300.0, t_res_days=10.0, top_k=5)
    nodes = rand_nodes(rng, 450, extent=0.004, span=300.0)
    scored = Counter()  # (row, candidate) pairs scored per row, rows told apart by location
    distances = sg._distances

    def recording(lon, lat, lons, lats):
        scored.update(zip(np.broadcast_to(lon, lons.shape).ravel().tolist(),
                          np.broadcast_to(lat, lats.shape).ravel().tolist()))
        return distances(lon, lat, lons, lats)

    monkeypatch.setattr(sg, "_distances", recording)
    g = sg.build_graph(columns(nodes), 30, cfg)
    assert edge_set(g) == brute_force_graph_edges(nodes, 30, cfg)
    assert max(scored.values()) < 450 // 4  # the scan stopped well short of the full history


def far_ranked_batch():
    """100 history rows 3 t_res apart and six later queries with limits in
    (80, 100]: every query's K best candidates are the K oldest rows, the
    only ones at its spot, so each query widens its window to row 0 over at
    least 3 rounds. Returns (config, columns, limits)."""
    cfg = sg.GraphConfig(l_res_m=200.0, t_res_days=T_RES, top_k=5)
    far = (122.0, 31.0)  # ~95 km: a score far above any dt/t_res here
    history = [Row(i, *(SPOTS[0] if i < cfg.top_k else far), 3 * T_RES * i, 0.0)
               for i in range(100)]
    queries = [Row(100 + q, *SPOTS[0], 3 * T_RES * (100 + q), 0.0)
               for q in range(6)]
    return cfg, columns(history + queries)[:3], np.array([100, 97, 93, 88, 84, 81])


@RANKING
def test_widening_scores_each_candidate_once(monkeypatch, top_mode):
    """Over all its widening rounds, a row scores at most twice its final
    window plus K (row, candidate) pairs per round after the first."""
    cfg, cols, limits = far_ranked_batch()
    pairs, rounds = [], []
    distances, window_start = sg._distances, sg._window_start

    def recording(lon, lat, lons, lats):
        pairs.append(lons.size)
        return distances(lon, lat, lons, lats)

    def windows(ts, t, span):
        rounds.append(len(t))  # one window per row and round
        return window_start(ts, t, span)

    monkeypatch.setattr(sg, "_distances", recording)
    monkeypatch.setattr(sg, "_window_start", windows)
    offsets, parent, _, origin = sg.combined_parents(*cols, limits, cfg)
    for a, b in zip(offsets[:-1], offsets[1:]):
        assert parent[a:b].tolist() == list(range(cfg.top_k))[::-1]  # so the window reached row 0
        assert (origin[a:b] == sg.TOP).all()
    rows_scored = sum(rounds)
    assert rows_scored >= 4 * len(limits)  # at least 3 widening rounds per row
    carried = rows_scored - len(limits)  # (row, round) pairs after the first
    final_windows = int(limits.sum())
    assert sum(pairs) <= 2 * final_windows + cfg.top_k * carried


def test_initialization_block_scores_each_pair_once(monkeypatch):
    """An initialization block of n colocated rows, all within both
    thresholds: wiring it scores each (row, older row) pair once, n(n - 1)/2
    pairs, not every row against the whole block."""
    n = 40
    pairs = []
    distances = sg._distances

    def recording(lon, lat, lons, lats):
        pairs.append(lons.size)
        return distances(lon, lat, lons, lats)

    monkeypatch.setattr(sg, "_distances", recording)
    rows = [Row(i, *SPOTS[0], i * (T_RES / n), 0.0) for i in range(n)]
    g = sg.build_graph(columns(rows), n, sg.GraphConfig(t_res_days=T_RES))
    assert edge_set(g) == set(itertools.permutations(range(n), 2))
    assert sum(pairs) <= n * (n - 1) // 2


def test_combined_parents_writes_none_of_its_arguments():
    cfg, cols, limits = far_ranked_batch()
    before = [col.copy() for col in (*cols, limits)]
    first = sg.combined_parents(*cols, limits, cfg)
    for arg, old in zip((*cols, limits), before):
        assert np.array_equal(arg, old) and arg.dtype == old.dtype
    again = sg.combined_parents(*cols, limits, cfg)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))


# ---------------------------------------------------------------------------
# the space-time grid


def assert_rows_match_oracle(nodes, limits, config):
    """One combined_parents call for the last len(limits) nodes, each row
    against the oracle over its candidates nodes[:limit]."""
    first = len(nodes) - len(limits)
    for row, limit, got in zip(range(first, len(nodes)), limits, wire(nodes, limits, config)):
        want, want_top = brute_force_parents(nodes[row], nodes[:limit], config)
        ids = [p for p, _, _ in got]
        assert len(ids) == len(set(ids)) and set(ids) == want, row
        assert [p for p, origin, _ in got if origin == "top"] == want_top, row


def clustered_nodes(rng, n, clusters=12, extent=0.02, sigma=0.0015, span=200.0):
    """Time-sorted nodes in clusters spread over a few dozen cells a side."""
    centres = rng.uniform(-extent, extent, (clusters, 2))[rng.integers(0, clusters, n)]
    ts = np.sort(rng.uniform(0, span, n))
    return [Row(i, 121.0 + float(x), 31.0 + float(y), float(ts[i]), float(ts[i] / span))
            for i, (x, y) in enumerate(centres + rng.normal(0, sigma, (n, 2)))]


def query_nodes(first_id, coords, times):
    return [Row(first_id + q, lon, lat, float(t), 0.0)
            for q, ((lon, lat), t) in enumerate(zip(coords, times))]


@RANKING
@pytest.mark.parametrize("init_count", [40, 400])
def test_grid_build_and_forecasts_match_brute_force(top_mode, init_count):
    """Clustered rows over many cells, an initialization block of a tenth or
    of every row, and forecasts: ignore-strategy queries inside the clusters,
    outside the history's bounding box and timestamped inside the history
    (allow_past, a few with fewer than K candidates), then chained queries
    wired against the queries before them."""
    rng = np.random.default_rng(400)
    cfg = sg.GraphConfig(l_res_m=200.0, t_res_days=14.0, top_k=5)
    nodes = clustered_nodes(rng, 400)
    g = sg.build_graph(columns(nodes), init_count, cfg)
    assert edge_set(g) == brute_force_graph_edges(nodes, init_count, cfg)

    inside = [(nodes[i].lon, nodes[i].lat) for i in rng.choice(len(nodes), 10)]
    outside = list(zip(rng.uniform(120.5, 121.6, 10), rng.choice([30.7, 31.3], 10)))
    times = np.concatenate((rng.uniform(200.0, 260.0, 20), rng.uniform(-5.0, 200.0, 10),
                            [nodes[2].t_raw]))
    coords = inside + outside + inside[:10] + [outside[0]]
    order = np.argsort(times, kind="stable")
    queries = query_nodes(g.n, [coords[i] for i in order], times[order])
    limits = np.searchsorted(g.t_raw, [q.t_raw for q in queries], side="right")
    assert limits.min() < cfg.top_k and (limits < g.n).sum() >= 10
    assert_rows_match_oracle(nodes + queries, limits, cfg)

    chained = query_nodes(g.n, inside + outside, np.sort(rng.uniform(200.0, 260.0, 20)))
    assert_rows_match_oracle(nodes + chained, np.arange(g.n, g.n + len(chained)), cfg)


EXACT_GAPS = (0.0, 0.5, 1.0, 3.0)  # in t_res


@RANKING
@pytest.mark.parametrize("top_k", [0, 1, 5, 12])
def test_rows_far_past_their_newest_candidate_match_brute_force(top_mode, top_k):
    """Rows 0, 1/2, exactly 1, exactly 3 and 10-30 t_res after their newest
    candidate (times on a 1/8-day grid, so those gaps are exact), the first
    four at the spot of the last history row before them, the rest inside
    the clusters and outside the history's bounding box: ignore-strategy queries after the history;
    rows inside it, each wired against a prefix that ends that long before
    it (allow_past), some holding fewer than K rows; chained rows, each that
    long after the row before it; and queries over a history of three rows."""
    rng = np.random.default_rng(22)
    cfg = sg.GraphConfig(l_res_m=200.0, t_res_days=14.0, top_k=top_k)
    nodes = [nd._replace(t_raw=math.floor(nd.t_raw * 8) / 8)
             for nd in clustered_nodes(rng, 300)]
    n = len(nodes)
    gaps = cfg.t_res_days * np.concatenate((EXACT_GAPS, rng.uniform(10.0, 30.0, 4)))
    spots = [(nodes[i].lon, nodes[i].lat) for i in rng.choice(n, len(gaps))]
    spots += zip(rng.uniform(120.5, 121.6, len(gaps)), rng.choice([30.7, 31.3], len(gaps)))
    gaps = np.tile(gaps, 2)

    def spot(newest, q):
        return (nodes[newest].lon, nodes[newest].lat) if q < len(EXACT_GAPS) else spots[q]

    after = query_nodes(n, [spot(n - 1, q) for q in range(len(gaps))], nodes[-1].t_raw + gaps)
    assert_rows_match_oracle(nodes + after, np.full(len(after), n), cfg)
    near = wire(nodes + after, np.full(len(after), n), cfg)[:3]  # gaps 0, 1/2 and 1 t_res
    assert all(n - 1 in [p for p, _, _ in row] for row in near)  # inclusive at dt = t_res

    limits = rng.integers(1, n, len(gaps))
    limits[:3] = [1, 4, 9]
    past = query_nodes(n, [spot(lim - 1, q) for q, lim in enumerate(limits)],
                       [nodes[lim - 1].t_raw + gap for lim, gap in zip(limits, gaps)])
    assert_rows_match_oracle(nodes + past, limits, cfg)

    chained = query_nodes(n, [spot(n - 1, q) for q in range(len(gaps))],
                          nodes[-1].t_raw + np.cumsum(gaps))
    assert_rows_match_oracle(nodes + chained, np.arange(n, n + len(chained)), cfg)

    few = query_nodes(3, [spot(2, q) for q in range(len(gaps))], nodes[2].t_raw + gaps)
    assert_rows_match_oracle(nodes[:3] + few, np.full(len(few), 3), cfg)


def test_queries_far_past_the_history_score_a_few_pairs_each(monkeypatch):
    """60 ignore-strategy queries inside the clusters, 4-8 t_res after the
    history's last row: no candidate scores under its gap, so a query scans
    only the cells near it. They score fewer (row, candidate) pairs than a
    tenth of the history per query; a box s * l_res wide that ignores the
    gap scores over 13,000 pairs here."""
    rng = np.random.default_rng(400)
    cfg = sg.GraphConfig(l_res_m=200.0, t_res_days=14.0, top_k=5)
    nodes = clustered_nodes(rng, 400)
    n = len(nodes)
    spots = [(nodes[i].lon, nodes[i].lat) for i in rng.choice(n, 60)]
    queries = query_nodes(n, spots, np.sort(nodes[-1].t_raw + cfg.t_res_days
                                            * rng.uniform(4.0, 8.0, len(spots))))
    pairs = []
    distances = sg._distances

    def recording(lon, lat, lons, lats):
        pairs.append(lons.size)
        return distances(lon, lat, lons, lats)

    monkeypatch.setattr(sg, "_distances", recording)
    assert_rows_match_oracle(nodes + queries, np.full(len(queries), n), cfg)
    assert 0 < sum(pairs) <= len(queries) * n // 10


@RANKING
def test_ranked_edge_reaches_exactly_the_gap_bound_across_a_cell_boundary(top_mode):
    """A row's newest candidate, exactly g t_res older and exactly l_res away
    one cell further north, as the kernel measures both, scores g + 1, and a
    twin of it at its time, a little under l_res east of the row, scores the
    same: top_k=1 ranks the candidate, the lower id. With g = 2**24 - 1 +
    2**-29, g + 1 rounds down to 2**24, so a box of (s - g) * l_res at the
    first reach s = g + 1 ends 2**-29 cells short of l_res: the row's gap
    must be rounded down before it bounds the box. With older rows in every
    cell the cells are l_res tall, and the candidate sits just past a cell
    boundary, or on it, or inside a cell."""
    g, t_res = 2.0**24 - 1 + 2.0**-29, 2.0**-14  # g * t_res is exact
    assert g - (2.0**24 - 1) == 2.0**-29 and g + 1 == 2.0**24  # g + 1 rounds down
    step = 200.0 / (sg.EARTH_RADIUS_M * sg._DEG)  # 200 m of latitude, in degrees

    def at(node_id, cells, t, east=0.0):
        return Row(node_id, 121.0 + east, 31.0 + cells * step, t, 0.0)

    for cell, frac in itertools.product(range(1, 33), (0.0, 2.0**-31, 2.0**-30, 0.5)):
        nodes = [at(i, i, i - 100.0) for i in range(cell + 2)]
        cand = at(len(nodes), cell + frac, 0.0)
        row = at(len(nodes) + 2, cell - 1 + frac, g * t_res)
        l_res = pair_distance((row.lon, row.lat), (cand.lon, cand.lat))
        assert l_res == equirect_m((row.lon, row.lat), (cand.lon, cand.lat))
        east = (1 - 2.0**-31) * step * l_res / 200.0 / math.cos(row.lat * sg._DEG)
        twin = at(len(nodes) + 1, cell - 1 + frac, 0.0, east)
        d_twin = pair_distance((row.lon, row.lat), (twin.lon, twin.lat)) / l_res
        assert d_twin < 1 and g + d_twin == g + 1  # nearer than cand, and tied with it
        nodes += [cand, twin, row]
        cfg = sg.GraphConfig(l_res_m=l_res, t_res_days=t_res, top_k=1)
        assert ranked(row, nodes[:-1], cfg) == [cand.node_id]
        assert_rows_match_oracle(nodes, [len(nodes) - 1], cfg)


@RANKING
@pytest.mark.parametrize("axis", ["lat", "lon"])
def test_proximity_reaches_exactly_l_res_across_a_cell_boundary(top_mode, axis):
    """A row and a candidate one cell further along one axis, the candidate
    exactly l_res away as the kernel measures it: it is a proximity parent.
    With older rows in every cell the cells are l_res wide and the pair
    straddles a cell boundary, or sits on two; with none the grid coarsens
    and the pair falls anywhere on it."""
    step = 200.0 / (sg.EARTH_RADIUS_M * sg._DEG)  # 200 m of latitude, in degrees
    if axis == "lon":
        step /= math.cos(31.0 * sg._DEG)

    def at(node_id, cells, t):
        lon, lat = (121.0 + cells * step, 31.0) if axis == "lon" else (121.0, 31.0 + cells * step)
        return Row(node_id, lon, lat, t, 0.0)

    for cell, frac, filled in itertools.product(range(1, 33), (0.0, 0.25, 0.5, 0.75),
                                                (True, False)):
        nodes = [at(i, i, i - 100.0) for i in range(cell + 2 if filled else 1)]
        cand = at(len(nodes), cell + frac, 99.0)
        row = at(len(nodes) + 1, cell - 1 + frac, 100.0)
        nodes += [cand, row]
        l_res = pair_distance((row.lon, row.lat), (cand.lon, cand.lat))
        assert l_res == equirect_m((row.lon, row.lat), (cand.lon, cand.lat))
        for top_k in (0, 1):
            cfg = sg.GraphConfig(l_res_m=l_res, t_res_days=14.0, top_k=top_k)
            assert (cand.node_id, "top" if top_k else "hard") \
                in [(p, origin) for p, origin, _ in parents(row, nodes[:-1], cfg)]
            assert_rows_match_oracle(nodes, [len(nodes) - 1], cfg)


@RANKING
def test_rows_with_fewer_than_k_candidates_match_brute_force(top_mode):
    """Rows tens of kilometres and months apart: the first K rows have fewer
    than K candidates overall, and a row's reach must grow over most of the
    grid before it holds K."""
    rng = np.random.default_rng(9)
    cfg = sg.GraphConfig(l_res_m=200.0, t_res_days=14.0, top_k=5)
    nodes = rand_nodes(rng, 12, extent=0.3, span=900.0)
    g = sg.build_graph(columns(nodes), 1, cfg)
    assert edge_set(g) == brute_force_graph_edges(nodes, 1, cfg)
    assert (in_degree(g)[1:cfg.top_k] == np.arange(1, cfg.top_k)).all()
    queries = query_nodes(g.n, [(121.5, 31.2), (120.6, 30.8), (121.0, 31.0)],
                          [nodes[3].t_raw, 950.0, 2000.0])
    assert_rows_match_oracle(nodes + queries,
                             np.searchsorted(g.t_raw, [q.t_raw for q in queries], "right"), cfg)


@RANKING
@pytest.mark.parametrize("pole", [90.0, -90.0])
def test_rows_within_1e_12_degrees_of_a_pole_reach_the_cos_clamp(pole, top_mode):
    """cos of a latitude within about 8e-13 degrees of a pole is below the
    4 * _SLACK that _grid_edges subtracts from it, so the grid's width factor
    is clamped to 1e-300: every row falls in one column of cells, and the
    latitude cells alone filter. Rows spread over every longitude within
    550 m of the pole, some at the pole itself or within 1e-12 degrees of
    it; the build and forecasts still match brute force."""
    rng = np.random.default_rng(12)
    n, init_count = 160, 12
    lat = rng.uniform(89.995, 90.0, n)
    lat[rng.choice(n, 12, replace=False)] = 90.0 - rng.uniform(0.0, 1e-12, 12)
    lat[rng.choice(n, 4, replace=False)] = 90.0
    lon = rng.uniform(-180.0, 180.0, n)
    ts = np.sort(rng.uniform(0.0, 100.0, n))
    nodes = [Row(i, float(lon[i]), math.copysign(float(lat[i]), pole), float(ts[i]),
                 float(ts[i] / 100.0)) for i in range(n)]
    assert math.cos(90.0 * sg._DEG) - 4 * sg._SLACK < 0.0  # the clamp's branch is taken
    cfg = sg.GraphConfig(l_res_m=200.0, t_res_days=14.0, top_k=5)
    g = sg.build_graph(columns(nodes), init_count, cfg)
    assert edge_set(g) == brute_force_graph_edges(nodes, init_count, cfg)
    hard = np.bincount(g.origin, minlength=len(sg.ORIGINS))[sg.HARD]
    assert 0 < hard < n * (n - 1) // 4  # the proximity threshold filters
    coords = [(float(x), math.copysign(90.0 - float(d), pole))
              for x, d in zip(rng.uniform(-180.0, 180.0, 8), [0.0, 1e-13, 3e-13, 1e-3] * 2)]
    queries = query_nodes(g.n, coords, np.sort(rng.uniform(100.0, 110.0, 8)))
    assert_rows_match_oracle(nodes + queries, np.arange(g.n, g.n + len(queries)), cfg)


@RANKING
def test_rows_at_one_spot_stay_within_the_scratch_cap(top_mode):
    """2,000 rows at one spot, each with 50 older rows within t_res: every
    row falls in one cell, so the grid filters nothing. The call's traced
    peak is the edges' columns while they are sorted (under 80 bytes an
    edge) plus one span of _BLOCK_CELLS pairs' scratch; scoring all 100,000
    pairs at once would exceed it."""
    cfg = sg.GraphConfig(l_res_m=200.0, t_res_days=14.0, top_k=5)
    n = 2000
    lon, lat, t = np.full(n, 121.0), np.full(n, 31.0), np.arange(n) * (cfg.t_res_days / 50.5)
    tracemalloc.start()
    try:
        offsets, parent, _, origin = sg.combined_parents(lon, lat, t, np.arange(n), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * len(parent) + 64 * sg._BLOCK_CELLS
    child = np.repeat(np.arange(n), np.diff(offsets))
    ranked, hard = (np.bincount(child[origin == o], minlength=n) for o in (sg.TOP, sg.HARD))
    near = np.minimum(np.arange(n), 50)  # the older rows within t_res, all proximity
    assert (ranked == np.minimum(np.arange(n), cfg.top_k)).all()
    assert (hard == near - ranked).all()


def test_top_k_beyond_every_candidate_count_allocates_by_the_candidates():
    """A top_k over the row count ranks every candidate, as top_k = n does;
    the scratch follows the candidates, not top_k (a 20,000-wide padded
    score matrix took 38 MB here)."""
    config = pipeline.RunConfig(dataset=pipeline.DatasetSource(
        synthetic=ds.SyntheticConfig(n_records=300, n_locations=60)))
    data = pipeline.prepare_data(config)
    cols = sg.graph_nodes_from_processed(data.history_nodes)
    want = sg.build_graph(cols, data.init_count, replace(config.graph, top_k=len(cols[0])))
    tracemalloc.start()
    try:
        got = sg.build_graph(cols, data.init_count, replace(config.graph, top_k=20_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for name in ("offsets", "parent", "dist_m", "origin"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert peak < 10e6


# ---------------------------------------------------------------------------
# init graph


def test_init_single_node():
    g = sg.build_graph(columns(rand_nodes(np.random.default_rng(0), 1)), 1, sg.GraphConfig())
    assert g.n == 1 and g.edge_count() == 0


def test_init_colocated_pair_mutually_visible():
    a = Row(0, 121.0, 31.0, 5.0, 0.0)
    b = Row(1, 121.0, 31.0, 5.0, 0.0)
    g = sg.build_graph(columns([a, b]), 2, sg.GraphConfig())
    assert edge_set(g) == {(0, 1), (1, 0)}
    assert g.origin_counts() == {"init": 2, "top": 0, "hard": 0}


def test_init_matches_symmetric_oracle():
    rng = np.random.default_rng(21)
    cfg = sg.GraphConfig(l_res_m=500.0, t_res_days=30.0)
    nodes = rand_nodes(rng, 10, extent=0.004, span=40.0)
    g = sg.build_graph(columns(nodes), 10, cfg)
    assert edge_set(g) == brute_force_graph_edges(nodes, 10, cfg)


def test_init_matches_symmetric_oracle_on_120_nodes():
    rng = np.random.default_rng(120)
    cfg = sg.GraphConfig(l_res_m=300.0, t_res_days=15.0)
    nodes = rand_nodes(rng, 120, extent=0.004, span=90.0)
    g = sg.build_graph(columns(nodes), 120, cfg)
    want = brute_force_graph_edges(nodes, 120, cfg)
    assert edge_set(g) == want and len(want) > 200
    for i in range(g.n):
        plist = g.parent[g.offsets[i]:g.offsets[i + 1]].tolist()
        assert plist == sorted(plist)


_STEP = 2.0 ** -12  # degrees; 31 + m * _STEP is exact, so are differences of such latitudes
_L_RES = equirect_m((121.0, 31.0), (121.0, 31.0 + 4 * _STEP))  # 4 steps along a meridian


def init_block(case):
    """(rows, pairs): an initialization block's rows in time order, and pairs
    of row ids that must be joined, exactly on the threshold the case names."""
    if case == "colocated":
        return [Row(i, *SPOTS[0], 3.0 * i, 0.0) for i in range(7)], [(0, 4)]
    if case == "equal_times":
        return [Row(i, *SPOTS[i % 4], 50.0, 0.0) for i in range(9)], [(0, 4)]
    if case == "t_res_apart":
        # each pair at its own spot, exactly T_RES apart; pairs 100 days apart
        return [Row(2 * p + j, *SPOTS[p], 100.0 * p + 0.25 + j * T_RES, 0.0)
                for p in range(4) for j in range(2)], [(0, 1), (2, 3), (4, 5), (6, 7)]
    assert case == "l_res_apart"
    # pairs _L_RES apart on one meridian, at quarter-cell offsets from the
    # grid's corner (row 0, half a cell below them): each pair spans a cell boundary
    rows = [Row(0, 121.0, 31.0 - 2 * _STEP, 0.0, 0.0)]
    for p in range(4):
        lat = 31.0 + p * _STEP
        rows += [Row(len(rows), 121.0, lat, 100.0 * (p + 1), 0.0),
                 Row(len(rows) + 1, 121.0, lat + 4 * _STEP, 100.0 * (p + 1) + 1.0, 0.0)]
    return rows, [(1, 2), (3, 4), (5, 6), (7, 8)]


@RANKING
@pytest.mark.parametrize("init", ["one", "two", "all"])
@pytest.mark.parametrize("case", ["colocated", "equal_times", "t_res_apart", "l_res_apart"])
def test_init_block_cases_match_brute_force(case, init, top_mode):
    """Initialization blocks of colocated rows, equal times and pairs exactly
    l_res or t_res apart, of one, two or every row, against the symmetric
    oracle; later rows see them as ordinary prefixes. Each block row's
    parents ascend by id, and every block edge reports the distance of its
    reverse bit for bit."""
    cfg = sg.GraphConfig(l_res_m=_L_RES, t_res_days=T_RES, top_k=3)
    rows, pairs = init_block(case)
    init_count = {"one": 1, "two": 2, "all": len(rows)}[init]
    g = sg.build_graph(columns(rows), init_count, cfg)
    edges = edge_set(g)
    assert edges == brute_force_graph_edges(rows, init_count, cfg)
    assert all((a, b) in edges and (b, a) in edges for a, b in pairs if b < init_count)
    block = g.offsets[init_count]
    assert (g.origin[:block] == sg.INIT).all() and (g.origin[block:] != sg.INIT).all()
    dist = dict(zip(zip(g.parent.tolist(), g.child.tolist()), g.dist_m.tolist()))
    for i in range(init_count):
        plist = g.parent[g.offsets[i]:g.offsets[i + 1]].tolist()
        assert plist == sorted(set(plist))
        assert all(dist[p, i] == dist[i, p] for p in plist)


def test_init_empty_rejected():
    with pytest.raises(sg.ConstructionError):
        sg.build_graph(columns([]), 0, sg.GraphConfig())


def test_init_rejects_unsorted_times():
    a, b = rand_nodes(np.random.default_rng(3), 2)
    with pytest.raises(sg.TemporalOrderError):
        sg.build_graph(columns([a._replace(t_raw=b.t_raw), b._replace(t_raw=a.t_raw)]), 2,
                       sg.GraphConfig())
    for bad in (math.nan, math.inf):
        with pytest.raises(sg.ConstructionError):
            sg.build_graph(columns([a, b._replace(t_raw=bad)]), 2, sg.GraphConfig())
        with pytest.raises(sg.ConstructionError):
            sg.build_graph(columns([a, b._replace(lat=bad)]), 2, sg.GraphConfig())


def test_build_graph_rejects_other_than_four_columns_of_one_length():
    cfg = sg.GraphConfig()
    cols = columns(rand_nodes(np.random.default_rng(4), 6))
    for bad in (cols[:3], [*cols[:3], cols[3][:-1]], [col[:, None] for col in cols]):
        with pytest.raises(sg.ConstructionError):
            sg.build_graph(bad, 1, cfg)
    assert sg.build_graph(cols, 1, cfg).n == 6


def test_graph_nodes_from_processed_reads_each_node_bit_for_bit():
    """A NodeTable's rows, by index and by iteration, give every column's
    value bit for bit (perfbench's reference.history_arrays reads the
    history that way), and so do the graph columns read from it."""
    nodes = small_instance(3, n=12)["nodes"]
    names = ("location_id", "lon", "lat", "t_raw", "x_full", "y", "x_st", "t_norm")
    assert len(list(nodes)) == len(nodes) == 12
    for i, row in enumerate(nodes):
        for name in names:
            want = getattr(nodes, name)[i].tobytes()
            assert np.asarray(getattr(row, name)).tobytes() == want, name
            assert np.asarray(getattr(nodes[i], name)).tobytes() == want, name
    assert np.stack([p.x_full for p in nodes]).tobytes() == nodes.x_full.tobytes()
    assert np.stack([p.x_st for p in nodes]).tobytes() == nodes.x_st.tobytes()
    cols = sg.graph_nodes_from_processed(nodes)
    fields = ([p.coords[0] for p in nodes], [p.coords[1] for p in nodes],
              [p.t_raw for p in nodes], [p.t_norm for p in nodes])
    assert len(cols) == len(fields)
    for col, values in zip(cols, fields):
        assert col.dtype == np.float64 and col.shape == (len(nodes),)
        assert col.tobytes() == np.array(values, dtype=np.float64).tobytes()
    ignored = sg.graph_nodes_from_processed(nodes, 5)  # init_count is ignored
    assert all(np.array_equal(a, b) for a, b in zip(ignored, cols))
    assert [col.shape for col in sg.graph_nodes_from_processed(nodes[:0])] == [(0,)] * 4


# ---------------------------------------------------------------------------
# growth past the initialization block


def test_expand_no_parents_when_k_zero_and_far():
    cfg = sg.GraphConfig(top_k=0)
    base = Row(0, 121.0, 31.0, 0.0, 0.0)
    far = Row(1, 122.0, 32.0, 90.0, 0.9)
    g = sg.build_graph(columns([base, far]), 1, cfg)
    assert in_degree(g)[1] == 0


def test_expand_in_degree_min_k_prior():
    cfg = sg.GraphConfig(top_k=5)
    rng = np.random.default_rng(8)
    nodes = rand_nodes(rng, 4, extent=0.5, span=400.0)
    g = sg.build_graph(columns(nodes), 1, cfg)
    assert in_degree(g)[3] == 3  # min(K=5, 3 prior)


def test_expand_sequence_matches_batch_oracle():
    rng = np.random.default_rng(13)
    cfg = sg.GraphConfig(l_res_m=300.0, t_res_days=12.0, top_k=4)
    nodes = rand_nodes(rng, 50, extent=0.004, span=90.0)
    g = sg.build_graph(columns(nodes), 5, cfg)
    assert edge_set(g) == brute_force_graph_edges(nodes, 5, cfg)


def test_expand_rejects_out_of_order():
    cfg = sg.GraphConfig()
    nodes = rand_nodes(np.random.default_rng(2), 5)
    stale = Row(5, 121.0, 31.0, nodes[2].t_raw - 1.0, 0.0)
    with pytest.raises(sg.TemporalOrderError):
        sg.build_graph(columns(nodes + [stale]), 1, cfg)
    # the kernel refuses a row older than one of its candidates, and a
    # refused growth leaves the graph as it was
    with pytest.raises(sg.TemporalOrderError):
        wire(nodes + [stale], [5], cfg)
    g = sg.build_graph(columns(nodes), 1, cfg)
    with pytest.raises(sg.TemporalOrderError):
        g.grow(columns([stale]), [g.n], cfg)
    assert g.n == 5


def test_expand_rejects_node_older_than_init_block():
    cfg = sg.GraphConfig()
    init = [Row(0, 121.0, 31.0, 0.0, 0.0),
            Row(1, 121.0, 31.0, 10.0, 0.1)]
    with pytest.raises(sg.TemporalOrderError):
        sg.build_graph(columns(init + [Row(2, 121.0, 31.0, 5.0, 0.05)]), 2, cfg)


def test_grow_returns_a_new_graph():
    cfg = sg.GraphConfig(top_k=2)
    nodes = rand_nodes(np.random.default_rng(8), 12)
    g = sg.build_graph(columns(nodes[:9]), 2, cfg)
    names = ("lon", "lat", "t_raw", "t_norm", "offsets", "parent", "dist_m", "origin")
    before = {name: getattr(g, name).copy() for name in names}

    def unchanged():
        return g.n == 9 and all(np.array_equal(getattr(g, name), before[name])
                                for name in names)

    grown = g.grow(columns(nodes[9:]), [9, 10, 11], cfg)
    assert unchanged()
    assert grown.n == 12 and grown.init_count == 2
    n, m = g.n, g.edge_count()
    for name, head in zip(names, (n, n, n, n, n + 1, m, m, m)):
        assert np.array_equal(getattr(grown, name)[:head], before[name])
    assert grown.to_json_dict() == sg.build_graph(columns(nodes), 2, cfg).to_json_dict()
    stale = nodes[9]._replace(t_raw=nodes[8].t_raw - 1.0)
    with pytest.raises(sg.TemporalOrderError):
        g.grow(columns([stale]), [g.n], cfg)
    assert unchanged()


# 3 would make row 2 its own parent, 4 reaches past the columns' end
@pytest.mark.parametrize("limit", [3, 4, -1])
def test_grow_rejects_a_limit_past_the_rows_before_it(limit):
    cfg = sg.GraphConfig(top_k=2)
    rows = [Row(i, 121.0, 31.0, t, t / 2) for i, t in enumerate((0.0, 1.0, 1.0))]
    g = sg.build_graph(columns(rows[:2]), 1, cfg)
    with pytest.raises(sg.ConstructionError, match=rf"^row 2 has limit {limit}, outside \[0, 2\]"):
        g.grow(columns(rows[2:]), [limit], cfg)
    # the first bad row is named, in the columns' numbering
    with pytest.raises(sg.ConstructionError, match=r"^row 1 has limit 2"):
        sg.combined_parents(*columns(rows)[:3], [2, 3], cfg)
    assert wire(rows, [2], cfg) == [[(1, "top", 0.0), (0, "top", 0.0)]]


def test_combined_parents_equals_top_union_hard():
    rng = np.random.default_rng(31)
    cfg = sg.GraphConfig(l_res_m=600.0, t_res_days=25.0, top_k=3)
    for _ in range(20):
        nodes = rand_nodes(rng, 25, extent=0.005, span=70.0)
        target, cands = nodes[-1], nodes[:-1]
        ids = [p for p, _, _ in parents(target, cands, cfg)]
        assert len(ids) == len(set(ids))  # deduplicated
        want, _ = brute_force_parents(target, cands, cfg)
        assert set(ids) == want


# ---------------------------------------------------------------------------
# invariants


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_temporal_soundness_and_top_guarantee(seed, k):
    rng = np.random.default_rng(seed)
    cfg = sg.GraphConfig(top_k=k)
    n = int(rng.integers(6, 40))
    init_count = max(1, n // 10)
    nodes = rand_nodes(rng, n)
    g = sg.build_graph(columns(nodes), init_count, cfg)
    later = g.child >= init_count
    assert (g.t_raw[g.parent[later]] <= g.t_raw[g.child[later]]).all()
    ids = np.arange(init_count, g.n)
    assert (in_degree(g)[ids] >= np.minimum(k, ids)).all()


def test_k_zero_edges_subset_of_k_five():
    rng = np.random.default_rng(77)
    nodes = rand_nodes(rng, 60, extent=0.003, span=50.0)
    g0 = sg.build_graph(columns(nodes), 6, sg.GraphConfig(top_k=0))
    g5 = sg.build_graph(columns(nodes), 6, sg.GraphConfig(top_k=5))
    assert edge_set(g0) <= edge_set(g5)


def test_incremental_equals_batch_on_200_nodes():
    rng = np.random.default_rng(200)
    cfg = sg.GraphConfig(l_res_m=250.0, t_res_days=10.0, top_k=5)
    nodes = rand_nodes(rng, 200, extent=0.01, span=150.0)
    g = sg.build_graph(columns(nodes), 20, cfg)
    assert edge_set(g) == brute_force_graph_edges(nodes, 20, cfg)


# ---------------------------------------------------------------------------
# annotations and serialization


def test_annotations_match_recomputation():
    rng = np.random.default_rng(4)
    cfg = sg.GraphConfig(top_k=3)
    nodes = rand_nodes(rng, 10)
    g = sg.build_graph(columns(nodes), 2, cfg)
    edges = g.to_json_dict()["edges"]
    assert len(edges) == g.edge_count()
    for e in edges:
        child, parent = nodes[e["to"]], nodes[e["from"]]
        assert e["dt_norm"] == abs(child.t_norm - parent.t_norm)
        assert e["dist_m"] == pytest.approx(
            equirect_m((child.lon, child.lat), (parent.lon, parent.lat)), rel=1e-12)


def test_parent_at_half_span_gives_half_dt_norm():
    span = 80.0
    a = Row(0, 121.0, 31.0, 0.0, 0.0)
    b = Row(1, 121.0, 31.0, span / 2, 0.5)
    g = sg.build_graph(columns([a, b]), 1, sg.GraphConfig(t_res_days=span))
    edges = g.to_json_dict()["edges"]
    assert edges and edges[0]["dt_norm"] == 0.5
