import json
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pavecast import stgraph as sg


def rand_nodes(rng, n, extent=0.01, span=100.0, init_count=0):
    """Random time-sorted node metadata with ids equal to positions."""
    ts = np.sort(rng.uniform(0, span, n))
    return [sg.GraphNode(node_id=i,
                         lon=121.0 + float(rng.uniform(-extent, extent)),
                         lat=31.0 + float(rng.uniform(-extent, extent)),
                         t_raw=float(ts[i]), t_norm=float(ts[i] / span),
                         is_init=(i < init_count))
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


def brute_force_additional(node, candidates, config):
    """brute_force_parents for top_mode="additional": rank only non-proximity candidates."""
    hard, _ = brute_force_parents(node, candidates, replace(config, top_k=0))
    _, top = brute_force_parents(
        node, [c for c in candidates if c.node_id not in hard], config)
    return hard | set(top), top


def oracle_parents(node, candidates, config):
    if config.top_mode == "additional":
        return brute_force_additional(node, candidates, config)
    return brute_force_parents(node, candidates, config)


def oracle_graph_edges(nodes, init_count, config):
    if config.top_mode == "merged":
        return brute_force_graph_edges(nodes, init_count, config)
    edges = brute_force_graph_edges(nodes, init_count, replace(config, top_k=0))
    for i in range(init_count, len(nodes)):
        _, top = brute_force_additional(nodes[i], nodes[:i], config)
        edges.update((p, i) for p in top)
    return edges


def edge_set(graph):
    return set(zip(graph.parent.tolist(), graph.child.tolist()))


def in_degree(graph):
    return np.diff(graph.offsets)


def columns(nodes):
    """The lon, lat, t_raw and t_norm columns of the given nodes."""
    return [np.array([getattr(nd, name) for nd in nodes], dtype=float)
            for name in ("lon", "lat", "t_raw", "t_norm")]


def wire(nodes, limits, config, mutual=False):
    """One combined_parents call for the last len(limits) nodes: per row, its
    parents as (parent, origin, dist_m) tuples."""
    offsets, parent, dist, origin = sg.combined_parents(*columns(nodes)[:3], limits,
                                                        config, mutual)
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
    node = sg.GraphNode(1, a[0], a[1], 0.0, 0.0, False)
    ((_, _, dist),) = parents(node, [sg.GraphNode(0, b[0], b[1], 0.0, 0.0, False)], far)
    return dist


# ---------------------------------------------------------------------------
# distances


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
    node = sg.GraphNode(1, float("nan"), 31.0, 1.0, 0.1, False)
    cand = sg.GraphNode(0, 121.0, 31.0, 0.0, 0.0, True)
    with pytest.raises(ArithmeticError):
        parents(node, [cand], sg.GraphConfig())
    with pytest.raises(ArithmeticError):
        parents(replace(cand, node_id=1, t_raw=2.0), [replace(node, node_id=0)],
                sg.GraphConfig(top_k=0))
    with pytest.raises(ArithmeticError):
        wire([replace(cand, lat=math.inf), replace(node, lon=121.0)], [2, 2],
             sg.GraphConfig(), mutual=True)


# ---------------------------------------------------------------------------
# proximity edges (top_k=0)


def test_hard_edge_trivial_inclusion():
    cfg = sg.GraphConfig(top_k=0)
    cand = sg.GraphNode(0, 121.0, 31.0, 10.0, 0.1, True)
    g = sg.build_graph([cand, sg.GraphNode(1, 121.0, 31.0, 10.0, 0.1, False)], 1, cfg)
    assert g.to_json_dict()["edges"] == [
        {"from": 0, "to": 1, "origin": "hard", "dt_norm": 0.0, "dist_m": 0.0}]


def test_hard_edge_threshold_is_inclusive_and_strict_beyond():
    cfg = sg.GraphConfig(l_res_m=200.0, t_res_days=14.0)
    node = sg.GraphNode(1, 121.0, 31.0, 20.0, 0.2, False)
    # ~0.0021 deg of longitude is just over 200 m at 31 N
    beyond = sg.GraphNode(0, 121.0021, 31.0, 20.0, 0.2, False)
    assert equirect_m((121.0, 31.0), (121.0021, 31.0)) > 200.0
    assert proximity(node, [beyond], cfg) == []
    at_time_limit = sg.GraphNode(0, 121.0, 31.0, 6.0, 0.06, False)
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
    node = sg.GraphNode(5, 121.0, 31.0, 50.0, 0.5, False)
    twin = sg.GraphNode(2, 121.001, 31.0, 40.0, 0.4, False)
    far = sg.GraphNode(0, 121.5, 31.0, 10.0, 0.1, False)
    candidates = [far, replace(far, node_id=1, t_raw=20.0), twin,
                  replace(far, node_id=3, t_raw=40.0), replace(twin, node_id=4)]
    assert ranked(node, candidates, cfg) == [2]


def test_top_matches_sorted_oracle_prefix():
    rng = np.random.default_rng(5)
    cfg = sg.GraphConfig(top_k=5)
    nodes = rand_nodes(rng, 13)
    target, candidates = nodes[-1], nodes[:-1]
    _, oracle_top = brute_force_parents(target, candidates, cfg)
    assert ranked(target, candidates, cfg) == oracle_top


T_RES = 14.0
SPOTS = [(121.0, 31.0), (121.001, 31.0), (121.0, 31.0015), (121.0023, 30.999)]


@settings(deadline=None, max_examples=150)
@given(t=st.sampled_from([6.1, 0.0, 37.25, 1000.3]) | st.floats(-50.0, 500.0),
       picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=30),
       top_k=st.sampled_from([0, 1, 5]),
       top_mode=st.sampled_from(["merged", "additional"]))
def test_combined_parents_matches_brute_force_at_boundaries(t, picks, top_k, top_mode):
    """Candidate times on and one ulp either side of t - t_res, repeated
    locations and times (score ties), against the full-sort oracle."""
    cfg = sg.GraphConfig(l_res_m=200.0, t_res_days=T_RES, top_k=top_k, top_mode=top_mode)
    edge = t - T_RES
    times = [np.nextafter(edge, -math.inf), edge, np.nextafter(edge, math.inf),
             t - 3 * T_RES, t - 0.5 * T_RES, t]
    rows = sorted(((float(times[i]), SPOTS[j]) for i, j in picks), key=lambda r: r[0])
    candidates = [sg.GraphNode(k, lon, lat, ts, 0.0, False)
                  for k, (ts, (lon, lat)) in enumerate(rows)]
    node = sg.GraphNode(len(candidates), *SPOTS[0], t, 0.0, False)
    got = parents(node, candidates, cfg)
    want, want_top = oracle_parents(node, candidates, cfg)
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
       top_mode=st.sampled_from(["merged", "additional"]),
       block_cells=st.sampled_from([1, 8, 64, 1 << 17]))
def test_batched_kernel_equals_row_by_row_calls_and_brute_force(rows, data, top_k,
                                                                 top_mode, block_cells):
    """One combined_parents call for a batch of rows, each with its own prefix
    limit (0 included), split into blocks of every size, against one call per
    row and the full-sort oracle. Sparse times make rows widen their window;
    repeated spots and times make score ties."""
    cfg = sg.GraphConfig(l_res_m=200.0, t_res_days=T_RES, top_k=top_k, top_mode=top_mode)
    nodes = [sg.GraphNode(i, *SPOTS[j], t, 0.0, False)
             for i, (t, j) in enumerate(sorted(rows, key=lambda r: r[0]))]
    first = len(nodes) - data.draw(st.integers(1, len(nodes)))
    limits = [data.draw(st.integers(0, row)) for row in range(first, len(nodes))]
    with mock.patch.object(sg, "_BLOCK_CELLS", block_cells):
        batched = wire(nodes, limits, cfg)
    for row, limit, got in zip(range(first, len(nodes)), limits, batched):
        node, candidates = nodes[row], nodes[:limit]
        assert got == parents(node, candidates, cfg)
        want, want_top = oracle_parents(node, candidates, cfg)
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
    twin = sg.GraphNode(0, 121.0, 31.0, 0.0, 0.0, False)
    node = sg.GraphNode(2, 121.0, 31.0, 42.0, 1.0, False)
    assert ranked(node, [twin, replace(twin, node_id=1)], cfg) == [0]


def test_window_keeps_parent_whose_time_gap_rounds_to_t_res():
    # |6.1 - ts| rounds to exactly 14.0, while ts < 6.1 - 14 in floating point
    cfg = sg.GraphConfig(t_res_days=14.0, top_k=0)
    ts = -7.900000000000001
    assert abs(6.1 - ts) <= 14.0 and not ts >= 6.1 - 14.0
    cand = sg.GraphNode(0, 121.0, 31.0, ts, 0.0, False)
    assert proximity(sg.GraphNode(1, 121.0, 31.0, 6.1, 1.0, False), [cand], cfg) \
        == [(0, "hard", 0.0)]


@pytest.mark.parametrize("top_mode", ["merged", "additional"])
def test_windowed_build_matches_brute_force_on_450_nodes(monkeypatch, top_mode):
    rng = np.random.default_rng(450)
    cfg = sg.GraphConfig(l_res_m=300.0, t_res_days=10.0, top_k=5, top_mode=top_mode)
    nodes = rand_nodes(rng, 450, extent=0.004, span=300.0, init_count=30)
    widths = []
    distances = sg._distances

    def recording(lon, lat, lons, lats):
        widths.append(lons.shape[-1])
        return distances(lon, lat, lons, lats)

    monkeypatch.setattr(sg, "_distances", recording)
    g = sg.build_graph(nodes, 30, cfg)
    assert edge_set(g) == oracle_graph_edges(nodes, 30, cfg)
    assert max(widths) < 450 // 4  # the scan stopped well short of the full history


# ---------------------------------------------------------------------------
# init graph


def test_init_single_node():
    g = sg.build_graph(rand_nodes(np.random.default_rng(0), 1, init_count=1), 1,
                       sg.GraphConfig())
    assert g.n == 1 and g.edge_count() == 0


def test_init_colocated_pair_mutually_visible():
    a = sg.GraphNode(0, 121.0, 31.0, 5.0, 0.0, True)
    b = sg.GraphNode(1, 121.0, 31.0, 5.0, 0.0, True)
    g = sg.build_graph([a, b], 2, sg.GraphConfig())
    assert edge_set(g) == {(0, 1), (1, 0)}
    assert g.origin_counts() == {"init": 2, "top": 0, "hard": 0}


def test_init_matches_symmetric_oracle():
    rng = np.random.default_rng(21)
    cfg = sg.GraphConfig(l_res_m=500.0, t_res_days=30.0)
    nodes = rand_nodes(rng, 10, extent=0.004, span=40.0, init_count=10)
    g = sg.build_graph(nodes, 10, cfg)
    assert edge_set(g) == brute_force_graph_edges(nodes, 10, cfg)


def test_init_matches_symmetric_oracle_on_120_nodes():
    rng = np.random.default_rng(120)
    cfg = sg.GraphConfig(l_res_m=300.0, t_res_days=15.0)
    nodes = rand_nodes(rng, 120, extent=0.004, span=90.0, init_count=120)
    g = sg.build_graph(nodes, 120, cfg)
    want = brute_force_graph_edges(nodes, 120, cfg)
    assert edge_set(g) == want and len(want) > 200
    for i in range(g.n):
        plist = g.parent[g.offsets[i]:g.offsets[i + 1]].tolist()
        assert plist == sorted(plist)


def test_init_rejects_non_positional_ids():
    nodes = rand_nodes(np.random.default_rng(1), 3, init_count=3)
    with pytest.raises(sg.ConstructionError):
        sg.build_graph(nodes[1:], 2, sg.GraphConfig())


def test_init_empty_rejected():
    with pytest.raises(sg.ConstructionError):
        sg.build_graph([], 0, sg.GraphConfig())


def test_init_rejects_unsorted_times():
    a, b = rand_nodes(np.random.default_rng(3), 2, init_count=2)
    with pytest.raises(sg.TemporalOrderError):
        sg.build_graph([replace(a, t_raw=b.t_raw), replace(b, t_raw=a.t_raw)], 2,
                       sg.GraphConfig())
    for bad in (math.nan, math.inf):
        with pytest.raises(sg.ConstructionError):
            sg.build_graph([a, replace(b, t_raw=bad)], 2, sg.GraphConfig())
        with pytest.raises(sg.ConstructionError):
            sg.build_graph([a, replace(b, lat=bad)], 2, sg.GraphConfig())


# ---------------------------------------------------------------------------
# growth past the initialization block


def test_expand_no_parents_when_k_zero_and_far():
    cfg = sg.GraphConfig(top_k=0)
    base = sg.GraphNode(0, 121.0, 31.0, 0.0, 0.0, True)
    far = sg.GraphNode(1, 122.0, 32.0, 90.0, 0.9, False)
    g = sg.build_graph([base, far], 1, cfg)
    assert in_degree(g)[1] == 0


def test_expand_in_degree_min_k_prior():
    cfg = sg.GraphConfig(top_k=5)
    rng = np.random.default_rng(8)
    nodes = rand_nodes(rng, 4, extent=0.5, span=400.0, init_count=1)
    g = sg.build_graph(nodes, 1, cfg)
    assert in_degree(g)[3] == 3  # min(K=5, 3 prior)


def test_expand_sequence_matches_batch_oracle():
    rng = np.random.default_rng(13)
    cfg = sg.GraphConfig(l_res_m=300.0, t_res_days=12.0, top_k=4)
    nodes = rand_nodes(rng, 50, extent=0.004, span=90.0, init_count=5)
    g = sg.build_graph(nodes, 5, cfg)
    assert edge_set(g) == brute_force_graph_edges(nodes, 5, cfg)


def test_expand_rejects_out_of_order_and_duplicate():
    cfg = sg.GraphConfig()
    nodes = rand_nodes(np.random.default_rng(2), 5, init_count=1)
    stale = sg.GraphNode(5, 121.0, 31.0, nodes[2].t_raw - 1.0, 0.0, False)
    with pytest.raises(sg.TemporalOrderError):
        sg.build_graph(nodes + [stale], 1, cfg)
    dup = sg.GraphNode(3, 121.0, 31.0, 1e9, 1.0, False)
    with pytest.raises(sg.ConstructionError):
        sg.build_graph(nodes + [dup], 1, cfg)
    # the kernel refuses a row older than one of its candidates, and a
    # refused growth leaves the graph as it was
    with pytest.raises(sg.TemporalOrderError):
        wire(nodes + [stale], [5], cfg)
    g = sg.build_graph(nodes, 1, cfg)
    with pytest.raises(sg.TemporalOrderError):
        g.grow(columns([stale]), [g.n], cfg)
    assert g.n == 5


def test_expand_rejects_node_older_than_init_block():
    cfg = sg.GraphConfig()
    init = [sg.GraphNode(0, 121.0, 31.0, 0.0, 0.0, True),
            sg.GraphNode(1, 121.0, 31.0, 10.0, 0.1, True)]
    with pytest.raises(sg.TemporalOrderError):
        sg.build_graph(init + [sg.GraphNode(2, 121.0, 31.0, 5.0, 0.05, False)], 2, cfg)


def test_expand_rejects_init_node():
    cfg = sg.GraphConfig()
    nodes = [sg.GraphNode(0, 121.0, 31.0, 0.0, 0.0, True),
             sg.GraphNode(1, 121.0, 31.0, 5.0, 0.05, True)]
    with pytest.raises(sg.ConstructionError):
        sg.build_graph(nodes, 1, cfg)
    assert sg.build_graph(nodes, 2, cfg).init_count == 2


def test_expand_rejects_id_other_than_next_position():
    cfg = sg.GraphConfig()
    nodes = rand_nodes(np.random.default_rng(2), 5, init_count=1)
    skip = sg.GraphNode(6, 121.0, 31.0, 1e9, 1.0, False)
    with pytest.raises(sg.ConstructionError):
        sg.build_graph(nodes + [skip], 1, cfg)
    assert sg.build_graph(nodes + [replace(skip, node_id=5)], 1, cfg).n == 6


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
    nodes = rand_nodes(rng, n, init_count=init_count)
    g = sg.build_graph(nodes, init_count, cfg)
    later = g.child >= init_count
    assert (g.t_raw[g.parent[later]] <= g.t_raw[g.child[later]]).all()
    ids = np.arange(init_count, g.n)
    assert (in_degree(g)[ids] >= np.minimum(k, ids)).all()


def test_k_zero_edges_subset_of_k_five():
    rng = np.random.default_rng(77)
    nodes = rand_nodes(rng, 60, extent=0.003, span=50.0, init_count=6)
    g0 = sg.build_graph(nodes, 6, sg.GraphConfig(top_k=0))
    g5 = sg.build_graph(nodes, 6, sg.GraphConfig(top_k=5))
    assert edge_set(g0) <= edge_set(g5)


def test_incremental_equals_batch_on_200_nodes():
    rng = np.random.default_rng(200)
    cfg = sg.GraphConfig(l_res_m=250.0, t_res_days=10.0, top_k=5)
    nodes = rand_nodes(rng, 200, extent=0.01, span=150.0, init_count=20)
    g = sg.build_graph(nodes, 20, cfg)
    assert edge_set(g) == brute_force_graph_edges(nodes, 20, cfg)


def test_additional_mode_still_meets_top_guarantee():
    rng = np.random.default_rng(55)
    cfg = sg.GraphConfig(top_k=3, top_mode="additional", l_res_m=800.0, t_res_days=40.0)
    nodes = rand_nodes(rng, 40, extent=0.004, span=60.0, init_count=4)
    g = sg.build_graph(nodes, 4, cfg)
    merged = sg.build_graph(nodes, 4, sg.GraphConfig(top_k=3))
    ids = np.arange(4, g.n)
    assert (in_degree(g)[ids] >= np.minimum(cfg.top_k, ids)).all()
    assert edge_set(merged) <= edge_set(g) | edge_set(merged)


# ---------------------------------------------------------------------------
# annotations and serialization


def test_annotations_match_recomputation():
    rng = np.random.default_rng(4)
    cfg = sg.GraphConfig(top_k=3)
    nodes = rand_nodes(rng, 10, init_count=2)
    g = sg.build_graph(nodes, 2, cfg)
    edges = g.to_json_dict()["edges"]
    assert len(edges) == g.edge_count()
    for e in edges:
        child, parent = nodes[e["to"]], nodes[e["from"]]
        assert e["dt_norm"] == abs(child.t_norm - parent.t_norm)
        assert e["dist_m"] == pytest.approx(
            equirect_m((child.lon, child.lat), (parent.lon, parent.lat)), rel=1e-12)


def test_parent_at_half_span_gives_half_dt_norm():
    span = 80.0
    a = sg.GraphNode(0, 121.0, 31.0, 0.0, 0.0, True)
    b = sg.GraphNode(1, 121.0, 31.0, span / 2, 0.5, False)
    g = sg.build_graph([a, b], 1, sg.GraphConfig(t_res_days=span))
    edges = g.to_json_dict()["edges"]
    assert edges and edges[0]["dt_norm"] == 0.5


def test_graph_json_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    nodes = rand_nodes(rng, 12, init_count=2)
    g = sg.build_graph(nodes, 2, sg.GraphConfig(top_k=2))
    path = tmp_path / "graph.json"
    sg.save_graph_json(g, path)
    back = sg.load_graph_json(path)
    assert back.n == g.n and back.init_count == g.init_count
    assert edge_set(back) == edge_set(g)
    assert back.to_json_dict() == g.to_json_dict()


@pytest.mark.parametrize("ids", [[1, 2, 3], [0, 2, 1], [0, 1, 1]])
def test_load_graph_json_rejects_non_positional_ids(tmp_path, ids):
    nodes = rand_nodes(np.random.default_rng(6), 3, init_count=1)
    doc = sg.build_graph(nodes, 1, sg.GraphConfig()).to_json_dict()
    for node, node_id in zip(doc["nodes"], ids):
        node["id"] = node_id
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(sg.ConstructionError):
        sg.load_graph_json(path)


def swap_times(doc):
    doc["nodes"][1]["t_raw"], doc["nodes"][2]["t_raw"] = \
        doc["nodes"][2]["t_raw"], doc["nodes"][1]["t_raw"]


def init_after_non_init(doc):
    doc["nodes"][2]["is_init"] = True


def nan_longitude(doc):
    doc["nodes"][1]["lon"] = math.nan


def unknown_origin(doc):
    doc["edges"][0]["origin"] = "ranked"


@pytest.mark.parametrize("corrupt", [swap_times, init_after_non_init, nan_longitude,
                                     unknown_origin])
def test_load_graph_json_rejects_graph_the_kernel_cannot_trust(tmp_path, corrupt):
    nodes = rand_nodes(np.random.default_rng(6), 3, init_count=1)
    doc = sg.build_graph(nodes, 1, sg.GraphConfig()).to_json_dict()
    corrupt(doc)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(sg.ConstructionError):
        sg.load_graph_json(path)


def test_load_graph_json_rejects_edge_to_missing_node(tmp_path):
    nodes = rand_nodes(np.random.default_rng(6), 3, init_count=1)
    doc = sg.build_graph(nodes, 1, sg.GraphConfig()).to_json_dict()
    doc["edges"].append({"from": -1, "to": 2, "origin": "top",
                         "dt_norm": 0.0, "dist_m": 0.0})
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(sg.ConstructionError):
        sg.load_graph_json(path)
