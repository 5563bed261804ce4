import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pavecast import dataset as ds
from pavecast import model as md
from pavecast import ndgrad as ng
from pavecast import pipeline
from pavecast import stgraph as sg
from pavecast import trainer as tr

from conftest import SMALL_DIMS, WatchedWorkspace, small_instance
from oracles import dense_forward


def make_context(inst, params=None):
    return tr.InferenceContext(params=params or inst["params"],
                               model_config=inst["config"],
                               graph_config=inst["graph_cfg"],
                               stats=inst["stats"], schema=inst["schema"])


def query_row(ctx, nodes, query):
    """The query's node, spatial-temporal features only, at its coords or its
    location's first row in nodes."""
    lon, lat = query.coords or next(p.coords for p in nodes
                                    if p.location_id == query.location_id)
    (row,) = ds.query_nodes([query.location_id], np.array([lon]), np.array([lat]),
                            np.array([query.t_raw]), ctx.stats, ctx.schema)
    return row


def written(ctx, node, value):
    """node holding value as its reading, as "predicted" writes a forecast."""
    return ds.with_readings([node], np.array([value]), ctx.stats, ctx.schema)[0]


def append_query(ctx, graph, nodes, query):
    """graph grown by the query's node, wired against every row before it as
    the "true" and "predicted" strategies wire it; the node joins nodes."""
    qnode = query_row(ctx, nodes, query)
    nodes.append(qnode)
    return graph.grow([[qnode.coords[0]], [qnode.coords[1]], [qnode.t_raw], [qnode.t_norm]],
                      [graph.n], ctx.graph_config)


def step(ctx, graph, nodes, query):
    """One autoregressive step by hand: the graph grown by the query's node,
    and the node's forecast."""
    grown = append_query(ctx, graph, nodes, query)
    return grown, tr.predict_one(ctx, grown, nodes, [graph.n])[0]


MODEL_GRID = [(variant, layers) for variant in md.VARIANTS for layers in (1, 2)]


def run_training(inst, epochs, seed=0, track=False):
    cfg = tr.TrainConfig(epochs=epochs, seed=seed, track_attention=track)
    return tr.train_on_graph(inst["graph"], inst["nodes"], inst["config"],
                             cfg, inst["graph_cfg"])


# ---------------------------------------------------------------------------
# training loop


def test_zero_epochs_returns_initialization():
    inst = small_instance(0)
    result = run_training(inst, 0)
    fresh = md.init_params(inst["config"], inst["schema"].dim_full,
                           inst["schema"].dim_st, 0)
    for name in fresh:
        assert np.array_equal(result.params[name], fresh[name])
    assert result.loss_trace == []


def test_training_is_deterministic():
    inst = small_instance(1)
    a = run_training(inst, 25)
    b = run_training(inst, 25)
    assert a.loss_trace == b.loss_trace
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_small_graph_overfits():
    inst = small_instance(2, n=5, init_count=1)
    cfg = tr.TrainConfig(epochs=2000, seed=0)
    result = tr.train_on_graph(inst["graph"], inst["nodes"], inst["config"],
                               cfg, inst["graph_cfg"])
    assert result.final_train_mae < 0.05


def test_loss_trend_decreases_on_moving_average():
    inst = small_instance(3, n=24, init_count=2)
    result = run_training(inst, 120)
    trace = np.array(result.loss_trace)
    window = 50
    smooth = np.convolve(trace, np.ones(window) / window, mode="valid")
    assert smooth[-1] < smooth[0]
    assert np.mean(np.diff(smooth) <= 1e-9) > 0.9  # weakly decreasing trend


def test_divergence_reports_epoch():
    inst = small_instance(4)
    # one step of this size pushes weights past overflow for the next forward
    bad_params_cfg = tr.TrainConfig(epochs=3, lr=1e200, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(tr.DivergenceError, match="epoch 1, first in a matmul primitive"):
        tr.train_on_graph(inst["graph"], inst["nodes"], inst["config"],
                          bad_params_cfg, inst["graph_cfg"])


def test_training_graph_contains_no_test_nodes():
    inst = small_instance(5, n=10, init_count=2)
    init, train_part, test = ds.split_segment(inst["nodes"], (0.2, 0.5, 0.3))
    history = init + train_part
    cols = sg.graph_nodes_from_processed(history)
    graph = sg.build_graph(cols, len(init), inst["graph_cfg"])
    assert graph.n == len(history)
    gt = md.prepare_tensors(graph, history, l_res_m=inst["graph_cfg"].l_res_m)
    assert gt.layout.src.max() < len(history) and gt.layout.dst.max() < len(history)


def test_attention_tracking_reports_tight_sums():
    inst = small_instance(6)
    result = run_training(inst, 5, track=True)
    assert result.attention_max_dev is not None
    assert result.attention_max_dev < 1e-12


def plain_training(inst, epochs, seed=0):
    """train_on_graph's epochs by hand: loss_and_grads on a tape without a
    workspace, then adam_step. Returns the loss trace and the parameters."""
    gt = md.prepare_tensors(inst["graph"], inst["nodes"], l_res_m=inst["graph_cfg"].l_res_m)
    loss_ids = np.arange(inst["graph"].init_count, inst["graph"].n)
    params = md.init_params(inst["config"], gt.x_full.shape[1], gt.x_st.shape[1], seed)
    adam = ng.adam_init(params, lr=tr.TrainConfig().lr)
    trace = []
    for _ in range(epochs):
        loss, grads, _ = md.loss_and_grads(gt, params, inst["config"], loss_ids)
        trace.append(loss)
        ng.adam_step(params, grads, adam)
    return trace, params


@pytest.mark.parametrize("variant,layers", MODEL_GRID,
                         ids=[f"{v}-{layers}" for v, layers in MODEL_GRID])
def test_training_on_a_workspace_equals_epochs_without_one(monkeypatch, variant, layers):
    """With every array pooled, no lend shares memory with a live one, and
    the loss trace and parameters keep their bytes."""
    monkeypatch.setattr(ng, "POOLED_MIN_ELEMENTS", 1)
    made = []
    monkeypatch.setattr(ng, "Workspace", lambda: made.append(WatchedWorkspace()) or made[-1])
    inst = small_instance(23, n=40, init_count=3, variant=variant, layers=layers)
    result = run_training(inst, 8)
    trace, params = plain_training(inst, 8)
    assert result.loss_trace == trace
    assert all(result.params[name].tobytes() == params[name].tobytes() for name in params)
    (ws,) = made
    assert ws.lends > 0 and ws.overlaps == 0


@pytest.fixture(scope="module")
def benchmark_sweep():
    """The benchmark model on a 600-record graph: its large arrays pool."""
    base = pipeline.reference_benchmark_config(0)
    config = replace(base, dataset=pipeline.DatasetSource(synthetic=replace(
        base.dataset.synthetic, n_records=600, n_locations=96)))
    data = pipeline.prepare_data(config)
    graph, graph_cfg = pipeline.build_history_graph(config, data)
    gt = md.prepare_tensors(graph, data.history_nodes, l_res_m=graph_cfg.l_res_m)
    params = md.init_params(config.model, gt.x_full.shape[1], gt.x_st.shape[1], 0)
    return gt, params, config.model, np.arange(graph.init_count, graph.n)


@pytest.mark.parametrize("pool_all", [False, True], ids=["large-arrays", "every-array"])
def test_workspace_stops_growing_and_stays_under_a_plain_sweeps_peak(monkeypatch,
                                                                     benchmark_sweep, pool_all):
    """From the second sweep on, the workspace makes no new buffer. Pooling
    only large arrays, it holds no more than a sweep without it peaks at."""
    md.loss_and_grads(*benchmark_sweep)  # first calls pay one-off costs
    tracemalloc.start()
    try:
        md.loss_and_grads(*benchmark_sweep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if pool_all:
        monkeypatch.setattr(ng, "POOLED_MIN_ELEMENTS", 1)
    ws = ng.Workspace()
    held = []
    for _ in range(4):
        md.loss_and_grads(*benchmark_sweep, workspace=ws)
        held.append(ws.nbytes)
    assert held[0] > 0
    assert held[1] == held[2] == held[3]
    assert pool_all or held[-1] <= peak


def test_workspace_gradients_keep_their_values_until_the_next_sweep(monkeypatch,
                                                                     benchmark_sweep):
    monkeypatch.setattr(ng, "POOLED_MIN_ELEMENTS", 1)  # the gradients pool too
    ws = ng.Workspace()
    _, grads, _ = md.loss_and_grads(*benchmark_sweep, workspace=ws)
    assert any(not g.flags.owndata for g in grads.values())
    kept = {name: g.copy() for name, g in grads.items()}
    gt, params, config, _ = benchmark_sweep
    md.forward_values(gt, params, config)
    md.loss_and_grads(*benchmark_sweep)
    assert all(np.array_equal(grads[name], kept[name]) for name in grads)


# ---------------------------------------------------------------------------
# predict_one


def test_duplicate_query_matches_training_forward():
    inst = small_instance(7, n=8, init_count=1)
    nodes, graph = inst["nodes"], inst["graph"]
    history_nodes = nodes[:-1]
    history_cols = sg.graph_nodes_from_processed(history_nodes)
    history = sg.build_graph(history_cols, 1, inst["graph_cfg"])
    ctx = make_context(inst)

    last = nodes[-1]
    query = tr.Query(last.location_id, last.t_raw)
    grown_nodes = list(history_nodes)
    grown, yhat = step(ctx, history, grown_nodes, query)
    # the step grows the history exactly as the build does
    assert grown.to_json_dict() == graph.to_json_dict()
    assert len(grown_nodes) == len(nodes)

    # training-style forward over the full graph, query features blanked the
    # same way a fresh query node is
    blank = query_row(ctx, history_nodes, query)
    full_nodes = history_nodes + [blank]
    gt = md.prepare_tensors(graph, full_nodes, l_res_m=inst["graph_cfg"].l_res_m)
    want = md.forward_values(gt, inst["params"], inst["config"])[len(history_nodes)]
    assert yhat == pytest.approx(want, abs=1e-12)


def test_isolated_query_ignores_other_nodes_features():
    inst = small_instance(8, n=6, init_count=1, top_k=0, variant="stgan_no_top")
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    query = tr.Query(nodes[0].location_id, graph.t_raw.max() + 1e5)  # no proximity parents
    _, y1 = step(ctx, graph, list(nodes), query)

    poked = ds.preprocess_records(inst["records"], inst["stats"], inst["schema"])
    for node in poked:
        node.x_full = node.x_full.copy()
        node.x_full[:-3] += 3.3
    _, y2 = step(ctx, graph, poked, query)
    assert y1 == y2


def test_query_contract_errors():
    inst = small_instance(9)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    early = tr.Query(nodes[0].location_id, graph.t_raw.min() - 5.0)
    unknown = tr.Query(424242, graph.t_raw.max() + 5.0)
    off_earth = [tr.Query(nodes[0].location_id, graph.t_raw.max() + 5.0, coords)
                 for coords in ((121.0, 121.45), (400.0, 31.0), (math.nan, 31.0),
                                (121.0, math.inf))]
    for query in (early, unknown, *off_earth):
        with pytest.raises(tr.QueryError):
            tr.predict_sequence(ctx, graph, nodes, [query], "predicted")
        with pytest.raises(tr.QueryError):
            tr.predict_sequence(ctx, graph, nodes, [query])


def test_location_query_sits_at_its_first_history_row(monkeypatch):
    # GPS jitter: the rows of one location carry different coordinates
    inst = small_instance(25, n=16)
    ctx = make_context(inst)
    loc = max(set(r.location_id for r in inst["records"]),
              key=[r.location_id for r in inst["records"]].count)
    seen = []
    records = []
    for r in inst["records"]:
        if r.location_id == loc:
            r = replace(r, longitude_gcj=r.longitude_gcj + 2e-4 * len(seen),
                        latitude_gcj=r.latitude_gcj - 1e-4 * len(seen))
            seen.append((r.longitude_gcj, r.latitude_gcj))
        records.append(r)
    assert len(set(seen)) > 1
    nodes = ds.preprocess_records(records, inst["stats"], inst["schema"])
    graph = sg.build_graph(sg.graph_nodes_from_processed(nodes), 1, inst["graph_cfg"])
    real, grown = tr.predict_one, []

    def spy(ctx, graph, *args):
        grown.append(graph)
        return real(ctx, graph, *args)

    monkeypatch.setattr(tr, "predict_one", spy)
    t = graph.t_raw.max() + 2.0
    observed = [replace(next(r for r in records if r.location_id == loc), collect_time=t)]
    for strategy in tr.STRATEGIES:
        def forecast(**coords):
            return tr.predict_sequence(ctx, graph, nodes, [tr.Query(loc, t, **coords)],
                                       strategy, observed=observed)
        got = forecast()
        assert (grown[-1].lon[-1], grown[-1].lat[-1]) == seen[0], strategy
        assert got == forecast(coords=seen[0])
        if strategy != "true":  # its record sits at the first row's coordinates
            assert got != forecast(coords=seen[-1])


def test_uncommitted_query_leaves_graph_untouched():
    inst = small_instance(10)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    n_before, doc_before = graph.n, graph.to_json_dict()
    n_nodes = len(nodes)
    tr.predict_sequence(ctx, graph, nodes, [tr.Query(nodes[0].location_id,
                                                     graph.t_raw.max() + 1.0)])
    assert graph.n == n_before and graph.to_json_dict() == doc_before
    assert len(nodes) == n_nodes


@pytest.mark.parametrize("strategy", ["ignore", "true", "predicted"])
def test_predict_sequence_restores_graph_and_nodes(strategy):
    inst = small_instance(21)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    n_before, doc_before, nodes_before = graph.n, graph.to_json_dict(), list(nodes)
    queries = chain_queries(inst, 3)
    observed = chain_observed(inst, queries)

    def unchanged():
        return (graph.n == n_before and graph.to_json_dict() == doc_before
                and len(nodes) == len(nodes_before)
                and all(a is b for a, b in zip(nodes, nodes_before)))

    tr.predict_sequence(ctx, graph, nodes, queries, strategy, observed=observed)
    assert unchanged()
    # the second query names a location without history
    failing = [queries[0], tr.Query(424242, queries[1].t_raw)]
    with pytest.raises(tr.QueryError):
        tr.predict_sequence(ctx, graph, nodes, failing, strategy,
                            observed=[observed[0], replace(observed[1], location_id=424242)])
    assert unchanged()


def test_three_query_chain_matches_dense_hand_step():
    inst = small_instance(11, n=6, init_count=1)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    t0 = graph.t_raw.max()
    queries = [tr.Query(nodes[0].location_id, t0 + 1.0),
               tr.Query(nodes[1].location_id, t0 + 2.0),
               tr.Query(nodes[2].location_id, t0 + 3.0)]
    got = tr.predict_sequence(ctx, graph, nodes, queries, strategy="predicted")

    # dense oracle stepped by hand with explicit commits
    work_graph = graph
    work_nodes = list(nodes)
    want = []
    for q in queries:
        work_graph = append_query(ctx, work_graph, work_nodes, q)
        qnode = work_nodes[-1]
        dense = dense_forward(work_graph, work_nodes, inst["params"],
                              inst["config"], l_res_m=inst["graph_cfg"].l_res_m)
        yhat = float(dense[len(work_nodes) - 1])
        want.append(yhat)
        work_nodes[-1] = written(ctx, qnode, yhat)
    assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# strategies


def chain_queries(inst, k):
    graph, nodes = inst["graph"], inst["nodes"]
    t0 = graph.t_raw.max()
    return [tr.Query(nodes[i % len(nodes)].location_id, t0 + i + 1.0) for i in range(k)]


def chain_observed(inst, queries):
    """Records observed at chain_queries' locations and times."""
    records = inst["records"]
    return [replace(records[i % len(records)], collect_time=q.t_raw)
            for i, q in enumerate(queries)]


def test_single_query_strategies_agree():
    inst = small_instance(12)
    ctx = make_context(inst)
    queries = chain_queries(inst, 1)
    obs = [inst["records"][0]]
    obs[0].collect_time = queries[0].t_raw
    graph, nodes = inst["graph"], inst["nodes"]
    a = tr.predict_sequence(ctx, graph, nodes, queries, "ignore")
    b = tr.predict_sequence(ctx, graph, nodes, queries, "true", obs)
    c = tr.predict_sequence(ctx, graph, nodes, queries, "predicted")
    assert a == b == c


def test_empty_query_list_answers_nothing():
    inst = small_instance(24)
    ctx = make_context(inst)
    for strategy in tr.STRATEGIES:
        out = tr.predict_sequence(ctx, inst["graph"], inst["nodes"], [], strategy,
                                  observed=[])
        assert out.shape == (0,)


def test_true_feedback_requires_observations():
    inst = small_instance(14)
    ctx = make_context(inst)
    with pytest.raises(tr.StrategyError):
        tr.predict_sequence(ctx, inst["graph"], inst["nodes"],
                            chain_queries(inst, 2), "true")


@pytest.mark.parametrize("shift", [dict(collect_time=-30.0), dict(location_id=1),
                                   dict(longitude_gcj=1e-4)])
def test_true_feedback_rejects_records_off_their_query(shift):
    inst = small_instance(14)
    ctx = make_context(inst)
    queries = chain_queries(inst, 3)
    observed = chain_observed(inst, queries)
    # the third record moved in time, to the next location id or along a road
    observed[2] = replace(observed[2], **{key: getattr(observed[2], key) + delta
                                          for key, delta in shift.items()})
    with pytest.raises(tr.StrategyError, match="differs from its query"):
        tr.predict_sequence(ctx, inst["graph"], inst["nodes"], queries, "true",
                            observed=observed)


def test_unknown_strategy_rejected():
    inst = small_instance(15)
    ctx = make_context(inst)
    with pytest.raises(tr.StrategyError):
        tr.predict_sequence(ctx, inst["graph"], inst["nodes"],
                            chain_queries(inst, 1), "bogus")


def test_ignore_strategy_is_order_free_per_query():
    # a batched forward pass may differ from a single-query one by about an
    # ulp: BLAS sums an n x 1 product in an order that depends on the row
    inst = small_instance(13)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    queries = chain_queries(inst, 4)
    out = tr.predict_sequence(ctx, graph, nodes, queries, "ignore")
    singles = [step(ctx, graph, list(nodes), q)[1] for q in queries]
    assert np.allclose(out, singles, atol=1e-12)
    # no query's answer depends on the queries before it
    tail = tr.predict_sequence(ctx, graph, nodes, queries[2:], "ignore")
    assert np.allclose(tail, out[2:], atol=1e-12)


def test_batch_ignore_equals_sequential():
    inst = small_instance(16, n=9, init_count=1)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    queries = chain_queries(inst, 5)
    batched = tr.predict_sequence(ctx, graph, nodes, queries, "ignore")
    singles = [step(ctx, graph, list(nodes), q)[1] for q in queries]
    assert np.allclose(batched, singles, atol=1e-12)


def test_batch_ignore_allow_past_wires_against_no_later_history():
    inst = small_instance(17, n=10, init_count=2)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    t = float(graph.t_raw[6])  # inside the history, after the init block
    q = tr.Query(nodes[0].location_id, t, coords=nodes[0].coords)
    got = tr.predict_sequence(ctx, graph, nodes, [q], allow_past=True)
    visible = int(np.sum(graph.t_raw <= t))
    prefix = sg.build_graph(sg.graph_nodes_from_processed(nodes[:visible]), 2,
                            inst["graph_cfg"])
    _, want = step(ctx, prefix, nodes[:visible], q)
    assert got[0] == pytest.approx(want, abs=1e-12)


def full_recompute(ctx, graph, nodes, queries, strategy, observed=None):
    """What predict_sequence answers, from a full-graph prepare_tensors and
    forward pass over the grown graph per step."""
    work_graph, work_nodes, out = graph, list(nodes), []
    for k, q in enumerate(queries):
        if strategy == "ignore":
            work_graph, work_nodes = graph, list(nodes)
        work_graph = append_query(ctx, work_graph, work_nodes, q)
        gt = md.prepare_tensors(work_graph, work_nodes, l_res_m=ctx.graph_config.l_res_m)
        out.append(md.forward_values(gt, ctx.params, ctx.model_config)[-1])
        if strategy == "true":
            work_nodes[-1] = ds.preprocess_records([observed[k]], ctx.stats, ctx.schema)[0]
        elif strategy == "predicted":
            work_nodes[-1] = written(ctx, work_nodes[-1], out[-1])
    return np.array(out)


# "True": stacked layers reuse the first one's attention; kept in the ids so
# the test names stay stable
@pytest.mark.parametrize("variant,layers", MODEL_GRID,
                         ids=[f"{v}-{layers}-True" for v, layers in MODEL_GRID])
def test_cone_forecasts_match_full_recompute(variant, layers):
    inst = small_instance(22, n=40, init_count=3, variant=variant, layers=layers)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    queries = chain_queries(inst, 4)
    observed = chain_observed(inst, queries)
    for strategy in tr.STRATEGIES:
        got = tr.predict_sequence(ctx, graph, nodes, queries, strategy, observed=observed)
        want = full_recompute(ctx, graph, nodes, queries, strategy, observed)
        assert np.allclose(got, want, rtol=0.0, atol=1e-12), strategy


def brute_force_ancestors(graph, node_id, hops):
    """node_id and every node within hops parent hops of it."""
    parents = {}
    for e in graph.to_json_dict()["edges"]:
        parents.setdefault(e["to"], set()).add(e["from"])
    reached = {node_id}
    for _ in range(hops):
        reached |= {p for v in reached for p in parents.get(v, ())}
    return parents, reached


@pytest.mark.parametrize("layers", [1, 2])
def test_query_step_reads_only_its_ancestor_cone(monkeypatch, layers):
    inst = small_instance(23, n=64, init_count=4, layers=layers)
    ctx = make_context(inst)
    nodes = list(inst["nodes"])
    handed = []

    def spy(gt, *args, **kwargs):
        handed.append(gt)
        return md.forward_values(gt, *args, **kwargs)

    monkeypatch.setattr(tr, "forward_values", spy)
    graph, _ = step(ctx, inst["graph"], nodes, chain_queries(inst, 1)[0])
    (gt,) = handed
    parents, cone = brute_force_ancestors(graph, graph.n - 1, layers)
    if layers == 1:
        assert gt.n == 1 + len(parents[graph.n - 1])
    ids = sorted(cone)
    assert gt.n == len(ids) < graph.n
    assert np.array_equal(gt.x_full, np.stack([nodes[i].x_full for i in ids]))
    # nodes exactly `layers` hops out bring their features, not their parents
    _, inner = brute_force_ancestors(graph, graph.n - 1, layers - 1)
    assert len(gt.layout.src) == gt.n + sum(len(parents.get(v, ())) for v in inner)


def brute_force_levels(graph, base_n, hops):
    """Query levels by definition: 1 + the highest level among the query rows
    within hops parent hops, 1 if there are none."""
    levels = {}
    for row in range(base_n, graph.n):
        _, reached = brute_force_ancestors(graph, row, hops)
        levels[row] = 1 + max((levels[r] for r in reached - {row} if r >= base_n), default=0)
    return [levels[row] for row in range(base_n, graph.n)]


def level_instance(layers):
    """An instance whose ten chained queries share levels under "true" and
    "predicted", the grown graph those strategies forecast on, and its levels."""
    inst = small_instance(23, n=40, init_count=3, layers=layers)
    ctx = make_context(inst)
    queries = chain_queries(inst, 10)
    grown, nodes = inst["graph"], list(inst["nodes"])
    for q in queries:
        grown = append_query(ctx, grown, nodes, q)
    return inst, ctx, queries, grown, tr.query_levels(grown, inst["graph"].n)


@pytest.mark.parametrize("layers", [1, 2])
def test_query_levels_match_brute_force(layers):
    inst, _, queries, grown, levels = level_instance(layers)
    assert levels.tolist() == brute_force_levels(grown, inst["graph"].n, layers)
    assert 1 < levels.max() < len(queries)  # several levels, some shared


@pytest.mark.parametrize("strategy", tr.STRATEGIES)
def test_one_forward_pass_per_level(monkeypatch, strategy):
    inst, ctx, queries, _, levels = level_instance(2)
    observed = chain_observed(inst, queries)
    passes, written = [], []

    def forward_spy(gt, *args, **kwargs):
        passes.append(len(gt.targets))
        return md.forward_values(gt, *args, **kwargs)

    def writer_spy(nodes, *args, **kwargs):
        written.extend(nodes)
        return ds.with_readings(nodes, *args, **kwargs)

    monkeypatch.setattr(tr, "forward_values", forward_spy)
    monkeypatch.setattr(tr, "with_readings", writer_spy)
    got = tr.predict_sequence(ctx, inst["graph"], inst["nodes"], queries, strategy,
                              observed=observed)
    if strategy == "predicted":
        assert passes == np.bincount(levels)[1:].tolist()
        assert len(written) == np.sum(levels < levels.max())
    else:
        assert passes == [len(queries)] and written == []
    # queries sharing a pass read nothing of each other
    want = full_recompute(ctx, inst["graph"], inst["nodes"], queries, strategy, observed)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# checkpointing


def trained_checkpoint(inst, epochs=8):
    result = run_training(inst, epochs)
    return tr.Checkpoint(model_config=inst["config"], graph_config=inst["graph_cfg"],
                         train_config=tr.TrainConfig(epochs=epochs, seed=0),
                         stats=inst["stats"], schema=inst["schema"],
                         params=result.params, adam=result.adam,
                         loss_trace=result.loss_trace,
                         final_train_mae=result.final_train_mae,
                         run_config={"note": "test"})


def test_checkpoint_roundtrip_preserves_predictions(tmp_path):
    inst = small_instance(17)
    ckpt = trained_checkpoint(inst)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, ckpt)
    back = tr.load_checkpoint(path)
    gt = inst["gt"]
    a = md.forward_values(gt, ckpt.params, ckpt.model_config)
    b = md.forward_values(gt, back.params, back.model_config)
    assert np.array_equal(a, b)
    assert back.stats == inst["stats"]
    assert back.loss_trace == ckpt.loss_trace


def test_checkpoint_stores_parameters_only(tmp_path):
    inst = small_instance(18)
    ckpt = trained_checkpoint(inst)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, ckpt)
    raw = path.read_bytes()
    mlen = int(np.frombuffer(raw[12:20], dtype="<u8")[0])
    manifest = json.loads(raw[20:20 + mlen])
    assert [e["name"] for e in manifest["sections"]] == [f"param:{n}" for n in ckpt.params]
    assert manifest["adam"]["t"] == ckpt.adam.t == 8
    back = tr.load_checkpoint(path)
    assert back.adam.t == 8 and back.adam.m == {} and back.adam.v == {}


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    inst = small_instance(18)
    ckpt = trained_checkpoint(inst)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    tr.save_checkpoint(p1, ckpt)
    tr.save_checkpoint(p2, tr.load_checkpoint(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_version_bump_rejected(tmp_path):
    inst = small_instance(19)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, trained_checkpoint(inst))
    raw = bytearray(path.read_bytes())
    raw[8:12] = np.uint32(99).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(tr.CheckpointVersionError):
        tr.load_checkpoint(path)


def test_version_2_checkpoint_is_a_version_error(tmp_path):
    # a version-2 manifest names settings this build no longer has
    inst = small_instance(19)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, trained_checkpoint(inst))
    raw = path.read_bytes()
    mlen = int(np.frombuffer(raw[12:20], dtype="<u8")[0])
    manifest = json.loads(raw[20:20 + mlen])
    manifest["format_version"] = 2
    manifest["model_config"]["reuse_attention"] = True
    manifest["feature_schema"].update(include_type_onehot=True, include_conf=True)
    mbytes = json.dumps(manifest).encode()
    path.write_bytes(raw[:8] + np.uint32(2).tobytes() + np.uint64(len(mbytes)).tobytes()
                     + mbytes + raw[20 + mlen:])
    with pytest.raises(tr.CheckpointVersionError, match="version 2"):
        tr.load_checkpoint(path)


def test_checkpoint_corruption_detected(tmp_path):
    inst = small_instance(20)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, trained_checkpoint(inst))
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0xFF  # flip bits inside the last section
    path.write_bytes(bytes(raw))
    with pytest.raises(tr.CheckpointIntegrityError):
        tr.load_checkpoint(path)


@pytest.mark.parametrize("keep", [10, 19, 40, -5])
def test_checkpoint_truncation_detected(tmp_path, keep):
    inst = small_instance(20)
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, trained_checkpoint(inst))
    path.write_bytes(path.read_bytes()[:keep])  # inside header, manifest, sections
    with pytest.raises(tr.CheckpointIntegrityError):
        tr.load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPTxxxxxxx")
    with pytest.raises(tr.CheckpointIntegrityError):
        tr.load_checkpoint(path)
