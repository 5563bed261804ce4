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


def queries_at(records, times):
    """Copies of records as queries at times."""
    queries = records.copy()
    queries.collect_time = times
    return queries


def query_row(ctx, query):
    """A one-record query table's row, spatial-temporal features only."""
    return ds.query_nodes(query.location_id, query.longitude_gcj, query.latitude_gcj,
                          query.collect_time, ctx.stats, ctx.schema)


def write_forecast(ctx, nodes, value):
    """Write value into nodes' last row as its reading, as "predicted" writes a
    forecast."""
    ds.write_readings(nodes, [len(nodes) - 1], np.array([value]), ctx.stats, ctx.schema)


def append_query(ctx, graph, nodes, query):
    """graph and nodes grown by a one-record query table's row, wired against
    every row before it as the "true" and "predicted" strategies wire it."""
    row = query_row(ctx, query)
    return (graph.grow([row.lon, row.lat, row.t_raw, row.t_norm], [graph.n], ctx.graph_config),
            nodes + row)


def step(ctx, graph, nodes, query):
    """One autoregressive step by hand: the graph and nodes grown by the
    query's row, and the row's forecast."""
    grown, grown_nodes = append_query(ctx, graph, nodes, query)
    return grown, grown_nodes, tr.predict_one(ctx, grown, grown_nodes, [graph.n])[0]


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


def test_progress_lines_every_log_every_epochs():
    inst = small_instance(0)
    lines = []
    cfg = tr.TrainConfig(epochs=5, seed=0, log_every=2)
    result = tr.train_on_graph(inst["graph"], inst["nodes"], inst["config"], cfg,
                               inst["graph_cfg"], log=lines.append)
    assert lines == [f"epoch {e}: train mae {result.loss_trace[e]:.6f}" for e in (0, 2, 4)]


def test_divergence_reports_epoch():
    inst = small_instance(4)
    # one step of this size pushes weights past overflow for the next forward
    bad_params_cfg = tr.TrainConfig(epochs=3, lr=1e200, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(tr.DivergenceError, match="epoch 1, first in a dense primitive"):
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


def plain_training(inst, epochs, seed=0, whole_graph=False):
    """train_on_graph's epochs by hand: loss_and_grads over the loss rows'
    ancestor cone (or, with whole_graph, over every row) on a tape without a
    workspace, then adam_step. Returns the loss trace and the parameters."""
    graph = inst["graph"]
    loss_rows = np.arange(graph.init_count, graph.n)
    if whole_graph:
        gt = replace(inst["gt"], targets=inst["gt"].targets[loss_rows])
    else:
        gt = md.prepare_tensors(graph, inst["nodes"], l_res_m=inst["graph_cfg"].l_res_m,
                                targets=loss_rows, hops=inst["config"].layers)
    params = md.init_params(inst["config"], gt.x_full.shape[1], gt.x_st.shape[1], seed)
    adam = ng.adam_init(params, lr=tr.TrainConfig().lr)
    trace = []
    for _ in range(epochs):
        loss, grads = md.loss_and_grads(gt, params, inst["config"])
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


def ancestors_within(graph, rows, hops):
    """rows and every row within hops parent hops of one, by a plain walk."""
    reached, frontier = set(rows), set(rows)
    for _ in range(hops):
        frontier = {int(p) for c in frontier
                    for p in graph.parent[graph.offsets[c]:graph.offsets[c + 1]]} - reached
        reached |= frontier
    return sorted(reached)


def tensor_rows(graph, targets, hops):
    """The ids of targets' hops-hop cone in prepare_tensors' row order: by kept
    parent count (all of a row's parents within hops - 1 hops of a target,
    none further out), then by id."""
    inner = set(ancestors_within(graph, targets, hops - 1))
    kept = {i: int(graph.offsets[i + 1] - graph.offsets[i]) if i in inner else 0
            for i in ancestors_within(graph, targets, hops)}
    return sorted(kept, key=lambda i: (kept[i], i))


@pytest.mark.parametrize("targets", [[17, 9, 12], [11], None], ids=["three", "one", "all"])
@pytest.mark.parametrize("hops", [1, 2])
def test_tensor_rows_come_by_kept_parent_count_then_id(targets, hops):
    """Counts never decrease down the rows, and targets maps the requested ids,
    in request order, to their rows."""
    inst = small_instance(23, n=20, init_count=6)
    graph, nodes = inst["graph"], inst["nodes"]
    gt = md.prepare_tensors(graph, nodes, l_res_m=inst["graph_cfg"].l_res_m,
                            targets=targets, hops=hops)
    requested = np.arange(graph.n) if targets is None else np.array(targets)
    rows = np.array(tensor_rows(graph, requested.tolist(), hops))
    assert np.all(np.diff(gt.layout.counts) >= 0)
    assert np.array_equal(gt.x_full, nodes.x_full[rows]) and np.array_equal(gt.y, nodes.y[rows])
    assert np.array_equal(rows[gt.targets], requested)
    assert len(gt.layout.runs) == len(np.unique(gt.layout.counts[gt.layout.counts > 0]))


@pytest.mark.parametrize("variant,layers", MODEL_GRID,
                         ids=[f"{v}-{layers}" for v, layers in MODEL_GRID])
def test_training_on_the_loss_rows_cone_equals_whole_graph_epochs(monkeypatch, variant,
                                                                  layers):
    """Training flattens the loss rows' cone: the loss and final_train_mae are
    whole-graph training's, less terms whose gradient is zero."""
    inst = small_instance(23, n=20, init_count=6, variant=variant, layers=layers)
    graph, nodes = inst["graph"], inst["nodes"]
    loss_rows = list(range(graph.init_count, graph.n))
    cone = ancestors_within(graph, loss_rows, layers)
    # an initialization row the loss never reads, and initialization rows
    # wired to one another, whose edges the cone drops
    assert set(range(graph.init_count)) - set(cone) and graph.offsets[graph.init_count] > 0
    seen = []

    def recorded(gt, *args, **kwargs):
        seen.append(gt)
        return md.loss_and_grads(gt, *args, **kwargs)

    monkeypatch.setattr(tr, "loss_and_grads", recorded)
    result = run_training(inst, 10)
    gt = seen[0]
    assert all(g is gt for g in seen) and len(seen) == 10
    rows = tensor_rows(graph, loss_rows, layers)
    assert sorted(rows) == cone
    assert gt.n == len(cone) and np.array_equal(gt.x_full, nodes.x_full[rows])
    assert np.array_equal(gt.targets, [rows.index(r) for r in loss_rows])

    trace, params = plain_training(inst, 10, whole_graph=True)
    np.testing.assert_allclose(result.loss_trace, trace, rtol=1e-12, atol=0)
    yhat = md.forward_values(inst["gt"], params, inst["config"])
    whole_mae = float(np.mean(np.abs(yhat[loss_rows] - nodes.y[loss_rows])))
    assert result.final_train_mae == pytest.approx(whole_mae, rel=1e-12, abs=0)


def test_training_without_loss_rows_is_rejected(monkeypatch):
    # rejected where the tensors are built, so before any epoch: with no
    # epochs it would otherwise return a NaN final_train_mae
    inst = small_instance(0, n=6, init_count=6)
    monkeypatch.setattr(tr, "loss_and_grads", None)
    for epochs in (0, 1, 3):
        with pytest.raises(md.ModelConfigError, match="^targets need at least one node id$"):
            run_training(inst, epochs)


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
    return replace(gt, targets=gt.targets[graph.init_count:]), params, config.model


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
    _, grads = md.loss_and_grads(*benchmark_sweep, workspace=ws)
    assert any(not g.flags.owndata for g in grads.values())
    kept = {name: g.copy() for name, g in grads.items()}
    gt, params, config = benchmark_sweep
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

    query = inst["records"][-1:]  # the last node's record, as a query
    grown, grown_nodes, yhat = step(ctx, history, history_nodes, query)
    # the step grows the history exactly as the build does
    assert grown.to_json_dict() == graph.to_json_dict()
    assert len(grown_nodes) == len(nodes)

    # training-style forward over the full graph, query features blanked the
    # same way a fresh query node is
    blank = query_row(ctx, query)
    full_nodes = history_nodes + blank
    gt = md.prepare_tensors(graph, full_nodes, l_res_m=inst["graph_cfg"].l_res_m)
    want = md.forward_values(gt, inst["params"], inst["config"])[len(history_nodes)]
    assert yhat == pytest.approx(want, abs=1e-12)


def test_isolated_query_ignores_other_nodes_features():
    inst = small_instance(8, n=6, init_count=1, top_k=0, variant="stgan_no_top")
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    query = queries_at(inst["records"][:1], graph.t_raw.max() + 1e5)  # no proximity parents
    _, _, y1 = step(ctx, graph, nodes, query)

    poked = ds.preprocess_records(inst["records"], inst["stats"], inst["schema"])
    poked.x_full[:, :-3] += 3.3
    _, _, y2 = step(ctx, graph, poked, query)
    assert y1 == y2


def test_query_contract_errors():
    inst = small_instance(9)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    later = graph.t_raw.max() + 5.0
    early = queries_at(inst["records"][:1], graph.t_raw.min() - 5.0)
    off_earth = []
    for coords in ((121.0, 121.45), (400.0, 31.0), (math.nan, 31.0), (121.0, math.inf)):
        query = queries_at(inst["records"][:1], later)
        query.longitude_gcj, query.latitude_gcj = coords
        off_earth.append(query)
    not_finite = [queries_at(inst["records"][:2], [later, t]) for t in (math.nan, math.inf)]
    unsorted = queries_at(inst["records"][:2], [later + 1.0, later])
    for queries in (early, *off_earth, *not_finite, unsorted):
        for strategy in tr.STRATEGIES:
            with pytest.raises(tr.QueryError):
                tr.predict_sequence(ctx, graph, nodes, queries, strategy)


def test_one_query_leaves_graph_untouched():
    inst = small_instance(10)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    n_before, doc_before = graph.n, graph.to_json_dict()
    n_nodes = len(nodes)
    tr.predict_sequence(ctx, graph, nodes,
                        queries_at(inst["records"][:1], graph.t_raw.max() + 1.0))
    assert graph.n == n_before and graph.to_json_dict() == doc_before
    assert len(nodes) == n_nodes


@pytest.mark.parametrize("strategy", ["ignore", "true", "predicted"])
def test_predict_sequence_restores_graph_and_nodes(strategy):
    inst = small_instance(21)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    n_before, doc_before = graph.n, graph.to_json_dict()
    nodes_before = {name: col.tobytes() for name, col in vars(nodes).items()}
    queries = chain_queries(inst, 3)

    def unchanged():
        return (graph.n == n_before and graph.to_json_dict() == doc_before
                and {name: col.tobytes() for name, col in vars(nodes).items()}
                == nodes_before)

    tr.predict_sequence(ctx, graph, nodes, queries, strategy)
    assert unchanged()
    # the second query lies off the Earth
    failing = queries[:2].copy()
    failing.latitude_gcj[1] = 91.0
    with pytest.raises(tr.QueryError):
        tr.predict_sequence(ctx, graph, nodes, failing, strategy)
    assert unchanged()


def test_three_query_chain_matches_dense_hand_step():
    inst = small_instance(11, n=6, init_count=1)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    queries = chain_queries(inst, 3)  # at nodes 0-2's locations, 1-3 days on
    got = tr.predict_sequence(ctx, graph, nodes, queries, strategy="predicted")

    # dense oracle stepped by hand, each forecast written before the next query
    work_graph, work_nodes = graph, nodes
    want = []
    for k in range(len(queries)):
        work_graph, work_nodes = append_query(ctx, work_graph, work_nodes, queries[k:k + 1])
        dense = dense_forward(work_graph, work_nodes, inst["params"],
                              inst["config"], l_res_m=inst["graph_cfg"].l_res_m)
        yhat = float(dense[len(work_nodes) - 1])
        want.append(yhat)
        write_forecast(ctx, work_nodes, yhat)
    assert got == pytest.approx(want, abs=1e-9)


# ---------------------------------------------------------------------------
# strategies


def chain_queries(inst, k):
    """k queries one day apart after the history, each a copy of a history
    record (its location, coordinates and readings)."""
    records = inst["records"]
    return queries_at(records[np.arange(k) % len(records)],
                      inst["graph"].t_raw.max() + np.arange(1.0, k + 1))


def test_single_query_strategies_agree():
    inst = small_instance(12)
    ctx = make_context(inst)
    queries = chain_queries(inst, 1)
    graph, nodes = inst["graph"], inst["nodes"]
    a = tr.predict_sequence(ctx, graph, nodes, queries, "ignore")
    b = tr.predict_sequence(ctx, graph, nodes, queries, "true")
    c = tr.predict_sequence(ctx, graph, nodes, queries, "predicted")
    assert a == b == c


@pytest.mark.parametrize("strategy", ["ignore", "predicted"])
def test_forecast_reads_only_a_querys_place_and_time(strategy):
    # a query's readings, were any read, would turn the forecasts NaN or
    # fail to encode
    inst = small_instance(26, n=24, init_count=2)
    ctx = make_context(inst)
    queries = chain_queries(inst, 6)
    want = tr.predict_sequence(ctx, inst["graph"], inst["nodes"], queries, strategy)
    for name in ("detect_info", "detect_conf", *ds.ENV_FEATURES):
        queries[name] = math.nan
    queries.distress_type = -1
    got = tr.predict_sequence(ctx, inst["graph"], inst["nodes"], queries, strategy)
    assert np.isfinite(want).all() and np.array_equal(got, want)


def test_true_forecast_never_reads_its_own_record():
    inst = small_instance(27, n=24, init_count=2)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    queries = chain_queries(inst, 2)
    other = queries.copy()  # other readings, a valid type code
    other.detect_info += 4.0
    other.detect_conf = 1.0 - other.detect_conf
    for name in ds.ENV_FEATURES:
        other[name] = 2.0 * other[name] + 1.0
    other.distress_type = [code for code in ds.DISTRESS_TYPES
                           if code != queries.distress_type[0]][0]
    # the leakage barrier: a query's own record never reaches its own forecast
    assert (tr.predict_sequence(ctx, graph, nodes, queries[:1], "true")[0]
            == tr.predict_sequence(ctx, graph, nodes, other[:1], "true")[0])
    # but a later query that reads the first reads its record
    later = queries.copy()
    later[:1] = other[:1]
    a = tr.predict_sequence(ctx, graph, nodes, queries, "true")
    b = tr.predict_sequence(ctx, graph, nodes, later, "true")
    assert a[0] == b[0] and a[1] != b[1]


def test_empty_query_list_answers_nothing():
    inst = small_instance(24)
    ctx = make_context(inst)
    for strategy in tr.STRATEGIES:
        out = tr.predict_sequence(ctx, inst["graph"], inst["nodes"], inst["records"][:0],
                                  strategy)
        assert out.shape == (0,)


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
    singles = [step(ctx, graph, nodes, queries[k:k + 1])[2] for k in range(len(queries))]
    assert np.allclose(out, singles, atol=1e-12)
    # no query's answer depends on the queries before it
    tail = tr.predict_sequence(ctx, graph, nodes, queries[2:], "ignore")
    assert np.allclose(tail, out[2:], atol=1e-12)


def test_ignore_forecast_equals_sequential():
    inst = small_instance(16, n=9, init_count=1)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    queries = chain_queries(inst, 5)
    batched = tr.predict_sequence(ctx, graph, nodes, queries, "ignore")
    singles = [step(ctx, graph, nodes, queries[k:k + 1])[2] for k in range(len(queries))]
    assert np.allclose(batched, singles, atol=1e-12)


def test_ignore_forecast_allow_past_wires_against_no_later_history():
    inst = small_instance(17, n=10, init_count=2)
    ctx = make_context(inst)
    graph, nodes = inst["graph"], inst["nodes"]
    t = float(graph.t_raw[6])  # inside the history, after the init block
    q = queries_at(inst["records"][:1], t)
    got = tr.predict_sequence(ctx, graph, nodes, q, allow_past=True)
    visible = int(np.sum(graph.t_raw <= t))
    prefix = sg.build_graph(sg.graph_nodes_from_processed(nodes[:visible]), 2,
                            inst["graph_cfg"])
    _, _, want = step(ctx, prefix, nodes[:visible], q)
    assert got[0] == pytest.approx(want, abs=1e-12)


def full_recompute(ctx, graph, nodes, queries, strategy):
    """What predict_sequence answers, from a full-graph prepare_tensors and
    forward pass over the grown graph per step."""
    work_graph, work_nodes, out = graph, nodes, []
    for k in range(len(queries)):
        if strategy == "ignore":
            work_graph, work_nodes = graph, nodes
        work_graph, work_nodes = append_query(ctx, work_graph, work_nodes, queries[k:k + 1])
        gt = md.prepare_tensors(work_graph, work_nodes, l_res_m=ctx.graph_config.l_res_m)
        out.append(md.forward_values(gt, ctx.params, ctx.model_config)[-1])
        if strategy == "true":
            work_nodes = work_nodes[:-1] + ds.preprocess_records(queries[k:k + 1], ctx.stats,
                                                                 ctx.schema)
        elif strategy == "predicted":
            write_forecast(ctx, work_nodes, out[-1])
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
    for strategy in tr.STRATEGIES:
        got = tr.predict_sequence(ctx, graph, nodes, queries, strategy)
        want = full_recompute(ctx, graph, nodes, queries, strategy)
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
    handed = []

    def spy(gt, *args, **kwargs):
        handed.append(gt)
        return md.forward_values(gt, *args, **kwargs)

    monkeypatch.setattr(tr, "forward_values", spy)
    graph, nodes, _ = step(ctx, inst["graph"], inst["nodes"], chain_queries(inst, 1))
    (gt,) = handed
    parents, cone = brute_force_ancestors(graph, graph.n - 1, layers)
    if layers == 1:
        assert gt.n == 1 + len(parents[graph.n - 1])
    ids = tensor_rows(graph, [graph.n - 1], layers)
    assert sorted(ids) == sorted(cone)
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
    grown, nodes = inst["graph"], inst["nodes"]
    for k in range(len(queries)):
        grown, nodes = append_query(ctx, grown, nodes, queries[k:k + 1])
    return inst, ctx, queries, grown, tr.query_levels(grown, inst["graph"].n)


@pytest.mark.parametrize("layers", [1, 2])
def test_query_levels_match_brute_force(layers):
    inst, _, queries, grown, levels = level_instance(layers)
    assert levels.tolist() == brute_force_levels(grown, inst["graph"].n, layers)
    assert 1 < levels.max() < len(queries)  # several levels, some shared


@pytest.mark.parametrize("strategy", tr.STRATEGIES)
def test_one_forward_pass_per_level(monkeypatch, strategy):
    inst, ctx, queries, _, levels = level_instance(2)
    passes, written = [], []

    def forward_spy(gt, *args, **kwargs):
        passes.append(len(gt.targets))
        return md.forward_values(gt, *args, **kwargs)

    def writer_spy(nodes, rows, *args, **kwargs):
        written.extend(rows)
        return ds.write_readings(nodes, rows, *args, **kwargs)

    monkeypatch.setattr(tr, "forward_values", forward_spy)
    monkeypatch.setattr(tr, "write_readings", writer_spy)
    got = tr.predict_sequence(ctx, inst["graph"], inst["nodes"], queries, strategy)
    if strategy == "predicted":
        assert passes == np.bincount(levels)[1:].tolist()
        assert len(written) == np.sum(levels < levels.max())
    else:
        assert passes == [len(queries)] and written == []
    # queries sharing a pass read nothing of each other
    want = full_recompute(ctx, inst["graph"], inst["nodes"], queries, strategy)
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
    assert manifest["adam"] == {"lr": ckpt.adam.lr, "t": 8} and ckpt.adam.t == 8
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


def _write_manifest(path, manifest, version=tr.CHECKPOINT_VERSION):
    """The checkpoint at path with its header version and manifest replaced;
    the parameter sections stay as they are."""
    raw = path.read_bytes()
    mlen = int(np.frombuffer(raw[12:20], dtype="<u8")[0])
    mbytes = json.dumps(manifest).encode()
    path.write_bytes(raw[:8] + np.uint32(version).tobytes() + np.uint64(len(mbytes)).tobytes()
                     + mbytes + raw[20 + mlen:])


def _saved_manifest(path):
    raw = path.read_bytes()
    return json.loads(raw[20:20 + int(np.frombuffer(raw[12:20], dtype="<u8")[0])])


def test_version_3_checkpoint_is_a_version_error(tmp_path):
    # a version-3 manifest names settings that are constants now
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, trained_checkpoint(small_instance(19)))
    manifest = _saved_manifest(path)
    manifest["format_version"] = 3
    manifest["model_config"].update(hidden=8, leaky_slope=0.2)
    manifest["graph_config"]["top_mode"] = "merged"
    manifest["adam"].update(beta1=0.9, beta2=0.999, eps=1e-8)
    _write_manifest(path, manifest, version=3)
    with pytest.raises(tr.CheckpointVersionError,
                       match="^checkpoint version 3, this build reads 4$"):
        tr.load_checkpoint(path)


def test_manifest_version_must_match_the_header(tmp_path):
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, trained_checkpoint(small_instance(19)))
    manifest = _saved_manifest(path)
    manifest["format_version"] = 3
    _write_manifest(path, manifest)
    with pytest.raises(tr.CheckpointVersionError,
                       match="^manifest version 3, this build reads 4$"):
        tr.load_checkpoint(path)


def test_manifest_that_is_no_json_object_is_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, trained_checkpoint(small_instance(19)))
    _write_manifest(path, [tr.CHECKPOINT_VERSION])
    with pytest.raises(tr.CheckpointIntegrityError, match="^manifest is not a JSON object$"):
        tr.load_checkpoint(path)


def test_parameter_the_model_config_does_not_use_is_rejected(tmp_path):
    ckpt = trained_checkpoint(small_instance(19))
    ckpt.params["spare_w"] = np.zeros((2, 2))
    path = tmp_path / "model.ckpt"
    tr.save_checkpoint(path, ckpt)
    with pytest.raises(tr.CheckpointIntegrityError,
                       match="^parameter spare_w is not one the manifest's model_config uses$"):
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
