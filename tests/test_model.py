import gc
import json
import re
from dataclasses import asdict, astuple, replace
from operator import attrgetter

import numpy as np
import pytest

from pavecast import dataset as ds
from pavecast import model as md
from pavecast import ndgrad as ng
from pavecast import stgraph as sg
from pavecast.config import read_config

from conftest import SMALL_DIMS, random_records, small_instance
from gradcheck import grad_check
from oracles import dense_forward, dense_mae_loss, oracle_elu


def zero_params(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


def forward_with_probes(inst):
    probes = []
    yhat = md.forward_values(inst["gt"], inst["params"], inst["config"], probes=probes)
    return yhat, probes


# ---------------------------------------------------------------------------
# tensor preparation


def test_prepare_tensors_rejects_a_node_table_of_another_length():
    inst = small_instance(21)
    with pytest.raises(md.ModelConfigError, match="^7 nodes for a graph of 8$"):
        md.prepare_tensors(inst["graph"], inst["nodes"][:-1])


def test_prepare_tensors_equals_per_edge_loop():
    """Every edge array and the ranked-parent pool, bit for bit against a
    per-node loop over the graph's JSON edges."""
    inst = small_instance(21, n=14, init_count=3, top_k=3)
    graph, nodes, gt = inst["graph"], inst["nodes"], inst["gt"]
    l_res = inst["graph_cfg"].l_res_m
    edges = graph.to_json_dict()["edges"]
    by_child = [[e for e in edges if e["to"] == i] for i in range(graph.n)]
    assert sum(map(len, by_child)) > graph.n  # non-degenerate instance
    degree = np.array([len(p) + 1.0 for p in by_child])
    t_norm = np.array([p.t_norm for p in nodes])
    rows = []
    top_pool = np.zeros_like(gt.top_pool)
    for i, plist in enumerate(by_child):
        rows.append((i, i, True, 0.0, 0.0, 1.0 / degree[i]))
        for e in plist:
            b = e["from"]
            rows.append((b, i, False, abs(t_norm[i] - t_norm[b]), e["dist_m"] / l_res,
                         1.0 / np.sqrt(degree[b] * degree[i])))
        tops = [np.append(nodes[e["from"]].x_full, nodes[e["from"]].y)
                for e in plist if e["origin"] == "top"]
        if tops:
            top_pool[i] = np.mean(tops, axis=0)
    src, dst, is_self, dt_norm, dist_norm, gcn_w = map(np.array, zip(*rows))
    for name, want in [("layout.src", src), ("layout.dst", dst),
                       ("layout.starts", np.flatnonzero(is_self)),
                       ("dt_norm", dt_norm), ("dist_norm", dist_norm),
                       ("gcn_w", gcn_w), ("top_pool", top_pool)]:
        assert np.array_equal(attrgetter(name)(gt), want), name


def test_top_pool_is_built_on_first_read_only():
    inst = small_instance(21, n=14, init_count=3, top_k=3)
    gt = inst["gt"]
    assert len(gt.top_src) > 0  # the instance has ranked edges
    md.forward_values(gt, inst["params"], inst["config"])  # stgan: never reads it
    assert "top_pool" not in gt.__dict__
    pool = gt.top_pool
    assert gt.top_pool is pool and pool.shape == (gt.n, gt.x_full.shape[1] + 1)


# ---------------------------------------------------------------------------
# feature extraction


def test_zero_params_give_zero_representations_and_outputs():
    inst = small_instance(0)
    yhat = md.forward_values(inst["gt"], zero_params(inst["params"]), inst["config"])
    assert np.array_equal(yhat, np.zeros_like(yhat))


def test_extractor_matches_per_node_loop():
    inst = small_instance(1)
    gt, params, cfg = inst["gt"], inst["params"], inst["config"]
    tape = ng.Tape()
    pn = md.make_param_nodes(tape, params)
    z = md._mlp(tape, tape.constant(gt.x_full), pn, "ext_full",
                len(cfg.extractor_hidden))
    for i in range(gt.n):
        row = gt.x_full[i:i + 1]
        h0 = oracle_elu(row @ params["ext_full0_w"] + params["ext_full0_b"])
        h1 = oracle_elu(h0 @ params["ext_full1_w"] + params["ext_full1_b"])
        assert np.allclose(z.value[i], h1[0], atol=1e-12)


def test_depth_one_extractor_supported():
    cfg = md.ModelConfig(extractor_hidden=(8,), heads=2, head_hidden=8)
    params = md.init_params(cfg, 18, 3, 0)
    assert "ext_full1_w" not in params
    inst = small_instance(2)
    gt = inst["gt"]
    yhat = md.forward_values(gt, params, cfg)
    assert yhat.shape == (gt.n,)


# ---------------------------------------------------------------------------
# attention coefficients


def test_isolated_node_self_coefficient_is_one():
    inst = small_instance(3, n=4, top_k=0, variant="stgan_no_top")
    gt = inst["gt"]
    # locations are far enough apart in time that some node has no parents
    yhat, probes = forward_with_probes(inst)
    isolated = np.flatnonzero(gt.layout.counts == 0)
    assert len(isolated), "instance should contain an isolated node"
    for probe in probes:
        for i in isolated:
            mask = probe.seg_ids == i
            assert probe.values[mask] == pytest.approx([1.0], abs=1e-15)


def test_equal_representations_give_uniform_coefficients():
    inst = small_instance(4)
    gt, cfg = inst["gt"], inst["config"]
    params = zero_params(inst["params"])  # all reps 0, all t slots weighted by 0
    probes = []
    md.forward_values(gt, params, cfg, probes=probes)
    for probe in probes:
        for i in range(gt.n):
            mask = probe.seg_ids == i
            k = mask.sum()
            assert np.allclose(probe.values[mask], 1.0 / k, atol=1e-15)


def test_attention_normalization_tight():
    inst = small_instance(5, n=10)
    _, probes = forward_with_probes(inst)
    assert md.attention_sum_deviation(probes) < 1e-12


def test_attention_sum_deviation_keeps_the_add_at_bits():
    # what checkpoints store as attention_max_dev must not move: the sums are
    # the ones np.add.at gives, edge by edge in order, to the last bit
    inst = small_instance(31, n=40, init_count=3, variant="gat")
    probes = []
    md.forward_values(inst["gt"], inst["params"], inst["config"], probes=probes)
    rng = np.random.default_rng(5)
    m = 600  # and edges in no target order, with values of every magnitude
    probes.append(md.CoefficientProbe(0, rng.standard_normal(m) * 10.0 ** rng.uniform(-9, 9, m),
                                      rng.integers(0, 50, m), 53))
    for probe in probes:
        sums = np.zeros(probe.n)
        np.add.at(sums, probe.seg_ids, probe.values)
        assert md.attention_sum_deviation([probe]) == float(np.max(np.abs(sums - 1.0)))


# ---------------------------------------------------------------------------
# dense-oracle equivalence (the forward path check for all variants)


@pytest.mark.parametrize("variant", md.VARIANTS)
def test_forward_matches_dense_oracle(variant):
    for seed in (0, 1, 2):
        inst = small_instance(10 + seed, n=7, variant=variant)
        got = md.forward_values(inst["gt"], inst["params"], inst["config"])
        want = dense_forward(inst["graph"], inst["nodes"], inst["params"],
                             inst["config"], l_res_m=inst["graph_cfg"].l_res_m)
        assert np.allclose(got, want, atol=1e-9), variant


# "True": the second layer reuses the first one's attention; kept in the ids
# so the test names stay stable
@pytest.mark.parametrize("variant", ["stgan", "gat", "gcn"], ids=lambda v: f"True-{v}")
def test_two_layer_forward_matches_dense_oracle(variant):
    inst = small_instance(20, n=7, variant=variant, layers=2)
    got = md.forward_values(inst["gt"], inst["params"], inst["config"])
    want = dense_forward(inst["graph"], inst["nodes"], inst["params"],
                         inst["config"], l_res_m=inst["graph_cfg"].l_res_m)
    assert np.allclose(got, want, atol=1e-9)


def test_three_node_chain_matches_dense_oracle():
    inst = small_instance(30, n=3, top_k=1, init_count=1)
    got = md.forward_values(inst["gt"], inst["params"], inst["config"])
    want = dense_forward(inst["graph"], inst["nodes"], inst["params"],
                         inst["config"], l_res_m=inst["graph_cfg"].l_res_m)
    assert np.allclose(got, want, atol=1e-9)


# ---------------------------------------------------------------------------
# aggregation semantics


def test_perturbing_own_full_features_leaves_prediction_fixed():
    inst = small_instance(6, n=8)
    gt = inst["gt"]
    base = md.forward_values(gt, inst["params"], inst["config"])
    for i in range(gt.n):
        poked = md.GraphTensors(**{**gt.__dict__})
        poked.x_full = gt.x_full.copy()
        poked.x_full[i, :-3] += 7.5  # everything except the shared st tail
        new = md.forward_values(poked, inst["params"], inst["config"])
        assert new[i] == base[i]  # bit-identical


def test_single_node_graph_prediction_uses_only_st_features():
    inst = small_instance(7, n=3, init_count=1)
    records = inst["records"][:1]
    stats, schema = inst["stats"], inst["schema"]
    nodes = ds.preprocess_records(records, stats, schema)
    cols = sg.graph_nodes_from_processed(nodes)
    graph = sg.build_graph(cols, 1, inst["graph_cfg"])
    gt = md.prepare_tensors(graph, nodes, l_res_m=inst["graph_cfg"].l_res_m)
    base = md.forward_values(gt, inst["params"], inst["config"])
    gt.x_full = gt.x_full.copy()
    gt.x_full[0, :-3] = 123.0
    assert md.forward_values(gt, inst["params"], inst["config"])[0] == base[0]


def test_node_relabeling_equivariance():
    inst = small_instance(8, n=6, init_count=1)
    gt, cfg, params = inst["gt"], inst["config"], inst["params"]
    base = md.forward_values(gt, params, cfg)

    perm = np.array([3, 0, 5, 1, 4, 2])  # new row of each old row
    inv = np.argsort(perm)
    # segment ops need edges sorted by target; a stable sort keeps each
    # target's self loop first
    order = np.argsort(perm[gt.layout.dst], kind="stable")
    permuted = md.GraphTensors(
        x_full=gt.x_full[inv], x_st=gt.x_st[inv], y=gt.y[inv],
        layout=ng.EdgeLayout(perm[gt.layout.src][order], gt.layout.counts[inv]),
        dt_norm=gt.dt_norm[order], dist_norm=gt.dist_norm[order],
        gcn_w=gt.gcn_w[order], top_src=perm[gt.top_src], top_dst=perm[gt.top_dst],
        targets=perm[gt.targets])
    out = md.forward_values(permuted, params, cfg)  # both in node id order
    assert np.allclose(out, base, rtol=1e-12, atol=1e-12)


def test_heads_with_identical_weights_tile_the_aggregate():
    inst = small_instance(9)
    params = {**inst["params"], "attn_l1_h1_w": inst["params"]["attn_l1_h0_w"]}
    tape = ng.Tape()
    pn = md.make_param_nodes(tape, params)
    md.forward_nodes(tape, inst["gt"], pn, inst["config"])
    # the head reads the heads' aggregates, side by side
    (agg,) = [node.value for node in tape.nodes if node.kind == "csr_aggregate"]
    h = inst["config"].hidden
    assert np.array_equal(agg[:, :h], agg[:, h:])


def test_one_softmax_and_one_segment_sum_per_layer():
    # attention is scored once; each layer aggregates once, all heads together
    inst = small_instance(9)
    cfg = md.ModelConfig(variant="stgan", layers=2, **{**SMALL_DIMS, "heads": 5})
    params = md.init_params(cfg, inst["schema"].dim_full, inst["schema"].dim_st, 9)
    tape = ng.Tape()
    md.forward_nodes(tape, inst["gt"], md.make_param_nodes(tape, params), cfg)
    kinds = [node.kind for node in tape.nodes]
    assert kinds.count("segment_softmax") == 1
    assert kinds.count("csr_aggregate") == 2


# ---------------------------------------------------------------------------
# baselines


def test_gcn_on_edgeless_graph_is_per_node_mlp_of_st_features():
    inst = small_instance(11, n=5, variant="gcn", top_k=0)
    # spread locations and times so no proximity edges exist
    far = inst["records"].copy()
    far.longitude_gcj = 121.0 + 0.2 * np.arange(len(far))
    far.collect_time = 100.0 * np.arange(len(far))
    stats = ds.fit_standardizer(far)
    nodes = ds.preprocess_records(far, stats, inst["schema"])
    cfg_g = sg.GraphConfig(l_res_m=10.0, t_res_days=0.5, top_k=0)
    graph = sg.build_graph(sg.graph_nodes_from_processed(nodes), 1, cfg_g)
    assert graph.edge_count() == 0
    gt = md.prepare_tensors(graph, nodes, l_res_m=cfg_g.l_res_m)
    cfg = md.ModelConfig(variant="gcn", **SMALL_DIMS)
    params = md.init_params(cfg, inst["schema"].dim_full, inst["schema"].dim_st, 3)
    yhat = md.forward_values(gt, params, cfg)

    base = md.forward_values(gt, params, cfg)
    gt.x_full = gt.x_full.copy()
    gt.x_full[:, :-3] = -4.0  # full-feature slots are never read without parents
    assert np.array_equal(md.forward_values(gt, params, cfg), base)
    depth = len(cfg.extractor_hidden)
    for i in range(gt.n):
        z = gt.x_st[i:i + 1]
        for k in range(depth):
            z = oracle_elu(z @ params[f"ext_st{k}_w"] + params[f"ext_st{k}_b"])
        pred = z @ params["head0_w"] + params["head0_b"]
        assert np.allclose(yhat[i], pred[0, 0], atol=1e-12)


def test_gat_single_parent_equal_reps_gives_half_half():
    inst = small_instance(12, n=2, variant="gat", top_k=1, init_count=1)
    params = zero_params(inst["params"])  # zero extractors: all reps equal
    probes = []
    md.forward_values(inst["gt"], params, inst["config"], probes=probes)
    target = 1
    for probe in probes:
        mask = probe.seg_ids == target
        if mask.sum() == 2:
            assert np.allclose(probe.values[mask], 0.5, atol=1e-15)


def test_top_mlp_uses_ranked_parent_pool():
    inst = small_instance(13, n=6, variant="top_mlp")
    gt = inst["gt"]
    got = md.forward_values(gt, inst["params"], inst["config"])
    want = dense_forward(inst["graph"], inst["nodes"], inst["params"], inst["config"],
                         l_res_m=inst["graph_cfg"].l_res_m)
    assert np.allclose(got, want, atol=1e-9)
    # nodes without ranked parents see a zero pool
    with_top = {e["to"] for e in inst["graph"].to_json_dict()["edges"] if e["origin"] == "top"}
    no_top = [i for i in range(gt.n) if i not in with_top]
    for i in no_top:
        assert np.array_equal(gt.top_pool[i], np.zeros_like(gt.top_pool[i]))


# ---------------------------------------------------------------------------
# ablations


def test_eam_gamma_zero_equals_feature_attention():
    inst = small_instance(14, n=7, variant="stgan_eam")
    cfg_eam = md.ModelConfig(variant="stgan_eam", eam_gamma=0.0, **SMALL_DIMS)
    cfg_gat = md.ModelConfig(variant="gat", **SMALL_DIMS)
    out_eam = md.forward_values(inst["gt"], inst["params"], cfg_eam)
    out_gat = md.forward_values(inst["gt"], inst["params"], cfg_gat)
    assert np.array_equal(out_eam, out_gat)


def test_no_td_scores_differ_by_constant_when_dt_constant():
    inst = small_instance(15, n=5)
    gt = inst["gt"]
    gt.dt_norm = np.full_like(gt.dt_norm, 0.37)  # force a constant time slot
    params = inst["params"]

    def raw_scores(cfg, w_key_width):
        tape = ng.Tape()
        pn = md.make_param_nodes(tape, params)
        z_st = md._mlp(tape, tape.constant(gt.x_st), pn, "ext_st",
                       len(cfg.extractor_hidden))
        rep_dst = ng.gather_rows(z_st, gt.layout.dst)
        rep_src = ng.gather_rows(z_st, gt.layout.src)
        parts = [rep_dst, rep_src]
        if w_key_width == cfg.hidden * 2 + 1:
            parts.append(tape.constant(gt.dt_norm.reshape(-1, 1)))
        w = pn["attn_l1_h0_w"] if w_key_width == cfg.hidden * 2 + 1 else \
            tape.leaf(params["attn_l1_h0_w"][:w_key_width])
        return ng.matmul(ng.concat_cols(parts), w).value[:, 0]

    cfg = inst["config"]
    with_td = raw_scores(cfg, cfg.hidden * 2 + 1)
    without = raw_scores(cfg, cfg.hidden * 2)
    diff = with_td - without
    assert np.max(diff) - np.min(diff) < 1e-12


def test_no_top_variant_runs_on_k_zero_graph():
    inst = small_instance(16, n=8, variant="stgan_no_top")
    assert inst["graph_cfg"].top_k == 0
    full = small_instance(16, n=8, variant="stgan")
    assert (np.diff(inst["graph"].offsets) <= np.diff(full["graph"].offsets)).all()
    got = md.forward_values(inst["gt"], inst["params"], inst["config"])
    want = dense_forward(inst["graph"], inst["nodes"], inst["params"],
                         inst["config"], l_res_m=inst["graph_cfg"].l_res_m)
    assert np.allclose(got, want, atol=1e-9)


# ---------------------------------------------------------------------------
# leakage invariance over every variant (bit-exact)


def perturb_record(record, rng):
    """A copy of record, a one-row table, with other features."""
    changed = record.copy()
    changed.detect_info += float(rng.uniform(0.5, 3.0))
    changed.detect_conf = float(rng.uniform(0, 1))
    changed.distress_type = int(rng.choice(
        [t for t in ds.DISTRESS_TYPES if t != record.distress_type[0]]))
    for name in ds.ENV_FEATURES:
        changed[name] += float(rng.uniform(-5, 5))
    return changed


@pytest.mark.parametrize("variant", md.VARIANTS)
def test_leakage_invariance_bit_exact(variant):
    rng = np.random.default_rng(99)
    for seed in (0, 1, 2):
        inst = small_instance(40 + seed, n=7, variant=variant)
        gt, stats, schema = inst["gt"], inst["stats"], inst["schema"]
        base = md.forward_values(gt, inst["params"], inst["config"])
        for i in range(gt.n):
            changed = perturb_record(inst["records"][i:i + 1], rng)
            nodes = inst["nodes"]
            poked_nodes = (nodes[:i] + ds.preprocess_records(changed, stats, schema)
                           + nodes[i + 1:])
            poked = md.prepare_tensors(inst["graph"], poked_nodes,
                                       l_res_m=inst["graph_cfg"].l_res_m)
            out = md.forward_values(poked, inst["params"], inst["config"])
            assert out[i] == base[i], f"{variant}: node {i} leaked its own features"


# ---------------------------------------------------------------------------
# gradients: every variant against finite differences and the dense oracle


@pytest.mark.parametrize("variant", md.VARIANTS)
def test_full_gradient_matches_finite_differences(variant):
    inst = small_instance(60, n=6, variant=variant)
    gt, cfg = inst["gt"], inst["config"]
    gt = replace(gt, targets=np.arange(inst["init_count"], gt.n))

    def loss_and_grads_fn(params):
        loss, grads = md.loss_and_grads(gt, params, cfg)
        return loss, grads

    report = grad_check(loss_and_grads_fn, inst["params"], h=1e-5)
    worst = max(report.values())
    assert worst < 1e-4, f"{variant}: max rel err {worst}"


def test_gradient_loss_value_matches_dense_oracle():
    inst = small_instance(61, n=6)
    loss_ids = np.arange(1, inst["gt"].n)
    gt = replace(inst["gt"], targets=inst["gt"].targets[loss_ids])
    loss, _ = md.loss_and_grads(gt, inst["params"], inst["config"])
    want = dense_mae_loss(inst["graph"], inst["nodes"], inst["params"],
                          inst["config"], loss_ids, l_res_m=inst["graph_cfg"].l_res_m)
    assert loss == pytest.approx(want, abs=1e-12)


def test_two_layer_gradient_matches_finite_differences():
    inst = small_instance(62, n=6, layers=2)
    gt, cfg = inst["gt"], inst["config"]
    gt = replace(gt, targets=np.arange(1, gt.n))

    def fn(params):
        loss, grads = md.loss_and_grads(gt, params, cfg)
        return loss, grads

    assert max(grad_check(fn, inst["params"], h=1e-5).values()) < 1e-4


def test_loss_over_no_rows_is_rejected():
    inst = small_instance(66, n=6)
    with pytest.raises(md.ModelConfigError, match="at least one node id"):
        md.prepare_tensors(inst["graph"], inst["nodes"], targets=np.empty(0, np.intp))


@pytest.mark.parametrize("variant", ["stgan", "gat", "gcn"])
def test_no_tape_node_copies_representations_per_edge(variant):
    # aggregation and scoring read node-level matrices; per edge, the tape holds
    # at most one column per head (scores, coefficients)
    inst = small_instance(64, n=8, variant=variant, layers=2)
    gt, cfg = inst["gt"], inst["config"]
    m = len(gt.layout.src)
    assert m > gt.n
    tape = ng.Tape()
    yhat = md.forward_nodes(tape, gt, md.make_param_nodes(tape, inst["params"]), cfg)
    ng.backward(tape, md.mae_loss_node(tape, yhat, replace(gt, targets=np.arange(1, gt.n))))
    wide = [node for node in tape.nodes
            if node.value.shape[0] == m and node.value.shape[1] > cfg.heads]
    assert not wide


def test_loss_and_grads_leaves_no_tape_to_the_cyclic_gc():
    inst = small_instance(65, n=6)

    def live_tapes():
        return sum(isinstance(obj, ng.Tape) for obj in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = live_tapes()
        md.loss_and_grads(inst["gt"], inst["params"], inst["config"])
        assert live_tapes() == before
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_values():
    with pytest.raises(md.ModelConfigError):
        md.ModelConfig(variant="mystery")
    with pytest.raises(md.ModelConfigError):
        md.ModelConfig(heads=0)


def test_variants_are_the_module_switch_table():
    """ROADMAP's "variants as module switches" table, in matrix row order."""
    # weights, sends_z, time_slot, decay, ranked, head_layers
    assert [(name, astuple(mod)) for name, mod in md.VARIANTS.items()] == [
        ("stgan", ("attention", False, True, False, True, 2)),
        ("stgan_no_top", ("attention", False, True, False, False, 2)),
        ("stgan_eam", ("attention", True, False, True, True, 2)),
        ("stgan_no_td", ("attention", False, False, False, True, 2)),
        ("top_mlp", (None, False, False, False, True, 0)),
        ("gcn", ("gcn", False, False, False, True, 1)),
        ("gcn_mlp", ("gcn", False, False, False, True, 2)),
        ("gat", ("attention", True, False, False, True, 2)),
    ]


EXTRACTOR = ["ext_full0_w 18x6", "ext_full0_b 1x6", "ext_full1_w 6x8", "ext_full1_b 1x8",
             "ext_st0_w 3x6", "ext_st0_b 1x6", "ext_st1_w 6x8", "ext_st1_b 1x8"]
SCORES_TIME = ["attn_l1_h0_w 17x1", "attn_l1_h1_w 17x1"]
SCORES = ["attn_l1_h0_w 16x1", "attn_l1_h1_w 16x1"]
CONV_HEADS = ["conv_l1_w 16x8", "conv_l1_b 1x8"]
CONV_ONE = ["conv_l1_w 8x8", "conv_l1_b 1x8"]
HEAD_HEADS = ["head0_w 16x8", "head0_b 1x8", "head1_w 8x1", "head1_b 1x1"]
# per variant: what comes before the convolution, the convolution a second
# layer adds, and the head
PARAM_LAYOUT = {
    "stgan": (EXTRACTOR + SCORES_TIME, CONV_HEADS, HEAD_HEADS),
    "stgan_no_top": (EXTRACTOR + SCORES_TIME, CONV_HEADS, HEAD_HEADS),
    "stgan_eam": (EXTRACTOR + SCORES, CONV_HEADS, HEAD_HEADS),
    "stgan_no_td": (EXTRACTOR + SCORES, CONV_HEADS, HEAD_HEADS),
    "top_mlp": (["mlp0_w 22x6", "mlp0_b 1x6", "mlp1_w 6x8", "mlp1_b 1x8",
                 "mlp2_w 8x1", "mlp2_b 1x1"], [], []),
    "gcn": (EXTRACTOR, CONV_ONE, ["head0_w 8x1", "head0_b 1x1"]),
    "gcn_mlp": (EXTRACTOR, CONV_ONE, ["head0_w 8x8", "head0_b 1x8", "head1_w 8x1",
                                      "head1_b 1x1"]),
    "gat": (EXTRACTOR + SCORES, CONV_HEADS, HEAD_HEADS),
}


def test_init_params_names_and_shapes_in_creation_order():
    """Checkpoints and the seeded draws depend on this layout."""
    schema = ds.FeatureSchema()
    assert list(PARAM_LAYOUT) == list(md.VARIANTS)
    for variant, (body, conv, head) in PARAM_LAYOUT.items():
        for layers, want in ((1, body + head), (2, body + conv + head)):
            cfg = md.ModelConfig(variant=variant, layers=layers, **SMALL_DIMS)
            params = md.init_params(cfg, schema.dim_full, schema.dim_st, seed=0)
            shapes = md.param_shapes(cfg, schema.dim_full, schema.dim_st)
            for got in ({name: v.shape for name, v in params.items()}, shapes):
                assert [f"{name} {'x'.join(map(str, shape))}"
                        for name, shape in got.items()] == want, (variant, layers)


@pytest.mark.parametrize("variant", md.VARIANTS)
def test_param_count_is_what_init_params_makes_and_every_sweep_value_fits(variant):
    schema = ds.FeatureSchema()
    for heads, layers in ((1, 1), (10, 3)):  # default widths, the sweeps' extremes
        cfg = md.ModelConfig(variant=variant, heads=heads, layers=layers)
        params = md.init_params(cfg, schema.dim_full, schema.dim_st, seed=0)
        shapes = md.param_shapes(cfg, schema.dim_full, schema.dim_st)
        assert [(name, p.shape) for name, p in params.items()] == list(shapes.items())
        count = sum(a * b for a, b in shapes.values())
        assert sum(p.size for p in params.values()) == count <= md.MAX_PARAMS


@pytest.mark.parametrize("field", ["heads", "layers", "head_hidden"])
def test_a_model_over_the_parameter_cap_is_rejected_before_any_allocation(field):
    """heads and layers at their largest take a model of these widths, which
    fits at 1 of each, over the cap."""
    sizes = {"heads": dict(heads=1000, extractor_hidden=(8, 10**5)),
             "layers": dict(heads=10, layers=300, extractor_hidden=(8, 10**3)),
             "head_hidden": dict(head_hidden=10**12)}
    cfg = md.ModelConfig(**sizes[field])
    with pytest.raises(md.ModelConfigError, match=r"parameters, above the cap of 134,217,728$"):
        md.init_params(cfg, 18, 3, seed=0)


@pytest.mark.parametrize("name,top,config", [
    ("heads", 1000, lambda n: md.ModelConfig(heads=n)),
    ("layers", 300, lambda n: md.ModelConfig(layers=n)),
    ("len(extractor_hidden)", 200, lambda n: md.ModelConfig(extractor_hidden=(1,) * n)),
], ids=["heads", "layers", "depth"])
def test_heads_layers_and_depth_are_bounded_where_the_config_is_built(name, top, config):
    """Each adds arrays to the layout; the cap counts entries, so at width 1
    millions of arrays would pass it."""
    for bad in (0, top + 1):
        with pytest.raises(md.ModelConfigError,
                           match=rf"^{re.escape(name)} must be in \[1, {top}\], got {bad}$"):
            config(bad)
    assert len(md.param_shapes(config(top), 18, 3)) < 2_000


def test_config_roundtrips_through_dict():
    cfg = md.ModelConfig(variant="gat", heads=3, layers=2, extractor_hidden=(8, 16),
                         head_hidden=8)
    assert read_config(md.ModelConfig, json.loads(json.dumps(asdict(cfg))), "model") == cfg
