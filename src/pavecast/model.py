"""Graph forecasting models over the spatiotemporal graph.

The main model extracts two representations per node (one from the full
feature vector, one from the spatial-temporal-only vector), scores each
edge with per-head attention over the spatial-temporal representations plus
the edge's time difference, and aggregates: parents contribute their full
representation, the self loop contributes only the spatial-temporal one,
so a node's own deterioration reading can never reach its own prediction.
Aggregation is one sparse product per layer for all heads
(ndgrad.csr_aggregate over the GraphTensors' edge layout), and scoring
gathers (n, H) projections per edge, so no (edges x hidden) matrix is
formed on the tape. Attention is scored once per forward pass, from the
first layer's representations; stacked layers reuse those coefficients.

Baselines (pooled-neighbor MLP, fixed-weight graph convolution with and
without an MLP head, and feature-based attention without the time-difference
input) and ablations (no ranked edges, explicit exponential-decay attention,
no time-difference slot) share the same machinery; every variant keeps the
self channel spatial-temporal-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ndgrad as ng
from .stgraph import TOP, STGraph

VARIANTS = ("stgan", "stgan_no_top", "stgan_eam", "stgan_no_td",
            "top_mlp", "gcn", "gcn_mlp", "gat")
ATTENTION_VARIANTS = ("stgan", "stgan_no_top", "stgan_eam", "stgan_no_td", "gat")


class ModelConfigError(ValueError):
    """Inconsistent model configuration."""


@dataclass(frozen=True)
class ModelConfig:
    """Variant, widths and depth. Stacked layers (layers > 1) reuse the first
    layer's attention coefficients and add only a convolution each. hidden,
    the extractor's last width, and leaky_slope are not fields."""

    variant: str = "stgan"
    heads: int = 5
    layers: int = 1
    extractor_hidden: tuple[int, ...] = (128, 256)
    head_hidden: int = 256
    eam_gamma: float = 1.0

    leaky_slope = 0.2

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ModelConfigError(f"unknown variant {self.variant!r}")
        if self.heads < 1 or self.layers < 1:
            raise ModelConfigError("heads and layers must be >= 1")
        if not self.extractor_hidden or min(*self.extractor_hidden, self.head_hidden) < 1:
            raise ModelConfigError("extractor_hidden needs at least one width, "
                                   "and every width must be >= 1")
        if not 0 <= self.eam_gamma < np.inf:  # a negative decay would grow with distance
            raise ModelConfigError(f"eam_gamma must be finite and >= 0, got {self.eam_gamma}")

    @property
    def hidden(self) -> int:
        return self.extractor_hidden[-1]

    @property
    def score_slot_width(self) -> int:
        # [self-rep || source-rep] plus the time-difference slot where used
        if self.variant in ("stgan", "stgan_no_top"):
            return 2 * self.hidden + 1
        return 2 * self.hidden


@dataclass
class CoefficientProbe:
    """One head's normalized coefficients, for diagnostics."""

    head: int
    values: np.ndarray   # (m,)
    seg_ids: np.ndarray  # (m,) target node per edge
    n: int


@dataclass
class GraphTensors:
    """Edge-list arrays for one graph + node table (or for an ancestor cone of
    it, see prepare_tensors), ready for the forward pass.

    Edges are ordered per target node: the self loop first, then parents in
    their stored order. layout holds that order, each edge's source and
    target row, validated once where it is built and reused by every
    scoring, softmax and aggregation. dist_norm is meters over the proximity
    threshold, so decay-based scoring sees a dimensionless quantity.
    top_src and top_dst are the source and target rows of the ranked parent
    edges, in edge order; top_pool is built from them on first read, since
    only top_mlp reads it.
    """

    x_full: np.ndarray    # (n, d)
    x_st: np.ndarray      # (n, d')
    y: np.ndarray         # (n,)
    layout: ng.EdgeLayout  # m edges
    dt_norm: np.ndarray   # (m,)
    dist_norm: np.ndarray  # (m,)
    gcn_w: np.ndarray     # (m,) fixed symmetric-normalized weights
    top_src: np.ndarray   # (r,) source row of each ranked parent edge
    top_dst: np.ndarray   # (r,) its target row
    targets: np.ndarray | None = None  # row of each requested target, in request order

    @property
    def n(self) -> int:
        return len(self.y)

    @cached_property
    def top_pool(self) -> np.ndarray:
        """(n, d+1) mean of [x_full || y] over each row's ranked parents,
        summed in edge order; zero for a row without any. Computed from
        x_full and y as they are at first read, then kept."""
        k = self.n
        pool = np.empty((k, self.x_full.shape[1] + 1))
        for j, col in enumerate(np.vstack([self.x_full.T, self.y])[:, self.top_src]):
            pool[:, j] = np.bincount(self.top_dst, weights=col, minlength=k)
        n_top = np.bincount(self.top_dst, minlength=k)
        pool[n_top > 0] /= n_top[n_top > 0, None]
        return pool


def _ancestor_cone(graph: STGraph, targets, hops: int) -> tuple[np.ndarray, np.ndarray]:
    """The ids within `hops` parent hops of targets, ascending, and a mask of
    those within hops - 1: an L-layer forward pass reads the parent edges of
    those and only the features of the rest."""
    hop = np.full(graph.n, hops + 1)  # fewest parent hops to a target
    hop[targets] = 0
    for h in range(1, hops + 1):
        frontier = np.flatnonzero(hop == h - 1)
        reached = graph.parent[graph.edge_positions(frontier)]
        hop[reached] = np.minimum(hop[reached], h)
    cone = np.flatnonzero(hop <= hops)
    return cone, hop[cone] < hops


def prepare_tensors(graph: STGraph, nodes, l_res_m: float = 200.0,
                    targets=None, hops: int = 1) -> GraphTensors:
    """Flatten a graph plus its dataset.NodeTable into forward-ready arrays.

    With targets (node ids), only the targets' ancestor cone is flattened
    (trainer.train_on_graph's loss rows, trainer.predict_one's queries):
    edges point from older to newer nodes, so a hops-layer model's
    predictions for the targets read nothing else. Nodes within hops - 1 of
    a target keep all their parent edges, the ones exactly hops out only
    their self loop (their own outputs are then wrong and never read).
    Rows are the cone's ids in increasing order, and the tensors' targets
    field holds each target's row. Degrees, and so gcn_w, are the whole
    graph's. Nothing is cached across calls: a query answered from its
    ancestor cone needs no state that a later append or overwrite could make
    stale.
    """
    n = graph.n
    if len(nodes) != n:
        raise ModelConfigError(f"{len(nodes)} nodes for a graph of {n}")
    if targets is None:
        ids, expanded = np.arange(n), np.ones(n, dtype=bool)
    else:
        ids, expanded = _ancestor_cone(graph, targets, hops)
    k = len(ids)
    x_full = nodes.x_full[ids]
    x_st = np.ascontiguousarray(x_full[:, -3:])  # NodeTable's x_st and t_norm
    t_norm = x_full[:, -1]
    y = nodes.y[ids]

    # the kept parent edges, renumbered to rows; row r's self loop sits at
    # offsets[r] + r, its parents right after it
    pos = graph.edge_positions(ids[expanded])
    local = np.empty(n, dtype=np.intp)
    local[ids] = np.arange(k)
    parent = local[graph.parent[pos]]
    n_parents = graph.parent_counts(ids)
    counts = np.where(expanded, n_parents, 0)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    child = np.repeat(np.arange(k), counts)
    degree = n_parents + 1.0  # all parents + self
    self_pos = offsets[:k] + np.arange(k)
    edge_pos = np.arange(len(parent)) + child + 1
    m = k + len(parent)
    src = np.empty(m, dtype=np.intp)
    src[self_pos], src[edge_pos] = np.arange(k), parent
    dt_norm = np.zeros(m)
    dt_norm[edge_pos] = np.abs(t_norm[child] - t_norm[parent])
    dist_norm = np.zeros(m)
    dist_norm[edge_pos] = graph.dist_m[pos] / l_res_m
    gcn_w = np.empty(m)
    gcn_w[self_pos] = 1.0 / degree
    gcn_w[edge_pos] = 1.0 / np.sqrt(degree[parent] * degree[child])

    top = graph.origin[pos] == TOP
    return GraphTensors(
        x_full=x_full, x_st=x_st, y=y, layout=ng.EdgeLayout(src, counts),
        dt_norm=dt_norm, dist_norm=dist_norm, gcn_w=gcn_w,
        top_src=parent[top], top_dst=child[top],
        targets=None if targets is None else local[targets])


# ---------------------------------------------------------------------------
# Parameters


def _glorot_entry(params, rng, name, fan_in, fan_out, bias=True):
    params[name + "_w"] = ng.glorot_uniform(rng, fan_in, fan_out)
    if bias:
        params[name + "_b"] = np.zeros((1, fan_out))


def init_params(config: ModelConfig, dim_full: int, dim_st: int,
                seed: int) -> dict[str, np.ndarray]:
    """Named parameter arrays in a fixed creation order (seeded)."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    h = config.hidden

    if config.variant == "top_mlp":
        widths = [dim_st + dim_full + 1, *config.extractor_hidden, 1]
        for k in range(len(widths) - 1):
            _glorot_entry(params, rng, f"mlp{k}", widths[k], widths[k + 1])
        return params

    for prefix, d_in in (("ext_full", dim_full), ("ext_st", dim_st)):
        widths = [d_in, *config.extractor_hidden]
        for k in range(len(widths) - 1):
            _glorot_entry(params, rng, f"{prefix}{k}", widths[k], widths[k + 1])

    if config.variant in ATTENTION_VARIANTS:
        for k in range(config.heads):
            _glorot_entry(params, rng, f"attn_l1_h{k}",
                          config.score_slot_width, 1, bias=False)

    conv_in = h * (config.heads if config.variant in ATTENTION_VARIANTS else 1)
    for layer in range(1, config.layers):
        _glorot_entry(params, rng, f"conv_l{layer}", conv_in, h)

    if config.variant == "gcn":
        _glorot_entry(params, rng, "head0", h, 1)
    elif config.variant == "gcn_mlp":
        _glorot_entry(params, rng, "head0", h, config.head_hidden)
        _glorot_entry(params, rng, "head1", config.head_hidden, 1)
    else:
        _glorot_entry(params, rng, "head0", conv_in, config.head_hidden)
        _glorot_entry(params, rng, "head1", config.head_hidden, 1)
    return params


# ---------------------------------------------------------------------------
# Forward pass


def _mlp(tape, x, pnodes, prefix, n_layers, slope_final=True):
    """Stacked x @ W + b with ELU after every layer (or all but the last)."""
    out = x
    for k in range(n_layers):
        out = ng.add_rowvec(ng.matmul(out, pnodes[f"{prefix}{k}_w"]),
                            pnodes[f"{prefix}{k}_b"])
        if slope_final or k < n_layers - 1:
            out = ng.elu(out)
    return out


def _attention_coefficients(tape, gt, pnodes, config, z, z_st, probes):
    """Normalized coefficients for the edge set, one column per head.

    The heads' weights, each spanning [self-slot || source-slot (|| time-slot)],
    are the columns of one matrix; scoring projects each slot's node-level
    representations to (n, H) and gathers the projections per edge, which
    equals the concatenated dot product without materializing per-edge
    concatenations. The self slot reads z_st. So does the source slot, unless
    the variant scores what an edge sends: z from a parent, z_st on the self
    loop.
    """
    h = z_st.value.shape[1]
    w = ng.concat_cols([pnodes[f"attn_l1_h{k}_w"] for k in range(config.heads)])
    w_src = ng.slice_rows(w, h, 2 * h)
    layout = gt.layout
    s = ng.gather_rows(ng.matmul(z_st, ng.slice_rows(w, 0, h)), layout.dst)
    if config.variant in ("gat", "stgan_eam"):
        sent = ng.concat_rows([ng.matmul(z, w_src), ng.matmul(z_st, w_src)])
        slot = layout.src.copy()
        slot[layout.starts] += gt.n  # a self loop sends its z_st row
        s = ng.add(s, ng.gather_rows(sent, slot))
    else:
        s = ng.add(s, ng.gather_rows(ng.matmul(z_st, w_src), layout.src))
    if config.variant in ("stgan", "stgan_no_top"):
        t_col = tape.constant(gt.dt_norm.reshape(-1, 1))
        s = ng.add(s, ng.matmul(t_col, ng.slice_rows(w, 2 * h, 2 * h + 1)))
    s = ng.leaky_relu(s, alpha=config.leaky_slope)
    if config.variant == "stgan_eam":
        g = config.eam_gamma
        decay = np.exp(-g * gt.dist_norm) * np.exp(-g * gt.dt_norm)
        s = ng.mul_array(s, np.repeat(decay[:, None], config.heads, axis=1))
    coefs = ng.segment_softmax(s, layout)
    if probes is not None:
        probes.extend(CoefficientProbe(k, coefs.value[:, k].copy(), layout.dst, gt.n)
                      for k in range(config.heads))
    return coefs


def forward_nodes(tape: ng.Tape, gt: GraphTensors, pnodes: dict[str, ng.Node],
                  config: ModelConfig, probes: list | None = None) -> ng.Node:
    """Predictions for every node as an (n, 1) tape node."""
    if config.variant == "top_mlp":
        feats = tape.constant(np.concatenate([gt.x_st, gt.top_pool], axis=1))
        return _mlp(tape, feats, pnodes, "mlp",
                    len(config.extractor_hidden) + 1, slope_final=False)

    x = tape.constant(gt.x_full)
    x_st = tape.constant(gt.x_st)
    depth = len(config.extractor_hidden)
    z = _mlp(tape, x, pnodes, "ext_full", depth)
    z_st = _mlp(tape, x_st, pnodes, "ext_st", depth)
    # (m, H) edge weights, shared by every layer: the heads' coefficients, or
    # the one fixed GCN column
    if config.variant in ATTENTION_VARIANTS:
        coefs = _attention_coefficients(tape, gt, pnodes, config, z, z_st, probes)
    else:
        coefs = tape.constant(gt.gcn_w.reshape(-1, 1))
    # parent edges carry the full representation, the self loop only the
    # spatial-temporal one: this is the leakage barrier
    agg = ng.csr_aggregate(z, z_st, coefs, gt.layout)
    for layer in range(1, config.layers):
        rep = ng.elu(ng.add_rowvec(ng.matmul(agg, pnodes[f"conv_l{layer}_w"]),
                                   pnodes[f"conv_l{layer}_b"]))
        agg = ng.csr_aggregate(rep, rep, coefs, gt.layout)

    if config.variant == "gcn":
        return ng.add_rowvec(ng.matmul(agg, pnodes["head0_w"]), pnodes["head0_b"])
    hidden = ng.elu(ng.add_rowvec(ng.matmul(agg, pnodes["head0_w"]),
                                  pnodes["head0_b"]))
    return ng.add_rowvec(ng.matmul(hidden, pnodes["head1_w"]), pnodes["head1_b"])


def make_param_nodes(tape: ng.Tape, params: dict[str, np.ndarray]) -> dict[str, ng.Node]:
    return {name: tape.leaf(value, kind=f"param:{name}") for name, value in params.items()}


def forward_values(gt: GraphTensors, params: dict[str, np.ndarray],
                   config: ModelConfig, probes: list | None = None) -> np.ndarray:
    """Plain predictions array (n,), no gradients."""
    tape = ng.Tape()
    pnodes = make_param_nodes(tape, params)
    out = forward_nodes(tape, gt, pnodes, config, probes=probes)
    # nodes point back at the tape, so without this the arrays wait for the
    # cyclic GC; a prediction loop allocates too few objects to trigger it soon
    tape.nodes.clear()
    return out.value[:, 0].copy()


def mae_loss_node(tape: ng.Tape, yhat: ng.Node, y: np.ndarray,
                  loss_ids: np.ndarray) -> ng.Node:
    """Mean absolute error of yhat over the given node ids."""
    if len(loss_ids) == 0:
        raise ModelConfigError("loss needs at least one node id")
    sel = ng.gather_rows(yhat, loss_ids)
    resid = ng.sub(sel, tape.constant(y[loss_ids].reshape(-1, 1)))
    return ng.scale(ng.sum_all(ng.absolute(resid)), 1.0 / len(loss_ids))


def loss_and_grads(gt: GraphTensors, params: dict[str, np.ndarray],
                   config: ModelConfig, loss_ids: np.ndarray,
                   probes: list | None = None, workspace: ng.Workspace | None = None):
    """One forward/backward sweep: (loss value, gradient dict).

    With a workspace, the sweep's large arrays come from it, and the
    gradients stay valid until the next sweep on that workspace starts."""
    tape = ng.Tape(workspace)
    pnodes = make_param_nodes(tape, params)
    yhat = forward_nodes(tape, gt, pnodes, config, probes=probes)
    loss = mae_loss_node(tape, yhat, gt.y, loss_ids)
    value = float(loss.value[0, 0])  # read before the backward sweep returns it to the workspace
    ng.backward(tape, loss)
    grads = {name: (node.grad if node.grad is not None else np.zeros_like(node.value))
             for name, node in pnodes.items()}
    tape.nodes.clear()  # as in forward_values: free the arrays now, not at a GC pass
    return value, grads


def first_nonfinite_primitive(gt: GraphTensors, params: dict[str, np.ndarray],
                              config: ModelConfig, loss_ids: np.ndarray) -> str | None:
    """Kind of the first primitive in the forward pass and loss whose value is
    non-finite, found by rerunning both on a fresh tape."""
    tape = ng.Tape()
    yhat = forward_nodes(tape, gt, make_param_nodes(tape, params), config)
    mae_loss_node(tape, yhat, gt.y, loss_ids)
    return ng.first_nonfinite_kind(tape)


def attention_sum_deviation(probes: list["CoefficientProbe"]) -> float:
    """Max |sum of coefficients - 1| over every (target, head).

    bincount adds each target's coefficients in edge order from 0.0, as
    np.add.at would, so the sums keep their bits.
    """
    worst = 0.0
    for probe in probes:
        sums = np.bincount(probe.seg_ids, weights=probe.values, minlength=probe.n)
        worst = max(worst, float(np.max(np.abs(sums - 1.0))))
    return worst
