"""Graph forecasting models over the spatiotemporal graph.

The main model extracts two representations per node (one from the full
feature vector, one from the spatial-temporal-only vector), scores each
edge with per-head attention over the spatial-temporal representations plus
the edge's time difference, and aggregates: parents contribute their full
representation, the self loop contributes only the spatial-temporal one,
so a node's own deterioration reading can never reach its own prediction.
Aggregation is one sparse product per layer for all heads
(ndgrad.csr_aggregate over the GraphTensors' edge layout), and scoring is
one ndgrad.edge_scores node, which gathers (n, H) projections per edge, so
no (edges x hidden) matrix is formed on the tape. Attention is scored once
per forward pass, from the first layer's representations, and normalized
by one segment softmax; stacked layers reuse those coefficients.

Every dense layer (extractors, head, top_mlp, stacked convolutions) is one
ndgrad.dense node: x @ W + b and its ELU in one buffer.

VARIANTS gives each baseline and ablation as the Modules it keeps; every
variant keeps the self channel spatial-temporal-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import ndgrad as ng
from .stgraph import TOP, STGraph


@dataclass(frozen=True)
class Modules:
    """The modules a variant keeps; the model branches on these, never on names.
    top_mlp (weights None) has no aggregation: an MLP on x_st and the ranked
    parents' pooled features."""

    weights: str | None  # edge weights: "attention", the fixed "gcn" gcn_w, or None (top_mlp)
    sends_z: bool  # attention's source slot reads what an edge sends (z; z_st on a self loop)
    time_slot: bool  # attention reads the edge's time difference
    decay: bool  # attention scores scaled by exp(-eam_gamma * distance) * exp(-eam_gamma * dt)
    ranked: bool  # the graph keeps its ranked parent edges, else it has top_k = 0
    head_layers: int  # the prediction head's depth; 0: no head


VARIANTS = {  # in matrix row order; weights, sends_z, time_slot, decay, ranked, head_layers
    "stgan": Modules("attention", False, True, False, True, 2),
    "stgan_no_top": Modules("attention", False, True, False, False, 2),
    "stgan_eam": Modules("attention", True, False, True, True, 2),
    "stgan_no_td": Modules("attention", False, False, False, True, 2),
    "top_mlp": Modules(None, False, False, False, True, 0),
    "gcn": Modules("gcn", False, False, False, True, 1),
    "gcn_mlp": Modules("gcn", False, False, False, True, 2),
    "gat": Modules("attention", True, False, False, True, 2),
}


class ModelConfigError(ValueError):
    """Inconsistent model configuration."""


@dataclass(frozen=True)
class ModelConfig:
    """Variant, widths and depth. Stacked layers (layers > 1) reuse the first
    layer's attention coefficients and add only a convolution each. hidden,
    the extractor's last width, and leaky_slope are not fields.

    heads lies in [1, 1000], layers in [1, 300] and len(extractor_hidden) in
    [1, 200], 100 times what any run uses: each adds arrays to param_shapes,
    which MAX_PARAMS, counting entries, would let grow to millions at width 1.
    """

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
        for name, size, top in (("heads", self.heads, 1000), ("layers", self.layers, 300),
                                ("len(extractor_hidden)", len(self.extractor_hidden), 200)):
            if not 1 <= size <= top:
                raise ModelConfigError(f"{name} must be in [1, {top}], got {size}")
        if min(*self.extractor_hidden, self.head_hidden) < 1:
            raise ModelConfigError("every width must be >= 1")
        if not 0 <= self.eam_gamma < np.inf:  # a negative decay would grow with distance
            raise ModelConfigError(f"eam_gamma must be finite and >= 0, got {self.eam_gamma}")

    @property
    def hidden(self) -> int:
        return self.extractor_hidden[-1]

    @property
    def modules(self) -> Modules:
        return VARIANTS[self.variant]


@dataclass
class CoefficientProbe:
    """One head's normalized coefficients, for diagnostics."""

    head: int
    values: np.ndarray   # (m,)
    seg_ids: np.ndarray  # (m,) target node per edge
    n: int


@dataclass
class GraphTensors:
    """Edge-list arrays for the ancestor cone of a pass's targets in one graph
    + node table (see prepare_tensors), ready for the forward pass.

    Rows come by kept parent count, then by node id, so each count's rows
    are one run of the layout. Edges are ordered per row: the self loop
    first, then parents in their stored order. layout holds that order, each
    edge's source and target row, validated once where it is built and
    reused by every scoring, softmax and aggregation. dist_norm is meters over the proximity
    threshold, so decay-based scoring sees a dimensionless quantity.
    top_src and top_dst are the source and target rows of the ranked parent
    edges, in edge order; top_pool is built from them on first read, since
    only top_mlp reads it. targets are the rows the pass predicts (and the
    loss scores), in request order.
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
    targets: np.ndarray   # (t,) row of each requested target, in request order

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
        if not len(frontier):  # no ancestors further out
            break
        reached = graph.parent[graph.edge_positions(frontier)]
        hop[reached] = np.minimum(hop[reached], h)
    cone = np.flatnonzero(hop <= hops)
    return cone, hop[cone] < hops


def prepare_tensors(graph: STGraph, nodes, l_res_m: float = 200.0,
                    targets=None, hops: int = 1) -> GraphTensors:
    """Flatten the ancestor cone of targets (node ids, by default every node)
    in a graph plus its dataset.NodeTable into forward-ready arrays.

    Edges point from older to newer nodes, so a hops-layer model's
    predictions for the targets read nothing outside the cone. Nodes within
    hops - 1 of a target keep all their parent edges, the ones exactly hops
    out only their self loop (their own outputs are then wrong and never
    read). Rows are the cone's ids ordered by kept parent count, then by id
    (one lexsort), so the rows of each count, and their edges, form one
    contiguous block that ndgrad.csr_aggregate computes in place; the rows
    without kept parents come first. The tensors' targets field holds each
    target's row, in request order. Degrees, and so gcn_w, are the
    whole graph's. Nothing is cached across calls: a query answered from its
    ancestor cone needs no state that a later append or overwrite could make
    stale. An empty target set raises ModelConfigError.
    """
    n = graph.n
    if len(nodes) != n:
        raise ModelConfigError(f"{len(nodes)} nodes for a graph of {n}")
    targets = np.arange(n) if targets is None else targets
    if len(targets) == 0:
        raise ModelConfigError("targets need at least one node id")
    ids, expanded = _ancestor_cone(graph, targets, hops)
    counts = np.where(expanded, graph.parent_counts(ids), 0)
    order = np.lexsort((ids, counts))  # by kept parent count, then by id
    ids, expanded, counts = ids[order], expanded[order], counts[order]
    k = len(ids)
    x_full, x_st, t_norm, y = nodes.x_full[ids], nodes.x_st[ids], nodes.t_norm[ids], nodes.y[ids]

    # the kept parent edges, renumbered to rows; row r's self loop sits at
    # offsets[r] + r, its parents right after it
    pos = graph.edge_positions(ids[expanded])
    local = np.empty(n, dtype=np.intp)
    local[ids] = np.arange(k)
    parent = local[graph.parent[pos]]
    n_parents = graph.parent_counts(ids)
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
        top_src=parent[top], top_dst=child[top], targets=local[targets])


# ---------------------------------------------------------------------------
# Parameters


MAX_PARAMS = 1 << 27  # 1 GiB of float64


def _mlp_shapes(prefix, widths) -> dict[str, tuple[int, int]]:
    """The layers of an _mlp from widths[0] to widths[-1], named prefix0, prefix1, ..."""
    shapes = {}
    for k, (a, b) in enumerate(zip(widths, widths[1:])):
        shapes[f"{prefix}{k}_w"], shapes[f"{prefix}{k}_b"] = (a, b), (1, b)
    return shapes


def param_shapes(config: ModelConfig, dim_full: int, dim_st: int) -> dict[str, tuple[int, int]]:
    """Each parameter's name and shape, in creation order: the one statement of
    a model's layout, which init_params draws, load_checkpoint checks and
    RunConfig checks as it is built. A model of more than MAX_PARAMS entries
    raises ModelConfigError. ModelConfig bounds heads, layers and depth, so
    the list stays short however wide the layers are."""
    h, mod = config.hidden, config.modules
    if mod.weights is None:
        shapes = _mlp_shapes("mlp", [dim_st + dim_full + 1, *config.extractor_hidden, 1])
    else:
        shapes = {**_mlp_shapes("ext_full", [dim_full, *config.extractor_hidden]),
                  **_mlp_shapes("ext_st", [dim_st, *config.extractor_hidden])}
        attention = mod.weights == "attention"
        if attention:  # per head: [self slot || source slot (|| time slot)]
            for k in range(config.heads):
                shapes[f"attn_l1_h{k}_w"] = (2 * h + mod.time_slot, 1)
        conv_in = h * (config.heads if attention else 1)
        for layer in range(1, config.layers):
            shapes[f"conv_l{layer}_w"], shapes[f"conv_l{layer}_b"] = (conv_in, h), (1, h)
        head = [conv_in, *[config.head_hidden] * (mod.head_layers - 1), 1]
        shapes.update(_mlp_shapes("head", head))
    count = sum(a * b for a, b in shapes.values())
    if count > MAX_PARAMS:
        raise ModelConfigError(f"the model would hold {count:,} parameters, "
                               f"above the cap of {MAX_PARAMS:,}")
    return shapes


def init_params(config: ModelConfig, dim_full: int, dim_st: int,
                seed: int) -> dict[str, np.ndarray]:
    """The param_shapes arrays in their order (seeded): Glorot-uniform weights
    (_w), zero biases (_b). A model of more than MAX_PARAMS entries raises
    ModelConfigError before any is made."""
    shapes = param_shapes(config, dim_full, dim_st)
    rng = np.random.default_rng(seed)
    return {name: ng.glorot_uniform(rng, *shape) if name.endswith("_w") else np.zeros(shape)
            for name, shape in shapes.items()}


# ---------------------------------------------------------------------------
# Forward pass


def _mlp(tape, x, pnodes, prefix, n_layers, slope_final=True):
    """One ng.dense node per layer: x @ W + b, ELU after every layer (or all but the last)."""
    out = x
    for k in range(n_layers):
        out = ng.dense(out, pnodes[f"{prefix}{k}_w"], pnodes[f"{prefix}{k}_b"],
                       act=slope_final or k < n_layers - 1)
    return out


def _attention_coefficients(gt, pnodes, config, z, z_st, probes):
    """Normalized coefficients for the edge set, one column per head: one
    ng.edge_scores node reads the heads' [self-slot || source-slot
    (|| time-slot)] weights as they are, and one segment softmax normalizes
    each target's scores. The self slot reads z_st; the Modules switches
    select the rest: z for the source slot, the time slot and the decay.
    """
    mod, layout = config.modules, gt.layout
    decay = None
    if mod.decay:
        g = config.eam_gamma
        decay = np.exp(-g * gt.dist_norm) * np.exp(-g * gt.dt_norm)
    s = ng.edge_scores(z_st, [pnodes[f"attn_l1_h{k}_w"] for k in range(config.heads)], layout,
                       z=z if mod.sends_z else None,
                       dt=gt.dt_norm if mod.time_slot else None,
                       decay=decay, alpha=config.leaky_slope)
    coefs = ng.segment_softmax(s, layout)
    if probes is not None:
        probes.extend(CoefficientProbe(k, coefs.value[:, k].copy(), layout.dst, gt.n)
                      for k in range(config.heads))
    return coefs


def forward_nodes(tape: ng.Tape, gt: GraphTensors, pnodes: dict[str, ng.Node],
                  config: ModelConfig, probes: list | None = None) -> ng.Node:
    """Predictions for every node as an (n, 1) tape node."""
    mod = config.modules
    if mod.weights is None:
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
    coefs = (_attention_coefficients(gt, pnodes, config, z, z_st, probes)
             if mod.weights == "attention" else tape.constant(gt.gcn_w.reshape(-1, 1)))
    # parent edges carry the full representation, the self loop only the
    # spatial-temporal one: this is the leakage barrier
    agg = ng.csr_aggregate(z, z_st, coefs, gt.layout)
    for layer in range(1, config.layers):
        rep = ng.dense(agg, pnodes[f"conv_l{layer}_w"], pnodes[f"conv_l{layer}_b"])
        agg = ng.csr_aggregate(rep, rep, coefs, gt.layout)

    return _mlp(tape, agg, pnodes, "head", mod.head_layers, slope_final=False)


def make_param_nodes(tape: ng.Tape, params: dict[str, np.ndarray]) -> dict[str, ng.Node]:
    return {name: tape.leaf(value, kind=f"param:{name}") for name, value in params.items()}


def forward_values(gt: GraphTensors, params: dict[str, np.ndarray],
                   config: ModelConfig, probes: list | None = None) -> np.ndarray:
    """Plain predictions for gt.targets, in their order, no gradients."""
    tape = ng.Tape()
    pnodes = make_param_nodes(tape, params)
    out = forward_nodes(tape, gt, pnodes, config, probes=probes)
    # nodes point back at the tape, so without this the arrays wait for the
    # cyclic GC; a prediction loop allocates too few objects to trigger it soon
    tape.nodes.clear()
    return out.value[gt.targets, 0]


def mae_loss_node(tape: ng.Tape, yhat: ng.Node, gt: GraphTensors) -> ng.Node:
    """Mean absolute error of yhat over gt.targets."""
    sel = ng.gather_rows(yhat, gt.targets)
    resid = ng.sub(sel, tape.constant(gt.y[gt.targets].reshape(-1, 1)))
    return ng.scale(ng.sum_all(ng.absolute(resid)), 1.0 / len(gt.targets))


def loss_and_grads(gt: GraphTensors, params: dict[str, np.ndarray], config: ModelConfig,
                   probes: list | None = None, workspace: ng.Workspace | None = None):
    """One forward/backward sweep of the loss over gt.targets: (loss value,
    gradient dict).

    With a workspace, the sweep's large arrays come from it, and the
    gradients stay valid until the next sweep on that workspace starts."""
    tape = ng.Tape(workspace)
    pnodes = make_param_nodes(tape, params)
    yhat = forward_nodes(tape, gt, pnodes, config, probes=probes)
    loss = mae_loss_node(tape, yhat, gt)
    value = float(loss.value[0, 0])  # read before the backward sweep returns it to the workspace
    ng.backward(tape, loss)
    grads = {name: (node.grad if node.grad is not None else np.zeros_like(node.value))
             for name, node in pnodes.items()}
    tape.nodes.clear()  # as in forward_values: free the arrays now, not at a GC pass
    return value, grads


def first_nonfinite_primitive(gt: GraphTensors, params: dict[str, np.ndarray],
                              config: ModelConfig) -> str | None:
    """Kind of the first primitive in the forward pass and loss whose value is
    non-finite, found by rerunning both on a fresh tape."""
    tape = ng.Tape()
    yhat = forward_nodes(tape, gt, make_param_nodes(tape, params), config)
    mae_loss_node(tape, yhat, gt)
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
