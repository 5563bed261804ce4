"""Independent reference implementations used only to check the package.

Everything here recomputes results through a different path than the
package: dense n x n masked matrices and per-node Python loops instead of
edge lists and segment ops, plain floats instead of the tape. Nothing in
this module imports the package's forward code.
"""

import numpy as np


def oracle_elu(x):
    return np.where(x > 0, x, np.exp(np.minimum(x, 0.0)) - 1.0)


def oracle_mlp(x, params, prefix, depth, act_final=True):
    out = x
    for k in range(depth):
        out = out @ params[f"{prefix}{k}_w"] + params[f"{prefix}{k}_b"]
        if act_final or k < depth - 1:
            out = oracle_elu(out)
    return out


def broadcast_latent_field(coords, length_scale_deg, rng, jitter=1e-9):
    """dataset.sample_latent_field through the (L, L, 2) broadcast difference."""
    diff = coords[:, None, :] - coords[None, :, :]
    sq = (diff ** 2).sum(axis=2)
    cov = np.exp(-sq / (2.0 * length_scale_deg ** 2))
    cov[np.diag_indices_from(cov)] += jitter
    return np.linalg.cholesky(cov) @ rng.standard_normal(len(coords))


def dense_structures(graph, nodes, l_res_m=200.0):
    """Adjacency, time-difference, distance and ranked-edge masks as n x n arrays."""
    n = graph.n
    adj = np.zeros((n, n), dtype=bool)      # adj[b, i]: b is a parent of i
    top = np.zeros((n, n), dtype=bool)
    t_norm = np.array([p.t_norm for p in nodes])
    dt = np.abs(t_norm[None, :] - t_norm[:, None])
    dist = np.zeros((n, n))
    for e in graph.to_json_dict()["edges"]:
        adj[e["from"], e["to"]] = True
        dist[e["from"], e["to"]] = e["dist_m"] / l_res_m
        if e["origin"] == "top":
            top[e["from"], e["to"]] = True
    return adj, dt, dist, top


def dense_forward(graph, nodes, params, config, l_res_m=200.0):
    """Dense masked-matrix forward for any variant; returns (n,) predictions."""
    n = graph.n
    x_full = np.stack([p.x_full for p in nodes])
    x_st = np.stack([p.x_st for p in nodes])
    y = np.array([p.y for p in nodes])
    adj, dt, dist, top = dense_structures(graph, nodes, l_res_m)
    depth = len(config.extractor_hidden)

    if config.variant == "top_mlp":
        d_plus = x_full.shape[1] + 1
        rows = []
        for i in range(n):
            parents = np.flatnonzero(top[:, i])
            if len(parents):
                pooled = np.mean([np.concatenate([x_full[b], [y[b]]])
                                  for b in parents], axis=0)
            else:
                pooled = np.zeros(d_plus)
            rows.append(np.concatenate([x_st[i], pooled]))
        feats = np.stack(rows)
        return oracle_mlp(feats, params, "mlp", depth + 1, act_final=False)[:, 0]

    z = oracle_mlp(x_full, params, "ext_full", depth)
    z_st = oracle_mlp(x_st, params, "ext_st", depth)

    def attention_matrix(rep_self, rep_source):
        """Per-head list of n x n coefficient matrices (NaN off-neighborhood)."""
        mats = []
        for k in range(config.heads):
            w_e = params[f"attn_l1_h{k}_w"]
            scores = np.full((n, n), np.nan)
            for i in range(n):
                members = list(np.flatnonzero(adj[:, i])) + [i]
                for b in members:
                    slot = [rep_self[i], rep_source(i, b)]
                    if config.variant in ("stgan", "stgan_no_top"):
                        slot.append(np.array([0.0 if b == i else dt[b, i]]))
                    s = float(np.concatenate(slot) @ w_e[:, 0])
                    s = s if s > 0 else config.leaky_slope * s
                    if config.variant == "stgan_eam":
                        g = config.eam_gamma
                        d_bi = 0.0 if b == i else dist[b, i]
                        t_bi = 0.0 if b == i else dt[b, i]
                        s = s * np.exp(-g * d_bi) * np.exp(-g * t_bi)
                    scores[b, i] = s
            coef = np.zeros((n, n))
            for i in range(n):
                col = scores[:, i]
                members = ~np.isnan(col)
                e = np.exp(col[members] - np.max(col[members]))
                coef[members, i] = e / e.sum()
            mats.append(coef)
        return mats

    def aggregate(mats, source_of):
        heads_out = []
        for coef in mats:
            out = np.zeros((n, z.shape[1]))
            for i in range(n):
                for b in list(np.flatnonzero(adj[:, i])) + [i]:
                    out[i] += coef[b, i] * source_of(i, b)
            heads_out.append(out)
        return np.concatenate(heads_out, axis=1)

    attention = config.variant in ("stgan", "stgan_no_top", "stgan_eam",
                                   "stgan_no_td", "gat")
    value_source = lambda i, b: z_st[i] if b == i else z[b]
    if attention:
        if config.variant in ("gat", "stgan_eam"):
            score_source = value_source
        else:
            score_source = lambda i, b: z_st[b]
        mats = attention_matrix(z_st, score_source)
    else:
        deg = adj.sum(axis=0) + 1.0
        coef = np.zeros((n, n))
        for i in range(n):
            coef[i, i] = 1.0 / deg[i]
            for b in np.flatnonzero(adj[:, i]):
                coef[b, i] = 1.0 / np.sqrt(deg[b] * deg[i])
        mats = [coef]
    agg = aggregate(mats, value_source)

    # stacked layers reuse the first layer's coefficients
    for layer in range(2, config.layers + 1):
        z_l = oracle_elu(agg @ params[f"conv_l{layer - 1}_w"]
                         + params[f"conv_l{layer - 1}_b"])
        agg = aggregate(mats, lambda i, b: z_l[b])

    if config.variant == "gcn":
        return (agg @ params["head0_w"] + params["head0_b"])[:, 0]
    hidden = oracle_elu(agg @ params["head0_w"] + params["head0_b"])
    return (hidden @ params["head1_w"] + params["head1_b"])[:, 0]


def dense_mae_loss(graph, nodes, params, config, loss_ids, l_res_m=200.0):
    yhat = dense_forward(graph, nodes, params, config, l_res_m)
    y = np.array([p.y for p in nodes])
    return float(np.mean(np.abs(yhat[loss_ids] - y[loss_ids])))


def pairwise_auc(labels, scores):
    """All-pairs Mann-Whitney AUC with 0.5 credit for tied scores."""
    pos = [s for lab, s in zip(labels, scores) if lab]
    neg = [s for lab, s in zip(labels, scores) if not lab]
    if not pos or not neg:
        return None
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))
