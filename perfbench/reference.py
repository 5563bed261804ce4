"""Independent reference results that every benchmark run is checked against.

Nothing here calls pavecast's graph, model or trainer code. Parent wiring is
recomputed from the rules in block-wise pairwise arrays instead of one
candidate scan per node, and the forward pass is plain NumPy over edge
arrays instead of the tape. Only the `stgan` variant with one layer and the
"merged" ranking mode are covered, which is what every workload runs.

Tolerances: a prediction passes when it is finite and within
PREDICTION_TOL * max(1, |reference|) of the reference; the reported MAE
passes under the same bound against the MAE of the reference predictions.
Summation order differs between the two paths, which moves results by
about 1e-14, so the bound leaves room for reordering but not for a change
in the model's arithmetic.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

EARTH_RADIUS_M = 6371000.0
_DEG = math.pi / 180.0
_BLOCK = 128  # query rows per pairwise block
PREDICTION_TOL = 1e-8
ATTENTION_TOL = 1e-9


class Columns:
    """Node coordinates and times as arrays; node ids are row positions."""

    def __init__(self, lon, lat, t_raw):
        self.lon = np.asarray(lon, dtype=np.float64)
        self.lat = np.asarray(lat, dtype=np.float64)
        self.t_raw = np.asarray(t_raw, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.t_raw)

    def rows(self, idx) -> "Columns":
        return Columns(self.lon[idx], self.lat[idx], self.t_raw[idx])


def _pair_terms(q: Columns, c: Columns) -> tuple[np.ndarray, np.ndarray]:
    """Distance (m) and |dt| (days) for every (query row, candidate) pair.

    The operations mirror the package's equirectangular formula term by
    term, so threshold and ranking decisions agree bit for bit.
    """
    dphi = (c.lat[None, :] - q.lat[:, None]) * _DEG
    dlam = (c.lon[None, :] - q.lon[:, None]) * _DEG
    cos_mid = np.cos(0.5 * (c.lat[None, :] + q.lat[:, None]) * _DEG)
    dist = EARTH_RADIUS_M * np.sqrt(dphi * dphi + (cos_mid * dlam) ** 2)
    dt = np.abs(q.t_raw[:, None] - c.t_raw[None, :])
    return dist, dt


def wire(queries: Columns, candidates: Columns, visible: np.ndarray,
         graph_config) -> list[list[tuple[int, str]]]:
    """Ranked then proximity parents for each query row.

    Row r sees candidates [0, visible[r]). Up to top_k parents with the
    lowest distance/l_res + dt/t_res score come first ("top", ties by id),
    then every other candidate within both thresholds in id order ("hard").
    """
    if graph_config.top_mode != "merged":
        raise ValueError("the reference covers top_mode 'merged' only")
    l_res, t_res = graph_config.l_res_m, graph_config.t_res_days
    out = []
    for lo in range(0, len(queries), _BLOCK):
        hi = min(lo + _BLOCK, len(queries))
        limit = np.asarray(visible[lo:hi])
        width = int(limit.max())
        dist, dt = _pair_terms(queries.rows(slice(lo, hi)), candidates.rows(slice(0, width)))
        seen = np.arange(width)[None, :] < limit[:, None]
        hard = seen & (dist <= l_res) & (dt <= t_res)
        score = np.where(seen, dist / l_res + dt / t_res, np.inf)
        k = min(graph_config.top_k, width)
        kth = np.partition(score, k - 1, axis=1)[:, k - 1] if k else None
        for r in range(hi - lo):
            top = np.empty(0, dtype=np.intp)
            if k:
                pool = np.flatnonzero((score[r] <= kth[r]) & seen[r])
                top = pool[np.lexsort((pool, score[r, pool]))][:k]
            extra = np.setdiff1d(np.flatnonzero(hard[r]), top)
            out.append([(int(p), "top") for p in top] + [(int(p), "hard") for p in extra])
    return out


def graph_parents(nodes: Columns, init_count: int, graph_config) -> list[list[tuple[int, str]]]:
    """Parent lists of the history graph that stgraph.build_graph must produce.

    The first init_count nodes see each other within both thresholds
    ("init"); every later node is wired against all nodes before it.
    """
    init = nodes.rows(slice(0, init_count))
    parents = []
    for lo in range(0, init_count, _BLOCK):
        hi = min(lo + _BLOCK, init_count)
        dist, dt = _pair_terms(init.rows(slice(lo, hi)), init)
        near = (dist <= graph_config.l_res_m) & (dt <= graph_config.t_res_days)
        near[np.arange(hi - lo), np.arange(lo, hi)] = False
        parents.extend([(int(p), "init") for p in np.flatnonzero(row)] for row in near)
    later = np.arange(init_count, len(nodes))
    return parents + wire(nodes.rows(later), nodes, later, graph_config)


def edge_digest(edges) -> tuple[str, dict[str, int]]:
    """Order-free SHA-256 over (parent, child, origin) triples, plus counts by origin."""
    triples = sorted((int(p), int(c), str(o)) for p, c, o in edges)
    h = hashlib.sha256()
    counts: dict[str, int] = {"init": 0, "top": 0, "hard": 0}
    for p, c, o in triples:
        h.update(f"{p},{c},{o}\n".encode())
        counts[o] = counts.get(o, 0) + 1
    return h.hexdigest(), counts


def parent_edges(parents: list[list[tuple[int, str]]]):
    """(parent, child, origin) triples of parent lists indexed by child id."""
    for child, plist in enumerate(parents):
        for parent, origin in plist:
            yield parent, child, origin


# ---------------------------------------------------------------------------
# Forward pass


def _elu(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, x, np.expm1(np.minimum(x, 0.0)))


class Reference:
    """Predictions of a one-layer stgan model, recomputed outside the package."""

    def __init__(self, params: dict[str, np.ndarray], model_config):
        if model_config.variant != "stgan" or model_config.layers != 1:
            raise ValueError("the reference covers the one-layer stgan model only")
        self.params = params
        self.config = model_config

    def _mlp(self, x: np.ndarray, prefix: str) -> np.ndarray:
        for k in range(len(self.config.extractor_hidden)):
            x = _elu(x @ self.params[f"{prefix}{k}_w"] + self.params[f"{prefix}{k}_b"])
        return x

    def embed(self, x_full: np.ndarray, x_st: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self._mlp(x_full, "ext_full"), self._mlp(x_st, "ext_st")

    def predict(self, z, z_st, t_norm, targets, parents) -> np.ndarray:
        """Each target attends over its parents (full representation) and itself
        (spatial-temporal representation only)."""
        h = self.config.hidden
        sizes = np.array([len(p) + 1 for p in parents])
        dst = np.repeat(np.arange(len(targets)), sizes)
        src = np.concatenate([[t, *(b for b, _ in p)] for t, p in zip(targets, parents)])
        src = src.astype(np.intp)
        is_self = np.zeros(len(src), dtype=bool)
        is_self[np.cumsum(sizes) - sizes] = True
        tgt = np.asarray(targets)[dst]
        dt = np.abs(t_norm[tgt] - t_norm[src])
        value = np.where(is_self[:, None], z_st[src], z[src])
        heads = []
        for k in range(self.config.heads):
            w = self.params[f"attn_l1_h{k}_w"][:, 0]
            s = z_st[tgt] @ w[:h] + z_st[src] @ w[h:2 * h] + dt * w[2 * h]
            s = np.where(s > 0.0, s, self.config.leaky_slope * s)
            top = np.full(len(targets), -np.inf)
            np.maximum.at(top, dst, s)
            e = np.exp(s - top[dst])
            coef = e / np.bincount(dst, weights=e, minlength=len(targets))[dst]
            agg = np.zeros((len(targets), h))
            np.add.at(agg, dst, coef[:, None] * value)
            heads.append(agg)
        hidden = _elu(np.concatenate(heads, axis=1) @ self.params["head0_w"]
                      + self.params["head0_b"])
        return (hidden @ self.params["head1_w"] + self.params["head1_b"])[:, 0]


def query_features(stats, schema, record) -> tuple[np.ndarray, np.ndarray, float]:
    """(x_full, x_st, t_norm) of a future query: spatial-temporal slots only."""
    t_norm = stats.rescale_time(record.collect_time)
    x_st = np.array([stats.standardize("longitude_gcj", record.longitude_gcj),
                     stats.standardize("latitude_gcj", record.latitude_gcj), t_norm])
    x_full = np.zeros(schema.dim_full)
    x_full[-3:] = x_st
    return x_full, x_st, t_norm


def history_arrays(nodes):
    cols = Columns([p.coords[0] for p in nodes], [p.coords[1] for p in nodes],
                   [p.t_raw for p in nodes])
    return (cols, np.stack([p.x_full for p in nodes]), np.stack([p.x_st for p in nodes]),
            np.array([p.t_norm for p in nodes]))


def forecast_ignore(ref: Reference, graph_config, stats, schema, history, records) -> np.ndarray:
    """Every record forecast against the history graph alone."""
    cols, x_full, x_st, t_norm = history_arrays(history)
    q = [query_features(stats, schema, r) for r in records]
    q_cols = Columns([r.longitude_gcj for r in records], [r.latitude_gcj for r in records],
                     [r.collect_time for r in records])
    parents = wire(q_cols, cols, np.full(len(records), len(cols)), graph_config)
    z, z_st = ref.embed(np.vstack([x_full, [f for f, _, _ in q]]),
                        np.vstack([x_st, [s for _, s, _ in q]]))
    t_all = np.concatenate([t_norm, [t for _, _, t in q]])
    return ref.predict(z, z_st, t_all, len(cols) + np.arange(len(records)), parents)


def forecast_predicted(ref: Reference, graph_config, stats, schema, history,
                       records) -> np.ndarray:
    """Records forecast in order, each joining the graph with its own prediction
    in the deterioration slot before the next one is wired."""
    cols, x_full, x_st, t_norm = history_arrays(history)
    z, z_st = ref.embed(x_full, x_st)
    info_slot = len(schema.env_features)
    out = []
    for r in records:
        n = len(cols)
        qf, qs, qt = query_features(stats, schema, r)
        cols = Columns(np.append(cols.lon, r.longitude_gcj), np.append(cols.lat, r.latitude_gcj),
                       np.append(cols.t_raw, r.collect_time))
        parents = wire(cols.rows([n]), cols, np.array([n]), graph_config)
        zq, zq_st = ref.embed(qf[None, :], qs[None, :])
        z, z_st = np.vstack([z, zq]), np.vstack([z_st, zq_st])
        t_norm = np.append(t_norm, qt)
        yhat = float(ref.predict(z, z_st, t_norm, [n], parents)[0])
        qf = qf.copy()
        qf[info_slot] = stats.standardize("detect_info", yhat)
        z[n] = ref.embed(qf[None, :], qs[None, :])[0][0]
        out.append(yhat)
    return np.array(out)


# ---------------------------------------------------------------------------
# Checks: each returns the number of operations that failed


def failed_predictions(yhat, reference: np.ndarray) -> int:
    """Queries whose prediction is missing, non-finite or off the reference."""
    yhat = np.asarray(yhat, dtype=np.float64)
    if yhat.shape != reference.shape:
        return len(reference)
    bad = ~np.isfinite(yhat) | (np.abs(yhat - reference)
                                > PREDICTION_TOL * np.maximum(1.0, np.abs(reference)))
    return int(bad.sum())


def mae_matches(mae: float, y_true: np.ndarray, reference: np.ndarray) -> bool:
    ref_mae = float(np.mean(np.abs(y_true - reference)))
    return math.isfinite(mae) and abs(mae - ref_mae) <= PREDICTION_TOL * max(1.0, ref_mae)
