import numpy as np
import pytest

from pavecast import dataset as ds
from pavecast import model as md
from pavecast import ndgrad as ng
from pavecast import stgraph as sg

SMALL_DIMS = dict(extractor_hidden=(6, 8), heads=2, head_hidden=8)


def random_records(rng, n, n_locations=4, extent=0.004, span=60.0):
    """Random raw records clustered enough that proximity edges occur."""
    lons = 121.0 + rng.uniform(-extent, extent, n_locations)
    lats = 31.0 + rng.uniform(-extent, extent, n_locations)
    ts = np.sort(rng.uniform(0.0, span, n))
    rows = []
    for i in range(n):
        j = int(rng.integers(0, n_locations))
        row = dict(location_id=j, longitude_gcj=float(lons[j]), latitude_gcj=float(lats[j]),
                   collect_time=float(ts[i]),
                   detect_info=float(rng.uniform(0, 8)),
                   detect_conf=float(rng.uniform(0.5, 1.0)),
                   distress_type=int(rng.choice(ds.DISTRESS_TYPES)),
                   **{name: float(rng.uniform(0, 20)) for name in ds.ENV_FEATURES})
        rows.append(tuple(row[c] for c in ds.CSV_COLUMNS))
    return np.rec.array(rows, dtype=ds.RECORD_DTYPE)


def small_instance(seed, n=8, variant="stgan", layers=1, top_k=2, init_count=1,
                   param_seed=None):
    """A tiny end-to-end instance: records -> nodes -> graph -> tensors -> params."""
    rng = np.random.default_rng(seed)
    records = random_records(rng, n)
    schema = ds.FeatureSchema()
    stats = ds.fit_standardizer(records)
    nodes = ds.preprocess_records(records, stats, schema)
    graph_cfg = sg.GraphConfig(l_res_m=500.0, t_res_days=20.0,
                               top_k=0 if variant == "stgan_no_top" else top_k)
    cols = sg.graph_nodes_from_processed(nodes)
    graph = sg.build_graph(cols, init_count, graph_cfg)
    gt = md.prepare_tensors(graph, nodes, l_res_m=graph_cfg.l_res_m)
    config = md.ModelConfig(variant=variant, layers=layers, **SMALL_DIMS)
    params = md.init_params(config, schema.dim_full, schema.dim_st,
                            seed if param_seed is None else param_seed)
    return dict(records=records, schema=schema, stats=stats, nodes=nodes,
                graph_cfg=graph_cfg, graph=graph, gt=gt, config=config,
                params=params, init_count=init_count)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def tiny_synthetic(seed=0, n_records=140):
    return ds.SyntheticConfig(n_locations=40, n_records=n_records, n_clusters=8,
                              span_days=90.0, mean_visits=3.0, route_frac=0.5,
                              n_repair_events=12.0, seed=seed)


def tiny_run_config(variant="stgan", seed=0, epochs=12, **model_kw):
    from pavecast.pipeline import DatasetSource, RunConfig
    from pavecast.trainer import TrainConfig
    dims = dict(extractor_hidden=(6, 8), head_hidden=8, heads=2)
    dims.update(model_kw)
    return RunConfig(dataset=DatasetSource(synthetic=tiny_synthetic()),
                     model=md.ModelConfig(variant=variant, **dims),
                     train=TrainConfig(epochs=epochs, seed=seed))


class WatchedWorkspace(ng.Workspace):
    """A workspace that counts its lends, and the lends that share memory
    with a view it lent before and has not taken back. It fills what it
    takes back with NaN, so an array read after its return shows."""

    def __init__(self):
        super().__init__()
        self.live: dict[int, np.ndarray] = {}
        self.lends = self.overlaps = 0

    def take(self, shape):
        view = super().take(shape)
        self.lends += 1
        self.overlaps += sum(np.shares_memory(view, other) for other in self.live.values())
        self.live[id(view)] = view
        return view

    def give(self, arr):
        if self.live.pop(id(arr), None) is not None:
            arr.fill(np.nan)
        super().give(arr)

    def reclaim(self):
        for view in self.live.values():
            view.fill(np.nan)
        self.live.clear()
        super().reclaim()
