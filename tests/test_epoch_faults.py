import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from pavecast import model, pipeline

TOOL = Path(__file__).resolve().parent.parent / "tools" / "epoch_faults.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          timeout=120)


def training_tensor_sizes(records, locations, seed=0):
    """Rows and edges of the tensors train_on_graph builds for the tool's
    configuration: the loss rows' ancestor cone, with fewer edges than the graph."""
    base = pipeline.reference_benchmark_config(seed)
    config = replace(base, dataset=pipeline.DatasetSource(synthetic=replace(
        base.dataset.synthetic, n_records=records, n_locations=locations)))
    data = pipeline.prepare_data(config)
    graph, graph_config = pipeline.build_history_graph(config, data)
    gt = model.prepare_tensors(graph, data.history_nodes, l_res_m=graph_config.l_res_m,
                               targets=np.arange(graph.init_count, graph.n),
                               hops=config.model.layers)
    assert len(gt.layout.src) < graph.n + graph.edge_count()
    return gt.n, len(gt.layout.src)


def test_tiny_run_reports_every_epoch_and_passes_env_to_its_child():
    proc = run_tool("--records", "140", "--locations", "40", "--epochs", "3", "--runs", "2",
                    "--env", "MALLOC_MMAP_THRESHOLD_=131072")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["env"] == {"MALLOC_MMAP_THRESHOLD_": "131072"}
    assert (result["runs"], result["epochs"], result["later_samples"]) == (2, 3, 4)
    assert (result["rows"], result["edges"]) == training_tensor_sizes(140, 40)
    assert result["first_ms_p50"] > 0 and result["later_ms_p50"] > 0
    assert result["first_faults_p50"] >= 0 and result["later_faults_p50"] >= 0
    assert lines[0] == "child env: MALLOC_MMAP_THRESHOLD_=131072"


def test_malformed_env_pair_exits_2():
    proc = run_tool("--env", "NO_EQUALS_SIGN")
    assert proc.returncode == 2 and "KEY=VALUE" in proc.stderr
