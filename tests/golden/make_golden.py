"""Write the cross-commit golden values for the tiny test config.

    PYTHONPATH=src python3 tests/golden/make_golden.py

Runs gen-data, build-graph, train and evaluate through the CLI on the tiny
test config and records what they produce in expected.json next to this
file: the sha256 of data.csv and graph.json, the graph's edge counts per
origin, and per model the loss trace, the final training MAE and the test
predictions. The tiny config's own model (stgan) is evaluated under every
strategy; a two-layer gat and a gcn, which aggregate through the other
paths, under ignore. tests/test_golden.py reruns the same commands and
compares. Regenerate only for a change that moves these numbers on purpose,
and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

# model name -> (--set overrides of the tiny config, strategies evaluated)
MODELS = {
    "stgan": ((), ("ignore", "true", "predicted")),
    "gat_2layer": (("model.variant=gat", "model.layers=2"), ("ignore",)),
    "gcn": (("model.variant=gcn",), ("ignore",)),
}


def collect(workdir: Path) -> dict:
    """Run the CLI commands in workdir and return the values to compare."""
    from conftest import tiny_run_config
    from pavecast import cli, trainer

    config = workdir / "run.json"
    config.write_text(json.dumps(tiny_run_config().to_dict()))

    def run(*argv):
        if cli.main(list(argv)) != 0:
            raise RuntimeError(f"pavecast {argv[0]} failed")

    data, graph = workdir / "data", workdir / "graph"
    run("gen-data", "--config", str(config), "--out", str(data))
    run("build-graph", "--config", str(config), "--out", str(graph))
    graph_doc = json.loads((graph / "graph.json").read_text())
    values = {
        "data_csv_sha256": cli.sha256_file(data / "data.csv"),
        "graph_json_sha256": cli.sha256_file(graph / "graph.json"),
        "edges_by_origin": {origin: sum(e["origin"] == origin for e in graph_doc["edges"])
                            for origin in ("init", "top", "hard")},
        "models": {},
    }
    for name, (overrides, strategies) in MODELS.items():
        train = workdir / name
        run("train", "--config", str(config), *(f"--set={s}" for s in overrides),
            "--out", str(train))
        ckpt = trainer.load_checkpoint(train / "model.ckpt")
        predictions = {}
        for strategy in strategies:
            out = train / f"eval_{strategy}"
            run("evaluate", "--checkpoint", str(train / "model.ckpt"),
                "--strategy", strategy, "--out", str(out))
            report = json.loads((out / "report_test.json").read_text())
            predictions[strategy] = [yhat for _, yhat in report["pairs"]]
        values["models"][name] = {"loss_trace": [float(v) for v in ckpt.loss_trace],
                                  "final_train_mae": float(ckpt.final_train_mae),
                                  "predictions": predictions}
    return values


def main() -> int:
    sys.path.insert(0, str(HERE.parent))
    with tempfile.TemporaryDirectory() as tmp:
        values = collect(Path(tmp))
    EXPECTED.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
