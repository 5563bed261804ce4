"""Command-line entry point for reproducible runs.

Every command is driven by one JSON config file, overridable with repeated
--set key=value flags (the model's seed is train.seed), and writes its
artifacts under --out with a manifest of content hashes. Reruns of the same
config produce byte-identical artifacts; wall-clock timings go to a
separate timings.csv that is excluded from the manifest.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import evaluation as ev
from . import stgraph as sg
from . import trainer as tr
from .model import ModelConfigError
from .pipeline import (DatasetSource, RunConfig, RunConfigError, build_history_graph,
                       effective_graph_config, evaluate_test, prepare_data,
                       run_experiment, run_matrix, reference_benchmark_config)


class UsageError(ValueError):
    pass


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def load_run_config(path: str | None, overrides: list[str],
                    benchmark: bool = False) -> RunConfig:
    if benchmark and path:
        raise UsageError("--config and --benchmark are mutually exclusive")
    if benchmark:
        doc = reference_benchmark_config().to_dict()
    elif path:
        with open(path, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise UsageError(f"--config {path} is not UTF-8 JSON: {exc}") from None
    else:
        doc = RunConfig().to_dict()
    for item in overrides:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node, parts = doc, key.split(".")
        for depth, part in enumerate(parts):
            if not isinstance(node, dict):
                where = ".".join(parts[:depth]) or "the config"
                raise UsageError(f"--set {key}: {where} is not an object")
            if depth + 1 < len(parts):
                node = node.setdefault(part, {})
        node[parts[-1]] = value
    return RunConfig.from_dict(doc)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, artifacts: list[Path]) -> None:
    manifest = {p.name: sha256_file(p) for p in sorted(artifacts)}
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_timings(out_dir: Path, timings: dict[str, float]) -> None:
    with open(out_dir / "timings.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phase", "seconds"])
        for phase, seconds in timings.items():
            writer.writerow([phase, f"{seconds:.3f}"])


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(args) -> int:
    config = load_run_config(args.config, args.set, args.benchmark)
    if config.dataset.synthetic is None:
        raise UsageError("gen-data needs a synthetic dataset config")
    out = _out_dir(args)
    t0 = time.perf_counter()
    records = ds.generate_synthetic(config.dataset.synthetic)
    path = out / "data.csv"
    ds.write_records(path, records)
    write_timings(out, {"generate": time.perf_counter() - t0})
    write_manifest(out, [path])
    print(f"wrote {len(records)} records to {path}")
    return 0


def cmd_build_graph(args) -> int:
    config = load_run_config(args.config, args.set, args.benchmark)
    out = _out_dir(args)
    t0 = time.perf_counter()
    data = prepare_data(config, log=_log)
    t1 = time.perf_counter()
    graph, _ = build_history_graph(config, data)
    t2 = time.perf_counter()
    path = out / "graph.json"
    sg.save_graph_json(graph, path)
    write_timings(out, {"prepare": t1 - t0, "graph_build": t2 - t1,
                        "write": time.perf_counter() - t2})
    write_manifest(out, [path])
    by_origin = ", ".join(f"{name} {count}" for name, count in graph.origin_counts().items())
    print(f"graph: {graph.n} nodes, {graph.edge_count()} edges ({by_origin}) -> {path}")
    return 0


def cmd_train(args) -> int:
    config = load_run_config(args.config, args.set, args.benchmark)
    out = _out_dir(args)
    result = run_experiment(config, log=_log)
    ckpt_path = out / "model.ckpt"
    tr.save_checkpoint(ckpt_path, result.checkpoint)
    loss_path = out / "loss.csv"
    with open(loss_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mae"])
        for epoch, mae in enumerate(result.checkpoint.loss_trace):
            writer.writerow([epoch, repr(mae)])
    write_timings(out, result.timings)
    write_manifest(out, [ckpt_path, loss_path])
    print(f"final train mae {result.checkpoint.final_train_mae:.6f}; "
          f"test mae {result.test_report.mae:.6f} -> {ckpt_path}")
    return 0


def _report_paths(out: Path, report: ev.EvalReport, split_name: str) -> list[Path]:
    report_path = out / f"report_{split_name}.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    paths = [report_path]
    y, yhat = zip(*report.pairs)
    for name, (fpr, tpr, thr) in ev.level_roc_curves(y, yhat).items():
        roc_path = out / f"roc_{name.lower()}_{split_name}.csv"
        with open(roc_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["fpr", "tpr", "threshold"])
            for row in zip(fpr, tpr, thr):
                writer.writerow([repr(float(row[0])), repr(float(row[1])),
                                 repr(float(row[2]))])
        paths.append(roc_path)
    return paths


def _checkpoint_config(ckpt: tr.Checkpoint) -> RunConfig:
    """The run config (evaluate reads it) once it agrees with the sections predict reads."""
    if ckpt.run_config is None:
        raise UsageError("checkpoint carries no run config; cannot rebuild the graph")
    config = RunConfig.from_dict(ckpt.run_config)
    for name, ours, theirs in (("model_config", config.model, ckpt.model_config),
                               ("feature_schema", config.features, ckpt.schema),
                               ("graph_config", effective_graph_config(config), ckpt.graph_config)):
        if ours != theirs:
            raise tr.CheckpointIntegrityError(f"manifest section run_config disagrees with "
                                              f"its {name} section")
    return config


def _inference_context(ckpt: tr.Checkpoint, graph_cfg: sg.GraphConfig) -> tr.InferenceContext:
    return tr.InferenceContext(params=ckpt.params, model_config=ckpt.model_config,
                               graph_config=graph_cfg, stats=ckpt.stats, schema=ckpt.schema)


def cmd_evaluate(args) -> int:
    ckpt = tr.load_checkpoint(args.checkpoint)
    config = _checkpoint_config(ckpt)
    if args.data:
        config = replace(config, dataset=DatasetSource(csv=args.data, time_format=args.time_format))
    if args.strategy is not None and args.strategy not in tr.STRATEGIES:
        raise UsageError(f"unknown strategy {args.strategy!r}")
    out = _out_dir(args)

    t0 = time.perf_counter()
    data = prepare_data(config, stats=ckpt.stats, log=_log)
    t1 = time.perf_counter()
    graph, graph_cfg = build_history_graph(config, data)
    t2 = time.perf_counter()
    if args.split == "train":  # the loss rows, forecast as training's final pass did
        ids = np.arange(data.init_count, graph.n)
        yhat = tr.predict_one(_inference_context(ckpt, graph_cfg), graph,
                              data.history_nodes, ids)
        report = ev.build_report(data.history_nodes.y[ids], yhat,
                                 {"kind": "train", "n_train": len(ids)},
                                 train_mae=ckpt.final_train_mae)
    else:
        report = evaluate_test(config, data, graph, graph_cfg, ckpt.params,
                               strategy=args.strategy)
    artifacts = _report_paths(out, report, args.split)
    write_timings(out, {"prepare": t1 - t0, "graph_build": t2 - t1,
                        "evaluate": time.perf_counter() - t2})
    write_manifest(out, artifacts)
    print(f"{args.split} mae {report.mae:.6f} mse {report.mse:.6f} "
          f"rmse {report.rmse:.6f}")
    return 0


def _location_query(nodes: ds.NodeTable, location: int, t: float) -> np.recarray:
    """A one-record query table at the location's first history row and time t;
    its other columns are zero, which the "ignore" strategy never reads."""
    at = np.flatnonzero(nodes.location_id == location)  # compares any int, 2**63 too
    if not len(at):
        raise tr.QueryError(f"location {location} has no historical observations")
    query = np.zeros(1, ds.RECORD_DTYPE).view(np.recarray)
    query.location_id, query.collect_time = location, t
    query.longitude_gcj, query.latitude_gcj = nodes.lon[at[0]], nodes.lat[at[0]]
    return query


def cmd_predict(args) -> int:
    ckpt = tr.load_checkpoint(args.checkpoint)
    config = _checkpoint_config(ckpt)
    data = prepare_data(config, stats=ckpt.stats, log=_log)
    graph, graph_cfg = build_history_graph(config, data)
    query = _location_query(data.history_nodes, args.location, args.time)
    yhat = tr.predict_sequence(_inference_context(ckpt, graph_cfg), graph,
                               data.history_nodes, query)[0]
    print(f"{yhat:.6f}")
    return 0


def cmd_matrix(args) -> int:
    config = load_run_config(args.config, args.set, args.benchmark)
    axes = [a.strip() for a in args.axes.split(",") if a.strip()]
    if not axes:
        raise UsageError("matrix needs at least one axis")
    out = _out_dir(args)
    t0 = time.perf_counter()
    rows = run_matrix(config, axes, log=_log)
    path = out / "matrix.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "cell", "train_mae", "test_mae", "test_mse",
                         "test_rmse"])
        for row in rows:
            writer.writerow([row.axis, row.cell, repr(row.train_mae),
                             repr(row.test_mae), repr(row.test_mse),
                             repr(row.test_rmse)])
    timings = {f"{row.axis}/{row.cell}": row.wall_s for row in rows}
    timings["total"] = time.perf_counter() - t0
    write_timings(out, timings)
    write_manifest(out, [path])
    print(f"{len(rows)} matrix rows -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pavecast",
        description="Spatiotemporal graph forecasting of pavement deterioration")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_out=True):
        p.add_argument("--config", help="run config JSON file")
        p.add_argument("--benchmark", action="store_true",
                       help="use the frozen reference benchmark config")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config entry (dot-separated path); VALUE is "
                            "read as JSON if it parses, else as a string")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("gen-data", help="write a synthetic dataset CSV")
    add_common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("build-graph", help="build the history graph and dump JSON")
    add_common(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", help="CSV dataset path (defaults to the checkpoint's)")
    p.add_argument("--time-format", default="days", choices=ds.TIME_FORMATS)
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.add_argument("--strategy", help="forecast strategy (default: the checkpoint's)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="predict one (location, time) query")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--location", type=int, required=True)
    p.add_argument("--time", type=float, required=True,
                   help="query timestamp in days since epoch")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("matrix", help="run an experiment matrix")
    add_common(p)
    p.add_argument("--axes", required=True,
                   help="comma-separated: variant,heads,layers,env_mask,generalization")
    p.set_defaults(func=cmd_matrix)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UsageError, RunConfigError, ds.SchemaError,
            ds.ConfigError, ds.SplitError, ModelConfigError, sg.ConstructionError,
            tr.TrainConfigError, tr.CheckpointVersionError,
            tr.CheckpointIntegrityError, tr.QueryError, tr.StrategyError,
            tr.DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
