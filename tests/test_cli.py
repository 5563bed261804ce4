import csv
import json
import math

import numpy as np
import pytest

from pavecast import cli
from pavecast import dataset as ds
from pavecast import stgraph as sg
from pavecast import trainer as tr
from pavecast.pipeline import reference_benchmark_config

from conftest import small_instance, tiny_run_config


@pytest.fixture
def tiny_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(tiny_run_config().to_dict()))
    return str(path)


def run_cli(*argv):
    return cli.main(list(argv))


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_deterministic_and_round_trips(tmp_path, tiny_config_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("gen-data", "--config", tiny_config_file, "--out", str(out1)) == 0
    assert run_cli("gen-data", "--config", tiny_config_file, "--out", str(out2)) == 0
    h1 = json.loads((out1 / "manifest.json").read_text())
    h2 = json.loads((out2 / "manifest.json").read_text())
    assert h1 == h2 and "data.csv" in h1

    with open(out1 / "data.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(ds.CSV_COLUMNS)
    assert len(rows) == 141  # header + requested records

    report = ds.load_records(out1 / "data.csv")
    assert report.skipped_rows == []
    assert len(report.records) == 140


def test_gen_data_row_count_override(tmp_path, tiny_config_file):
    out = tmp_path / "o"
    assert run_cli("gen-data", "--config", tiny_config_file,
                   "--set", "dataset.synthetic.n_records=97",
                   "--out", str(out)) == 0
    with open(out / "data.csv", newline="") as fh:
        assert sum(1 for _ in fh) == 98


def test_gen_data_benchmark_writes_the_reference_generators_records(tmp_path):
    assert run_cli("gen-data", "--benchmark", "--out", str(tmp_path / "o")) == 0
    want = tmp_path / "want.csv"
    ds.write_records(want, ds.generate_synthetic(
        reference_benchmark_config().dataset.synthetic))
    assert (tmp_path / "o" / "data.csv").read_bytes() == want.read_bytes()


def test_gen_data_without_config_writes_the_default_generators_records(tmp_path):
    assert run_cli("gen-data", "--out", str(tmp_path / "o")) == 0
    want = tmp_path / "want.csv"
    ds.write_records(want, ds.generate_synthetic(ds.SyntheticConfig()))
    assert (tmp_path / "o" / "data.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("override", [
    "dataset.synthetic.n_repair_events=1e19",  # rng.poisson raised "lam value too large"
    "dataset.synthetic.n_repair_events=1e5",   # ran a Python loop per event for seconds
    "dataset.synthetic.driver_obs_bias=1e308",  # wrote inf readings
    "dataset.synthetic.driver_obs_bias=-1e308",
])
def test_gen_data_setting_past_its_cap_exits_2_before_writing(tmp_path, capsys, override):
    out = tmp_path / "o"
    assert run_cli("gen-data", "--benchmark", "--set", override, "--out", str(out)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "must be in" in err[0]
    assert not (out / "data.csv").exists()


def test_config_with_benchmark_exits_2(tmp_path, tiny_config_file, capsys):
    assert run_cli("gen-data", "--config", tiny_config_file, "--benchmark",
                   "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: --config and --benchmark are mutually exclusive"]


# ---------------------------------------------------------------------------
# build-graph


def test_build_graph_emits_json(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "g"
    assert run_cli("build-graph", "--config", tiny_config_file, "--out", str(out)) == 0
    doc = json.loads((out / "graph.json").read_text())
    assert {"nodes", "edges"} <= set(doc)
    n_hist = 14 + 98  # 10% + 70% of 140
    assert len(doc["nodes"]) == n_hist
    assert all(e["from"] != e["to"] for e in doc["edges"])
    counts = {o: sum(e["origin"] == o for e in doc["edges"]) for o in ("init", "top", "hard")}
    assert all(counts.values())
    assert (f"{n_hist} nodes, {len(doc['edges'])} edges (init {counts['init']}, "
            f"top {counts['top']}, hard {counts['hard']})") in capsys.readouterr().out


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_and_loss_csv(tmp_path, tiny_config_file):
    out = tmp_path / "t"
    assert run_cli("train", "--config", tiny_config_file, "--out", str(out)) == 0
    ckpt = tr.load_checkpoint(out / "model.ckpt")
    assert len(ckpt.loss_trace) == 12
    with open(out / "loss.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "mae"]
    assert len(rows) == 13
    assert float(rows[1][1]) == ckpt.loss_trace[0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"model.ckpt", "loss.csv"}


def test_train_epochs_zero_equals_initialization(tmp_path, tiny_config_file):
    out = tmp_path / "z"
    assert run_cli("train", "--config", tiny_config_file,
                   "--set", "train.epochs=0", "--out", str(out)) == 0
    ckpt = tr.load_checkpoint(out / "model.ckpt")
    assert ckpt.loss_trace == [] and ckpt.adam.t == 0


def test_train_seed_is_the_seed_that_acts(tmp_path, tiny_config_file):
    out0, out7 = tmp_path / "s0", tmp_path / "s7"
    assert run_cli("train", "--config", tiny_config_file, "--out", str(out0)) == 0
    assert run_cli("train", "--config", tiny_config_file, "--set", "train.seed=7",
                   "--out", str(out7)) == 0
    assert (out0 / "loss.csv").read_bytes() != (out7 / "loss.csv").read_bytes()
    ckpt = tr.load_checkpoint(out7 / "model.ckpt")
    assert ckpt.train_config.seed == ckpt.run_config["train"]["seed"] == 7
    assert "seed" not in ckpt.run_config


def test_train_rerun_is_byte_identical(tmp_path, tiny_config_file):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_cli("train", "--config", tiny_config_file, "--out", str(out1))
    run_cli("train", "--config", tiny_config_file, "--out", str(out2))
    assert (out1 / "model.ckpt").read_bytes() == (out2 / "model.ckpt").read_bytes()
    assert (out1 / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1 == m2


# ---------------------------------------------------------------------------
# evaluate


@pytest.fixture
def trained(tmp_path, tiny_config_file):
    out = tmp_path / "trained"
    run_cli("train", "--config", tiny_config_file, "--out", str(out))
    return out / "model.ckpt"


def test_evaluate_train_split_reproduces_final_mae(tmp_path, trained):
    out = tmp_path / "ev"
    assert run_cli("evaluate", "--checkpoint", str(trained), "--split", "train",
                   "--out", str(out)) == 0
    report = json.loads((out / "report_train.json").read_text())
    ckpt = tr.load_checkpoint(trained)
    assert abs(report["mae"] - ckpt.final_train_mae) < 1e-9


@pytest.mark.parametrize("layers", [1, 2])
def test_evaluate_train_split_reports_the_forecasts_of_trainings_final_pass(
        tmp_path, tiny_config_file, monkeypatch, layers):
    passes = []
    real = tr.forward_values

    def spy(*args, **kwargs):
        passes.append(real(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(tr, "forward_values", spy)
    out = tmp_path / "t"
    assert run_cli("train", "--config", tiny_config_file, "--set", f"model.layers={layers}",
                   "--out", str(out)) == 0
    final = passes[0]  # train_on_graph's last pass comes before any forecast
    assert run_cli("evaluate", "--checkpoint", str(out / "model.ckpt"), "--split", "train",
                   "--out", str(tmp_path / "ev")) == 0
    report = json.loads((tmp_path / "ev" / "report_train.json").read_text())
    assert [yhat for _, yhat in report["pairs"]] == final.tolist()
    assert report["mae"] == report["train_mae"]


def test_evaluate_test_split_report_consistent(tmp_path, trained):
    out = tmp_path / "ev2"
    assert run_cli("evaluate", "--checkpoint", str(trained), "--out", str(out)) == 0
    report = json.loads((out / "report_test.json").read_text())
    assert report["rmse"] == pytest.approx(math.sqrt(report["mse"]), abs=1e-12)
    assert len(report["pairs"]) == 28  # 20% of 140
    assert set(report["auc"]) == {"Healthy", "Good", "Severe", "VerySevere"}


def test_evaluate_strategies_flag(tmp_path, trained):
    out = tmp_path / "ev3"
    assert run_cli("evaluate", "--checkpoint", str(trained),
                   "--strategy", "predicted", "--out", str(out)) == 0
    assert run_cli("evaluate", "--checkpoint", str(trained),
                   "--strategy", "nonsense", "--out", str(tmp_path / "x")) == 2


def test_evaluate_defaults_to_the_checkpoints_strategy(tmp_path, tiny_config_file, capsys):
    train_out, eval_out = tmp_path / "t", tmp_path / "e"
    assert run_cli("train", "--config", tiny_config_file, "--set", 'strategy="true"',
                   "--out", str(train_out)) == 0
    trained_mae = capsys.readouterr().out.split("test mae ")[1].split()[0]
    assert run_cli("evaluate", "--checkpoint", str(train_out / "model.ckpt"),
                   "--out", str(eval_out)) == 0
    assert capsys.readouterr().out.split()[2] == trained_mae
    report = json.loads((eval_out / "report_test.json").read_text())
    assert report["split"]["strategy"] == "true"


def test_set_reads_a_value_as_json_first(tmp_path, tiny_config_file, capsys):
    assert run_cli("train", "--config", tiny_config_file, "--set", "strategy=true",
                   "--out", str(tmp_path / "t")) == 2
    assert capsys.readouterr().err.strip() == "error: config.strategy must be str, got True"


def test_timings_name_each_phase(tmp_path, tiny_config_file, trained):
    def phases(out):
        with open(out / "timings.csv", newline="") as fh:
            return [row["phase"] for row in csv.DictReader(fh)]

    graph_out, eval_out = tmp_path / "g", tmp_path / "ev4"
    assert run_cli("build-graph", "--config", tiny_config_file, "--out", str(graph_out)) == 0
    assert phases(graph_out) == ["prepare", "graph_build", "write"]
    assert run_cli("evaluate", "--checkpoint", str(trained), "--out", str(eval_out)) == 0
    assert phases(eval_out) == ["prepare", "graph_build", "evaluate"]


def test_evaluate_rerun_identical_reports(tmp_path, trained):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    run_cli("evaluate", "--checkpoint", str(trained), "--out", str(out1))
    run_cli("evaluate", "--checkpoint", str(trained), "--out", str(out2))
    assert (out1 / "report_test.json").read_bytes() == \
        (out2 / "report_test.json").read_bytes()


def test_checkpoint_with_a_top_level_seed_exits_2_naming_it(tmp_path, trained, capsys):
    # checkpoints written before train.seed became the one seed carry a
    # top-level run_config seed
    ckpt = tr.load_checkpoint(trained)
    ckpt.run_config = {"seed": 0, **ckpt.run_config}
    old = tmp_path / "old.ckpt"
    tr.save_checkpoint(old, ckpt)
    for argv in (("evaluate", "--out", str(tmp_path / "e")),
                 ("predict", "--location", "0", "--time", "1e9")):
        capsys.readouterr()
        assert run_cli(argv[0], "--checkpoint", str(old), *argv[1:]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: unknown config key 'seed'"]


@pytest.fixture
def training_csv(tmp_path, tiny_config_file):
    out = tmp_path / "data"
    assert run_cli("gen-data", "--config", tiny_config_file, "--out", str(out)) == 0
    return out / "data.csv"


def _test_report(tmp_path, trained, name, *extra):
    out = tmp_path / name
    assert run_cli("evaluate", "--checkpoint", str(trained), *extra,
                   "--out", str(out)) == 0
    return (out / "report_test.json").read_bytes()


def test_unknown_time_format_exits_2_before_reading(tmp_path, training_csv, capsys):
    config = tmp_path / "unix.json"
    doc = tiny_run_config().to_dict()
    doc["dataset"] = {"csv": str(training_csv), "time_format": "unix"}
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("build-graph", "--config", str(config),
                   "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "time_format" in err[0]


def test_every_command_reading_a_csv_warns_of_skipped_rows(tmp_path, training_csv,
                                                          trained, capsys):
    lines = training_csv.read_text().splitlines()
    cells = lines[5].split(",")
    cells[ds.CSV_COLUMNS.index("pressure")] = "nan"
    lines[5] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**tiny_run_config().to_dict(), "dataset": {"csv": str(bad)}}))

    def warnings(*argv):
        capsys.readouterr()
        assert run_cli(*argv) == 0
        return [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning: ")]

    once = ["warning: skipped 1 invalid rows (first: row 5: non-finite pressure)"]
    ckpt = str(tmp_path / "t" / "model.ckpt")
    assert warnings("build-graph", "--config", str(config), "--out", str(tmp_path / "g")) == once
    assert warnings("train", "--config", str(config), "--out", str(tmp_path / "t")) == once
    assert warnings("evaluate", "--checkpoint", ckpt, "--out", str(tmp_path / "e")) == once
    assert warnings("evaluate", "--checkpoint", str(trained), "--data", str(bad),
                    "--out", str(tmp_path / "d")) == once
    assert warnings("predict", "--checkpoint", ckpt, "--location", cells[0],
                    "--time", "1e9") == once
    assert warnings("matrix", "--config", str(config), "--set", "train.epochs=1",
                    "--axes", "heads", "--out", str(tmp_path / "m")) == once
    assert warnings("build-graph", "--config", str(config), "--set",
                    f'dataset={{"csv": "{training_csv}"}}', "--out", str(tmp_path / "h")) == []


def test_evaluate_data_training_csv_equals_plain_evaluate(tmp_path, trained,
                                                          training_csv):
    assert _test_report(tmp_path, trained, "csv", "--data", str(training_csv)) == \
        _test_report(tmp_path, trained, "plain")


def test_evaluate_data_reads_features_with_checkpoint_stats(tmp_path, trained,
                                                            training_csv):
    # refitted stats would standardize the doubled readings back to the
    # same features; the checkpoint's do not
    doubled = tmp_path / "doubled.csv"
    records = ds.load_records(training_csv).records
    records.pressure *= 2.0
    ds.write_records(doubled, records)
    assert _test_report(tmp_path, trained, "doubled", "--data", str(doubled)) != \
        _test_report(tmp_path, trained, "plain")


# ---------------------------------------------------------------------------
# predict


def test_predict_single_query(tmp_path, trained, capsys):
    config = tr.load_checkpoint(trained).run_config
    records = ds.generate_synthetic(ds.SyntheticConfig(**config["dataset"]["synthetic"]))
    latest = max(r.collect_time for r in records)
    known_loc = records[0].location_id
    assert run_cli("predict", "--checkpoint", str(trained),
                   "--location", str(known_loc), "--time", str(latest + 5.0)) == 0
    value = float(capsys.readouterr().out.strip())
    assert np.isfinite(value)


@pytest.mark.parametrize("location", ["424242", str(2**63)])
def test_predict_unknown_location_exits_2(trained, capsys, location):
    capsys.readouterr()
    assert run_cli("predict", "--checkpoint", str(trained),
                   "--location", location, "--time", "1e9") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: location {location} has no historical observations"]


def test_predict_location_sits_at_its_first_history_row(monkeypatch):
    # GPS jitter: the rows of one location carry different coordinates
    inst = small_instance(25, n=16)
    ctx = tr.InferenceContext(params=inst["params"], model_config=inst["config"],
                              graph_config=inst["graph_cfg"], stats=inst["stats"],
                              schema=inst["schema"])
    ids = inst["records"].location_id.tolist()
    loc = max(set(ids), key=ids.count)
    records = inst["records"].copy()
    at = np.flatnonzero(records.location_id == loc)
    records.longitude_gcj[at] += 2e-4 * np.arange(len(at))
    records.latitude_gcj[at] -= 1e-4 * np.arange(len(at))
    seen = list(zip(records.longitude_gcj[at].tolist(), records.latitude_gcj[at].tolist()))
    assert len(set(seen)) > 1
    nodes = ds.preprocess_records(records, inst["stats"], inst["schema"])
    graph = sg.build_graph(sg.graph_nodes_from_processed(nodes), 1, inst["graph_cfg"])
    real, grown = tr.predict_one, []

    def spy(ctx, graph, *args):
        grown.append(graph)
        return real(ctx, graph, *args)

    monkeypatch.setattr(tr, "predict_one", spy)
    t = graph.t_raw.max() + 2.0
    query = cli._location_query(nodes, loc, t)
    for strategy in ("ignore", "predicted"):
        def forecast(lon, lat):
            placed = records[at[:1]]  # a copy
            placed.longitude_gcj, placed.latitude_gcj, placed.collect_time = lon, lat, t
            return tr.predict_sequence(ctx, graph, nodes, placed, strategy)
        got = tr.predict_sequence(ctx, graph, nodes, query, strategy)
        assert (grown[-1].lon[-1], grown[-1].lat[-1]) == seen[0], strategy
        assert got == forecast(*seen[0])
        assert got != forecast(*seen[-1])


def test_predict_rejects_past_time(tmp_path, trained):
    assert run_cli("predict", "--checkpoint", str(trained),
                   "--location", "0", "--time", "1.0") == 2


@pytest.mark.parametrize("when", ["nan", "inf"])
def test_predict_non_finite_time_exits_2(trained, capsys, when):
    config = tr.load_checkpoint(trained).run_config
    records = ds.generate_synthetic(ds.SyntheticConfig(**config["dataset"]["synthetic"]))
    capsys.readouterr()
    assert run_cli("predict", "--checkpoint", str(trained),
                   "--location", str(records[0].location_id), "--time", when) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


# ---------------------------------------------------------------------------
# matrix


def test_matrix_variant_axis(tmp_path, tiny_config_file):
    out = tmp_path / "m"
    assert run_cli("matrix", "--config", tiny_config_file,
                   "--set", "train.epochs=2", "--axes", "variant",
                   "--out", str(out)) == 0
    with open(out / "matrix.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    assert {r["axis"] for r in rows} == {"variant"}


def test_matrix_sweeps_heads_and_layers(tmp_path, tiny_config_file):
    out = tmp_path / "m2"
    assert run_cli("matrix", "--config", tiny_config_file,
                   "--set", "train.epochs=2", "--axes", "heads,layers",
                   "--out", str(out)) == 0
    with open(out / "matrix.csv", newline="") as fh:
        cells = [r["cell"] for r in csv.DictReader(fh)]
    assert cells == ["H=1", "H=5", "H=10", "L=1", "L=2", "L=3"]


def test_matrix_unknown_axis_usage_error(tmp_path, tiny_config_file):
    assert run_cli("matrix", "--config", tiny_config_file,
                   "--axes", "bogus", "--out", str(tmp_path / "x")) == 2


@pytest.mark.parametrize("override", [
    'dataset={"csv": "no-such-file.csv"}',  # FileNotFoundError
    "split=[0.5,0.6,0.2]",                   # SplitError
    "model.variant=bogus",                   # ModelConfigError
    "graph.top_k=-1",                        # ConstructionError
    "train.lr=-1",                           # TrainConfigError
    "strategy=bogus",                        # RunConfigError
    "graph.bogus=1",                         # RunConfigError
    'model.heads="x"',                       # RunConfigError
    "split=[0.5,0.5]",                       # SplitError
    "split=[0.1,0.9,0.0]",                   # SplitError
    'split=["a","b","c"]',                   # RunConfigError
    "graph.l_res_m=NaN",                     # ConstructionError
    "graph.t_res_days=NaN",                  # ConstructionError
    "model.extractor_hidden=[]",             # ModelConfigError
    "model.head_hidden=0",                   # ModelConfigError
    "model.extractor_hidden=[0,8]",          # ModelConfigError
    "train.lr=NaN",                          # TrainConfigError
    "seed=-1",                               # RunConfigError: removed key
    "train.seed=-1",                         # TrainConfigError
    "train.log_every=-1",                    # TrainConfigError
    "model.eam_gamma=-1",                    # ModelConfigError
    "model.eam_gamma=NaN",                   # ModelConfigError
    "model.eam_gamma=Infinity",              # ModelConfigError
    "dataset.synthetic.seed=-1",             # ConfigError
    "dataset.synthetic.n_records=-5",        # ConfigError
    "dataset.synthetic.n_clusters=0",        # ConfigError
    "dataset.synthetic.route_frac=2",        # ConfigError
    "dataset.synthetic.n_repair_events=-1",  # ConfigError
    "dataset.synthetic.driver_spell_days=[0,0]",  # ConfigError
    "dataset.synthetic.span_days=NaN",       # ConfigError
    "dataset.synthetic.span_days=1e20",      # ConfigError: over the cap
    "dataset.synthetic.n_clusters=4000000000",  # ConfigError: over the cap
    "dataset.synthetic.n_locations=10241",   # ConfigError: over the cap
    "model.reuse_attention=false",           # RunConfigError: removed key
    "features.include_conf=false",           # RunConfigError: removed key
    "dataset.synthetic.extent_deg=0.1",      # RunConfigError: removed key
    "strategy.x=1",                          # UsageError: strategy is no object
    "split.0=0.2",                           # UsageError: split is no object
    "strategy.x.y=1",                        # UsageError: strategy is no object
    'features.env_features=["foo"]',         # SchemaError
    "split=[NaN,0.7,0.3]",                   # SplitError
    "split=[Infinity,-Infinity,1]",          # SplitError
])
def test_bad_input_exits_2_with_one_error_line(tmp_path, tiny_config_file, capsys,
                                               override):
    assert run_cli("build-graph", "--config", tiny_config_file, "--set", override,
                   "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("override", [
    "graph.t_res_days=1e-300", "graph.t_res_days=1e-16", "graph.t_res_days=1e300",
    "graph.l_res_m=1e-300", "graph.l_res_m=1e300", f"graph.top_k={10**18}"])
def test_extreme_graph_settings_build(tmp_path, tiny_config_file, override):
    """Every valid setting finishes: at t_res 1e-16 days and below, time gaps
    of 2^53 t_res once kept a row's reach from growing."""
    assert run_cli("build-graph", "--config", tiny_config_file, "--set", override,
                   "--out", str(tmp_path / "x")) == 0


@pytest.mark.parametrize("key,value,line", [
    ("graph.top_mode", "merged", "error: unknown graph key 'top_mode'"),
    ("model.hidden", 8, "error: unknown model key 'hidden'"),
    ("model.leaky_slope", 0.2, "error: unknown model key 'leaky_slope'"),
    ("dataset.time_format", "iso8601",
     "error: dataset.time_format 'iso8601' needs a csv: synthetic data has no time text"),
], ids=["top_mode", "hidden", "leaky_slope", "synthetic-time_format"])
@pytest.mark.parametrize("source", ["set", "file"])
def test_removed_or_inapplicable_setting_exits_2_naming_it(tmp_path, capsys, key, value,
                                                          line, source):
    """Settings that are constants now (the ranking rule, the hidden width,
    the attention slope), and a time format for a dataset with no time text."""
    doc = tiny_run_config().to_dict()
    section, name = key.split(".")
    overrides = ["--set", f"{key}={json.dumps(value)}"]
    if source == "file":
        doc[section][name] = value
        overrides = []
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("build-graph", "--config", str(config), *overrides,
                   "--out", str(tmp_path / "x")) == 2
    assert capsys.readouterr().err.strip().splitlines() == [line]


@pytest.mark.parametrize("content", [b'{"seed": 1,', b'{"seed": "\xe9"}'],
                         ids=["not-json", "not-utf8"])
def test_unreadable_config_file_exits_2_with_one_error_line(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert run_cli("build-graph", "--config", str(path), "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: --config {path} ")


@pytest.mark.parametrize("argv", [
    ("build-graph", "--config", "{dir}", "--out", "{out}"),
    ("predict", "--checkpoint", "{dir}", "--location", "1", "--time", "5"),
    ("build-graph", "--config", "{config}", "--set", "dataset.csv={dir}", "--out", "{out}"),
], ids=["config", "checkpoint", "dataset-csv"])
def test_directory_path_exits_2_with_one_error_line(tmp_path, tiny_config_file, capsys,
                                                    argv):
    names = dict(dir=str(tmp_path), out=str(tmp_path / "x"), config=tiny_config_file)
    assert run_cli(*(arg.format(**names) for arg in argv)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "Is a directory" in err[0]


def rewrite_manifest(path, edit):
    """The checkpoint at path with edit applied to its manifest; the parameter
    sections and their checksums stay as they are."""
    raw = path.read_bytes()
    mlen = int(np.frombuffer(raw[12:20], dtype="<u8")[0])
    manifest = json.loads(raw[20:20 + mlen])
    edit(manifest)
    mbytes = json.dumps(manifest).encode()
    path.write_bytes(raw[:12] + np.uint64(len(mbytes)).tobytes() + mbytes + raw[20 + mlen:])


@pytest.mark.parametrize("edit,section", [
    (lambda m: m["graph_config"].update(bogus=1), "graph_config"),
    (lambda m: m.pop("stats"), "stats"),
    (lambda m: m["model_config"].update(heads="5"), "model_config"),
    (lambda m: m["feature_schema"].update(env_features=["foo"]), "feature_schema"),
], ids=["extra-key", "missing-section", "text-for-int", "unknown-env-feature"])
def test_malformed_checkpoint_manifest_exits_2_naming_the_section(tmp_path, tiny_config_file,
                                                                 capsys, edit, section):
    out = tmp_path / "one"
    assert run_cli("train", "--config", tiny_config_file, "--set", "train.epochs=1",
                   "--out", str(out)) == 0
    rewrite_manifest(out / "model.ckpt", edit)
    capsys.readouterr()
    assert run_cli("predict", "--checkpoint", str(out / "model.ckpt"),
                   "--location", "0", "--time", "1e9") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: manifest") and f" {section} " in err[0]


@pytest.fixture(scope="module")
def one_epoch_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("one_epoch")
    config = out / "run.json"
    config.write_text(json.dumps(tiny_run_config().to_dict()))
    assert run_cli("train", "--config", str(config), "--set", "train.epochs=1",
                   "--out", str(out)) == 0
    return out / "model.ckpt"


def _drop_stats_feature(manifest, name):
    del manifest["stats"]["features"][name]


_EVERY_FEATURE = ", ".join(ds.NUMERIC_FEATURES)


@pytest.mark.parametrize("edit,section,detail", [
    (lambda m: m["model_config"].update(heads=2.0), "model_config",
     "RunConfigError: model_config.heads must be int, got 2.0"),
    (lambda m: m["model_config"].update(layers=1.0), "model_config",
     "RunConfigError: model_config.layers must be int, got 1.0"),
    (lambda m: m["model_config"].update(extractor_hidden=[6.0, 8.0]), "model_config",
     "RunConfigError: model_config.extractor_hidden must be tuple[int, ...], got [6.0, 8.0]"),
    (lambda m: m["model_config"].update(heads=True), "model_config",
     "RunConfigError: model_config.heads must be int, got True"),
    (lambda m: m["feature_schema"].update(env_features="min_tem"), "feature_schema",
     "RunConfigError: feature_schema.env_features must be tuple[str, ...], got 'min_tem'"),
    (lambda m: m["graph_config"].update(top_k=2.0), "graph_config",
     "RunConfigError: graph_config.top_k must be int, got 2.0"),
    (lambda m: m["train_config"].update(epochs=3.5), "train_config",
     "RunConfigError: train_config.epochs must be int, got 3.5"),
    (lambda m: m["adam"].update(t=1.5), "adam", "RunConfigError: adam.t must be int, got 1.5"),
    (lambda m: m.update(loss_trace="abc"), "loss_trace",
     "RunConfigError: loss_trace must be list[float], got 'abc'"),
    (lambda m: m.update(final_train_mae="1.5"), "final_train_mae",
     "RunConfigError: final_train_mae must be float, got '1.5'"),
    (lambda m: m.update(attention_max_dev="x"), "attention_max_dev",
     "RunConfigError: attention_max_dev must be float | None, got 'x'"),
    (lambda m: _drop_stats_feature(m, "detect_info"), "stats",
     f"SchemaError: stats need a mean and a std for exactly {_EVERY_FEATURE}"),
    (lambda m: m["stats"]["features"]["humidity"].update(std=None), "stats",
     "SchemaError: stats humidity std must be a finite number, got None"),
    (lambda m: m["stats"]["features"]["wind"].update(std=-1.0), "stats",
     "SchemaError: stats need every std >= 0 and t_min <= t_max"),
    (lambda m: m["stats"].update(t_min="x"), "stats",
     "SchemaError: stats t_min must be a finite number, got 'x'"),
    (lambda m: m["stats"].update(t_max=math.nan), "stats",
     "SchemaError: stats t_max must be a finite number, got nan"),
], ids=["heads-float", "layers-float", "extractor-floats", "heads-bool", "env-features-text",
        "top-k-float", "epochs-float", "adam-t-float", "loss-trace-text", "final-mae-text",
        "attention-dev-text", "stats-feature-missing", "stats-std-null", "stats-std-negative",
        "stats-t-min-text", "stats-t-max-nan"])
def test_manifest_value_of_the_wrong_type_exits_2_naming_the_section(
        tmp_path, one_epoch_checkpoint, capsys, edit, section, detail):
    """The checksums cover the parameters only: every manifest value goes
    through the config reader or its section's own check, and a bad one is
    named on one line instead of failing later or changing forecasts."""
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(one_epoch_checkpoint.read_bytes())
    rewrite_manifest(ckpt, edit)
    capsys.readouterr()
    assert run_cli("evaluate", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: manifest section {section} is malformed: {detail}"]


@pytest.mark.parametrize("argv,line", [
    (("gen-data", "--config", "{config}", "--set", "dataset.csv=data.csv", "--out", "{out}"),
     "error: gen-data needs a synthetic dataset config"),
    (("gen-data", "--config", "{config}", "--set", "dataset.synthetic.n_locations=4",
      "--set", "dataset.synthetic.n_clusters=1", "--set", "dataset.synthetic.route_frac=0.0",
      "--set", "dataset.synthetic.span_days=36500.0",
      "--set", "dataset.synthetic.n_records=1000", "--out", "{out}"),
     "error: cannot reach n_records=1000 within span_days=36500.0; raise mean_visits or span"),
    (("matrix", "--config", "{config}", "--axes", "", "--out", "{out}"),
     "error: matrix needs at least one axis"),
    (("evaluate", "--checkpoint", "{bare}", "--out", "{out}"),
     "error: checkpoint carries no run config; cannot rebuild the graph"),
    (("train", "--config", "{config}", "--set", "model.head_hidden=1000000000000",
      "--set", "train.epochs=1", "--out", "{out}"),
     "error: the model would hold 18,000,000,000,285 parameters, above the cap of 134,217,728"),
    (("train", "--config", "{config}", "--set", "model.layers=1000000000000",
      "--set", "train.epochs=1", "--out", "{out}"),
     "error: layers must be in [1, 300], got 1000000000000"),
], ids=["gen-data-on-csv", "gen-data-short-table", "matrix-no-axes",
        "checkpoint-without-run-config", "oversized-head", "too-many-layers"])
def test_usage_error_exits_2_naming_it(tmp_path, tiny_config_file, one_epoch_checkpoint,
                                       capsys, argv, line):
    bare = tmp_path / "model.ckpt"
    bare.write_bytes(one_epoch_checkpoint.read_bytes())
    rewrite_manifest(bare, lambda m: m.pop("run_config"))
    names = dict(config=tiny_config_file, out=str(tmp_path / "x"), bare=str(bare))
    capsys.readouterr()
    assert run_cli(*(arg.format(**names) for arg in argv)) == 2
    assert capsys.readouterr().err.strip().splitlines() == [line]


@pytest.mark.parametrize("value,line", [
    ("model.heads=1001", "error: heads must be in [1, 1000], got 1001"),
    ("model.layers=301", "error: layers must be in [1, 300], got 301"),
    (f"model.extractor_hidden={[1] * 201}",
     "error: len(extractor_hidden) must be in [1, 200], got 201"),
], ids=["heads-1001", "layers-301", "depth-201"])
def test_model_size_past_its_range_exits_2_before_any_data(tmp_path, tiny_config_file, capsys,
                                                           value, line):
    """At width 1 each value fits the parameter cap: only its range stops it,
    where the config is read, before any output or data."""
    out = tmp_path / "x"
    capsys.readouterr()
    assert run_cli("train", "--config", tiny_config_file, "--set", "model.extractor_hidden=[1]",
                   "--set", "model.head_hidden=1", "--set", value, "--out", str(out)) == 2
    assert capsys.readouterr().err.strip().splitlines() == [line]
    assert not out.exists()


def test_a_model_over_the_parameter_cap_exits_2_before_any_data(tmp_path, capsys,
                                                                 monkeypatch):
    """The cap is checked where the config is read: no records are made and
    --out is not created."""
    def no_data(*args, **kwargs):
        raise AssertionError("records were generated")

    monkeypatch.setattr(ds, "generate_synthetic", no_data)
    out = tmp_path / "D"
    capsys.readouterr()
    assert run_cli("train", "--benchmark", "--set", "model.head_hidden=1000000000000",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: the model would hold 242,000,000,003,438 parameters, "
        "above the cap of 134,217,728"]
    assert not out.exists()


def test_version_3_checkpoint_exits_2_naming_its_version(tmp_path, one_epoch_checkpoint,
                                                        capsys):
    ckpt = tmp_path / "model.ckpt"
    raw = one_epoch_checkpoint.read_bytes()
    ckpt.write_bytes(raw[:8] + np.uint32(3).tobytes() + raw[12:])
    capsys.readouterr()
    assert run_cli("evaluate", "--checkpoint", str(ckpt), "--out", str(tmp_path / "e")) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: checkpoint version 3, this build reads 4"]


@pytest.mark.parametrize("edit,param", [
    (lambda m: m["model_config"].update(heads=1), "head0_w"),
    (lambda m: m["model_config"].update(extractor_hidden=[6, 6]), "ext_full1_w"),
    (lambda m: m.__setitem__("sections", [e for e in m["sections"]
                                          if e["name"] != "param:head1_b"]), "head1_b"),
    (lambda m: m["model_config"].update(heads=10**12), "heads"),
], ids=["heads-2-to-1", "hidden-8-to-6", "section-dropped", "heads-2-to-1e12"])
def test_checkpoint_whose_config_does_not_fit_its_parameters_exits_2(tmp_path, tiny_config_file,
                                                                      capsys, edit, param):
    """The checksums cover the parameters' bytes, not the config that reads
    them: an edited config, or a parameter missing from the manifest, is
    named on one line instead of failing inside the forward pass."""
    out = tmp_path / "one"
    assert run_cli("train", "--config", tiny_config_file, "--set", "train.epochs=1",
                   "--out", str(out)) == 0
    rewrite_manifest(out / "model.ckpt", edit)
    capsys.readouterr()
    assert run_cli("predict", "--checkpoint", str(out / "model.ckpt"),
                   "--location", "0", "--time", "1e9") == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and f" {param}" in err[0]


@pytest.mark.parametrize("edit,section", [
    (lambda m: m["run_config"]["model"].update(variant="gat"), "model_config"),
    (lambda m: m["run_config"]["graph"].update(l_res_m=5000.0), "graph_config"),
    (lambda m: m["run_config"]["features"]["env_features"].pop(), "feature_schema"),
], ids=["variant-gat", "l_res_m-5000", "env-feature-dropped"])
def test_run_config_that_disagrees_with_its_checkpoint_exits_2(tmp_path, tiny_config_file,
                                                               capsys, edit, section):
    """evaluate rebuilds the data and graph from run_config, predict from the
    sections the model was trained under: the two must agree."""
    out = tmp_path / "one"
    assert run_cli("train", "--config", tiny_config_file, "--set", "train.epochs=1",
                   "--out", str(out)) == 0
    rewrite_manifest(out / "model.ckpt", edit)
    capsys.readouterr()
    assert run_cli("evaluate", "--checkpoint", str(out / "model.ckpt"),
                   "--out", str(tmp_path / "eval")) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: manifest section run_config ") \
        and f" {section} " in err[0]


def test_non_utf8_csv_exits_2_naming_the_file(tmp_path, tiny_config_file, capsys):
    out = tmp_path / "data"
    assert run_cli("gen-data", "--config", tiny_config_file, "--out", str(out)) == 0
    csv_path = out / "data.csv"
    csv_path.write_bytes(csv_path.read_bytes().replace(b"\n", b"\xe9\n", 3))
    capsys.readouterr()
    assert run_cli("build-graph", "--config", tiny_config_file,
                   "--set", f"dataset.csv={csv_path}", "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "data.csv is not UTF-8" in err[0]


def test_diverging_training_exits_2_with_one_error_line(tmp_path, tiny_config_file,
                                                        capsys):
    # a finite lr this large overflows the weights after one step
    with np.errstate(over="ignore", invalid="ignore"):
        assert run_cli("train", "--config", tiny_config_file, "--set", "train.lr=1e200",
                       "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: loss became non-finite")


def test_diverging_training_prints_no_numpy_warning(tmp_path, tiny_config_file, capsys):
    assert run_cli("train", "--config", tiny_config_file, "--set", "train.lr=1e200",
                   "--out", str(tmp_path / "x")) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


def test_predict_has_no_strategy_flag(trained):
    with pytest.raises(SystemExit):
        run_cli("predict", "--checkpoint", str(trained), "--location", "0",
                "--time", "1e9", "--strategy", "true")


def test_set_flag_requires_key_value(tmp_path, tiny_config_file):
    assert run_cli("gen-data", "--config", tiny_config_file,
                   "--set", "oops", "--out", str(tmp_path / "x")) == 2
