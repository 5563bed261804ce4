import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from conftest import tiny_run_config

ROOT = Path(__file__).resolve().parent.parent
_PATH = ROOT / "tools" / "same_bytes.py"
_spec = importlib.util.spec_from_file_location("same_bytes", _PATH)
same_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_bytes)


def test_differences_name_changed_and_one_sided_files_but_not_timings(tmp_path):
    a, b = tmp_path / "parent", tmp_path / "change"
    for root, body in ((a, "1"), (b, "2")):
        (root / "run").mkdir(parents=True)
        (root / "run" / "same.txt").write_text("x")
        (root / "run" / "moved.txt").write_text(body)
        (root / "run" / "timings.csv").write_text(body)
    (a / "gone.txt").write_text("x")
    (b / "run" / "new.txt").write_text("x")
    assert same_bytes.differences(a, b) == [
        "only in parent: gone.txt", "only in change: run/new.txt", "differs: run/moved.txt"]


def test_a_csv_or_json_that_moved_only_in_its_numbers_says_how_far(tmp_path):
    a, b = tmp_path / "parent", tmp_path / "change"
    digest = "0123456789abcdef" * 4
    files = {
        "loss.csv": ("epoch,loss\n0,2.5\n1,-1.25e-3\n2,7\n",
                     "epoch,loss\n0,2.5\n1,-1.5e-3\n2,7.0\n"),
        "report.json": ('{"mae": 0.5, "run": "stgan-L1"}', '{"mae": 0.4, "run": "stgan-L1"}'),
        "renamed.json": ('{"mae": 0.5, "run": "stgan-L1"}', '{"mae": 0.5, "run": "stgan-L2"}'),
        "manifest.json": (f'{{"loss.csv": "{digest}"}}',
                          f'{{"loss.csv": "{digest.replace("0123", "0124")}"}}'),
        "grew.csv": ("x\n1\n", "x\n1\n2\n"),
        "moved.txt": ("1.0", "2.0"),
    }
    for root, side in ((a, 0), (b, 1)):
        root.mkdir()
        for name, texts in files.items():
            (root / name).write_text(texts[side])
    assert same_bytes.differences(a, b) == [
        "differs: grew.csv",
        "differs: loss.csv (1 of 6 numbers moved, at most 0.17 relative)",
        "differs: manifest.json",
        "differs: moved.txt",
        "differs: renamed.json",
        "differs: report.json (1 of 1 numbers moved, at most 0.2 relative)"]


def test_this_checkout_against_itself_on_the_tiny_config(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(tiny_run_config().to_dict()))
    work = tmp_path / "work"
    done = subprocess.run([sys.executable, str(_PATH), str(ROOT), str(ROOT),
                           "--config", str(config), "--variants", "stgan", "--layers", "1",
                           "--epochs", "2", "--work", str(work)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith(", 0 differ\n")
    run = work / "parent" / "stgan-L1"
    assert (run / "train" / "model.ckpt").is_file()
    assert (run / "evaluate-train" / "report_train.json").is_file()
    assert all((run / f"evaluate-{s}" / "report_test.json").is_file()
               for s in same_bytes.STRATEGIES)
    assert (run / "predict" / "console.txt").read_text().startswith("exit 0\n")
    assert (work / "parent" / "build-graph" / "graph.json").is_file()
