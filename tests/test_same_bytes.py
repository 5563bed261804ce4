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
