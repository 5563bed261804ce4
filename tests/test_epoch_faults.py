import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "epoch_faults.py"


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          timeout=120)


def test_tiny_run_reports_every_epoch_and_passes_env_to_its_child():
    proc = run_tool("--records", "140", "--locations", "40", "--epochs", "3", "--runs", "2",
                    "--env", "MALLOC_MMAP_THRESHOLD_=131072")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["env"] == {"MALLOC_MMAP_THRESHOLD_": "131072"}
    assert (result["runs"], result["epochs"], result["later_samples"]) == (2, 3, 4)
    assert result["nodes"] > 0 and result["edges"] > result["nodes"]
    assert result["first_ms_p50"] > 0 and result["later_ms_p50"] > 0
    assert result["first_faults_p50"] >= 0 and result["later_faults_p50"] >= 0
    assert lines[0] == "child env: MALLOC_MMAP_THRESHOLD_=131072"


def test_malformed_env_pair_exits_2():
    proc = run_tool("--env", "NO_EQUALS_SIGN")
    assert proc.returncode == 2 and "KEY=VALUE" in proc.stderr
