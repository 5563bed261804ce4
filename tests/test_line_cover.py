import importlib.util
import subprocess
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "line_cover.py"
_spec = importlib.util.spec_from_file_location("line_cover", _PATH)
line_cover = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_cover)


def test_executable_lines_are_the_statements_with_bytecode(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text('"""Doc."""\n\n\ndef f(x):\n    """Doc."""\n    # note\n'
                    '    if x:\n        return 1\n    return [y\n            for y in x]\n')
    assert line_cover.executable_lines(path) == {1, 4, 7, 8, 9, 10}
    assert line_cover._spans([1, 4, 7, 8, 9, 10]) == "1, 4, 7-10"


def line_of(module, text):
    """The number of the first line of src/pavecast/module holding text."""
    lines = (line_cover.SRC / module).read_text().splitlines()
    return next(i for i, line in enumerate(lines, 1) if text in line)


def numbers(spans):
    """The line numbers of "3, 7-9"."""
    out = set()
    for span in spans.split(", "):
        a, _, b = span.partition("-")
        out.update(range(int(a), int(b or a) + 1))
    return out


def test_census_of_one_test_file_names_what_it_skips():
    """A run of test_config.py reaches read_config's unknown-key error, and
    never prepare_tensors' length check."""
    done = subprocess.run([sys.executable, str(_PATH), "-q", "-p", "no:cacheprovider",
                           "tests/test_config.py"], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    out = done.stdout.splitlines()
    missed = {name: numbers(spans) for name, spans in
              (line.split(": ", 1) for line in out if line.startswith("src/pavecast/"))}
    assert line_of("model.py", "nodes for a graph of") in missed["src/pavecast/model.py"]
    assert line_of("config.py", "unknown {section} key") \
        not in missed.get("src/pavecast/config.py", set())
    assert any(line.startswith("line census: ") for line in out)
