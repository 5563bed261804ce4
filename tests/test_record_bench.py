import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "record_bench.py"
_spec = importlib.util.spec_from_file_location("record_bench", _PATH)
record_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record_bench)


class Reached(Exception):
    """Raised in place of the first git call: the checks before it passed."""


@pytest.fixture
def no_git(monkeypatch):
    def stop(*_args):
        raise Reached
    monkeypatch.setattr(record_bench, "_git", stop)


def dirs(root, *names):
    for name in names:
        (root / name).mkdir()
    return [str(root / name) for name in names]


def test_checkouts_at_paths_of_different_lengths_exit_2(tmp_path, no_git, capsys):
    assert record_bench.main(dirs(tmp_path, "a", "bb")) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "length" in err[0]


def test_checkouts_at_paths_of_one_length_are_measured(tmp_path, no_git):
    with pytest.raises(Reached):
        record_bench.main(dirs(tmp_path, "a", "b"))


def test_path_lengths_are_compared_after_resolving(tmp_path, no_git):
    a, long = dirs(tmp_path, "a", "long")
    (tmp_path / "b").symlink_to(long)
    assert record_bench.main([a, str(tmp_path / "b")]) == 2
