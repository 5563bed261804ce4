"""Line census: the executable statements of src/pavecast that a test run never runs.

    python3 tools/line_cover.py [PYTEST_ARG ...]

Runs pytest in this process, by default on the tier-1 suite (the testpaths
of pyproject.toml), under a sys.settrace tracer that records every line of
src/pavecast that runs. It then prints, per module, the executable lines
that never ran, one summary line, and exits with pytest's status.

A line is executable if the compiler gives it bytecode: the line table of
the module's code objects, nested ones included. So a blank line, a comment
or a function's docstring never shows, and a def line counts as run once
its module is imported.

The census sees in-process code only. A statement that runs only in a
child process, such as a test's `python -m pavecast.cli` subprocess or
perfbench's worker, shows as never run. Tracing makes the suite several
times slower.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pavecast"


def executable_lines(path) -> set[int]:
    """The line numbers the compiler gives bytecode in the Python file at path."""
    code = compile(Path(path).read_text(encoding="utf-8"), str(path), "exec")
    lines, todo = set(), [code]
    while todo:
        co = todo.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        todo += [c for c in co.co_consts if isinstance(c, types.CodeType)]
    return lines


def _spans(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9"."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


class Census:
    """A pytest plugin that reports the lines under root that never ran.

    start() installs the tracer, in this thread and in threads started
    later, and stop() removes it. Start it before pavecast is imported,
    or its module-level lines show as never run.
    """

    def __init__(self, root: Path = SRC):
        self.root = root.resolve()
        self.hits: dict[str, set[int]] = {}  # resolved path -> lines run
        self._seen: dict[str, set[int] | None] = {}  # co_filename -> its hits, or None

    def _lines_of(self, filename):
        if filename not in self._seen:
            path = Path(filename).resolve()
            self._seen[filename] = (self.hits.setdefault(str(path), set())
                                    if path.is_relative_to(self.root) else None)
        return self._seen[filename]

    def _trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename is None:  # a frame run at interpreter exit can carry none
            return None
        lines = self._lines_of(filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def start(self) -> None:
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def missed(self) -> dict[str, list[int]]:
        """Per module under root, relative to ROOT, its executable lines never run."""
        out = {}
        for path in sorted(self.root.rglob("*.py")):
            lines = sorted(executable_lines(path) - self.hits.get(str(path), set()))
            if lines:
                out[path.relative_to(ROOT).as_posix()] = lines
        return out

    def pytest_terminal_summary(self, terminalreporter):
        missed = self.missed()
        total = sum(len(executable_lines(p)) for p in self.root.rglob("*.py"))
        not_run = sum(map(len, missed.values()))
        terminalreporter.section("line census")
        for name, lines in missed.items():
            terminalreporter.write_line(f"{name}: {_spans(lines)}")
        terminalreporter.write_line(f"line census: {total - not_run} of {total} executable "
                                    f"lines run, {not_run} not run in {len(missed)} files")


def main(argv=None) -> int:
    census = Census()
    census.start()
    try:
        status = pytest.main(sys.argv[1:] if argv is None else argv, plugins=[census])
    finally:
        census.stop()
    return int(status)


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
