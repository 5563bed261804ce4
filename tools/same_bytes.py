"""Byte identity of the CLI's artifacts between two checkouts.

    python3 tools/same_bytes.py PARENT CHANGE [--config FILE] [--epochs 10]
        [--variants V,V,...] [--layers 1,2] [--work DIR]

Runs one list of `pavecast.cli` commands in each checkout (its src directory
on PYTHONPATH, BLAS with one thread), PARENT's first, and compares what they
write. The list, on the reference benchmark config (--benchmark) or --config
FILE:
- `gen-data` and `build-graph`;
- per variant (by default every name in CHANGE's model.VARIANTS) and per
  layer count: `train` for --epochs epochs, then `evaluate` of its
  checkpoint under the strategies ignore, true and predicted and with
  `--split train`, and one `predict`, at the location of data.csv's first
  record one day after its last.

Each command writes its artifacts under its own directory, and its exit
status, stdout and stderr to that directory's `console.txt`. Both sides
write to one path, WORK/out, moved to WORK/parent or WORK/change afterwards,
since the commands print the paths they write. It prints
every file that differs or is on one side only, other than `timings.csv`,
and exits 1 if there is one, 0 if not. A differing `.csv` or `.json` file
whose text is the same once its numbers are masked is reported with how
many of its numbers moved and the largest relative change, relative to the
larger magnitude; a hex digest, such as a manifest's, counts as text. The
config must describe a synthetic dataset, since predict's query is read
from gen-data's data.csv.
Without --work, the work directory is a temporary one, deleted at the end.
Uses the standard library only.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

STRATEGIES = ("ignore", "true", "predicted")
UNCOMPARED = {"timings.csv"}  # wall-clock times
NUMERIC_SUFFIXES = (".csv", ".json")
# a decimal number not joined to a letter, digit, "_" or "." on either side,
# so the digit runs inside a hex digest or a name like "stgan-L1" stay text
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def _python(checkout: Path, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(checkout / "src")}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def variants_of(checkout: Path) -> list[str]:
    done = _python(checkout, ["-c", "from pavecast.model import VARIANTS; print(*VARIANTS)"],
                   checkout)
    if done.returncode:
        raise RuntimeError(f"cannot read the variants of {checkout}: {done.stderr.strip()}")
    return done.stdout.split()


def predict_query(data_csv: Path) -> tuple[str, str]:
    """(location, time) of a query at data.csv's first record, one day after its last."""
    with open(data_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    last = max(float(row["collect_time"]) for row in rows)
    return rows[0]["location_id"], repr(last + 1.0)


def commands(config: list[str], variants, layers, epochs: int, out: Path, query):
    """(directory, cli arguments) per command after gen-data, in run order;
    query is predict's (location, time)."""
    yield "build-graph", ["build-graph", *config, "--out", str(out / "build-graph")]
    for variant in variants:
        for n_layers in layers:
            run = f"{variant}-L{n_layers}"
            ckpt = str(out / run / "train" / "model.ckpt")
            yield f"{run}/train", ["train", *config, "--set", f"model.variant={variant}",
                                   "--set", f"model.layers={n_layers}",
                                   "--set", f"train.epochs={epochs}",
                                   "--out", str(out / run / "train")]
            for strategy in STRATEGIES:
                yield f"{run}/evaluate-{strategy}", [
                    "evaluate", "--checkpoint", ckpt, "--strategy", strategy,
                    "--out", str(out / run / f"evaluate-{strategy}")]
            yield f"{run}/evaluate-train", ["evaluate", "--checkpoint", ckpt, "--split",
                                            "train", "--out", str(out / run / "evaluate-train")]
            yield f"{run}/predict", ["predict", "--checkpoint", ckpt,
                                     "--location", query[0], "--time", query[1]]


def run_side(checkout: Path, config, variants, layers, epochs: int, out: Path,
             query=None) -> tuple[str, str]:
    """Every command, run from checkout into out; returns predict's query,
    read from this side's data.csv unless given."""
    out.mkdir()

    def run(name, args):
        done = _python(checkout, ["-m", "pavecast.cli", *args], out)
        (out / name).mkdir(parents=True, exist_ok=True)
        (out / name / "console.txt").write_text(
            f"exit {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n{done.stderr}",
            encoding="utf-8")
        return done

    done = run("gen-data", ["gen-data", *config, "--out", str(out / "gen-data")])
    if query is None:
        if done.returncode:
            raise RuntimeError(f"gen-data exited {done.returncode}: {done.stderr.strip()}")
        query = predict_query(out / "gen-data" / "data.csv")
    for name, args in commands(config, variants, layers, epochs, out, query):
        run(name, args)
    return query


def numeric_move(a: Path, b: Path) -> tuple[int, int, float] | None:
    """(numbers whose values differ, numbers, largest relative change) of two
    files whose texts agree once their numbers are masked; None if they do
    not, or if either is not UTF-8."""
    try:
        text_a, text_b = (p.read_text(encoding="utf-8") for p in (a, b))
    except UnicodeDecodeError:
        return None
    if NUMBER.sub("#", text_a) != NUMBER.sub("#", text_b):
        return None
    pairs = [(float(x), float(y)) for x, y in zip(NUMBER.findall(text_a), NUMBER.findall(text_b))]
    moved = [abs(x - y) / max(abs(x), abs(y)) for x, y in pairs if x != y]
    return len(moved), len(pairs), max(moved, default=0.0)


def differs(a: Path, b: Path, name: str) -> str:
    move = numeric_move(a / name, b / name) if name.endswith(NUMERIC_SUFFIXES) else None
    if move is None:
        return f"differs: {name}"
    return f"differs: {name} ({move[0]} of {move[1]} numbers moved, at most {move[2]:.2g} relative)"


def differences(a: Path, b: Path) -> list[str]:
    """One line per file under a or b, other than UNCOMPARED ones, whose
    bytes differ or that only one of them holds."""
    files = {side: {p.relative_to(root).as_posix() for p in root.rglob("*")
                    if p.is_file() and p.name not in UNCOMPARED}
             for side, root in (("a", a), ("b", b))}
    lines = [f"only in {a.name}: {f}" for f in sorted(files["a"] - files["b"])]
    lines += [f"only in {b.name}: {f}" for f in sorted(files["b"] - files["a"])]
    lines += [differs(a, b, f) for f in sorted(files["a"] & files["b"])
              if not filecmp.cmp(a / f, b / f, shallow=False)]
    return lines


def compare(parent: Path, change: Path, work: Path, config, variants, layers,
            epochs: int) -> int:
    out = work / "out"
    query = run_side(parent, config, variants, layers, epochs, out)
    a = out.rename(work / "parent")
    run_side(change, config, variants, layers, epochs, out, query)
    b = out.rename(work / "change")
    lines = differences(a, b)
    compared = sum(1 for p in a.rglob("*") if p.is_file() and p.name not in UNCOMPARED)
    for line in lines:
        print(line)
    print(f"{compared} files compared under {a} and {b}, {len(lines)} differ")
    return 1 if lines else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout whose artifacts are the reference")
    parser.add_argument("change", type=Path, help="checkout compared with it")
    parser.add_argument("--config", type=Path, help="run config JSON (default: --benchmark)")
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--variants", help="comma-separated (default: every variant)")
    parser.add_argument("--layers", default="1,2", help="comma-separated layer counts")
    parser.add_argument("--work", type=Path, help="work directory, kept (default: a "
                                                  "temporary one, deleted)")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    for checkout in (parent, change):
        if not (checkout / "src" / "pavecast" / "cli.py").is_file():
            print(f"error: {checkout} holds no src/pavecast/cli.py", file=sys.stderr)
            return 2
    config = ["--config", str(args.config.resolve())] if args.config else ["--benchmark"]
    layers = [int(n) for n in args.layers.split(",")]
    if args.work is not None:
        args.work.mkdir(parents=True, exist_ok=True)
        if any(args.work.iterdir()):
            print(f"error: --work {args.work} is not empty", file=sys.stderr)
            return 2
    try:
        variants = args.variants.split(",") if args.variants else variants_of(change)
        if args.work is not None:
            return compare(parent, change, args.work.resolve(), config, variants, layers,
                           args.epochs)
        with tempfile.TemporaryDirectory(prefix="same_bytes_") as work:
            return compare(parent, change, Path(work), config, variants, layers, args.epochs)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
