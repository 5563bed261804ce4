"""Record benchmark points as BENCH_<commit>.json, one file per checkout.

    python3 tools/record_bench.py [CHECKOUT ...]
    python3 tools/record_bench.py --chain BEFORE.json AFTER.json [BEFORE.json AFTER.json ...]

Runs `python3 perfbench/run.py --workload W --seed S --seconds 15 --trace 0`
for seeds 0..9 and every workload, in each CHECKOUT (default: this
repository). The checkouts take turns run by run, and which one goes first
rotates seed by seed, so a drift of the host's speed reaches them alike.
Each BENCH_<short commit>.json, written into the root of this repository,
holds the host, the command, every run's raw end-to-end metrics and
operation counts, and per workload and metric the median and quartiles
over the seeds. Given two checkouts, a before and an after, it also
prints per workload on how many seeds the second beat the first, per
metric, each side's failed operations over its runs, the end-to-end
metrics whose median in the second is worse than in the first by more
than the metric's BENCHMARK.json bound (a share of the first's median),
those whose median in the second lies outside the first's
interquartile range on the worse side, and the gains that meet the rule a
claim must meet: the second wins at least 9 of 10 seeds, and its median is
better than the first's by more than the first's q3 - q1.
The checkouts' resolved paths must have one length, since that
length alone moves `peak_rss_mb` (it exits 2 otherwise).

With --chain it measures nothing: it reads committed BENCH files as
(before, after) pairs, each pair recorded together (one `measured_with`;
it exits 2 otherwise), and prints per workload and end-to-end metric each
pair's ratio of medians, after over before, and the product of those
ratios: the net change over the pairs' commits. Files of different
recordings are never compared with each other.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-2k", "autoregress-2k", "bulk-8k")
SEEDS = range(10)
SECONDS = 15


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def host() -> dict:
    cpu = "?"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "?")
    except OSError:
        pass
    return {"machine": platform.machine(), "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version()}


def run_once(repo: Path, workload: str, seed: int) -> dict:
    """One perfbench run: its env line and its result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=repo, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next((line[len("env: "):] for line in lines if line.startswith("env: ")), "")
    return {"seed": seed, "env": env, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def summarize(runs: list[dict]) -> dict:
    """Median and quartiles of each metric over the runs."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        out[name] = {"median": median, "q1": q1, "q3": q3}
    return out


def end_to_end() -> list[dict]:
    """BENCHMARK.json's end-to-end metrics: name, unit, better and bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def wins(before: list[dict], after: list[dict], metrics: list[dict]) -> dict:
    """Per metric, on how many seeds the runs `after` beat the runs `before`."""
    better = {m["name"]: m["better"] for m in metrics}
    count = {}
    for name, sense in better.items():
        pairs = [(b["metrics"][name], a["metrics"][name]) for b, a in zip(before, after)]
        count[name] = sum(new > old if sense == "higher" else new < old for old, new in pairs)
    return count


def gains(before: list[dict], after: list[dict], metrics: list[dict]) -> list[str]:
    """The metrics on which the runs `after` meet the gain rule against the
    runs `before`: they win at least nine tenths of the seeds, ties counting
    for neither, and their median is better than before's by more than
    before's interquartile range."""
    won = wins(before, after, metrics)
    old, new = summarize(before), summarize(after)
    better = []
    for m in metrics:
        q, median = old[m["name"]], new[m["name"]]["median"]
        ahead = q["median"] - median if m["better"] == "lower" else median - q["median"]
        if 10 * won[m["name"]] >= 9 * len(before) and ahead > q["q3"] - q["q1"]:
            better.append(m["name"])
    return better


def over_bound(before: dict, after: dict, metrics: list[dict]) -> list[str]:
    """The metrics whose median in the summary `after` is worse than in
    `before` by more than the metric's bound, a share of before's median."""
    worse = []
    for m in metrics:
        old, new = before[m["name"]]["median"], after[m["name"]]["median"]
        if (new > old * (1 + m["bound"]) if m["better"] == "lower"
                else new < old * (1 - m["bound"])):
            worse.append(m["name"])
    return worse


def outside_quartiles(before: dict, after: dict, metrics: list[dict]) -> list[str]:
    """The metrics whose median in the summary `after` lies outside before's
    interquartile range on the worse side: over its q3 where lower is
    better, under its q1 where higher is."""
    worse = []
    for m in metrics:
        old, new = before[m["name"]], after[m["name"]]["median"]
        if new > old["q3"] if m["better"] == "lower" else new < old["q1"]:
            worse.append(m["name"])
    return worse


def chain(paths: list[Path]) -> int:
    """Print each (before, after) pair's ratio of medians and their product."""
    docs = [json.loads(path.read_text()) for path in paths]
    if len(docs) % 2:
        print("error: --chain reads BENCH files in (before, after) pairs, "
              f"got {len(docs)} files", file=sys.stderr)
        return 2
    for i in range(0, len(docs), 2):
        if docs[i]["measured_with"] != docs[i + 1]["measured_with"]:
            print(f"error: {paths[i].name} and {paths[i + 1].name} come from different "
                  "recordings", file=sys.stderr)
            return 2
    pairs = list(zip(docs[::2], docs[1::2]))
    print("pairs: " + ", ".join(f"{b['commit'][:7]} -> {a['commit'][:7]}" for b, a in pairs))
    for workload in WORKLOADS:
        for metric in end_to_end():
            ratios = [a["workloads"][workload]["summary"][metric["name"]]["median"]
                      / b["workloads"][workload]["summary"][metric["name"]]["median"]
                      for b, a in pairs]
            print(f"{workload} {metric['name']} ({metric['better']} is better): "
                  + " ".join(f"x{r:.3f}" for r in ratios) + f", net x{math.prod(ratios):.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", type=Path, nargs="*", default=[ROOT],
                        help="checkouts to measure (default: this repository)")
    parser.add_argument("--chain", type=Path, nargs="+", metavar="BENCH",
                        help="committed BENCH files, as (before, after) pairs, to chain")
    args = parser.parse_args(argv)
    if args.chain:
        return chain(args.chain)
    repos = [path.resolve() for path in args.checkouts]
    if len({len(str(repo)) for repo in repos}) > 1:
        print("error: the checkouts' resolved paths differ in length: "
              + ", ".join(f"{repo} ({len(str(repo))})" for repo in repos), file=sys.stderr)
        return 2
    commits = [_git(repo, "rev-parse", "HEAD") for repo in repos]
    runs = [{w: [] for w in WORKLOADS} for _ in repos]
    sides = list(zip(repos, commits, runs))
    for seed in SEEDS:
        first = seed % len(sides)  # the checkouts take turns running first
        for workload in WORKLOADS:
            for repo, commit, by_workload in sides[first:] + sides[:first]:
                run = run_once(repo, workload, seed)
                by_workload[workload].append(run)
                print(f"{commit[:7]} {workload} seed {seed}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in run["metrics"].items())
                      + f" failed={run['failed']}", file=sys.stderr)
    for commit, by_workload in zip(commits, runs):
        doc = {
            "commit": commit,
            "command": ("python3 perfbench/run.py --workload W --seed S "
                        f"--seconds {SECONDS} --trace 0"),
            "seeds": list(SEEDS),
            "measured_with": [c[:7] for c in commits],
            "host": host(),
            "workloads": {w: {"summary": summarize(r), "runs": r}
                          for w, r in by_workload.items()},
        }
        path = ROOT / f"BENCH_{commit[:7]}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}")
    if len(runs) == 2:
        metrics = end_to_end()
        for workload in WORKLOADS:
            before, after = runs[0][workload], runs[1][workload]
            won = wins(before, after, metrics)
            print(f"{commits[1][:7]} beat {commits[0][:7]} on {workload}: "
                  + " ".join(f"{k} {v}/{len(SEEDS)}" for k, v in won.items()))
            print("  failed operations: " + ", ".join(
                f"{c[:7]} {sum(r['failed'] for r in side)} of "
                f"{sum(r['attempted'] for r in side)}"
                for c, side in zip(commits, (before, after))))
            old, new = summarize(before), summarize(after)
            worse = over_bound(old, new, metrics)
            print(f"  worse than {commits[0][:7]} by more than the bound: "
                  f"{', '.join(worse) or 'none'}")
            worse = outside_quartiles(old, new, metrics)
            print(f"  worse than {commits[0][:7]}'s quartiles: {', '.join(worse) or 'none'}")
            print(f"  gains that meet the rule: "
                  f"{', '.join(gains(before, after, metrics)) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
