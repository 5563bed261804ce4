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


METRICS = [{"name": "job_s", "better": "lower", "bound": 0.25},
           {"name": "forecast_qps", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def medians(**values):
    return {name: {"median": v, "q1": v, "q3": v} for name, v in values.items()}


def test_over_bound_names_each_metric_worse_by_more_than_its_bound():
    before = medians(job_s=1.0, forecast_qps=100.0, peak_rss_mb=100.0)
    after = medians(job_s=1.3, forecast_qps=80.0, peak_rss_mb=111.0)
    assert record_bench.over_bound(before, after, METRICS) == ["job_s", "peak_rss_mb"]
    after = medians(job_s=1.25, forecast_qps=74.0, peak_rss_mb=109.0)  # job_s at its bound
    assert record_bench.over_bound(before, after, METRICS) == ["forecast_qps"]
    after = medians(job_s=0.5, forecast_qps=200.0, peak_rss_mb=50.0)  # better is never worse
    assert record_bench.over_bound(before, after, METRICS) == []



def quartiles(**values):
    return {name: dict(zip(("q1", "median", "q3"), v)) for name, v in values.items()}


def test_outside_quartiles_names_each_median_past_the_worse_quartile():
    before = quartiles(job_s=(0.9, 1.0, 1.1), forecast_qps=(90.0, 100.0, 110.0),
                       peak_rss_mb=(99.0, 100.0, 101.0))
    after = medians(job_s=1.11, forecast_qps=89.0, peak_rss_mb=101.0)  # peak_rss_mb at q3
    assert record_bench.outside_quartiles(before, after, METRICS) == ["job_s", "forecast_qps"]
    after = medians(job_s=0.5, forecast_qps=200.0, peak_rss_mb=90.0)  # past the better quartile
    assert record_bench.outside_quartiles(before, after, METRICS) == []
    after = medians(job_s=1.0, forecast_qps=90.0, peak_rss_mb=101.5)
    assert record_bench.outside_quartiles(before, after, METRICS) == ["peak_rss_mb"]


def runs(metric, *values):
    return [{"metrics": {metric: v}} for v in values]


BEFORE = tuple(95.0 + k for k in range(10))  # q1 97.25, median 99.5, q3 101.75


@pytest.mark.parametrize("metric,after,gain", [
    ("peak_rss_mb", (101.0,) + (89.0,) * 9, True),         # 9 of 10 won
    ("peak_rss_mb", (101.0,) * 2 + (89.0,) * 8, False),    # 8 of 10 won
    ("peak_rss_mb", tuple(v - 0.5 for v in BEFORE), False),  # all won, within q3 - q1
    ("peak_rss_mb", BEFORE, False),                         # ties count for neither
    ("forecast_qps", (111.0,) * 10, True),                  # higher is better
    ("forecast_qps", (89.0,) * 10, False),
], ids=["nine-of-ten", "eight-of-ten", "within-spread", "ties", "higher", "worse"])
def test_gains_need_nine_tenths_of_the_seeds_and_a_median_past_the_spread(metric, after,
                                                                          gain):
    metrics = [m for m in METRICS if m["name"] == metric]
    got = record_bench.gains(runs(metric, *BEFORE), runs(metric, *after), metrics)
    assert got == ([metric] if gain else [])


CHAIN = [_PATH.parent.parent / f"BENCH_{c}.json" for c in
         ("b472c29", "4071c51", "1965764", "97618e7", "143777f", "5b2a70e")]


def test_chain_multiplies_each_pairs_ratio_of_medians(capsys):
    """The committed pairs of PRs 26-30, chained as ROADMAP's "Recent" gives them."""
    assert record_bench.main(["--chain", *map(str, CHAIN)]) == 0
    net = {" ".join(line.split()[:2]): line.rsplit(" x", 1)[1]
           for line in capsys.readouterr().out.splitlines()[1:]}
    assert len(net) == 12
    assert (net["bulk-8k job_s"], net["bulk-8k forecast_qps"], net["bulk-8k peak_rss_mb"],
            net["train-2k job_s"]) == ("0.922", "1.084", "0.914", "0.969")


@pytest.mark.parametrize("files", [CHAIN[:1], [CHAIN[0], CHAIN[3]]],
                         ids=["odd-count", "different-recordings"])
def test_chain_exits_2_unless_each_pair_was_recorded_together(capsys, files):
    assert record_bench.main(["--chain", *map(str, files)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
