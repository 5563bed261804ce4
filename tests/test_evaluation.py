import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pavecast import evaluation as ev

from oracles import pairwise_auc


# ---------------------------------------------------------------------------
# regression metrics


def test_perfect_predictions():
    assert ev.regression_metrics([1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0, 0.0)


def test_single_element_metrics():
    assert ev.regression_metrics([0.0], [2.0]) == (2.0, 4.0, 2.0)


def test_hand_metrics():
    mae, mse, rmse = ev.regression_metrics([1.0, 2.0], [2.0, 4.0])
    assert mae == 1.5 and mse == 2.5 and rmse == pytest.approx(math.sqrt(2.5), abs=1e-15)


def test_empty_metrics_rejected():
    with pytest.raises(ev.MetricError):
        ev.regression_metrics([], [])
    with pytest.raises(ev.MetricError):
        ev.regression_metrics([1.0], [1.0, 2.0])


@settings(deadline=None, max_examples=30)
@given(st.lists(st.floats(0, 50), min_size=1, max_size=20),
       st.lists(st.floats(0, 50), min_size=1, max_size=20))
def test_rmse_squared_equals_mse(y, yhat):
    n = min(len(y), len(yhat))
    _, mse, rmse = ev.regression_metrics(y[:n], yhat[:n])
    assert rmse * rmse == pytest.approx(mse, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# severity levels


def levels(values):
    return [ev.LEVELS[i] for i in ev.level_indices(values)]


def test_level_examples():
    assert levels([0.5, 3.0, 7.0, 12.0]) == ["Healthy", "Good", "Severe", "VerySevere"]


def test_level_bin_boundaries():
    assert levels([1.0, 5.0, 10.0, 0.0]) == ["Good", "Severe", "VerySevere", "Healthy"]


def test_negative_value_rejected():
    with pytest.raises(ev.DomainError):
        ev.level_indices([-0.1])


@settings(deadline=None, max_examples=50)
@given(st.floats(0, 40), st.floats(0, 40))
def test_classify_level_monotone(a, b):
    lo, hi = ev.level_indices(sorted((a, b)))
    assert lo <= hi


# ---------------------------------------------------------------------------
# ROC / AUC


def test_perfect_separation_auc_one():
    true = [0.2, 0.4, 7.0, 8.0]  # two Healthy, two Severe
    pred = [0.1, 0.3, 7.5, 9.0]
    auc = ev.roc_auc_ovr(true, pred)
    assert auc["Healthy"] == 1.0
    assert auc["Severe"] == 1.0
    assert auc["Good"] is None and auc["VerySevere"] is None


def test_constant_scores_auc_half():
    true = [0.5, 0.4, 7.0, 8.0]
    pred = [3.0, 3.0, 3.0, 3.0]
    auc = ev.roc_auc_ovr(true, pred)
    assert auc["Healthy"] == pytest.approx(0.5, abs=1e-12)
    assert auc["Severe"] == pytest.approx(0.5, abs=1e-12)


def test_six_point_toy_matches_pair_count():
    true = [0.5, 0.2, 3.0, 4.0, 7.0, 12.0]
    pred = [0.8, 2.0, 2.5, 6.0, 5.5, 11.0]
    auc = ev.roc_auc_ovr(true, pred)
    true_cls = ev.level_indices(true)
    for c, name in enumerate(ev.LEVELS):
        labels = [t == c for t in true_cls]
        scores = ev.level_affinities(pred, c)
        want = pairwise_auc(labels, scores)
        if want is None:
            assert auc[name] is None
        else:
            assert auc[name] == pytest.approx(want, abs=1e-9)


def test_auc_matches_pair_count_on_random_cases():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(4, 25))
        true = rng.uniform(0, 14, n)
        pred = np.maximum(0.0, true + rng.normal(0, rng.uniform(0.1, 6.0), n))
        if rng.random() < 0.3:
            pred = np.round(pred)  # force ties
        auc = ev.roc_auc_ovr(true, pred)
        true_cls = ev.level_indices(true)
        for c, name in enumerate(ev.LEVELS):
            labels = [t == c for t in true_cls]
            scores = ev.level_affinities(pred, c)
            want = pairwise_auc(labels, scores)
            if want is None:
                assert auc[name] is None
            else:
                assert auc[name] == pytest.approx(want, abs=1e-9)


@settings(deadline=None, max_examples=25)
@given(st.lists(st.tuples(st.booleans(), st.integers(-40, 40)), min_size=4, max_size=30))
def test_auc_invariant_under_monotone_transform(pairs):
    labels = [p[0] for p in pairs]
    # grid-spaced scores so the warp below cannot collapse distinct values
    scores = [0.25 * p[1] for p in pairs]
    if all(labels) or not any(labels):
        return
    fpr, tpr, _ = ev.roc_curve(labels, scores)
    base = ev.auc_from_curve(fpr, tpr)
    warped = [math.exp(0.2 * s) + 3.0 for s in scores]  # strictly monotone
    fpr2, tpr2, _ = ev.roc_curve(labels, warped)
    assert ev.auc_from_curve(fpr2, tpr2) == pytest.approx(base, abs=1e-12)


def test_roc_curve_endpoints():
    fpr, tpr, thr = ev.roc_curve([True, False, True], [0.9, 0.5, 0.8])
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0
    assert thr[0] == np.inf


# ---------------------------------------------------------------------------
# confusion and report


def test_confusion_counts():
    counts = ev.confusion_counts([0.5, 3.0, 7.0], [0.2, 7.0, 7.5])
    assert counts[0, 0] == 1 and counts[1, 2] == 1 and counts[2, 2] == 1
    assert counts.sum() == 3


def test_array_levels_match_the_bins_value_by_value():
    """level_indices, level_affinities and confusion_counts over arrays give,
    value by value, what the bins give: the level with lo <= v < hi (the
    last for NaN), minus the distance to the bin with a signed zero on its
    upper edge, and one count per pair, predictions clipped at 0."""
    values = [0.0, -0.0, 0.5, 1.0, 4.999999999999999, 5.0, 7.5, 10.0, 12.0, math.inf, math.nan]

    def level(v):
        return next((c for c, (lo, hi) in enumerate(ev.LEVEL_EDGES) if lo <= v < hi), 3)

    assert ev.level_indices(values).tolist() == [level(v) for v in values]
    assert [ev.level_indices([v])[0] for v in values] == [level(v) for v in values]
    for c, (lo, hi) in enumerate(ev.LEVEL_EDGES):
        want = np.array([-(lo - v) if v < lo else -(v - hi) if hi != math.inf and v >= hi
                         else 0.0 for v in values])
        got = ev.level_affinities(values, c)
        assert np.array_equal(got, want) and (np.signbit(got) == np.signbit(want)).all()
        assert [ev.level_affinities([v], c)[0] for v in values] == want.tolist()
    predicted = [v - 1.0 for v in reversed(values)]
    want = np.zeros((len(ev.LEVELS), len(ev.LEVELS)), int)
    for t, p in zip(values, predicted):
        want[level(t), level(max(p, 0.0))] += 1
    assert np.array_equal(ev.confusion_counts(values, predicted), want)
    with pytest.raises(ev.DomainError, match="got -0.5"):
        ev.confusion_counts([1.0, -0.5, -2.0], [1.0, 1.0, 1.0])


def test_report_rmse_consistency():
    rng = np.random.default_rng(3)
    y = rng.uniform(0, 12, 30)
    yhat = np.maximum(0, y + rng.normal(0, 1, 30))
    report = ev.build_report(y, yhat, {"name": "test"})
    assert report.rmse == pytest.approx(math.sqrt(report.mse), abs=1e-12)
    d = report.to_dict()
    assert d["split"] == {"name": "test"} and len(d["pairs"]) == 30


# ---------------------------------------------------------------------------
# generalization split


class FakeRecord:
    def __init__(self, t, lon, lat):
        self.collect_time = t
        self.longitude_gcj = lon
        self.latitude_gcj = lat


def fake_records(n, rng):
    return [FakeRecord(float(rng.uniform(0, 100)), float(rng.uniform(0, 1)),
                       float(rng.uniform(0, 1))) for _ in range(n)]


def test_split_no_gap():
    rng = np.random.default_rng(0)
    records = fake_records(10, rng)
    train, test = ev.generalization_split(records, "time", 4, 0)
    assert len(train) == 4 and len(test) == 6
    assert not set(train) & set(test)


def test_split_sizes_with_gap():
    rng = np.random.default_rng(1)
    records = fake_records(10, rng)
    train, test = ev.generalization_split(records, "time", 4, 2)
    assert len(train) == 4 and len(test) == 4
    removed = set(range(10)) - set(train) - set(test)
    assert len(removed) == 2


def test_split_longitude_matches_sort_oracle():
    rng = np.random.default_rng(2)
    records = fake_records(15, rng)
    train, test = ev.generalization_split(records, "longitude", 6, 3)
    order = sorted(range(15), key=lambda i: (records[i].longitude_gcj, i))
    assert train == order[:6]
    assert test == order[9:]


def test_split_ties_go_to_the_lower_index():
    records = [FakeRecord(t, 0.0, 0.0) for t in (5.0, 1.0, 5.0, 1.0, 3.0)]
    train, test = ev.generalization_split(records, "time", 2, 1)
    assert (train, test) == ([1, 3], [0, 2])


def test_split_rejects_consuming_everything():
    rng = np.random.default_rng(3)
    with pytest.raises(ev.SplitError):
        ev.generalization_split(fake_records(5, rng), "time", 3, 2)
    with pytest.raises(ev.SplitError):
        ev.generalization_split(fake_records(5, rng), "altitude", 1, 1)
