import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from pavecast import dataset as ds


FIXTURE_HEADER = ",".join(ds.CSV_COLUMNS)


def make_record(loc=0, lon=121.0, lat=31.0, t=100.0, info=2.0, conf=0.9, dtype=11, **env):
    fields = {name: env.get(name, 1.0) for name in ds.ENV_FEATURES}
    return ds.RawRecord(location_id=loc, longitude_gcj=lon, latitude_gcj=lat,
                        collect_time=t, detect_info=info, detect_conf=conf,
                        distress_type=dtype, **fields)


# ---------------------------------------------------------------------------
# load_records


def test_load_empty_data_section(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(FIXTURE_HEADER + "\n")
    report = ds.load_records(path)
    assert report.records == [] and report.skipped_rows == []


def test_load_sorts_swapped_timestamps(tmp_path):
    path = tmp_path / "two.csv"
    rows = [make_record(loc=1, t=50.0, info=1.0), make_record(loc=2, t=10.0, info=2.0)]
    ds.write_records(path, rows)
    report = ds.load_records(path)
    assert [r.collect_time for r in report.records] == [10.0, 50.0]


def test_load_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("location_id,longitude_gcj\n1,121.0\n")
    with pytest.raises(ds.SchemaError, match="collect_time"):
        ds.load_records(path)


def test_load_collects_row_errors_without_failing(tmp_path):
    path = tmp_path / "mixed.csv"
    good = make_record(loc=3, t=5.0)
    lines = [FIXTURE_HEADER,
             "1,121.0,31.0,notatime,1,1,1,1,1,1,1,1,2.0,0.9,11",  # bad timestamp
             "2,121.0,31.0,6.0,1,1,1,1,1,1,1,1,2.0,0.9,99",       # unknown type
             "3,121.0,31.0,5.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,2.0,0.9,11"]
    path.write_text("\n".join(lines) + "\n")
    report = ds.load_records(path)
    assert [r.location_id for r in report.records] == [good.location_id]
    assert sorted(row for row, _ in report.skipped_rows) == [1, 2]


def test_load_skips_non_finite_readings(tmp_path):
    path = tmp_path / "nonfinite.csv"
    lines = [FIXTURE_HEADER,
             "1,121.0,31.0,5.0,1,1,1,1,nan,1,1,1,2.0,0.9,11",  # pressure
             "2,121.0,31.0,5.0,1,1,1,inf,1,1,1,1,2.0,0.9,11",  # wind
             "3,121.0,31.0,5.0,1,1,1,1,1,1,1,1,nan,0.9,11",    # detect_info
             "4,121.0,31.0,5.0,1,1,1,1,1,1,1,1,2.0,0.9,11"]
    path.write_text("\n".join(lines) + "\n")
    report = ds.load_records(path)
    assert [r.location_id for r in report.records] == [4]
    assert report.skipped_rows == [
        (1, "non-finite pressure"), (2, "non-finite wind"), (3, "non-finite detect_info")]


def test_load_twenty_row_fixture_field_by_field(tmp_path):
    rng = np.random.default_rng(9)
    rows = []
    for i in range(20):
        rows.append(make_record(
            loc=i % 7, lon=121.0 + i * 1e-3, lat=31.0 - i * 1e-3,
            t=float(10 + i), info=float(rng.uniform(0, 8)),
            conf=float(rng.uniform(0.5, 1.0)),
            dtype=ds.DISTRESS_TYPES[i % 5],
            **{name: float(rng.uniform(-3, 30)) for name in ds.ENV_FEATURES}))
    path = tmp_path / "fix.csv"
    ds.write_records(path, rows)
    loaded = ds.load_records(path).records
    assert len(loaded) == 20
    for orig, back in zip(rows, loaded):
        assert orig == back


def test_load_iso8601_timestamps(tmp_path):
    path = tmp_path / "iso.csv"
    line = "1,121.0,31.0,1970-01-03T00:00:00+00:00,1,1,1,1,1,1,1,1,2.0,0.9,11"
    path.write_text(FIXTURE_HEADER + "\n" + line + "\n")
    report = ds.load_records(path, ds.CsvSchema(time_format="iso8601"))
    assert report.records[0].collect_time == pytest.approx(2.0)


def test_unknown_time_format_rejected_at_construction():
    with pytest.raises(ds.SchemaError, match="unix"):
        ds.CsvSchema(time_format="unix")


# ---------------------------------------------------------------------------
# standardizer


def test_fit_standardizer_hand_values():
    recs = [make_record(t=float(i), min_tem=v) for i, v in enumerate([1.0, 2.0, 3.0])]
    stats = ds.fit_standardizer(recs)
    assert stats.means["min_tem"] == pytest.approx(2.0)
    assert stats.stds["min_tem"] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)


def test_fit_standardizer_constant_feature_flagged():
    recs = [make_record(t=float(i), wind=4.5) for i in range(5)]
    stats = ds.fit_standardizer(recs)
    assert stats.stds["wind"] == 0.0
    assert stats.standardize("wind", 4.5) == stats.standardize("wind", 9.0) == 0.0


def test_fit_standardizer_single_record():
    stats = ds.fit_standardizer([make_record(min_tem=7.0)])
    assert stats.means["min_tem"] == 7.0
    assert all(s == 0.0 for s in stats.stds.values())


def test_fit_standardizer_empty():
    with pytest.raises(ds.EmptyDatasetError):
        ds.fit_standardizer([])


def test_standardized_train_features_are_zero_mean_unit_var():
    rng = np.random.default_rng(2)
    recs = [make_record(loc=i, t=float(i), info=float(rng.uniform(0, 5)),
                        **{n: float(rng.uniform(0, 10)) for n in ds.ENV_FEATURES})
            for i in range(40)]
    stats = ds.fit_standardizer(recs)
    nodes = ds.preprocess_records(recs, stats)
    x = np.array([n.x_full for n in nodes])
    for k in range(len(ds.ENV_FEATURES) + 1):  # env block + detect_info slot
        assert abs(x[:, k].mean()) < 1e-9
        assert abs(x[:, k].var() - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# apply_preprocess


def test_mean_record_standardizes_to_zero():
    recs = [make_record(t=0.0, min_tem=1.0), make_record(t=10.0, min_tem=3.0)]
    stats = ds.fit_standardizer(recs)
    mean_rec = make_record(t=5.0, min_tem=2.0, lon=121.0, lat=31.0)
    node = ds.apply_preprocess(mean_rec, stats)
    # every standardized numeric slot is 0 (features equal the training mean)
    env_and_info = node.x_full[: len(ds.ENV_FEATURES) + 1]
    assert np.allclose(env_and_info, 0.0, atol=1e-12)
    assert node.x_st[0] == 0.0 and node.x_st[1] == 0.0


def test_time_rescale_endpoints():
    recs = [make_record(t=10.0), make_record(t=30.0)]
    stats = ds.fit_standardizer(recs)
    assert ds.apply_preprocess(recs[0], stats).t_norm == 0.0
    assert ds.apply_preprocess(recs[1], stats).t_norm == 1.0


def test_time_rescale_clamps_and_degenerate_range():
    recs = [make_record(t=10.0), make_record(t=30.0)]
    stats = ds.fit_standardizer(recs)
    assert ds.apply_preprocess(make_record(t=99.0), stats).t_norm == 1.0
    single = ds.fit_standardizer([make_record(t=10.0)])
    assert ds.apply_preprocess(make_record(t=10.0), single).t_norm == 0.0


def test_one_hot_ordering():
    recs = [make_record(t=0.0), make_record(t=1.0)]
    stats = ds.fit_standardizer(recs)
    node = ds.apply_preprocess(make_record(dtype=11), stats)
    onehot = node.x_full[len(ds.ENV_FEATURES) + 1: len(ds.ENV_FEATURES) + 6]
    assert list(onehot) == [1.0, 0.0, 0.0, 0.0, 0.0]
    node15 = ds.apply_preprocess(make_record(dtype=15), stats)
    onehot15 = node15.x_full[len(ds.ENV_FEATURES) + 1: len(ds.ENV_FEATURES) + 6]
    assert list(onehot15) == [0.0, 0.0, 0.0, 1.0, 0.0]


def test_unknown_type_rejected():
    stats = ds.fit_standardizer([make_record()])
    bad = make_record()
    bad.distress_type = 12
    with pytest.raises(ds.EncodingError):
        ds.apply_preprocess(bad, stats)


@settings(deadline=None, max_examples=25)
@given(st.floats(0, 50), st.floats(0, 1), st.sampled_from(ds.DISTRESS_TYPES),
       st.floats(-10, 40), st.floats(0, 400))
def test_x_st_is_exact_slice_of_x_full(info, conf, dtype, temp, t):
    recs = [make_record(t=0.0, min_tem=-5.0), make_record(t=100.0, min_tem=35.0)]
    stats = ds.fit_standardizer(recs)
    node = ds.apply_preprocess(
        make_record(t=t, info=info, conf=conf, dtype=dtype, min_tem=temp), stats)
    assert np.array_equal(node.x_st, node.x_full[-3:])
    onehot = node.x_full[len(ds.ENV_FEATURES) + 1: len(ds.ENV_FEATURES) + 6]
    assert onehot.sum() == 1.0 and (onehot == 1.0).sum() == 1


def test_feature_schema_dims_and_env_masking():
    schema = ds.FeatureSchema()
    assert schema.dim_full == 18 and schema.dim_st == 3
    masked = schema.without_env("humidity")
    assert masked.dim_full == 17
    stats = ds.fit_standardizer([make_record(t=0.0), make_record(t=1.0)])
    node = ds.apply_preprocess(make_record(), stats, masked)
    assert node.x_full.shape == (17,)
    assert np.array_equal(node.x_st, node.x_full[-3:])
    with pytest.raises(ds.SchemaError):
        schema.without_env("nope")


# ---------------------------------------------------------------------------
# split_segment


def test_split_sizes_default_benchmark():
    init, train, test = ds.split_segment(list(range(2000)))
    assert (len(init), len(train), len(test)) == (200, 1400, 400)


def test_split_sizes_small():
    init, train, test = ds.split_segment(list(range(10)), (0.1, 0.7, 0.2))
    assert (len(init), len(train), len(test)) == (1, 7, 2)


def test_split_partition_covers_everything():
    items = list(range(37))
    init, train, test = ds.split_segment(items)
    assert init + train + test == items


def test_split_too_small_or_bad_fractions():
    with pytest.raises(ds.SplitError):
        ds.split_segment([1, 2])
    with pytest.raises(ds.SplitError):
        ds.split_segment(list(range(10)), (0.5, 0.5, 0.5))
    with pytest.raises(ds.SplitError, match="three parts"):
        ds.split_segment(list(range(10)), (0.5, 0.5))
    with pytest.raises(ds.SplitError, match="empty"):
        ds.split_segment(list(range(10)), (0.1, 0.9, 0.0))


# ---------------------------------------------------------------------------
# synthetic generator


@pytest.fixture(scope="module")
def default_synthetic():
    return ds.generate_synthetic(ds.SyntheticConfig())


def test_synthetic_same_seed_bit_identical(default_synthetic):
    again = ds.generate_synthetic(ds.SyntheticConfig())
    assert default_synthetic == again


def test_synthetic_row_count_exact(default_synthetic):
    assert len(default_synthetic) == 2000


def test_synthetic_zero_locations_rejected():
    with pytest.raises(ds.ConfigError):
        ds.generate_synthetic(ds.SyntheticConfig(n_locations=0))


def test_synthetic_noiseless_single_location_monotone_between_resets():
    cfg = ds.SyntheticConfig(n_locations=1, n_records=None, mean_visits=30,
                             noise_level=0.0, n_repair_events=0.0, seed=5)
    recs = ds.generate_synthetic(cfg)
    assert len(recs) > 3
    values = [r.detect_info for r in recs]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_synthetic_repairs_reset_levels():
    quiet = ds.SyntheticConfig(n_locations=40, n_records=800, mean_visits=20,
                               noise_level=0.0, n_repair_events=0.0, seed=6)
    busy = ds.SyntheticConfig(n_locations=40, n_records=800, mean_visits=20,
                              noise_level=0.0, n_repair_events=60.0, seed=6)
    per_loc_drops = 0
    values = {}
    for r in ds.generate_synthetic(busy):
        prev = values.get(r.location_id)
        if prev is not None and r.detect_info < prev:
            per_loc_drops += 1
        values[r.location_id] = r.detect_info
    assert per_loc_drops > 0
    assert all(b.detect_info >= 0 for b in ds.generate_synthetic(quiet))


def test_synthetic_latent_field_spatial_correlation():
    # correlation between co-located samples vs samples 3 length-scales apart
    ls = 0.01
    coords = np.array([[0.0, 0.0], [1e-6, 0.0], [3 * ls, 0.0]])
    rng = np.random.default_rng(123)
    draws = np.array([ds.sample_latent_field(coords, ls, rng) for _ in range(10_000)])
    corr = np.corrcoef(draws.T)
    assert corr[0, 1] > corr[0, 2]
    assert corr[0, 1] > 0.99
    assert corr[0, 2] < 0.2


def test_synthetic_pathologies(default_synthetic):
    times = np.array([r.collect_time for r in default_synthetic])
    hist, _ = np.histogram(times, bins=20)
    _, p = chisquare(hist)
    assert p < 0.01  # timestamps are far from uniform

    counts = Counter(r.location_id for r in default_synthetic)
    lens = sorted(counts.values())
    assert lens[len(lens) // 2] < 10  # sparse series

    by_loc = {}
    for r in default_synthetic:
        by_loc.setdefault(r.location_id, set()).add(r.collect_time)
    locs = sorted(by_loc)
    assert any(by_loc[a].isdisjoint(by_loc[b])
               for a in locs[:20] for b in locs[:20] if a < b)


def test_synthetic_roundtrips_through_csv(tmp_path, default_synthetic):
    path = tmp_path / "synth.csv"
    ds.write_records(path, default_synthetic)
    back = ds.load_records(path)
    assert back.skipped_rows == []
    assert back.records == default_synthetic


def test_stats_roundtrip_json():
    stats = ds.fit_standardizer([make_record(t=0.0), make_record(t=5.0, min_tem=9.0)])
    clone = ds.PreprocessStats.from_dict(stats.to_dict())
    assert clone == stats
