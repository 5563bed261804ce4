import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from pavecast import dataset as ds

from oracles import broadcast_latent_field


FIXTURE_HEADER = ",".join(ds.CSV_COLUMNS)


def make_record(loc=0, lon=121.0, lat=31.0, t=100.0, info=2.0, conf=0.9, dtype=11, **env):
    """One record's row, in CSV_COLUMNS order."""
    fields = dict(location_id=loc, longitude_gcj=lon, latitude_gcj=lat, collect_time=t,
                  detect_info=info, detect_conf=conf, distress_type=dtype,
                  **{name: env.get(name, 1.0) for name in ds.ENV_FEATURES})
    return tuple(fields[c] for c in ds.CSV_COLUMNS)


def table(rows):
    """The records table of rows made by make_record."""
    return np.rec.array(rows, dtype=ds.RECORD_DTYPE)


def assert_same_report(got, want):
    """The same records, bit for bit and of one dtype, and the same skipped rows."""
    assert got.records.dtype == want.records.dtype == ds.RECORD_DTYPE
    assert got.records.tobytes() == want.records.tobytes()
    assert got.skipped_rows == want.skipped_rows


# ---------------------------------------------------------------------------
# load_records


def test_load_empty_data_section(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(FIXTURE_HEADER + "\n")
    report = ds.load_records(path)
    assert report.records.dtype == ds.RECORD_DTYPE
    assert len(report.records) == 0 and report.skipped_rows == []


def test_load_sorts_swapped_timestamps(tmp_path):
    path = tmp_path / "two.csv"
    rows = table([make_record(loc=1, t=50.0, info=1.0), make_record(loc=2, t=10.0, info=2.0)])
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
    lines = [FIXTURE_HEADER,
             "1,121.0,31.0,notatime,1,1,1,1,1,1,1,1,2.0,0.9,11",  # bad timestamp
             "2,121.0,31.0,6.0,1,1,1,1,1,1,1,1,2.0,0.9,99",       # unknown type
             "3,121.0,31.0,5.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,1.0,2.0,0.9,11"]
    path.write_text("\n".join(lines) + "\n")
    report = ds.load_records(path)
    assert [r.location_id for r in report.records] == [3]
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


def test_load_skips_a_location_id_outside_int64(tmp_path):
    path = tmp_path / "wide.csv"
    lines = [FIXTURE_HEADER,
             f"{2 ** 63},121.0,31.0,5.0,1,1,1,1,1,1,1,1,2.0,0.9,11",
             f"{-2 ** 63},121.0,31.0,5.0,1,1,1,1,1,1,1,1,2.0,0.9,11"]
    path.write_text("\n".join(lines) + "\n")
    report = ds.load_records(path)
    assert [r.location_id for r in report.records] == [-2 ** 63]
    assert report.skipped_rows == [(1, f"location_id must fit in 64 bits, got {2 ** 63}")]


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
    ds.write_records(path, table(rows))
    loaded = ds.load_records(path).records
    assert len(loaded) == 20
    assert loaded.dtype == ds.RECORD_DTYPE
    assert loaded.tobytes() == table(rows).tobytes()


def test_load_iso8601_timestamps(tmp_path):
    path = tmp_path / "iso.csv"
    line = "1,121.0,31.0,1970-01-03T00:00:00+00:00,1,1,1,1,1,1,1,1,2.0,0.9,11"
    path.write_text(FIXTURE_HEADER + "\n" + line + "\n")
    report = ds.load_records(path, time_format="iso8601")
    assert report.records[0].collect_time == pytest.approx(2.0)


def test_iso8601_time_without_a_zone_is_utc(tmp_path):
    path = tmp_path / "naive.csv"
    path.write_text(FIXTURE_HEADER + "\n"
                    + "1,121.0,31.0,1970-01-03T12:00:00,1,1,1,1,1,1,1,1,2.0,0.9,11\n"
                    + "2,121.0,31.0,1970-01-03T12:00:00+08:00,1,1,1,1,1,1,1,1,2.0,0.9,11\n")
    report = ds.load_records(path, time_format="iso8601")
    assert report.records.collect_time.tolist() == [52 / 24, 2.5]  # 04:00 UTC, then 12:00


def test_unknown_time_format_fails_before_the_file_is_read(tmp_path):
    with pytest.raises(ds.SchemaError, match="unknown time_format 'unix'"):
        ds.load_records(tmp_path / "missing.csv", time_format="unix")


def test_load_drops_a_byte_order_mark(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    ds.write_records(plain, table([make_record(loc=1, t=5.0), make_record(loc=2, t=3.0)]))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert_same_report(ds.load_records(marked), ds.load_records(plain))
    assert len(ds.load_records(marked).records) == 2


@pytest.mark.parametrize("time_format", ds.TIME_FORMATS)
def test_load_non_utf8_file_raises_schema_error_naming_it(tmp_path, time_format):
    path = tmp_path / "latin1.csv"
    path.write_bytes((FIXTURE_HEADER + "\n").encode()
                     + "1,121.0,31.0,5.0,1,1,1,1,1,1,1,1,2.0,0.9,11 caf\xe9\n".encode("latin-1"))
    with pytest.raises(ds.SchemaError, match="latin1.csv.*not UTF-8"):
        ds.load_records(path, time_format)


def test_load_repeated_header_name_reads_its_last_column(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text(FIXTURE_HEADER + ",detect_info\n"
                    + "1,121.0,31.0,5.0,1,1,1,1,1,1,1,1,-4.0,0.9,11,3.5\n")
    header, body = ds._read_csv(path)
    assert ds._load_columns(header, body).records[0].detect_info == 3.5
    assert_same_report(ds.load_records(path), ds._load_rows(header, body, "days"))


def test_strict_reader_reads_what_write_records_writes(tmp_path, default_synthetic):
    path = tmp_path / "synth.csv"
    ds.write_records(path, default_synthetic)
    header, body = ds._read_csv(path)
    assert_same_report(ds._load_columns(header, body),
                       ds._load_rows(header, body, "days"))


@pytest.mark.parametrize("reader", ["columns", "rows"])
def test_load_skips_coordinates_off_the_earth(tmp_path, reader):
    path = tmp_path / "coords.csv"
    rows = table([make_record(loc=1, lat=121.45, lon=31.2),  # swapped
                  make_record(loc=2, lon=400.0),
                  make_record(loc=3, lat=-90.00000000000001),
                  make_record(loc=4, lon=-180.0, lat=90.0),  # on the bounds
                  make_record(loc=5)])
    ds.write_records(path, rows)
    header, body = ds._read_csv(path)
    load = ds._load_columns if reader == "columns" else (
        lambda h, b: ds._load_rows(h, b, "days"))
    report = load(header, body)
    assert [r.location_id for r in report.records] == [4, 5]
    assert report.skipped_rows == [
        (1, "latitude_gcj must be in [-90.0, 90.0], got 121.45"),
        (2, "longitude_gcj must be in [-180.0, 180.0], got 400.0"),
        (3, "latitude_gcj must be in [-90.0, 90.0], got -90.00000000000001")]


_NASTY_CELLS = ("1_0", "\u0661\u0662", "\uff11", " 5 ", "+5", "-0", "0011", "1e5", "1E+05",
                ".5", "5.", "+.5e-3", "nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                "+iNF", "nan(1)", "1e400", "-1e-400", "", " ", "+", "-", "#5", "# 1",
                "0x1p3", "\xa01.5", "1.5\u2028", "99999999999999999999", "1.0", "11.0",
                "1,5", "5\t")


_SPELLINGS = (repr, "{:g}".format, "{:.3e}".format, "{:.17g}".format)
# readings every column accepts (few, so rows tie on time and location),
# and readings that fail a check or are out of some column's range, coordinates
# off the Earth and on its bounds among them
_ORDINARY = tuple(spell(v) for v in (0.0, -0.0, 0.5, 1.0, 1e-300, 0.1) for spell in _SPELLINGS)
_EDGE = tuple(spell(v) for v in (-0.25, 1.5, 121.4567, 1e308, -7.5e-5, math.nan,
                                 math.inf, -math.inf, -180.0, 90.00000000000001, -400.0)
              for spell in _SPELLINGS)
_NASTY = ("1_0", "\u0661\u0662", "\uff11", " 5 ", "+5", "-0", "0011", "1e5", "1E+05",
          ".5", "5.", "+.5e-3", "nan", "NaN", "-nan", "inf", "-inf", "Infinity",
          "+iNF", "nan(1)", "1e400", "-1e-400", "", " ", "+", "-", "#5", "# 1",
          "0x1p3", "\xa01.5", "1.5\u2028", "99999999999999999999", "1.0", "11.0",
          "1,5", "5\t")


def _cell(name):
    """An ordinary cell of a column: both readers parse it and it passes."""
    if name == "distress_type":
        return st.sampled_from(ds.DISTRESS_TYPES).map(str)
    if name == "location_id":
        return st.integers(0, 3).map(str)
    if name in ds.CSV_COLUMNS:
        return st.sampled_from(_ORDINARY)
    return st.sampled_from(["", "a", "b 1", "#", "12.5", "\t"])  # an extra column's free text


@st.composite
def csv_files(draw):
    """CSV text, and whether every line is one the strict reader must accept."""
    extra = draw(st.lists(st.sampled_from(["note", "extra", *ds.CSV_COLUMNS]), max_size=3))
    header = draw(st.permutations([*ds.CSV_COLUMNS, *extra]))
    clean, lines = True, [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["ordinary"] * 5 + ["edge", "float", "int", "nasty",
                                                        "fuzz", "short", "long", "quoted",
                                                        "blank", "spaces"]))
        cells = [draw(_cell(name)) for name in header]
        k = draw(st.integers(0, len(cells) - 1))
        if kind in ("edge", "float"):  # in a float column: parsed, maybe refused
            k = draw(st.sampled_from([i for i, name in enumerate(header)
                                      if name in ds.CSV_COLUMNS
                                      and name not in ("location_id", "distress_type")]))
            cells[k] = draw(st.sampled_from(_EDGE) if kind == "edge" else
                            st.tuples(st.floats(), st.sampled_from(_SPELLINGS))
                            .map(lambda v: v[1](v[0])))
        elif kind == "int":
            cells[k] = str(draw(st.integers(-2**63, 2**63 - 1) | st.sampled_from([12, -11])))
        elif kind == "nasty":
            cells[k] = draw(st.sampled_from(_NASTY))
        elif kind == "fuzz":
            cells[k] = draw(st.text(alphabet="0123456789+-.eE_ naifINF#x\t\xa0\u0661",
                                    max_size=6))
        elif kind == "short":
            cells = cells[:k]
        elif kind == "long":
            cells += ["7", "x"][:draw(st.integers(1, 2))]
        elif kind == "quoted":
            cells[k] = draw(st.sampled_from(['"{}"'.format(cells[k]), '"1,2"', '"a""b"']))
        line = {"blank": "", "spaces": draw(st.sampled_from([" ", "\t", "  "]))}.get(
            kind, ",".join(cells))
        clean &= kind in ("ordinary", "edge", "float", "long", "blank")
        lines.append(line)
    ends = draw(st.sampled_from(["\n", "\r\n", "mixed"]))
    if ends == "mixed":  # CRLF, LF and now and then a lone CR between lines
        seps = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
        clean &= "\r" not in seps
    else:
        seps = [ends] * len(lines)
    seps[-1] = draw(st.sampled_from([seps[-1], ""]))  # with or without a final line end
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(line + sep for line, sep in zip(lines, seps)), clean


@settings(deadline=None, max_examples=200)
@given(csv_files(), st.sampled_from(ds.TIME_FORMATS))
def test_strict_reader_and_row_parser_agree(tmp_path_factory, file, time_format):
    text, clean = file
    path = tmp_path_factory.getbasetemp() / "differential.csv"
    path.write_bytes(text.encode("utf-8"))
    header, body = ds._read_csv(path)
    rows = ds._load_rows(header, body, "days")
    try:
        strict = ds._load_columns(header, body)
    except ValueError:
        assert not clean, "the strict reader refused a file it should read"
    else:
        assert_same_report(strict, rows)
    assert_same_report(ds.load_records(path, time_format),
                       ds._load_rows(header, body, time_format))


_ORDINARY_ROW = dict(zip(ds.CSV_COLUMNS, "7,121.0,31.0,5.0,1,1,1,1,1,1,1,1,2.0,0.9,11".split(",")))


@pytest.mark.parametrize("cells,reason", [
    ({"wind": "nan", "cloud": "inf", "detect_info": "-inf"},
     "non-finite wind, cloud, detect_info"),
    ({"location_id": str(2 ** 63)}, f"location_id must fit in 64 bits, got {2 ** 63}"),
    ({"location_id": str(-2 ** 63 - 1)}, f"location_id must fit in 64 bits, got {-2 ** 63 - 1}"),
    ({"longitude_gcj": "-180.5"}, "longitude_gcj must be in [-180.0, 180.0], got -180.5"),
    ({"latitude_gcj": "90.25"}, "latitude_gcj must be in [-90.0, 90.0], got 90.25"),
    ({"detect_info": "-0.5"}, "detect_info must be >= 0, got -0.5"),
    ({"detect_conf": "1.5"}, "detect_conf must be in [0,1], got 1.5"),
    ({"distress_type": "12"}, "unknown distress_type code 12"),
    ({"distress_type": str(2 ** 64)}, f"unknown distress_type code {2 ** 64}"),
    # two rules broken: the first in order names the row
    ({"pressure": "nan", "longitude_gcj": "400"}, "non-finite pressure"),
    ({"detect_info": "-1", "distress_type": "99"}, "detect_info must be >= 0, got -1.0"),
])
def test_each_rule_names_its_row_alike_through_both_readers(cells, reason):
    header = list(ds.CSV_COLUMNS)
    body = "".join(",".join(row[c] for c in header) + "\n"
                   for row in ({**_ORDINARY_ROW, **cells}, _ORDINARY_ROW))
    want = ds.LoadReport(records=table([make_record(loc=7, t=5.0)]),  # the ordinary row
                         skipped_rows=[(1, reason)])
    assert_same_report(ds._load_rows(header, body, "days"), want)
    if any(abs(int(cells.get(c, 0))) >= 2 ** 63 for c in ("location_id", "distress_type")):
        with pytest.raises(ValueError):  # no int64 column holds the cell
            ds._load_columns(header, body)
    else:
        assert_same_report(ds._load_columns(header, body), want)


def test_iso8601_timestamps_take_the_row_parser(tmp_path):
    path = tmp_path / "iso.csv"
    path.write_text(FIXTURE_HEADER + "\n"
                    + "1,121.0,31.0,1970-01-03T00:00:00+00:00,1,1,1,1,1,1,1,1,2.0,0.9,11\n"
                    + "2,121.0,31.0,4.0,1,1,1,1,1,1,1,1,2.0,0.9,11\n")
    header, body = ds._read_csv(path)
    with pytest.raises(ValueError):
        ds._load_columns(header, body)
    report = ds.load_records(path, time_format="iso8601")
    assert [r.location_id for r in report.records] == [1]
    assert report.skipped_rows == [(2, "Invalid isoformat string: '4.0'")]


# ---------------------------------------------------------------------------
# standardizer


def test_fit_standardizer_hand_values():
    recs = table([make_record(t=float(i), min_tem=v) for i, v in enumerate([1.0, 2.0, 3.0])])
    stats = ds.fit_standardizer(recs)
    assert stats.means["min_tem"] == pytest.approx(2.0)
    assert stats.stds["min_tem"] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)


def test_fit_standardizer_constant_feature_flagged():
    recs = table([make_record(t=float(i), wind=4.5) for i in range(5)])
    stats = ds.fit_standardizer(recs)
    assert stats.stds["wind"] == 0.0
    assert stats.standardize("wind", 4.5) == stats.standardize("wind", 9.0) == 0.0


def test_fit_standardizer_single_record():
    stats = ds.fit_standardizer(table([make_record(min_tem=7.0)]))
    assert stats.means["min_tem"] == 7.0
    assert all(s == 0.0 for s in stats.stds.values())


def test_fit_standardizer_empty():
    with pytest.raises(ds.EmptyDatasetError):
        ds.fit_standardizer(np.empty(0, ds.RECORD_DTYPE).view(np.recarray))


def test_standardized_train_features_are_zero_mean_unit_var():
    rng = np.random.default_rng(2)
    recs = table([make_record(loc=i, t=float(i), info=float(rng.uniform(0, 5)),
                              **{n: float(rng.uniform(0, 10)) for n in ds.ENV_FEATURES})
                  for i in range(40)])
    stats = ds.fit_standardizer(recs)
    nodes = ds.preprocess_records(recs, stats)
    x = np.array([n.x_full for n in nodes])
    for k in range(len(ds.ENV_FEATURES) + 1):  # env block + detect_info slot
        assert abs(x[:, k].mean()) < 1e-9
        assert abs(x[:, k].var() - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# preprocessing one record


def preprocess_one(record, stats, schema=ds.FeatureSchema()):
    (node,) = ds.preprocess_records(table([record]), stats, schema)
    return node


def test_mean_record_standardizes_to_zero():
    recs = table([make_record(t=0.0, min_tem=1.0), make_record(t=10.0, min_tem=3.0)])
    stats = ds.fit_standardizer(recs)
    mean_rec = make_record(t=5.0, min_tem=2.0, lon=121.0, lat=31.0)
    node = preprocess_one(mean_rec, stats)
    # every standardized numeric slot is 0 (features equal the training mean)
    env_and_info = node.x_full[: len(ds.ENV_FEATURES) + 1]
    assert np.allclose(env_and_info, 0.0, atol=1e-12)
    assert node.x_st[0] == 0.0 and node.x_st[1] == 0.0


def test_time_rescale_endpoints():
    recs = [make_record(t=10.0), make_record(t=30.0)]
    stats = ds.fit_standardizer(table(recs))
    assert preprocess_one(recs[0], stats).t_norm == 0.0
    assert preprocess_one(recs[1], stats).t_norm == 1.0


def test_time_rescale_clamps_and_degenerate_range():
    stats = ds.fit_standardizer(table([make_record(t=10.0), make_record(t=30.0)]))
    assert preprocess_one(make_record(t=99.0), stats).t_norm == 1.0
    single = ds.fit_standardizer(table([make_record(t=10.0)]))
    assert preprocess_one(make_record(t=10.0), single).t_norm == 0.0


def test_one_hot_ordering():
    stats = ds.fit_standardizer(table([make_record(t=0.0), make_record(t=1.0)]))
    node = preprocess_one(make_record(dtype=11), stats)
    onehot = node.x_full[len(ds.ENV_FEATURES) + 1: len(ds.ENV_FEATURES) + 6]
    assert list(onehot) == [1.0, 0.0, 0.0, 0.0, 0.0]
    node15 = preprocess_one(make_record(dtype=15), stats)
    onehot15 = node15.x_full[len(ds.ENV_FEATURES) + 1: len(ds.ENV_FEATURES) + 6]
    assert list(onehot15) == [0.0, 0.0, 0.0, 1.0, 0.0]


def test_unknown_type_rejected():
    stats = ds.fit_standardizer(table([make_record()]))
    bad = make_record(dtype=12)
    with pytest.raises(ds.EncodingError):
        preprocess_one(bad, stats)


def test_unknown_type_named_is_the_first_in_record_order():
    stats = ds.fit_standardizer(table([make_record()]))
    recs = table([make_record(dtype=11), make_record(dtype=12), make_record(dtype=99)])
    with pytest.raises(ds.EncodingError, match="code 12$"):
        ds.preprocess_records(recs, stats)


@settings(deadline=None, max_examples=25)
@given(st.floats(0, 50), st.floats(0, 1), st.sampled_from(ds.DISTRESS_TYPES),
       st.floats(-10, 40), st.floats(0, 400))
def test_x_st_is_exact_slice_of_x_full(info, conf, dtype, temp, t):
    recs = table([make_record(t=0.0, min_tem=-5.0), make_record(t=100.0, min_tem=35.0)])
    stats = ds.fit_standardizer(recs)
    node = preprocess_one(
        make_record(t=t, info=info, conf=conf, dtype=dtype, min_tem=temp), stats)
    assert np.array_equal(node.x_st, node.x_full[-3:])
    onehot = node.x_full[len(ds.ENV_FEATURES) + 1: len(ds.ENV_FEATURES) + 6]
    assert onehot.sum() == 1.0 and (onehot == 1.0).sum() == 1


def _scalar_x_full(row, stats, schema):
    """x_full one value at a time, with PreprocessStats' scalar formulas, of a
    record row given as Python values in CSV_COLUMNS order."""
    r = dict(zip(ds.CSV_COLUMNS, row))
    return np.array([*(stats.standardize(n, r[n]) for n in schema.env_features),
                     stats.standardize("detect_info", r["detect_info"]),
                     *(float(code == r["distress_type"]) for code in ds.DISTRESS_TYPES),
                     stats.standardize("detect_conf", r["detect_conf"]),
                     stats.standardize("longitude_gcj", r["longitude_gcj"]),
                     stats.standardize("latitude_gcj", r["latitude_gcj"]),
                     stats.rescale_time(r["collect_time"])])


_READINGS = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 5.0, math.nan, math.inf])


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.lists(_READINGS, min_size=12, max_size=12),
                          st.sampled_from(ds.DISTRESS_TYPES)), min_size=1, max_size=12),
       st.integers(0, 11), st.sampled_from([None, (20.0, 80.0), (50.0, 50.0)]),
       st.sampled_from([(), ("humidity",), ("cloud", "min_tem")]))
def test_feature_rows_equal_the_scalar_formulas(rows, n_fit, time_range, masked):
    names = [n for n in ds.NUMERIC_FEATURES if n not in ("longitude_gcj", "latitude_gcj")]
    made = [make_record(loc=i, lon=v[10], lat=v[11], t=v[9] * 0.1 + 50.0, dtype=dtype,
                        **dict(zip(names, v)))
            for i, (v, dtype) in enumerate(rows)]
    recs = table(made)
    schema = ds.FeatureSchema()
    for name in masked:
        schema = schema.without_env(name)
    with np.errstate(invalid="ignore", over="ignore"):  # inf readings
        stats = ds.fit_standardizer(recs[:n_fit + 1], time_range)
        for name in ds.NUMERIC_FEATURES:  # the fit's formulas, one column at a time
            vals = np.array([dict(zip(ds.CSV_COLUMNS, r))[name] for r in made[:n_fit + 1]])
            mean = float(vals.mean())
            std = float(np.sqrt(np.mean((vals - mean) ** 2)))
            assert np.array([stats.means[name], stats.stds[name]]).tobytes() \
                == np.array([mean, std]).tobytes()
        nodes = ds.preprocess_records(recs, stats, schema)
    for r, node in zip(made, nodes):
        assert node.x_full.tobytes() == _scalar_x_full(r, stats, schema).tobytes()
        with np.errstate(invalid="ignore"):
            one = preprocess_one(r, stats, schema)
        assert one.x_full.tobytes() == node.x_full.tobytes()
        r = dict(zip(ds.CSV_COLUMNS, r))
        assert node.location_id == r["location_id"]
        assert np.array([node.t_raw, *node.coords]).tobytes() \
            == np.array([r["collect_time"], r["longitude_gcj"], r["latitude_gcj"]]).tobytes()


_COORD = st.floats(-180, 180)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.tuples(_COORD, _COORD, st.floats(-50, 500), st.floats(-1e3, 1e3)),
                min_size=1, max_size=8),
       st.sampled_from([None, (20.0, 80.0), (50.0, 50.0)]),
       st.sampled_from([(), ("humidity",)]))
def test_query_rows_equal_the_scalar_formulas(rows, time_range, masked):
    fit = table([make_record(lon=121.0, lat=31.0, t=0.0, info=1.0),
                 make_record(lon=121.5, lat=31.5, t=100.0, info=4.0)])
    stats = ds.fit_standardizer(fit, time_range)
    schema = ds.FeatureSchema()
    for name in masked:
        schema = schema.without_env(name)
    lon, lat, t, values = (np.array(col) for col in zip(*rows))
    nodes = ds.query_nodes(list(range(len(rows))), lon, lat, t, stats, schema)
    tail = schema.dim_full - 3
    for i, node in enumerate(nodes):
        want = np.array([0.0] * tail + [stats.standardize("longitude_gcj", lon[i]),
                                        stats.standardize("latitude_gcj", lat[i]),
                                        stats.rescale_time(t[i])])
        assert node.x_full.tobytes() == want.tobytes()
        assert math.isnan(node.y)
        assert (node.location_id, node.coords, node.t_raw) == (i, (lon[i], lat[i]), t[i])
    slot = len(schema.env_features)
    written, rows = nodes[np.arange(len(nodes))], np.arange(0, len(nodes), 2)  # a copy; even rows
    ds.write_readings(written, rows, values[rows], stats, schema)
    for i, (node, value, done) in enumerate(zip(nodes, values, written)):
        want = node.x_full.copy()
        if i in rows:
            want[slot] = stats.standardize("detect_info", value)
        assert done.x_full.tobytes() == want.tobytes()
        assert done.y == value if i in rows else math.isnan(done.y)
        assert math.isnan(node.y) and node.x_full[slot] == 0.0  # the copied rows stay


def test_feature_schema_dims_and_env_masking():
    schema = ds.FeatureSchema()
    assert schema.dim_full == 18 and schema.dim_st == 3
    masked = schema.without_env("humidity")
    assert masked.dim_full == 17
    stats = ds.fit_standardizer(table([make_record(t=0.0), make_record(t=1.0)]))
    node = preprocess_one(make_record(), stats, masked)
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
    assert default_synthetic.dtype == again.dtype == ds.RECORD_DTYPE
    assert default_synthetic.tobytes() == again.tobytes()


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


def _field_coords(n):
    """n points about the generator's centre, a few length scales apart."""
    rng = np.random.default_rng(n)
    return np.stack([ds.CENTER_LON + rng.normal(0.0, 0.05, n),
                     ds.CENTER_LAT + rng.normal(0.0, 0.05, n)], axis=1)


@pytest.mark.parametrize("n", [40, 320])
def test_latent_field_equals_the_broadcast_formula_bit_for_bit(n):
    coords = _field_coords(n)
    for scale in (ds.SPACE_SCALE_DEG, 2.0 * ds.SPACE_SCALE_DEG):
        got = ds.sample_latent_field(coords, scale, np.random.default_rng(7))
        want = broadcast_latent_field(coords, scale, np.random.default_rng(7))
        assert got.tobytes() == want.tobytes()


def test_latent_field_peak_stays_under_two_and_a_half_matrices():
    """The traced peak is the covariance and one more L x L buffer (numpy's
    LAPACK copy is not traced); the (L, L, 2) broadcast difference and its
    square took about five matrices."""
    n = 400
    coords = _field_coords(n)
    tracemalloc.start()
    try:
        ds.sample_latent_field(coords, ds.SPACE_SCALE_DEG, np.random.default_rng(7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8


def test_synthetic_unreachable_record_count_raises_naming_it():
    """One location in one day holds at most four visits, as gaps are at
    least a quarter day."""
    cfg = ds.SyntheticConfig(n_locations=1, n_records=50, n_clusters=1, span_days=1.0)
    with pytest.raises(ds.ConfigError) as exc:
        ds.generate_synthetic(cfg)
    assert str(exc.value) == ("cannot reach n_records=50 within span_days=1.0; "
                              "raise mean_visits or span")


def test_synthetic_raises_when_extension_rounds_run_out():
    """Four locations over a century still hold visits after the extension
    rounds run out, and the table must not come back short."""
    cfg = ds.SyntheticConfig(n_locations=4, n_records=1000, n_clusters=1, route_frac=0.0,
                             span_days=36500.0)
    with pytest.raises(ds.ConfigError) as exc:
        ds.generate_synthetic(cfg)
    assert str(exc.value) == ("cannot reach n_records=1000 within span_days=36500.0; "
                              "raise mean_visits or span")


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
    assert back.records.dtype == default_synthetic.dtype == ds.RECORD_DTYPE
    assert back.records.tobytes() == default_synthetic.tobytes()


def test_stats_roundtrip_json():
    stats = ds.fit_standardizer(table([make_record(t=0.0), make_record(t=5.0, min_tem=9.0)]))
    clone = ds.PreprocessStats.from_dict(stats.to_dict())
    assert clone == stats
