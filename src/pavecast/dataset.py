"""Tabular inspection records: loading, preprocessing, splitting, synthesis.

Records arrive as CSV rows with one observation per line (location, time,
weather readings, deterioration value). Preprocessing standardizes the
numeric columns against training-period statistics, rescales time to [0, 1],
and one-hot encodes the distress type, producing the two feature vectors
each graph node carries: the full vector and the spatial-temporal-only one.

Records are one np.recarray of RECORD_DTYPE, one row per observation, from
loading or synthesis to the forecast; the code reads its columns and never
iterates its rows. Loading reads the file once, as UTF-8 (a leading
byte-order mark is dropped), and takes the header as csv.DictReader does.
The data section then goes to NumPy's C reader (np.loadtxt into the
table). Files that reader cannot read exactly as csv.DictReader would (a
quoted cell, a lone carriage return, a cell that does not parse, a short or
whitespace-only row) and iso8601 timestamps go to the row parser instead,
which turns each row's cells into a table row or the reason a cell does not
parse. Both paths end in one tail: one vectorised validator, whose column
masks build a message only for the rows they flag, and one lexsort by time,
location and row number. So both give the same LoadReport, skipped-row
numbers and reasons included. The input decides which path runs.

Preprocessing is columnar too: the statistics are fitted on the record
columns, and the records become one NodeTable, whose x_full is one matrix
built with elementwise operations. Forecast queries get their nodes the
same way: query_nodes builds the table for a batch of (location,
coordinates, time) columns, zero but for the spatial-temporal tail and with
no reading, and write_readings writes a batch of forecasts into rows of a
table. One pair of helpers holds the standardization formulas for all
three, so x_full's layout has a single implementation.

The synthetic generator plants a spatially correlated, temporally increasing
deterioration field observed through an irregular, sparse, asynchronous
visit process, so ordering experiments have a known signal to recover.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np


class SchemaError(ValueError):
    """CSV header or config does not match the expected schema."""


class EmptyDatasetError(ValueError):
    """An operation that needs at least one record received none."""


class EncodingError(ValueError):
    """A categorical value is outside the known code set."""


class SplitError(ValueError):
    """Split fractions or sizes are unusable."""


class ConfigError(ValueError):
    """Synthetic generator configuration is invalid."""


DISTRESS_TYPES = (11, 13, 14, 15, 16)  # crack, net-crack, patch-crack, pothole, patch-pothole
ENV_FEATURES = ("min_tem", "max_tem", "humidity", "wind", "pressure",
                "visibility", "precipitation", "cloud")
NUMERIC_FEATURES = ENV_FEATURES + ("detect_info", "detect_conf",
                                   "longitude_gcj", "latitude_gcj")
CSV_COLUMNS = ("location_id", "longitude_gcj", "latitude_gcj", "collect_time",
               "min_tem", "max_tem", "humidity", "wind", "pressure",
               "visibility", "precipitation", "cloud",
               "detect_info", "detect_conf", "distress_type")  # RECORD_DTYPE's fields, in order
_INT_COLUMNS = ("location_id", "distress_type")  # the rest are floats
_FLOAT_COLUMNS = tuple(c for c in CSV_COLUMNS if c not in _INT_COLUMNS)
# one observation: where, when (collect_time in days since epoch, fractional
# allowed), weather, and the deterioration reading; records are a recarray of it
RECORD_DTYPE = np.dtype([(c, np.int64 if c in _INT_COLUMNS else np.float64)
                         for c in CSV_COLUMNS])
TIME_FORMATS = ("days", "iso8601")
COORD_BOUNDS = {"longitude_gcj": 180.0, "latitude_gcj": 90.0}  # |coordinate| on Earth, degrees
_COORDS = tuple(COORD_BOUNDS)  # standardized in x_full's tail, before time


def _parse_iso8601(text: str) -> float:
    """Days since the epoch of an ISO-8601 time; one without a zone is UTC."""
    stamp = _dt.datetime.fromisoformat(text)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=_dt.timezone.utc)
    return stamp.timestamp() / 86400.0


@dataclass(frozen=True)
class FeatureSchema:
    """Which raw columns enter the full feature vector, and in what order.

    Layout of x_full: standardized env features, standardized detect_info,
    one-hot type, standardized detect_conf, then the spatial-temporal tail
    [std longitude, std latitude, rescaled time]. The tail is shared with
    x_st, so x_st is always the last three slots.
    """

    env_features: tuple[str, ...] = ENV_FEATURES

    def __post_init__(self):
        unknown = [f for f in self.env_features if f not in ENV_FEATURES]
        if unknown:
            raise SchemaError(f"unknown env_features {unknown}, "
                              f"expected names from {', '.join(ENV_FEATURES)}")

    @property
    def dim_full(self) -> int:
        return len(self.env_features) + 1 + len(DISTRESS_TYPES) + 1 + 3

    @property
    def dim_st(self) -> int:
        return 3

    def without_env(self, name: str) -> "FeatureSchema":
        if name not in self.env_features:
            raise SchemaError(f"{name!r} is not an active environmental feature")
        kept = tuple(f for f in self.env_features if f != name)
        return replace(self, env_features=kept)


@dataclass
class PreprocessStats:
    """Training-period means/stds per numeric feature plus the time range."""

    means: dict[str, float]
    stds: dict[str, float]
    t_min: float
    t_max: float

    def standardize(self, name: str, value: float) -> float:
        s = self.stds[name]
        if s == 0.0:
            return 0.0
        return (value - self.means[name]) / s

    def rescale_time(self, t: float) -> float:
        if self.t_max == self.t_min:
            return 0.0
        return min(1.0, max(0.0, (t - self.t_min) / (self.t_max - self.t_min)))

    def to_dict(self) -> dict:
        return {"features": {name: {"mean": self.means[name], "std": self.stds[name]}
                             for name in self.means},
                "t_min": self.t_min, "t_max": self.t_max}

    @classmethod
    def from_dict(cls, d: dict) -> "PreprocessStats":
        """The stats to_dict wrote; SchemaError unless they give a finite mean
        and std >= 0 for exactly NUMERIC_FEATURES and a finite t_min <= t_max."""
        feats = d["features"]
        if set(feats) != set(NUMERIC_FEATURES):
            raise SchemaError(f"stats need a mean and a std for exactly "
                              f"{', '.join(NUMERIC_FEATURES)}")
        numbers = {**{f"{k} {s}": v[s] for k, v in feats.items() for s in ("mean", "std")},
                   "t_min": d["t_min"], "t_max": d["t_max"]}
        for name, v in numbers.items():
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise SchemaError(f"stats {name} must be a finite number, got {v!r}")
        if min(v["std"] for v in feats.values()) < 0 or d["t_min"] > d["t_max"]:
            raise SchemaError("stats need every std >= 0 and t_min <= t_max")
        return cls(means={k: v["mean"] for k, v in feats.items()},
                   stds={k: v["std"] for k, v in feats.items()},
                   t_min=d["t_min"], t_max=d["t_max"])


@dataclass(frozen=True, eq=False)
class NodeTable:
    """Graph nodes as columns, node i in row i; x_st and t_norm are x_full's tail. table[index]
    indexes every column (table[i] is node i, table[ids] a sub-table); + stacks two tables."""

    location_id: np.ndarray  # (n,) int64
    lon: np.ndarray
    lat: np.ndarray
    t_raw: np.ndarray
    x_full: np.ndarray  # (n, d), layout: FeatureSchema
    y: np.ndarray  # raw deterioration reading, NaN where not yet known

    @property
    def x_st(self) -> np.ndarray:
        return self.x_full[..., -3:]

    @property
    def t_norm(self) -> np.ndarray:
        return self.x_full[..., -1]

    @property
    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        return self.lon, self.lat

    def __len__(self) -> int:
        return len(self.t_raw)

    def __getitem__(self, index) -> "NodeTable":
        return NodeTable(*(col[index] for col in vars(self).values()))

    def __add__(self, other: "NodeTable") -> "NodeTable":
        return NodeTable(*map(np.concatenate, zip(vars(self).values(), vars(other).values())))


@dataclass
class LoadReport:
    records: np.recarray  # of RECORD_DTYPE
    skipped_rows: list[tuple[int, str]]  # (1-based data row number, reason)


def load_records(path, time_format: str = "days") -> LoadReport:
    """Read records from CSV, sorted by time (ties: location_id, file order).

    collect_time is in TIME_FORMATS' "days" (since the epoch) or "iso8601".
    Unparsable rows are skipped and reported with their row numbers; an
    unknown time_format, a missing column or non-UTF-8 text fails at once.
    """
    if time_format not in TIME_FORMATS:
        raise SchemaError(f"unknown time_format {time_format!r}, "
                          f"expected one of {', '.join(TIME_FORMATS)}")
    header, body = _read_csv(path)
    if time_format == "days":
        try:
            return _load_columns(header, body)
        except ValueError:
            pass
    return _load_rows(header, body, time_format)


def _read_csv(path) -> tuple[list[str], str]:
    """The header, as csv.DictReader takes it, and the text after it."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            header = csv.DictReader(fh).fieldnames or []
            missing = [c for c in CSV_COLUMNS if c not in header]
            if missing:
                raise SchemaError(f"missing columns {missing} in {path}")
            return header, fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc.reason} "
                          f"at byte {exc.start}") from None


def _load_columns(header: list[str], body: str) -> LoadReport:
    """The data section, read by np.loadtxt into one table.

    np.loadtxt skips empty lines, as csv.DictReader does. ValueError means
    the two could read the text differently: a quote character, a cell
    that does not parse, a row too short for a column, a whitespace-only
    line, or a carriage return that ends a line on its own.
    """
    if '"' in body:
        raise ValueError("quoted cells")
    table = np.empty(0, RECORD_DTYPE)
    if body.strip("\r\n"):
        where = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
        table = np.loadtxt(body.split("\n"), dtype=RECORD_DTYPE, delimiter=",", comments=None,
                           usecols=[where[c] for c in CSV_COLUMNS], ndmin=1)
    return _validated(table, np.arange(1, len(table) + 1), [])


def _load_rows(header: list[str], body: str, time_format: str) -> LoadReport:
    """The data section, one csv.DictReader row at a time: each row's cells
    become a row of the table, or the reason the first one does not parse."""
    parse_time = _parse_iso8601 if time_format == "iso8601" else float
    parsers = [(c, int if c in _INT_COLUMNS else
                parse_time if c == "collect_time" else float)
               for c in CSV_COLUMNS]
    rows: list[tuple] = []
    rownums: list[int] = []
    skipped: list[tuple[int, str]] = []
    reader = csv.DictReader(io.StringIO(body, newline=""), header)
    for rownum, row in enumerate(reader, start=1):
        try:
            cells = tuple(parse(row[c]) for c, parse in parsers)
        except (ValueError, TypeError) as exc:
            skipped.append((rownum, str(exc)))
            continue
        # the int columns, location_id first and distress_type last, must fit in int64
        if not -2 ** 63 <= cells[0] < 2 ** 63:
            skipped.append((rownum, f"location_id must fit in 64 bits, got {cells[0]}"))
        elif not -2 ** 63 <= cells[-1] < 2 ** 63:
            skipped.append((rownum, f"unknown distress_type code {cells[-1]}"))
        else:
            rows.append(cells)
            rownums.append(rownum)
    return _validated(np.array(rows, RECORD_DTYPE), np.array(rownums, np.int64), skipped)


def _validated(table: np.ndarray, rownums: np.ndarray,
               skipped: list[tuple[int, str]]) -> LoadReport:
    """Both parse paths' tail: table's rows, numbered rownums, checked and sorted.

    A row that breaks a rule is skipped with the first broken rule's
    reason, the rules in this order: every float finite, coordinates on
    the Earth (COORD_BOUNDS), detect_info >= 0, detect_conf in [0, 1] and
    distress_type in DISTRESS_TYPES. (A location_id outside int64, which
    comes between the first two, cannot reach the table: _load_rows skips
    it.) The rest are sorted by collect_time, then location_id, then row
    number; skipped comes back sorted by row number.
    """
    finite = np.isfinite([table[c] for c in _FLOAT_COLUMNS]).reshape(len(_FLOAT_COLUMNS), -1)
    keep = finite.all(axis=0)
    for i, num in zip(np.flatnonzero(~keep).tolist(), rownums[~keep].tolist()):
        skipped.append((num, "non-finite " + ", ".join(
            c for c, ok in zip(_FLOAT_COLUMNS, finite[:, i]) if not ok)))
    conf = table["detect_conf"]
    rules = [*((np.abs(table[c]) > bound, c, f"{c} must be in [-{bound}, {bound}], got {{}}")
               for c, bound in COORD_BOUNDS.items()),
             (table["detect_info"] < 0, "detect_info", "detect_info must be >= 0, got {}"),
             (~((conf >= 0.0) & (conf <= 1.0)), "detect_conf",
              "detect_conf must be in [0,1], got {}"),
             (~np.isin(table["distress_type"], DISTRESS_TYPES), "distress_type",
              "unknown distress_type code {}")]  # (rows broken, column, reason for its value)
    for broken, c, reason in rules:
        hit = np.flatnonzero(broken & keep)
        keep[hit] = False
        skipped += zip(rownums[hit].tolist(), map(reason.format, table[c][hit].tolist()))
    kept = np.flatnonzero(keep)
    order = kept[np.lexsort((rownums[kept], table["location_id"][kept],
                             table["collect_time"][kept]))]
    return LoadReport(records=table[order].view(np.recarray), skipped_rows=sorted(skipped))


def write_records(path, records: np.recarray) -> None:
    """Write records in the CSV schema (fractional-day timestamps)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(zip(*(records[c].tolist() for c in CSV_COLUMNS)))  # floats as repr


def fit_standardizer(train_records: np.recarray,
                     time_range: tuple[float, float] | None = None) -> PreprocessStats:
    """Population mean/std per numeric feature over the given records.

    time_range, when known, should span the whole segment (train + test) so
    future timestamps rescale inside [0, 1]; otherwise later timestamps clamp.
    """
    if not len(train_records):
        raise EmptyDatasetError("cannot fit a standardizer on zero records")
    means, stds = {}, {}
    for name in NUMERIC_FEATURES:
        vals = train_records[name]
        mean = float(vals.mean())
        means[name] = mean
        stds[name] = float(np.sqrt(np.mean((vals - mean) ** 2)))
    if time_range is None:
        times = train_records["collect_time"].tolist()
        time_range = (min(times), max(times))
    return PreprocessStats(means=means, stds=stds,
                           t_min=float(time_range[0]), t_max=float(time_range[1]))


@np.errstate(invalid="ignore", over="ignore")  # silent, like the scalar formulas
def _standardized(stats: PreprocessStats, names: tuple[str, ...], cols) -> np.ndarray:
    """PreprocessStats.standardize of every entry of cols (one row per name),
    one column per name."""
    out = np.zeros((len(names), len(cols[0])))
    for row, name, col in zip(out, names, cols):
        if stats.stds[name] != 0.0:
            np.divide(np.subtract(col, stats.means[name]), stats.stds[name], out=row)
    return out.T


@np.errstate(invalid="ignore", over="ignore")
def _rescaled(stats: PreprocessStats, times: np.ndarray) -> np.ndarray:
    """PreprocessStats.rescale_time of every entry of times."""
    if stats.t_max == stats.t_min:
        return np.zeros(len(times))
    # min(1, max(0, t)) as Python takes it: NaN maps to 0
    t = (times - stats.t_min) / (stats.t_max - stats.t_min)
    return np.where(t > 0.0, np.where(t < 1.0, t, 1.0), 0.0)


def preprocess_records(records: np.recarray, stats: PreprocessStats,
                       schema: FeatureSchema = FeatureSchema()) -> NodeTable:
    """One node per record, in order (x_full's layout: FeatureSchema).

    Elementwise over columns, with PreprocessStats' formulas: each entry is
    the float the scalar standardize and rescale_time give. The node
    columns are copies, so writing a reading into them leaves records be.
    """
    k = len(schema.env_features) + 1  # the standardized columns before the one-hot
    names = (*schema.env_features, "detect_info", "detect_conf", *_COORDS)
    code = records["distress_type"]
    onehot = code[:, None] == DISTRESS_TYPES
    known = onehot.any(axis=1)
    if not known.all():
        raise EncodingError(f"unknown distress_type code {code[np.argmin(known)]}")
    z = _standardized(stats, names, [records[c] for c in names])
    location_id, lon, lat, t_raw, y = (np.array(records[c]) for c in (
        "location_id", *_COORDS, "collect_time", "detect_info"))
    x_full = np.concatenate([z[:, :k], onehot, z[:, k:], _rescaled(stats, t_raw)[:, None]],
                            axis=1)
    return NodeTable(location_id, lon, lat, t_raw, x_full, y)


def query_nodes(location_id: np.ndarray, lon: np.ndarray, lat: np.ndarray, t_raw: np.ndarray,
                stats: PreprocessStats, schema: FeatureSchema) -> NodeTable:
    """One node per query column entry, for a time not yet observed.

    x_full is zero but for the spatial-temporal tail, which is what a
    record at those coordinates and time would have there; y is NaN.
    """
    x_full = np.zeros((len(t_raw), schema.dim_full))
    x_full[:, -3:-1] = _standardized(stats, _COORDS, (lon, lat))
    x_full[:, -1] = _rescaled(stats, t_raw)
    return NodeTable(np.asarray(location_id, dtype=np.int64), lon, lat, t_raw, x_full,
                     np.full(len(t_raw), math.nan))


def write_readings(nodes: NodeTable, rows, values: np.ndarray, stats: PreprocessStats,
                   schema: FeatureSchema) -> None:
    """Write values into nodes' rows as their deterioration readings: as y, and
    standardized in x_full's detect_info slot. The other slots stay as they
    are; in a query node the environmental, confidence and type slots are
    zero, the training mean in standardized space."""
    nodes.y[rows] = values
    nodes.x_full[rows, len(schema.env_features)] = _standardized(
        stats, ("detect_info",), [values])[:, 0]


def split_segment(items: list, fractions: tuple[float, float, float] = (0.1, 0.7, 0.2)):
    """Contiguous (init, train, test) partition of a time-sorted sequence.

    Sizes: floor(n * f_init) and floor(n * f_train); the remainder is test.
    Each of the three parts must be non-empty.
    """
    if len(fractions) != 3 or not abs(sum(fractions) - 1.0) <= 1e-9:  # NaN sums fail too
        raise SplitError(f"fractions {fractions} are not three parts summing to 1")
    n = len(items)
    n_init = int(n * fractions[0])
    n_train = int(n * fractions[1])
    if min(n_init, n_train, n - n_init - n_train) < 1:
        raise SplitError(f"fractions {fractions} leave a part of {n} items empty")
    return (items[:n_init], items[n_init:n_init + n_train], items[n_init + n_train:])


# ---------------------------------------------------------------------------
# Synthetic data with planted spatiotemporal structure


# generator settings shared by every synthetic dataset
CENTER_LON = 121.45
CENTER_LAT = 31.20
EXTENT_DEG = 0.05
CLUSTER_SPREAD_DEG = 0.0004  # scatter of locations around a cluster
ROUTE_GAP_DAYS = 4.0  # typical revisit gap on route locations
START_DAY = 18750.0  # days since epoch
SPACE_SCALE_DEG = 0.008
TIME_SCALE_DAYS = 60.0
RATE_BASE = 0.06  # deterioration units per day
RATE_SPREAD = 0.45
LEVEL_CAP = 14.0   # deterioration saturates as damage accumulates
REPAIR_RADIUS_FRAC = 0.18  # repair patch radius as a fraction of extent
DRIVER_FEATURE = "precipitation"
DRIVER_WEIGHT = 0.6
NOISE_FEATURE = "cloud"


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the seeded deterioration-field generator.

    The visit process is a heavy-tailed renewal per location with a
    season-modulated rate, which yields irregular spacing and a non-uniform
    timestamp histogram; per-location visit counts are geometric so series
    are short and unequal. detect_info grows piecewise-linearly at a rate
    given by a spatially correlated latent field, boosted by one designated
    driver weather feature, and drops back near zero whenever a seeded
    regional repair event covers the location. Repairs are regional, so the
    severity level itself stays spatially smooth and nearby recent
    observations genuinely inform a query.

    The module constants above fix the rest: CENTER_LON, CENTER_LAT,
    EXTENT_DEG, CLUSTER_SPREAD_DEG, ROUTE_GAP_DAYS, START_DAY, SPACE_SCALE_DEG,
    TIME_SCALE_DAYS, RATE_BASE, RATE_SPREAD, LEVEL_CAP, REPAIR_RADIUS_FRAC,
    DRIVER_FEATURE, DRIVER_WEIGHT and NOISE_FEATURE.
    """

    n_locations: int = 320
    n_records: int | None = 2000
    n_clusters: int = 24        # road-segment clusters the locations sit on
    mean_visits: float = 4.0
    route_frac: float = 0.55    # fraction of clusters on a frequent inspection route
    span_days: float = 360.0
    noise_level: float = 0.3
    n_repair_events: float = 60.0  # mean regional repairs over the span
    driver_obs_bias: float = 0.25  # measurement bias per unit of driver swing
    driver_spell_days: tuple[float, float] = (4.0, 14.0)  # weather spell periods
    seed: int = 0

    def __post_init__(self):
        spell = self.driver_spell_days
        for name, rule, ok in (
                ("n_locations", ">= 1", self.n_locations >= 1),
                ("n_records", "None or >= 1", self.n_records is None or self.n_records >= 1),
                ("n_clusters", ">= 1", self.n_clusters >= 1),
                ("mean_visits", "finite and >= 1", 1.0 <= self.mean_visits < math.inf),
                ("route_frac", "in [0, 1]", 0.0 <= self.route_frac <= 1.0),
                ("span_days", "finite and > 0", 0.0 < self.span_days < math.inf),
                ("noise_level", "finite and >= 0", 0.0 <= self.noise_level < math.inf),
                ("n_repair_events", "finite and >= 0", 0.0 <= self.n_repair_events < math.inf),
                ("driver_obs_bias", "finite", math.isfinite(self.driver_obs_bias)),
                ("driver_spell_days", "two finite periods 0 < low <= high",
                 len(spell) == 2 and 0.0 < spell[0] <= spell[-1] < math.inf),
                ("seed", ">= 0", self.seed >= 0)):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")


def sample_latent_field(coords: np.ndarray, length_scale_deg: float,
                        rng: np.random.Generator, jitter: float = 1e-9) -> np.ndarray:
    """Draw one zero-mean unit-variance field with squared-exponential covariance."""
    diff = coords[:, None, :] - coords[None, :, :]
    sq = (diff ** 2).sum(axis=2)
    cov = np.exp(-sq / (2.0 * length_scale_deg ** 2))
    cov[np.diag_indices_from(cov)] += jitter
    chol = np.linalg.cholesky(cov)
    return chol @ rng.standard_normal(len(coords))


_ENV_BASE = {"min_tem": 12.0, "max_tem": 21.0, "humidity": 70.0, "wind": 3.2,
             "pressure": 1015.0, "visibility": 12.0, "precipitation": 4.0,
             "cloud": 50.0}
_ENV_AMP = {"min_tem": 9.0, "max_tem": 10.0, "humidity": 12.0, "wind": 1.1,
            "pressure": 9.0, "visibility": 5.0, "precipitation": 3.5,
            "cloud": 22.0}


class _WeatherSpell:
    """Smooth aperiodic regional signal for the driver feature.

    A random mixture of incommensurate sinusoids: the model cannot recover
    it from the calendar time alone, so the driver reading carries signal
    of its own. Seeded independently of the main generator stream.
    """

    def __init__(self, seed: int, period_range: tuple[float, float]):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7701]))
        # fast spells make a reading specific to its own visit (it debiases
        # that observation and nothing else); slow spells behave seasonally
        self.periods = rng.uniform(period_range[0], period_range[1], 4)
        self.phases = rng.uniform(0.0, 2.0 * math.pi, 4)
        w = rng.uniform(0.5, 1.0, 4)
        self.weights = w / np.sqrt((w ** 2).sum())

    def __call__(self, t: float) -> float:
        return float(sum(w * math.sin(2.0 * math.pi * t / p + ph)
                         for w, p, ph in zip(self.weights, self.periods, self.phases)))


def _env_value(name: str, t: float, loc_offset: float, rng: np.random.Generator,
               spell: _WeatherSpell) -> float:
    if name == NOISE_FEATURE:
        # deliberately structureless: masking it must cost nothing
        return _ENV_BASE[name] + _ENV_AMP[name] * rng.standard_normal() * 0.5
    if name == DRIVER_FEATURE:
        value = (_ENV_BASE[name]
                 + _ENV_AMP[name] * (0.8 * spell(t) + 0.2 * loc_offset)
                 + 0.15 * _ENV_AMP[name] * rng.standard_normal())
    else:
        phase = ENV_FEATURES.index(name)
        season = math.sin(2.0 * math.pi * t / TIME_SCALE_DAYS + phase)
        value = (_ENV_BASE[name] + _ENV_AMP[name] * (0.6 * season + 0.3 * loc_offset)
                 + 0.35 * _ENV_AMP[name] * rng.standard_normal())
    if name in ("humidity", "cloud"):
        value = min(100.0, max(0.0, value))
    if name in ("wind", "visibility", "precipitation"):
        value = max(0.0, value)
    return value


def generate_synthetic(config: SyntheticConfig) -> np.recarray:
    """Generate seeded records realizing the target data pathologies, sorted
    by time (ties: location_id, visit order)."""
    rng = np.random.default_rng(config.seed)

    # locations cluster along road segments: pick cluster centers in the
    # extent, scatter locations tightly around them
    c_lon = CENTER_LON + rng.uniform(-0.5, 0.5, config.n_clusters) * EXTENT_DEG
    c_lat = CENTER_LAT + rng.uniform(-0.5, 0.5, config.n_clusters) * EXTENT_DEG
    member = rng.integers(0, config.n_clusters, config.n_locations)
    lons = c_lon[member] + rng.normal(0.0, CLUSTER_SPREAD_DEG, config.n_locations)
    lats = c_lat[member] + rng.normal(0.0, CLUSTER_SPREAD_DEG, config.n_locations)
    coords = np.stack([lons, lats], axis=1)

    rate_field = sample_latent_field(coords, SPACE_SCALE_DEG, rng)
    env_field = sample_latent_field(coords, SPACE_SCALE_DEG * 2.0, rng)
    rates = RATE_BASE * np.exp(RATE_SPREAD * rate_field)
    types = rng.choice(DISTRESS_TYPES, size=config.n_locations)

    # starting level = rate x age since the last (unobserved) repair; the
    # exponential age matches the repair process's stationary distribution,
    # so levels do not drift between the train and test periods. Repairs are
    # regional, so the starting age is shared across a cluster.
    mean_radius_sq = (REPAIR_RADIUS_FRAC * EXTENT_DEG) ** 2 * 13.0 / 12.0
    area_frac = min(1.0, math.pi * mean_radius_sq / EXTENT_DEG ** 2)
    repair_gap = (config.span_days / max(config.n_repair_events * area_frac, 1e-9))
    cluster_age = np.minimum(rng.exponential(repair_gap, config.n_clusters),
                             2.2 * repair_gap)
    start_levels = LEVEL_CAP * (1.0 - np.exp(-rates * cluster_age[member] / LEVEL_CAP))

    # visit counts: geometric => short, unequal series (median well under 10);
    # one location per routed cluster sits on a frequent inspection route and
    # is revisited throughout the whole span (long series, fresh neighbors)
    counts = rng.geometric(1.0 / config.mean_visits, size=config.n_locations)
    routed_clusters = set(rng.choice(config.n_clusters,
                                     max(0, int(config.route_frac * config.n_clusters)),
                                     replace=False).tolist())
    route_location = {}
    for c in sorted(routed_clusters):
        members = np.flatnonzero(member == c)
        if len(members):
            route_location[int(members[0])] = True

    def season_rate(t_frac: float) -> float:
        # collection happens in campaigns with near-dead gaps between them:
        # timestamps are strongly non-uniform and gaps heavy-tailed
        return (0.12
                + 1.9 * math.exp(-((t_frac - 0.18) ** 2) / 0.004)
                + 1.4 * math.exp(-((t_frac - 0.55) ** 2) / 0.006)
                + 2.2 * math.exp(-((t_frac - 0.93) ** 2) / 0.005))

    def next_gap(t: float, routed: bool) -> float:
        mu = math.log(ROUTE_GAP_DAYS) if routed else 2.4
        gap = rng.lognormal(mean=mu, sigma=0.7 if routed else 0.9) \
            / season_rate(t / config.span_days)
        return max(0.25, gap)

    visits: list[tuple[float, int]] = []
    chain_t = np.full(config.n_locations, -1.0)  # last visit time per location
    for j in range(config.n_locations):
        routed = j in route_location
        if routed:
            t = rng.uniform(0.0, 1.5 * ROUTE_GAP_DAYS)
            while t < config.span_days:
                visits.append((t, j))
                chain_t[j] = t
                t += next_gap(t, True)
        else:
            t = rng.uniform(0.0, config.span_days * 0.9)
            for _ in range(int(counts[j])):
                if t >= config.span_days:
                    break
                visits.append((t, j))
                chain_t[j] = t
                t += next_gap(t, False)

    if config.n_records is not None:
        # extend per-location renewal chains (never insert into the past) until
        # the target count is met, then keep the earliest visits
        for _ in range(200):
            if len(visits) >= config.n_records:
                break
            added = 0
            for j in rng.permutation(config.n_locations):
                if len(visits) >= config.n_records:
                    break
                t0 = chain_t[j] if chain_t[j] >= 0 else rng.uniform(0.0, config.span_days * 0.9)
                t = t0 + next_gap(max(t0, 0.0), j in route_location) if chain_t[j] >= 0 else t0
                if t < config.span_days:
                    visits.append((t, j))
                    chain_t[j] = t
                    added += 1
            if added == 0:
                raise ConfigError(
                    f"cannot reach n_records={config.n_records} within span_days="
                    f"{config.span_days}; raise mean_visits or span")
        visits.sort()
        if len(visits) > config.n_records:
            # thin uniformly at random: keeps the temporal density shape
            keep = np.sort(rng.choice(len(visits), config.n_records, replace=False))
            visits = [visits[i] for i in keep]
    else:
        visits.sort()

    # regional repair events: every location inside the patch resets together,
    # keeping severity levels spatially coherent
    n_events = int(rng.poisson(config.n_repair_events))
    event_times = np.sort(rng.uniform(0.0, config.span_days, n_events))
    event_lon = CENTER_LON + rng.uniform(-0.5, 0.5, n_events) * EXTENT_DEG
    event_lat = CENTER_LAT + rng.uniform(-0.5, 0.5, n_events) * EXTENT_DEG
    event_radius = rng.uniform(0.5, 1.5, n_events) * REPAIR_RADIUS_FRAC * EXTENT_DEG
    repairs: list[list[float]] = [[] for _ in range(config.n_locations)]
    for e in range(n_events):
        hit = (lons - event_lon[e]) ** 2 + (lats - event_lat[e]) ** 2 \
            <= event_radius[e] ** 2
        for j in np.flatnonzero(hit):
            repairs[j].append(float(event_times[e]))

    rows: list[tuple] = []  # in CSV_COLUMNS order
    last_time = np.zeros(config.n_locations)
    level = start_levels.copy()
    next_repair = [0] * config.n_locations
    spell = _WeatherSpell(config.seed, config.driver_spell_days)
    for t, j in visits:
        env = {name: _env_value(name, t, env_field[j], rng, spell)
               for name in ENV_FEATURES}
        # the driver's swing in (-1, 1): it speeds growth (a positive
        # multiplier keeps the trend monotone) and biases the reading
        swing = math.tanh((env[DRIVER_FEATURE] - _ENV_BASE[DRIVER_FEATURE])
                          / _ENV_AMP[DRIVER_FEATURE])
        mult = math.exp(DRIVER_WEIGHT * swing)
        # advance the latent level, honoring any repairs since the last visit
        t_prev = last_time[j]
        reps = repairs[j]
        while next_repair[j] < len(reps) and reps[next_repair[j]] <= t:
            t_rep = reps[next_repair[j]]
            if t_rep > t_prev:
                level[j] = 0.05 + 0.1 * abs(rng.standard_normal())
                t_prev = t_rep
            next_repair[j] += 1
        # saturating growth toward the damage cap, monotone between repairs
        level[j] = LEVEL_CAP - (LEVEL_CAP - level[j]) * math.exp(
            -rates[j] * mult * (t - t_prev) / LEVEL_CAP)
        last_time[j] = t

        # observation corruption (none when noise_level is 0): weather-driven
        # measurement bias plus confidence-scaled reading noise
        conf = float(min(1.0, max(0.05, 0.82 + 0.12 * rng.standard_normal())))
        observed = level[j]
        if config.noise_level > 0:
            observed = observed * (1.0 + config.driver_obs_bias * swing)
            noise_sd = config.noise_level * (1.0 + 6.0 * max(0.0, 0.9 - conf))
            observed = max(0.0, observed + noise_sd * rng.standard_normal())
        rows.append((j, float(lons[j]), float(lats[j]), float(START_DAY + t),
                     *(float(env[name]) for name in ENV_FEATURES),
                     float(observed), conf, int(types[j])))

    table = np.array(rows, RECORD_DTYPE)
    return table[np.lexsort((table["location_id"], table["collect_time"]))].view(np.recarray)
