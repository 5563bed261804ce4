"""Tabular inspection records: loading, preprocessing, splitting, synthesis.

Records arrive as CSV rows with one observation per line (location, time,
weather readings, deterioration value). Preprocessing standardizes the
numeric columns against training-period statistics, rescales time to [0, 1],
and one-hot encodes the distress type, producing the two feature vectors
each graph node carries: the full vector and the spatial-temporal-only one.

The synthetic generator plants a spatially correlated, temporally increasing
deterioration field observed through an irregular, sparse, asynchronous
visit process, so ordering experiments have a known signal to recover.
"""

from __future__ import annotations

import csv
import datetime as _dt
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
               "detect_info", "detect_conf", "distress_type")  # RawRecord's fields, in order
_INT_COLUMNS = ("location_id", "distress_type")  # the rest are floats
TIME_FORMATS = ("days", "iso8601")


@dataclass
class RawRecord:
    """One observation: where, when, weather, and the deterioration reading."""

    location_id: int
    longitude_gcj: float
    latitude_gcj: float
    collect_time: float  # days since epoch, fractional allowed
    min_tem: float
    max_tem: float
    humidity: float
    wind: float
    pressure: float
    visibility: float
    precipitation: float
    cloud: float
    detect_info: float
    detect_conf: float
    distress_type: int

    def validate(self) -> None:
        if self.detect_info < 0:
            raise ValueError(f"detect_info must be >= 0, got {self.detect_info}")
        if not 0.0 <= self.detect_conf <= 1.0:
            raise ValueError(f"detect_conf must be in [0,1], got {self.detect_conf}")
        if self.distress_type not in DISTRESS_TYPES:
            raise EncodingError(f"unknown distress_type code {self.distress_type}")
        if not (math.isfinite(self.collect_time) and math.isfinite(self.longitude_gcj)
                and math.isfinite(self.latitude_gcj)):
            raise ValueError("non-finite coordinate or timestamp")


@dataclass(frozen=True)
class CsvSchema:
    """Timestamp convention for record files (columns are CSV_COLUMNS)."""

    time_format: str = "days"  # "days" (fractional days since epoch) or "iso8601"

    def __post_init__(self):
        if self.time_format not in TIME_FORMATS:
            raise SchemaError(f"unknown time_format {self.time_format!r}, "
                              f"expected one of {', '.join(TIME_FORMATS)}")

    def parse_time(self, text: str) -> float:
        if self.time_format == "days":
            return float(text)
        stamp = _dt.datetime.fromisoformat(text)
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=_dt.timezone.utc)
        return stamp.timestamp() / 86400.0


@dataclass(frozen=True)
class FeatureSchema:
    """Which raw columns enter the full feature vector, and in what order.

    Layout of x_full: standardized env features, standardized detect_info,
    one-hot type (optional), standardized detect_conf (optional), then the
    spatial-temporal tail [std longitude, std latitude, rescaled time]. The
    tail is shared with x_st, so x_st is always the last three slots.
    """

    env_features: tuple[str, ...] = ENV_FEATURES
    include_type_onehot: bool = True
    include_conf: bool = True

    @property
    def dim_full(self) -> int:
        return (len(self.env_features) + 1
                + (len(DISTRESS_TYPES) if self.include_type_onehot else 0)
                + (1 if self.include_conf else 0) + 3)

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
        feats = d["features"]
        return cls(means={k: v["mean"] for k, v in feats.items()},
                   stds={k: v["std"] for k, v in feats.items()},
                   t_min=d["t_min"], t_max=d["t_max"])


@dataclass
class ProcessedNode:
    """A graph node: full feature vector, spatial-temporal slice, raw target."""

    node_id: int
    location_id: int
    x_full: np.ndarray
    x_st: np.ndarray
    y: float
    t_norm: float
    t_raw: float
    coords: tuple[float, float]  # (lon, lat)


@dataclass
class LoadReport:
    records: list[RawRecord]
    skipped_rows: list[tuple[int, str]]  # (1-based data row number, reason)


def load_records(path, schema: CsvSchema = CsvSchema()) -> LoadReport:
    """Read records from CSV, sorted by time (ties: location_id, file order).

    Unparsable rows are skipped and reported with their row numbers; a
    missing column fails immediately.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in CSV_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"missing columns {missing} in {path}")
        parsers = [(c, int if c in _INT_COLUMNS else
                    schema.parse_time if c == "collect_time" else float)
                   for c in CSV_COLUMNS]
        records: list[tuple[float, int, int, RawRecord]] = []
        skipped: list[tuple[int, str]] = []
        for rownum, row in enumerate(reader, start=1):
            try:
                rec = RawRecord(*[parse(row[c]) for c, parse in parsers])
                rec.validate()
            except (ValueError, TypeError) as exc:
                skipped.append((rownum, str(exc)))
                continue
            records.append((rec.collect_time, rec.location_id, rownum, rec))
    records.sort(key=lambda item: (item[0], item[1], item[2]))
    return LoadReport(records=[item[3] for item in records], skipped_rows=skipped)


def write_records(path, records: list[RawRecord]) -> None:
    """Write records in the CSV schema (fractional-day timestamps)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([getattr(r, c) if c in _INT_COLUMNS else repr(getattr(r, c))
                             for c in CSV_COLUMNS])


def fit_standardizer(train_records: list[RawRecord],
                     time_range: tuple[float, float] | None = None) -> PreprocessStats:
    """Population mean/std per numeric feature over the given records.

    time_range, when known, should span the whole segment (train + test) so
    future timestamps rescale inside [0, 1]; otherwise later timestamps clamp.
    """
    if not train_records:
        raise EmptyDatasetError("cannot fit a standardizer on zero records")
    means, stds = {}, {}
    for name in NUMERIC_FEATURES:
        vals = np.array([getattr(r, name) for r in train_records])
        mean = float(vals.mean())
        means[name] = mean
        stds[name] = float(np.sqrt(np.mean((vals - mean) ** 2)))
    if time_range is None:
        times = [r.collect_time for r in train_records]
        time_range = (min(times), max(times))
    return PreprocessStats(means=means, stds=stds,
                           t_min=float(time_range[0]), t_max=float(time_range[1]))


def apply_preprocess(record: RawRecord, stats: PreprocessStats,
                     schema: FeatureSchema = FeatureSchema(),
                     node_id: int = -1) -> ProcessedNode:
    """Assemble x_full / x_st for one record under fitted statistics."""
    if record.distress_type not in DISTRESS_TYPES:
        raise EncodingError(f"unknown distress_type code {record.distress_type}")
    parts = [stats.standardize(name, getattr(record, name))
             for name in schema.env_features]
    parts.append(stats.standardize("detect_info", record.detect_info))
    if schema.include_type_onehot:
        onehot = [0.0] * len(DISTRESS_TYPES)
        onehot[DISTRESS_TYPES.index(record.distress_type)] = 1.0
        parts.extend(onehot)
    if schema.include_conf:
        parts.append(stats.standardize("detect_conf", record.detect_conf))
    t_norm = stats.rescale_time(record.collect_time)
    st_tail = [stats.standardize("longitude_gcj", record.longitude_gcj),
               stats.standardize("latitude_gcj", record.latitude_gcj),
               t_norm]
    x_full = np.array(parts + st_tail)
    return ProcessedNode(node_id=node_id, location_id=record.location_id,
                         x_full=x_full, x_st=x_full[-3:].copy(),
                         y=record.detect_info, t_norm=t_norm,
                         t_raw=record.collect_time,
                         coords=(record.longitude_gcj, record.latitude_gcj))


def preprocess_records(records: list[RawRecord], stats: PreprocessStats,
                       schema: FeatureSchema = FeatureSchema()) -> list[ProcessedNode]:
    """Preprocess a time-sorted record list, assigning node ids 0..n-1."""
    return [apply_preprocess(r, stats, schema, node_id=i)
            for i, r in enumerate(records)]


def split_segment(items: list, fractions: tuple[float, float, float] = (0.1, 0.7, 0.2)):
    """Contiguous (init, train, test) partition of a time-sorted sequence.

    Sizes: floor(n * f_init) and floor(n * f_train); the remainder is test.
    Each of the three parts must be non-empty.
    """
    if len(fractions) != 3 or abs(sum(fractions) - 1.0) > 1e-9:
        raise SplitError(f"fractions {fractions} are not three parts summing to 1")
    n = len(items)
    n_init = int(n * fractions[0])
    n_train = int(n * fractions[1])
    if min(n_init, n_train, n - n_init - n_train) < 1:
        raise SplitError(f"fractions {fractions} leave a part of {n} items empty")
    return (items[:n_init], items[n_init:n_init + n_train], items[n_init + n_train:])


# ---------------------------------------------------------------------------
# Synthetic data with planted spatiotemporal structure


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
    """

    n_locations: int = 320
    n_records: int | None = 2000
    center_lon: float = 121.45
    center_lat: float = 31.20
    extent_deg: float = 0.05
    n_clusters: int = 24        # road-segment clusters the locations sit on
    cluster_spread_deg: float = 0.0004  # scatter of locations around a cluster
    mean_visits: float = 4.0
    route_frac: float = 0.55    # fraction of clusters on a frequent inspection route
    route_gap_days: float = 4.0  # typical revisit gap on route locations
    span_days: float = 360.0
    start_day: float = 18750.0  # days since epoch
    space_scale_deg: float = 0.008
    time_scale_days: float = 60.0
    noise_level: float = 0.3
    rate_base: float = 0.06  # deterioration units per day
    rate_spread: float = 0.45
    level_cap: float = 14.0   # deterioration saturates as damage accumulates
    n_repair_events: float = 60.0  # mean regional repairs over the span
    repair_radius_frac: float = 0.18  # repair patch radius as a fraction of extent
    driver_feature: str = "precipitation"
    driver_weight: float = 0.6
    driver_obs_bias: float = 0.25  # measurement bias per unit of driver swing
    driver_spell_days: tuple[float, float] = (4.0, 14.0)  # weather spell periods
    noise_feature: str = "cloud"
    seed: int = 0

    def validate(self) -> None:
        if self.n_locations <= 0:
            raise ConfigError("n_locations must be positive")
        if self.span_days <= 0 or self.mean_visits <= 0 or self.extent_deg <= 0:
            raise ConfigError("span_days, mean_visits and extent_deg must be positive")
        if self.driver_feature not in ENV_FEATURES or self.noise_feature not in ENV_FEATURES:
            raise ConfigError("driver/noise features must be environmental features")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


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


def _env_value(name: str, t: float, loc_offset: float, cfg: SyntheticConfig,
               rng: np.random.Generator, spell: _WeatherSpell | None = None) -> float:
    if name == cfg.noise_feature:
        # deliberately structureless: masking it must cost nothing
        return _ENV_BASE[name] + _ENV_AMP[name] * rng.standard_normal() * 0.5
    if name == cfg.driver_feature and spell is not None:
        value = (_ENV_BASE[name]
                 + _ENV_AMP[name] * (0.8 * spell(t) + 0.2 * loc_offset)
                 + 0.15 * _ENV_AMP[name] * rng.standard_normal())
    else:
        phase = ENV_FEATURES.index(name)
        season = math.sin(2.0 * math.pi * t / cfg.time_scale_days + phase)
        value = (_ENV_BASE[name] + _ENV_AMP[name] * (0.6 * season + 0.3 * loc_offset)
                 + 0.35 * _ENV_AMP[name] * rng.standard_normal())
    if name in ("humidity", "cloud"):
        value = min(100.0, max(0.0, value))
    if name in ("wind", "visibility", "precipitation"):
        value = max(0.0, value)
    return value


def _driver_multiplier(driver_value: float, cfg: SyntheticConfig) -> float:
    """Positive growth multiplier from the driver feature (keeps trend monotone)."""
    centered = (driver_value - _ENV_BASE[cfg.driver_feature]) / _ENV_AMP[cfg.driver_feature]
    return math.exp(cfg.driver_weight * math.tanh(centered))


def generate_synthetic(config: SyntheticConfig) -> list[RawRecord]:
    """Generate a seeded record list realizing the target data pathologies."""
    config.validate()
    rng = np.random.default_rng(config.seed)

    # locations cluster along road segments: pick cluster centers in the
    # extent, scatter locations tightly around them
    c_lon = config.center_lon + rng.uniform(-0.5, 0.5, config.n_clusters) * config.extent_deg
    c_lat = config.center_lat + rng.uniform(-0.5, 0.5, config.n_clusters) * config.extent_deg
    member = rng.integers(0, config.n_clusters, config.n_locations)
    lons = c_lon[member] + rng.normal(0.0, config.cluster_spread_deg, config.n_locations)
    lats = c_lat[member] + rng.normal(0.0, config.cluster_spread_deg, config.n_locations)
    coords = np.stack([lons, lats], axis=1)

    rate_field = sample_latent_field(coords, config.space_scale_deg, rng)
    env_field = sample_latent_field(coords, config.space_scale_deg * 2.0, rng)
    rates = config.rate_base * np.exp(config.rate_spread * rate_field)
    types = rng.choice(DISTRESS_TYPES, size=config.n_locations)

    # starting level = rate x age since the last (unobserved) repair; the
    # exponential age matches the repair process's stationary distribution,
    # so levels do not drift between the train and test periods. Repairs are
    # regional, so the starting age is shared across a cluster.
    mean_radius_sq = (config.repair_radius_frac * config.extent_deg) ** 2 * 13.0 / 12.0
    area_frac = min(1.0, math.pi * mean_radius_sq / config.extent_deg ** 2)
    repair_gap = (config.span_days / max(config.n_repair_events * area_frac, 1e-9))
    cluster_age = np.minimum(rng.exponential(repair_gap, config.n_clusters),
                             2.2 * repair_gap)
    cap = config.level_cap
    start_levels = cap * (1.0 - np.exp(-rates * cluster_age[member] / cap))

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
        mu = math.log(config.route_gap_days) if routed else 2.4
        gap = rng.lognormal(mean=mu, sigma=0.7 if routed else 0.9) \
            / season_rate(t / config.span_days)
        return max(0.25, gap)

    visits: list[tuple[float, int]] = []
    chain_t = np.full(config.n_locations, -1.0)  # last visit time per location
    for j in range(config.n_locations):
        routed = j in route_location
        if routed:
            t = rng.uniform(0.0, 1.5 * config.route_gap_days)
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
    event_lon = config.center_lon + rng.uniform(-0.5, 0.5, n_events) * config.extent_deg
    event_lat = config.center_lat + rng.uniform(-0.5, 0.5, n_events) * config.extent_deg
    event_radius = rng.uniform(0.5, 1.5, n_events) * config.repair_radius_frac \
        * config.extent_deg
    repairs: list[list[float]] = [[] for _ in range(config.n_locations)]
    for e in range(n_events):
        hit = (lons - event_lon[e]) ** 2 + (lats - event_lat[e]) ** 2 \
            <= event_radius[e] ** 2
        for j in np.flatnonzero(hit):
            repairs[j].append(float(event_times[e]))

    records: list[RawRecord] = []
    last_time = np.zeros(config.n_locations)
    level = start_levels.copy()
    next_repair = [0] * config.n_locations
    spell = _WeatherSpell(config.seed, config.driver_spell_days)
    for t, j in visits:
        env = {name: _env_value(name, t, env_field[j], config, rng, spell=spell)
               for name in ENV_FEATURES}
        mult = _driver_multiplier(env[config.driver_feature], config)
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
        level[j] = cap - (cap - level[j]) * math.exp(
            -rates[j] * mult * (t - t_prev) / cap)
        last_time[j] = t

        # observation corruption (none when noise_level is 0): weather-driven
        # measurement bias plus confidence-scaled reading noise
        conf = float(min(1.0, max(0.05, 0.82 + 0.12 * rng.standard_normal())))
        observed = level[j]
        if config.noise_level > 0:
            centered = ((env[config.driver_feature] - _ENV_BASE[config.driver_feature])
                        / _ENV_AMP[config.driver_feature])
            observed = observed * (1.0 + config.driver_obs_bias * math.tanh(centered))
            noise_sd = config.noise_level * (1.0 + 6.0 * max(0.0, 0.9 - conf))
            observed = max(0.0, observed + noise_sd * rng.standard_normal())
        records.append(RawRecord(
            location_id=j,
            longitude_gcj=float(lons[j]), latitude_gcj=float(lats[j]),
            collect_time=float(config.start_day + t),
            detect_info=float(observed),
            detect_conf=conf,
            distress_type=int(types[j]),
            **{name: float(env[name]) for name in ENV_FEATURES},
        ))

    records.sort(key=lambda r: (r.collect_time, r.location_id))
    return records
