"""Synthetic trip corpus generation and the fleet's columnar trip store.

Builds a deterministic fleet of devices with heterogeneous travel
behavior: common short activities (walking, driving) through rare
long-haul ones (flying), heavy-tailed per-device rates, and a skewed
home-region distribution.  The whole fleet draws each quantity in one
block from its own counter-based stream, ``rng.BlockRng(corpus_seed,
"corpus", quantity)``, so the corpus is bit-for-bit reproducible and
every device's values are independent of the rest of the fleet.

The streams and their layout, in the order they are drawn:

* per device, at position ``device_id``: ``"tier"`` (high end if the
  uniform is below ``high_end_share``) and ``"home-region"``;
* per activity ``a`` (counter ``a``), at position ``device_id``:
  ``"participation"`` (a uniform; the device takes part if it is below
  the activity's share) and ``"rate"``, the device's rate multiplier,
  a lognormal drawn for every device;
* per activity and week (counter ``(a, week)``), at position
  ``device_id``: ``"count"``, the device's Poisson trip count (mean 0
  if it does not take part);
* per activity and week, at the trip's rank in the block, where the
  block holds the week's trips of that activity device after device:
  ``"time"`` (a uniform over the week, floored to a second),
  ``"direction"``, ``"distance"`` (lognormal) and ``"jitter"``
  (lognormal; the duration is ``distance / speed * 3600 * jitter``).

Uniforms and categorical draws read :meth:`BlockRng.uniforms`; a
categorical value (home region, direction) is
``searchsorted(choice_cdf(p), u, side="right")``.  Poisson counts and
lognormals are numpy ``Generator`` array methods on the same stream
(:meth:`BlockRng.generator`), which compute every value with the same
per-element C code (libm ``exp``) as a scalar call, on every host.
Every value sits at a position fixed by its device and (activity,
week), so a 300-device corpus is exactly the first 300 devices of a
1,000-device one, and a 1-week corpus exactly the first week of a
2-week one.  Trips are then sorted stably by (device, event time): ties
keep their generation order, activity, then week, then trip.  A change
to these streams or this order changes the corpus and must be
documented here.

The :class:`Corpus` stores no object per trip.  The fleet's trips are
five parallel unboxed columns (``event_time``, ``activity``,
``direction``, ``distance_km``, ``duration_s``) whose rows are sorted
stably by (device, event time); ``offsets`` delimits each device's rows,
and tier and home region are per device.  The simulator's device caches
are row ranges of these columns.  One pass over a window's rows
(:meth:`Corpus.device_histograms`, one ``np.bincount`` per metric) gives
every device's raw window histogram as one block of partition rows
(:class:`fedsum.model.DeviceSubtotals`); ``client.client_work`` runs the
same kernel on one device's trip records, so the sums are bit for bit
its own.  Calibration, the sweep's pre-noise sums and the window's truth
(``metrics.window_truth``: the exact workload and
:meth:`Corpus.device_counts`) all read that block, and take it as an
argument.  :class:`TripRecord` objects are built only at the edge, by
:meth:`Corpus.records`, which :attr:`Corpus.devices` and a device
cache's ``visible_records`` read.

The magnitude spread across activities and metrics is the point: trip
counts are O(1), distances O(1)-O(1000) km, durations O(100)-O(10000) s.
Per-slice scaling pays off on trip counts and distances; durations
dominate each device's unscaled L1 norm, so joint clipping already
spends nearly its whole budget on them.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import DIRECTIONS, DeviceSubtotals, Schema, TripRecord
from .rng import BlockRng
from .windows import TimeWindow

__all__ = [
    "ActivitySpec",
    "DEFAULT_ACTIVITIES",
    "SyntheticCorpusConfig",
    "DeviceRecords",
    "Corpus",
    "generate_corpus",
]

# Monday 2024-05-13 00:00:00 UTC — a civil week boundary.
DEFAULT_START_TIME = 1715558400

SECONDS_PER_WEEK = 7 * 86400


@dataclass(frozen=True)
class ActivitySpec:
    """Behavioral parameters of one travel activity.

    ``participation`` is the fraction of devices that ever do the
    activity; ``weekly_rate`` the mean trips per participating device
    per week; distances are log-normal in km; duration follows from
    distance at ``speed_kmh`` with multiplicative jitter.
    """

    name: str
    participation: float
    weekly_rate: float
    distance_log_mean: float
    distance_log_sigma: float
    speed_kmh: float

    def __post_init__(self) -> None:
        _require(self, (
            ("participation", 0.0 <= self.participation <= 1.0, "in [0, 1]"),
            ("weekly_rate", 0.0 <= self.weekly_rate < math.inf, "finite and >= 0"),
            ("distance_log_mean", math.isfinite(self.distance_log_mean), "finite"),
            ("distance_log_sigma", 0.0 <= self.distance_log_sigma < math.inf, "finite and >= 0"),
            ("speed_kmh", 0.0 < self.speed_kmh < math.inf, "finite and > 0"),
        ))


def _require(config: object, checks: tuple[tuple[str, bool, str], ...]) -> None:
    """Fail on the first ``(field, holds, what it must be)`` that does not hold."""
    for field, holds, what in checks:
        if not holds:
            raise ValueError(f"{field} must be {what}, got {getattr(config, field)!r}")


def _spec(name, participation, rate, typical_km, sigma, speed) -> ActivitySpec:
    return ActivitySpec(
        name=name,
        participation=participation,
        weekly_rate=rate,
        distance_log_mean=math.log(typical_km),
        distance_log_sigma=sigma,
        speed_kmh=speed,
    )


DEFAULT_ACTIVITIES: tuple[ActivitySpec, ...] = (
    _spec("walking", 0.92, 7.0, 1.2, 0.60, 4.5),
    _spec("running", 0.35, 2.2, 5.0, 0.50, 10.0),
    _spec("cycling", 0.30, 2.5, 8.0, 0.70, 16.0),
    _spec("driving", 0.80, 9.0, 12.0, 0.90, 45.0),
    _spec("bus", 0.45, 4.5, 7.0, 0.70, 22.0),
    _spec("rail", 0.25, 2.8, 25.0, 0.80, 70.0),
    _spec("boat", 0.04, 0.5, 15.0, 0.90, 28.0),
    _spec("flying", 0.06, 0.35, 750.0, 0.55, 640.0),
    _spec("skiing", 0.05, 0.8, 6.0, 0.60, 14.0),
)


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    seed: int = 0
    num_devices: int = 1000
    num_regions: int = 50
    start_time: int = DEFAULT_START_TIME
    num_weeks: int = 2
    activities: tuple[ActivitySpec, ...] = DEFAULT_ACTIVITIES
    region_zipf_exponent: float = 1.1
    direction_mix: tuple[float, float, float] = (0.70, 0.15, 0.15)
    # Per-(device, activity) rate multiplier: lognormal sigma for the
    # heavy tail of outlier travelers.
    rate_sigma: float = 0.6
    duration_jitter_sigma: float = 0.25
    high_end_share: float = 0.5

    def __post_init__(self) -> None:
        if self.num_devices < 1 or self.num_regions < 1 or self.num_weeks < 1:
            raise ValueError("corpus dimensions must be positive")
        _require(self, (
            # Every stream is keyed by the seed as a signed 64-bit integer.
            ("seed", 0 <= self.seed < 2**63, "in [0, 2**63)"),
            ("high_end_share", 0.0 <= self.high_end_share <= 1.0, "in [0, 1]"),
            ("rate_sigma", 0.0 <= self.rate_sigma < math.inf, "finite and >= 0"),
            (
                "duration_jitter_sigma",
                0.0 <= self.duration_jitter_sigma < math.inf,
                "finite and >= 0",
            ),
        ))
        mix = self.direction_mix
        if len(mix) != len(DIRECTIONS) or not all(0 <= p < math.inf for p in mix):
            raise ValueError(
                f"direction mix must be {len(DIRECTIONS)} finite, non-negative "
                f"shares, got {mix}"
            )
        if abs(math.fsum(mix) - 1.0) > 1e-9:
            raise ValueError("direction mix must sum to 1")

    def schema(self) -> Schema:
        return Schema(
            num_activities=len(self.activities),
            num_regions=self.num_regions,
            activity_names=tuple(a.name for a in self.activities),
        )


# Typecodes of the trip columns.  A code means the same C type to
# ``array.array`` and to numpy, so ``np.frombuffer(column, column.typecode)``
# views a column without a copy.  Directions fit a byte; activities are
# never narrowed below a C int, and home regions are 64-bit, whatever the
# config's roster or region count.
_COLUMN_TYPES = {
    "event_time": "q",
    "activity": "i",
    "direction": "b",
    "distance_km": "d",
    "duration_s": "d",
}


@dataclass
class DeviceRecords:
    """One device's trips as records, in event-time order.

    The record-level view of a device, built on access by
    :attr:`Corpus.devices` from :meth:`Corpus.records`.
    """

    device_id: int
    tier: str
    home_region: int
    records: list[TripRecord]


@dataclass(frozen=True, eq=False)
class Corpus:
    """A fleet's trips as columns, rows sorted by (device, event time).

    Device ``i`` has id ``i``.  Its trips are rows ``offsets[i]`` to
    ``offsets[i + 1]`` of the five trip columns, in event-time order with
    ties in generation order.  ``tiers`` and ``home_regions`` hold one
    entry per device; every trip of a device is in its home region.
    """

    config: SyntheticCorpusConfig
    schema: Schema
    tiers: tuple[str, ...]
    home_regions: array
    offsets: array
    event_time: array
    activity: array
    direction: array
    distance_km: array
    duration_s: array

    @property
    def num_devices(self) -> int:
        return len(self.tiers)

    def rows(self, device_id: int) -> tuple[int, int]:
        """The device's row range ``[lo, hi)`` in the trip columns."""
        return self.offsets[device_id], self.offsets[device_id + 1]

    def records(self, device_id: int, lo: int, hi: int) -> list[TripRecord]:
        """Rows ``[lo, hi)``, inside the device's own rows, as records."""
        region = self.home_regions[device_id]
        return [
            TripRecord(device_id, t, a, region, d, km, s)
            for t, a, d, km, s in zip(
                self.event_time[lo:hi],
                self.activity[lo:hi],
                self.direction[lo:hi],
                self.distance_km[lo:hi],
                self.duration_s[lo:hi],
            )
        ]

    @property
    def devices(self) -> Sequence[DeviceRecords]:
        """Every device with its trips as :class:`TripRecord` objects.

        A device's records are built when it is read, and the corpus
        keeps none of them.
        """
        return _DeviceRecordsView(self)

    def _view(self, name: str) -> np.ndarray:
        """One column as a numpy array, without a copy."""
        column = getattr(self, name)
        return np.frombuffer(column, dtype=column.typecode)

    def device_histograms(self, window: TimeWindow) -> DeviceSubtotals:
        """Every device's raw (unscaled, unclipped) histogram for a window.

        One block of partition rows, a device's partitions being its
        (activity, direction) pairs in its home region: the window's rows
        through :meth:`DeviceSubtotals.of_trips`, the kernel ``client_work``
        runs on one device's trips, so a device's rows equal
        ``client_work`` of its trips in the window bit for bit, ``made_at``
        order included.  A device without a trip in the window has no rows.
        """
        times = self._view("event_time")
        rows = np.flatnonzero((times >= window.start) & (times < window.end))
        device = np.searchsorted(self._view("offsets"), rows, side="right") - 1
        names = ("activity", "direction", "distance_km", "duration_s")
        activity, direction, distance_km, duration_s = (self._view(n)[rows] for n in names)
        del rows
        region = self._view("home_regions")[device]
        return DeviceSubtotals.of_trips(
            self.schema, device, activity, region, direction, distance_km, duration_s
        )

    def device_counts(self, block: DeviceSubtotals) -> np.ndarray:
        """Devices contributing data per (activity, region, direction).

        An int64 array of that shape.  ``block`` is a window's raw block
        (:meth:`device_histograms`); each of its rows is one device
        holding a trip in one partition, so the counts are one
        ``np.bincount`` over the rows' partitions.
        """
        num_activities, _, num_regions, num_directions = self.schema.shape
        counts = np.bincount(
            block.partitions(self.schema), minlength=num_activities * num_regions * num_directions
        )
        return counts.reshape(num_activities, num_regions, num_directions)


class _DeviceRecordsView(Sequence):
    """The devices of a corpus as :class:`DeviceRecords`, built on access;
    a slice gives a list of them."""

    __slots__ = ("_corpus",)

    def __init__(self, corpus: Corpus) -> None:
        self._corpus = corpus

    def __len__(self) -> int:
        return self._corpus.num_devices

    def __getitem__(self, index: int | slice) -> DeviceRecords | list[DeviceRecords]:
        corpus = self._corpus
        if isinstance(index, slice):
            return [self[i] for i in range(corpus.num_devices)[index]]
        device_id = range(corpus.num_devices)[index]
        records = corpus.records(device_id, *corpus.rows(device_id))
        region = corpus.home_regions[device_id]
        return DeviceRecords(device_id, corpus.tiers[device_id], region, records)


def _zipf_probabilities(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -exponent
    return weights / weights.sum()


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """The CDF that ``Generator.choice`` draws from, computed as it does.

    ``np.searchsorted(choice_cdf(p), u, side="right")`` maps uniforms to
    what ``gen.choice(len(p), p=p)`` draws from the same doubles, without
    re-checking ``p`` on every draw.
    """
    if not (np.isfinite(p).all() and (p >= 0).all()):
        raise ValueError(f"probabilities must be finite and non-negative: {p}")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _column(typecode: str, size: int) -> tuple[array, np.ndarray]:
    """A zeroed ``array.array`` of ``size`` entries and a writable numpy view of it."""
    column = array(typecode, [0]) * size
    return column, np.frombuffer(column, dtype=typecode)


def generate_corpus(config: SyntheticCorpusConfig) -> Corpus:
    """Generate the full fleet deterministically from the config seed.

    Draws each quantity for the whole fleet in blocks, in the order and
    layout of the module docstring.  The trips' event times come first,
    so their sorted order is known before the other columns are drawn,
    and each column is written once, straight into its final rows.
    """
    schema = config.schema()
    num_devices, activities = config.num_devices, config.activities
    region_cdf = choice_cdf(
        _zipf_probabilities(config.num_regions, config.region_zipf_exponent)
    )
    direction_cdf = choice_cdf(np.asarray(config.direction_mix, dtype=np.float64))

    def stream(quantity: str) -> BlockRng:
        return BlockRng(config.seed, "corpus", quantity)

    high_end = stream("tier").uniforms(num_devices) < config.high_end_share
    tiers = tuple("high_end" if high else "low_end" for high in high_end.tolist())
    home_regions, view = _column("q", num_devices)
    homes = stream("home-region").uniforms(num_devices)
    view[:] = np.searchsorted(region_cdf, homes, side="right")

    # Per (activity, week) block: the trip counts, then the trips' devices
    # and event times, in generation order.
    participation, rate, count, time = map(stream, ("participation", "rate", "count", "time"))
    device_ids = np.arange(num_devices)
    per_device = np.zeros(num_devices, dtype=np.int64)
    blocks, devices, times = [], [], []
    for a, spec in enumerate(activities):
        takes_part = participation.uniforms(num_devices, a) < spec.participation
        multiplier = rate.generator(a).lognormal(
            -0.5 * config.rate_sigma ** 2, config.rate_sigma, num_devices
        )
        mean_trips = np.where(takes_part, spec.weekly_rate * multiplier, 0.0)
        for week in range(config.num_weeks):
            counts = count.generator(a, week).poisson(mean_trips)
            per_device += counts
            size = int(counts.sum())
            blocks.append((a, week, size))
            devices.append(np.repeat(device_ids, counts))
            week_start = config.start_time + week * SECONDS_PER_WEEK
            offsets_in_week = time.uniforms(size, a, week) * SECONDS_PER_WEEK
            times.append(offsets_in_week.astype(np.int64) + week_start)
    offsets, view = _column("q", num_devices + 1)
    np.cumsum(per_device, out=view[1:])
    num_trips = int(view[-1])

    # One stable sort by (device, event time) gives every trip's row.
    times = np.concatenate(times)
    devices = np.concatenate(devices)
    order = np.lexsort((times, devices))
    del devices
    # Each trip's row, kept while the other columns are drawn: 4 bytes a
    # trip while they fit, against the columns' 29.
    row_type = np.int32 if num_trips <= np.iinfo(np.int32).max else np.int64
    row_of = np.empty(num_trips, dtype=row_type)
    row_of[order] = np.arange(num_trips, dtype=row_type)
    event_time, view = _column("q", num_trips)
    np.take(times, order, out=view, mode="clip")  # "raise" would buffer a copy
    del times, order

    # The other columns, block by block, each value written to its row.
    columns, views = {"event_time": event_time}, []
    for name in ("activity", "direction", "distance_km", "duration_s"):
        columns[name], view = _column(_COLUMN_TYPES[name], num_trips)
        views.append(view)
    activity, direction, distance_km, duration_s = views
    draw_direction, distance, jitter = map(stream, ("direction", "distance", "jitter"))
    start = 0
    for a, week, size in blocks:
        spec = activities[a]
        rows = row_of[start : start + size].astype(np.intp)
        start += size
        activity[rows] = a
        direction[rows] = np.searchsorted(
            direction_cdf, draw_direction.uniforms(size, a, week), side="right"
        )
        km = distance.generator(a, week).lognormal(
            spec.distance_log_mean, spec.distance_log_sigma, size
        )
        distance_km[rows] = km
        km /= spec.speed_kmh
        km *= 3600.0
        km *= jitter.generator(a, week).lognormal(0.0, config.duration_jitter_sigma, size)
        duration_s[rows] = km
    return Corpus(config, schema, tiers, home_regions, offsets, **columns)
