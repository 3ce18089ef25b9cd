"""Synthetic trip corpus generation.

Builds a deterministic fleet of devices with heterogeneous travel
behavior: common short activities (walking, driving) through rare
long-haul ones (flying), heavy-tailed per-device rates, and a skewed
home-region distribution.  Every device draws from its own generator
seeded by ``(corpus_seed, device_id)``, so the corpus is byte-for-byte
reproducible and unchanged by generation order or fleet slicing.

Each device's generator is drawn in a fixed order, which
``tests/test_synth.py`` pins by digest: its tier, then its home region;
then per activity, in roster order, a participation draw and, if it
takes part, its rate multiplier; then per week a Poisson trip count
followed by that week's trips, each drawing its event time, direction,
distance and duration jitter in that order.  A categorical draw (home
region, direction) is one uniform looked up in a CDF computed once per
corpus, exactly as ``Generator.choice`` would draw it.  Trips are then
sorted stably by event time.  A change to this order changes the
corpus and must be documented here.

The magnitude spread across activities and metrics is the point: trip
counts are O(1), distances O(1)-O(1000) km, durations O(100)-O(10000) s.
Per-slice scaling pays off on trip counts and distances; durations
dominate each device's unscaled L1 norm, so joint clipping already
spends nearly its whole budget on them.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .client import client_work, records_in_window
from .model import (
    DIRECTIONS,
    METRIC_NUM_TRIPS,
    IndexedHistogram,
    Schema,
    TripRecord,
)
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
        mix = self.direction_mix
        if len(mix) != len(DIRECTIONS) or not all(0 <= p < math.inf for p in mix):
            raise ValueError(
                f"direction mix must be {len(DIRECTIONS)} finite, non-negative "
                f"shares, got {mix}"
            )
        if abs(math.fsum(mix) - 1.0) > 1e-9:
            raise ValueError("direction mix must sum to 1")

    @property
    def end_time(self) -> int:
        return self.start_time + self.num_weeks * SECONDS_PER_WEEK

    def schema(self) -> Schema:
        return Schema(
            num_activities=len(self.activities),
            num_regions=self.num_regions,
            activity_names=tuple(a.name for a in self.activities),
        )


@dataclass
class DeviceRecords:
    """One device's trips, in event-time order."""

    device_id: int
    tier: str
    home_region: int
    records: list[TripRecord] = field(default_factory=list)


@dataclass
class Corpus:
    config: SyntheticCorpusConfig
    schema: Schema
    devices: list[DeviceRecords]

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def device_histograms(self, window: TimeWindow) -> list[IndexedHistogram]:
        """Raw (unscaled, unclipped) per-device histograms for a window.

        Devices with no trips in the window are skipped: they hold no
        data and would not upload.
        """
        out = []
        for device in self.devices:
            records = records_in_window(device.records, window)
            if records:
                out.append(client_work(records, self.schema))
        return out

    def device_counts(
        self,
        window: TimeWindow,
        histograms: list[IndexedHistogram] | None = None,
    ) -> dict[tuple[int, int, int], int]:
        """Devices contributing data per (activity, region, direction).

        A device holds a trip in a partition exactly when its raw
        num-trips cell there is nonzero, so the counts come from the
        window's device histograms.  ``histograms`` may hand in
        ``device_histograms(window)`` when the caller already has them.
        """
        if histograms is None:
            histograms = self.device_histograms(window)
        counts: dict[tuple[int, int, int], int] = {}
        for h in histograms:
            for a, m, r, d in h.raw():
                if m == METRIC_NUM_TRIPS:
                    counts[(a, r, d)] = counts.get((a, r, d), 0) + 1
        return counts


def _zipf_probabilities(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -exponent
    return weights / weights.sum()


def choice_cdf(p: np.ndarray) -> list[float]:
    """The CDF that ``Generator.choice`` draws from, computed as it does.

    ``bisect_right(choice_cdf(p), gen.random())`` draws what
    ``gen.choice(len(p), p=p)`` draws, from the same single double of
    ``gen``'s stream, without re-checking ``p`` on every draw.
    """
    if not (np.isfinite(p).all() and (p >= 0).all()):
        raise ValueError(f"probabilities must be finite and non-negative: {p}")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def generate_corpus(config: SyntheticCorpusConfig) -> Corpus:
    """Generate the full fleet deterministically from the config seed."""
    schema = config.schema()
    region_cdf = choice_cdf(
        _zipf_probabilities(config.num_regions, config.region_zipf_exponent)
    )
    direction_cdf = choice_cdf(np.asarray(config.direction_mix, dtype=np.float64))
    rate_mean_correction = -0.5 * config.rate_sigma ** 2
    devices = []
    for device_id in range(config.num_devices):
        gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([config.seed, device_id]))
        )
        random, lognormal = gen.random, gen.lognormal
        tier = "high_end" if random() < config.high_end_share else "low_end"
        home_region = bisect_right(region_cdf, random())
        records: list[TripRecord] = []
        for activity_index, spec in enumerate(config.activities):
            if random() >= spec.participation:
                continue
            mean_trips = spec.weekly_rate * lognormal(
                rate_mean_correction, config.rate_sigma
            )
            for week in range(config.num_weeks):
                week_start = config.start_time + week * SECONDS_PER_WEEK
                for _ in range(gen.poisson(mean_trips)):
                    event_time = week_start + int(random() * SECONDS_PER_WEEK)
                    direction = bisect_right(direction_cdf, random())
                    distance = lognormal(
                        spec.distance_log_mean, spec.distance_log_sigma
                    )
                    jitter = lognormal(0.0, config.duration_jitter_sigma)
                    records.append(
                        TripRecord(
                            device_id,
                            event_time,
                            activity_index,
                            home_region,
                            direction,
                            distance,
                            distance / spec.speed_kmh * 3600.0 * jitter,
                        )
                    )
        # Stable sort: ties in event time keep their generation order.
        records.sort(key=attrgetter("event_time"))
        devices.append(DeviceRecords(device_id, tier, home_region, records))
    return Corpus(config=config, schema=schema, devices=devices)
