"""Synthetic trip corpus generation.

Builds a deterministic fleet of devices with heterogeneous travel
behavior: common short activities (walking, driving) through rare
long-haul ones (flying), heavy-tailed per-device rates, and a skewed
home-region distribution.  Every device draws from its own generator
seeded by ``(corpus_seed, device_id)``, so the corpus is byte-for-byte
reproducible and unchanged by generation order or fleet slicing.

The magnitude spread across activities and metrics is the point: trip
counts are O(1), distances O(1)-O(1000) km, durations O(100)-O(10000) s.
Per-slice scaling pays off on trip counts and distances; durations
dominate each device's unscaled L1 norm, so joint clipping already
spends nearly its whole budget on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .client import client_work, records_in_window
from .model import METRIC_NUM_TRIPS, IndexedHistogram, Schema, TripRecord
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
        if abs(math.fsum(self.direction_mix) - 1.0) > 1e-9:
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

    def records_in(
        self, device: DeviceRecords, window: TimeWindow
    ) -> list[TripRecord]:
        return records_in_window(device.records, window)

    def device_histograms(self, window: TimeWindow) -> list[IndexedHistogram]:
        """Raw (unscaled, unclipped) per-device histograms for a window.

        Devices with no trips in the window are skipped: they hold no
        data and would not upload.
        """
        out = []
        for device in self.devices:
            records = self.records_in(device, window)
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


def generate_corpus(config: SyntheticCorpusConfig) -> Corpus:
    """Generate the full fleet deterministically from the config seed."""
    schema = config.schema()
    region_probs = _zipf_probabilities(
        config.num_regions, config.region_zipf_exponent
    )
    direction_probs = np.asarray(config.direction_mix, dtype=np.float64)
    rate_mean_correction = -0.5 * config.rate_sigma ** 2
    devices = []
    for device_id in range(config.num_devices):
        gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([config.seed, device_id]))
        )
        tier = "high_end" if gen.random() < config.high_end_share else "low_end"
        home_region = int(gen.choice(config.num_regions, p=region_probs))
        device = DeviceRecords(device_id, tier, home_region)
        rows: list[tuple[int, int, int, float, float]] = []
        for activity_index, spec in enumerate(config.activities):
            if gen.random() >= spec.participation:
                continue
            rate_multiplier = gen.lognormal(
                rate_mean_correction, config.rate_sigma
            )
            mean_trips = spec.weekly_rate * rate_multiplier
            for week in range(config.num_weeks):
                week_start = config.start_time + week * SECONDS_PER_WEEK
                n_trips = int(gen.poisson(mean_trips))
                for _ in range(n_trips):
                    event_time = week_start + int(
                        gen.random() * SECONDS_PER_WEEK
                    )
                    direction = int(gen.choice(3, p=direction_probs))
                    distance = float(
                        gen.lognormal(
                            spec.distance_log_mean, spec.distance_log_sigma
                        )
                    )
                    jitter = float(
                        gen.lognormal(0.0, config.duration_jitter_sigma)
                    )
                    duration = distance / spec.speed_kmh * 3600.0 * jitter
                    rows.append(
                        (event_time, activity_index, direction, distance, duration)
                    )
        # Stable order: by event time, ties broken by generation sequence.
        rows_sorted = sorted(
            range(len(rows)), key=lambda i: (rows[i][0], i)
        )
        for i in rows_sorted:
            event_time, activity_index, direction, distance, duration = rows[i]
            device.records.append(
                TripRecord(
                    device_id=device_id,
                    event_time=event_time,
                    activity=activity_index,
                    region=home_region,
                    direction=direction,
                    distance_km=distance,
                    duration_s=duration,
                )
            )
        devices.append(device)
    return Corpus(config=config, schema=schema, devices=devices)
