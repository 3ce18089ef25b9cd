"""Device-side behavior: local caching, windowing, and bounded uploads.

Each simulated device keeps a short-lived cache of its own trip records
and two watermarks.  The low watermark is the start of the current civil
window (data after it is still accumulating); the high watermark trails
it and marks how far the device has already contributed.  Records expire
from the cache on a time-to-live, and a per-(query, window) memo makes
contribution exactly-once even across retries.

``client_work`` sums a device's records into its raw window histogram.
Bounding that histogram before it leaves the device (scaling and
clipping) is the mechanism's job:
:meth:`fedsum.dp.ResolvedMechanism.transform_device`.  The upload codec,
``histogram_to_rows`` and its inverse ``rows_to_histogram``, renders a
histogram as the client statement's grouped rows; outside
:mod:`fedsum.aggcore` it is the only code that knows the row format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .aggcore import KEY_SEPARATOR
from .model import (
    METRIC_DISTANCE,
    METRIC_DURATION,
    METRIC_NUM_TRIPS,
    IndexedHistogram,
    Schema,
    TripRecord,
)
from .query import (
    PRIVACY_TIME_UNIT,
    RELEASE_KEY_COLUMNS,
    QuerySpec,
    QueryValidationError,
)
from .rng import KeyedRng
from .windows import TimeWindow, WindowAlignment, round_down_window

__all__ = [
    "ClockRegressionError",
    "METRIC_BY_COLUMN",
    "ConstraintFlags",
    "AvailabilityProfile",
    "TIER_PROFILES",
    "CHECKIN_POLICIES",
    "BATTERY_FLOOR",
    "DeviceState",
    "draw_flags",
    "policy_allows",
    "client_work",
    "histogram_to_rows",
    "rows_to_histogram",
]


class ClockRegressionError(RuntimeError):
    """The simulated clock moved backwards for a device."""


# Map of summable stream columns to metric indices.
METRIC_BY_COLUMN = {
    "trip_count": METRIC_NUM_TRIPS,
    "trip_distance": METRIC_DISTANCE,
    "trip_duration": METRIC_DURATION,
}

# Battery charge fraction a device must have to check in, regardless of
# the configured policy.
BATTERY_FLOOR = 0.30

# Named check-in policies: which constraint flags must hold in addition
# to connectivity and the battery floor.
CHECKIN_POLICIES: dict[str, frozenset[str]] = {
    "idle": frozenset({"idle"}),
    "idle_wifi_charging": frozenset({"idle", "unmetered_network", "charging"}),
}


@dataclass(frozen=True)
class ConstraintFlags:
    """Device condition snapshot for one check-in opportunity."""

    idle: bool
    unmetered_network: bool
    charging: bool
    connected: bool
    battery_level: float

    def flag(self, name: str) -> bool:
        return bool(getattr(self, name))


@dataclass(frozen=True)
class AvailabilityProfile:
    """Per-tier probabilities governing a device's daily condition."""

    tier: str
    p_idle: float
    p_unmetered: float
    p_charging: float
    p_connected: float
    battery_low: float
    battery_high: float
    p_upload_ok: float


TIER_PROFILES: dict[str, AvailabilityProfile] = {
    "high_end": AvailabilityProfile(
        tier="high_end",
        p_idle=0.75,
        p_unmetered=0.85,
        p_charging=0.40,
        p_connected=0.97,
        battery_low=0.05,
        battery_high=1.00,
        p_upload_ok=0.97,
    ),
    "low_end": AvailabilityProfile(
        tier="low_end",
        p_idle=0.65,
        p_unmetered=0.50,
        p_charging=0.30,
        p_connected=0.90,
        battery_low=0.02,
        battery_high=0.90,
        p_upload_ok=0.90,
    ),
    # Test fixture: every constraint always satisfied, uploads never fail.
    "always_on": AvailabilityProfile(
        tier="always_on",
        p_idle=1.0,
        p_unmetered=1.0,
        p_charging=1.0,
        p_connected=1.0,
        battery_low=1.0,
        battery_high=1.0,
        p_upload_ok=1.0,
    ),
}


def draw_flags(
    rng: KeyedRng, profile: AvailabilityProfile, device_id: int, day: int
) -> ConstraintFlags:
    """Deterministic condition snapshot for (device, civil day).

    Draws are keyed by what is being decided, never by the policy under
    test, so two runs that differ only in check-in policy see identical
    device conditions.
    """
    battery_span = profile.battery_high - profile.battery_low
    return ConstraintFlags(
        idle=rng.uniform("idle", device_id, day) < profile.p_idle,
        unmetered_network=rng.uniform("unmetered", device_id, day)
        < profile.p_unmetered,
        charging=rng.uniform("charging", device_id, day) < profile.p_charging,
        connected=rng.uniform("connected", device_id, day) < profile.p_connected,
        battery_level=profile.battery_low
        + battery_span * rng.uniform("battery", device_id, day),
    )


def policy_allows(flags: ConstraintFlags, policy: str) -> bool:
    """Whether a device in this condition may check in under ``policy``."""
    required = CHECKIN_POLICIES[policy]
    if not flags.connected or flags.battery_level < BATTERY_FLOOR:
        return False
    return all(flags.flag(name) for name in required)


@dataclass
class DeviceState:
    """One device's cache, watermarks, and contribution memo."""

    device_id: int
    profile: AvailabilityProfile
    records: list[TripRecord] = field(default_factory=list)
    high_watermark: int = 0
    low_watermark: int = 0
    contributed: dict[str, set[str]] = field(default_factory=dict)
    last_seen_now: int = 0

    def add_record(self, record: TripRecord) -> None:
        self.records.append(record)

    def advance_watermarks(
        self, now: int, alignment: WindowAlignment, ttl: int
    ) -> None:
        """Move the low watermark to the current window start; purge TTL.

        The high watermark never moves here — it only advances when an
        upload is acknowledged.  A backwards clock raises
        :class:`ClockRegressionError` and changes nothing.
        """
        if now < self.last_seen_now:
            raise ClockRegressionError(
                f"device {self.device_id}: clock moved from "
                f"{self.last_seen_now} to {now}"
            )
        self.last_seen_now = now
        window_start = round_down_window(now, alignment).start
        if window_start > self.low_watermark:
            self.low_watermark = window_start
        if self.high_watermark > self.low_watermark:
            raise ClockRegressionError(
                f"device {self.device_id}: high watermark "
                f"{self.high_watermark} ahead of low {self.low_watermark}"
            )
        self.purge_expired(now, ttl)

    def purge_expired(self, now: int, ttl: int) -> None:
        """Drop records whose age exceeds the cache time-to-live."""
        self.records = [r for r in self.records if now - r.event_time <= ttl]

    def visible_records(self, window: TimeWindow) -> list[TripRecord]:
        """Cached records inside one complete, not-yet-current window."""
        return [r for r in self.records if window.contains(r.event_time)]

    def eligible_windows(
        self, query_id: str, candidate_windows: Sequence[TimeWindow]
    ) -> list[TimeWindow]:
        """Complete windows this device may still contribute to.

        A window qualifies if it ended at or before the low watermark
        (it is no longer accumulating) and the exactly-once memo has no
        entry for it yet.
        """
        done = self.contributed.get(query_id, set())
        return [
            w
            for w in candidate_windows
            if w.end <= self.low_watermark and w.window_id not in done
        ]

    def mark_contributed(self, query_id: str, window_id: str) -> None:
        self.contributed.setdefault(query_id, set()).add(window_id)

    def finish_exchange(self) -> None:
        """After an acknowledged exchange, the high watermark catches up."""
        self.high_watermark = self.low_watermark


# --------------------------------------------------------------------------
# Upload histograms and rows


def client_work(records: Iterable[TripRecord], schema: Schema) -> IndexedHistogram:
    """A device's raw (unscaled, unclipped) histogram of its records.

    Every record contributes 1 to its num-trips cell and its distance and
    duration to theirs, summed in record order.
    """
    h = IndexedHistogram(schema)
    for record in records:
        a, r, d = record.activity, record.region, record.direction
        h.increment((a, METRIC_NUM_TRIPS, r, d), 1.0)
        h.increment((a, METRIC_DISTANCE, r, d), record.distance_km)
        h.increment((a, METRIC_DURATION, r, d), record.duration_s)
    return h


def histogram_to_rows(
    h: IndexedHistogram,
    window_id: str,
    spec: QuerySpec,
) -> list[tuple[str, tuple[float, ...]]]:
    """Encode one window's histogram as upload rows for the query spec.

    The client statement must group by exactly ``RELEASE_KEY_COLUMNS``,
    so that no two cells share a row key.  Each selected metric column
    becomes one slot of the row value vector; other metrics are dropped.
    """
    key_columns = spec.client.group_by
    if sorted(key_columns) != sorted(RELEASE_KEY_COLUMNS):
        raise QueryValidationError(
            f"upload rows need the client statement grouped by exactly "
            f"{sorted(RELEASE_KEY_COLUMNS)}; got {sorted(key_columns)}"
        )
    metric_slot = {
        METRIC_BY_COLUMN[column]: i for i, column in enumerate(spec.metric_columns)
    }
    width = len(spec.metric_columns)
    rows: dict[str, list[float]] = {}
    for (a, m, r, d), value in h.items():
        slot = metric_slot.get(m)
        if slot is None:
            continue
        parts = []
        for column in key_columns:
            if column == "activity":
                parts.append(str(a))
            elif column == "region":
                parts.append(str(r))
            elif column == "direction":
                parts.append(str(d))
            else:  # the privacy time unit
                parts.append(window_id)
        key = KEY_SEPARATOR.join(parts)
        cell = rows.get(key)
        if cell is None:
            cell = [0.0] * width
            rows[key] = cell
        cell[slot] = value
    return [(key, tuple(rows[key])) for key in sorted(rows)]


def rows_to_histogram(
    rows: Iterable[tuple[str, Sequence[float]]],
    spec: QuerySpec,
    schema: Schema,
    expect_window_id: str | None = None,
) -> IndexedHistogram:
    """Decode grouped rows (upload or report) back into a histogram.

    Inverse of :func:`histogram_to_rows` for full-index queries.  If
    ``expect_window_id`` is given, rows for any other window raise.
    """
    key_columns = spec.client.group_by
    positions = {column: i for i, column in enumerate(key_columns)}
    metric_of_slot = [METRIC_BY_COLUMN[c] for c in spec.metric_columns]
    h = IndexedHistogram(schema)
    for key, values in rows:
        parts = key.split(KEY_SEPARATOR)
        if len(parts) != len(key_columns):
            raise ValueError(f"key {key!r} has {len(parts)} parts; expected {len(key_columns)}")
        a = int(parts[positions["activity"]])
        r = int(parts[positions["region"]])
        d = int(parts[positions["direction"]])
        window_id = parts[positions[PRIVACY_TIME_UNIT]]
        if expect_window_id is not None and window_id != expect_window_id:
            raise ValueError(
                f"row for window {window_id!r}; expected {expect_window_id!r}"
            )
        for slot, value in enumerate(values):
            if value != 0.0:
                h.increment((a, metric_of_slot[slot], r, d), value)
    return h
