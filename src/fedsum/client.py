"""Device-side behavior: local caching, windowing, and bounded uploads.

Each simulated device keeps a short-lived cache of its own trip records
and a low watermark: the start of the current civil window (data after
it is still accumulating).  The cache is kept in event-time order (an
older record than the newest cached one is refused), so expiring records
on a time-to-live drops a prefix and a window's records are one slice,
both found by bisection.  A per-(query, window) memo records what the
device has contributed and makes contribution exactly-once even across
retries.

On each wake, ``draw_flags`` decides whether the device may check in.
It draws lazily, in the order the policy reads them: connectivity, then
the battery level, then the policy's own flags, and stops at the first
condition that fails.  Every condition's draw is keyed by (condition,
device, civil day) alone, so the decision never depends on which draws
were skipped, and two fleets under different policies see the same
conditions.

``client_work`` sums a device's records into its raw window histogram.
Bounding that histogram before it leaves the device (scaling and
clipping) is the mechanism's job:
:meth:`fedsum.dp.ResolvedMechanism.transform_device`.  The upload codec,
``histogram_to_rows`` and its inverse ``rows_to_histogram``, renders a
histogram as the client statement's grouped rows; outside
:mod:`fedsum.aggcore` it is the only code that knows the row format.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter
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
    "AvailabilityProfile",
    "TIER_PROFILES",
    "CHECKIN_POLICIES",
    "BATTERY_FLOOR",
    "DeviceState",
    "draw_flags",
    "records_in_window",
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

# Named check-in policies: which constraint flags must hold, in the order
# they are drawn, in addition to connectivity and the battery floor.
CHECKIN_POLICIES: dict[str, tuple[str, ...]] = {
    "idle": ("idle",),
    "idle_wifi_charging": ("idle", "unmetered_network", "charging"),
}

# Each constraint flag's draw key and the profile probability it holds with.
_FLAG_DRAWS: dict[str, tuple[str, str]] = {
    "idle": ("idle", "p_idle"),
    "unmetered_network": ("unmetered", "p_unmetered"),
    "charging": ("charging", "p_charging"),
}


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
    rng: KeyedRng,
    profile: AvailabilityProfile,
    policy: str,
    device_id: int,
    day: int,
) -> bool:
    """Whether the device may check in under ``policy`` on this civil day.

    Draws the conditions the policy reads, in order: connected, then the
    battery level against :data:`BATTERY_FLOOR`, then each of the
    policy's flags; it stops at the first that fails.  Each draw is keyed
    by what is being decided, never by the policy under test, so two runs
    that differ only in check-in policy see identical device conditions.
    """
    required = CHECKIN_POLICIES[policy]
    if not rng.uniform("connected", device_id, day) < profile.p_connected:
        return False
    battery_span = profile.battery_high - profile.battery_low
    battery_level = profile.battery_low + battery_span * rng.uniform(
        "battery", device_id, day
    )
    if battery_level < BATTERY_FLOOR:
        return False
    for flag in required:
        key, probability = _FLAG_DRAWS[flag]
        if not rng.uniform(key, device_id, day) < getattr(profile, probability):
            return False
    return True


_event_time = attrgetter("event_time")


def records_in_window(
    records: list[TripRecord], window: TimeWindow
) -> list[TripRecord]:
    """The slice of time-ordered ``records`` whose event time is in ``window``."""
    lo = bisect_left(records, window.start, key=_event_time)
    return records[lo : bisect_left(records, window.end, lo, key=_event_time)]


@dataclass
class DeviceState:
    """One device's cache, low watermark, and contribution memo."""

    device_id: int
    profile: AvailabilityProfile
    records: list[TripRecord] = field(default_factory=list)
    low_watermark: int = 0
    contributed: dict[str, set[str]] = field(default_factory=dict)
    last_seen_now: int = 0

    def add_record(self, record: TripRecord) -> None:
        """Cache a new record; records must arrive in event-time order."""
        if self.records and record.event_time < self.records[-1].event_time:
            raise ValueError(
                f"device {self.device_id}: record at {record.event_time} is "
                f"older than the newest cached one at "
                f"{self.records[-1].event_time}"
            )
        self.records.append(record)

    def advance_watermarks(
        self, now: int, alignment: WindowAlignment, ttl: int
    ) -> None:
        """Move the low watermark to the current window start; purge TTL.

        A backwards clock raises :class:`ClockRegressionError` and changes
        nothing.
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
        self.purge_expired(now, ttl)

    def purge_expired(self, now: int, ttl: int) -> None:
        """Drop records whose age exceeds the cache time-to-live."""
        del self.records[: bisect_left(self.records, now - ttl, key=_event_time)]

    def visible_records(self, window: TimeWindow) -> list[TripRecord]:
        """Cached records inside one complete, not-yet-current window."""
        return records_in_window(self.records, window)

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


# --------------------------------------------------------------------------
# Upload histograms and rows


def client_work(records: Iterable[TripRecord], schema: Schema) -> IndexedHistogram:
    """A device's raw (unscaled, unclipped) histogram of its records.

    Every record contributes 1 to its num-trips cell and its distance and
    duration to theirs, summed in record order; a cell whose sum is zero
    is dropped, as :meth:`IndexedHistogram.increment` drops it.  Each
    record's (activity, region, direction) is checked once against the
    schema.
    """
    num_activities, num_metrics, num_regions, num_directions = schema.shape
    h = IndexedHistogram(schema)
    cells = h._d  # filled in place; every index is checked below
    for record in records:
        a, r, d = record.activity, record.region, record.direction
        if not (
            0 <= a < num_activities
            and 0 <= r < num_regions
            and 0 <= d < num_directions
            and METRIC_DURATION < num_metrics
        ):
            schema.check_index((a, METRIC_DURATION, r, d))  # raises
        for index, delta in (
            ((a, METRIC_NUM_TRIPS, r, d), 1.0),
            ((a, METRIC_DISTANCE, r, d), record.distance_km),
            ((a, METRIC_DURATION, r, d), record.duration_s),
        ):
            value = cells.get(index, 0.0) + delta
            if value == 0.0:
                cells.pop(index, None)
            else:
                cells[index] = value
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
