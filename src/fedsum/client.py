"""Device-side behavior: local caching, windowing, and bounded uploads.

:class:`DeviceState` is the per-device reference model: one device's
short-lived cache of its own trips and its low watermark, the start of
the current civil window (data after it is still accumulating).  The
cache is a row range ``[lo, hi)`` of the device's rows in the corpus
columns, which are in event-time order; no trip is copied into it.  As
the device's clock advances, trips up to the clock arrive (``hi``
moves), trips older than the time-to-live expire (``lo`` moves), and a
window's trips are a sub-range: each is one bisection on the event
times.  A per-(query, window) memo records what the device has
contributed and makes contribution exactly-once even across retries.
The simulator (:mod:`fedsum.sim`) builds no such object: it holds the
same facts once for the whole fleet, and the tests compare its run with
a per-tick poll of these models.

Once per civil day, ``draw_flags`` decides which devices of the fleet
may check in that day, as one mask over device ids.  It draws every
condition of every device (``draw_conditions``: connectivity, the
battery level, idle, unmetered network, charging), one block per
condition from the stream ``(seed, "fleet", condition)`` at the day (see
:mod:`fedsum.rng`), whatever the policy reads.  A device may check in
when it is connected, its battery is at :data:`BATTERY_FLOOR` or above,
and each of the policy's flags holds.  So two fleets under different
policies see the same conditions, and the decision never depends on
the fleet's size or on which devices wake.

``client_work`` sums a device's trip records
(:class:`fedsum.model.TripRecord`) into its raw window histogram: a
one-device block of partition rows (:class:`fedsum.model.DeviceSubtotals`),
made by the kernel that makes a window's block
(``DeviceSubtotals.of_trips``).
Bounding that block before it leaves the device (scaling and clipping)
is the mechanism's job: :meth:`fedsum.dp.ResolvedMechanism.transform_devices`,
the same transform a sweep runs on a whole window's block.

A device uploads its rows of its window's bounded block as bytes, one
fixed-width record a row (:class:`fedsum.aggcore.Wire`), cut for every device
of a window at once (:class:`fedsum.sim.WindowUploads`).  ``row_keys``
names a window's partitions: the client statement's grouped-row keys,
each mapped to its flat index.  ``histogram_to_rows`` writes one
device's block as named rows instead (all-zero rows dropped, zeros
written ``+0.0``, sorted by key), which the server writes into the same
bytes through ``row_keys``; ``rows_to_histogram`` adds named rows (a
core's report) into dense cell sums.  Outside :mod:`fedsum.aggcore`
these are the only code that knows the row key format.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from .aggcore import KEY_SEPARATOR, MalformedUpdateError
from .model import DeviceSubtotals, Schema, TripRecord
from .query import METRIC_BY_COLUMN, PRIVACY_TIME_UNIT, QuerySpec
from .rng import BlockRng
from .windows import TimeWindow, WindowAlignment, round_down_window

if TYPE_CHECKING:
    from .synth import Corpus

__all__ = [
    "ClockRegressionError",
    "METRIC_BY_COLUMN",
    "AvailabilityProfile",
    "FleetProfiles",
    "TIER_PROFILES",
    "CHECKIN_POLICIES",
    "BATTERY_FLOOR",
    "CONDITIONS",
    "FLEET_NAMESPACE",
    "DeviceState",
    "draw_conditions",
    "draw_flags",
    "client_work",
    "histogram_to_rows",
    "row_keys",
    "rows_to_histogram",
]


class ClockRegressionError(RuntimeError):
    """The simulated clock moved backwards for a device."""


# Battery charge fraction a device must have to check in, regardless of
# the configured policy.
BATTERY_FLOOR = 0.30

# Named check-in policies: which constraint flags must hold, in addition
# to connectivity and the battery floor.
CHECKIN_POLICIES: dict[str, tuple[str, ...]] = {
    "idle": ("idle",),
    "idle_wifi_charging": ("idle", "unmetered_network", "charging"),
}

# Each constraint flag's condition and the profile probability it holds with.
_FLAG_DRAWS: dict[str, tuple[str, str]] = {
    "idle": ("idle", "p_idle"),
    "unmetered_network": ("unmetered", "p_unmetered"),
    "charging": ("charging", "p_charging"),
}

# The namespace of every fleet draw, and the conditions drawn each civil day.
FLEET_NAMESPACE = "fleet"
CONDITIONS = ("connected", "battery", "idle", "unmetered", "charging")


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


@dataclass(frozen=True)
class FleetProfiles:
    """Every device's availability profile: one array per probability,
    indexed by device id."""

    p_idle: np.ndarray
    p_unmetered: np.ndarray
    p_charging: np.ndarray
    p_connected: np.ndarray
    battery_low: np.ndarray
    battery_high: np.ndarray
    p_upload_ok: np.ndarray

    @classmethod
    def of(cls, profiles: Sequence[AvailabilityProfile]) -> FleetProfiles:
        """The fleet whose device ``i`` has ``profiles[i]``."""
        columns = ([getattr(p, f.name) for p in profiles] for f in fields(cls))
        return cls(*(np.array(column, dtype=np.float64) for column in columns))

    def __len__(self) -> int:
        return len(self.p_connected)


def draw_conditions(seed: int, day: int, num_devices: int) -> dict[str, np.ndarray]:
    """Each condition's uniform for devices ``0 .. num_devices - 1`` on one civil
    day: the stream ``(seed, FLEET_NAMESPACE, condition)`` at index ``day``."""
    return {
        condition: BlockRng(seed, FLEET_NAMESPACE, condition).uniforms(num_devices, day)
        for condition in CONDITIONS
    }


def draw_flags(seed: int, profiles: FleetProfiles, policy: str, day: int) -> np.ndarray:
    """Which devices of ``profiles`` may check in under ``policy`` on this civil day.

    A bool mask over device ids.  Every condition is drawn for every
    device (:func:`draw_conditions`), whatever the policy: a device is
    allowed when it is connected, its battery level is at
    :data:`BATTERY_FLOOR` or above, and each of the policy's flags holds.
    """
    u = draw_conditions(seed, day, len(profiles))
    battery_span = profiles.battery_high - profiles.battery_low
    battery_level = profiles.battery_low + battery_span * u["battery"]
    allowed = (u["connected"] < profiles.p_connected) & (battery_level >= BATTERY_FLOOR)
    for flag in CHECKIN_POLICIES[policy]:
        condition, probability = _FLAG_DRAWS[flag]
        allowed &= u[condition] < getattr(profiles, probability)
    return allowed


@dataclass
class DeviceState:
    """One device's cache, low watermark, and contribution memo: the
    per-device reference model, which the simulator does not build.

    The cache is the row range ``[lo, hi)`` of ``corpus``'s trip columns,
    inside the device's own rows, which end at ``end``.  It starts empty,
    at the device's first row.
    """

    device_id: int
    profile: AvailabilityProfile
    corpus: Corpus = field(repr=False)
    low_watermark: int = 0
    contributed: dict[str, set[str]] = field(default_factory=dict)
    last_seen_now: int = 0
    lo: int = field(init=False)
    hi: int = field(init=False)
    end: int = field(init=False)

    def __post_init__(self) -> None:
        self.lo, self.end = self.corpus.rows(self.device_id)
        self.hi = self.lo

    def advance_watermarks(
        self, now: int, alignment: WindowAlignment, ttl: int
    ) -> None:
        """Move the device's clock to ``now``.

        Trips whose event time ``now`` has reached arrive in the cache,
        the low watermark moves to the current window start, and trips
        older than ``ttl`` expire.  A backwards clock raises
        :class:`ClockRegressionError` and changes nothing.
        """
        if now < self.last_seen_now:
            raise ClockRegressionError(
                f"device {self.device_id}: clock moved from "
                f"{self.last_seen_now} to {now}"
            )
        self.last_seen_now = now
        self.hi = bisect_right(self.corpus.event_time, now, self.hi, self.end)
        window_start = round_down_window(now, alignment).start
        if window_start > self.low_watermark:
            self.low_watermark = window_start
        self.purge_expired(now, ttl)

    def purge_expired(self, now: int, ttl: int) -> None:
        """Drop cached trips whose age exceeds the cache time-to-live."""
        self.lo = bisect_left(self.corpus.event_time, now - ttl, self.lo, self.hi)

    def visible_records(self, window: TimeWindow) -> list[TripRecord]:
        """Cached trips inside one complete, not-yet-current window."""
        times = self.corpus.event_time
        lo = bisect_left(times, window.start, self.lo, self.hi)
        hi = bisect_left(times, window.end, lo, self.hi)
        return self.corpus.records(self.device_id, lo, hi)

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
# Upload blocks and rows


def client_work(records: Iterable[TripRecord], schema: Schema) -> DeviceSubtotals:
    """A device's raw (unscaled, unclipped) histogram of its trips.

    A one-device block (device 0) made by the kernel a window's block is
    made by (:meth:`fedsum.model.DeviceSubtotals.of_trips`), from the
    records transposed into columns: a row per (activity, region,
    direction) partition, every trip contributing 1 to its num-trips
    cell and its distance and duration to theirs, summed in trip order;
    ``made_at`` is the position of the partition's first trip.  A trip
    outside the schema raises.
    """
    rows = [(r.activity, r.region, r.direction, r.distance_km, r.duration_s) for r in records]
    columns = zip(*rows) if rows else [()] * 5
    return DeviceSubtotals.of_trips(schema, np.zeros(len(rows), dtype=np.int64), *columns)


def _key_template(spec: QuerySpec) -> str:
    """The row key of partition ``(a, r, d)`` in window ``w`` is
    ``template.format(a, r, d, w)``: the client statement's group-by
    columns, in order, joined by ``KEY_SEPARATOR``."""
    slot = {"activity": "{0}", "region": "{1}", "direction": "{2}", PRIVACY_TIME_UNIT: "{3}"}
    return KEY_SEPARATOR.join(slot[column] for column in spec.client.group_by)


def histogram_to_rows(
    block: DeviceSubtotals,
    window_id: str,
    spec: QuerySpec,
) -> list[tuple[str, tuple[float, ...]]]:
    """Encode one device's bounded window block as upload rows for the query.

    One row per partition of the one-device ``block``, keyed by the
    client statement's group-by columns, which validation holds to
    exactly ``RELEASE_KEY_COLUMNS``; its values are the partition's
    cells in ``spec.metric_columns`` order, a zero written as ``+0.0``.
    A row whose values are all zero is dropped, and rows are sorted by key.
    """
    size = len(block.device)
    if size and block.device[0] != block.device[-1]:
        raise ValueError("upload rows encode one device's block")
    columns = (block.activity.tolist(), block.region.tolist(), block.direction.tolist())
    keys = map(_key_template(spec).format, *columns, repeat(window_id))
    rows = [
        (key, tuple([v or 0.0 for v in values]))
        for key, values in zip(keys, block.sums[:, spec.metrics].tolist())
        if any(values)
    ]
    rows.sort()
    return rows


def row_keys(spec: QuerySpec, schema: Schema, window_id: str) -> dict[str, int]:
    """Every row key of ``window_id``, mapped to its partition's flat index
    (:meth:`fedsum.model.DeviceSubtotals.partitions`), in index order.

    The keys are exactly those :func:`histogram_to_rows` can write for
    the window: one per ``(activity, region, direction)`` of ``schema``.
    Any other key (a wrong part count, a part that is not the integer
    the encoder writes, an index outside the schema, another window's
    id) is not a row key.
    """
    template = _key_template(spec)
    shape = (schema.num_activities, schema.num_regions, schema.num_directions)
    keys = [template.format(a, r, d, window_id) for a, r, d in np.ndindex(shape)]
    return dict(zip(keys, range(len(keys))))


def rows_to_histogram(
    rows: Iterable[tuple[str, Sequence[float]]],
    spec: QuerySpec,
    schema: Schema,
    keys: Mapping[str, int],
) -> np.ndarray:
    """Decode one window's grouped rows (upload or report) into dense cell sums.

    The inverse of :func:`histogram_to_rows`: a float64 array of the
    schema's shape, each nonzero value added to its cell.  ``keys`` is
    the window's :func:`row_keys`; a row under any other key raises
    ``MalformedUpdateError``.
    """
    out = np.zeros(schema.shape)
    _, _, num_regions, num_directions = schema.shape
    for key, values in rows:
        index = keys.get(key)
        if index is None:
            raise MalformedUpdateError(f"{key!r} is not a row key of this window")
        a, rest = divmod(index, num_regions * num_directions)
        r, d = divmod(rest, num_directions)
        for m, value in zip(spec.metrics, values):
            if value != 0.0:
                out[a, m, r, d] += value
    return out
