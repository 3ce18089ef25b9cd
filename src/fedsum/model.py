"""Core data model: trips, device blocks, released histograms, and per-slice tables.

The pipeline speaks two value types.  A :class:`DeviceSubtotals` block
holds raw or bounded per-device histograms as partition rows: a window
of the fleet, or one device's window before it leaves the device, whose
bounded rows are what it uploads.  A row's partition has one flat
index, :meth:`DeviceSubtotals.partitions`, which the cell sums, the
device counts and the simulator's upload keys read.  The device
transform (:meth:`fedsum.dp.ResolvedMechanism.transform_devices`)
bounds a block, of one device or of a fleet;
:meth:`DeviceSubtotals.cell_sums` sums its rows per cell, exactly, into
one dense float64 array indexed by ``(activity, metric, region,
direction)``, every cell in one array pass that falls back to
``math.fsum`` only where it cannot certify the rounding.  Such an array
is a window's cell sums at every layer: the ground truth, the pre-noise
sum, the server's summed aggregate, a release's values and every score.

The other type is the sparse histogram, :class:`IndexedHistogram`: a
release's nonzero entries, as its artifacts and events read and
serialize them.  Absent entries are zero, and zeros are dropped.

Index order is always lexicographic on the tuple ``(a, m, r, d)``.  That
canonical order makes iteration, serialization, and summation
deterministic, so equal inputs produce bit-identical outputs no matter how
the work was scheduled.

A per-(activity, metric) table — scale factors, slice clip bounds, budget
shares — is a :data:`Table`: a tuple of A rows of M positive floats, made
by :func:`as_table`.  Stored tables are tuples so that a frozen config
holding one compares and hashes by value; per-release math reads them
into ``(A, M)`` float64 arrays with ``np.asarray``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .exactsum import group_fsum

__all__ = [
    "DIRECTIONS",
    "METRIC_NUM_TRIPS",
    "METRIC_DISTANCE",
    "METRIC_DURATION",
    "DEFAULT_METRIC_NAMES",
    "DEFAULT_ACTIVITY_NAMES",
    "InvalidParameterError",
    "SchemaMismatchError",
    "Schema",
    "TripRecord",
    "DeviceSubtotals",
    "IndexedHistogram",
    "Table",
    "as_table",
    "check_table_shape",
]

# Travel directions relative to the device's home region.
DIRECTIONS = ("within", "outbound", "inbound")

METRIC_NUM_TRIPS = 0
METRIC_DISTANCE = 1
METRIC_DURATION = 2

DEFAULT_METRIC_NAMES = ("num_trips", "distance_km", "duration_s")

DEFAULT_ACTIVITY_NAMES = (
    "walking",
    "running",
    "cycling",
    "driving",
    "bus",
    "rail",
    "boat",
    "flying",
    "skiing",
)


class InvalidParameterError(ValueError):
    """An operation was given a parameter outside its valid range."""


class SchemaMismatchError(ValueError):
    """Two histograms or tables with different schemas were combined."""


@dataclass(frozen=True)
class Schema:
    """Dimensions of the histogram index space.

    ``num_directions`` is fixed at 3 (within / outbound / inbound); it is
    stored so serialized histograms are self-describing.
    """

    num_activities: int = 9
    num_metrics: int = 3
    num_regions: int = 50
    num_directions: int = 3
    metric_names: tuple[str, ...] = DEFAULT_METRIC_NAMES
    activity_names: tuple[str, ...] = DEFAULT_ACTIVITY_NAMES

    def __post_init__(self) -> None:
        if min(self.num_activities, self.num_metrics, self.num_regions) < 1:
            raise InvalidParameterError("schema dimensions must be positive")
        if self.num_directions != len(DIRECTIONS):
            raise InvalidParameterError(
                f"num_directions must be {len(DIRECTIONS)}"
            )
        if len(self.metric_names) != self.num_metrics:
            raise InvalidParameterError("one name required per metric")
        if len(self.activity_names) != self.num_activities:
            raise InvalidParameterError("one name required per activity")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (
            self.num_activities,
            self.num_metrics,
            self.num_regions,
            self.num_directions,
        )

    def check_index(self, index: tuple[int, int, int, int]) -> None:
        """Refuse an index outside the schema's shape."""
        a, m, r, d = index
        sa, sm, sr, sd = self.shape
        if not (0 <= a < sa and 0 <= m < sm and 0 <= r < sr and 0 <= d < sd):
            raise InvalidParameterError(
                f"index {index} outside schema shape {self.shape}"
            )


# A per-(activity, metric) table: A rows of M floats.
Table = tuple[tuple[float, ...], ...]


def as_table(values: Iterable[Iterable[float]], name: str = "table") -> Table:
    """``values`` as a stored :data:`Table` of float tuples.

    The table must be rectangular and non-empty, and every entry finite
    and positive; ``name`` labels the error otherwise.
    """
    table = tuple(tuple(float(v) for v in row) for row in values)
    if not table or not table[0] or any(len(row) != len(table[0]) for row in table):
        raise InvalidParameterError(f"{name} must be a non-empty rectangular table")
    bad = [v for row in table for v in row if not 0 < v < math.inf]
    if bad:
        raise InvalidParameterError(
            f"{name} entries must be finite and positive, got {bad[0]}"
        )
    return table


def check_table_shape(table: Table, schema: Schema) -> None:
    """Refuse a table that is not one row per activity, one entry per metric."""
    shape = (len(table), len(table[0]) if len(table) else 0)
    if shape != schema.shape[:2]:
        raise SchemaMismatchError(
            f"table shape {shape} does not match schema {schema.shape[:2]}"
        )


@dataclass(frozen=True, slots=True)
class TripRecord:
    """One trip observed on a device.

    ``event_time`` is UTC seconds since the epoch.  ``direction`` indexes
    :data:`DIRECTIONS`.  The three reported metrics derive from a record
    as: num_trips = 1, distance = ``distance_km``, duration =
    ``duration_s``.  The corpus stores trips as columns and builds
    records from them only at the edge (``Corpus.records``), for
    ``client.client_work`` and for readers of a device's trips.
    """

    device_id: int
    event_time: int
    activity: int
    region: int
    direction: int
    distance_km: float
    duration_s: float


Index = tuple[int, int, int, int]

_ENTRY = struct.Struct("<IIIId")
_HEADER = struct.Struct("<I")


class IndexedHistogram:
    """Sparse ``(activity, metric, region, direction) -> float64`` map.

    A release's nonzero entries (``NoisedRelease.histogram``), as its
    artifacts and events read them.
    """

    __slots__ = ("schema", "_d")

    def __init__(
        self,
        schema: Schema,
        entries: dict[Index, float] | Iterable[tuple[Index, float]] = (),
    ) -> None:
        self.schema = schema
        items = entries.items() if isinstance(entries, dict) else entries
        d: dict[Index, float] = {}
        for index, value in items:
            schema.check_index(index)
            if value != 0.0:
                d[index] = float(value)
        self._d = d

    # -- mapping surface ---------------------------------------------------

    def __getitem__(self, index: Index) -> float:
        self.schema.check_index(index)
        return self._d.get(index, 0.0)

    def __setitem__(self, index: Index, value: float) -> None:
        self.schema.check_index(index)
        if value == 0.0:
            self._d.pop(index, None)
        else:
            self._d[index] = float(value)

    def __len__(self) -> int:
        return len(self._d)

    def items(self) -> list[tuple[Index, float]]:
        """Entries in canonical index order."""
        return sorted(self._d.items())

    @classmethod
    def from_dense(cls, schema: Schema, values: np.ndarray) -> "IndexedHistogram":
        """The nonzero entries of a schema-shaped array, in canonical order."""
        if values.shape != schema.shape:
            raise SchemaMismatchError(
                f"array shape {values.shape} does not match schema {schema.shape}"
            )
        nonzero = np.nonzero(values)
        h = cls(schema)
        h._d = dict(
            zip(
                zip(*(axis.tolist() for axis in nonzero)),
                values[nonzero].tolist(),
            )
        )
        return h

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexedHistogram):
            return NotImplemented
        return self.schema.shape == other.schema.shape and self._d == other._d

    # -- serialization -----------------------------------------------------

    def serialize(self) -> bytes:
        """Canonical bytes: u32 count, then per entry 4 LE u32 + 1 LE f64.

        Entries are sorted by index tuple and zeros are dropped, so two
        equal histograms always serialize identically.
        """
        items = self.items()
        out = bytearray(_HEADER.pack(len(items)))
        for (a, m, r, d), value in items:
            out += _ENTRY.pack(a, m, r, d, value)
        return bytes(out)


class DeviceSubtotals(NamedTuple):
    """Per-device histograms as partition rows: one block of arrays.

    Row ``k`` is a partition ``(activity[k], region[k], direction[k])``
    in which device ``device[k]`` has a trip; rows are sorted by device,
    then partition.  ``sums[k, m]`` is the device's metric-``m`` cell of
    that partition, zero for a cell the device does not hold.  Raw, it is
    what :meth:`of_trips` adds up: 1 per trip for num-trips, the
    distance or the duration for the others, in event-time order.
    ``made_at[k]`` is the position, among the block's trips in input
    order, of the partition's first trip: a device made its cells in the
    order of these positions, then of metrics.  ``_replace`` swaps a
    column.
    """

    device: np.ndarray
    activity: np.ndarray
    region: np.ndarray
    direction: np.ndarray
    sums: np.ndarray
    made_at: np.ndarray

    @classmethod
    def of_trips(
        cls,
        schema: Schema,
        device: Sequence[int],
        activity: Sequence[int],
        region: Sequence[int],
        direction: Sequence[int],
        distance_km: Sequence[float],
        duration_s: Sequence[float],
    ) -> "DeviceSubtotals":
        """The raw block of trips given as parallel columns, trip ``i`` on
        device ``device[i]``.

        A stable sort of the trips' (device, partition) groups and one
        ``np.bincount`` per metric add each group's trips in input order,
        so a device's sums are those a loop over its trips in that order
        makes, and ``made_at`` is the position of each group's first trip.
        The first trip outside the schema raises, naming its duration cell.
        """
        num_activities, num_metrics, num_regions, num_directions = schema.shape
        index = np.asarray((activity, region, direction), dtype=np.int64)
        bounds = np.array([[num_activities], [num_regions], [num_directions]], dtype=np.uint64)
        # As unsigned, a negative index is past every bound.
        if index.shape[1] and (
            METRIC_DURATION >= num_metrics or not (index.view(np.uint64) < bounds).all()
        ):
            for a, r, d in index.T.tolist():
                schema.check_index((a, METRIC_DURATION, r, d))  # the first trip outside raises
        group = np.array([num_regions * num_directions, num_directions, 1]) @ index
        del index
        partitions = num_activities * num_regions * num_directions
        group += np.asarray(device, dtype=np.int64) * partitions  # (device, partition)
        order = group.argsort(kind="stable")
        ordered = group[order]
        del group  # a window's trips: each per-trip array is freed once read
        first = np.empty(len(order), dtype=bool)  # where a group starts, in sorted order
        first[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        groups = ordered[first]
        del ordered
        rank = first.cumsum()
        rank -= 1
        inverse = np.empty_like(order)  # each trip's group
        inverse[order] = rank
        made_at = order[first]
        del order, first, rank
        sums = np.zeros((len(groups), num_metrics))
        sums[:, METRIC_NUM_TRIPS] = np.bincount(inverse, minlength=len(groups))
        for metric, values in ((METRIC_DISTANCE, distance_km), (METRIC_DURATION, duration_s)):
            sums[:, metric] = np.bincount(inverse, weights=values, minlength=len(groups))
        del inverse
        device, partition = np.divmod(groups, partitions)
        activity, place = np.divmod(partition, num_regions * num_directions)
        return cls(device, activity, *np.divmod(place, num_directions), sums, made_at)

    def partitions(self, schema: Schema) -> np.ndarray:
        """Each row's flat partition index ``(a * R + r) * D + d``, with
        ``R`` and ``D`` the schema's region and direction counts: the
        partition's position in ``(activity, region, direction)``
        row-major order."""
        _, _, num_regions, num_directions = schema.shape
        return (self.activity * num_regions + self.region) * num_directions + self.direction

    def cell_sums(self, schema: Schema) -> np.ndarray:
        """Each cell summed over the block's rows, exactly rounded.

        A float64 array of the schema's shape.  Every cell is the
        ``math.fsum`` of its rows' values in row order, taken for all cells
        and metrics in one :func:`fedsum.exactsum.group_fsum` call (the
        package's one exact split, which ``ExactSum`` folds with too); a
        cell that sums to zero is ``+0.0``.  The groups run metric by metric, then by
        partition, so a cell ``math.fsum`` refuses raises as a loop in that
        order would.  Of a window's block these are its grouped sums: the
        ground truth, or the pre-noise sum once the block is bounded.
        """
        num_activities, num_metrics, num_regions, num_directions = schema.shape
        partitions = num_activities * num_regions * num_directions
        group = np.arange(num_metrics)[:, None] * partitions + self.partitions(schema)
        totals = group_fsum(self.sums.T.ravel(), group.ravel(), num_metrics * partitions)
        totals[totals == 0.0] = 0.0  # no -0.0
        by_metric = totals.reshape(num_metrics, num_activities, num_regions, num_directions)
        return np.ascontiguousarray(by_metric.transpose(1, 0, 2, 3))
