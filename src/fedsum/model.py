"""Core data model: trips, indexed histograms, and per-slice tables.

The whole pipeline speaks one value type: a sparse histogram indexed by
``(activity, metric, region, direction)``.  Devices build one per time
window, the server sums them across devices, and the privacy layer scales,
clips, and noises them.  Sums of histograms are exact and live in
:class:`fedsum.exactsum.ExactSum`, which adds their one-column rows
(:meth:`IndexedHistogram.as_rows`) and reports rows that
:meth:`IndexedHistogram.from_rows` turns back into a histogram.  One L1
rescale loop (``_clip_l1``) bounds both a whole histogram
(:meth:`IndexedHistogram.clip`) and each of its (activity, metric)
slices (:meth:`IndexedHistogram.clip_slices`).  Absent
entries are semantically zero; storing an explicit zero and omitting the
entry are equivalent under equality and every operation, and zeros are
dropped when histograms are normalized or serialized.

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
from typing import Iterable, Iterator, Sequence

import numpy as np

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
    "TripColumns",
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

    def valid_index(self, index: tuple[int, int, int, int]) -> bool:
        a, m, r, d = index
        sa, sm, sr, sd = self.shape
        return 0 <= a < sa and 0 <= m < sm and 0 <= r < sr and 0 <= d < sd

    def check_index(self, index: tuple[int, int, int, int]) -> None:
        if not self.valid_index(index):
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
    shape = (len(table), len(table[0]) if table else 0)
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
    ``duration_s``.  The corpus stores trips as columns; records are built
    from them only at the edges (``Corpus.devices``).
    """

    device_id: int
    event_time: int
    activity: int
    region: int
    direction: int
    distance_km: float
    duration_s: float

    def validate(self, schema: Schema) -> None:
        if not (
            0 <= self.activity < schema.num_activities
            and 0 <= self.region < schema.num_regions
            and 0 <= self.direction < schema.num_directions
        ):
            raise SchemaMismatchError(
                f"record indices ({self.activity}, {self.region}, "
                f"{self.direction}) outside schema {schema.shape}"
            )
        if not (
            math.isfinite(self.distance_km)
            and math.isfinite(self.duration_s)
            and self.distance_km >= 0
            and self.duration_s >= 0
        ):
            raise InvalidParameterError(
                "trip metrics must be finite and non-negative"
            )


@dataclass(frozen=True, slots=True)
class TripColumns:
    """Trips as parallel columns, row ``i`` of each column being trip ``i``.

    This is what a device sums into its window histogram.  The simulator
    hands in slices of the corpus columns; a list of :class:`TripRecord`
    is transposed into columns by :meth:`from_records`.  ``len`` is the
    number of trips.
    """

    activity: Sequence[int]
    region: Sequence[int]
    direction: Sequence[int]
    distance_km: Sequence[float]
    duration_s: Sequence[float]

    def __len__(self) -> int:
        return len(self.activity)

    @classmethod
    def from_records(cls, records: Iterable[TripRecord]) -> "TripColumns":
        rows = [
            (r.activity, r.region, r.direction, r.distance_km, r.duration_s)
            for r in records
        ]
        if not rows:
            return cls((), (), (), (), ())
        return cls(*zip(*rows))


Index = tuple[int, int, int, int]

_ENTRY = struct.Struct("<IIIId")
_HEADER = struct.Struct("<I")


def _clip_l1(entries: dict[Index, float], bound: float) -> dict[Index, float]:
    """The L1 rescale loop: ``entries`` scaled to an L1 norm of at most ``bound``.

    The norm is the exactly rounded sum of ``|v|``.  Entries inside the
    bound come back as the same dict; otherwise every entry is multiplied
    by ``bound / norm`` into a new dict, and entries that underflow to
    zero are dropped.  If rounding leaves the norm a few ulps above the
    bound, the loop rescales again, with the factor nudged below one when
    ``bound / norm`` rounds to 1.0, so the result always satisfies the
    bound as floats.
    """
    norm = math.fsum(map(abs, entries.values()))
    while norm > bound:
        factor = bound / norm
        if factor >= 1.0:
            factor = math.nextafter(1.0, 0.0)
        entries = {k: x for k, v in entries.items() if (x := v * factor)}
        norm = math.fsum(map(abs, entries.values()))
    return entries


class IndexedHistogram:
    """Sparse ``(activity, metric, region, direction) -> float64`` map."""

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

    def increment(self, index: Index, delta: float) -> None:
        """Add ``delta`` to one cell (plain float addition)."""
        self.schema.check_index(index)
        value = self._d.get(index, 0.0) + delta
        if value == 0.0:
            self._d.pop(index, None)
        else:
            self._d[index] = value

    def __contains__(self, index: Index) -> bool:
        return index in self._d

    def __len__(self) -> int:
        return len(self._d)

    def __iter__(self) -> Iterator[Index]:
        return iter(sorted(self._d))

    def items(self) -> list[tuple[Index, float]]:
        """Entries in canonical index order."""
        return sorted(self._d.items())

    def raw(self) -> dict[Index, float]:
        """The underlying dict (nonzero entries, unordered). Do not mutate."""
        return self._d

    def as_rows(self) -> Iterator[tuple[Index, tuple[float]]]:
        """Entries as the one-column rows ``(index, (value,))`` of an exact sum."""
        return zip(self._d, zip(self._d.values()))

    @classmethod
    def from_rows(cls, schema: Schema, rows) -> "IndexedHistogram":
        """The histogram of one-column rows; every index is checked."""
        return cls(schema, ((index, value) for index, (value,) in rows))

    def to_dense(self) -> np.ndarray:
        """The histogram as a float64 array of the schema's shape."""
        out = np.zeros(self.schema.shape)
        if self._d:
            index = np.array(list(self._d), dtype=np.intp)
            out[tuple(index.T)] = list(self._d.values())
        return out

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

    def copy(self) -> "IndexedHistogram":
        return self._adopt(dict(self._d))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexedHistogram):
            return NotImplemented
        return self.schema.shape == other.schema.shape and self._d == other._d

    def __repr__(self) -> str:
        return f"IndexedHistogram({len(self._d)} entries)"

    # -- algebra -----------------------------------------------------------

    def l1_norm(self) -> float:
        """Sum of absolute entry values (exactly rounded)."""
        return math.fsum(map(abs, self._d.values()))

    def clip(self, bound: float) -> "IndexedHistogram":
        """Scale entries so the L1 norm is at most ``bound``.

        Histograms already inside the bound are returned unchanged (a
        copy), which makes clipping exactly idempotent.
        """
        if not bound > 0:
            raise InvalidParameterError(f"clip bound must be positive, got {bound}")
        clipped = _clip_l1(self._d, bound)
        return self._adopt(dict(clipped) if clipped is self._d else clipped)

    def clip_slices(self, bounds: Table) -> "IndexedHistogram":
        """Clip each (activity, metric) slice to its own bound ``bounds[a][m]``."""
        check_table_shape(bounds, self.schema)
        slices: dict[tuple[int, int], dict[Index, float]] = {}
        for index, value in self._d.items():
            slices.setdefault(index[:2], {})[index] = value
        out: dict[Index, float] = {}
        for (a, m), entries in slices.items():
            out.update(_clip_l1(entries, bounds[a][m]))
        return self._adopt(out)

    def scale_by_table(self, table: Table) -> "IndexedHistogram":
        """Divide each entry by its slice factor ``table[a][m]``.

        Entries that underflow to zero are dropped.
        """
        check_table_shape(table, self.schema)
        return self._adopt(
            {k: x for k, v in self._d.items() if (x := v / table[k[0]][k[1]])}
        )

    def _adopt(self, entries: dict[Index, float]) -> "IndexedHistogram":
        """A histogram of this schema that takes ``entries`` as its own."""
        h = IndexedHistogram(self.schema)
        h._d = entries
        return h

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
