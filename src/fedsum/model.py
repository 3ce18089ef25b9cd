"""Core data model: trip records, indexed histograms, and scale tables.

The whole pipeline speaks one value type: a sparse histogram indexed by
``(activity, metric, region, direction)``.  Devices build one per time
window, the server sums them across devices, and the privacy layer clips,
scales, and noises them.  Absent entries are semantically zero; storing an
explicit zero and omitting the entry are equivalent under equality and
every operation, and zeros are dropped when histograms are normalized or
serialized.

Index order is always lexicographic on the tuple ``(a, m, r, d)``.  That
canonical order makes iteration, serialization, and summation
deterministic, so equal inputs produce bit-identical outputs no matter how
the work was scheduled.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .exactsum import add_partial, merge_partials, round_partials

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
    "IndexedHistogram",
    "ScaleTable",
    "ExactHistogramSum",
    "l1_norm",
    "clip",
    "hist_add",
    "hist_sum",
    "scale_by_table",
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

    @property
    def domain_size(self) -> int:
        a, m, r, d = self.shape
        return a * m * r * d

    def valid_index(self, index: tuple[int, int, int, int]) -> bool:
        a, m, r, d = index
        sa, sm, sr, sd = self.shape
        return 0 <= a < sa and 0 <= m < sm and 0 <= r < sr and 0 <= d < sd

    def check_index(self, index: tuple[int, int, int, int]) -> None:
        if not self.valid_index(index):
            raise InvalidParameterError(
                f"index {index} outside schema shape {self.shape}"
            )

    def iter_domain(self) -> Iterator[tuple[int, int, int, int]]:
        """All index tuples in canonical (lexicographic) order."""
        sa, sm, sr, sd = self.shape
        for a in range(sa):
            for m in range(sm):
                for r in range(sr):
                    for d in range(sd):
                        yield (a, m, r, d)


@dataclass(frozen=True)
class TripRecord:
    """One trip observed on a device.

    ``event_time`` is UTC seconds since the epoch.  ``direction`` indexes
    :data:`DIRECTIONS`.  The three reported metrics derive from a record
    as: num_trips = 1, distance = ``distance_km``, duration =
    ``duration_s``.
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


Index = tuple[int, int, int, int]

_ENTRY = struct.Struct("<IIIId")
_HEADER = struct.Struct("<I")


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
        h = IndexedHistogram(self.schema)
        h._d = dict(self._d)
        return h

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexedHistogram):
            return NotImplemented
        return self.schema.shape == other.schema.shape and self._d == other._d

    def __repr__(self) -> str:
        return f"IndexedHistogram({len(self._d)} entries)"

    # -- algebra -----------------------------------------------------------

    def l1_norm(self) -> float:
        """Sum of absolute entry values (exactly rounded)."""
        partials: list[float] = []
        for value in self._d.values():
            add_partial(partials, abs(value))
        return round_partials(partials)

    def clip(self, bound: float) -> "IndexedHistogram":
        """Scale entries so the L1 norm is at most ``bound``.

        Histograms already inside the bound are returned unchanged (a
        copy), which makes clipping exactly idempotent.  The rescale loop
        runs a second time in the rare case float rounding leaves the
        scaled norm a few ulps above the bound, so the output *always*
        satisfies ``l1_norm() <= bound``.
        """
        if not bound > 0:
            raise InvalidParameterError(f"clip bound must be positive, got {bound}")
        result = self.copy()
        norm = result.l1_norm()
        while norm > bound:
            factor = bound / norm
            if factor >= 1.0:
                # Rounding produced a no-op factor; nudge it below one so
                # the norm strictly decreases and the loop terminates.
                factor = float.fromhex("0x1.fffffffffffffp-1")
            result._d = {k: v * factor for k, v in result._d.items()}
            norm = result.l1_norm()
        return result

    def add(self, other: "IndexedHistogram") -> "IndexedHistogram":
        """Pointwise sum. Schemas must match."""
        self._check_same_schema(other)
        result = self.copy()
        for index, value in other._d.items():
            result.increment(index, value)
        return result

    def scale_by_table(
        self, table: "ScaleTable", invert: bool = False
    ) -> "IndexedHistogram":
        """Divide each entry by its slice factor ``table[a, m]``.

        With ``invert=True`` entries are multiplied instead, undoing a
        prior division by the same table.
        """
        if table.shape != (self.schema.num_activities, self.schema.num_metrics):
            raise SchemaMismatchError(
                f"table shape {table.shape} does not match schema "
                f"{self.schema.shape[:2]}"
            )
        result = IndexedHistogram(self.schema)
        for index, value in self._d.items():
            factor = table.get(index[0], index[1])
            result._d[index] = value * factor if invert else value / factor
        return result

    def _check_same_schema(self, other: "IndexedHistogram") -> None:
        if self.schema.shape != other.schema.shape:
            raise SchemaMismatchError(
                f"histogram schemas differ: {self.schema.shape} vs "
                f"{other.schema.shape}"
            )

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

    @classmethod
    def deserialize(cls, data: bytes, schema: Schema) -> "IndexedHistogram":
        (count,) = _HEADER.unpack_from(data, 0)
        expected = _HEADER.size + count * _ENTRY.size
        if len(data) != expected:
            raise InvalidParameterError(
                f"serialized histogram length {len(data)} != {expected}"
            )
        h = cls(schema)
        offset = _HEADER.size
        for _ in range(count):
            a, m, r, d, value = _ENTRY.unpack_from(data, offset)
            offset += _ENTRY.size
            h[(a, m, r, d)] = value
        return h


class ScaleTable:
    """Dense positive per-(activity, metric) factors."""

    __slots__ = ("num_activities", "num_metrics", "_values")

    def __init__(self, values: Iterable[Iterable[float]]) -> None:
        rows = [tuple(float(v) for v in row) for row in values]
        if not rows or not rows[0]:
            raise InvalidParameterError("scale table must be non-empty")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise InvalidParameterError("scale table rows must be equal length")
        for row in rows:
            for v in row:
                if not v > 0:
                    raise InvalidParameterError(
                        f"scale factors must be positive, got {v}"
                    )
        self.num_activities = len(rows)
        self.num_metrics = width
        self._values = tuple(rows)

    @classmethod
    def identity(cls, schema: Schema) -> "ScaleTable":
        return cls(
            [[1.0] * schema.num_metrics for _ in range(schema.num_activities)]
        )

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_activities, self.num_metrics)

    def get(self, activity: int, metric: int) -> float:
        return self._values[activity][metric]

    def rows(self) -> tuple[tuple[float, ...], ...]:
        return self._values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScaleTable):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:
        return f"ScaleTable({self.num_activities}x{self.num_metrics})"

    def serialize(self) -> bytes:
        out = bytearray(struct.pack("<II", self.num_activities, self.num_metrics))
        for row in self._values:
            for v in row:
                out += struct.pack("<d", v)
        return bytes(out)


@dataclass
class ExactHistogramSum:
    """Accumulates histograms with error-free per-cell summation.

    The running total per cell is an exact expansion, so the final rounded
    histogram is identical for any ordering or grouping of the same
    inputs.  ``exact_diff`` subtracts two accumulations without
    intermediate rounding, which lets contribution-bound checks be
    asserted with no float slack.
    """

    schema: Schema
    _cells: dict[Index, list[float]] = field(default_factory=dict)

    def add(self, h: IndexedHistogram) -> None:
        if h.schema.shape != self.schema.shape:
            raise SchemaMismatchError("schema mismatch in exact sum")
        cells = self._cells
        for index, value in h.raw().items():
            partials = cells.get(index)
            if partials is None:
                cells[index] = [value]
            else:
                add_partial(partials, value)

    def merge(self, other: "ExactHistogramSum") -> None:
        if other.schema.shape != self.schema.shape:
            raise SchemaMismatchError("schema mismatch in exact sum")
        cells = self._cells
        for index, partials in other._cells.items():
            mine = cells.get(index)
            if mine is None:
                cells[index] = list(partials)
            else:
                merge_partials(mine, partials)

    def copy(self) -> "ExactHistogramSum":
        clone = ExactHistogramSum(self.schema)
        clone._cells = {k: list(v) for k, v in self._cells.items()}
        return clone

    def rounded(self) -> IndexedHistogram:
        """Correctly rounded float64 histogram of the exact totals."""
        h = IndexedHistogram(self.schema)
        for index, partials in self._cells.items():
            h[index] = round_partials(partials)
        return h

    def exact_diff(self, other: "ExactHistogramSum") -> IndexedHistogram:
        """``self - other`` computed exactly, rounded once per cell."""
        if other.schema.shape != self.schema.shape:
            raise SchemaMismatchError("schema mismatch in exact diff")
        h = IndexedHistogram(self.schema)
        for index in set(self._cells) | set(other._cells):
            partials = list(self._cells.get(index, ()))
            for x in other._cells.get(index, ()):
                add_partial(partials, -x)
            h[index] = round_partials(partials)
        return h


# -- free-function aliases -------------------------------------------------
# The operations double as module-level functions so call sites that read
# like formulas (clip(h, c), l1_norm(h)) stay natural.


def l1_norm(h: IndexedHistogram) -> float:
    return h.l1_norm()


def clip(h: IndexedHistogram, bound: float) -> IndexedHistogram:
    return h.clip(bound)


def hist_add(a: IndexedHistogram, b: IndexedHistogram) -> IndexedHistogram:
    return a.add(b)


def hist_sum(
    histograms: Iterable[IndexedHistogram], schema: Schema
) -> IndexedHistogram:
    """Exactly rounded sum of many histograms (order-independent)."""
    acc = ExactHistogramSum(schema)
    for h in histograms:
        acc.add(h)
    return acc.rounded()


def scale_by_table(
    h: IndexedHistogram, table: ScaleTable, invert: bool = False
) -> IndexedHistogram:
    return h.scale_by_table(table, invert)
