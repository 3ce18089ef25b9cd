"""Hand-rolled reference implementations used as independent oracles.

Nothing here imports the code paths it checks: grouped sums use plain
dicts and ``math.fsum``, calendar math uses :mod:`datetime` directly, and
query rejection cases are written out as literal text.
"""

from __future__ import annotations

import math
import struct
from array import array
from datetime import datetime, timezone
from hashlib import blake2b

import numpy as np

from fedsum.model import (
    METRIC_DISTANCE,
    METRIC_DURATION,
    METRIC_NUM_TRIPS,
    InvalidParameterError,
    TripRecord,
)
from fedsum.server import _SHAPES
from fedsum.synth import _COLUMN_TYPES, Corpus

# Monday 2024-05-13 00:00:00 UTC — the default fleet start.
START = 1_715_558_400
WEEK = 7 * 86_400


def trip(
    device_id: int = 0,
    t: int = START + 3_600,
    a: int = 0,
    r: int = 0,
    d: int = 0,
    km: float = 1.0,
    s: float = 60.0,
) -> TripRecord:
    return TripRecord(
        device_id=device_id,
        event_time=t,
        activity=a,
        region=r,
        direction=d,
        distance_km=km,
        duration_s=s,
    )


def corpus_of(config, schema, devices) -> Corpus:
    """The corpus of ``DeviceRecords``, the ``i``-th device with id ``i``.

    A device's trips become its rows sorted by event time, ties in the
    given order.  Nothing is checked: the records are taken as they are.
    """
    columns = {name: array(code) for name, code in _COLUMN_TYPES.items()}
    tiers, home_regions, offsets = [], array("q"), array("q", [0])
    for device in devices:
        for record in sorted(device.records, key=lambda r: r.event_time):
            for name, column in columns.items():
                column.append(getattr(record, name))
        tiers.append(device.tier)
        home_regions.append(device.home_region)
        offsets.append(len(columns["event_time"]))
    return Corpus(config, schema, tuple(tiers), home_regions, offsets, **columns)


def utc_ts(year, month, day, hour=0, minute=0, second=0) -> int:
    return int(
        datetime(year, month, day, hour, minute, second, tzinfo=timezone.utc).timestamp()
    )


def iso_week_id(ts: int) -> str:
    """Calendar-library ISO week label for the day containing ``ts``."""
    day = datetime.fromtimestamp(ts, tz=timezone.utc).date()
    year, week, _ = day.isocalendar()
    return f"{year}-W{week:02d}"


def named_sums(core):
    """A core's ``present_rows`` as ``{key name: sums}``, in name order."""
    ids, sums = core.present_rows()
    return dict(zip(map(core.keys.names.__getitem__, ids.tolist()), map(tuple, sums.tolist())))


def naive_grouped_sums(updates):
    """Brute-force group-by-sum over update row lists (dict + fsum)."""
    by_key: dict[str, list[tuple[float, ...]]] = {}
    for rows in updates:
        for key, values in rows:
            by_key.setdefault(key, []).append(tuple(values))
    out = {}
    for key, vectors in by_key.items():
        columns = len(vectors[0])
        out[key] = tuple(
            math.fsum(vec[c] for vec in vectors) for c in range(columns)
        )
    return out


# --- Shewchuk expansions: the exact-sum oracle ------------------------------------
#
# A running sum kept as a list of non-overlapping partials (the scheme
# ``math.fsum`` uses internally), one Python step per value.  Its exact
# value is order-free; an expansion that overflows while values are added
# stays NaN, whatever is added after, so only bounded values compare.


def add_partial(partials: list[float], x: float) -> None:
    """Add ``x`` into an expansion in place, preserving the exact sum.

    ``partials`` remains a list of non-overlapping floats sorted by
    increasing magnitude whose exact sum equals the old exact sum plus
    ``x``.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def merge_partials(dst: list[float], src: list[float]) -> None:
    """Fold another expansion into ``dst`` in place (exact)."""
    for x in src:
        add_partial(dst, x)


def round_partials(partials: list[float]) -> float:
    """Collapse an expansion to the correctly rounded float64 sum; one that
    overflowed, or whose partials sum beyond the largest float, is NaN."""
    if not partials:
        return 0.0
    if len(partials) == 1:
        total = partials[0]
    else:
        try:
            total = math.fsum(partials)
        except (OverflowError, ValueError):  # an overflowed sum, or -inf + inf
            return math.nan
    return total if math.isfinite(total) else math.nan


class ExpansionSum:
    """``fedsum.exactsum.ExactSum``'s interface over one expansion per key
    id and column, each row added value by value."""

    def __init__(self, width: int) -> None:
        self.width = width
        self._cells: dict[int, list[list[float]]] = {}

    def add(self, keys, values) -> None:
        width = self.width
        for i, key in enumerate(keys):
            row = values[i * width : (i + 1) * width]
            cell = self._cells.get(key)
            if cell is None:
                self._cells[key] = [[float(v)] for v in row]
            else:
                for partials, v in zip(cell, row):
                    add_partial(partials, float(v))

    def merge(self, other: "ExpansionSum", remap=None) -> None:
        if other.width != self.width:
            raise ValueError(f"cannot merge width {other.width} into width {self.width}")
        for key, theirs in other._cells.items():
            key = key if remap is None else remap[key]
            mine = self._cells.get(key)
            if mine is None:
                self._cells[key] = [list(p) for p in theirs]
            else:
                for dst, src in zip(mine, theirs):
                    merge_partials(dst, src)

    def report(self):
        size = max(self._cells, default=-1) + 1
        sums, present = np.zeros((size, self.width)), np.zeros(size, dtype=bool)
        for key, cell in self._cells.items():
            sums[key] = [round_partials(partials) for partials in cell]
            present[key] = True
        return sums, present


def reference_serialize_state(core) -> bytes:
    """``AggregationCore.serialize_state`` as it was written key by key,
    three calls per key: the key count; per key in sorted name order its
    length-prefixed UTF-8 name and its sums; the contribution count.  Read
    from the core's running sum."""
    sums, present = core._sum.report()
    rows = sorted((core.keys.names[k], sums[k].tolist()) for k in np.flatnonzero(present))
    out = bytearray(struct.pack("<I", len(rows)))
    for key, values in rows:
        kb = key.encode("utf-8")
        out += struct.pack("<I", len(kb))
        out += kb
        out += struct.pack(f"<{len(values)}d", *values)
    out += struct.pack("<q", core.contribution_count)
    return bytes(out)


def _finite_number(value) -> bool:
    """Whether ``value`` is an int or a float, not a bool, of finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def reference_upload_check(rows, keys, width, mechanism, metrics, schema) -> bool:
    """Whether an upload given as rows passed the server's check before
    uploads were bytes: ``aggcore.check_rows`` (a list or tuple of
    ``(key, values)`` pairs, each a str key and a list or tuple of
    ``width`` finite ints or floats, not bools), every key one of the
    window's row keys (``keys``: name -> flat index), and the mechanism's
    L1 bound as ``exceeds_bound`` took it, row by row."""
    if not isinstance(rows, (list, tuple)):
        return False
    for row in rows:
        try:
            key, values = row
        except (TypeError, ValueError):
            return False
        if not isinstance(key, str) or not isinstance(values, (list, tuple)):
            return False
        if len(values) != width or not all(map(_finite_number, values)):
            return False
    if any(key not in keys for key, _ in rows):
        return False
    bounds = mechanism.l1_bounds
    if not mechanism.per_slice:
        if not bounds[0] < math.inf:
            return True
        try:
            return not math.fsum(abs(v) for _, values in rows for v in values) > bounds[0]
        except OverflowError:
            return False
    _, num_metrics, num_regions, num_directions = schema.shape
    groups: dict[int, list[float]] = {}
    for key, values in rows:
        activity = keys[key] // (num_regions * num_directions)
        for m, v in zip(metrics, values):
            groups.setdefault(activity * num_metrics + m, []).append(abs(v))
    try:
        return not any(
            bounds[group] < math.inf and math.fsum(values) > bounds[group]
            for group, values in groups.items()
        )
    except OverflowError:
        return False


def active_devices(corpus, window) -> set[int]:
    """Ids of the devices holding a record inside ``window``."""
    return {
        device.device_id
        for device in corpus.devices
        if any(window.start <= r.event_time < window.end for r in device.records)
    }


def naive_device_counts(corpus, window) -> dict[tuple[int, int, int], int]:
    """Devices holding a record in ``window``, per (activity, region, direction)."""
    counts: dict[tuple[int, int, int], int] = {}
    for device in corpus.devices:
        for key in {
            (r.activity, r.region, r.direction)
            for r in device.records
            if window.start <= r.event_time < window.end
        }:
            counts[key] = counts.get(key, 0) + 1
    return counts


def naive_workload(corpus, window) -> dict[tuple[int, int, int, int], float]:
    """Two-level grouped sums straight off the records.

    Mirrors the pipeline's definition — per-device running totals in
    record order, then a correctly rounded sum across devices — using
    plain dicts and ``math.fsum`` only.
    """
    per_cell: dict[tuple[int, int, int, int], list[float]] = {}
    for device in corpus.devices:
        device_cells: dict[tuple[int, int, int, int], float] = {}
        for rec in device.records:
            if not window.start <= rec.event_time < window.end:
                continue
            for metric, value in (
                (METRIC_NUM_TRIPS, 1.0),
                (METRIC_DISTANCE, rec.distance_km),
                (METRIC_DURATION, rec.duration_s),
            ):
                cell = (rec.activity, metric, rec.region, rec.direction)
                device_cells[cell] = device_cells.get(cell, 0.0) + value
        for cell, subtotal in device_cells.items():
            per_cell.setdefault(cell, []).append(subtotal)
    return {
        cell: total
        for cell, subtotals in per_cell.items()
        if (total := math.fsum(subtotals)) != 0.0
    }


# The client stream's summable columns and the metric each one sums.
METRIC_OF_COLUMN = {"trip_count": 0, "trip_distance": 1, "trip_duration": 2}


def reference_upload_rows(block, window_id, spec):
    """Upload rows by way of a sparse histogram: the encoder before uploads
    encoded the bounded block's rows.

    The one-device block is read out as ``{(a, m, r, d): value}``,
    dropping zero cells; then, in canonical cell order, each selected
    metric's value goes to its slot of its partition's row (a slot with
    no cell stays 0.0), and rows are sorted by key.
    """
    cells = {}
    columns = (block.activity, block.region, block.direction, block.sums)
    for a, r, d, values in zip(*(column.tolist() for column in columns)):
        for m, value in enumerate(values):
            if value:
                cells[(a, m, r, d)] = value
    slot_of = {METRIC_OF_COLUMN[c]: i for i, c in enumerate(spec.metric_columns)}
    rows: dict[str, list[float]] = {}
    for (a, m, r, d), value in sorted(cells.items()):
        if m not in slot_of:
            continue
        names = {"activity": str(a), "region": str(r), "direction": str(d)}
        key = "\x1f".join(names.get(c, window_id) for c in spec.client.group_by)
        rows.setdefault(key, [0.0] * len(slot_of))[slot_of[m]] = value
    return [(key, tuple(rows[key])) for key in sorted(rows)]


def reference_bounded_sums(block, clip=None, clip_table=None, scale_table=None):
    """A block's cells bounded as the device transform bounds them, by a
    plain loop that sums every clip group with ``math.fsum``.

    ``scale_table[a][m]``, if given, first divides each cell.  A group is
    a device's cells bounded by ``clip``, or with ``clip_table`` the
    device's cells of one (activity, metric) bounded by ``clip_table[a][m]``.
    A group over its bound is multiplied by ``bound / norm`` until its
    norm is within the bound, the factor nudged below one should it round
    to 1.0.  Returns the bounded cells as a new array.
    """
    rows = block.sums.tolist()
    activity = block.activity.tolist()
    if scale_table is not None:
        rows = [
            [v / scale_table[a][m] for m, v in enumerate(row)]
            for a, row in zip(activity, rows)
        ]
    groups: dict = {}
    for k, (device, a) in enumerate(zip(block.device.tolist(), activity)):
        for m in range(len(rows[k])):
            key = device if clip_table is None else (device, a, m)
            groups.setdefault(key, []).append((k, m))
    for key, positions in groups.items():
        bound = clip if clip_table is None else clip_table[key[1]][key[2]]
        values = [rows[k][m] for k, m in positions]
        norm = math.fsum(abs(v) for v in values)
        while norm > bound:
            factor = bound / norm
            if factor >= 1.0:
                factor = math.nextafter(1.0, 0.0)
            values = [v * factor for v in values]
            norm = math.fsum(abs(v) for v in values)
        for (k, m), value in zip(positions, values):
            rows[k][m] = value
    return np.array(rows, dtype=np.float64).reshape(block.sums.shape)


def nearest_rank_quantile(values, q: float) -> float:
    """The ``ceil(q * n)``-th smallest (1-indexed) of ``n`` values."""
    if not values:
        raise InvalidParameterError("quantile of empty sample")
    if not 0 < q <= 1:
        raise InvalidParameterError("quantile must be in (0, 1]")
    return sorted(values)[math.ceil(q * len(values)) - 1]


def reference_cell_sums(block) -> dict[tuple[int, int, int, int], float]:
    """Every cell some row of the block holds: ``math.fsum`` of its values
    over the rows, in row order."""
    columns: dict[tuple[int, int, int, int], list[float]] = {}
    partitions = zip(block.activity.tolist(), block.region.tolist(), block.direction.tolist())
    for (a, r, d), values in zip(partitions, block.sums.tolist()):
        for m, value in enumerate(values):
            columns.setdefault((a, m, r, d), []).append(value)
    return {cell: math.fsum(values) for cell, values in columns.items()}


def reference_scales(block, schema, q: float) -> tuple[tuple[float, ...], ...]:
    """Per-slice calibration by plain loops.

    Each (device, activity, metric)'s norm adds ``|v|`` left to right
    over the device's cells in the order it made them (``made_at``); a
    slice's entry is :func:`nearest_rank_quantile` of its nonzero norms,
    or 1.0 if it has none.
    """
    norms: dict[tuple[int, int, int], float] = {}
    made = sorted(range(len(block.device)), key=lambda k: int(block.made_at[k]))
    for k in made:
        device, a = int(block.device[k]), int(block.activity[k])
        for m, value in enumerate(block.sums[k].tolist()):
            norms[(device, a, m)] = norms.get((device, a, m), 0.0) + abs(value)
    per_slice: dict[tuple[int, int], list[float]] = {}
    for (_, a, m), norm in norms.items():
        if norm > 0.0:
            per_slice.setdefault((a, m), []).append(norm)
    return tuple(
        tuple(
            nearest_rank_quantile(per_slice[(a, m)], q) if (a, m) in per_slice else 1.0
            for m in range(schema.num_metrics)
        )
        for a in range(schema.num_activities)
    )


def sparse_scored_cells(truth, device_counts, device_floor, shape):
    """The eligible cells of the weighted relative error, from dicts.

    ``truth`` maps ``(a, m, r, d)`` to its nonzero value in entry order
    and ``device_counts`` maps ``(a, r, d)`` to a count.  Region trip
    totals add in the truth's entry order.  Per metric: the eligible
    cells' flat indices into ``shape``, truth values and weights, and the
    ``math.fsum`` of the weights.
    """
    region_trips: dict[int, float] = {}
    for (a, m, r, d), value in truth.items():
        if m == METRIC_NUM_TRIPS:
            region_trips[r] = region_trips.get(r, 0.0) + value
    out = []
    for metric in range(shape[1]):
        indices, values, weights = [], [], []
        for (a, m, r, d), value in truth.items():
            if m != metric or value == 0.0:
                continue
            if device_counts.get((a, r, d), 0) < device_floor:
                continue
            n_partition = truth.get((a, METRIC_NUM_TRIPS, r, d), 0.0)
            n_region = region_trips.get(r, 0.0)
            if n_region <= 0.0 or n_partition <= 0.0:
                continue
            indices.append(((a * shape[1] + m) * shape[2] + r) * shape[3] + d)
            values.append(value)
            weights.append(n_partition / n_region)
        out.append((indices, values, weights, math.fsum(weights)))
    return out


def sparse_weighted_relative_error(
    truth, estimate, device_counts, device_floor, num_metrics
) -> dict[int, float]:
    """Weighted relative error over sparse dicts, one dict lookup a cell.

    The scorer before releases stayed dense: region trip totals added in
    the truth's entry order, each eligible cell's term
    ``weight * |t - e| / |t|`` with a cell the estimate lacks read as 0,
    and ``math.fsum`` of the terms over ``math.fsum`` of the weights; a
    metric with no eligible partition is NaN.  ``truth`` and ``estimate``
    map ``(a, m, r, d)`` to values, ``device_counts`` ``(a, r, d)`` to
    counts; metrics ``0 .. num_metrics - 1`` are scored.
    """
    region_trips: dict[int, float] = {}
    for (a, m, r, d), value in truth.items():
        if m == METRIC_NUM_TRIPS:
            region_trips[r] = region_trips.get(r, 0.0) + value
    results = {}
    for metric in range(num_metrics):
        weights, terms = [], []
        for (a, m, r, d), value in truth.items():
            if m != metric or value == 0.0:
                continue
            if device_counts.get((a, r, d), 0) < device_floor:
                continue
            n_partition = truth.get((a, METRIC_NUM_TRIPS, r, d), 0.0)
            n_region = region_trips.get(r, 0.0)
            if n_region <= 0.0 or n_partition <= 0.0:
                continue
            weight = n_partition / n_region
            weights.append(weight)
            terms.append(weight * abs(value - estimate.get((a, m, r, d), 0.0)) / abs(value))
        total = math.fsum(weights)
        results[metric] = math.fsum(terms) / total if total != 0.0 else math.nan
    return results


def sparse_per_user_mean_error(truth, estimate, device_counts, metrics) -> float:
    """Per-user mean error over sparse dicts, a partition at a time.

    A partition counts if the truth holds one of ``metrics`` there and
    ``device_counts`` records a contributor; its error is the mean of
    ``|t - e| / |t|`` over those metrics with nonzero truth (a missing
    estimate reads as 0), over its device count.  NaN if none counts.
    """
    wanted = set(metrics)
    partitions = {(a, r, d) for (a, m, r, d), v in truth.items() if m in wanted and v}
    terms = []
    for a, r, d in partitions:
        count = device_counts.get((a, r, d), 0)
        if count <= 0:
            continue
        errors = []
        for m in wanted:
            reference = truth.get((a, m, r, d), 0.0)
            if reference != 0.0:
                got = estimate.get((a, m, r, d), 0.0)
                errors.append(abs(reference - got) / abs(reference))
        terms.append(math.fsum(errors) / len(errors) / count)
    return math.fsum(terms) / len(terms) if terms else math.nan


# ---------------------------------------------------------------------------
# Malformed split queries, each annotated with the class that must reject it.

_CLIENT_OK = (
    "SELECT activity, region, direction, privacy_time_unit, "
    "SUM(trip_count) AS c FROM DeviceDataStream "
    "GROUP BY activity, region, direction, privacy_time_unit"
)
_SERVER_OK = (
    "SELECT activity, region, direction, privacy_time_unit, "
    "SUM(c) AS s FROM UserResults "
    "GROUP BY activity, region, direction, privacy_time_unit"
)


def _pair(client: str, server: str) -> str:
    return f"{client}\n\n{server}\n"


def malformed_query_cases() -> list[tuple[str, str, type]]:
    """Fifty rejected splits: (label, query text, expected error class)."""
    from fedsum.query import (
        MissingPrivacyTimeUnitError,
        NonAggregatingQueryError,
        UnknownColumnError,
        UnsupportedAggregateError,
    )

    cases: list[tuple[str, str, type]] = []

    def add(label: str, text: str, err: type) -> None:
        cases.append((label, text, err))

    # --- no GROUP BY / raw column without aggregation ------------------
    for col in ("region", "activity", "direction", "privacy_time_unit", "s"):
        add(
            f"server-select-{col}-ungrouped",
            _pair(_CLIENT_OK, f"SELECT {col} FROM UserResults"),
            NonAggregatingQueryError,
        )
    add(
        "client-no-group-by",
        _pair(
            "SELECT region, SUM(trip_count) AS c FROM DeviceDataStream",
            _SERVER_OK,
        ),
        NonAggregatingQueryError,
    )
    add(
        "client-raw-column-outside-group",
        _pair(
            "SELECT region, direction, SUM(trip_count) AS c "
            "FROM DeviceDataStream GROUP BY region",
            _SERVER_OK,
        ),
        NonAggregatingQueryError,
    )
    add(
        "server-raw-column-outside-group",
        _pair(
            _CLIENT_OK,
            "SELECT activity, c FROM UserResults GROUP BY activity",
        ),
        NonAggregatingQueryError,
    )
    add(
        "server-no-group-by-with-sum",
        _pair(_CLIENT_OK, "SELECT SUM(c) AS s FROM UserResults"),
        NonAggregatingQueryError,
    )
    add(
        "client-no-group-by-with-sum",
        _pair("SELECT SUM(trip_count) AS c FROM DeviceDataStream", _SERVER_OK),
        NonAggregatingQueryError,
    )
    add(
        "server-groups-by-sum-column",
        _pair(
            "SELECT activity, region, direction, privacy_time_unit, "
            "SUM(trip_count) AS c1, SUM(trip_distance) AS c2 "
            "FROM DeviceDataStream "
            "GROUP BY activity, region, direction, privacy_time_unit",
            "SELECT c1, privacy_time_unit, SUM(c2) AS s FROM UserResults "
            "GROUP BY c1, privacy_time_unit",
        ),
        NonAggregatingQueryError,
    )
    add(
        "server-groups-by-second-sum-column",
        _pair(
            "SELECT activity, region, direction, privacy_time_unit, "
            "SUM(trip_count) AS c1, SUM(trip_distance) AS c2 "
            "FROM DeviceDataStream "
            "GROUP BY activity, region, direction, privacy_time_unit",
            "SELECT c2, privacy_time_unit, SUM(c1) AS s FROM UserResults "
            "GROUP BY c2, privacy_time_unit",
        ),
        NonAggregatingQueryError,
    )

    # --- non-SUM aggregates ---------------------------------------------
    for func in ("AVG", "COUNT", "MIN", "MAX", "MEDIAN", "STDDEV", "VARIANCE"):
        add(
            f"client-{func.lower()}",
            _pair(
                "SELECT activity, region, direction, privacy_time_unit, "
                f"{func}(trip_count) AS c FROM DeviceDataStream "
                "GROUP BY activity, region, direction, privacy_time_unit",
                _SERVER_OK,
            ),
            UnsupportedAggregateError,
        )
    for func in ("AVG", "COUNT", "MAX", "MODE"):
        add(
            f"server-{func.lower()}",
            _pair(
                _CLIENT_OK,
                "SELECT activity, region, direction, privacy_time_unit, "
                f"{func}(c) AS s FROM UserResults "
                "GROUP BY activity, region, direction, privacy_time_unit",
            ),
            UnsupportedAggregateError,
        )
    add(
        "client-sum-of-grouping-column",
        _pair(
            "SELECT activity, region, direction, privacy_time_unit, "
            "SUM(region) AS c FROM DeviceDataStream "
            "GROUP BY activity, region, direction, privacy_time_unit",
            _SERVER_OK,
        ),
        UnsupportedAggregateError,
    )
    add(
        "client-sum-of-non-numeric-key",
        _pair(
            "SELECT region, direction, privacy_time_unit, "
            "SUM(activity) AS c FROM DeviceDataStream "
            "GROUP BY region, direction, privacy_time_unit",
            "SELECT region, direction, privacy_time_unit, SUM(c) AS s "
            "FROM UserResults GROUP BY region, direction, privacy_time_unit",
        ),
        UnsupportedAggregateError,
    )

    # --- missing privacy_time_unit ---------------------------------------
    client_keys_without_unit = (
        "activity, region, direction",
        "region, direction",
        "activity, region",
        "activity, direction",
        "region",
        "activity",
    )
    for keys in client_keys_without_unit:
        add(
            f"client-missing-unit-[{keys}]",
            _pair(
                f"SELECT {keys}, SUM(trip_count) AS c FROM DeviceDataStream "
                f"GROUP BY {keys}",
                f"SELECT {keys}, SUM(c) AS s FROM UserResults GROUP BY {keys}",
            ),
            MissingPrivacyTimeUnitError,
        )
    server_keys_without_unit = (
        "activity, region, direction",
        "region, direction",
        "activity",
        "region",
        "direction",
        "activity, region",
    )
    for keys in server_keys_without_unit:
        add(
            f"server-missing-unit-[{keys}]",
            _pair(
                _CLIENT_OK,
                f"SELECT {keys}, SUM(c) AS s FROM UserResults GROUP BY {keys}",
            ),
            MissingPrivacyTimeUnitError,
        )

    # --- unknown columns ----------------------------------------------------
    for col in ("device_id", "user_id", "zipcode", "REGION"):
        add(
            f"client-groups-by-{col}",
            _pair(
                f"SELECT {col}, privacy_time_unit, SUM(trip_count) AS c "
                f"FROM DeviceDataStream GROUP BY {col}, privacy_time_unit",
                "SELECT privacy_time_unit, SUM(c) AS s FROM UserResults "
                "GROUP BY privacy_time_unit",
            ),
            UnknownColumnError,
        )
    for col in ("speed", "fare", "TRIP_COUNT"):
        add(
            f"client-sums-{col}",
            _pair(
                "SELECT activity, region, direction, privacy_time_unit, "
                f"SUM({col}) AS c FROM DeviceDataStream "
                "GROUP BY activity, region, direction, privacy_time_unit",
                _SERVER_OK,
            ),
            UnknownColumnError,
        )
    for col in ("device_id", "home_region"):
        add(
            f"server-groups-by-{col}",
            _pair(
                _CLIENT_OK,
                f"SELECT {col}, privacy_time_unit, SUM(c) AS s "
                f"FROM UserResults GROUP BY {col}, privacy_time_unit",
            ),
            UnknownColumnError,
        )
    for col in ("total", "C"):
        add(
            f"server-sums-{col}",
            _pair(
                _CLIENT_OK,
                "SELECT activity, region, direction, privacy_time_unit, "
                f"SUM({col}) AS s FROM UserResults "
                "GROUP BY activity, region, direction, privacy_time_unit",
            ),
            UnknownColumnError,
        )
    add(
        "client-wrong-table",
        _pair(_CLIENT_OK.replace("DeviceDataStream", "TripsTable"), _SERVER_OK),
        UnknownColumnError,
    )
    add(
        "server-wrong-table",
        _pair(_CLIENT_OK, _SERVER_OK.replace("UserResults", "Results")),
        UnknownColumnError,
    )

    assert len(cases) == 50, len(cases)
    return cases


# Check-in policies and the battery floor, written out.
POLICY_FLAGS = {
    "idle": ("idle",),
    "idle_wifi_charging": ("idle", "unmetered_network", "charging"),
}
BATTERY_FLOOR = 0.30


def eager_check_in_allowed(u, profile, policy) -> bool:
    """A device-day's check-in verdict from its five condition uniforms
    ``u`` (condition name -> the device's uniform that day)."""
    flags = {
        "idle": u["idle"] < profile.p_idle,
        "unmetered_network": u["unmetered"] < profile.p_unmetered,
        "charging": u["charging"] < profile.p_charging,
    }
    connected = u["connected"] < profile.p_connected
    battery = profile.battery_low + (profile.battery_high - profile.battery_low) * u["battery"]
    if not connected or battery < BATTERY_FLOOR:
        return False
    return all(flags[name] for name in POLICY_FLAGS[policy])


# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2,
# 3", SC 2011), written out over numpy arrays: the round multipliers and the
# key schedule's Weyl increments.
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``m * x``, by 32-bit halves."""
    m0, m1 = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x0, x1 = x & _LOW32, x >> _SHIFT32
    t = m0 * x0
    u = m1 * x0 + (t >> _SHIFT32)
    v = m0 * x1 + (u & _LOW32)
    return m1 * x1 + (u >> _SHIFT32) + (v >> _SHIFT32), x * np.uint64(m)


def philox4x64(counter, key):
    """Philox4x64-10 of 4 counter words under 2 key words (uint64 arrays)."""
    c, k = list(counter), list(key)
    for round_index in range(10):
        if round_index:
            k = [k[0] + np.uint64(PHILOX_W[0]), k[1] + np.uint64(PHILOX_W[1])]
        hi0, lo0 = _mulhilo(PHILOX_M[0], c[0])
        hi1, lo1 = _mulhilo(PHILOX_M[1], c[2])
        c = [hi1 ^ c[1] ^ k[0], lo1, hi0 ^ c[3] ^ k[1], lo0]
    return c


def block_key(seed: int, namespace: str, *parts) -> tuple[int, int]:
    """A stream's Philox key as the ``rng`` docstring gives it: BLAKE2b-128
    of the encoded ``(seed, namespace, parts...)``, as two LE words."""
    material = b""
    for part in (seed, namespace, *parts):
        if isinstance(part, int):
            material += b"i" + struct.pack("<q", part)
        else:
            data = part.encode("utf-8")
            material += b"s" + struct.pack("<I", len(data)) + data
    digest = blake2b(material, digest_size=16).digest()
    return struct.unpack("<QQ", digest)


def reference_uniforms(keys, index, positions) -> np.ndarray:
    """The uniform at each position of each key's stream at ``index``.

    ``keys`` is an ``(n, 2)`` array of key words and ``positions`` an
    array that broadcasts with ``n``.  Position ``p`` is output word
    ``p % 4`` of Philox at counter ``(p // 4 + 1, *index)``, mapped to
    ``((x >> 12) + 0.5) * 2**-52``.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    positions, k0, k1 = np.broadcast_arrays(
        np.asarray(positions, dtype=np.uint64), keys[:, 0], keys[:, 1]
    )
    words = [positions // np.uint64(4) + np.uint64(1)]
    words += [np.full(positions.shape, i, dtype=np.uint64) for i in (*index, 0, 0, 0)[:3]]
    out = philox4x64(words, (k0, k1))
    word = np.choose((positions % np.uint64(4)).astype(np.intp), out)
    return ((word >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0**-52


# Each event kind's fields as the server's call sites name them, in the
# order they give them; ``upload_rejected`` without and with a device id.
LOGGED_FIELDS = {
    "task_registered": [("query_id", "windows", "submitted_by", "approved_by")],
    "session_created": [("session_id", "window_id", "node", "deadline")],
    "check_in": [("device_id",)],
    "assignment": [("device_id", "session_id", "window_id")],
    "upload_rejected": [("session_id", "reason"), ("session_id", "device_id", "reason")],
    "upload_accepted": [("session_id", "device_id", "window_id", "payload_digest")],
    "checkpoint": [("session_id", "partial_id", "level", "contributions", "state_digest")],
    "partial_expired": [("session_id", "partial_id", "level", "contributions_lost")],
    "rollup": [("session_id", "partial_id", "level", "contributions", "state_digest")],
    "release_suppressed": [("session_id", "window_id", "contributions", "reason")],
    "release": [
        (
            "session_id",
            "window_id",
            "released_partitions",
            "suppressed_partitions",
            "histogram_digest",
        )
    ],
}


class DictLog:
    """A server's event log as a list of dicts, each built as the server's
    ``_log`` built it when it kept dicts: ``{"t": now, "event": kind, **fields}``.

    Only each row's kind is read from the server's shape table; the field
    names and their order are those of ``LOGGED_FIELDS``."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def _log(self, now, event, **fields) -> None:
        self.events.append({"t": now, "event": event, **fields})

    def record(self, row: tuple) -> None:
        """Log the event of one row the server logged: its shape's id, then
        the values of ``t`` and its fields in the sorted order of their names."""
        kind = _SHAPES[row[0]].kind
        fields = next(f for f in LOGGED_FIELDS[kind] if len(f) + 2 == len(row))
        named = dict(zip(sorted(("t", *fields)), row[1:]))
        self._log(named["t"], kind, **{name: named[name] for name in fields})


def dict_log(server) -> DictLog:
    """The oracle log of every event ``server`` logs from now on."""
    oracle, log = DictLog(), server._log

    def both(row):
        log(row)
        oracle.record(row)

    server._log = both
    return oracle
