"""On-device behavior: caching, watermarks, query execution, and policies."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fedsum.client import (
    BATTERY_FLOOR,
    CHECKIN_POLICIES,
    CONDITIONS,
    ClockRegressionError,
    DeviceState,
    FleetProfiles,
    TIER_PROFILES,
    client_work,
    draw_conditions,
    draw_flags,
    histogram_to_rows,
    row_keys,
    rows_to_histogram,
)
from fedsum.dp import (
    VARIANT_JOINT,
    VARIANT_SCALED,
    VARIANT_SPLIT,
    MechanismConfig,
    resolve_mechanism,
)
from fedsum.model import IndexedHistogram, Schema
from fedsum.query import QueryValidationError, parse_and_validate
from fedsum.synth import DeviceRecords, SyntheticCorpusConfig
from fedsum.windows import WindowAlignment, round_down_window, window_after

from blocks import block_of, l1_norm, sparse_of
from helpers import (
    START,
    WEEK,
    corpus_of,
    eager_check_in_allowed,
    reference_upload_rows,
    trip,
)

DISTANCE_QUERY = """\
SELECT activity, region, direction, privacy_time_unit,
       SUM(trip_distance) AS user_trip_distance
FROM DeviceDataStream
GROUP BY activity, region, direction, privacy_time_unit

SELECT activity, region, direction, privacy_time_unit, SUM(user_trip_distance)
FROM UserResults
GROUP BY activity, region, direction, privacy_time_unit
"""

FULL_QUERY = """\
SELECT activity, region, direction, privacy_time_unit,
       SUM(trip_count) AS n, SUM(trip_distance) AS km, SUM(trip_duration) AS sec
FROM DeviceDataStream
GROUP BY activity, region, direction, privacy_time_unit

SELECT activity, region, direction, privacy_time_unit,
       SUM(n) AS sn, SUM(km) AS skm, SUM(sec) AS ssec
FROM UserResults
GROUP BY activity, region, direction, privacy_time_unit
"""


def wide_schema():
    return Schema(
        num_activities=3,
        num_metrics=3,
        num_regions=9,
        metric_names=("num_trips", "distance_km", "duration_s"),
        activity_names=("a", "b", "c"),
    )


def device(records=(), tier="always_on"):
    """Device 0 of a one-device corpus, every one of its trips already cached."""
    home = records[0].region if records else 0
    corpus = corpus_of(
        SyntheticCorpusConfig(num_devices=1),
        wide_schema(),
        [DeviceRecords(0, tier, home, list(records))],
    )
    state = DeviceState(device_id=0, profile=TIER_PROFILES[tier], corpus=corpus)
    state.hi = state.end
    state.low_watermark = START
    state.last_seen_now = START
    return state


def cached(dev):
    """The trips in the device's cache, as records, oldest first."""
    first, _ = dev.corpus.rows(dev.device_id)
    records = dev.corpus.devices[dev.device_id].records
    return records[dev.lo - first : dev.hi - first]


def week(k=0):
    return round_down_window(START + k * WEEK, WindowAlignment.WEEK)


def mechanism(schema, variant=VARIANT_JOINT, **parameters):
    """A resolved mechanism with the given explicit bounds (nothing calibrated)."""
    config = MechanismConfig(variant=variant, epsilon=1.0, **parameters)
    return resolve_mechanism(config, [], schema)


def histogram(trips, schema):
    """The device's raw histogram: its one-device block's cells."""
    return IndexedHistogram.from_dense(schema, client_work(trips, schema).cell_sums(schema))


def bounded(resolved, trips, schema):
    """The device's upload: its block through the device transform, read out."""
    block = resolved.transform_devices(client_work(trips, schema), schema)
    return IndexedHistogram.from_dense(schema, block.cell_sums(schema))


# --- client_work and the device transform -------------------------------------


def test_single_trip_maps_to_three_cells():
    schema = wide_schema()
    block = client_work([trip(a=2, r=5, d=0, km=10.0, s=600.0)], schema)
    assert block.device.tolist() == [0]
    assert block.made_at.tolist() == [0]
    h = sparse_of(block.cell_sums(schema))
    assert h == {(2, 0, 5, 0): 1.0, (2, 1, 5, 0): 10.0, (2, 2, 5, 0): 600.0}


def test_scaling_divides_each_summed_cell_by_its_slice_factor():
    schema = wide_schema()
    rows = [[1.0, 1.0, 1.0] for _ in range(3)]
    rows[2][1] = 3.0  # distance factor for activity 2
    scaled = mechanism(
        schema, VARIANT_SCALED, clip=1e6, scale_table=rows
    )
    records = [
        trip(a=2, r=5, d=0, km=0.1, s=600.0),
        trip(a=2, r=5, d=0, km=0.2, s=600.0, t=START + 7200),
    ]
    h = bounded(scaled, records, schema)
    # The device sums first and scales the sum: (0.1 + 0.2) / 3, which
    # differs from 0.1 / 3 + 0.2 / 3 in the last bit.
    assert h[(2, 1, 5, 0)] == (0.1 + 0.2) / 3.0 != 0.1 / 3.0 + 0.2 / 3.0
    assert h[(2, 0, 5, 0)] == 2.0


def test_clip_halves_when_norm_is_twice_the_bound():
    schema = wide_schema()
    records = [trip(a=0, r=0, km=3.0, s=6.0)]
    raw = histogram(records, schema)
    bound = l1_norm(raw) / 2.0
    clipped = bounded(mechanism(schema, clip=bound), records, schema)
    for index, value in raw.items():
        assert clipped[index] == value / 2.0


@given(
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.integers(0, 8),
            st.integers(0, 2),
            st.floats(min_value=0, max_value=1e4),
            st.floats(min_value=0, max_value=1e5),
        ),
        max_size=20,
    ),
    st.floats(min_value=0.5, max_value=100.0),
)
def test_device_transform_respects_the_contribution_bound(raw_trips, bound):
    schema = wide_schema()
    records = [
        trip(a=a, r=r, d=d, km=km, s=s) for a, r, d, km, s in raw_trips
    ]
    assert l1_norm(bounded(mechanism(schema, clip=bound), records, schema)) <= bound
    bounds = tuple(tuple(bound * (1 + a + m) for m in range(3)) for a in range(3))
    split = bounded(mechanism(schema, VARIANT_SPLIT, clip_table=bounds), records, schema)
    for a in range(3):
        for m in range(3):
            norm = math.fsum(
                abs(v) for (ia, im, _, _), v in split.items() if (ia, im) == (a, m)
            )
            assert norm <= bounds[a][m]


# --- query execution: the raw block through the upload codec ------------------


def upload_rows(dev, spec, windows):
    """A device's upload rows for ``windows``, one window at a time."""
    rows = []
    for window in windows:
        block = client_work(dev.visible_records(window), wide_schema())
        rows += histogram_to_rows(block, window.window_id, spec)
    return rows


def test_trips_in_one_region_sum_their_distances():
    spec = parse_and_validate(DISTANCE_QUERY)
    dev = device([trip(r=7, km=3.0), trip(r=7, km=5.0, t=START + 7200)])
    rows = upload_rows(dev, spec, [week(0)])
    assert len(rows) == 1
    key, values = rows[0]
    assert key.split("\x1f") == ["0", "7", "0", "2024-W20"]
    assert values == (8.0,)


def test_rows_span_windows_with_their_own_ids():
    spec = parse_and_validate(DISTANCE_QUERY)
    dev = device([trip(r=1, km=2.0), trip(r=1, km=4.0, t=START + WEEK + 60)])
    rows = upload_rows(dev, spec, [week(0), week(1)])
    assert [key.split("\x1f")[3] for key, _ in rows] == ["2024-W20", "2024-W21"]
    assert [values for _, values in rows] == [(2.0,), (4.0,)]


def test_no_visible_records_yields_no_rows():
    spec = parse_and_validate(DISTANCE_QUERY)
    dev = device([])
    assert upload_rows(dev, spec, [week(0)]) == []


def test_rows_are_sorted_by_key():
    spec = parse_and_validate(FULL_QUERY)
    # The earlier trip has the larger key.
    dev = device(
        [trip(a=2, r=3, d=1, t=START + 60), trip(a=0, r=3, d=0, t=START + 3600)]
    )
    rows = upload_rows(dev, spec, [week(0)])
    assert len(rows) == 2
    assert [key for key, _ in rows] == sorted(key for key, _ in rows)


# --- block -> rows -> dense cell sums -------------------------------------------


def test_histogram_rows_round_trip():
    schema = wide_schema()
    spec = parse_and_validate(FULL_QUERY)
    cells = {(0, 0, 1, 2): 4.0, (2, 1, 8, 0): 2.5, (2, 2, 8, 0): 11.0}
    rows = histogram_to_rows(block_of(schema, [cells]), "2024-W20", spec)
    back = rows_to_histogram(rows, spec, schema, row_keys(spec, schema, "2024-W20"))
    assert back.shape == schema.shape
    assert sparse_of(back) == cells


def test_rows_to_histogram_rejects_wrong_window():
    schema = wide_schema()
    spec = parse_and_validate(FULL_QUERY)
    rows = histogram_to_rows(block_of(schema, [{(0, 0, 0, 0): 1.0}]), "2024-W20", spec)
    with pytest.raises(ValueError):
        rows_to_histogram(rows, spec, schema, row_keys(spec, schema, "2024-W21"))


REGION_DISTANCE_QUERY = """\
SELECT region, privacy_time_unit, SUM(trip_distance) AS km
FROM DeviceDataStream
GROUP BY region, privacy_time_unit

SELECT region, privacy_time_unit, SUM(km) AS skm
FROM UserResults
GROUP BY region, privacy_time_unit
"""


def test_rows_need_every_release_key():
    # Both cells share (region 3, window): with fewer keys than the
    # release's, their rows would collide, so no such query validates.
    schema = wide_schema()
    block = block_of(schema, [{(0, 1, 3, 0): 2.0, (1, 1, 3, 2): 5.0}])
    with pytest.raises(QueryValidationError, match="grouping the client statement by exactly"):
        parse_and_validate(REGION_DISTANCE_QUERY)
    rows = histogram_to_rows(block, "w", parse_and_validate(DISTANCE_QUERY))
    assert math.fsum(values[0] for _, values in rows) == 7.0


@given(
    st.dictionaries(
        st.tuples(
            st.integers(0, 2),
            st.integers(0, 2),
            st.integers(0, 8),
            st.integers(0, 2),
        ),
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False
        ).filter(lambda v: v != 0.0),
        max_size=15,
    )
)
def test_round_trip_holds_for_any_histogram(entries):
    schema = wide_schema()
    spec = parse_and_validate(FULL_QUERY)
    rows = histogram_to_rows(block_of(schema, [entries]), "w", spec)
    back = rows_to_histogram(rows, spec, schema, row_keys(spec, schema, "w"))
    assert sparse_of(back) == dict(sorted(entries.items()))


def test_rows_encode_one_device():
    schema = wide_schema()
    block = block_of(schema, [{(0, 0, 0, 0): 1.0}, {(0, 0, 0, 0): 2.0}])
    with pytest.raises(ValueError, match="one device"):
        histogram_to_rows(block, "w", parse_and_validate(FULL_QUERY))


# A client statement whose keys and sums come in another order.
REORDERED_QUERY = """\
SELECT direction, privacy_time_unit, region, activity,
       SUM(trip_duration) AS sec, SUM(trip_count) AS n
FROM DeviceDataStream
GROUP BY direction, privacy_time_unit, region, activity

SELECT direction, privacy_time_unit, region, activity, SUM(sec), SUM(n)
FROM UserResults
GROUP BY direction, privacy_time_unit, region, activity
"""

ENCODED_QUERIES = {
    "full": FULL_QUERY,
    "distance": DISTANCE_QUERY,
    "reordered": REORDERED_QUERY,
}


def hex_rows(rows):
    return [(key, [value.hex() for value in values]) for key, values in rows]


def one_device_block(partitions, sums):
    """Device 0's block: one row per (activity, region, direction), zeros kept."""
    cells = {
        (a, m, r, d): value
        for (a, r, d), row in zip(partitions, sums)
        for m, value in enumerate(row)
    }
    return block_of(wide_schema(), [cells])


CELL = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e300]),
    st.floats(min_value=0.0, max_value=1e6),
)


@pytest.mark.parametrize("query", sorted(ENCODED_QUERIES))
@given(
    partitions=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 8), st.integers(0, 2)),
        unique=True,
        max_size=8,
    ).map(sorted),
    data=st.data(),
    clip=st.one_of(st.none(), st.floats(min_value=1e-3, max_value=1e4)),
)
@example(  # a clip underflow to zero and a row of zeros in the query's metrics
    partitions=[(0, 0, 0), (1, 4, 2)],
    data=None,
    clip=1.0,
)
def test_block_rows_equal_the_histogram_encoder_bit_for_bit(query, partitions, data, clip):
    """Rows rendered from the bounded block equal the old encoder's, which
    read the block out as a sparse histogram first (``tests/helpers.py``):
    same keys, same row set, every value equal by ``float.hex``."""
    schema = wide_schema()
    spec = parse_and_validate(ENCODED_QUERIES[query])
    if data is None:
        sums = [[1e300, 5e-324, 0.0], [1.0, 0.0, 0.0]]
    else:
        sums = [[data.draw(CELL) for _ in range(3)] for _ in partitions]
    block = one_device_block(partitions, sums)
    if clip is not None:
        block = mechanism(schema, clip=clip).transform_devices(block, schema)
    expected = reference_upload_rows(block, "2024-W20", spec)
    assert hex_rows(histogram_to_rows(block, "2024-W20", spec)) == hex_rows(expected)


def test_zeros_are_written_as_positive_and_all_zero_rows_are_dropped():
    schema = wide_schema()
    # (0, 0, 0): 5e-324 underflows to 0 when clipped; (1, 4, 2) holds no distance.
    block = one_device_block([(0, 0, 0), (1, 4, 2)], [[1e300, 5e-324, -0.0], [1.0, 0.0, 9.0]])
    block = mechanism(schema, clip=1.0).transform_devices(block, schema)
    assert block.sums[0, 1] == 0.0 and math.copysign(1.0, block.sums[0, 2]) == -1.0
    trips, _, duration = block.sums[1].tolist()
    full = histogram_to_rows(block, "w", parse_and_validate(FULL_QUERY))
    assert hex_rows(full) == [
        ("0\x1f0\x1f0\x1fw", [block.sums[0, 0].hex(), (0.0).hex(), (0.0).hex()]),
        ("1\x1f4\x1f2\x1fw", [trips.hex(), (0.0).hex(), duration.hex()]),
    ]
    assert histogram_to_rows(block, "w", parse_and_validate(DISTANCE_QUERY)) == []
    reordered = histogram_to_rows(block, "w", parse_and_validate(REORDERED_QUERY))
    assert [key for key, _ in reordered] == ["0\x1fw\x1f0\x1f0", "2\x1fw\x1f4\x1f1"]


# --- watermarks, TTL, and the memo ---------------------------------------------


def test_low_watermark_tracks_window_start():
    dev = device()
    dev.advance_watermarks(START + 3600, WindowAlignment.WEEK, ttl=28 * 86400)
    assert dev.low_watermark == START
    dev.advance_watermarks(START + WEEK + 60, WindowAlignment.WEEK, ttl=28 * 86400)
    assert dev.low_watermark == START + WEEK


def test_clock_regression_is_detected():
    dev = device()
    dev.advance_watermarks(START + 7200, WindowAlignment.WEEK, ttl=WEEK)
    with pytest.raises(ClockRegressionError):
        dev.advance_watermarks(START + 3600, WindowAlignment.WEEK, ttl=WEEK)


def test_expired_records_are_purged():
    keep = trip(t=START + 3600)
    dev = device([keep])
    dev.advance_watermarks(START + 2 * 3600, WindowAlignment.WEEK, ttl=3600)
    assert cached(dev) == [keep]  # age exactly equal to ttl survives
    dev.advance_watermarks(START + 3 * 3600, WindowAlignment.WEEK, ttl=3600)
    assert cached(dev) == []


def test_purge_drops_exactly_the_expired_prefix():
    old, tied, edge, new = (
        trip(t=START + 10),
        trip(t=START + 10, km=2.0),
        trip(t=START + 100),
        trip(t=START + 500),
    )
    dev = device([old, tied, edge, new])
    dev.advance_watermarks(START + 100 + 3600, WindowAlignment.WEEK, ttl=3600)
    assert cached(dev) == [edge, new]


def test_trips_arrive_as_the_clock_reaches_them():
    early, tied = trip(t=START + 10), trip(t=START + 10, km=2.0)
    late = trip(t=START + 500)
    dev = device([early, tied, late])
    dev.hi = dev.lo  # nothing has arrived yet
    dev.advance_watermarks(START + 9, WindowAlignment.WEEK, ttl=3600)
    assert cached(dev) == []
    dev.advance_watermarks(START + 10, WindowAlignment.WEEK, ttl=3600)
    assert cached(dev) == [early, tied]
    dev.advance_watermarks(START + 500, WindowAlignment.WEEK, ttl=3600)
    assert cached(dev) == [early, tied, late]


def test_records_must_arrive_in_time_order():
    dev = device([trip(t=START + 100), trip(t=START + 100, km=2.0)])
    assert [r.distance_km for r in cached(dev)] == [1.0, 2.0]  # a tie keeps its order


def test_eligible_windows_exclude_current_and_contributed():
    dev = device([trip()])
    windows = [week(0), week(1)]
    dev.advance_watermarks(START + WEEK + 60, WindowAlignment.WEEK, ttl=28 * 86400)
    assert dev.eligible_windows("q", windows) == [week(0)]
    dev.mark_contributed("q", "2024-W20")
    assert dev.eligible_windows("q", windows) == []


def test_exactly_once_guard_is_per_query():
    dev = device()
    dev.advance_watermarks(START + WEEK + 60, WindowAlignment.WEEK, ttl=28 * 86400)
    assert dev.eligible_windows("q", [week(0)]) == [week(0)]
    dev.mark_contributed("q", "2024-W20")
    assert dev.eligible_windows("q", [week(0)]) == []
    assert dev.eligible_windows("other", [week(0)]) == [week(0)]


def test_visible_records_filter_by_window():
    first, last = trip(t=START, km=1.0), trip(t=START + WEEK - 1, km=2.0)
    outside = trip(t=START + WEEK, km=3.0)
    dev = device([first, last, outside])
    assert dev.visible_records(week(0)) == [first, last]
    assert dev.visible_records(week(1)) == [outside]
    dev.advance_watermarks(START + 5, WindowAlignment.WEEK, ttl=4)  # `first` expires
    assert dev.visible_records(week(0)) == [last]


# --- constraint flags and policies ----------------------------------------------


def profile_with(**changes):
    return dataclasses.replace(TIER_PROFILES["always_on"], **changes)


def fleet_of(profile, size=8):
    return FleetProfiles.of([profile] * size)


def test_policies_require_connectivity_and_battery():
    for policy in CHECKIN_POLICIES:
        for day in range(10):
            assert draw_flags(0, fleet_of(profile_with()), policy, day).all()
            assert not draw_flags(0, fleet_of(profile_with(p_connected=0.0)), policy, day).any()
            low = BATTERY_FLOOR - 0.01
            drained = profile_with(battery_low=low, battery_high=low)
            assert not draw_flags(0, fleet_of(drained), policy, day).any()
            at_floor = profile_with(battery_low=BATTERY_FLOOR, battery_high=BATTERY_FLOOR)
            assert draw_flags(0, fleet_of(at_floor), policy, day).all()


def test_relaxed_policy_ignores_wifi_and_charging():
    relaxed_only = fleet_of(profile_with(p_unmetered=0.0, p_charging=0.0))
    assert draw_flags(0, relaxed_only, "idle", 3).all()
    assert not draw_flags(0, relaxed_only, "idle_wifi_charging", 3).any()
    assert not draw_flags(0, fleet_of(profile_with(p_idle=0.0)), "idle", 3).any()


@given(
    st.lists(st.sampled_from(["high_end", "low_end"]), min_size=1, max_size=64),
    st.integers(min_value=0, max_value=10**5),
)
def test_strict_policy_implies_relaxed_policy(tiers, day):
    fleet = FleetProfiles.of([TIER_PROFILES[tier] for tier in tiers])
    strict = draw_flags(7, fleet, "idle_wifi_charging", day)
    relaxed = draw_flags(7, fleet, "idle", day)
    assert not (strict & ~relaxed).any()


def test_flag_draws_are_deterministic_and_policy_free():
    # Every policy reads the same condition arrays, drawn whatever it reads.
    profiles = [TIER_PROFILES["low_end"], TIER_PROFILES["high_end"]] * 20
    fleet = FleetProfiles.of(profiles)
    for day in range(5):
        u = draw_conditions(5, day, len(profiles))
        assert sorted(u) == sorted(CONDITIONS)
        for policy in CHECKIN_POLICIES:
            mask = draw_flags(5, fleet, policy, day)
            assert mask.tolist() == draw_flags(5, fleet, policy, day).tolist()
            eager = [
                eager_check_in_allowed({c: u[c][i] for c in u}, profile, policy)
                for i, profile in enumerate(profiles)
            ]
            assert mask.tolist() == eager
    relaxed, strict = (draw_flags(5, fleet, policy, 0) for policy in ("idle", "idle_wifi_charging"))
    assert relaxed.sum() > strict.sum() > 0  # the policies differ on these arrays


def test_condition_arrays_depend_on_neither_the_policy_nor_the_fleet_size():
    small, large = draw_conditions(2, 19_860, 300), draw_conditions(2, 19_860, 10_000)
    for condition in CONDITIONS:
        assert small[condition].tolist() == large[condition][:300].tolist()
        other_day = draw_conditions(2, 19_861, 300)[condition]
        assert small[condition].tolist() != other_day.tolist()
    assert small["idle"].tolist() != small["charging"].tolist()


def test_always_on_profile_is_never_blocked():
    fleet = fleet_of(TIER_PROFILES["always_on"], size=100)
    for day in range(20):
        assert draw_flags(0, fleet, "idle_wifi_charging", day).all()


def test_tier_profiles_express_the_availability_gap():
    high, low = TIER_PROFILES["high_end"], TIER_PROFILES["low_end"]
    assert high.p_connected > low.p_connected
    assert high.p_unmetered > low.p_unmetered
    assert high.p_upload_ok > low.p_upload_ok
