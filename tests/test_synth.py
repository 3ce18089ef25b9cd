"""Synthetic fleet generator: determinism, realism, and window slicing."""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsum.client import TIER_PROFILES, DeviceState, client_work
from fedsum.metrics import exact_workload
from fedsum.model import DIRECTIONS, Schema
from fedsum.synth import (
    ActivitySpec,
    DEFAULT_ACTIVITIES,
    DeviceRecords,
    SyntheticCorpusConfig,
    choice_cdf,
    generate_corpus,
)
from fedsum.windows import TimeWindow, WindowAlignment, round_down_window

from blocks import cell_order, counts_of, devices_of, rows_of, sparse_of
from helpers import START, WEEK, corpus_of, naive_device_counts, naive_workload, trip

WALKING, FLYING = 0, 7


def test_same_seed_reproduces_the_fleet():
    config = SyntheticCorpusConfig(num_devices=40, num_regions=5, seed=3)
    first = generate_corpus(config)
    second = generate_corpus(config)
    assert [d.records for d in first.devices] == [d.records for d in second.devices]
    assert [d.tier for d in first.devices] == [d.tier for d in second.devices]
    assert [d.home_region for d in first.devices] == [
        d.home_region for d in second.devices
    ]


def test_different_seeds_diverge():
    base = SyntheticCorpusConfig(num_devices=40, num_regions=5, seed=3)
    other = SyntheticCorpusConfig(num_devices=40, num_regions=5, seed=4)
    assert [d.records for d in generate_corpus(base).devices] != [
        d.records for d in generate_corpus(other).devices
    ]


def test_schema_follows_the_activity_roster(corpus_300):
    schema = corpus_300.schema
    assert schema.num_activities == len(DEFAULT_ACTIVITIES)
    assert schema.activity_names == tuple(a.name for a in DEFAULT_ACTIVITIES)
    assert schema.num_regions == corpus_300.config.num_regions
    assert schema.num_metrics == 3


def test_every_record_is_valid_and_in_range(corpus_300):
    config = corpus_300.config
    for device in corpus_300.devices:
        for record in device.records:
            assert 0 <= record.activity < corpus_300.schema.num_activities
            assert 0 <= record.direction < corpus_300.schema.num_directions
            assert 0 <= record.region < corpus_300.schema.num_regions
            assert 0 <= record.event_time - config.start_time < config.num_weeks * WEEK
            assert record.region == device.home_region
            assert record.device_id == device.device_id
            assert 0 < record.distance_km < math.inf
            assert 0 < record.duration_s < math.inf
        times = [r.event_time for r in device.records]
        assert times == sorted(times)


def test_config_bounds():
    with pytest.raises(ValueError):
        SyntheticCorpusConfig(num_devices=0)
    with pytest.raises(ValueError):
        SyntheticCorpusConfig(direction_mix=(0.5, 0.5, 0.5))


def test_non_participating_fleet_generates_nothing():
    silent = ActivitySpec(
        name="silent",
        participation=0.0,
        weekly_rate=5.0,
        distance_log_mean=0.0,
        distance_log_sigma=0.5,
        speed_kmh=10.0,
    )
    corpus = generate_corpus(
        SyntheticCorpusConfig(num_devices=30, num_regions=3, activities=(silent,))
    )
    assert all(not d.records for d in corpus.devices)


def test_flights_dwarf_walks_in_distance(corpus_10k):
    def mean_distance(activity):
        distances = [
            r.distance_km
            for d in corpus_10k.devices
            for r in d.records
            if r.activity == activity
        ]
        return statistics.mean(distances)

    assert mean_distance(FLYING) > 10 * mean_distance(WALKING)


def test_direction_mix_matches_the_config(corpus_10k):
    counts = [0, 0, 0]
    for device in corpus_10k.devices:
        for record in device.records:
            counts[record.direction] += 1
    total = sum(counts)
    for share, expected in zip(counts, corpus_10k.config.direction_mix):
        assert share / total == pytest.approx(expected, abs=0.02)
    assert len(DIRECTIONS) == 3


def test_home_regions_are_skewed_toward_low_indices(corpus_10k):
    homes = [d.home_region for d in corpus_10k.devices]
    assert homes.count(0) > homes.count(corpus_10k.config.num_regions - 1) * 5


def test_device_tiers_split_roughly_in_half(corpus_10k):
    high = sum(1 for d in corpus_10k.devices if d.tier == "high_end")
    assert high / corpus_10k.num_devices == pytest.approx(0.5, abs=0.03)
    assert {d.tier for d in corpus_10k.devices} == {"high_end", "low_end"}


def test_window_slicing_honors_half_open_bounds(corpus_300):
    windows = [
        round_down_window(START, WindowAlignment.WEEK),
        round_down_window(START + WEEK, WindowAlignment.WEEK),
    ]
    total = 0
    for device in corpus_300.devices:
        state = DeviceState(
            device_id=device.device_id,
            profile=TIER_PROFILES[device.tier],
            corpus=corpus_300,
        )
        state.advance_watermarks(
            corpus_300.config.start_time + corpus_300.config.num_weeks * WEEK,
            WindowAlignment.WEEK,
            ttl=4 * WEEK,
        )
        for window in windows:
            inside = [
                r for r in device.records if window.start <= r.event_time < window.end
            ]
            trips = state.visible_records(window)
            assert trips == inside
            total += len(trips)
    assert total == sum(len(d.records) for d in corpus_300.devices)


def in_window(records, window):
    return [r for r in records if window.start <= r.event_time < window.end]


def rows_bits(block):
    """Each row's partition and its sums' bits, in row order."""
    return [
        (a, r, d, [v.hex() for v in sums])
        for a, r, d, sums in zip(
            block.activity.tolist(),
            block.region.tolist(),
            block.direction.tolist(),
            block.sums.tolist(),
        )
    ]


def per_device(block):
    """Each device's rows (bits) and cell order, by device id."""
    return {
        device: rows_bits(rows_of(block, block.device == device))
        for device in devices_of(block)
    }, cell_order(block)


def test_histograms_cover_exactly_the_active_devices(corpus_300, week_one_300):
    # Two devices idle in the window by construction, between the fleet's:
    # one with no trip at all, one whose only trip is just after the window
    # (``corpus_of`` numbers the devices by position).
    fleet = list(corpus_300.devices)
    fleet[100:100] = [
        DeviceRecords(-1, "low_end", 0, []),
        DeviceRecords(-1, "high_end", 0, [trip(t=week_one_300.end)]),
    ]
    corpus = corpus_of(corpus_300.config, corpus_300.schema, fleet)
    block = corpus.device_histograms(week_one_300)
    active = [d for d in corpus.devices if in_window(d.records, week_one_300)]
    assert devices_of(block) == [d.device_id for d in active]
    assert not {100, 101} & set(devices_of(block))
    rows, order = per_device(block)
    # Equal row by row, bit for bit, and made in the same order, which
    # calibration's slice norms add in.
    for device, cells in zip(active, order):
        expected = client_work(in_window(device.records, week_one_300), corpus.schema)
        assert rows[device.device_id] == rows_bits(expected)
        assert cells == cell_order(expected)[0]


def test_device_counts_match_a_brute_force_scan(corpus_300, week_one_300):
    expected = counts_of(corpus_300.schema, naive_device_counts(corpus_300, week_one_300))
    block = corpus_300.device_histograms(week_one_300)
    assert np.array_equal(corpus_300.device_counts(block), expected)


@pytest.mark.parametrize(
    "mix",
    [(math.nan, 0.5, 0.5), (1.1, -0.05, -0.05), (math.inf, 0.0, 0.0),
     (0.5, 0.5), (0.25, 0.25, 0.25, 0.25)],
    ids=["nan", "negative", "infinite", "too_short", "too_long"],
)
def test_bad_direction_mix_fails_at_construction(mix):
    with pytest.raises(ValueError, match="direction mix"):
        SyntheticCorpusConfig(direction_mix=mix)


def test_bad_region_skew_fails_before_any_draw():
    # A NaN exponent makes NaN region probabilities, which a CDF lookup
    # would silently turn into an out-of-range home region.
    with pytest.raises(ValueError, match="probabilities"):
        generate_corpus(
            SyntheticCorpusConfig(num_devices=1, region_zipf_exponent=math.nan)
        )


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**64 - 1),
    weights=st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=60
    ).filter(any),
)
def test_cdf_lookup_draws_what_generator_choice_draws(seed, weights):
    p = np.asarray(weights)
    p /= p.sum()
    cdf = choice_cdf(p)
    looked_up = np.random.Generator(np.random.PCG64(seed))
    chosen = np.random.Generator(np.random.PCG64(seed))
    drawn = np.searchsorted(cdf, looked_up.random(50), side="right")
    assert drawn.tolist() == [chosen.choice(len(p), p=p) for _ in range(50)]
    assert looked_up.bit_generator.state == chosen.bit_generator.state


def corpus_digest(corpus) -> str:
    """BLAKE2b over every device's tier and home region and every record's
    fields, floats written exactly by ``float.hex``."""
    h = hashlib.blake2b(digest_size=16)
    for device in corpus.devices:
        h.update(f"{device.device_id}|{device.tier}|{device.home_region}\n".encode())
        for r in device.records:
            h.update(
                f"{r.device_id},{r.event_time},{r.activity},{r.region},"
                f"{r.direction},{r.distance_km.hex()},{r.duration_s.hex()}\n".encode()
            )
    return h.hexdigest()


@pytest.mark.parametrize(
    "config, digest",
    [
        (
            SyntheticCorpusConfig(num_devices=200, seed=5),
            "3c59b370453cc3a81e9e28094fd0c406",
        ),
        (
            SyntheticCorpusConfig(
                num_devices=200,
                seed=6,
                num_regions=7,
                direction_mix=(0.25, 0.0, 0.75),
            ),
            "a4378265d603107e7b77aa43df46a6fa",
        ),
    ],
    ids=["default", "custom_mix_and_regions"],
)
def test_corpus_is_pinned_bit_for_bit(config, digest):
    # Recorded from the fleet-wide block generator; any change to the
    # streams or the draw order in the module docstring moves them.  What
    # the pins mean is checked below: prefixes and distributions.
    assert corpus_digest(generate_corpus(config)) == digest


def fleet_bits(corpus, num_devices=None, num_weeks=None):
    """Each of the first devices' tier, home region and records, floats by
    ``float.hex``; records from the first ``num_weeks`` weeks only."""
    end = math.inf if num_weeks is None else corpus.config.start_time + num_weeks * WEEK
    return [
        (
            device.tier,
            device.home_region,
            [
                (r.event_time, r.activity, r.direction, r.distance_km.hex(), r.duration_s.hex())
                for r in device.records
                if r.event_time < end
            ],
        )
        for device in corpus.devices[:num_devices]
    ]


def test_the_device_view_slices_as_a_list_does(corpus_300):
    devices = corpus_300.devices
    fleet = list(devices)
    for index in (
        slice(None, 5),
        slice(295, None),
        slice(-3, None),
        slice(10, 40, 7),
        slice(None, None, -50),
        slice(290, 400),
        slice(400, 500),
    ):
        part = devices[index]
        assert type(part) is list
        assert part == fleet[index]
    assert [d.device_id for d in devices[-2:]] == [298, 299]
    assert devices[-1] == fleet[-1]
    with pytest.raises(IndexError):
        devices[300]


def test_a_smaller_fleet_is_a_prefix_of_a_larger_one():
    small, large = (
        generate_corpus(SyntheticCorpusConfig(num_devices=n, num_regions=9, seed=21))
        for n in (300, 1000)
    )
    assert fleet_bits(small) == fleet_bits(large, num_devices=300)


def test_a_shorter_corpus_is_a_prefix_of_a_longer_one():
    short, long = (
        generate_corpus(SyntheticCorpusConfig(num_devices=300, num_weeks=weeks, seed=22))
        for weeks in (1, 2)
    )
    assert fleet_bits(short) == fleet_bits(long, num_weeks=1)
    assert len(long.event_time) > len(short.event_time) > 0


def per_device_trips(corpus, activity):
    """Each device's number of trips of one activity, over the whole corpus."""
    offsets = np.frombuffer(corpus.offsets, dtype=np.int64)
    device = np.repeat(np.arange(corpus.num_devices), np.diff(offsets))
    of_activity = np.frombuffer(corpus.activity, dtype=np.intc) == activity
    return np.bincount(device[of_activity], minlength=corpus.num_devices)


def test_trip_rates_match_participation_times_weekly_rate(corpus_10k):
    # The rate multiplier is lognormal with mean 1, so a device-week holds
    # participation * weekly_rate trips of an activity on average.  Devices
    # are independent; a device's weeks share its rate, so the standard
    # error is taken over per-device totals.
    weeks = corpus_10k.config.num_weeks
    for activity, spec in enumerate(corpus_10k.config.activities):
        totals = per_device_trips(corpus_10k, activity)
        mean = totals.mean() / weeks
        standard_error = totals.std(ddof=1) / math.sqrt(len(totals)) / weeks
        expected = spec.participation * spec.weekly_rate
        assert abs(mean - expected) < 5 * standard_error, (spec.name, mean, expected)


def test_duration_jitter_is_lognormal_around_the_activity_speed(corpus_10k):
    speed = np.array([spec.speed_kmh for spec in corpus_10k.config.activities])
    activity = np.frombuffer(corpus_10k.activity, dtype=np.intc)
    distance = np.frombuffer(corpus_10k.distance_km, dtype=np.float64)
    duration = np.frombuffer(corpus_10k.duration_s, dtype=np.float64)
    log_jitter = np.log(duration * speed[activity] / (3600.0 * distance))
    sigma, n = corpus_10k.config.duration_jitter_sigma, len(log_jitter)
    assert abs(log_jitter.mean()) < 5 * sigma / math.sqrt(n)
    assert abs(log_jitter.std() - sigma) < 5 * sigma / math.sqrt(2 * n)


def test_event_times_are_uniform_over_the_week(corpus_10k):
    since_start = (
        np.frombuffer(corpus_10k.event_time, dtype=np.int64) - corpus_10k.config.start_time
    )
    assert 0 <= since_start.min() and since_start.max() < corpus_10k.config.num_weeks * WEEK
    days = np.bincount(since_start % WEEK // 86_400, minlength=7)
    assert len(days) == 7
    n, p = len(since_start), 1 / 7
    assert np.all(np.abs(days - n * p) < 5 * math.sqrt(n * p * (1 - p))), days


def column_bytes(corpus) -> int:
    columns = (
        corpus.home_regions, corpus.offsets, corpus.event_time, corpus.activity,
        corpus.direction, corpus.distance_km, corpus.duration_s,
    )
    return sum(len(column) * column.itemsize for column in columns)


@pytest.mark.parametrize("num_devices", [10_000, 30_000])
def test_generation_peaks_below_one_and_a_half_corpora(num_devices):
    # Each column is written once, into its final rows: the peak is the
    # returned columns plus each trip's row and one block's temporaries.
    config = SyntheticCorpusConfig(num_devices=num_devices, seed=4)
    tracemalloc.start()
    try:
        corpus = generate_corpus(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * column_bytes(corpus)


ACTIVITY = dict(
    name="a",
    participation=0.5,
    weekly_rate=2.0,
    distance_log_mean=0.0,
    distance_log_sigma=0.5,
    speed_kmh=10.0,
)


@pytest.mark.parametrize(
    "field, value",
    [
        ("participation", -0.1), ("participation", 1.5), ("participation", math.nan),
        ("weekly_rate", -1.0), ("weekly_rate", math.inf), ("weekly_rate", math.nan),
        ("distance_log_mean", math.inf), ("distance_log_mean", math.nan),
        ("distance_log_sigma", -0.5), ("distance_log_sigma", math.inf),
        ("speed_kmh", 0.0), ("speed_kmh", -4.0), ("speed_kmh", math.inf),
        ("speed_kmh", math.nan),
    ],
)
def test_bad_activity_fails_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        ActivitySpec(**{**ACTIVITY, field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", -1), ("seed", 2**63),
        ("high_end_share", -0.1), ("high_end_share", 1.01), ("high_end_share", math.nan),
        ("rate_sigma", -0.1), ("rate_sigma", math.inf), ("rate_sigma", math.nan),
        ("duration_jitter_sigma", -0.1), ("duration_jitter_sigma", math.inf),
        ("duration_jitter_sigma", math.nan),
    ],
)
def test_bad_corpus_parameter_fails_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        SyntheticCorpusConfig(**{field: value})


def test_parameters_at_their_bounds_generate():
    still = ActivitySpec(**{**ACTIVITY, "participation": 1.0, "distance_log_sigma": 0.0})
    corpus = generate_corpus(
        SyntheticCorpusConfig(
            num_devices=20, num_regions=2, seed=2**63 - 1, activities=(still,),
            high_end_share=1.0, rate_sigma=0.0, duration_jitter_sigma=0.0,
        )
    )
    assert set(corpus.tiers) == {"high_end"}
    assert set(corpus.distance_km) == {1.0}
    assert set(corpus.duration_s) == {360.0}


# --- the columnar store --------------------------------------------------------

WIDE_REGIONS = Schema(
    num_activities=3,
    num_regions=300,
    activity_names=("a", "b", "c"),
)
SUBNORMAL = 5e-324
WINDOW = TimeWindow(START + 1, START + 4, "w")

metric_values = st.one_of(
    st.just(0.0),
    st.just(SUBNORMAL),
    st.floats(min_value=0.0, max_value=1e4),
)
device_streams = st.tuples(
    st.sampled_from([0, 7, 127, 128, 255, 256, 299]),
    st.lists(
        st.tuples(
            st.integers(0, 5),  # few distinct event times: many ties
            st.integers(0, 2),
            st.integers(0, 2),
            metric_values,
            metric_values,
        ),
        max_size=12,
    ),
)


def store_of(streams):
    """A corpus holding each (home region, trips) stream as one device."""
    devices = []
    for device_id, (home, trips) in enumerate(streams):
        records = [
            trip(device_id, START + dt, a, home, d, km, s)
            for dt, a, d, km, s in sorted(trips, key=lambda row: row[0])
        ]
        devices.append(DeviceRecords(device_id, "low_end", home, records))
    return corpus_of(SyntheticCorpusConfig(), WIDE_REGIONS, devices)


@settings(max_examples=200)
@given(st.lists(device_streams, min_size=1, max_size=5))
def test_column_subtotals_equal_client_work_bit_for_bit(streams):
    corpus = store_of(streams)
    subtotals = corpus.device_histograms(WINDOW)
    rows, order = per_device(subtotals)
    expected_rows, expected_order = {}, []
    for device in corpus.devices:
        records = in_window(device.records, WINDOW)
        if records:
            block = client_work(records, corpus.schema)
            expected_rows[device.device_id] = rows_bits(block)
            expected_order += cell_order(block)
    assert rows == expected_rows
    assert order == expected_order
    truth = exact_workload(corpus, subtotals)
    assert sparse_of(truth) == naive_workload(corpus, WINDOW)
    counts = corpus.device_counts(subtotals)
    assert np.array_equal(counts, counts_of(corpus.schema, naive_device_counts(corpus, WINDOW)))


def tracked_objects(root) -> int:
    """Collector-tracked objects reachable from ``root``."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def test_the_corpus_holds_no_tracked_object_per_trip():
    small, large = (
        generate_corpus(SyntheticCorpusConfig(num_devices=50, num_weeks=weeks, seed=8))
        for weeks in (1, 6)
    )
    gc.collect()  # untracks tuples of atoms, such as the tiers
    assert len(large.event_time) > 5 * len(small.event_time) > 0
    assert tracked_objects(large) == tracked_objects(small)


def test_records_are_built_only_when_read(corpus_300):
    device = corpus_300.devices[-1]
    assert device.device_id == corpus_300.num_devices - 1
    assert device.records is not corpus_300.devices[-1].records
    assert [r.event_time for r in device.records] == list(
        corpus_300.event_time[slice(*corpus_300.rows(device.device_id))]
    )
