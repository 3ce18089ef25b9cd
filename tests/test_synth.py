"""Synthetic fleet generator: determinism, realism, and window slicing."""

from __future__ import annotations

import hashlib
import math
import statistics
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsum.model import DIRECTIONS
from fedsum.client import client_work, records_in_window
from fedsum.synth import (
    ActivitySpec,
    DEFAULT_ACTIVITIES,
    SyntheticCorpusConfig,
    choice_cdf,
    generate_corpus,
)
from fedsum.windows import WindowAlignment, round_down_window

from helpers import START, WEEK

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
            record.validate(corpus_300.schema)
            assert config.start_time <= record.event_time < config.end_time
            assert record.region == device.home_region
            assert record.device_id == device.device_id
            assert record.distance_km > 0
            assert record.duration_s > 0
        times = [r.event_time for r in device.records]
        assert times == sorted(times)


def test_config_bounds():
    with pytest.raises(ValueError):
        SyntheticCorpusConfig(num_devices=0)
    with pytest.raises(ValueError):
        SyntheticCorpusConfig(direction_mix=(0.5, 0.5, 0.5))
    config = SyntheticCorpusConfig(num_weeks=3)
    assert config.end_time == config.start_time + 3 * WEEK


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
    window = round_down_window(START, WindowAlignment.WEEK)
    for device in corpus_300.devices:
        sliced = records_in_window(device.records, window)
        assert all(window.start <= r.event_time < window.end for r in sliced)
    next_window = round_down_window(START + WEEK, WindowAlignment.WEEK)
    total = sum(
        len(records_in_window(d.records, w))
        for d in corpus_300.devices
        for w in (window, next_window)
    )
    assert total == sum(len(d.records) for d in corpus_300.devices)


def test_histograms_cover_exactly_the_active_devices(corpus_300, week_one_300):
    histograms = corpus_300.device_histograms(week_one_300)
    active = [
        d
        for d in corpus_300.devices
        if records_in_window(d.records, week_one_300)
    ]
    assert len(histograms) == len(active)
    first = client_work(
        records_in_window(active[0].records, week_one_300), corpus_300.schema
    )
    assert histograms[0] == first


def test_device_counts_match_a_brute_force_scan(corpus_300, week_one_300):
    expected: dict[tuple[int, int, int], int] = {}
    for device in corpus_300.devices:
        seen = {
            (r.activity, r.region, r.direction)
            for r in device.records
            if week_one_300.contains(r.event_time)
        }
        for key in seen:
            expected[key] = expected.get(key, 0) + 1
    assert corpus_300.device_counts(week_one_300) == expected


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
    for _ in range(50):
        assert bisect_right(cdf, looked_up.random()) == chosen.choice(len(p), p=p)
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
            "d0179467e9785e3a5a4ad38f20af7d13",
        ),
        (
            SyntheticCorpusConfig(
                num_devices=200,
                seed=6,
                num_regions=7,
                direction_mix=(0.25, 0.0, 0.75),
            ),
            "57f2c5d1ad97db9e52cfc3e1f48b99e1",
        ),
    ],
    ids=["default", "custom_mix_and_regions"],
)
def test_corpus_is_pinned_bit_for_bit(config, digest):
    # Recorded from the per-trip ``Generator.choice`` generator; any
    # change to the draw order in the module docstring moves them.
    assert corpus_digest(generate_corpus(config)) == digest
