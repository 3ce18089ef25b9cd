"""End-to-end fleet simulation: uploads, releases, policies, evaluation."""

from __future__ import annotations

import gc
import json
import math

import numpy as np
import pytest

from fedsum import server as server_module
from fedsum.dp import (
    MechanismConfig,
    NoisedRelease,
    VARIANT_JOINT,
    VARIANT_SCALED,
    VARIANT_SPLIT,
    VARIANTS,
    prepare_mechanism,
    resolve_mechanism,
)
from fedsum.aggcore import ClientUpdate, Wire, encode_payload
from fedsum.client import (
    CHECKIN_POLICIES,
    TIER_PROFILES,
    DeviceState,
    client_work,
    histogram_to_rows,
    row_keys,
)
from fedsum.metrics import exact_workload
from fedsum.model import IndexedHistogram, TripRecord
from fedsum.outputs import write_run_outputs
from fedsum.query import parse_and_validate
from fedsum.rng import BlockRng
from fedsum.server import (
    FederatedServer,
    ServerConfig,
    SessionClosedError,
    SuppressedRelease,
    TaskConfig,
)
from fedsum.sim import (
    FleetConfig,
    WindowUploads,
    build_device_upload,
    cache_cut,
    run_simulation,
)
from fedsum.synth import SyntheticCorpusConfig, generate_corpus
from fedsum.windows import WindowAlignment

from blocks import block_of, devices_of, histograms_of, rows_of, sparse_of
from helpers import START, active_devices, eager_check_in_allowed, naive_device_counts


def exact_release(corpus, window):
    """The exact workload's nonzero cells, as a release publishes them."""
    workload = exact_workload(corpus, corpus.device_histograms(window))
    return IndexedHistogram.from_dense(corpus.schema, workload)

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


def make_task(
    schema,
    epsilon=math.inf,
    clip=math.inf,
    min_contributions=1,
    mechanism=None,
    query_text=FULL_QUERY,
    alignment=WindowAlignment.WEEK,
    num_windows=1,
):
    if mechanism is None:
        mechanism = resolve_mechanism(
            MechanismConfig(variant=VARIANT_JOINT, epsilon=epsilon, clip=clip),
            [],
            schema,
        )
    return TaskConfig(
        query_id="trips",
        query_text=query_text,
        window_alignment=alignment,
        first_window_start=START,
        num_windows=num_windows,
        grace_period=2 * 86_400,
        min_contributions=min_contributions,
        mechanism=mechanism,
        submitted_by="analyst@example.com",
        approved_by="steward@example.com",
    )


def test_fleet_config_refuses_an_unknown_availability():
    # A misspelt availability would otherwise simulate the tiered fleet.
    with pytest.raises(ValueError, match="availability 'alwayson'"):
        FleetConfig(availability="alwayson")


def test_noiseless_run_reproduces_the_exact_workload(corpus_300, week_one_300):
    result = run_simulation(
        corpus_300,
        make_task(corpus_300.schema),
        FleetConfig(availability="always_on"),
    )
    release = result.releases["trips/2024-W20"]
    assert isinstance(release, NoisedRelease)
    assert release.histogram == exact_release(corpus_300, week_one_300)
    active = active_devices(corpus_300, week_one_300)
    assert len(result.uploaded["2024-W20"]) == len(active)


@pytest.mark.parametrize("variant", VARIANTS)
def test_noiseless_run_releases_what_the_prepared_mechanism_releases(
    corpus_300, week_one_300, variant
):
    # At the median, half the devices are clipped (or scaled and clipped):
    # the simulator's uploads must be bounded exactly as a sweep bounds them.
    prepared = prepare_mechanism(
        MechanismConfig(variant=variant, epsilon=math.inf, quantile=0.5),
        corpus_300.device_histograms(week_one_300),
        corpus_300.schema,
    )
    result = run_simulation(
        corpus_300,
        make_task(corpus_300.schema, mechanism=prepared.resolved),
        FleetConfig(availability="always_on"),
    )
    release = result.releases["trips/2024-W20"]
    assert isinstance(release, NoisedRelease)
    expected = prepared.release("2024-W20", seed=0)
    assert release.histogram.serialize() == expected.histogram.serialize()
    assert release.histogram != exact_release(corpus_300, week_one_300)


def check_in_times(result):
    times: dict[int, list[int]] = {}
    for event in result.server.events:
        if event["event"] == "check_in":
            times.setdefault(event["device_id"], []).append(event["t"])
    return times


def live_trip_records() -> int:
    gc.collect()
    return sum(isinstance(o, TripRecord) for o in gc.get_objects())


def test_no_trip_record_exists_during_the_simulation(monkeypatch):
    # Device caches are row ranges of the corpus columns and evaluation
    # reads the columns too, so the run neither builds nor holds a record.
    before = live_trip_records()  # whatever other tests left behind
    corpus = generate_corpus(
        SyntheticCorpusConfig(num_devices=60, num_regions=4, num_weeks=1, seed=2)
    )

    def no_record(*args, **kwargs):
        raise AssertionError("a TripRecord was built during the simulation")

    during = []
    payload = WindowUploads.payload

    def counting_payload(self, device_id):
        if not during:
            during.append(live_trip_records())
        return payload(self, device_id)

    monkeypatch.setattr(TripRecord, "__init__", no_record)
    monkeypatch.setattr(WindowUploads, "payload", counting_payload)
    result = run_simulation(
        corpus, make_task(corpus.schema), FleetConfig(availability="always_on")
    )
    assert during == [before]
    assert result.uploaded["2024-W20"] and result.eval_rows


def test_the_run_builds_no_device_state(monkeypatch):
    # The exactly-once memo is ``uploaded`` and the server assigns only
    # ended windows, so the loop needs no per-device object.
    corpus = generate_corpus(
        SyntheticCorpusConfig(num_devices=60, num_regions=4, num_weeks=1, seed=2)
    )

    def no_state(*args, **kwargs):
        raise AssertionError("a DeviceState was built during the simulation")

    monkeypatch.setattr(DeviceState, "__init__", no_state)
    result = run_simulation(
        corpus, make_task(corpus.schema), FleetConfig(availability="always_on")
    )
    assert result.uploaded["2024-W20"] and result.eval_rows


def test_a_run_builds_one_sparse_histogram_per_released_window(corpus_300, monkeypatch):
    # Uploads encode blocks, the server sums into a dense array and
    # evaluation scores dense values: only each release's artifact view
    # (``NoisedRelease.histogram``, read by its event) is sparse.
    built = []
    init = IndexedHistogram.__init__

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IndexedHistogram, "__init__", counted_init)
    result = run_simulation(
        corpus_300,
        make_task(corpus_300.schema, epsilon=2.0, clip=1000.0),
        FleetConfig(availability="always_on"),
    )
    released = [r for r in result.releases.values() if isinstance(r, NoisedRelease)]
    assert released and result.eval_rows
    assert len(built) == len(released)


def test_the_summary_counts_the_logged_lines_without_building_an_event(
    corpus_300, tmp_path, monkeypatch
):
    built = []
    event = server_module._event

    def counted_event(row):
        built.append(row)
        return event(row)

    monkeypatch.setattr(server_module, "_event", counted_event)
    task = make_task(corpus_300.schema)
    result = run_simulation(corpus_300, task, FleetConfig(availability="always_on"))
    summary = write_run_outputs(result, corpus_300.schema, str(tmp_path), {}, task.mechanism)
    lines = (tmp_path / "events.jsonl").read_text(encoding="utf-8").splitlines()
    written = json.loads((tmp_path / "run_summary.json").read_text(encoding="utf-8"))
    assert written["events"] == summary["events"] == len(lines) > 0
    assert built == []
    assert result.server.events[0]["event"] == "task_registered" and len(built) == 1


def test_hourly_ticks_wake_each_device_daily_at_its_own_hour(corpus_300):
    result = run_simulation(
        corpus_300,
        make_task(corpus_300.schema),
        FleetConfig(availability="always_on"),
        seed=4,
    )
    start = corpus_300.config.start_time
    assert start % 86_400 == 0
    last = max(e["t"] for e in result.server.events if e["event"] == "check_in")
    hours = BlockRng(4, "fleet", "wake-hour").uniforms(corpus_300.num_devices) * 24
    times = check_in_times(result)
    assert set(times) == {d.device_id for d in corpus_300.devices}
    for device_id, seen in times.items():
        hour = int(hours[device_id])
        expected = range(start + hour * 3600, last + 1, 86_400)
        assert seen == list(expected)[: len(seen)]
        assert len(expected) - len(seen) <= 1


def test_daily_ticks_upload_from_every_active_device(corpus_300, week_one_300):
    result = run_simulation(
        corpus_300,
        make_task(corpus_300.schema),
        FleetConfig(availability="always_on", tick_seconds=86_400),
    )
    active = active_devices(corpus_300, week_one_300)
    assert result.uploaded["2024-W20"] == active
    release = result.releases["trips/2024-W20"]
    assert release.histogram == exact_release(corpus_300, week_one_300)
    # Every tick wakes every device: none waits for an hour the tick skips.
    start = corpus_300.config.start_time
    for seen in check_in_times(result).values():
        assert seen[0] - start <= 86_400
        assert all(b - a == 86_400 for a, b in zip(seen, seen[1:]))


def test_uploads_nest_inside_downloads_and_the_fleet(corpus_300):
    result = run_simulation(
        corpus_300,
        make_task(corpus_300.schema),
        FleetConfig(availability="tiered"),
    )
    fleet = set(range(corpus_300.num_devices))
    downloaded = {window_id: set() for window_id in result.uploaded}
    for event in result.server.events:
        if event["event"] == "assignment":
            downloaded[event["window_id"]].add(event["device_id"])
    for window_id in result.uploaded:
        assert result.uploaded[window_id] <= downloaded[window_id] <= fleet
    assert result.fleet_size == corpus_300.num_devices


def test_stricter_policies_upload_from_fewer_devices():
    corpus = generate_corpus(
        SyntheticCorpusConfig(num_devices=120, num_regions=5, num_weeks=1, seed=21)
    )
    task = make_task(corpus.schema)
    relaxed = run_simulation(
        corpus, task, FleetConfig(policy="idle", availability="tiered"), seed=5
    )
    strict = run_simulation(
        corpus,
        task,
        FleetConfig(policy="idle_wifi_charging", availability="tiered"),
        seed=5,
    )
    for window_id in strict.uploaded:
        assert strict.uploaded[window_id] <= relaxed.uploaded[window_id]
    assert strict.reach_rows[0]["h"] <= relaxed.reach_rows[0]["h"]


def test_eval_rows_cover_released_windows(corpus_300):
    result = run_simulation(
        corpus_300,
        make_task(corpus_300.schema),
        FleetConfig(availability="always_on"),
    )
    metrics = [row["metric"] for row in result.eval_rows]
    assert metrics == ["num_trips", "distance_km", "duration_s"]
    for row in result.eval_rows:
        assert row["window_id"] == "2024-W20"
        assert row["weighted_relative_error"] == 0.0  # noiseless, unclipped
        assert row["per_user_mean_error"] == 0.0


def test_reach_rows_stratify_the_fleet(corpus_300):
    result = run_simulation(
        corpus_300,
        make_task(corpus_300.schema),
        FleetConfig(availability="always_on", policy="idle"),
    )
    strata = [row["stratum"] for row in result.reach_rows]
    assert strata == ["all", "high_end", "low_end"]
    for row in result.reach_rows:
        assert row["policy"] == "idle"
        assert 0.0 <= row["h"] <= 1.0
    all_row = result.reach_rows[0]
    assert all_row["h"] == len(result.uploaded["2024-W20"]) / result.fleet_size


TRIPS_AND_DURATION_QUERY = """\
SELECT activity, region, direction, privacy_time_unit,
       SUM(trip_duration) AS sec, SUM(trip_count) AS n
FROM DeviceDataStream
GROUP BY activity, region, direction, privacy_time_unit

SELECT activity, region, direction, privacy_time_unit,
       SUM(n) AS sn, SUM(sec) AS ssec
FROM UserResults
GROUP BY activity, region, direction, privacy_time_unit
"""


def row_based_per_user_mean_error(schema, truth, release, counts, window_id, spec):
    """The per-user error as the simulator once computed it, on upload rows.

    Both histograms, as the rows of one block each, go through the upload
    codec, each truth row's device count is looked up by splitting its
    key, and the error averages over the row's value columns.
    """
    truth_rows = dict(histogram_to_rows(block_of(schema, [truth]), window_id, spec))
    release_rows = dict(histogram_to_rows(block_of(schema, [release]), window_id, spec))
    positions = {c: i for i, c in enumerate(spec.client.group_by)}
    terms = []
    for key, reference in truth_rows.items():
        parts = key.split("\x1f")
        a, r, d = (int(parts[positions[c]]) for c in ("activity", "region", "direction"))
        count = counts.get((a, r, d), 0)
        if count <= 0:
            continue
        got = release_rows.get(key, (0.0,) * len(reference))
        errors = [abs(t - e) / abs(t) for t, e in zip(reference, got) if t != 0.0]
        if errors:
            terms.append(math.fsum(errors) / len(errors) / count)
    return math.fsum(terms) / len(terms) if terms else math.nan


@pytest.mark.parametrize("variant", VARIANTS)
def test_uploads_are_the_rows_of_the_bounded_window_block(
    corpus_300, week_one_300, variant
):
    """The simulator and the sweep bound every device with one transform."""
    schema = corpus_300.schema
    block = corpus_300.device_histograms(week_one_300)
    prepared = prepare_mechanism(
        MechanismConfig(variant=variant, epsilon=math.inf, quantile=0.5),
        block,
        schema,
    )
    bounded = prepared.resolved.transform_devices(block, schema)
    raw = histograms_of(block, schema)
    uploads = []
    for device, expected in zip(devices_of(block), histograms_of(bounded, schema)):
        records = [
            r
            for r in corpus_300.devices[device].records
            if week_one_300.start <= r.event_time < week_one_300.end
        ]
        upload_block = build_device_upload(records, prepared.resolved, schema)
        rows = rows_of(bounded, bounded.device == device)
        for column in ("activity", "region", "direction", "sums"):
            assert getattr(upload_block, column).tolist() == getattr(rows, column).tolist()
        (upload,) = histograms_of(upload_block, schema)
        assert upload.serialize() == expected.serialize(), device
        uploads.append(upload)
    assert len(uploads) == len(active_devices(corpus_300, week_one_300))
    assert sum(u != h for u, h in zip(uploads, raw)) > len(uploads) // 3  # bounded
    # The pre-noise sum is one math.fsum per cell of those uploads.
    cells: dict[tuple[int, int, int, int], list[float]] = {}
    for upload in uploads:
        for index, value in upload.items():
            cells.setdefault(index, []).append(value)
    expected = {
        index: total for index, values in sorted(cells.items())
        if (total := math.fsum(values))
    }
    prenoise = IndexedHistogram.from_dense(schema, prepared.prenoise)
    assert [(i, v.hex()) for i, v in prenoise.items()] == [
        (i, v.hex()) for i, v in expected.items()
    ]


def hex_rows(rows):
    return [(key, [value.hex() for value in values]) for key, values in rows]


# (clock after the window's end, cache TTL): the cache holds the whole
# window, the window's last three days, or none of it.
CACHES = {
    "full": (86_400, 28 * 86_400),
    "ttl_truncated": (86_400, 4 * 86_400),
    "expired": (2 * 86_400, 86_400),
}


@pytest.mark.parametrize("cache", sorted(CACHES))
@pytest.mark.parametrize("variant", VARIANTS)
def test_window_block_rows_are_each_devices_own_upload(
    corpus_300, week_one_300, variant, cache
):
    """Every device's payload cut from the window block is the bytes of the
    rows it would encode from the trips its cache holds, bit for bit."""
    schema, window = corpus_300.schema, week_one_300
    resolved = resolve_mechanism(
        MechanismConfig(variant=variant, epsilon=math.inf, quantile=0.5),
        corpus_300.device_histograms(window),
        schema,
    )
    spec = parse_and_validate(FULL_QUERY)
    after, ttl = CACHES[cache]
    now = window.end + after
    block = WindowUploads(corpus_300, window, cache_cut(window, now, ttl), resolved, spec)
    keys = row_keys(spec, schema, window.window_id)
    wire = Wire(len(keys), len(spec.metrics))
    holders = bounded = 0
    for dev in corpus_300.devices:
        state = DeviceState(
            dev.device_id, TIER_PROFILES[dev.tier], corpus_300, window.start, last_seen_now=window.start
        )
        state.advance_watermarks(now, WindowAlignment.WEEK, ttl)
        trips = state.visible_records(window)
        assert block.holders[dev.device_id] == bool(len(trips))
        if not len(trips):
            continue
        holders += 1
        upload = build_device_upload(trips, resolved, schema)
        expected = histogram_to_rows(upload, window.window_id, spec)
        assert block.payload(dev.device_id) == encode_payload(expected, keys, wire), dev.device_id
        raw = histogram_to_rows(client_work(trips, schema), window.window_id, spec)
        bounded += hex_rows(raw) != hex_rows(expected)
    active = len(active_devices(corpus_300, window))
    if cache == "full":
        assert holders == active
    elif cache == "ttl_truncated":
        assert 0 < holders < active
    else:
        assert holders == 0
    assert bounded > 0 or holders == 0  # the transform binds


@pytest.mark.parametrize(
    "query",
    [FULL_QUERY, TRIPS_AND_DURATION_QUERY],
    ids=["three_metrics", "trips_and_duration"],
)
def test_per_user_error_equals_the_row_based_formula_bit_for_bit(
    corpus_300, week_one_300, query
):
    mechanism = resolve_mechanism(
        MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=500.0, tau=20.0),
        [],
        corpus_300.schema,
    )
    task = make_task(corpus_300.schema, mechanism=mechanism, query_text=query)
    result = run_simulation(
        corpus_300, task, FleetConfig(availability="always_on"), seed=3
    )
    release = result.releases["trips/2024-W20"]
    assert release.suppressed_partitions > 0  # some partitions read as 0
    expected = row_based_per_user_mean_error(
        corpus_300.schema,
        sparse_of(exact_workload(corpus_300, corpus_300.device_histograms(week_one_300))),
        release.histogram,
        naive_device_counts(corpus_300, week_one_300),
        "2024-W20",
        parse_and_validate(query),
    )
    assert math.isfinite(expected) and expected > 0.0
    for row in result.eval_rows:
        assert row["per_user_mean_error"].hex() == expected.hex()


def test_noise_seed_changes_noise_but_not_participation(corpus_300):
    task = make_task(corpus_300.schema, epsilon=2.0, clip=1000.0)
    fleet = FleetConfig(availability="always_on")
    first = run_simulation(corpus_300, task, fleet, seed=3, noise_seed=1)
    second = run_simulation(corpus_300, task, fleet, seed=3, noise_seed=2)
    replay = run_simulation(corpus_300, task, fleet, seed=3, noise_seed=1)
    assert first.uploaded == second.uploaded
    assert first.releases["trips/2024-W20"] != second.releases["trips/2024-W20"]
    assert first.releases["trips/2024-W20"] == replay.releases["trips/2024-W20"]


def test_insufficient_fleets_release_a_marker_and_skip_eval(corpus_300):
    result = run_simulation(
        corpus_300,
        make_task(corpus_300.schema, min_contributions=10_000),
        FleetConfig(availability="always_on"),
    )
    assert isinstance(result.releases["trips/2024-W20"], SuppressedRelease)
    assert result.eval_rows == []
    assert len(result.reach_rows) == 3


# --- equivalence with the per-tick poll ----------------------------------------


def test_window_payloads_drop_zero_rows_and_write_negative_zero_as_zero(
    corpus_300, week_one_300, monkeypatch
):
    """Bounded rows of only zeros are not uploaded, and a -0.0 among a
    row's values goes out as +0.0, as ``histogram_to_rows`` writes them."""
    schema, window = corpus_300.schema, week_one_300
    resolved = make_task(schema).mechanism
    transform = type(resolved).transform_devices

    def signed(self, raw, schema):
        block = transform(self, raw, schema)
        sums = block.sums.copy()
        sums[0::3] = -0.0  # all-zero rows
        sums[1::3, 1] = -0.0  # one negative zero in a nonzero row
        return block._replace(sums=sums)

    monkeypatch.setattr(type(resolved), "transform_devices", signed)
    spec = parse_and_validate(FULL_QUERY)
    block = WindowUploads(corpus_300, window, window.start, resolved, spec)
    keys = row_keys(spec, schema, window.window_id)
    wire = Wire(len(keys), len(spec.metrics))
    bounded = signed(resolved, corpus_300.device_histograms(window), schema)
    records = 0
    for device in devices_of(bounded):
        rows = histogram_to_rows(rows_of(bounded, bounded.device == device), window.window_id, spec)
        assert block.holders[device] == bool(rows)
        if rows:
            assert block.payload(device) == encode_payload(rows, keys, wire)
            records += len(rows)
    assert 0 < records < len(bounded.device)


@pytest.mark.parametrize("variant", VARIANTS)
def test_rows_through_the_adapter_and_window_bytes_ingest_alike(
    corpus_300, week_one_300, variant
):
    """The same devices replayed into two servers, one through each device's
    ``histogram_to_rows`` pairs and one through the window block's bytes:
    the same payload digests, checkpoint and roll-up state digests, and
    releases."""
    schema, window = corpus_300.schema, week_one_300
    resolved = resolve_mechanism(
        MechanismConfig(variant=variant, epsilon=1.0, quantile=0.9),
        corpus_300.device_histograms(window),
        schema,
    )
    task = make_task(schema, mechanism=resolved)
    spec = parse_and_validate(task.query_text)
    config = ServerConfig(num_shards=2, checkpoint_batch=7, rollup_interval=3600)
    by_rows, by_bytes = (FederatedServer(schema, config, seed=4) for _ in range(2))
    for server in (by_rows, by_bytes):
        server.register_task(task, now=START)
    block = WindowUploads(corpus_300, window, window.start, resolved, spec)
    uploads = 0
    for dev in corpus_300.devices:
        trips = [r for r in dev.records if window.start <= r.event_time < window.end]
        if not block.holders[dev.device_id]:
            assert not trips
            continue
        now = window.end + 60 * dev.device_id
        upload = build_device_upload(trips, resolved, schema)
        rows = histogram_to_rows(upload, window.window_id, spec)
        for server, payload in ((by_rows, tuple(rows)), (by_bytes, block.payload(dev.device_id))):
            server.maintenance(now)
            (a,) = server.check_in(dev.device_id, now)
            server.ingest_upload(ClientUpdate(a.query_id, a.window_id, a.token, payload), now)
        uploads += 1
    for server in (by_rows, by_bytes):
        server.maintenance(window.end + task.grace_period + 1)
    digests = [
        [
            (e["event"], e.get("payload_digest"), e.get("state_digest"), e.get("histogram_digest"))
            for e in server.events
            if e["event"] in ("upload_accepted", "checkpoint", "rollup", "release")
        ]
        for server in (by_rows, by_bytes)
    ]
    assert digests[0] == digests[1]
    kinds = [kind for kind, *_ in digests[0]]
    assert kinds.count("upload_accepted") == uploads > 100
    assert {"checkpoint", "rollup", "release"} <= set(kinds)
    (release,) = by_rows.releases.values()
    (same,) = by_bytes.releases.values()
    assert release.histogram.serialize() == same.histogram.serialize()
    assert np.array_equal(release.values, same.values)


def polled_simulation(corpus, task, fleet, seed):
    """The simulator's device loop as a per-tick poll of the whole fleet.

    Every tick compares every device's next wake time with the clock, in
    device-id order, and every waking device advances its clock.  Its
    conditions come from ``eager_check_in_allowed`` on its uniforms of
    the day's fleet streams.  Each device caches its records in a list,
    expires them by a scan, and finds a window's records by a scan of the
    cache.  Returns the server.
    """
    server = FederatedServer(corpus.schema, None, seed=seed)
    registered = server.register_task(task, now=corpus.config.start_time)
    windows, spec = registered.windows, registered.spec
    size = corpus.num_devices
    hours = BlockRng(seed, "fleet", "wake-hour").uniforms(size) * 24
    streams: dict[tuple, np.ndarray] = {}

    def uniform(device_id, day, *parts):
        """The device's uniform of the fleet stream ``parts`` on ``day``."""
        if (day, *parts) not in streams:
            streams[day, *parts] = BlockRng(seed, "fleet", *parts).uniforms(size, day)
        return streams[day, *parts][device_id]

    start = corpus.config.start_time
    start_day = start - start % 86_400
    states, caches, feed, next_wake = {}, {}, {}, {}
    sources = {}
    for dev in corpus.devices:
        state = DeviceState(
            device_id=dev.device_id, profile=TIER_PROFILES[dev.tier], corpus=corpus
        )
        state.low_watermark = start
        state.last_seen_now = start
        states[dev.device_id] = state
        caches[dev.device_id] = []
        feed[dev.device_id] = 0
        sources[dev.device_id] = dev.records
        next_wake[dev.device_id] = start_day + int(hours[dev.device_id]) * 3600
    horizon_end = windows[-1].end + task.grace_period + 2 * fleet.tick_seconds
    for now in range(start, horizon_end + 1, fleet.tick_seconds):
        server.maintenance(now)
        day = now // 86_400
        for device_id in sorted(states):
            wake = next_wake[device_id]
            if now < wake:
                continue
            next_wake[device_id] = wake + ((now - wake) // 86_400 + 1) * 86_400
            state = states[device_id]
            source, i = sources[device_id], feed[device_id]
            while i < len(source) and source[i].event_time <= now:
                caches[device_id].append(source[i])
                i += 1
            feed[device_id] = i
            caches[device_id] = [
                r for r in caches[device_id] if now - r.event_time <= fleet.cache_ttl
            ]
            state.advance_watermarks(now, task.window_alignment, fleet.cache_ttl)
            conditions = {
                c: uniform(device_id, day, c)
                for c in ("connected", "battery", "idle", "unmetered", "charging")
            }
            if not eager_check_in_allowed(conditions, state.profile, fleet.policy):
                continue
            assignments = server.check_in(device_id, now)
            eligible = {w.window_id for w in state.eligible_windows(task.query_id, windows)}
            for assignment in assignments:
                if assignment.window_id not in eligible:
                    continue
                window = next(w for w in windows if w.window_id == assignment.window_id)
                records = [
                    r for r in caches[device_id] if window.start <= r.event_time < window.end
                ]
                if not records:
                    continue
                ok = uniform(device_id, day, "upload-ok", assignment.window_id)
                if not ok < state.profile.p_upload_ok:
                    continue
                block = build_device_upload(records, task.mechanism, corpus.schema)
                update = ClientUpdate(
                    query_id=task.query_id,
                    window_id=window.window_id,
                    token=assignment.token,
                    payload=tuple(histogram_to_rows(block, window.window_id, spec)),
                )
                try:
                    server.ingest_upload(update, now)
                except SessionClosedError:
                    continue
                state.mark_contributed(task.query_id, window.window_id)
    server.maintenance(horizon_end + fleet.tick_seconds)
    return server


def assert_run_matches_the_poll(corpus, task, fleet):
    """Returns the run's result."""
    result = run_simulation(corpus, task, fleet, seed=6)
    reference = polled_simulation(corpus, task, fleet, seed=6)
    lines = list(result.server.event_log_lines())
    assert sum('"upload_accepted"' in line for line in lines) > 0
    assert lines == list(reference.event_log_lines())
    assert result.releases.keys() == reference.releases.keys()
    for key, release in reference.releases.items():
        assert isinstance(release, NoisedRelease)
        got = result.releases[key].histogram.serialize()
        assert got == release.histogram.serialize()
    return result


@pytest.mark.parametrize("policy", sorted(CHECKIN_POLICIES))
@pytest.mark.parametrize("tick_seconds", [900, 3600, 5 * 3600, 2 * 86_400])
def test_wake_calendar_and_lazy_draws_match_the_per_tick_poll(
    corpus_300, tick_seconds, policy
):
    task = make_task(corpus_300.schema, epsilon=2.0, clip=1000.0)
    fleet = FleetConfig(
        policy=policy, tick_seconds=tick_seconds, cache_ttl=5 * 86_400
    )
    assert_run_matches_the_poll(corpus_300, task, fleet)


@pytest.mark.parametrize("variant", [VARIANT_SCALED, VARIANT_SPLIT])
def test_scaled_and_split_uploads_match_the_per_tick_poll(corpus_300, week_one_300, variant):
    # Calibrated at the median, so the transform binds for half the fleet.
    mechanism = resolve_mechanism(
        MechanismConfig(variant=variant, epsilon=2.0, quantile=0.5),
        corpus_300.device_histograms(week_one_300),
        corpus_300.schema,
    )
    task = make_task(corpus_300.schema, mechanism=mechanism)
    fleet = FleetConfig(policy="idle", tick_seconds=3600, cache_ttl=5 * 86_400)
    assert_run_matches_the_poll(corpus_300, task, fleet)


def most_assignments_at_one_check_in(result):
    counts: dict[tuple[int, int], int] = {}
    for event in result.server.events:
        if event["event"] == "assignment":
            key = (event["t"], event["device_id"])
            counts[key] = counts.get(key, 0) + 1
    return max(counts.values())


# (alignment, windows, corpus weeks, sessions open at once): daily windows
# with the two-day grace keep up to three sessions open at one tick, so the
# memo is read for several windows per check-in; two weekly windows follow
# each other.
SEVERAL_WINDOWS = {
    "daily": (WindowAlignment.DAY, 7, 1, 3),
    "two_weeks": (WindowAlignment.WEEK, 2, 2, 1),
}


@pytest.mark.parametrize("case", sorted(SEVERAL_WINDOWS))
def test_several_windows_match_the_per_tick_poll(case):
    alignment, num_windows, num_weeks, open_at_once = SEVERAL_WINDOWS[case]
    corpus = generate_corpus(
        SyntheticCorpusConfig(num_devices=120, num_regions=5, num_weeks=num_weeks, seed=21)
    )
    task = make_task(
        corpus.schema, epsilon=2.0, clip=1000.0, alignment=alignment, num_windows=num_windows
    )
    fleet = FleetConfig(policy="idle", tick_seconds=3600, cache_ttl=5 * 86_400)
    result = assert_run_matches_the_poll(corpus, task, fleet)
    assert len(result.releases) == num_windows
    assert all(result.uploaded.values())
    assert most_assignments_at_one_check_in(result) == open_at_once
