"""The benchmark's three workloads: inputs, the timed phase, output checks.

Each workload has four steps.  ``setup(seed)`` builds the inputs from the
seed; it is timed as ``setup_s``.  ``prepare(inputs)`` runs once after the
set-up timing and before the first timed phase, while no program state
is alive: it works out what the checks compare against.
``run(inputs, seed, workdir)`` is the timed phase (``wall_s``).
``check(inputs, raw)`` runs after the clock stops: it verifies the
program's outputs and gathers the counts the result reports.  Calls into traced functions go through their module
(``synth.generate_corpus``, not a name imported here), so a tracer that
patches the module attributes sees the benchmark's own calls too.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import math
import os
import shutil
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import Any, Callable

from fedsum import aggcore, client, config, dp, outputs, query, rng, server, sim, sweep, synth
from fedsum.windows import WindowAlignment, round_down_window, window_after
from layers import percentile

NUM_DEVICES = 10_000
HOUR = 3600
DAY = 86_400
EPSILON_GRID = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
SWEEP_SEEDS = tuple(range(10))
SUBMITTED_BY = "analyst@example.org"
APPROVED_BY = "reviewer@example.org"
# Payloads of the single-core ingest loop of acceptance gate AC13.
SINGLE_SHARD_UPDATES = 2_000


@dataclass
class Outcome:
    """What one timed iteration produced, as the checks saw it."""

    attempted: int
    failed: int
    problems: list[str]
    release_digest: str
    info: dict[str, float] = field(default_factory=dict)
    servers: list[Any] = field(default_factory=list)
    bytes_written: int = 0


def _nothing_to_prepare(inputs: Any) -> None:
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, int], Any]
    run: Callable[[Any, int, Path], Any]
    check: Callable[[Any, Any], Outcome]
    prepare: Callable[[Any], None] = _nothing_to_prepare


def corpus_config(seed: int, num_devices: int) -> synth.SyntheticCorpusConfig:
    """The pinned corpus: 50 regions and 2 weeks, seeded by the benchmark."""
    return synth.SyntheticCorpusConfig(seed=seed, num_devices=num_devices)


def _digest(parts: list[bytes]) -> str:
    h = blake2b(digest_size=16)
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _release_digest(window_ids: list[str], releases: dict, query_id: str) -> str:
    parts = []
    for window_id in window_ids:
        release = releases.get(f"{query_id}/{window_id}")
        parts.append(window_id.encode())
        if isinstance(release, dp.NoisedRelease):
            parts.append(release.histogram.serialize())
        else:
            parts.append(repr(release).encode())
    return _digest(parts)


def _event_counts(srv: Any) -> Counter:
    return Counter(event["event"] for event in srv.events)


# --------------------------------------------------------------------------
# run_weekly: the steps of `fedsum run` on the paper's headline config


def corpus_setup(seed: int, num_devices: int = NUM_DEVICES) -> Any:
    return synth.generate_corpus(corpus_config(seed, num_devices))


def weekly_run(corpus: Any, seed: int, workdir: Path) -> Any:
    experiment = config.ExperimentConfig(
        seed=seed,
        out_dir=str(workdir / "run"),
        corpus=corpus.config,
        fleet=sim.FleetConfig(policy="idle", tick_seconds=HOUR, availability="tiered"),
        task=config.TaskSection(alignment=WindowAlignment.WEEK, num_windows=2),
        mechanism=dp.MechanismConfig(variant=dp.VARIANT_SCALED, epsilon=2.0),
    )
    first = round_down_window(corpus.config.start_time, experiment.task.alignment)
    resolved = dp.resolve_mechanism(
        experiment.mechanism, corpus.device_histograms(first), corpus.schema
    )
    task = server.TaskConfig(
        query_id=experiment.task.query_id,
        query_text=experiment.task.query_text,
        window_alignment=experiment.task.alignment,
        first_window_start=first.start,
        num_windows=experiment.task.num_windows,
        grace_period=experiment.task.grace_period,
        min_contributions=experiment.task.min_contributions,
        mechanism=resolved,
        submitted_by=experiment.task.submitted_by,
        approved_by=experiment.task.approved_by,
    )
    result = sim.run_simulation(corpus, task, experiment.fleet, seed=experiment.seed)
    os.makedirs(experiment.out_dir)
    outputs.write_run_outputs(
        result, corpus.schema, experiment.out_dir, experiment.snapshot(), resolved
    )
    return result, Path(experiment.out_dir)


def weekly_check(corpus: Any, raw: Any) -> Outcome:
    result, out_dir = raw
    problems: list[str] = []
    window_ids = [w.window_id for w in result.task_windows]
    for window_id in window_ids:
        release = result.releases.get(f"{result.query_id}/{window_id}")
        if not isinstance(release, dp.NoisedRelease):
            problems.append(f"window {window_id}: {type(release).__name__}, not a release")
    accepted: dict[str, list[int]] = {w: [] for w in window_ids}
    rejected = 0
    for event in result.server.events:
        if event["event"] == "upload_accepted":
            accepted.setdefault(event["window_id"], []).append(event["device_id"])
        elif event["event"] == "upload_rejected":
            rejected += 1
    for window_id, devices in accepted.items():
        if len(devices) != len(set(devices)) or set(devices) != result.uploaded.get(window_id):
            problems.append(f"window {window_id}: upload_accepted events differ from uploaded set")
    wre = [row["weighted_relative_error"] for row in result.eval_rows]
    if not wre or not all(math.isfinite(v) for v in wre):
        problems.append("run_weekly: weighted relative error missing or not finite")
    reach = [row["h"] for row in result.reach_rows if row["stratum"] == "all"]
    uploads = sum(len(devices) for devices in accepted.values())
    bytes_written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    shutil.rmtree(out_dir)
    return Outcome(
        attempted=uploads + rejected,
        failed=rejected,
        problems=problems,
        release_digest=_release_digest(window_ids, result.releases, result.query_id),
        info={
            "uploads": uploads,
            "wre_mean": math.fsum(wre) / len(wre) if wre else math.nan,
            "reach_share": math.fsum(reach) / len(reach) if reach else math.nan,
        },
        servers=[result.server],
        bytes_written=bytes_written,
    )


# --------------------------------------------------------------------------
# sweep_grid: the AC05 grid of variants x budgets x noise seeds on week 1


def sweep_run(corpus: Any, seed: int, workdir: Path) -> Any:
    window = round_down_window(corpus.config.start_time, WindowAlignment.WEEK)
    grid = sweep.SweepConfig(epsilons=EPSILON_GRID, seeds=SWEEP_SEEDS)
    return sweep.run_epsilon_sweep(corpus, window, grid)


def sweep_check(corpus: Any, rows: Any) -> Outcome:
    problems: list[str] = []
    expected = [(v, e, s) for v in dp.VARIANTS for e in EPSILON_GRID for s in SWEEP_SEEDS]
    got = [(row.variant, row.epsilon, row.seed) for row in rows]
    if got != expected:
        problems.append(f"sweep_grid: {len(got)} rows not in grid order of {len(expected)}")
    errors = [v for row in rows for _, v in sorted(row.errors.items())]
    if len(errors) != len(rows) * len(corpus.schema.metric_names):
        problems.append("sweep_grid: a row lacks a metric")
    if not all(math.isfinite(v) for v in errors):
        problems.append("sweep_grid: a weighted relative error is not finite")
    # The sweep returns its releases only as errors: the digest covers
    # every row's errors and suppressed-cell count at full precision.
    digest = _digest(
        [
            repr((row.variant, row.epsilon, row.seed, sorted(row.errors.items()),
                  row.suppressed_cells)).encode()
            for row in rows
        ]
    )
    return Outcome(
        attempted=len(rows),
        failed=0,
        problems=problems,
        release_digest=digest,
        info={"wre_mean": math.fsum(errors) / len(errors) if errors else math.nan},
    )


# --------------------------------------------------------------------------
# ingest_replay: one caller replays an always-on fleet's daily uploads


@dataclass
class IngestInputs:
    corpus: Any
    task: Any
    windows: list
    # (due time, device id, window id, rows), in time then device order
    uploads: list[tuple[int, int, str, tuple]]
    horizon_end: int
    expected: dict | None = None  # filled by ingest_prepare


def ingest_setup(seed: int, num_devices: int = NUM_DEVICES) -> IngestInputs:
    corpus = synth.generate_corpus(corpus_config(seed, num_devices))
    start = corpus.config.start_time
    mechanism = dp.resolve_mechanism(
        dp.MechanismConfig(variant=dp.VARIANT_JOINT, epsilon=math.inf, clip=math.inf),
        [],
        corpus.schema,
    )
    num_days = corpus.config.num_weeks * 7
    task = server.TaskConfig(
        query_id="trips-daily",
        query_text=config.DEFAULT_QUERY_TEXT,
        window_alignment=WindowAlignment.DAY,
        first_window_start=start,
        num_windows=num_days,
        grace_period=DAY,
        min_contributions=1,
        mechanism=mechanism,
        submitted_by=SUBMITTED_BY,
        approved_by=APPROVED_BY,
    )
    spec = query.parse_and_validate(task.query_text)
    windows = [round_down_window(start, WindowAlignment.DAY)]
    while len(windows) < num_days:
        windows.append(window_after(windows[-1], WindowAlignment.DAY))
    # An always-on device wakes once a day at its own hour (drawn as the
    # simulator draws it) and uploads the day that just ended.
    fleet_rng = rng.KeyedRng(seed, "fleet")
    uploads = []
    for device in corpus.devices:
        wake_hour = fleet_rng.randrange(24, "wake-hour", device.device_id)
        by_day: dict[int, list] = {}
        for record in device.records:
            by_day.setdefault((record.event_time - start) // DAY, []).append(record)
        for day, records in by_day.items():
            window = windows[day]
            histogram = sim.build_device_upload(records, mechanism, corpus.schema)
            rows = tuple(client.histogram_to_rows(histogram, window.window_id, spec))
            uploads.append((window.end + wake_hour * HOUR, device.device_id, window.window_id, rows))
    uploads.sort(key=lambda upload: (upload[0], upload[1]))
    horizon_end = windows[-1].end + task.grace_period + 2 * HOUR
    return IngestInputs(corpus, task, windows, uploads, horizon_end)


REJECTIONS = (
    server.InvalidTokenError,
    server.TokenReplayError,
    server.SessionClosedError,
    aggcore.MalformedUpdateError,
)


def ingest_run(inputs: IngestInputs, seed: int, workdir: Path) -> Any:
    srv = server.FederatedServer(inputs.corpus.schema, seed=seed)
    query_id = inputs.task.query_id
    srv.register_task(inputs.task, now=inputs.corpus.config.start_time)
    update = aggcore.ClientUpdate
    clock = time.perf_counter_ns
    uploads = inputs.uploads
    latencies = array("q", bytes(8 * len(uploads)))  # ns, one per upload
    failed = 0
    i = 0
    for now in range(inputs.corpus.config.start_time, inputs.horizon_end + 1, HOUR):
        srv.maintenance(now)
        while i < len(uploads) and uploads[i][0] <= now:
            _, device_id, window_id, rows = uploads[i]
            i += 1
            started = clock()
            try:
                token = next(
                    (a.token for a in srv.check_in(device_id, now) if a.window_id == window_id),
                    None,
                )
                if token is None:
                    failed += 1
                else:
                    srv.ingest_upload(update(query_id, window_id, token, rows), now)
            except REJECTIONS:
                failed += 1
            latencies[i - 1] = clock() - started
    srv.maintenance(inputs.horizon_end + HOUR)
    return srv, latencies, failed


def expected_releases(inputs: IngestInputs) -> dict[str, dict[tuple, float]]:
    """Exact grouped sums of the payloads sent: ``math.fsum`` per cell.

    One window's terms are held at a time, so the check's own memory
    stays small next to the program's.
    """
    spec = query.parse_and_validate(inputs.task.query_text)
    position = {column: i for i, column in enumerate(spec.client.group_by)}
    metrics = [client.METRIC_BY_COLUMN[c] for c in spec.metric_columns]
    by_window: dict[str, list[tuple]] = {}
    for _, _, window_id, rows in inputs.uploads:
        by_window.setdefault(window_id, []).append(rows)
    expected = {}
    for window_id, payloads in by_window.items():
        cells: dict[tuple, list[float]] = {}
        for rows in payloads:
            for key, values in rows:
                parts = key.split(aggcore.KEY_SEPARATOR)
                a, r, d = (int(parts[position[c]]) for c in ("activity", "region", "direction"))
                for metric, value in zip(metrics, values):
                    cells.setdefault((a, metric, r, d), []).append(value)
        sums = {cell: math.fsum(values) for cell, values in cells.items()}
        expected[window_id] = {cell: v for cell, v in sums.items() if v != 0.0}
    return expected


def ingest_prepare(inputs: IngestInputs) -> None:
    inputs.expected = expected_releases(inputs)


def ingest_check(inputs: IngestInputs, raw: Any) -> Outcome:
    srv, latencies, failed = raw
    problems: list[str] = []
    if inputs.expected is None:
        raise ValueError("ingest_replay: prepare the inputs before checking a run")
    expected = inputs.expected
    query_id = inputs.task.query_id
    for window in inputs.windows:
        release = srv.releases.get(f"{query_id}/{window.window_id}")
        if not isinstance(release, dp.NoisedRelease):
            problems.append(f"window {window.window_id}: {type(release).__name__}, not a release")
        elif dict(release.histogram.items()) != expected.get(window.window_id, {}):
            problems.append(f"window {window.window_id}: release differs from the exact sums")
    events = _event_counts(srv)
    accepted = events["upload_accepted"]
    if accepted + failed != len(inputs.uploads):
        problems.append(
            f"ingest_replay: {accepted} accepted + {failed} failed != {len(inputs.uploads)} sent"
        )
    window_ids = [w.window_id for w in inputs.windows]
    return Outcome(
        attempted=len(inputs.uploads),
        failed=failed,
        problems=problems,
        release_digest=_release_digest(window_ids, srv.releases, query_id),
        info={
            "uploads": accepted,
            "upload_p50_us": percentile(latencies, 0.50) / 1e3,
            "upload_p99_us": percentile(latencies, 0.99) / 1e3,
            "upload_latency_samples": len(latencies),
        },
        servers=[srv],
    )


def single_shard_updates_per_s() -> float:
    """The single-core ingest loop of acceptance gate AC13 (100-row payloads)."""
    core = aggcore.AggregationCore(
        aggcore.AggCoreConfig(
            key_columns=("region", "privacy_time_unit"), value_columns=("n", "km", "sec")
        )
    )
    rows = tuple((f"cell{i:03d}\x1f2024-W20", (1.0, 2.5, 60.0)) for i in range(100))
    core.accumulate(rows)
    started = time.perf_counter()
    for _ in range(SINGLE_SHARD_UPDATES):
        core.accumulate(rows)
    return SINGLE_SHARD_UPDATES / (time.perf_counter() - started)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("run_weekly", corpus_setup, weekly_run, weekly_check),
        Workload("sweep_grid", corpus_setup, sweep_run, sweep_check),
        Workload("ingest_replay", ingest_setup, ingest_run, ingest_check, ingest_prepare),
    )
}
