"""Event-driven fleet simulation driver.

Advances a simulated clock in fixed ticks over the task horizon.  Each
device has a stable (per-device) wake hour and wakes at the first tick
at or after its next wake time, so at most once per tick and, with ticks
of an hour or less, once per civil day at that hour.  A wake calendar
maps each tick to the devices due then: a tick visits only those, in
device-id order, and each wake files the device under the tick of its
next wake.  The server's maintenance still runs on every tick.

Awake, a device advances its clock: its own new trips arrive in its
cache, a row range of the corpus columns (see :mod:`fedsum.client`),
its low watermark moves and expired trips leave.  It then draws its
conditions (``client.draw_flags``: lazily, in the order the policy
reads them, stopping at the first that fails).  If the check-in policy
allows, it checks in, receives session-bound tokens, and uploads a
bounded histogram for every complete window it has not contributed to
yet: the mechanism's ``transform_devices`` of the one-device block of
the window's trips (``client_work``), the same transform a sweep runs
on a whole window's block, whose rows the upload encodes.  The server side
(sessions, checkpoints, releases) runs through
:class:`fedsum.server.FederatedServer`.

Condition draws are keyed by (condition, device, day) alone, so fleets
under different check-in policies experience identical conditions and
coverage comparisons are apples-to-apples.

Evaluation makes one pass over each released window's trip columns
(``Corpus.device_histograms``) and builds the window's truth from its
block (``metrics.window_truth``: the dense ground truth, the
per-partition device counts and the eligible cells); both errors score
the release's dense values against it.  No trip record is built:
neither the corpus nor any device cache holds one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .aggcore import ClientUpdate
from .client import (
    CHECKIN_POLICIES,
    TIER_PROFILES,
    DeviceState,
    client_work,
    draw_flags,
    histogram_to_rows,
)
from .dp import NoisedRelease, ResolvedMechanism
from .metrics import per_user_mean_error, weighted_relative_error, window_truth
from .model import DeviceSubtotals, Schema, TripColumns, TripRecord
from .server import (
    FederatedServer,
    ServerConfig,
    SessionClosedError,
    SuppressedRelease,
    TaskConfig,
)
from .rng import KeyedRng
from .synth import Corpus
from .windows import TimeWindow

__all__ = ["FleetConfig", "SimulationResult", "build_device_upload", "run_simulation"]

HOUR = 3600
DAY = 86_400


@dataclass(frozen=True)
class FleetConfig:
    """Device-side knobs of a simulation run."""

    policy: str = "idle"
    tick_seconds: int = 3600
    cache_ttl: int = 28 * 86400
    availability: str = "tiered"  # "tiered" or "always_on"

    def __post_init__(self) -> None:
        availabilities = ("always_on", "tiered")
        if self.availability not in availabilities:
            raise ValueError(
                f"unknown availability {self.availability!r}; "
                f"known: {list(availabilities)}"
            )
        if self.policy not in CHECKIN_POLICIES:
            raise ValueError(
                f"unknown check-in policy {self.policy!r}; "
                f"known: {sorted(CHECKIN_POLICIES)}"
            )
        if self.tick_seconds < 1:
            raise ValueError("tick must be at least one second")
        if self.cache_ttl < 1:
            raise ValueError("cache TTL must be positive")


@dataclass
class SimulationResult:
    server: FederatedServer
    query_id: str
    task_windows: list[TimeWindow]
    releases: dict[str, NoisedRelease | SuppressedRelease]
    uploaded: dict[str, set[int]]
    device_tiers: dict[int, str]
    fleet_size: int
    eval_rows: list[dict] = field(default_factory=list)
    reach_rows: list[dict] = field(default_factory=list)


def build_device_upload(
    trips: TripColumns | list[TripRecord],
    mechanism: ResolvedMechanism,
    schema: Schema,
) -> DeviceSubtotals:
    """One device's bounded window block, whose rows it uploads.

    The trips' raw one-device block, bounded by the mechanism's device
    transform (scale, then clip) exactly as a sweep bounds a window's
    block; ``histogram_to_rows`` encodes it.
    """
    return mechanism.transform_devices(client_work(trips, schema), schema)


def _next_wake(wake: int, now: int) -> int:
    """The first daily recurrence of wake time ``wake`` after ``now``."""
    return wake + ((now - wake) // DAY + 1) * DAY


def run_simulation(
    corpus: Corpus,
    task: TaskConfig,
    fleet: FleetConfig,
    server_config: ServerConfig | None = None,
    seed: int = 0,
    noise_seed: int | None = None,
) -> SimulationResult:
    """Run the full pipeline over the task horizon and evaluate it."""
    schema = corpus.schema
    server = FederatedServer(schema, server_config, seed=seed, noise_seed=noise_seed)
    registered = server.register_task(task, now=corpus.config.start_time)
    windows = registered.windows
    spec = registered.spec
    mechanism = task.mechanism

    start = corpus.config.start_time
    tick = fleet.tick_seconds

    def first_tick_at_or_after(instant: int) -> int:
        return start if instant <= start else start - (start - instant) // tick * tick

    fleet_rng = KeyedRng(seed, "fleet")
    devices: dict[int, DeviceState] = {}
    # Each device's next wake time; it wakes at the first tick at or after it.
    next_wake: dict[int, int] = {}
    # The wake calendar: tick -> ids of the devices that wake at that tick.
    calendar: dict[int, list[int]] = {}
    start_day = start - start % DAY
    for device_id, tier in enumerate(corpus.tiers):
        profile = (
            TIER_PROFILES["always_on"]
            if fleet.availability == "always_on"
            else TIER_PROFILES[tier]
        )
        state = DeviceState(device_id=device_id, profile=profile, corpus=corpus)
        state.low_watermark = corpus.config.start_time
        state.last_seen_now = corpus.config.start_time
        devices[device_id] = state
        wake_hour = fleet_rng.randrange(24, "wake-hour", device_id)
        wake = start_day + wake_hour * HOUR
        next_wake[device_id] = wake
        calendar.setdefault(first_tick_at_or_after(wake), []).append(device_id)

    uploaded: dict[str, set[int]] = {w.window_id: set() for w in windows}
    windows_by_id = {w.window_id: w for w in windows}

    horizon_end = windows[-1].end + task.grace_period + 2 * tick
    for now in range(start, horizon_end + 1, tick):
        server.maintenance(now)
        due = calendar.pop(now, None)
        if due is None:
            continue
        day = now // DAY
        for device_id in sorted(due):
            wake = _next_wake(next_wake[device_id], now)
            next_wake[device_id] = wake
            calendar.setdefault(first_tick_at_or_after(wake), []).append(device_id)
            state = devices[device_id]
            state.advance_watermarks(now, task.window_alignment, fleet.cache_ttl)
            if not draw_flags(fleet_rng, state.profile, fleet.policy, device_id, day):
                continue
            assignments = server.check_in(device_id, now)
            eligible = {
                w.window_id
                for w in state.eligible_windows(task.query_id, windows)
            }
            for assignment in assignments:
                if assignment.window_id not in eligible:
                    continue
                window = windows_by_id[assignment.window_id]
                trips = state.visible_records(window)
                if not trips:
                    continue
                upload_ok = (
                    fleet_rng.uniform(
                        "upload-ok", device_id, day, assignment.window_id
                    )
                    < state.profile.p_upload_ok
                )
                if not upload_ok:
                    continue
                block = build_device_upload(trips, mechanism, schema)
                rows = histogram_to_rows(block, window.window_id, spec)
                update = ClientUpdate(
                    query_id=task.query_id,
                    window_id=window.window_id,
                    token=assignment.token,
                    rows=tuple(rows),
                )
                try:
                    server.ingest_upload(update, now)
                except SessionClosedError:
                    continue
                state.mark_contributed(task.query_id, window.window_id)
                uploaded[window.window_id].add(device_id)
    server.maintenance(horizon_end + tick)

    result = SimulationResult(
        server=server,
        query_id=task.query_id,
        task_windows=windows,
        releases=dict(server.releases),
        uploaded=uploaded,
        device_tiers=dict(enumerate(corpus.tiers)),
        fleet_size=corpus.num_devices,
    )
    _evaluate(result, corpus, spec, fleet.policy)
    return result


def _evaluate(
    result: SimulationResult,
    corpus: Corpus,
    spec,
    policy: str,
) -> None:
    """Fill eval and reach rows from the finished run."""
    schema = corpus.schema
    strata: dict[str, set[int]] = {"all": set(result.device_tiers)}
    for device_id, tier in result.device_tiers.items():
        strata.setdefault(tier, set()).add(device_id)
    for window in result.task_windows:
        release = result.releases.get(f"{result.query_id}/{window.window_id}")
        if isinstance(release, NoisedRelease):
            # The block is freed as the truth is built, before the next pass.
            truth = window_truth(corpus, corpus.device_histograms(window))
            wre = weighted_relative_error(truth, release.values)
            pume = per_user_mean_error(truth, release.values, spec.metrics)
            for metric in sorted(wre):
                result.eval_rows.append(
                    {
                        "window_id": window.window_id,
                        "metric": schema.metric_names[metric],
                        "weighted_relative_error": wre[metric],
                        "per_user_mean_error": pume,
                    }
                )
        for stratum in sorted(strata):
            members = strata[stratum]
            up = len(result.uploaded[window.window_id] & members)
            result.reach_rows.append(
                {
                    "policy": policy,
                    "stratum": stratum,
                    "window_id": window.window_id,
                    "h": up / len(members) if members else math.nan,
                }
            )
