"""Event-driven fleet simulation driver.

Advances a simulated clock in fixed ticks over the task horizon.  Each
device has a stable (per-device) wake hour and wakes at the first tick
at or after its next wake time, so at most once per tick and, with ticks
of an hour or less, once per civil day at that hour.  A wake calendar
maps each tick to the devices due then, as arrays of device ids: a tick
visits only those, in device-id order, and files them under the tick of
their next wake.  The server's maintenance still runs on every tick.

Once per civil day the fleet's conditions are drawn for every device
(``client.draw_flags``, one mask over device ids), and the due devices
the mask allows check in with one server call per tick
(:meth:`fedsum.server.FederatedServer.check_in_many`), which hands back
their grants a device at a time, each device uploading before the next
checks in.  A device's cache holds what :func:`cache_cut`
leaves of a window at the tick.  Its watermark needs no state: the
server assigns only windows that have ended, and window ends are
alignment boundaries, so every assigned window ended at or before the
start of the current one.  The exactly-once memo is ``uploaded``, the
devices whose upload each window accepted.  A device that checks in
receives session-bound tokens and uploads a bounded histogram for every
assigned window it has not contributed to yet and holds a trip of,
unless that day's upload fails.  Holding a row and uploading that day
are one byte mask per window and tick, made at the window's first
grant.  :class:`fedsum.client.DeviceState` is the per-device reference
model that the tests compare this loop with.

The uploads of a window are bounded once, not once per device.  While
the window collects, the loop holds one :class:`WindowUploads` block:
the mechanism's ``transform_devices`` of the window's raw block from
:func:`cache_cut` on, which is what every checked-in device's cache
holds of the window at that tick.  It is built on the window's first
upload, rebuilt only when the cut moves (a cache TTL shorter than the
window plus its grace), and dropped at the window's deadline.  When it
is built it writes every device's payload bytes at once, so a device's
upload is one slice of them.  Because the transform bounds each device
on its own and the raw block sums a device's trips as ``client_work``
does, the rows equal :func:`build_device_upload` of the device's
visible trips, bit for bit.  A device whose rows are all zero uploads
nothing.
The server side (sessions, checkpoints, releases) runs through
:class:`fedsum.server.FederatedServer`.

Every fleet draw is a block from ``BlockRng(seed, "fleet", ...)`` at
the device's position (see :mod:`fedsum.rng`): the wake hours
(``"wake-hour"``), each day's conditions, and each (day, window)'s
upload outcomes (``"upload-ok"``, window id).  None depends on the
check-in policy, so fleets under different policies experience
identical conditions and coverage comparisons are apples-to-apples.
The arrays of a day are dropped when the day ends.

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

import numpy as np

from .aggcore import ClientUpdate, Wire
from .client import (
    CHECKIN_POLICIES,
    FLEET_NAMESPACE,
    TIER_PROFILES,
    FleetProfiles,
    client_work,
    draw_flags,
)
from .dp import NoisedRelease, ResolvedMechanism
from .metrics import per_user_mean_error, weighted_relative_error, window_truth
from .model import DeviceSubtotals, Schema, TripRecord
from .query import QuerySpec
from .server import (
    FederatedServer,
    ServerConfig,
    SessionClosedError,
    SuppressedRelease,
    TaskConfig,
)
from .rng import BlockRng
from .synth import Corpus
from .windows import TimeWindow

__all__ = [
    "FleetConfig",
    "SimulationResult",
    "WindowUploads",
    "build_device_upload",
    "cache_cut",
    "run_simulation",
]

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
    fleet_size: int
    eval_rows: list[dict] = field(default_factory=list)
    reach_rows: list[dict] = field(default_factory=list)


def build_device_upload(
    records: list[TripRecord],
    mechanism: ResolvedMechanism,
    schema: Schema,
) -> DeviceSubtotals:
    """One device's bounded window block, whose rows it uploads.

    The raw one-device block of the device's trip records, bounded by
    the mechanism's device transform (scale, then clip) exactly as a
    sweep bounds a window's block; ``histogram_to_rows`` encodes it.  The
    simulator cuts the same rows' bytes out of a :class:`WindowUploads` block.
    """
    return mechanism.transform_devices(client_work(records, schema), schema)


def cache_cut(window: TimeWindow, now: int, ttl: int) -> int:
    """The first instant of ``window`` that a device cache holds at ``now``:
    trips younger than ``ttl`` stay cached, and the window's trips from its
    start on are in it."""
    return max(window.start, now - ttl)


class WindowUploads:
    """Every device's upload to one window, cut from one bounded block.

    The block is the mechanism's ``transform_devices`` of the window's
    raw block from ``cut`` on (``Corpus.device_histograms``): the trips
    a checked-in device's cache holds of the window while
    :func:`cache_cut` is ``cut``, so a device's rows are
    ``build_device_upload`` of its visible trips, bit for bit.  Every
    device's payload is written at once, in array passes: each row's
    flat partition index and metric values as a record of
    :class:`fedsum.aggcore.Wire`, all-zero rows dropped, ``-0.0`` written
    ``+0.0``, a device's rows in partition order.  Only the records,
    each device's byte offsets and ``holders``, whether each device has
    a row to upload, are kept.
    """

    __slots__ = ("cut", "holders", "_payloads", "_offsets")

    def __init__(
        self,
        corpus: Corpus,
        window: TimeWindow,
        cut: int,
        mechanism: ResolvedMechanism,
        spec: QuerySpec,
    ) -> None:
        schema = corpus.schema
        self.cut = cut
        if cut < window.end:
            raw = corpus.device_histograms(TimeWindow(cut, window.end, window.window_id))
        else:  # every trip of the window has expired
            raw = DeviceSubtotals.of_trips(schema, *[()] * 6)
        block = mechanism.transform_devices(raw, schema)
        values, partition = block.sums[:, spec.metrics], block.partitions(schema)
        rows = np.flatnonzero(values.any(axis=1))
        rows = rows[np.lexsort((partition[rows], block.device[rows]))]
        _, _, num_regions, num_directions = schema.shape
        wire = Wire(schema.num_activities * num_regions * num_directions, len(spec.metrics))
        records = np.empty(len(rows), dtype=wire.dtype)
        records["key"] = partition[rows]
        records["values"] = values[rows] + 0.0  # -0.0 + 0.0 is +0.0
        self._payloads = records.tobytes()
        ends = np.searchsorted(block.device[rows], np.arange(corpus.num_devices + 1))
        self.holders = ends[1:] > ends[:-1]
        self._offsets = (ends * wire.size).tolist()

    def payload(self, device_id: int) -> bytes:
        """The device's upload payload."""
        return self._payloads[self._offsets[device_id] : self._offsets[device_id + 1]]


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

    num_devices = corpus.num_devices
    if fleet.availability == "always_on":
        profiles = [TIER_PROFILES["always_on"]] * num_devices
    else:
        profiles = [TIER_PROFILES[tier] for tier in corpus.tiers]
    fleet_profiles = FleetProfiles.of(profiles)
    # The events keep the ids they log: one int object per device, not a
    # new one per check-in.
    device_ids = list(range(num_devices))
    # Each device's next wake time; it wakes at the first tick at or after it.
    wake_hours = BlockRng(seed, FLEET_NAMESPACE, "wake-hour").uniforms(num_devices) * 24
    next_wake = start - start % DAY + wake_hours.astype(np.int64) * HOUR
    # The wake calendar: tick -> arrays of the ids of the devices that wake then.
    calendar: dict[int, list[np.ndarray]] = {}

    def file_wakes(ids: np.ndarray) -> None:
        """File devices ``ids`` under the first tick at or after their next wake."""
        wakes = next_wake[ids]
        ticks = np.where(wakes <= start, start, start - (start - wakes) // tick * tick)
        for due_tick in set(ticks.tolist()):
            calendar.setdefault(due_tick, []).append(ids[ticks == due_tick])

    file_wakes(np.arange(num_devices))
    upload_rngs = {
        w.window_id: BlockRng(seed, FLEET_NAMESPACE, "upload-ok", w.window_id) for w in windows
    }

    uploaded: dict[str, set[int]] = {w.window_id: set() for w in windows}
    windows_by_id = {w.window_id: w for w in windows}
    deadlines = {w.window_id: w.end + task.grace_period for w in windows}
    # Each collecting window's uploads, dropped when its session seals.
    blocks: dict[str, WindowUploads] = {}

    def uploaders(window_id: str, now: int, upload_ok: dict[str, np.ndarray]) -> bytes:
        """One byte per device, 1 where the device holds a row of the
        window's block at ``now`` and its upload succeeds today."""
        window = windows_by_id[window_id]
        cut = cache_cut(window, now, fleet.cache_ttl)
        block = blocks.get(window_id)
        if block is None or block.cut != cut:
            block = blocks[window_id] = WindowUploads(corpus, window, cut, mechanism, spec)
        ok = upload_ok.get(window_id)
        if ok is None:
            draws = upload_rngs[window_id].uniforms(num_devices, now // DAY)
            ok = upload_ok[window_id] = draws < fleet_profiles.p_upload_ok
        return (block.holders & ok).tobytes()

    day = None
    horizon_end = windows[-1].end + task.grace_period + 2 * tick
    for now in range(start, horizon_end + 1, tick):
        server.maintenance(now)
        for window_id in [w for w in blocks if now > deadlines[w]]:
            del blocks[window_id]
        due = calendar.pop(now, None)
        if due is None:
            continue
        due = np.sort(np.concatenate(due))
        wakes = next_wake[due]
        next_wake[due] = wakes + ((now - wakes) // DAY + 1) * DAY
        file_wakes(due)
        if now // DAY != day:  # one civil day's draws, dropped when it ends
            day = now // DAY
            allowed = draw_flags(seed, fleet_profiles, fleet.policy, day)
            upload_ok: dict[str, np.ndarray] = {}
        ids = list(map(device_ids.__getitem__, due[allowed[due]].tolist()))
        # Each window's uploaders at this tick, worked out at its first grant.
        can_upload: dict[str, bytes] = {}
        for device_id, grants in server.check_in_many(ids, now):
            for assignment in grants:
                window_id = assignment.window_id
                can = can_upload.get(window_id)
                if can is None:
                    can = can_upload[window_id] = uploaders(window_id, now, upload_ok)
                if not can[device_id] or device_id in uploaded[window_id]:
                    continue
                update = ClientUpdate(
                    query_id=task.query_id,
                    window_id=window_id,
                    token=assignment.token,
                    payload=blocks[window_id].payload(device_id),
                )
                try:
                    server.ingest_upload(update, now)
                except SessionClosedError:
                    continue
                uploaded[window_id].add(device_id)
    server.maintenance(horizon_end + tick)

    result = SimulationResult(
        server=server,
        query_id=task.query_id,
        task_windows=windows,
        releases=dict(server.releases),
        uploaded=uploaded,
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
    strata: dict[str, set[int]] = {"all": set(range(corpus.num_devices))}
    for device_id, tier in enumerate(corpus.tiers):
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
