"""Federated aggregation server.

The server never sees raw device data — only grouped, bounded rows tied
to single-use upload tokens.  Per (query, window) it runs an aggregation
session on the least-loaded backend node: uploads accumulate into shard
cores, full shards checkpoint into level-0 partial aggregates, periodic
roll-ups fold those into a level-1 partial, and when the simulated clock
passes the window's end plus the grace period the session seals, merges
every live partial, gates on the minimum contribution count, puts the
merged core's sums, keyed by flat partition index, into one dense
``(activity, metric, region, direction)`` array of cell sums, and hands
that array to the privacy mechanism for release.  The release's sparse
histogram is built only for its event (the released-partition count and
digest).  Data that arrives after the deadline is discarded, and expired
partials are dropped (and logged) rather than released.  Each upload is
read once, here, before it touches any state: its payload bytes
(``aggcore.decode_payload``; rows are first written into bytes through
the session's row keys) must be whole records under strictly increasing
partition indexes of the window, with a finite L1 norm, and the
mechanism compares the upload's L1 norms with the bound its noise is
sized for (``ResolvedMechanism.exceeds_bound``).  An upload that fails any of this
is rejected as malformed; a shard core sums one that passes as it is
read.  The accepted upload's logged digest hashes those bytes.  A window
whose exact sum overflows a float (finite uploads under a bound too
large to stop them, such as an exact task's infinite one) is sealed as
suppressed, with reason ``overflow``, instead of released.  Devices
check in a batch at a time (:meth:`FederatedServer.check_in_many`).

Every externally visible action logs a structured event; events carry
digests and counts, never row values.  The log holds each event as one
tuple, a row: the id of its shape (a kind and its fields' names and
types, each shape declared once below), then its values.
:meth:`FederatedServer.event_log_lines` renders each row through its
shape's line format as ``json.dumps(event, sort_keys=True)``, byte for
byte.  ``FederatedServer.events`` is a read-only sequence view of the
log that builds an event's dict only when it is read.  Every clock value and
device id the entry points take must be an exact ``int`` (not a
``bool`` or a numpy integer), else ``TypeError`` is raised before
anything is logged, so every int field renders through ``%d``.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from hashlib import blake2b
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Any, Iterator, NamedTuple

import numpy as np

from .aggcore import (
    AggCoreConfig,
    AggregationCore,
    ClientUpdate,
    KeyTable,
    MalformedUpdateError,
    Wire,
    decode_payload,
    encode_payload,
)
from .client import row_keys
from .dp import NoisedRelease, ResolvedMechanism
from .model import Schema
from .query import QuerySpec, parse_and_validate, to_agg_config
from .rng import TokenMint
from .windows import TimeWindow, WindowAlignment, round_down_window, window_after

__all__ = [
    "InvalidTokenError",
    "TokenReplayError",
    "SessionClosedError",
    "RetrospectiveQueryError",
    "MissingApprovalError",
    "TaskConfig",
    "Assignment",
    "ServerConfig",
    "FederatedServer",
    "SuppressedRelease",
]


_INT = frozenset([int])


def _check_int(name: str, value: Any) -> None:
    """Refuse a clock value, device id or task setting that is not an exact ``int``."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, not {type(value).__name__} {value!r}")


class InvalidTokenError(PermissionError):
    """Upload token is unknown or bound to a different session."""


class TokenReplayError(PermissionError):
    """Upload token was already used."""


class SessionClosedError(RuntimeError):
    """The target session no longer accepts uploads (deadline passed)."""


class RetrospectiveQueryError(ValueError):
    """Task asked for windows beginning before its registration."""


class MissingApprovalError(ValueError):
    """Task lacks the required independent second approval."""


@dataclass(frozen=True)
class TaskConfig:
    """Everything a task needs to run: query, windows, and mechanism."""

    query_id: str
    query_text: str
    window_alignment: WindowAlignment
    first_window_start: int
    num_windows: int
    grace_period: int
    min_contributions: int
    mechanism: ResolvedMechanism
    submitted_by: str
    approved_by: str

    def __post_init__(self) -> None:
        for name in ("first_window_start", "num_windows", "grace_period", "min_contributions"):
            _check_int(name, getattr(self, name))
        if self.num_windows < 1:
            raise ValueError("a task needs at least one window")
        if self.grace_period < 0:
            raise ValueError("grace period must be >= 0")
        if self.min_contributions < 0:
            raise ValueError("min contributions must be >= 0")


class Assignment(NamedTuple):
    """Permission for one device to upload to one session, once."""

    query_id: str
    window_id: str
    session_id: str
    token: str


@dataclass(frozen=True)
class SuppressedRelease:
    """Analyst-facing marker: the window did not meet the report gate."""

    window_id: str
    reason: str = "insufficient_contributions"


@dataclass(frozen=True)
class ServerConfig:
    num_nodes: int = 3
    num_shards: int = 2
    checkpoint_batch: int = 1000
    partial_ttl_level0: int = 3 * 86400
    partial_ttl_level1: int = 21 * 86400
    rollup_interval: int = 86400


@dataclass
class RegisteredTask:
    config: TaskConfig
    spec: QuerySpec
    core_config: AggCoreConfig
    windows: list[TimeWindow]


@dataclass
class PartialAggregate:
    """A checkpointed aggregate: a frozen shard core plus its lease."""

    partial_id: str
    level: int
    core: AggregationCore
    created_at: int
    expires_at: int


@dataclass
class _Session:
    session_id: str
    query_id: str
    window: TimeWindow
    node: int
    deadline: int
    state: str = "collecting"  # collecting | released | suppressed
    shards: list[AggregationCore] = field(default_factory=list)
    partials: list[PartialAggregate] = field(default_factory=list)
    tokens: dict[str, dict] = field(default_factory=dict)
    # The window's row keys at their flat partition indexes, which key the
    # session's cores, and its upload record; dropped when the session seals.
    keys: KeyTable | None = None
    wire: Wire | None = None
    uploads_accepted: int = 0
    checkpoints_made: int = 0
    last_rollup: int = 0


# Renders task_registered's windows, the one field neither an int nor a str.
_encode_json = json.JSONEncoder(sort_keys=True).encode


class _Shape:
    """One shape of logged event: its kind and its fields, name -> type, in
    sorted name order, the order in which a row holds their values.

    Its line format is ``json.dumps`` of the event with sorted keys: an
    int value goes in as ``%d``, a str as ``encode_basestring_ascii`` of
    it, and a list as ``_encode_json`` of it (``converters`` holds the
    slot and converter of each value that is not an int).
    """

    __slots__ = ("kind", "names", "fmt", "converters")

    def __init__(self, kind: str, **types: type) -> None:
        if [*types] != sorted(types) or "event" in types:
            raise ValueError(f"the fields of {kind!r} must be sorted and not name 'event'")
        self.kind, self.names = kind, tuple(types)
        slots = {name: "%d" if typ is int else "%s" for name, typ in types.items()}
        slots["event"] = encode_basestring_ascii(kind).replace("%", "%%")
        self.fmt = "{" + ", ".join(f'"{name}": {slots[name]}' for name in sorted(slots)) + "}"
        self.converters = tuple(
            (i, encode_basestring_ascii if typ is str else _encode_json)
            for i, typ in enumerate(types.values())
            if typ is not int
        )


# Every declared shape, by id.  A logged row is a shape's id (an int, so
# that the collector can stop tracking the row), then its values.
_SHAPES: list[_Shape] = []


def _shape(kind: str, **types: type) -> int:
    """Declare one event shape; returns its id."""
    _SHAPES.append(_Shape(kind, **types))
    return len(_SHAPES) - 1


_TASK_REGISTERED = _shape(
    "task_registered", approved_by=str, query_id=str, submitted_by=str, t=int, windows=list
)
_SESSION_CREATED = _shape(
    "session_created", deadline=int, node=int, session_id=str, t=int, window_id=str
)
_CHECK_IN = _shape("check_in", device_id=int, t=int)
_ASSIGNMENT = _shape("assignment", device_id=int, session_id=str, t=int, window_id=str)
_NO_TOKEN = _shape("upload_rejected", reason=str, session_id=str, t=int)
_REJECTED = _shape("upload_rejected", device_id=int, reason=str, session_id=str, t=int)
_ACCEPTED = _shape(
    "upload_accepted", device_id=int, payload_digest=str, session_id=str, t=int, window_id=str
)
_CHECKPOINT = _shape(
    "checkpoint",
    contributions=int, level=int, partial_id=str, session_id=str, state_digest=str, t=int,
)
_PARTIAL_EXPIRED = _shape(
    "partial_expired", contributions_lost=int, level=int, partial_id=str, session_id=str, t=int
)
_ROLLUP = _shape(
    "rollup",
    contributions=int, level=int, partial_id=str, session_id=str, state_digest=str, t=int,
)
_RELEASE_SUPPRESSED = _shape(
    "release_suppressed", contributions=int, reason=str, session_id=str, t=int, window_id=str
)
_RELEASE = _shape(
    "release",
    histogram_digest=str, released_partitions=int, session_id=str,
    suppressed_partitions=int, t=int, window_id=str,
)


def _render(row: tuple) -> str:
    """``json.dumps(event, sort_keys=True)`` of one logged row's event."""
    shape, values = _SHAPES[row[0]], row[1:]
    if shape.converters:
        values = [*values]
        for i, convert in shape.converters:
            values[i] = convert(values[i])
        values = tuple(values)
    return shape.fmt % values


def _event(row: tuple) -> dict[str, Any]:
    """The event of one logged row, as a dict."""
    shape = _SHAPES[row[0]]
    return dict(zip(shape.names, row[1:]), event=shape.kind)


class _EventView(Sequence):
    """The server's logged rows, read as events: a read-only sequence whose
    items are dicts, each built only when it is read."""

    __slots__ = ("_rows",)

    def __init__(self, rows: list[tuple]) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return [*map(_event, self._rows[index])]
        return _event(self._rows[index])

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return map(_event, self._rows)


class FederatedServer:
    """In-process simulation of the aggregation service."""

    def __init__(
        self,
        schema: Schema,
        config: ServerConfig | None = None,
        seed: int = 0,
        noise_seed: int | None = None,
    ) -> None:
        self.schema = schema
        self.config = config or ServerConfig()
        self.seed = seed
        # Release-noise draws may be seeded independently of server-side
        # identifiers (tokens, placement); default: one shared seed.
        self.noise_seed = seed if noise_seed is None else noise_seed
        self._mint = TokenMint(seed, "upload-token")
        self.tasks: dict[str, RegisteredTask] = {}
        self.sessions: dict[str, _Session] = {}
        self.releases: dict[str, NoisedRelease | SuppressedRelease] = {}
        # Each logged event as one row: its shape's id, then its values.
        self._rows: list[tuple] = []
        self._log = self._rows.append
        self.events: Sequence[dict[str, Any]] = _EventView(self._rows)
        # (now, the (task, window) pairs open for contribution at now), for
        # check_in_many; dropped when a task registers or a window releases.
        self._open_windows: tuple[int, list[tuple[RegisteredTask, TimeWindow]]] | None = None

    # -- logging ---------------------------------------------------------

    def event_log_lines(self) -> Iterator[str]:
        """Each event as ``json.dumps(event, sort_keys=True)``, made as it is read."""
        return map(_render, self._rows)

    # -- task registration -------------------------------------------------

    def register_task(self, task: TaskConfig, now: int) -> RegisteredTask:
        """Validate and install a task; windows start at registration or later.

        Tasks must carry two distinct sign-offs, parse and validate as a
        split query (whose rules make the release one sum per uploaded
        cell), and must not reach back into time before registration.
        """
        _check_int("now", now)
        if task.query_id in self.tasks:
            raise ValueError(f"task {task.query_id!r} already registered")
        if not task.submitted_by or not task.approved_by:
            raise MissingApprovalError(
                "task needs both a submitter and an approver"
            )
        if task.submitted_by == task.approved_by:
            raise MissingApprovalError(
                "approver must be distinct from the submitter"
            )
        spec = parse_and_validate(task.query_text)
        first = round_down_window(task.first_window_start, task.window_alignment)
        if first.start != task.first_window_start:
            raise ValueError(
                f"first window start {task.first_window_start} is not "
                f"aligned to {task.window_alignment.value}"
            )
        if task.first_window_start < now:
            raise RetrospectiveQueryError(
                f"retrospective window: first window starts at "
                f"{task.first_window_start}, before registration at {now}; "
                f"historical data cannot be queried"
            )
        windows = [first]
        for _ in range(task.num_windows - 1):
            windows.append(window_after(windows[-1], task.window_alignment))
        registered = RegisteredTask(
            config=task,
            spec=spec,
            core_config=to_agg_config(spec),
            windows=windows,
        )
        self.tasks[task.query_id] = registered
        self._open_windows = None
        self._log((
            _TASK_REGISTERED, task.approved_by, task.query_id, task.submitted_by, now,
            [w.window_id for w in windows],
        ))
        return registered

    # -- sessions ----------------------------------------------------------

    def _session_key(self, query_id: str, window_id: str) -> str:
        return f"{query_id}/{window_id}"

    def _place_session(self) -> int:
        """Least-loaded node by live session count; ties take the lowest."""
        loads = [0] * self.config.num_nodes
        for session in self.sessions.values():
            if session.state == "collecting":
                loads[session.node] += 1
        return loads.index(min(loads))

    def _get_or_create_session(
        self, task: RegisteredTask, window: TimeWindow, now: int
    ) -> _Session:
        key = self._session_key(task.config.query_id, window.window_id)
        session = self.sessions.get(key)
        if session is None:
            node = self._place_session()
            keys = KeyTable(row_keys(task.spec, self.schema, window.window_id))
            session = _Session(
                session_id=key,
                query_id=task.config.query_id,
                window=window,
                node=node,
                deadline=window.end + task.config.grace_period,
                shards=[
                    AggregationCore(task.core_config, keys)
                    for _ in range(self.config.num_shards)
                ],
                last_rollup=now,
                keys=keys,
                wire=Wire(len(keys.names), len(task.spec.metrics)),
            )
            self.sessions[key] = session
            self._log((_SESSION_CREATED, session.deadline, node, key, now, window.window_id))
        return session

    # -- check-in ------------------------------------------------------------

    def check_in(self, device_id: int, now: int) -> list[Assignment]:
        """One device's check-in: :meth:`check_in_many`'s grant of it alone."""
        if type(device_id) is not int or type(now) is not int:
            _check_int("device_id", device_id)
            _check_int("now", now)
        return self._grant(device_id, now, self._windows_open_at(now), [], 0, 1)

    def check_in_many(
        self, device_ids: Sequence[int], now: int
    ) -> Iterator[tuple[int, list[Assignment]]]:
        """Check devices in at ``now``, in order, and hand each session-bound
        single-use tokens for the windows open then.

        A window is open for contribution from its end (devices can only
        hold a complete window) until its release deadline, and not once
        its release has run.  The server does not know which windows a
        device still has data for; the device filters assignments against
        its own memo.  With no window
        open, every check-in is logged at once and the iterator is empty.
        Otherwise it logs a device's check-in and assignments, then yields
        ``(device_id, grants)``, a device at a time; a session's tokens
        for every device come from the mint at once, at its first grant.
        """
        if type(now) is not int or not _INT.issuperset(map(type, device_ids)):
            for device_id in device_ids:
                _check_int("device_id", device_id)
            _check_int("now", now)
        open_windows = self._windows_open_at(now)
        if not open_windows:
            self._rows.extend(zip(repeat(_CHECK_IN), device_ids, repeat(now)))
            return iter(())
        sessions: list[tuple[_Session, list[str]]] = []
        return (
            (device_id, self._grant(device_id, now, open_windows, sessions, k, len(device_ids)))
            for k, device_id in enumerate(device_ids)
        )

    def _grant(
        self, device_id: int, now: int, open_windows: list, sessions: list, k: int, count: int
    ) -> list[Assignment]:
        """Log the ``k``-th of ``count`` check-ins at ``now`` and its
        assignments, for the (task, window) pairs ``open_windows``; returns
        its grants.  ``sessions`` holds, per open window from the first
        check-in's grant of it on, its session and the ``count`` tokens
        minted for it then."""
        log = self._log
        log((_CHECK_IN, device_id, now))
        grants: list[Assignment] = []
        for i, (task, window) in enumerate(open_windows):
            if i == len(sessions):
                session = self._get_or_create_session(task, window, now)
                collecting = session.state == "collecting"
                sessions.append((session, self._mint.take(count if collecting else 0)))
            session, tokens = sessions[i]
            if session.state != "collecting":
                continue
            token = tokens[k]
            session.tokens[token] = {"device_id": device_id, "consumed": False}
            grants.append(
                Assignment(task.config.query_id, window.window_id, session.session_id, token)
            )
            log((_ASSIGNMENT, device_id, session.session_id, now, window.window_id))
        return grants

    def _windows_open_at(self, now: int) -> list[tuple[RegisteredTask, TimeWindow]]:
        """Every (task, window) open for contribution at ``now``, in task
        and window order; worked out once per ``now``, task set and set of
        releases.  A window whose release ran (a clock back at its
        deadline) is not open: it would grant tokens no upload can use."""
        cached = self._open_windows
        if cached is not None and cached[0] == now:
            return cached[1]
        open_windows = [
            (task, window)
            for task in self.tasks.values()
            for window in task.windows
            if window.end <= now <= window.end + task.config.grace_period
            and self._session_key(task.config.query_id, window.window_id) not in self.releases
        ]
        self._open_windows = (now, open_windows)
        return open_windows

    # -- uploads ---------------------------------------------------------------

    def ingest_upload(self, update: ClientUpdate, now: int) -> None:
        """Validate and accumulate one device upload.

        Raises on rejection; the session state is untouched by rejected
        uploads.  Tokens are strictly single-use: the first attempt
        consumes the token whether or not the payload is accepted.
        """
        _check_int("now", now)
        key = self._session_key(update.query_id, update.window_id)
        session = self.sessions.get(key)
        record = session.tokens.get(update.token) if session else None
        if session is None or record is None:
            self._log((_NO_TOKEN, "invalid_token", key, now))
            raise InvalidTokenError(
                f"no token {update.token[:8]}... for session {key}"
            )
        if record["consumed"]:
            self._log((_REJECTED, record["device_id"], "token_replay", key, now))
            raise TokenReplayError("upload token already used")
        record["consumed"] = True
        if session.state != "collecting" or now > session.deadline:
            self._log((_REJECTED, record["device_id"], "session_closed", key, now))
            raise SessionClosedError(
                f"session {key} stopped collecting at {session.deadline}"
            )
        task = self.tasks[session.query_id]
        shard_index = session.uploads_accepted % len(session.shards)
        try:
            payload = update.payload
            if type(payload) is not bytes:  # rows: the adapter writes their bytes
                payload = encode_payload(payload, session.keys.ids, session.wire)
            keys, values, norm = decode_payload(payload, session.wire)
            mechanism, metrics = task.config.mechanism, task.spec.metrics
            if mechanism.exceeds_bound(norm, keys, values, metrics, self.schema):
                raise MalformedUpdateError("the upload is over the task's L1 bound")
            session.shards[shard_index].accumulate(keys, values)
        except MalformedUpdateError:
            self._log((_REJECTED, record["device_id"], "malformed", key, now))
            raise
        session.uploads_accepted += 1
        digest = blake2b(payload, digest_size=8).hexdigest()
        self._log((_ACCEPTED, record["device_id"], digest, key, now, update.window_id))
        if (
            session.shards[shard_index].contribution_count
            >= self.config.checkpoint_batch
        ):
            self._checkpoint_shard(session, shard_index, now)

    # -- checkpoints and roll-ups -------------------------------------------

    def _checkpoint_shard(
        self, session: _Session, shard_index: int, now: int
    ) -> None:
        task = self.tasks[session.query_id]
        core = session.shards[shard_index]
        if core.contribution_count == 0:
            return
        session.shards[shard_index] = AggregationCore(task.core_config, session.keys)
        partial = PartialAggregate(
            partial_id=f"{session.session_id}#p{session.checkpoints_made}",
            level=0,
            core=core,
            created_at=now,
            expires_at=now + self.config.partial_ttl_level0,
        )
        session.checkpoints_made += 1
        session.partials.append(partial)
        self._log((
            _CHECKPOINT, core.contribution_count, 0, partial.partial_id,
            session.session_id, core.state_digest(), now,
        ))

    def _expire_partials(self, session: _Session, now: int) -> None:
        live: list[PartialAggregate] = []
        for partial in session.partials:
            if now > partial.expires_at:
                self._log((
                    _PARTIAL_EXPIRED, partial.core.contribution_count, partial.level,
                    partial.partial_id, session.session_id, now,
                ))
            else:
                live.append(partial)
        session.partials = live

    def _rollup(self, session: _Session, now: int) -> None:
        """Fold all live level-0 partials into one level-1 partial."""
        task = self.tasks[session.query_id]
        level0 = [p for p in session.partials if p.level == 0]
        if not level0:
            session.last_rollup = now
            return
        existing = [p for p in session.partials if p.level == 1]
        target_core = (
            existing[0].core if existing else AggregationCore(task.core_config, session.keys)
        )
        for partial in level0:
            target_core.merge(partial.core)
        rolled = PartialAggregate(
            partial_id=f"{session.session_id}#r{session.checkpoints_made}",
            level=1,
            core=target_core,
            created_at=now,
            expires_at=now + self.config.partial_ttl_level1,
        )
        session.checkpoints_made += 1
        session.partials = [rolled]
        session.last_rollup = now
        self._log((
            _ROLLUP, target_core.contribution_count, 1, rolled.partial_id,
            session.session_id, target_core.state_digest(), now,
        ))

    def maintenance(self, now: int) -> None:
        """Periodic housekeeping: expiry, roll-ups, and due releases."""
        _check_int("now", now)
        for session in list(self.sessions.values()):
            if session.state != "collecting":
                continue
            self._expire_partials(session, now)
            if now - session.last_rollup >= self.config.rollup_interval:
                self._rollup(session, now)
        for task in self.tasks.values():
            for window in task.windows:
                key = self._session_key(task.config.query_id, window.window_id)
                if key in self.releases:
                    continue
                if now > window.end + task.config.grace_period:
                    self._trigger_release(task, window, now)

    # -- release ----------------------------------------------------------------

    def _trigger_release(
        self, task: RegisteredTask, window: TimeWindow, now: int
    ) -> None:
        """Seal the session and release (or suppress) the window.

        Runs strictly after ``window.end + grace_period``.  All in-flight
        shards checkpoint, live partials merge into the final aggregate,
        and the contribution gate decides between a noised release of its
        dense cell sums (the merged core's sums put in place) and an
        explicit suppression marker.  A window with a cell whose exact sum
        overflows a float is suppressed too, with reason ``overflow``.
        The session's cores and key table are dropped either way.  Late uploads
        after this point are rejected with :class:`SessionClosedError`.
        """
        key = self._session_key(task.config.query_id, window.window_id)
        session = self.sessions.get(key)
        self._open_windows = None  # the window closes for check-ins at any clock
        final_core: AggregationCore | None = None
        if session is not None:
            self._expire_partials(session, now)
            for shard_index in range(len(session.shards)):
                self._checkpoint_shard(session, shard_index, now)
            final_core = AggregationCore(task.core_config, session.keys)
            for partial in session.partials:
                final_core.merge(partial.core)
            session.partials = []
        count = final_core.contribution_count if final_core else 0
        aggregate = None
        if count >= max(task.config.min_contributions, 1):
            assert final_core is not None
            # Key ids are flat (activity, region, direction) indexes; a -0.0
            # sum goes in as the 0.0 its cell holds.
            ids, sums = final_core.present_rows()
            num_activities, _, num_regions, num_directions = self.schema.shape
            a, r, d = np.unravel_index(ids, (num_activities, num_regions, num_directions))
            aggregate = np.zeros(self.schema.shape)
            aggregate[a[:, None], task.spec.metrics, r[:, None], d[:, None]] = sums + 0.0
        if session is not None:  # a sealed session reads no more uploads
            session.shards, session.keys, session.wire = [], None, None
        # A cell whose exact sum overflowed a float reads NaN: no value to release.
        if aggregate is None or not np.isfinite(aggregate).all():
            reason = "insufficient_contributions" if aggregate is None else "overflow"
            if session is not None:
                session.state = "suppressed"
            self.releases[key] = SuppressedRelease(window.window_id, reason)
            self._log((_RELEASE_SUPPRESSED, count, reason, key, now, window.window_id))
            return
        release = task.config.mechanism.finalize(
            self.schema, aggregate, window.window_id, self.noise_seed
        )
        session.state = "released"
        self.releases[key] = release
        digest = blake2b(release.histogram.serialize(), digest_size=8).hexdigest()
        self._log((
            _RELEASE, digest, len(release.histogram), key,
            release.suppressed_partitions, now, window.window_id,
        ))
