"""Federated aggregation server.

The server never sees raw device data — only grouped, bounded rows tied
to single-use upload tokens.  Per (query, window) it runs an aggregation
session on the least-loaded backend node: uploads accumulate into shard
cores, full shards checkpoint into level-0 partial aggregates, periodic
roll-ups fold those into a level-1 partial, and when the simulated clock
passes the window's end plus the grace period the session seals, merges
every live partial, gates on the minimum contribution count, decodes the
merged report into one dense ``(activity, metric, region, direction)``
array of cell sums, and hands that array to the privacy mechanism for
release.  The release's sparse histogram is built only for its event
(the released-partition count and digest).  Data that arrives after the
deadline is discarded, and expired partials are dropped (and logged)
rather than released.  Each upload is read once, here, before it
touches any state: its payload bytes (``aggcore.decode_payload``; rows
are first written into bytes through the session's row keys) must be
whole records under strictly increasing partition indexes of the
window, with a finite L1 norm, and the mechanism compares the upload's
L1 norms with the bound its noise is sized for
(``ResolvedMechanism.exceeds_bound``).  An upload that fails any of this
is rejected as malformed; a shard core sums one that passes as it is
read.  The accepted upload's logged digest hashes those bytes.  A window
whose exact sum overflows a float (finite uploads under a bound too
large to stop them, such as an exact task's infinite one) is sealed as
suppressed, with reason ``overflow``, instead of released.

Every externally visible action appends a structured event to the
server's log; events carry digests and counts, never row values.  Each
line of the log, as :meth:`FederatedServer.event_log_lines` renders it,
is ``json.dumps(event, sort_keys=True)``, byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from hashlib import blake2b
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Iterator

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
from .client import row_keys, rows_to_histogram
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
        if self.num_windows < 1:
            raise ValueError("a task needs at least one window")
        if self.grace_period < 0:
            raise ValueError("grace period must be >= 0")
        if self.min_contributions < 0:
            raise ValueError("min contributions must be >= 0")


@dataclass(frozen=True)
class Assignment:
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


# Renders what a line format cannot: a value that is not an int or a str,
# and a whole event whose shape has no format.
_encode_json = json.JSONEncoder(sort_keys=True).encode

# Event shape (its keys, then the type of each value) -> line format, or
# None where the shape renders through ``_encode_json``.  A run logs fewer
# than a dozen shapes; the cache is emptied whenever it reaches the bound,
# so arbitrary events cannot grow it.
_LINE_FORMATS_MAX = 1024
_line_formats: dict[tuple, tuple | None] = {}


def _line_format(keys: tuple, kinds: tuple) -> tuple | None:
    """The line format of events with these keys and value types.

    A ``%`` format of the sorted fields: an int value goes in as ``%d``,
    a str as ``encode_basestring_ascii`` of it, anything else as
    ``_encode_json`` of it, each exactly as the encoder writes it inside
    the event.  Returns the format, a getter of the values in sorted key
    order, and the (slot, converter) of each value that is not an int;
    None for a shape with a key that is not a str, or fewer than two keys.
    """
    if len(keys) < 2 or any(type(key) is not str for key in keys):
        return None
    order = sorted(range(len(keys)), key=keys.__getitem__)
    fields: list[str] = []
    converters = []
    for slot, i in enumerate(order):
        kind = kinds[i]
        name = encode_basestring_ascii(keys[i]).replace("%", "%%")
        fields.append(f"{name}: %d" if kind is int else f"{name}: %s")
        if kind is not int:
            converters.append((slot, encode_basestring_ascii if kind is str else _encode_json))
    getter = itemgetter(*[keys[i] for i in order])
    return "{" + ", ".join(fields) + "}", getter, tuple(converters)


def _render_event(event: dict) -> str:
    """``json.dumps(event, sort_keys=True)``, from its shape's line format."""
    shape = (*event, *map(type, event.values()))
    try:
        line = _line_formats[shape]
    except KeyError:
        size = len(event)
        line = _line_format(shape[:size], shape[size:])
        if len(_line_formats) >= _LINE_FORMATS_MAX:
            _line_formats.clear()
        _line_formats[shape] = line
    if line is None:
        return _encode_json(event)
    fmt, getter, converters = line
    values = [*getter(event)]
    for slot, convert in converters:
        values[slot] = convert(values[slot])
    return fmt % tuple(values)


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
        self._mint_token = TokenMint(seed, "upload-token")
        self.tasks: dict[str, RegisteredTask] = {}
        self.sessions: dict[str, _Session] = {}
        self.releases: dict[str, NoisedRelease | SuppressedRelease] = {}
        self.events: list[dict] = []
        # (now, the (task, window) pairs open for contribution at now), for
        # check_in; dropped when a task registers.
        self._open_windows: tuple[int, list[tuple[RegisteredTask, TimeWindow]]] | None = None

    # -- logging ---------------------------------------------------------

    def _log(self, now: int, event: str, **fields: Any) -> None:
        self.events.append({"t": now, "event": event, **fields})

    def event_log_lines(self) -> Iterator[str]:
        """Each event as ``json.dumps(event, sort_keys=True)``, made as it is read."""
        return map(_render_event, self.events)

    # -- task registration -------------------------------------------------

    def register_task(self, task: TaskConfig, now: int) -> RegisteredTask:
        """Validate and install a task; windows start at registration or later.

        Tasks must carry two distinct sign-offs, parse and validate as a
        split query (whose rules make the release one sum per uploaded
        cell), and must not reach back into time before registration.
        """
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
        self._log(
            now,
            "task_registered",
            query_id=task.query_id,
            windows=[w.window_id for w in windows],
            submitted_by=task.submitted_by,
            approved_by=task.approved_by,
        )
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
            self._log(
                now,
                "session_created",
                session_id=key,
                window_id=window.window_id,
                node=node,
                deadline=session.deadline,
            )
        return session

    # -- check-in ------------------------------------------------------------

    def check_in(self, device_id: int, now: int) -> list[Assignment]:
        """Hand out session-bound single-use tokens for open windows.

        A window is open for contribution from its end (devices can only
        hold a complete window) until its release deadline.  The server
        does not know which windows the device still has data for; the
        device filters assignments against its own memo.
        """
        assignments: list[Assignment] = []
        self._log(now, "check_in", device_id=device_id)
        for task, window in self._windows_open_at(now):
            session = self._get_or_create_session(task, window, now)
            if session.state != "collecting":
                continue
            # One keyed hash of the server's mint counter: tokens are unique
            # across sessions and check-ins, even two at the same instant.
            token = self._mint_token()
            session.tokens[token] = {"device_id": device_id, "consumed": False}
            assignments.append(
                Assignment(
                    query_id=task.config.query_id,
                    window_id=window.window_id,
                    session_id=session.session_id,
                    token=token,
                )
            )
            self._log(
                now,
                "assignment",
                device_id=device_id,
                session_id=session.session_id,
                window_id=window.window_id,
            )
        return assignments

    def _windows_open_at(self, now: int) -> list[tuple[RegisteredTask, TimeWindow]]:
        """Every (task, window) open for contribution at ``now``, in task
        and window order; worked out once per ``now`` and task set."""
        cached = self._open_windows
        if cached is not None and cached[0] == now:
            return cached[1]
        open_windows = [
            (task, window)
            for task in self.tasks.values()
            for window in task.windows
            if window.end <= now <= window.end + task.config.grace_period
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
        key = self._session_key(update.query_id, update.window_id)
        session = self.sessions.get(key)
        record = session.tokens.get(update.token) if session else None
        if session is None or record is None:
            self._log(
                now,
                "upload_rejected",
                session_id=key,
                reason="invalid_token",
            )
            raise InvalidTokenError(
                f"no token {update.token[:8]}... for session {key}"
            )
        if record["consumed"]:
            self._log(
                now,
                "upload_rejected",
                session_id=key,
                device_id=record["device_id"],
                reason="token_replay",
            )
            raise TokenReplayError("upload token already used")
        record["consumed"] = True
        if session.state != "collecting" or now > session.deadline:
            self._log(
                now,
                "upload_rejected",
                session_id=key,
                device_id=record["device_id"],
                reason="session_closed",
            )
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
            self._log(
                now,
                "upload_rejected",
                session_id=key,
                device_id=record["device_id"],
                reason="malformed",
            )
            raise
        session.uploads_accepted += 1
        self._log(
            now,
            "upload_accepted",
            session_id=key,
            device_id=record["device_id"],
            window_id=update.window_id,
            payload_digest=blake2b(payload, digest_size=8).hexdigest(),
        )
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
        self._log(
            now,
            "checkpoint",
            session_id=session.session_id,
            partial_id=partial.partial_id,
            level=0,
            contributions=core.contribution_count,
            state_digest=core.state_digest(),
        )

    def _expire_partials(self, session: _Session, now: int) -> None:
        live: list[PartialAggregate] = []
        for partial in session.partials:
            if now > partial.expires_at:
                self._log(
                    now,
                    "partial_expired",
                    session_id=session.session_id,
                    partial_id=partial.partial_id,
                    level=partial.level,
                    contributions_lost=partial.core.contribution_count,
                )
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
        self._log(
            now,
            "rollup",
            session_id=session.session_id,
            partial_id=rolled.partial_id,
            level=1,
            contributions=target_core.contribution_count,
            state_digest=target_core.state_digest(),
        )

    def maintenance(self, now: int) -> None:
        """Periodic housekeeping: expiry, roll-ups, and due releases."""
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
        dense cell sums (``rows_to_histogram`` of the merged report) and an
        explicit suppression marker.  A window with a cell whose exact sum
        overflows a float is suppressed too, with reason ``overflow``.
        The session's cores and key table are dropped either way.  Late uploads
        after this point are rejected with :class:`SessionClosedError`.
        """
        key = self._session_key(task.config.query_id, window.window_id)
        session = self.sessions.get(key)
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
            assert final_core is not None and session is not None
            aggregate = rows_to_histogram(
                final_core.report().items(), task.spec, self.schema, session.keys.ids
            )
        if session is not None:  # a sealed session reads no more uploads
            session.shards, session.keys, session.wire = [], None, None
        # A cell whose exact sum overflowed a float reads NaN: no value to release.
        if aggregate is None or not np.isfinite(aggregate).all():
            reason = "insufficient_contributions" if aggregate is None else "overflow"
            if session is not None:
                session.state = "suppressed"
            self.releases[key] = SuppressedRelease(window.window_id, reason)
            self._log(
                now,
                "release_suppressed",
                session_id=key,
                window_id=window.window_id,
                contributions=count,
                reason=reason,
            )
            return
        release = task.config.mechanism.finalize(
            self.schema, aggregate, window.window_id, self.noise_seed
        )
        session.state = "released"
        self.releases[key] = release
        self._log(
            now,
            "release",
            session_id=key,
            window_id=window.window_id,
            released_partitions=len(release.histogram),
            suppressed_partitions=release.suppressed_partitions,
            histogram_digest=blake2b(
                release.histogram.serialize(), digest_size=8
            ).hexdigest(),
        )
