"""Aggregation service lifecycle: registration, tokens, partials, releases."""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedsum import server as server_module
from fedsum.aggcore import KEY_SEPARATOR, ClientUpdate, MalformedUpdateError
from fedsum.client import histogram_to_rows, row_keys, rows_to_histogram
from fedsum.dp import (
    VARIANT_JOINT,
    VARIANT_SCALED,
    VARIANT_SPLIT,
    MechanismConfig,
    NoisedRelease,
    ResolvedMechanism,
    resolve_mechanism,
)
from fedsum.model import IndexedHistogram, Schema
from fedsum.query import RELEASE_KEY_COLUMNS, QueryValidationError, parse_and_validate
from fedsum.server import (
    FederatedServer,
    InvalidTokenError,
    MissingApprovalError,
    RetrospectiveQueryError,
    ServerConfig,
    SessionClosedError,
    SuppressedRelease,
    TaskConfig,
    TokenReplayError,
)
from fedsum.windows import WindowAlignment

from blocks import block_of, exact_sum
from helpers import START, WEEK, dict_log, reference_upload_check

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

REGION_ONLY_QUERY = """\
SELECT region, privacy_time_unit, SUM(trip_distance) AS km
FROM DeviceDataStream
GROUP BY region, privacy_time_unit

SELECT region, privacy_time_unit, SUM(km) AS skm
FROM UserResults
GROUP BY region, privacy_time_unit
"""

SPEC = parse_and_validate(FULL_QUERY)
GRACE = 2 * 86_400


def schema():
    return Schema(
        num_activities=3,
        num_metrics=3,
        num_regions=4,
        metric_names=("num_trips", "distance_km", "duration_s"),
        activity_names=("a", "b", "c"),
    )


def exact_mechanism(s):
    config = MechanismConfig(
        variant=VARIANT_JOINT, epsilon=math.inf, clip=math.inf
    )
    return resolve_mechanism(config, [], s)


def make_task(s, **overrides):
    fields = dict(
        query_id="trips",
        query_text=FULL_QUERY,
        window_alignment=WindowAlignment.WEEK,
        first_window_start=START,
        num_windows=2,
        grace_period=GRACE,
        min_contributions=1,
        mechanism=exact_mechanism(s),
        submitted_by="analyst@example.com",
        approved_by="steward@example.com",
    )
    fields.update(overrides)
    return TaskConfig(**fields)


def make_server(s=None, **config_fields):
    s = s or schema()
    server = FederatedServer(s, ServerConfig(**config_fields))
    return server, s


def device_histogram(s, device: int) -> IndexedHistogram:
    h = IndexedHistogram(s)
    h[(device % 3, 0, device % 4, 0)] = 1.0
    h[(device % 3, 1, device % 4, 0)] = 2.5 + device
    h[(device % 3, 2, device % 4, 0)] = 60.0 * (device + 1)
    return h


def upload(server, device: int, h: IndexedHistogram, now: int) -> None:
    assignments = server.check_in(device, now)
    assert assignments, f"no open window at {now}"
    a = assignments[0]
    rows = histogram_to_rows(block_of(server.schema, [h]), a.window_id, SPEC)
    server.ingest_upload(
        ClientUpdate(a.query_id, a.window_id, a.token, tuple(rows)), now
    )




def events_named(server, name):
    return [e for e in server.events if e["event"] == name]


# --- registration -----------------------------------------------------------


def test_release_keys_are_the_full_partition_key():
    assert RELEASE_KEY_COLUMNS == {
        "activity",
        "region",
        "direction",
        "privacy_time_unit",
    }


def test_registration_builds_consecutive_windows():
    server, s = make_server()
    registered = server.register_task(make_task(s), now=START)
    assert [w.window_id for w in registered.windows] == ["2024-W20", "2024-W21"]
    assert registered.windows[0].end == registered.windows[1].start
    assert registered.core_config.value_columns == ("n", "km", "sec")
    (event,) = events_named(server, "task_registered")
    assert event["windows"] == ["2024-W20", "2024-W21"]


def test_duplicate_query_id_is_rejected():
    server, s = make_server()
    server.register_task(make_task(s), now=START)
    with pytest.raises(ValueError, match="already registered"):
        server.register_task(make_task(s), now=START)


def test_tasks_need_two_distinct_sign_offs():
    server, s = make_server()
    with pytest.raises(MissingApprovalError):
        server.register_task(make_task(s, approved_by=""), now=START)
    with pytest.raises(MissingApprovalError):
        server.register_task(
            make_task(s, approved_by="analyst@example.com"), now=START
        )


def test_windows_before_registration_are_rejected():
    server, s = make_server()
    with pytest.raises(RetrospectiveQueryError, match="retrospective"):
        server.register_task(make_task(s), now=START + 10)


def test_unaligned_first_window_is_rejected():
    server, s = make_server()
    with pytest.raises(ValueError, match="aligned"):
        server.register_task(
            make_task(s, first_window_start=START + 3600), now=START
        )


def test_partial_key_queries_cannot_register():
    server, s = make_server()
    with pytest.raises(QueryValidationError, match="grouping"):
        server.register_task(
            make_task(s, query_text=REGION_ONLY_QUERY), now=START
        )


SERVER_STATEMENTS = {
    "partial_key": """\
SELECT region, privacy_time_unit, SUM(sec) AS ssec, SUM(n) AS sn
FROM UserResults
GROUP BY region, privacy_time_unit
""",
    "missing_sum": """\
SELECT activity, region, direction, privacy_time_unit, SUM(sec) AS ssec, SUM(n) AS sn
FROM UserResults
GROUP BY activity, region, direction, privacy_time_unit
""",
    "repeated_sum": """\
SELECT activity, region, direction, privacy_time_unit,
       SUM(n) AS sn, SUM(n) AS sn2, SUM(km) AS skm, SUM(sec) AS ssec
FROM UserResults
GROUP BY activity, region, direction, privacy_time_unit
""",
}


def with_server_statement(statement):
    client = FULL_QUERY.split("\n\n")[0]
    return f"{client}\n\n{statement}"


@pytest.mark.parametrize("case", sorted(SERVER_STATEMENTS))
def test_server_statements_the_release_cannot_honour_cannot_register(case):
    server, s = make_server()
    query = with_server_statement(SERVER_STATEMENTS[case])
    with pytest.raises(QueryValidationError, match="server statement"):
        server.register_task(make_task(s, query_text=query), now=START)
    assert server.tasks == {}


def test_server_sums_in_any_order_release_the_uploaded_columns():
    server, s = make_server()
    query = with_server_statement("""\
SELECT privacy_time_unit, direction, region, activity,
       SUM(sec) AS ssec, SUM(n) AS sn, SUM(km) AS skm
FROM UserResults
GROUP BY privacy_time_unit, direction, region, activity
""")
    registered = server.register_task(make_task(s, query_text=query), now=START)
    assert registered.core_config.value_columns == ("n", "km", "sec")
    for device in range(3):
        upload(server, device, device_histogram(s, device), START + WEEK + 60)
    server.maintenance(START + WEEK + GRACE + 1)
    total = exact_sum(s, [device_histogram(s, device) for device in range(3)])
    assert server.releases["trips/2024-W20"].histogram == total


@pytest.mark.parametrize(
    "overrides",
    [{"num_windows": 0}, {"grace_period": -1}, {"min_contributions": -1}],
)
def test_task_config_bounds(overrides):
    with pytest.raises(ValueError):
        make_task(schema(), **overrides)


# --- check-in and tokens ------------------------------------------------------


def test_windows_open_at_their_end_and_close_after_grace():
    server, s = make_server()
    server.register_task(make_task(s, num_windows=1), now=START)
    end = START + WEEK
    assert server.check_in(1, now=end - 1) == []
    assert len(server.check_in(1, now=end)) == 1
    assert len(server.check_in(1, now=end + GRACE)) == 1
    assert server.check_in(1, now=end + GRACE + 1) == []


def test_check_ins_take_their_windows_from_the_tick_they_happen_in():
    server, s = make_server()
    server.register_task(make_task(s, num_windows=1), now=START)
    end = START + WEEK
    # Outside every window: the check-in is logged, and nothing else happens.
    assert server.check_in(1, now=end - 1) == []
    assert [e["event"] for e in server.events[1:]] == ["check_in"]
    assert server.sessions == {}
    # Open from the window's end through its release deadline, both inclusive.
    for now in (end, end + GRACE):
        mark = len(server.events)
        (a,) = server.check_in(1, now=now)
        assert a.window_id == "2024-W20"
        kinds = [e["event"] for e in server.events[mark:]]
        assert kinds == ["check_in"] + ["session_created"] * (now == end) + ["assignment"]
    # A task registered between two check-ins at one instant is seen by the second.
    server.register_task(
        make_task(s, query_id="late", num_windows=1, grace_period=GRACE + 1), now=START
    )
    assert [a.query_id for a in server.check_in(2, now=end + GRACE)] == ["trips", "late"]
    # Sealing needs the clock past the deadline, so the sealed session is met
    # again only by a check-in back at the deadline; it grants no token.
    server.maintenance(now=end + GRACE + 1)
    assert server.sessions["trips/2024-W20"].state == "suppressed"
    mark = len(server.events)
    assert [a.query_id for a in server.check_in(3, now=end + GRACE)] == ["late"]
    assert [e["event"] for e in server.events[mark:]] == ["check_in", "assignment"]
    assert server.events[-1]["session_id"] == "late/2024-W20"


def test_every_check_in_mints_a_fresh_token():
    server, s = make_server()
    server.register_task(make_task(s, num_windows=1), now=START)
    first = server.check_in(1, now=START + WEEK)[0]
    second = server.check_in(1, now=START + WEEK)[0]
    assert first.token != second.token
    assert first.session_id == second.session_id == "trips/2024-W20"


def test_tokens_are_unique_at_one_instant_and_across_sessions():
    """One device checking in twice at one instant, into three open
    sessions, gets six distinct 128-bit tokens, each held by its session
    for that device until it is used."""
    server, s = make_server()
    server.register_task(make_task(s, num_windows=3, grace_period=3 * WEEK), now=START)
    now = START + 3 * WEEK
    assignments = server.check_in(7, now) + server.check_in(7, now)
    tokens = [a.token for a in assignments]
    assert len(set(tokens)) == len(tokens) == 6
    assert all(len(bytes.fromhex(token)) == 16 for token in tokens)
    assert len({a.session_id for a in assignments}) == 3
    for a in assignments:
        assert server.sessions[a.session_id].tokens[a.token] == {"device_id": 7, "consumed": False}
    # The same seed mints the same tokens; another seed, others.
    again, other = FederatedServer(s, seed=0), FederatedServer(s, seed=1)
    for twin in (again, other):
        twin.register_task(make_task(s, num_windows=3, grace_period=3 * WEEK), now=START)
    assert [a.token for a in again.check_in(7, now) + again.check_in(7, now)] == tokens
    assert not set(tokens) & {a.token for a in other.check_in(7, now)}


# Each case of a batched check-in, and how many sessions grant a token in it.
CHECK_IN_CASES = {"no_window": 0, "one_window": 1, "daily": 3, "suppressed": 1}


def check_in_case(case):
    """A server set up for ``case``, and the clock its check-ins come at:
    no window open; one; three daily windows; or a suppressed session
    (met again by a clock back at its deadline) beside a collecting one."""
    server, s = make_server()
    end = START + WEEK
    if case == "daily":
        task = make_task(s, window_alignment=WindowAlignment.DAY, num_windows=7)
        server.register_task(task, now=START)
        return server, START + 3 * 86_400
    server.register_task(make_task(s, num_windows=1), now=START)
    if case == "no_window":
        return server, end - 1
    if case == "suppressed":
        late = make_task(s, query_id="late", num_windows=1, grace_period=GRACE + 1)
        server.register_task(late, now=START)
        server.check_in(0, now=end)
        server.maintenance(now=end + GRACE + 1)
        assert server.sessions["trips/2024-W20"].state == "suppressed"
        return server, end + GRACE
    return server, end


def granted_sessions(grants):
    """Each device's grants as (query, window, session), token values aside."""
    return [(i, [(a.query_id, a.window_id, a.session_id) for a in g]) for i, g in grants if g]


@settings(max_examples=20, deadline=None)
@given(ids=st.lists(st.integers(min_value=0, max_value=2**40), max_size=6))
@example(ids=[])
@pytest.mark.parametrize("case", sorted(CHECK_IN_CASES))
def test_batched_check_ins_match_per_device_check_ins(case, ids):
    (one, now), (many, _) = check_in_case(case), check_in_case(case)
    singly = [(i, one.check_in(i, now)) for i in ids]
    batched = list(many.check_in_many(ids, now))
    assert list(many.event_log_lines()) == list(one.event_log_lines())
    assert [i for i, _ in batched] == ([] if case == "no_window" else ids)
    assert all(len(grants) == CHECK_IN_CASES[case] for _, grants in batched)
    assert granted_sessions(batched) == granted_sessions(singly)
    tokens = [a.token for _, g in batched for a in g]
    assert len(set(tokens)) == len(tokens)
    assert many._mint.minted == one._mint.minted  # one token per grant
    for i, grants in batched:
        for a in grants:
            assert many.sessions[a.session_id].tokens[a.token] == {"device_id": i, "consumed": False}


def test_overlapping_windows_get_separate_sessions():
    server, s = make_server()
    server.register_task(
        make_task(s, num_windows=3, grace_period=3 * WEEK), now=START
    )
    assignments = server.check_in(1, now=START + 3 * WEEK)
    assert [a.session_id for a in assignments] == [
        "trips/2024-W20",
        "trips/2024-W21",
        "trips/2024-W22",
    ]
    nodes = [
        server.sessions[a.session_id].node for a in assignments
    ]
    assert nodes == [0, 1, 2]  # least-loaded placement, ties take lowest


# --- uploads ---------------------------------------------------------------------


def test_upload_is_accepted_and_logged():
    server, s = make_server()
    server.register_task(make_task(s), now=START)
    upload(server, 1, device_histogram(s, 1), now=START + WEEK)
    session = server.sessions["trips/2024-W20"]
    assert session.uploads_accepted == 1
    (event,) = events_named(server, "upload_accepted")
    assert event["device_id"] == 1
    assert "payload_digest" in event


def test_unknown_token_is_rejected():
    server, s = make_server()
    server.register_task(make_task(s), now=START)
    server.check_in(1, now=START + WEEK)
    with pytest.raises(InvalidTokenError):
        server.ingest_upload(
            ClientUpdate("trips", "2024-W20", "deadbeef", ()), now=START + WEEK
        )
    (event,) = events_named(server, "upload_rejected")
    assert event["reason"] == "invalid_token"


def test_token_replay_is_rejected():
    server, s = make_server()
    server.register_task(make_task(s), now=START)
    a = server.check_in(1, now=START + WEEK)[0]
    rows = tuple(histogram_to_rows(block_of(s, [device_histogram(s, 1)]), a.window_id, SPEC))
    update = ClientUpdate(a.query_id, a.window_id, a.token, rows)
    server.ingest_upload(update, now=START + WEEK)
    with pytest.raises(TokenReplayError):
        server.ingest_upload(update, now=START + WEEK)
    assert server.sessions[a.session_id].uploads_accepted == 1
    assert events_named(server, "upload_rejected")[0]["reason"] == "token_replay"


def test_upload_after_deadline_is_rejected_and_burns_the_token():
    server, s = make_server()
    server.register_task(make_task(s), now=START)
    a = server.check_in(1, now=START + WEEK + GRACE)[0]
    rows = tuple(histogram_to_rows(block_of(s, [device_histogram(s, 1)]), a.window_id, SPEC))
    update = ClientUpdate(a.query_id, a.window_id, a.token, rows)
    late = START + WEEK + GRACE + 1
    with pytest.raises(SessionClosedError):
        server.ingest_upload(update, now=late)
    with pytest.raises(TokenReplayError):
        server.ingest_upload(update, now=late)
    assert events_named(server, "upload_rejected")[0]["reason"] == "session_closed"


MALFORMED_ROWS = {
    "wrong_width": (("key", (1.0,)),),
    "scalar_values": (("key", 5.0),),
    "no_values": (("key", None),),
    "no_rows": None,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
def test_malformed_upload_burns_the_token_but_not_the_state(case):
    server, s = make_server()
    server.register_task(make_task(s), now=START)
    good = server.check_in(2, now=START + WEEK)[0]
    upload_rows = tuple(
        histogram_to_rows(block_of(s, [device_histogram(s, 2)]), good.window_id, SPEC)
    )
    server.ingest_upload(
        ClientUpdate(good.query_id, good.window_id, good.token, upload_rows), START + WEEK
    )
    session = server.sessions[good.session_id]
    before = [core.serialize_state() for core in session.shards]
    a = server.check_in(1, now=START + WEEK)[0]
    bad = ClientUpdate(a.query_id, a.window_id, a.token, MALFORMED_ROWS[case])
    with pytest.raises(MalformedUpdateError):
        server.ingest_upload(bad, now=START + WEEK)
    assert session.uploads_accepted == 1
    assert [core.serialize_state() for core in session.shards] == before
    with pytest.raises(TokenReplayError):
        server.ingest_upload(bad, now=START + WEEK)
    assert events_named(server, "upload_rejected")[0]["reason"] == "malformed"


# Each defect rewrites the parts of a valid key (activity, region,
# direction, window) into a key the codec cannot decode into a partition.
MALFORMED_KEYS = {
    "too_few_parts": lambda parts: parts[:-1],
    "too_many_parts": lambda parts: parts + ["0"],
    "non_integer_part": lambda parts: ["one"] + parts[1:],
    "index_outside_schema": lambda parts: [parts[0], "4"] + parts[2:],
    "negative_index": lambda parts: ["-1"] + parts[1:],
    "other_window": lambda parts: parts[:-1] + ["2024-W21"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_KEYS))
def test_a_malformed_key_is_rejected_and_the_window_releases_the_rest(case):
    server, s = make_server(num_shards=2)
    server.register_task(make_task(s, num_windows=1), now=START)
    now = START + WEEK
    for device in range(3):
        upload(server, device, device_histogram(s, device), now)
    a = server.check_in(3, now)[0]
    rows = histogram_to_rows(block_of(s, [device_histogram(s, 3)]), a.window_id, SPEC)
    key, values = rows[0]
    bad_key = KEY_SEPARATOR.join(MALFORMED_KEYS[case](key.split(KEY_SEPARATOR)))
    bad = ClientUpdate(a.query_id, a.window_id, a.token, ((bad_key, values), *rows[1:]))
    session = server.sessions[a.session_id]
    before = [core.serialize_state() for core in session.shards]
    with pytest.raises(MalformedUpdateError):
        server.ingest_upload(bad, now)
    assert [core.serialize_state() for core in session.shards] == before
    assert events_named(server, "upload_rejected")[0]["reason"] == "malformed"
    with pytest.raises(TokenReplayError):
        server.ingest_upload(bad, now)
    for device in range(4, 6):
        upload(server, device, device_histogram(s, device), now)
    server.maintenance(now=START + WEEK + GRACE + 1)
    release = server.releases["trips/2024-W20"]
    good = [device_histogram(s, d) for d in (0, 1, 2, 4, 5)]
    assert release.histogram == exact_sum(s, good)
    assert events_named(server, "release_suppressed") == []


def bounded_mechanism(s, variant=VARIANT_JOINT, **parameters):
    """A noised mechanism (epsilon 2) with every bound given, not calibrated:
    by default joint clipping at 10."""
    parameters = parameters or {"clip": 10.0}
    return resolve_mechanism(MechanismConfig(variant=variant, epsilon=2.0, **parameters), [], s)


BOUNDS = {
    "joint": (VARIANT_JOINT, {"clip": 10.0}),
    "scaling": (VARIANT_SCALED, {"clip": 10.0, "scale_table": ((2.0,) * 3,) * 3}),
    "split": (VARIANT_SPLIT, {"clip_table": ((10.0,) * 3,) * 3}),
}

# Upload cells, as uploaded (scaled for scaling), and the variants that take them.
BOUND_CASES = [
    ({(0, 0, 1, 0): 4.0, (0, 2, 1, 0): 6.0}, {"joint", "scaling", "split"}),
    ({(2, 1, 3, 0): 10.0}, {"joint", "scaling", "split"}),
    ({(2, 1, 3, 0): math.nextafter(10.0, math.inf)}, set()),
    ({(1, 1, 2, 0): 1e6}, set()),
    ({(0, 1, 1, 0): 1e308, (0, 1, 1, 1): 1e308}, set()),  # a norm past the largest float
    # Three slices at their bound: within budget split's, over the joint one.
    ({(0, 0, 1, 0): 10.0, (0, 1, 1, 0): -10.0, (1, 2, 1, 0): 10.0}, {"split"}),
]


@pytest.mark.parametrize("case", sorted(BOUNDS))
def test_uploads_over_the_l1_bound_are_malformed(case):
    variant, parameters = BOUNDS[case]
    server, s = make_server()
    mechanism = bounded_mechanism(s, variant, **parameters)
    server.register_task(make_task(s, num_windows=1, mechanism=mechanism), now=START)
    now = START + WEEK
    server.check_in(99, now)  # opens the session
    session = server.sessions["trips/2024-W20"]
    for device, (cells, takers) in enumerate(BOUND_CASES):
        accepted = session.uploads_accepted
        before = [core.serialize_state() for core in session.shards]
        if case in takers:
            upload(server, device, IndexedHistogram(s, cells), now)
            assert session.uploads_accepted == accepted + 1
            continue
        with pytest.raises(MalformedUpdateError):
            upload(server, device, IndexedHistogram(s, cells), now)
        assert session.uploads_accepted == accepted
        assert [core.serialize_state() for core in session.shards] == before
        assert events_named(server, "upload_rejected")[-1]["reason"] == "malformed"
    takes = sum(case in takers for _, takers in BOUND_CASES)
    assert len(events_named(server, "upload_rejected")) == len(BOUND_CASES) - takes


# Each defect rewrites a valid upload's rows, ((key, values), ...) with
# every value inside both bounds of BOUNDS below, into rows the one-pass
# check must refuse.
DEFECTS = {
    "wrong_key": lambda rows: ((rows[0][0].replace("2024-W20", "2024-W21"), rows[0][1]),),
    "wrong_width": lambda rows: ((rows[0][0], rows[0][1][:2]),),
    "nan_value": lambda rows: ((rows[0][0], (math.nan, 0.0, 0.0)),),
    "infinite_value": lambda rows: ((rows[0][0], (0.0, -math.inf, 0.0)),),
    "bool_value": lambda rows: ((rows[0][0], (True, 0.0, 0.0)),),
    "over_bound": lambda rows: ((rows[0][0], (0.0, 0.0, 11.0)),),
    # Earlier rows valid, the last one short: nothing of the upload is summed.
    "short_last_row": lambda rows: (rows[0], ("1" + rows[0][0][1:], rows[0][1][:2])),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
@pytest.mark.parametrize("case", ["joint", "split"])
def test_one_pass_refuses_each_defect_and_leaves_the_cores_alone(case, defect):
    variant, parameters = BOUNDS[case]
    server, s = make_server(num_shards=1)
    mechanism = bounded_mechanism(s, variant, **parameters)
    server.register_task(make_task(s, num_windows=1, mechanism=mechanism), now=START)
    now = START + WEEK
    upload(server, 0, IndexedHistogram(s, {(1, 0, 2, 0): 1.0, (1, 2, 2, 0): 4.0}), now)
    session = server.sessions["trips/2024-W20"]
    before = [core.serialize_state() for core in session.shards]
    a = server.check_in(1, now)[0]
    rows = histogram_to_rows(
        block_of(s, [{(0, 0, 1, 0): 1.0, (0, 1, 1, 0): 2.0}]), a.window_id, SPEC
    )
    with pytest.raises(MalformedUpdateError):
        server.ingest_upload(
            ClientUpdate(a.query_id, a.window_id, a.token, DEFECTS[defect](rows)), now
        )
    assert session.uploads_accepted == 1
    assert [core.serialize_state() for core in session.shards] == before
    (rejected,) = events_named(server, "upload_rejected")
    assert rejected["reason"] == "malformed"
    # The same rows, as they were, are accepted.
    b = server.check_in(2, now)[0]
    server.ingest_upload(ClientUpdate(b.query_id, b.window_id, b.token, tuple(rows)), now)
    assert session.uploads_accepted == 2


# The wire of ``schema()``'s sessions: a 2-byte partition index of 36, then
# the three metrics.
NUM_PARTITIONS = 36
RECORD = struct.Struct("<H3d")

# Each defect rewrites a valid payload's sorted (index, values) rows, every
# value in [0, 0.1], into bytes the reader must refuse; the mechanism is
# joint clipping at 10 unless the case names another.
BYTE_DEFECTS = {
    "truncated": lambda data, rows, k: data[: len(data) - 1 - k % (RECORD.size - 1)],
    "ragged_length": lambda data, rows, k: data + bytes(1 + k % (RECORD.size - 1)),
    "repeated_index": lambda data, rows, k: records([rows[0], *rows]),
    "falling_index": lambda data, rows, k: records(
        [(rows[0][0] + 1, rows[0][1]), (rows[0][0], rows[0][1])]
    ),
    "index_out_of_range": lambda data, rows, k: records(
        [*rows[:-1], (NUM_PARTITIONS + k % (2**16 - NUM_PARTITIONS), rows[-1][1])]
    ),
    "nan": lambda data, rows, k: records([(rows[0][0], (0.0, math.nan, 0.0)), *rows[1:]]),
    "infinity": lambda data, rows, k: records([(rows[0][0], (math.inf, 0.0, 0.0)), *rows[1:]]),
    "minus_infinity": lambda data, rows, k: records(
        [*rows[:-1], (rows[-1][0], (0.0, 0.0, -math.inf))]
    ),
    "norm_overflows_a_finite_bound": lambda data, rows, k: records(
        [(rows[0][0], (1e308, -1e308, 0.0)), *rows[1:]]
    ),
    "norm_overflows_an_infinite_bound": lambda data, rows, k: records(
        [(rows[0][0], (1e308, -1e308, 0.0)), *rows[1:]]
    ),
    "empty": lambda data, rows, k: b"",
    "slice_over_its_bound": lambda data, rows, k: records(
        [(rows[0][0], (1.5, 0.0, 0.0)), *rows[1:]]
    ),
}
BYTE_DEFECT_MECHANISMS = {
    "norm_overflows_an_infinite_bound": lambda s: exact_mechanism(s),
    # Budget split at 1 per slice: the joint norm, at most 3, is not what binds.
    "slice_over_its_bound": lambda s: bounded_mechanism(s, VARIANT_SPLIT, clip_table=((1.0,) * 3,) * 3),
}


def records(rows) -> bytes:
    """The payload of ``(flat index, values)`` rows, in the given order."""
    return b"".join(RECORD.pack(index, *values) for index, values in rows)


valid_rows = st.lists(
    st.tuples(
        st.integers(0, NUM_PARTITIONS - 2),
        st.tuples(*[st.floats(0.0, 0.1)] * 3),
    ),
    min_size=1,
    max_size=5,
    unique_by=lambda row: row[0],
).map(sorted)


@settings(max_examples=60, deadline=None)
@given(valid_rows, st.sampled_from(sorted(BYTE_DEFECTS)), st.integers(0, 2**16))
def test_malformed_bytes_are_refused_leave_the_cores_and_burn_the_token(rows, defect, k):
    server, s = make_server(num_shards=2)
    mechanism = BYTE_DEFECT_MECHANISMS.get(defect, bounded_mechanism)(s)
    server.register_task(make_task(s, num_windows=1, mechanism=mechanism), now=START)
    now = START + WEEK
    good = server.check_in(0, now)[0]
    server.ingest_upload(ClientUpdate(good.query_id, good.window_id, good.token, records(rows)), now)
    session = server.sessions[good.session_id]
    assert session.wire.size == RECORD.size
    before = [core.serialize_state() for core in session.shards]
    a = server.check_in(1, now)[0]
    bad = ClientUpdate(a.query_id, a.window_id, a.token, BYTE_DEFECTS[defect](records(rows), rows, k))
    with pytest.raises(MalformedUpdateError):
        server.ingest_upload(bad, now)
    assert session.uploads_accepted == 1
    assert [core.serialize_state() for core in session.shards] == before
    assert session.tokens[a.token]["consumed"]
    with pytest.raises(TokenReplayError):
        server.ingest_upload(bad, now)
    assert [e["reason"] for e in events_named(server, "upload_rejected")] == [
        "malformed",
        "token_replay",
    ]


ORACLE_MECHANISMS = {
    "joint": lambda s: bounded_mechanism(s),
    "split": lambda s: bounded_mechanism(s, VARIANT_SPLIT, clip_table=((3.0,) * 3,) * 3),
    "exact": lambda s: exact_mechanism(s),
}
WINDOW_KEYS = sorted(row_keys(SPEC, schema(), "2024-W20"))
clean_values = st.one_of(st.floats(-6.0, 6.0), st.sampled_from([0.0, -0.0, 3]))
oracle_values = st.one_of(
    clean_values,
    st.sampled_from([1e308, -1e308, math.nan, math.inf, -math.inf]),
    st.sampled_from([True, False, 10**400, "1", None]),
)
# Half the uploads are rows of finite numbers under the window's keys.
oracle_rows = st.one_of(
    st.lists(st.tuples(st.sampled_from(WINDOW_KEYS), st.tuples(*[clean_values] * 3)), max_size=4),
    st.lists(
        st.tuples(
            st.one_of(st.sampled_from(WINDOW_KEYS), st.sampled_from(["", "2024-W20", "0\x1f0"])),
            st.one_of(
                st.tuples(*[oracle_values] * 3),
                st.lists(oracle_values, min_size=2, max_size=4),
            ),
        ),
        max_size=4,
    ),
)


@settings(max_examples=150, deadline=None)
@given(oracle_rows, st.sampled_from(sorted(ORACLE_MECHANISMS)))
def test_the_byte_reader_accepts_what_the_row_check_accepted(rows, case):
    """Rows, through the adapter and the one reader, are accepted exactly
    when the old row check, row-key table and L1 bound accepted them,
    but for what the reader refuses on purpose: an empty upload, a key
    twice, and values whose ``|x|`` sum is beyond the floats."""
    server, s = make_server()
    mechanism = ORACLE_MECHANISMS[case](s)
    server.register_task(make_task(s, num_windows=1, mechanism=mechanism), now=START)
    a = server.check_in(0, START + WEEK)[0]
    try:
        server.ingest_upload(ClientUpdate(a.query_id, a.window_id, a.token, tuple(rows)), START + WEEK)
        accepted = True
    except MalformedUpdateError:
        accepted = False
    keys = row_keys(SPEC, s, "2024-W20")
    expected = reference_upload_check(rows, keys, 3, mechanism, SPEC.metrics, s)
    if expected:
        try:
            finite = math.fsum(abs(v) for _, values in rows for v in values) < math.inf
        except OverflowError:
            finite = False
        expected = finite and len(rows) > 0 and len({key for key, _ in rows}) == len(rows)
    assert accepted == expected


def test_budget_split_holds_each_slice_to_its_own_bound():
    server, s = make_server()
    table = tuple(tuple(float(1 + 3 * a + m) for m in range(3)) for a in range(3))
    mechanism = bounded_mechanism(s, VARIANT_SPLIT, clip_table=table)
    server.register_task(make_task(s, num_windows=1, mechanism=mechanism), now=START)
    now = START + WEEK
    # Every slice of activities 1 and 2 at its own bound, half in each of two regions.
    at_bound = {(a, m, r, 0): table[a][m] / 2 for a in (1, 2) for m in range(3) for r in (0, 1)}
    upload(server, 0, IndexedHistogram(s, at_bound), now)
    with pytest.raises(MalformedUpdateError):
        upload(server, 1, IndexedHistogram(s, {(2, 0, 1, 0): math.nextafter(7.0, math.inf)}), now)
    assert server.sessions["trips/2024-W20"].uploads_accepted == 1


def test_an_int_too_large_for_a_float_is_malformed():
    # With no bound to check, the value reaches the finiteness test.
    server, s = make_server()
    server.register_task(make_task(s, num_windows=1), now=START)  # clip = inf
    a = server.check_in(0, START + WEEK)[0]
    rows = histogram_to_rows(block_of(s, [{(0, 0, 1, 0): 1.0}]), a.window_id, SPEC)
    ((key, values),) = rows
    bad = ClientUpdate(a.query_id, a.window_id, a.token, ((key, (10**400, *values[1:])),))
    with pytest.raises(MalformedUpdateError):
        server.ingest_upload(bad, START + WEEK)
    assert events_named(server, "upload_rejected")[0]["reason"] == "malformed"


def test_an_infinite_clip_refuses_no_upload():
    server, s = make_server()
    server.register_task(make_task(s, num_windows=1), now=START)  # clip = inf
    upload(server, 0, IndexedHistogram(s, {(1, 1, 2, 0): 1e300}), START + WEEK)
    assert events_named(server, "upload_rejected") == []


def test_two_huge_uploads_leave_the_release_intact():
    """Two accepted uploads of 1e308 would overflow the exact sum, and the
    window would be suppressed; over the bound, both are refused and the
    window releases the rest."""
    server, s = make_server(num_shards=1)
    server.register_task(make_task(s, num_windows=1, mechanism=bounded_mechanism(s)), now=START)
    now = START + WEEK
    upload(server, 0, IndexedHistogram(s, {(0, 0, 1, 0): 3.0}), now)
    for device in (1, 2):
        with pytest.raises(MalformedUpdateError):
            upload(server, device, IndexedHistogram(s, {(0, 1, 1, 0): 1e308}), now)
    server.maintenance(now=START + WEEK + GRACE + 1)
    release = server.releases["trips/2024-W20"]
    assert isinstance(release, NoisedRelease)
    assert np.isfinite(release.values).all()
    assert [e["reason"] for e in events_named(server, "upload_rejected")] == ["malformed"] * 2
    assert events_named(server, "release")[0]["window_id"] == "2024-W20"


@pytest.mark.parametrize(
    "config, huge",
    [
        ({"num_shards": 1}, 2),  # the second upload overflows its shard
        ({"num_shards": 2}, 2),  # each shard holds one; their merge overflows
        ({"num_shards": 1, "checkpoint_batch": 1, "rollup_interval": 3600}, 3),
    ],
    ids=["one_shard", "merged_shards", "checkpoints_and_rollups"],
)
def test_an_exact_window_whose_sum_overflows_is_suppressed(config, huge):
    """An infinite clip refuses no finite upload, so uploads of 1e308 are
    accepted; the window whose exact sum overflows is sealed as suppressed,
    with its reason logged, and the run goes on."""
    server, s = make_server(**config)
    server.register_task(make_task(s), now=START)  # clip = inf
    upload(server, 0, device_histogram(s, 0), START + WEEK)
    for device in range(1, 1 + huge):
        upload(server, device, IndexedHistogram(s, {(0, 1, 1, 0): 1e308}), START + WEEK + 60)
    server.maintenance(now=START + WEEK + 3600)
    server.maintenance(now=START + WEEK + GRACE + 1)
    assert server.releases["trips/2024-W20"] == SuppressedRelease("2024-W20", "overflow")
    (event,) = events_named(server, "release_suppressed")
    assert (event["reason"], event["contributions"]) == ("overflow", 1 + huge)
    assert server.sessions["trips/2024-W20"].state == "suppressed"
    upload(server, 0, device_histogram(s, 0), START + 2 * WEEK)
    server.maintenance(now=START + 2 * WEEK + GRACE + 1)
    release = server.releases["trips/2024-W21"]
    assert release.histogram == exact_sum(s, [device_histogram(s, 0)])


def test_upload_after_release_is_rejected():
    server, s = make_server()
    server.register_task(make_task(s, num_windows=1), now=START)
    deadline = START + WEEK + GRACE
    a = server.check_in(1, now=deadline)[0]
    server.maintenance(now=deadline + 1)
    rows = tuple(histogram_to_rows(block_of(s, [device_histogram(s, 1)]), a.window_id, SPEC))
    with pytest.raises(SessionClosedError):
        server.ingest_upload(
            ClientUpdate(a.query_id, a.window_id, a.token, rows), now=deadline + 1
        )


@pytest.mark.parametrize(
    "min_contributions, state", [(1, "released"), (2, "suppressed")]
)
def test_a_sealed_session_drops_its_key_table_and_cores(min_contributions, state):
    server, s = make_server()
    task = make_task(s, num_windows=1, min_contributions=min_contributions)
    server.register_task(task, now=START)
    deadline = START + WEEK + GRACE
    upload(server, 0, device_histogram(s, 0), START + WEEK + 60)
    a = server.check_in(1, now=deadline)[0]
    session = server.sessions[a.session_id]
    assert len(session.keys.names) == s.num_activities * s.num_regions * s.num_directions
    server.maintenance(now=deadline + 1)
    assert session.state == state
    assert (session.keys, session.wire, session.shards) == (None, None, [])
    rows = tuple(histogram_to_rows(block_of(s, [device_histogram(s, 1)]), a.window_id, SPEC))
    with pytest.raises(SessionClosedError):
        server.ingest_upload(
            ClientUpdate(a.query_id, a.window_id, a.token, rows), now=deadline + 1
        )
    assert events_named(server, "upload_rejected")[-1]["reason"] == "session_closed"


# --- checkpoints, roll-ups, expiry --------------------------------------------


def test_full_shards_checkpoint_to_partials():
    server, s = make_server(num_shards=1, checkpoint_batch=2)
    server.register_task(make_task(s), now=START)
    for device in range(4):
        upload(server, device, device_histogram(s, device), now=START + WEEK)
    checkpoints = events_named(server, "checkpoint")
    assert [e["partial_id"] for e in checkpoints] == [
        "trips/2024-W20#p0",
        "trips/2024-W20#p1",
    ]
    assert all(e["contributions"] == 2 for e in checkpoints)


def test_rollup_folds_level0_partials_into_one():
    server, s = make_server(num_shards=1, checkpoint_batch=1, rollup_interval=3600)
    server.register_task(make_task(s), now=START)
    for device in range(3):
        upload(server, device, device_histogram(s, device), now=START + WEEK)
    server.maintenance(now=START + WEEK + 3600)
    (rollup,) = events_named(server, "rollup")
    assert rollup["level"] == 1
    assert rollup["contributions"] == 3
    session = server.sessions["trips/2024-W20"]
    assert [p.level for p in session.partials] == [1]
    # Nothing new to fold: a later sweep stays quiet.
    server.maintenance(now=START + WEEK + 7200)
    assert len(events_named(server, "rollup")) == 1


def held_state(core):
    """A core's staged values and the most exact terms any one cell holds."""
    sums = core._sum
    return len(sums._staged), int(np.bincount(sums._cells).max(initial=0))


def test_checkpointed_and_rolled_up_partials_hold_only_folded_terms():
    """A partial keeps no device's rows, only each cell's exact terms: one
    per level of the split, two for these well-scaled values."""
    server, s = make_server(num_shards=1, checkpoint_batch=2, rollup_interval=3600)
    server.register_task(make_task(s), now=START)
    for device in range(6):
        upload(server, device, device_histogram(s, device), now=START + WEEK)
    session = server.sessions["trips/2024-W20"]
    assert [p.level for p in session.partials] == [0, 0, 0]
    for partial in session.partials:
        staged, terms = held_state(partial.core)
        assert staged == 0 and 1 <= terms <= 2
    server.maintenance(now=START + WEEK + 3600)
    (rolled,) = session.partials
    assert rolled.level == 1 and rolled.core.contribution_count == 6
    staged, terms = held_state(rolled.core)
    assert staged == 0 and 1 <= terms <= 2


def test_expired_partials_drop_their_contributions():
    server, s = make_server(
        num_shards=1,
        checkpoint_batch=1,
        partial_ttl_level0=3600,
        rollup_interval=10 * WEEK,
    )
    server.register_task(make_task(s, num_windows=1), now=START)
    for device in range(3):
        upload(server, device, device_histogram(s, device), now=START + WEEK)
    server.maintenance(now=START + WEEK + 3601)
    expired = events_named(server, "partial_expired")
    assert len(expired) == 3
    assert sum(e["contributions_lost"] for e in expired) == 3
    server.maintenance(now=START + WEEK + GRACE + 1)
    release = server.releases["trips/2024-W20"]
    assert isinstance(release, SuppressedRelease)


# --- release ---------------------------------------------------------------------


def test_release_happens_strictly_after_the_grace_deadline():
    server, s = make_server()
    server.register_task(make_task(s, num_windows=1), now=START)
    upload(server, 1, device_histogram(s, 1), now=START + WEEK)
    deadline = START + WEEK + GRACE
    server.maintenance(now=deadline)
    assert server.releases == {}
    server.maintenance(now=deadline + 1)
    assert "trips/2024-W20" in server.releases
    server.maintenance(now=deadline + 7200)
    assert len(events_named(server, "release")) == 1


def test_quiet_windows_release_a_suppression_marker():
    server, s = make_server()
    server.register_task(make_task(s, num_windows=1), now=START)
    server.maintenance(now=START + WEEK + GRACE + 1)
    release = server.releases["trips/2024-W20"]
    assert isinstance(release, SuppressedRelease)
    assert release.reason == "insufficient_contributions"
    (event,) = events_named(server, "release_suppressed")
    assert event["contributions"] == 0


def test_contribution_gate_counts_devices():
    server, s = make_server()
    server.register_task(make_task(s, num_windows=1, min_contributions=2), now=START)
    upload(server, 1, device_histogram(s, 1), now=START + WEEK)
    server.maintenance(now=START + WEEK + GRACE + 1)
    release = server.releases["trips/2024-W20"]
    assert isinstance(release, SuppressedRelease)
    session = server.sessions["trips/2024-W20"]
    assert session.state == "suppressed"


def test_noiseless_release_equals_the_exact_sum_of_uploads():
    server, s = make_server(num_shards=3, checkpoint_batch=4, rollup_interval=3600)
    server.register_task(make_task(s, num_windows=1), now=START)
    for device in range(25):
        upload(server, device, device_histogram(s, device), now=START + WEEK + device * 60)
    server.maintenance(now=START + WEEK + 3600 * 12)  # mid-flight rollup
    for device in range(25, 40):
        upload(server, device, device_histogram(s, device), now=START + WEEK + 3600 * 13)
    server.maintenance(now=START + WEEK + GRACE + 1)
    release = server.releases["trips/2024-W20"]
    assert release.histogram == exact_sum(s, [device_histogram(s, d) for d in range(40)])
    (event,) = events_named(server, "release")
    assert event["released_partitions"] == len(release.histogram)
    assert event["suppressed_partitions"] == 0


def test_released_sessions_stop_handing_out_tokens():
    server, s = make_server()
    server.register_task(make_task(s, num_windows=1), now=START)
    upload(server, 1, device_histogram(s, 1), now=START + WEEK)
    server.maintenance(now=START + WEEK + GRACE + 1)
    # The window is outside grace now, so check-in yields nothing either way.
    assert server.check_in(2, now=START + WEEK + GRACE + 2) == []


def test_the_released_array_is_the_rows_summed_with_negative_zero_as_zero(monkeypatch):
    server, s = make_server()
    server.register_task(make_task(s, num_windows=1), now=START)
    released = []
    finalize = ResolvedMechanism.finalize

    def seen(self, schema, aggregate, *args):
        released.append(aggregate.copy())
        return finalize(self, schema, aggregate, *args)

    monkeypatch.setattr(ResolvedMechanism, "finalize", seen)
    end = START + WEEK
    keys = list(row_keys(SPEC, s, "2024-W20"))
    uploads = [
        ((keys[7], (-0.0, 2.5, -1.0)), (keys[30], (1.0, -0.0, 0.0))),
        ((keys[7], (-0.0, -2.5, 3.0)), (keys[11], (0.5, 0.25, -0.0))),
    ]
    for device, rows in enumerate(uploads):
        a = server.check_in(device, now=end)[0]
        server.ingest_upload(ClientUpdate(a.query_id, a.window_id, a.token, rows), now=end)
    server.maintenance(now=end + GRACE + 1)
    # The string-keyed decode, adding each nonzero value to its cell.
    expected = rows_to_histogram(
        [(keys[7], (-0.0, 0.0, 2.0)), (keys[30], (1.0, -0.0, 0.0)), (keys[11], (0.5, 0.25, -0.0))],
        SPEC,
        s,
        row_keys(SPEC, s, "2024-W20"),
    )
    (aggregate,) = released
    assert aggregate.tobytes() == expected.tobytes()
    assert not np.signbit(aggregate[aggregate == 0.0]).any()


# --- checkpoints -------------------------------------------------------------------


def test_full_shards_checkpoint_and_the_release_sums_every_upload():
    server, s = make_server(num_shards=1, checkpoint_batch=2)
    server.register_task(make_task(s, num_windows=1), now=START)
    for device in range(5):
        upload(server, device, device_histogram(s, device), now=START + WEEK)
    # Two full batches checkpointed; the fifth upload is still in flight.
    checkpoints = events_named(server, "checkpoint")
    assert [e["contributions"] for e in checkpoints] == [2, 2]
    server.maintenance(now=START + WEEK + GRACE + 1)
    release = server.releases["trips/2024-W20"]
    assert release.histogram == exact_sum(s, [device_histogram(s, d) for d in range(5)])
    # Sealing checkpoints the in-flight shard too.
    assert [e["contributions"] for e in events_named(server, "checkpoint")] == [2, 2, 1]


# --- event log --------------------------------------------------------------------


def test_event_log_lines_are_canonical_json():
    server, s = make_server()
    server.register_task(make_task(s), now=START)
    upload(server, 1, device_histogram(s, 1), now=START + WEEK)
    lines = server.event_log_lines()
    assert iter(lines) is lines  # made one line at a time, never all at once
    lines = list(lines)
    assert len(lines) == len(server.events)
    for line in lines:
        entry = json.loads(line)
        assert list(entry) == sorted(entry)
        assert {"t", "event"} <= set(entry)


def log_every_shape(server, s, ids):
    """Drive ``server``'s two-window task (one shard, checkpoints every 2
    uploads, hourly roll-ups, level-0 partials that live 30 min) through
    every shape of event the server logs; ``ids[i]`` is the i-th device's id."""
    end = START + WEEK
    for i in range(2):
        upload(server, ids[i], device_histogram(s, i), now=end)
    a = server.check_in(ids[2], now=end)[0]
    rows = tuple(histogram_to_rows(block_of(s, [device_histogram(s, 9)]), a.window_id, SPEC))
    with pytest.raises(InvalidTokenError):
        server.ingest_upload(ClientUpdate(a.query_id, a.window_id, "feed", rows), now=end)
    server.ingest_upload(ClientUpdate(a.query_id, a.window_id, a.token, rows), now=end)
    with pytest.raises(TokenReplayError):
        server.ingest_upload(ClientUpdate(a.query_id, a.window_id, a.token, rows), now=end)
    a = server.check_in(ids[3], now=end)[0]
    with pytest.raises(MalformedUpdateError):
        server.ingest_upload(
            ClientUpdate(a.query_id, a.window_id, a.token, MALFORMED_ROWS["wrong_width"]), end
        )
    for i in (4, 5):
        upload(server, ids[i], device_histogram(s, i), now=end + 2000)
    server.maintenance(now=end + 3600)  # the first partial expires, the second rolls up
    a = server.check_in(ids[6], now=end + GRACE)[0]
    with pytest.raises(SessionClosedError):
        server.ingest_upload(
            ClientUpdate(a.query_id, a.window_id, a.token, rows), now=end + GRACE + 1
        )
    server.maintenance(now=end + WEEK + GRACE + 1)  # W20 releases; W21 had no upload


def every_shape_server():
    return make_server(
        num_shards=1, checkpoint_batch=2, rollup_interval=3600, partial_ttl_level0=1800
    )


LOG_TEXT = st.text(
    st.sampled_from('"\\%/\x00\x1f\x7f\t\né€\u2028\ud800\udc00😀%s%d') | st.characters(),
    max_size=8,
)
LOG_INTS = st.integers() | st.sampled_from(
    [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64, -(10**30)]
)


@settings(max_examples=60, deadline=None)
@given(
    query_id=LOG_TEXT,
    people=st.lists(LOG_TEXT.filter(bool), min_size=2, max_size=2, unique=True),
    ids=st.lists(LOG_INTS, min_size=7, max_size=7),
    late=st.integers(min_value=0) | st.just(2**64),
)
def test_every_logged_shape_renders_as_json_dumps_renders_its_event(query_id, people, ids, late):
    # Adversarial text flows from the task into its session and partial ids;
    # device ids and a last clock value reach and pass int64.
    server, s = every_shape_server()
    task = make_task(s, query_id=query_id, submitted_by=people[0], approved_by=people[1])
    server.register_task(task, now=START)
    log_every_shape(server, s, ids)
    server.check_in(ids[0], now=START + 3 * WEEK + late)
    assert {row[0] for row in server._rows} == set(range(len(server_module._SHAPES)))
    lines = list(server.event_log_lines())
    assert lines == [json.dumps(server.events[i], sort_keys=True) for i in range(len(lines))]


def test_a_shape_takes_its_fields_in_sorted_order():
    shape = server_module._Shape("x%", a=int, b=str, c=list)
    assert shape.fmt == '{"a": %d, "b": %s, "c": %s, "event": "x%%"}'
    with pytest.raises(ValueError):
        server_module._Shape("x", t=int, device_id=int)
    with pytest.raises(ValueError):
        server_module._Shape("x", event=str)


def test_every_event_a_small_run_logs_renders_as_json_dumps():
    server, s = every_shape_server()
    oracle = dict_log(server)
    server.register_task(make_task(s), now=START)
    log_every_shape(server, s, range(7))
    events = oracle.events
    assert {e["event"] for e in events} == {
        "task_registered",
        "session_created",
        "check_in",
        "assignment",
        "upload_accepted",
        "upload_rejected",
        "checkpoint",
        "partial_expired",
        "rollup",
        "release",
        "release_suppressed",
    }
    assert {e["reason"] for e in events if e["event"] == "upload_rejected"} == {
        "invalid_token",
        "token_replay",
        "session_closed",
        "malformed",
    }
    view = server.events
    assert len(view) == len(events)
    assert list(view) == view[:] == events
    assert [view[i] for i in range(-len(view), len(view))] == events + events
    assert view[2:-3] == events[2:-3] and view[::-2] == events[::-2]
    assert list(server.event_log_lines()) == [
        json.dumps(event, sort_keys=True) for event in events
    ]
    with pytest.raises(IndexError):
        view[len(view)]
    with pytest.raises((AttributeError, TypeError)):
        view.append({"t": 1, "event": "x"})  # type: ignore[attr-defined]
    with pytest.raises(TypeError):
        view[0] = {"t": 1, "event": "x"}  # type: ignore[index]


# --- entry-point types ------------------------------------------------------------

# Each stands for a clock value or device id that is not an exact int.
NOT_INTS = {
    "bool": lambda n: True,
    "numpy_int": np.int64,
    "float": float,
    "numpy_float": np.float64,
}


@pytest.mark.parametrize("kind", sorted(NOT_INTS))
def test_register_task_refuses_a_clock_that_is_not_an_int(kind):
    server, s = make_server()
    with pytest.raises(TypeError, match="now"):
        server.register_task(make_task(s), now=NOT_INTS[kind](START))
    assert server.tasks == {} and len(server.events) == 0


@pytest.mark.parametrize("kind", sorted(NOT_INTS))
def test_check_in_refuses_a_device_id_or_clock_that_is_not_an_int(kind):
    server, s = make_server()
    server.register_task(make_task(s), now=START)
    end = START + WEEK
    with pytest.raises(TypeError, match="device_id"):
        server.check_in(NOT_INTS[kind](3), now=end)
    with pytest.raises(TypeError, match="now"):
        server.check_in(3, now=NOT_INTS[kind](end))
    assert len(server.events) == 1 and server.sessions == {}
    assert len(server.check_in(3, now=end)) == 1


@pytest.mark.parametrize("kind", sorted(NOT_INTS))
@pytest.mark.parametrize("offset", [-1, 0], ids=["no_window", "open_window"])
def test_check_in_many_refuses_a_device_id_or_clock_that_is_not_an_int(offset, kind):
    server, s = make_server()
    server.register_task(make_task(s), now=START)
    now = START + WEEK + offset
    with pytest.raises(TypeError, match="device_id"):
        server.check_in_many([1, NOT_INTS[kind](3), 2], now)
    with pytest.raises(TypeError, match="now"):
        server.check_in_many([1, 2], NOT_INTS[kind](now))
    with pytest.raises(TypeError, match="now"):
        server.check_in_many([], NOT_INTS[kind](now))
    assert len(server.events) == 1 and server.sessions == {} and server._mint.minted == 0
    assert len(list(server.check_in_many([1, 2], now))) == (0 if offset else 2)
    assert len(server.events) == 3 + (0 if offset else 3)


@pytest.mark.parametrize("kind", sorted(NOT_INTS))
def test_ingest_upload_refuses_a_clock_that_is_not_an_int(kind):
    server, s = make_server()
    server.register_task(make_task(s), now=START)
    end = START + WEEK
    a = server.check_in(1, now=end)[0]
    rows = tuple(histogram_to_rows(block_of(s, [device_histogram(s, 1)]), a.window_id, SPEC))
    update = ClientUpdate(a.query_id, a.window_id, a.token, rows)
    mark = len(server.events)
    with pytest.raises(TypeError, match="now"):
        server.ingest_upload(update, now=NOT_INTS[kind](end))
    assert len(server.events) == mark
    server.ingest_upload(update, now=end)  # the token was not spent
    assert server.events[-1]["event"] == "upload_accepted"


@pytest.mark.parametrize("kind", sorted(NOT_INTS))
def test_maintenance_refuses_a_clock_that_is_not_an_int(kind):
    server, s = make_server()
    server.register_task(make_task(s, num_windows=1), now=START)
    late = START + WEEK + GRACE + 1
    with pytest.raises(TypeError, match="now"):
        server.maintenance(NOT_INTS[kind](late))
    assert len(server.events) == 1 and server.releases == {}
    server.maintenance(late)
    assert server.releases["trips/2024-W20"].reason == "insufficient_contributions"


@pytest.mark.parametrize("kind", sorted(NOT_INTS))
@pytest.mark.parametrize(
    "name", ["first_window_start", "num_windows", "grace_period", "min_contributions"]
)
def test_a_task_refuses_a_window_setting_that_is_not_an_int(name, kind):
    s = schema()
    value = getattr(make_task(s), name)
    with pytest.raises(TypeError, match=name):
        make_task(s, **{name: NOT_INTS[kind](value)})
