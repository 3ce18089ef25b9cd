"""Mergeable grouped-sum cores: accumulation, merging, gating, payloads."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsum.aggcore import (
    AggCoreConfig,
    AggregationCore,
    ClientUpdate,
    CoreConsumedError,
    KEY_SEPARATOR,
    MalformedUpdateError,
    check_rows,
    decode_payload,
    encode_payload,
)

from helpers import naive_grouped_sums

CONFIG = AggCoreConfig(
    key_columns=("region", "privacy_time_unit"),
    value_columns=("n", "km"),
)


def rows_for(device: int):
    key = f"{device % 3}{KEY_SEPARATOR}2024-W20"
    return [(key, (1.0, 0.1 * device)), ("9" + KEY_SEPARATOR + "2024-W20", (2.0, 1.5))]


# --- configuration -------------------------------------------------------------


def test_value_columns_are_required():
    with pytest.raises(ValueError):
        AggCoreConfig(key_columns=("k",), value_columns=())


# --- accumulate -----------------------------------------------------------------


def test_count_tracks_accumulated_updates():
    core = AggregationCore(CONFIG)
    for device in range(8):
        core.accumulate(rows_for(device))
    assert core.contribution_count == 8


def test_merge_adds_counts():
    left = AggregationCore(CONFIG)
    right = AggregationCore(CONFIG)
    for device in range(8):
        left.accumulate(rows_for(device))
    for device in range(8, 13):
        right.accumulate(rows_for(device))
    left.merge(right)
    assert left.contribution_count == 13
    with pytest.raises(CoreConsumedError):
        right.report()


@pytest.mark.parametrize(
    "rows",
    [
        [("k", (float("nan"), 1.0))],
        [("k", (float("inf"), 1.0))],
        [("k", (True, 1.0))],
        [("k", ("9", 1.0))],
        [(7, (1.0, 2.0))],
        ["not-a-pair"],
        [("k", 5.0)],
        [("k", None)],
        [("k", {1.0: 1.0, 2.0: 2.0})],
        None,
        (row for row in [("k", (1.0, 2.0))]),
    ],
)
def test_bad_rows_are_rejected(rows):
    with pytest.raises(MalformedUpdateError):
        check_rows(rows, 2)


# --- merge ----------------------------------------------------------------------


def test_merging_an_empty_core_changes_nothing():
    core = AggregationCore(CONFIG)
    core.accumulate(rows_for(1))
    before = core.serialize_state()
    other = AggregationCore(CONFIG)
    core.merge(other)
    assert core.serialize_state() == before


def test_disjoint_merge_is_a_union():
    left = AggregationCore(CONFIG)
    right = AggregationCore(CONFIG)
    left.accumulate([("a", (1.0, 2.0))])
    right.accumulate([("b", (3.0, 4.0))])
    left.merge(right)
    assert left.report() == {"a": (1.0, 2.0), "b": (3.0, 4.0)}


def test_merge_requires_matching_configs():
    other_config = AggCoreConfig(key_columns=("k",), value_columns=("v",))
    core = AggregationCore(CONFIG)
    with pytest.raises(ValueError):
        core.merge(AggregationCore(other_config))


def test_split_accumulation_matches_sequential():
    sequential = AggregationCore(CONFIG)
    left = AggregationCore(CONFIG)
    right = AggregationCore(CONFIG)
    for device in range(10):
        sequential.accumulate(rows_for(device))
        (left if device < 5 else right).accumulate(rows_for(device))
    left.merge(right)
    assert left.serialize_state() == sequential.serialize_state()


# --- report ------------------------------------------------------------------------


def test_report_consumes_the_core():
    core = AggregationCore(CONFIG)
    core.accumulate(rows_for(0))
    core.report()
    for operation in (
        lambda: core.report(),
        lambda: core.accumulate(rows_for(1)),
        lambda: core.serialize_state(),
        lambda: core.merge(AggregationCore(CONFIG)),
    ):
        with pytest.raises(CoreConsumedError):
            operation()


def test_merge_consumes_the_source_core():
    left, right = AggregationCore(CONFIG), AggregationCore(CONFIG)
    right.accumulate(rows_for(0))
    left.merge(right)
    with pytest.raises(CoreConsumedError):
        right.accumulate(rows_for(1))
    with pytest.raises(CoreConsumedError):
        left.merge(right)


def test_report_keys_are_sorted():
    core = AggregationCore(AggCoreConfig(("k",), ("v",)))
    for key in ("zulu", "alpha", "mike"):
        core.accumulate([(key, (1.0,))])
    assert list(core.report()) == ["alpha", "mike", "zulu"]


def test_report_matches_a_brute_force_oracle():
    rng = random.Random(4)
    updates = [
        [
            (f"{rng.randrange(6)}{KEY_SEPARATOR}w", (rng.uniform(-1e9, 1e9), rng.random()))
            for _ in range(rng.randrange(1, 5))
        ]
        for _ in range(200)
    ]
    core = AggregationCore(CONFIG)
    for rows in updates:
        core.accumulate(rows)
    assert core.report() == naive_grouped_sums(updates)


# --- merge-tree invariance ----------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
def test_any_merge_tree_yields_identical_state(tree_seed):
    rng = random.Random(tree_seed)
    updates = [rows_for(device) for device in range(40)]
    reference = AggregationCore(CONFIG)
    for rows in updates:
        reference.accumulate(rows)

    shards = [AggregationCore(CONFIG) for _ in range(rng.randrange(2, 6))]
    order = list(updates)
    rng.shuffle(order)
    for rows in order:
        rng.choice(shards).accumulate(rows)
    while len(shards) > 1:
        rng.shuffle(shards)
        dst, src = shards[0], shards.pop()
        if dst is not src:
            dst.merge(src)
    assert shards[0].serialize_state() == reference.serialize_state()


# --- payload wire format --------------------------------------------------------------


def test_payload_round_trip():
    rows = [("a" + KEY_SEPARATOR + "w", (1.5, -2.0)), ("b" + KEY_SEPARATOR + "w", (0.25, 1e300))]
    data = encode_payload(rows)
    assert decode_payload(data, 2) == [(k, tuple(v)) for k, v in rows]


def test_client_update_encodes_its_rows():
    rows = (("k", (3.0, 4.0)),)
    update = ClientUpdate(query_id="q", window_id="w", token="t", rows=rows)
    assert update.encode() == encode_payload(list(rows))


def test_empty_payload_round_trips():
    assert decode_payload(encode_payload([]), 2) == []


def test_ragged_rows_cannot_be_encoded():
    with pytest.raises(MalformedUpdateError):
        encode_payload([("a", (1.0, 2.0)), ("b", (1.0,))])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda data: data[:-1],            # truncated trailing float
        lambda data: data + b"\x00",       # trailing bytes
        lambda data: b"\xff" * 12,          # varint runs off the end
    ],
)
def test_corrupted_payloads_are_rejected(mutate):
    data = encode_payload([("key", (1.0, 2.0))])
    with pytest.raises(MalformedUpdateError):
        decode_payload(mutate(data), 2)


def test_invalid_utf8_key_is_rejected():
    data = bytearray(encode_payload([("kk", (1.0,))]))
    data[2] = 0xFF  # first key byte
    with pytest.raises(MalformedUpdateError):
        decode_payload(bytes(data), 1)


@given(
    st.lists(
        st.tuples(
            st.text(max_size=8),
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False, width=64),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
            ),
        ),
        max_size=10,
    )
)
def test_arbitrary_rows_survive_the_wire(rows):
    decoded = decode_payload(encode_payload(rows), 2)
    assert decoded == [(k, tuple(v)) for k, v in rows]
