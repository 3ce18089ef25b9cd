"""Mergeable grouped-sum cores: accumulation, merging, gating, payloads."""

from __future__ import annotations

import random
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsum import exactsum
from fedsum.aggcore import (
    AggCoreConfig,
    AggregationCore,
    CoreConsumedError,
    KEY_SEPARATOR,
    KeyTable,
    MalformedUpdateError,
    Wire,
    decode_payload,
    encode_payload,
)

from helpers import named_sums, naive_grouped_sums, reference_serialize_state

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
        AggregationCore(CONFIG).merge(right)


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
    keys = {"k": 0}
    with pytest.raises(MalformedUpdateError):
        decode_payload(encode_payload(rows, keys, Wire(1, 2)), Wire(1, 2))


def test_key_ids_and_rows_accumulate_alike():
    table = KeyTable(["b", "a"])
    by_id, by_row = AggregationCore(CONFIG, table), AggregationCore(CONFIG)
    by_id.accumulate((0, 1), (1.0, 2.0, 3.0, 4.0))
    by_row.accumulate([("b", (1.0, 2.0)), ("a", (3.0, 4.0))])
    assert by_id.serialize_state() == by_row.serialize_state()
    assert named_sums(by_id) == named_sums(by_row) == {"a": (3.0, 4.0), "b": (1.0, 2.0)}


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
    assert named_sums(left) == {"a": (1.0, 2.0), "b": (3.0, 4.0)}


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


# --- present rows and consumption ---------------------------------------------------


def test_a_merged_core_is_consumed():
    core = AggregationCore(CONFIG)
    core.accumulate(rows_for(0))
    AggregationCore(CONFIG).merge(core)
    for operation in (
        lambda: core.present_rows(),
        lambda: core.accumulate(rows_for(1)),
        lambda: core.serialize_state(),
        lambda: core.merge(AggregationCore(CONFIG)),
        lambda: AggregationCore(CONFIG).merge(core),
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


def test_present_rows_are_in_key_name_order():
    core = AggregationCore(AggCoreConfig(("k",), ("v",)))
    for key in ("zulu", "alpha", "mike"):
        core.accumulate([(key, (1.0,))])
    ids, _ = core.present_rows()
    assert [core.keys.names[k] for k in ids.tolist()] == ["alpha", "mike", "zulu"]


def test_present_rows_match_a_brute_force_oracle():
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
    assert named_sums(core) == naive_grouped_sums(updates)


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


# --- serialize_state against the key-by-key oracle -----------------------------------

# Names whose sorted order is not their id order, of more UTF-8 bytes than
# characters: "p10" sorts before "p2", and "é" after every ASCII name.
ORACLE_NAMES = [f"p{i}" for i in range(40)] + ["é", "Z", "a\x1fb", ""]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_serialize_state_writes_the_key_by_key_bytes(seed, shared):
    """Over random updates, merge trees and fold points, the one-array
    write serializes what the old key-by-key loop wrote (tests/helpers.py),
    for cores that share a session's table (key ids) and for cores that
    each grow their own (key, values) rows' table."""
    rnd = random.Random(seed)
    table = KeyTable(ORACLE_NAMES) if shared else None
    values = [0.0, -0.0, 1.0, -2.5, 1e-300, 3e200, 0.1]
    updates = []
    for _ in range(rnd.randrange(1, 60)):
        ids = sorted(rnd.sample(range(len(ORACLE_NAMES)), rnd.randint(1, 5)))
        flat = [rnd.choice(values) * rnd.randint(-3, 3) for _ in range(2 * len(ids))]
        updates.append((ids, flat))
    cores = [AggregationCore(CONFIG, table) for _ in range(rnd.randint(1, 5))]

    def check(core):
        assert core.serialize_state() == reference_serialize_state(core)

    def named(ids, flat):
        return [(ORACLE_NAMES[k], flat[2 * i : 2 * i + 2]) for i, k in enumerate(ids)]

    with mock.patch.object(exactsum, "_STAGE_MAX", rnd.choice([4, 16, exactsum._STAGE_MAX])):
        for ids, flat in updates:
            core = rnd.choice(cores)
            if shared:
                core.accumulate(ids, flat)
            else:
                core.accumulate(named(ids, flat))
            if rnd.random() < 0.2:
                check(core)  # a checkpoint's fold
        while len(cores) > 1:
            src = cores.pop(rnd.randrange(len(cores)))
            dst = rnd.choice(cores)
            dst.merge(src)
            check(dst)
    check(cores[0])
    sequential = AggregationCore(CONFIG)
    for ids, flat in updates:
        sequential.accumulate(named(ids, flat))
    assert sequential.serialize_state() == cores[0].serialize_state()


# --- payload wire format --------------------------------------------------------------

WIRE = Wire(4, 2)
KEYS = {"a" + KEY_SEPARATOR + "w": 2, "b" + KEY_SEPARATOR + "w": 0, "c": 1, "d": 3}


def test_payload_round_trip():
    rows = [("a" + KEY_SEPARATOR + "w", (1.5, -2.0)), ("b" + KEY_SEPARATOR + "w", (0.25, 1e300))]
    data = encode_payload(rows, KEYS, WIRE)
    assert data == struct.pack("<H2dH2d", 0, 0.25, 1e300, 2, 1.5, -2.0)
    assert decode_payload(data, WIRE) == ((0, 2), (0.25, 1e300, 1.5, -2.0), 1e300 + 3.75)


def test_records_widen_past_two_byte_key_indexes():
    assert (Wire(2**16, 3).size, Wire(2**16 + 1, 3).size) == (26, 28)
    wide = Wire(2**20, 1)
    data = struct.pack("<IdId", 5, 1.0, 2**20 - 1, -2.0)
    assert decode_payload(data, wide) == ((5, 2**20 - 1), (1.0, -2.0), 3.0)
    assert encode_payload([("k", (1.0,))], {"k": 2**19}, wide) == struct.pack("<Id", 2**19, 1.0)


def test_an_empty_payload_is_refused():
    assert encode_payload([], KEYS, WIRE) == b""
    with pytest.raises(MalformedUpdateError):
        decode_payload(b"", WIRE)


def test_ragged_rows_cannot_be_encoded():
    with pytest.raises(MalformedUpdateError):
        encode_payload([("c", (1.0, 2.0)), ("d", (1.0,))], KEYS, WIRE)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda data: data[:-1],            # truncated trailing float
        lambda data: data + b"\x00",       # trailing bytes
        lambda data: b"\xff" * 12,          # not a whole record
        lambda data: data * 2,             # a key twice
        lambda data: b"\x04" + data[1:],   # a key index out of range
    ],
)
def test_corrupted_payloads_are_rejected(mutate):
    data = encode_payload([("c", (1.0, 2.0))], KEYS, WIRE)
    with pytest.raises(MalformedUpdateError):
        decode_payload(mutate(data), WIRE)


def test_a_row_under_no_key_cannot_be_encoded():
    with pytest.raises(MalformedUpdateError):
        encode_payload([("c", (1.0, 2.0)), ("e", (1.0, 2.0))], KEYS, WIRE)


@given(
    st.dictionaries(
        st.sampled_from(sorted(KEYS)),
        st.tuples(
            st.floats(min_value=-1e306, max_value=1e306, width=64),
            st.floats(min_value=-1e306, max_value=1e306, width=64),
        ),
        max_size=4,
    ),
    st.randoms(use_true_random=False),
)
def test_arbitrary_rows_survive_the_wire(cells, rng):
    rows = list(cells.items())
    rng.shuffle(rows)
    if not rows:
        return
    keys, values, _ = decode_payload(encode_payload(rows, KEYS, WIRE), WIRE)
    assert [(k, values[2 * i : 2 * i + 2]) for i, k in enumerate(keys)] == sorted(
        (KEYS[key], tuple(v)) for key, v in rows
    )
