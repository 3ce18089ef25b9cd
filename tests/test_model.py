"""Index domain, histograms, clipping, scaling, and canonical bytes."""

from __future__ import annotations

import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsum.model import (
    DIRECTIONS,
    ExactHistogramSum,
    IndexedHistogram,
    InvalidParameterError,
    ScaleTable,
    Schema,
    SchemaMismatchError,
    TripRecord,
    clip,
    hist_add,
    hist_sum,
    l1_norm,
)

from helpers import trip


# --- schema ----------------------------------------------------------------


def test_schema_shape_and_domain_size(small_schema):
    assert small_schema.shape == (3, 3, 4, 3)
    assert small_schema.domain_size == 3 * 3 * 4 * 3


def test_directions_are_fixed_triple():
    assert DIRECTIONS == ("within", "outbound", "inbound")


def test_schema_rejects_wrong_name_counts():
    with pytest.raises(InvalidParameterError):
        Schema(num_activities=2, metric_names=("a", "b", "c"), activity_names=("x",))
    with pytest.raises(InvalidParameterError):
        Schema(num_metrics=2)  # default metric names are three long


def test_schema_rejects_non_positive_axes():
    with pytest.raises(InvalidParameterError):
        Schema(num_activities=0, activity_names=())


def test_valid_index_bounds(small_schema):
    assert small_schema.valid_index((0, 0, 0, 0))
    assert small_schema.valid_index((2, 2, 3, 2))
    assert not small_schema.valid_index((3, 0, 0, 0))
    assert not small_schema.valid_index((0, 0, 0, 3))
    assert not small_schema.valid_index((-1, 0, 0, 0))
    with pytest.raises(InvalidParameterError):
        small_schema.check_index((0, 0, 4, 0))


def test_iter_domain_is_sorted_and_complete(small_schema):
    indices = list(small_schema.iter_domain())
    assert len(indices) == small_schema.domain_size
    assert indices == sorted(indices)
    assert len(set(indices)) == len(indices)


def test_trip_record_validate(small_schema):
    trip(a=2, r=3, d=2).validate(small_schema)
    with pytest.raises(SchemaMismatchError):
        trip(a=3).validate(small_schema)
    with pytest.raises(SchemaMismatchError):
        trip(d=5).validate(small_schema)
    with pytest.raises(InvalidParameterError):
        trip(km=math.nan).validate(small_schema)
    with pytest.raises(InvalidParameterError):
        trip(s=-5.0).validate(small_schema)


# --- histogram basics -------------------------------------------------------


def build(schema, entries):
    h = IndexedHistogram(schema)
    for index, value in entries.items():
        h[index] = value
    return h


def test_zero_entries_are_dropped(small_schema):
    h = IndexedHistogram(small_schema)
    h[(0, 0, 0, 0)] = 1.5
    assert (0, 0, 0, 0) in h
    h[(0, 0, 0, 0)] = 0.0
    assert (0, 0, 0, 0) not in h
    assert len(h) == 0
    assert h[(0, 0, 0, 0)] == 0.0  # absent reads as zero


def test_items_iterate_sorted(small_schema):
    h = build(small_schema, {(2, 1, 0, 0): 1.0, (0, 0, 0, 0): 2.0})
    assert [i for i, _ in h.items()] == [(0, 0, 0, 0), (2, 1, 0, 0)]


def test_out_of_domain_index_rejected(small_schema):
    h = IndexedHistogram(small_schema)
    with pytest.raises(InvalidParameterError):
        h[(0, 0, 9, 0)] = 1.0


# --- L1 norm ------------------------------------------------------------------


def test_l1_norm_of_empty_is_zero(small_schema):
    assert l1_norm(IndexedHistogram(small_schema)) == 0.0


def test_l1_norm_sums_absolute_values(small_schema):
    h = build(small_schema, {(0, 0, 0, 0): 3.0, (1, 1, 1, 1): -4.0})
    assert l1_norm(h) == 7.0


def test_l1_norm_counts_unit_entries(small_schema):
    entries = {(a, 0, 0, 0): 1.0 for a in range(3)}
    entries.update({(a, 1, 1, 1): 1.0 for a in range(2)})
    assert l1_norm(build(small_schema, entries)) == 5.0


# --- clipping ------------------------------------------------------------------


def test_clip_within_bound_is_unchanged(small_schema):
    h = build(small_schema, {(0, 0, 0, 0): 2.0})
    assert clip(h, 5.0) == h


def test_clip_rescales_to_bound_exactly(small_schema):
    h = build(small_schema, {(0, 0, 0, 0): 3.0, (1, 0, 0, 0): 4.0})
    clipped = clip(h, 3.5)
    assert clipped[(0, 0, 0, 0)] == 1.5
    assert clipped[(1, 0, 0, 0)] == 2.0
    assert l1_norm(clipped) == 3.5


def test_clip_empty_histogram_is_noop(small_schema):
    assert len(clip(IndexedHistogram(small_schema), 1.0)) == 0


def test_clip_rejects_non_positive_bound(small_schema):
    h = build(small_schema, {(0, 0, 0, 0): 1.0})
    for bound in (0.0, -1.0):
        with pytest.raises(InvalidParameterError):
            clip(h, bound)


small_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def histograms(draw, max_entries=12):
    schema = Schema(
        num_activities=3,
        num_metrics=3,
        num_regions=4,
        metric_names=("num_trips", "distance_km", "duration_s"),
        activity_names=("stroll", "cycle", "drive"),
    )
    n = draw(st.integers(min_value=0, max_value=max_entries))
    h = IndexedHistogram(schema)
    for _ in range(n):
        index = (
            draw(st.integers(0, 2)),
            draw(st.integers(0, 2)),
            draw(st.integers(0, 3)),
            draw(st.integers(0, 2)),
        )
        h[index] = draw(small_values)
    return h


@given(histograms(), st.floats(min_value=1e-3, max_value=1e7))
def test_clip_norm_never_exceeds_bound(h, bound):
    clipped = clip(h, bound)
    assert l1_norm(clipped) <= bound + 1e-9


@given(histograms(), st.floats(min_value=1e-3, max_value=1e7))
def test_clip_is_idempotent(h, bound):
    once = clip(h, bound)
    assert clip(once, bound) == once


@given(histograms(), st.floats(min_value=1e-3, max_value=1e7))
def test_clip_preserves_signs_and_ratios(h, bound):
    clipped = clip(h, bound)
    original = h.raw()
    for index, value in original.items():
        assert math.copysign(1.0, clipped[index]) == math.copysign(1.0, value) or (
            clipped[index] == 0.0 and abs(value) < 1e-300
        )
    items = list(original.items())
    for (i, vi), (j, vj) in zip(items, items[1:]):
        # Cross products agree: clipped[i] * v[j] == clipped[j] * v[i].
        left = clipped[i] * vj
        right = clipped[j] * vi
        assert abs(left - right) <= 1e-12 * max(abs(left), abs(right), 1e-300)


# --- dense arrays -----------------------------------------------------------------


@given(histograms())
def test_dense_round_trip_is_exact(h):
    dense = h.to_dense()
    assert dense.shape == h.schema.shape
    back = IndexedHistogram.from_dense(h.schema, dense)
    assert back == h
    assert back.serialize() == h.serialize()


def test_from_dense_drops_zeros_and_checks_the_shape(small_schema, cell_schema):
    dense = build(small_schema, {(2, 1, 3, 2): -4.5}).to_dense()
    dense[0, 0, 0, 0] = -0.0
    assert IndexedHistogram.from_dense(small_schema, dense).items() == [
        ((2, 1, 3, 2), -4.5)
    ]
    with pytest.raises(SchemaMismatchError):
        IndexedHistogram.from_dense(cell_schema, dense)


# --- scaling --------------------------------------------------------------------


def test_scale_table_identity(small_schema):
    table = ScaleTable.identity(small_schema)
    assert all(v == 1.0 for row in table.rows() for v in row)
    h = build(small_schema, {(1, 2, 3, 0): 7.0})
    assert h.scale_by_table(table) == h


def test_scale_divides_by_slice_factor(small_schema):
    table = ScaleTable([[1, 5, 1], [1, 1, 1], [1, 1, 1]])
    h = build(small_schema, {(0, 1, 2, 0): 10.0})
    assert h.scale_by_table(table)[(0, 1, 2, 0)] == 2.0


def test_scale_invert_multiplies_back(small_schema):
    table = ScaleTable([[2, 4, 8], [1, 1, 1], [16, 32, 64]])
    h = build(small_schema, {(0, 1, 1, 1): 3.0, (2, 2, 0, 0): -5.0})
    # Power-of-two factors divide and multiply without rounding.
    assert h.scale_by_table(table).scale_by_table(table, invert=True) == h


@given(
    histograms(),
    st.lists(
        st.floats(min_value=2.0**-20, max_value=2.0**20),
        min_size=9,
        max_size=9,
    ),
)
def test_scale_round_trip_close(h, factors):
    rows = [factors[0:3], factors[3:6], factors[6:9]]
    table = ScaleTable(rows)
    back = h.scale_by_table(table).scale_by_table(table, invert=True)
    for index, value in h.raw().items():
        assert back[index] == pytest.approx(value, rel=1e-12)


def test_scale_table_rejects_non_positive():
    with pytest.raises(InvalidParameterError):
        ScaleTable([[1.0, 0.0, 1.0]])
    with pytest.raises(InvalidParameterError):
        ScaleTable([[1.0, -2.0, 1.0]])


def test_scale_table_shape_must_match_schema(small_schema):
    table = ScaleTable([[1.0]])
    h = build(small_schema, {(0, 0, 0, 0): 1.0})
    with pytest.raises((InvalidParameterError, SchemaMismatchError, IndexError)):
        h.scale_by_table(table)


# --- addition and exact sums ---------------------------------------------------


def test_hist_add_identity_and_accumulation(small_schema):
    empty = IndexedHistogram(small_schema)
    h = build(small_schema, {(0, 0, 0, 0): 1.0})
    assert hist_add(h, empty) == h
    two = hist_add(h, build(small_schema, {(0, 0, 0, 0): 2.0}))
    assert two[(0, 0, 0, 0)] == 3.0


def test_hist_add_different_schemas_rejected(small_schema, cell_schema):
    a = IndexedHistogram(small_schema)
    b = IndexedHistogram(cell_schema)
    with pytest.raises(SchemaMismatchError):
        hist_add(a, b)


@given(histograms(), histograms())
def test_hist_add_commutes(a, b):
    assert hist_add(a, b) == hist_add(b, a)


@given(st.lists(histograms(), min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_hist_sum_is_order_invariant(hs, rng):
    schema = hs[0].schema
    reference = hist_sum(hs, schema)
    shuffled = list(hs)
    rng.shuffle(shuffled)
    assert hist_sum(shuffled, schema) == reference
    assert hist_sum(shuffled, schema).serialize() == reference.serialize()


@given(st.lists(histograms(), min_size=1, max_size=6), st.integers(0, 6))
def test_exact_sum_merge_matches_sequential(hs, cut_at):
    schema = hs[0].schema
    cut = min(cut_at, len(hs))
    left = ExactHistogramSum(schema)
    for h in hs[:cut]:
        left.add(h)
    right = ExactHistogramSum(schema)
    for h in hs[cut:]:
        right.add(h)
    left.merge(right)
    sequential = ExactHistogramSum(schema)
    for h in hs:
        sequential.add(h)
    assert left.rounded().serialize() == sequential.rounded().serialize()


@given(histograms(), histograms())
def test_exact_diff_recovers_added_histogram(base, extra):
    schema = base.schema
    acc = ExactHistogramSum(schema)
    acc.add(base)
    plus = acc.copy()
    plus.add(extra)
    assert plus.exact_diff(acc) == extra


# --- canonical serialization ------------------------------------------------------


def test_serialize_golden_bytes(small_schema):
    h = build(small_schema, {(2, 1, 0, 2): -1.25, (0, 0, 0, 0): 3.0})
    expected = struct.pack("<I", 2)
    expected += struct.pack("<IIIId", 0, 0, 0, 0, 3.0)
    expected += struct.pack("<IIIId", 2, 1, 0, 2, -1.25)
    assert h.serialize() == expected


@given(histograms())
def test_serialize_round_trip(h):
    assert IndexedHistogram.deserialize(h.serialize(), h.schema) == h


@given(histograms())
def test_equal_histograms_serialize_identically(h):
    rebuilt = IndexedHistogram(h.schema)
    for index, value in reversed(list(h.items())):
        rebuilt[index] = value
    assert rebuilt == h
    assert rebuilt.serialize() == h.serialize()
