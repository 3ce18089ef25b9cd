"""Index domain, histograms, the device transform, and canonical bytes.

The clipping and scaling cases run one histogram through the mechanism's
array transform (``ResolvedMechanism.transform_devices``) as a
one-device block.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsum.dp import (
    VARIANT_JOINT,
    VARIANT_SCALED,
    VARIANT_SPLIT,
    MechanismConfig,
    calibrate_clip,
    resolve_mechanism,
)
from fedsum.exactsum import ExactSum
from fedsum.model import (
    DIRECTIONS,
    IndexedHistogram,
    InvalidParameterError,
    Schema,
    SchemaMismatchError,
    TripRecord,
    as_table,
)

from blocks import block_of, dense_of, histograms_of, l1_norm


# --- schema ----------------------------------------------------------------


def test_schema_shape_and_domain_size(small_schema):
    assert small_schema.shape == (3, 3, 4, 3)


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


def test_check_index_bounds(small_schema):
    small_schema.check_index((0, 0, 0, 0))
    small_schema.check_index((2, 2, 3, 2))
    for outside in ((3, 0, 0, 0), (0, 0, 0, 3), (-1, 0, 0, 0), (0, 0, 4, 0)):
        with pytest.raises(InvalidParameterError):
            small_schema.check_index(outside)


# --- histogram basics -------------------------------------------------------


def build(schema, entries):
    h = IndexedHistogram(schema)
    for index, value in entries.items():
        h[index] = value
    return h


def test_zero_entries_are_dropped(small_schema):
    h = IndexedHistogram(small_schema)
    h[(0, 0, 0, 0)] = 1.5
    assert h.items() == [((0, 0, 0, 0), 1.5)]
    h[(0, 0, 0, 0)] = 0.0
    assert h.items() == []
    assert len(h) == 0
    assert h[(0, 0, 0, 0)] == 0.0  # absent reads as zero


def test_items_iterate_sorted(small_schema):
    h = build(small_schema, {(2, 1, 0, 0): 1.0, (0, 0, 0, 0): 2.0})
    assert [i for i, _ in h.items()] == [(0, 0, 0, 0), (2, 1, 0, 0)]


def test_out_of_domain_index_rejected(small_schema):
    h = IndexedHistogram(small_schema)
    with pytest.raises(InvalidParameterError):
        h[(0, 0, 9, 0)] = 1.0


# --- L1 norm: a device's norm, as calibration reads it off a block -------------


def device_norm(h):
    """The L1 norm of ``h`` as one device of a block: the only device's
    norm is the largest (quantile 1) of the block's active norms."""
    return calibrate_clip(block_of(h.schema, [h]), 1.0)


def test_l1_norm_of_empty_is_zero(small_schema):
    # A zero norm is no active device: with it, the median norm is still 2.
    devices = [IndexedHistogram(small_schema), build(small_schema, {(0, 0, 0, 0): 2.0})]
    assert calibrate_clip(block_of(small_schema, devices), 0.5) == 2.0
    with pytest.raises(InvalidParameterError, match="no device has any data"):
        device_norm(IndexedHistogram(small_schema))


def test_l1_norm_sums_absolute_values(small_schema):
    h = build(small_schema, {(0, 0, 0, 0): 3.0, (1, 1, 1, 1): -4.0})
    assert device_norm(h) == 7.0


def test_l1_norm_counts_unit_entries(small_schema):
    entries = {(a, 0, 0, 0): 1.0 for a in range(3)}
    entries.update({(a, 1, 1, 1): 1.0 for a in range(2)})
    assert device_norm(build(small_schema, entries)) == 5.0


# --- clipping: the device transform of one histogram -------------------------


def mechanism(schema, **config):
    """A resolved mechanism with explicit bounds (nothing calibrated)."""
    return resolve_mechanism(MechanismConfig(**config), [], schema)


def transformed(h, resolved):
    """``h`` as one device's block, bounded by ``resolved``, read back."""
    bounded = resolved.transform_devices(block_of(h.schema, [h]), h.schema)
    out = histograms_of(bounded, h.schema)
    return out[0] if out else IndexedHistogram(h.schema)


def clip(h, bound):
    """Joint clipping of one device to the L1 ``bound``."""
    return transformed(h, mechanism(h.schema, variant=VARIANT_JOINT, epsilon=1.0, clip=bound))


def clip_slices(h, table):
    """Budget split's clip of each (activity, metric) slice to ``table[a][m]``."""
    resolved = mechanism(h.schema, variant=VARIANT_SPLIT, epsilon=1.0, clip_table=table)
    return transformed(h, resolved)


def scale_by_table(h, table):
    """The scaling variant's division by ``table``, with no clip."""
    resolved = mechanism(
        h.schema,
        variant=VARIANT_SCALED,
        epsilon=math.inf,
        clip=math.inf,
        scale_table=table,
    )
    return transformed(h, resolved)


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
    resolved = mechanism(small_schema, variant=VARIANT_JOINT, epsilon=1.0, clip=1.0)
    for bound in (0.0, -1.0):
        with pytest.raises(InvalidParameterError):
            clip(h, bound)
        with pytest.raises(InvalidParameterError):
            transformed(h, dataclasses.replace(resolved, clip=bound))


def test_clip_drops_entries_that_underflow_to_zero(small_schema):
    h = build(small_schema, {(0, 0, 0, 0): 1e300, (0, 0, 1, 0): 5e-324})
    expected = build(small_schema, {(0, 0, 0, 0): 1.0})
    ones = ((1.0,) * 3,) * 3
    for clipped in (clip(h, 1.0), clip_slices(h, ones)):
        assert len(clipped) == 1
        assert clipped == expected
        assert clipped.serialize() == expected.serialize()


def test_clip_one_ulp_above_the_bound_shrinks_by_the_least_factor(small_schema):
    """The smallest shrink is ``nextafter(1.0, 0.0)``, the loop's nudge.

    A norm one ulp above the bound gives ``bound / norm`` equal to the
    largest float below one, the factor the loop falls back to should a
    quotient ever round up to 1.0; one pass of it lands on the bound.
    """
    bound = math.nextafter(2.0, 0.0)
    h = build(small_schema, {(0, 0, 0, 0): 1.0, (1, 0, 0, 0): 1.0})
    clipped = clip(h, bound)
    assert dict(clipped.items()) == {
        (0, 0, 0, 0): math.nextafter(1.0, 0.0),
        (1, 0, 0, 0): math.nextafter(1.0, 0.0),
    }
    assert l1_norm(clipped) == bound


def test_clip_rescales_again_when_rounding_leaves_the_norm_above_the_bound(
    small_schema,
):
    values = [5.735118360739901, 8.042424105565017, 0.7247575366883223]
    bound = 1.0306341665197747
    factor = bound / math.fsum(values)
    assert math.fsum(v * factor for v in values) > bound  # one pass falls short
    h = build(small_schema, {(a, 0, 0, 0): v for a, v in enumerate(values)})
    clipped = clip(h, bound)
    assert l1_norm(clipped) <= bound
    assert [clipped[(a, 0, 0, 0)] for a in range(3)] != [v * factor for v in values]


def test_infinite_bound_leaves_the_histogram_as_it_is(small_schema):
    h = build(small_schema, {(0, 0, 0, 0): 1e300, (2, 1, 3, 2): -4.5})
    resolved = mechanism(small_schema, variant=VARIANT_JOINT, epsilon=math.inf, clip=math.inf)
    assert transformed(h, resolved).serialize() == h.serialize()


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
    assert l1_norm(clipped) <= bound


@given(histograms(), st.floats(min_value=1e-3, max_value=1e7))
def test_clip_is_idempotent(h, bound):
    once = clip(h, bound)
    assert clip(once, bound) == once


@given(histograms(), st.floats(min_value=1e-3, max_value=1e7))
def test_clip_preserves_signs_and_ratios(h, bound):
    clipped = clip(h, bound)
    original = dict(h.items())
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


@given(histograms(), st.floats(min_value=1e-3, max_value=1e7))
def test_clip_slices_clips_each_slice_as_clip_would(h, bound):
    schema = h.schema
    table = as_table(
        [[bound * (1 + a + 2 * m) for m in range(3)] for a in range(3)]
    )
    clipped = clip_slices(h, table)
    for a in range(3):
        for m in range(3):
            part = IndexedHistogram(
                schema, {i: v for i, v in h.items() if i[:2] == (a, m)}
            )
            alone = clip(part, table[a][m])
            assert l1_norm(alone) <= table[a][m]
            assert {i: v for i, v in clipped.items() if i[:2] == (a, m)} == (
                dict(alone.items())
            )


def test_clip_slices_table_must_match_the_schema(small_schema):
    h = build(small_schema, {(0, 0, 0, 0): 1.0})
    with pytest.raises(SchemaMismatchError):
        clip_slices(h, ((1.0,),))
    ones = ((1.0,) * 3,) * 3
    resolved = mechanism(small_schema, variant=VARIANT_SPLIT, epsilon=1.0, clip_table=ones)
    with pytest.raises(SchemaMismatchError):
        transformed(h, dataclasses.replace(resolved, clip_table=((1.0,),)))


# --- dense arrays -----------------------------------------------------------------


@given(histograms())
def test_dense_round_trip_is_exact(h):
    dense = dense_of(h.schema, h)
    assert dense.shape == h.schema.shape
    back = IndexedHistogram.from_dense(h.schema, dense)
    assert back == h
    assert back.serialize() == h.serialize()


def test_from_dense_drops_zeros_and_checks_the_shape(small_schema, cell_schema):
    dense = dense_of(small_schema, {(2, 1, 3, 2): -4.5})
    dense[0, 0, 0, 0] = -0.0
    assert IndexedHistogram.from_dense(small_schema, dense).items() == [
        ((2, 1, 3, 2), -4.5)
    ]
    with pytest.raises(SchemaMismatchError):
        IndexedHistogram.from_dense(cell_schema, dense)


# --- scaling --------------------------------------------------------------------


def descale(h, table):
    """Multiply back by ``table`` as a release does: on the dense array."""
    factors = np.asarray(table)[:, :, None, None]
    return IndexedHistogram.from_dense(h.schema, dense_of(h.schema, h) * factors)


def test_scale_table_identity(small_schema):
    table = ((1.0,) * 3,) * 3
    h = build(small_schema, {(1, 2, 3, 0): 7.0})
    assert scale_by_table(h, table) == h
    assert descale(h, table) == h


def test_scale_divides_by_slice_factor(small_schema):
    table = as_table([[1, 5, 1], [1, 1, 1], [1, 1, 1]])
    h = build(small_schema, {(0, 1, 2, 0): 10.0})
    assert scale_by_table(h, table)[(0, 1, 2, 0)] == 2.0


def test_scale_invert_multiplies_back(small_schema):
    table = as_table([[2, 4, 8], [1, 1, 1], [16, 32, 64]])
    h = build(small_schema, {(0, 1, 1, 1): 3.0, (2, 2, 0, 0): -5.0})
    # Power-of-two factors divide and multiply without rounding.
    assert descale(scale_by_table(h, table), table) == h


def test_scaling_drops_entries_that_underflow_to_zero(small_schema):
    h = build(small_schema, {(0, 0, 0, 0): 1e-30, (0, 1, 0, 0): 2.0})
    kept = build(small_schema, {(0, 1, 0, 0): 2.0})
    huge = as_table([[1e300, 1, 1], [1, 1, 1], [1, 1, 1]])
    scaled = scale_by_table(h, huge)
    assert len(scaled) == 1
    assert scaled == kept
    assert scaled.serialize() == kept.serialize()


@given(
    histograms(),
    st.lists(
        st.floats(min_value=2.0**-20, max_value=2.0**20),
        min_size=9,
        max_size=9,
    ),
)
def test_scale_round_trip_close(h, factors):
    table = as_table([factors[0:3], factors[3:6], factors[6:9]])
    back = descale(scale_by_table(h, table), table)
    for index, value in h.items():
        assert back[index] == pytest.approx(value, rel=1e-12)


def test_scale_table_rejects_non_positive():
    for bad in (0.0, -2.0, math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError, match="finite and positive"):
            as_table([[1.0, bad, 1.0]])
    for shape in ([], [[]], [[1.0, 1.0], [1.0]]):
        with pytest.raises(InvalidParameterError, match="rectangular"):
            as_table(shape)


def test_scale_table_shape_must_match_schema(small_schema):
    table = ((1.0,),)
    h = build(small_schema, {(0, 0, 0, 0): 1.0})
    with pytest.raises(SchemaMismatchError):
        scale_by_table(h, table)
    identity = ((1.0,) * 3,) * 3
    resolved = mechanism(
        small_schema,
        variant=VARIANT_SCALED,
        epsilon=math.inf,
        clip=math.inf,
        scale_table=identity,
    )
    with pytest.raises(SchemaMismatchError):
        transformed(h, dataclasses.replace(resolved, scale_table=table))


# --- addition and exact sums ---------------------------------------------------


def accumulate(histograms, ids):
    """An exact sum of the histograms' entries, each index keyed by its id
    in ``ids`` (new indexes join it)."""
    acc = ExactSum(1)
    for h in histograms:
        entries = list(h.items())
        acc.add([ids.setdefault(index, len(ids)) for index, _ in entries], [v for _, v in entries])
    return acc


def rounded(schema, acc, ids):
    """The histogram of an exact sum's present keys; every index is checked."""
    sums, present = acc.report()
    return IndexedHistogram(
        schema, ((index, float(sums[k, 0])) for index, k in ids.items() if present[k])
    )


def exact_sum(histograms, schema):
    """Histogram addition as the pipeline does it: summed exactly, rounded once."""
    ids = {}
    return rounded(schema, accumulate(histograms, ids), ids)


def test_hist_add_identity_and_accumulation(small_schema):
    empty = IndexedHistogram(small_schema)
    h = build(small_schema, {(0, 0, 0, 0): 1.0})
    assert exact_sum([h, empty], small_schema) == h
    two = exact_sum([h, build(small_schema, {(0, 0, 0, 0): 2.0})], small_schema)
    assert two[(0, 0, 0, 0)] == 3.0


@given(histograms(), histograms())
def test_hist_add_commutes(a, b):
    assert exact_sum([a, b], a.schema) == exact_sum([b, a], a.schema)


@given(st.lists(histograms(), min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_hist_sum_is_order_invariant(hs, rng):
    schema = hs[0].schema
    reference = exact_sum(hs, schema)
    shuffled = list(hs)
    rng.shuffle(shuffled)
    assert exact_sum(shuffled, schema) == reference
    assert exact_sum(shuffled, schema).serialize() == reference.serialize()


@given(st.lists(histograms(), min_size=1, max_size=6), st.integers(0, 6))
def test_exact_sum_merge_matches_sequential(hs, cut_at):
    schema = hs[0].schema
    cut = min(cut_at, len(hs))
    ids = {}
    left = accumulate(hs[:cut], ids)
    left.merge(accumulate(hs[cut:], ids))
    merged = rounded(schema, left, ids)
    assert merged.serialize() == exact_sum(hs, schema).serialize()


def test_rounded_rows_outside_the_schema_are_rejected(small_schema, cell_schema):
    wide = build(small_schema, {(2, 1, 3, 0): 1.5})
    with pytest.raises(InvalidParameterError):
        exact_sum([wide], cell_schema)


# --- canonical serialization ------------------------------------------------------


def test_serialize_golden_bytes(small_schema):
    h = build(small_schema, {(2, 1, 0, 2): -1.25, (0, 0, 0, 0): 3.0})
    expected = struct.pack("<I", 2)
    expected += struct.pack("<IIIId", 0, 0, 0, 0, 3.0)
    expected += struct.pack("<IIIId", 2, 1, 0, 2, -1.25)
    assert h.serialize() == expected


@given(histograms())
def test_serialize_round_trip(h):
    data = h.serialize()
    (count,) = struct.unpack_from("<I", data)
    assert len(data) == 4 + 24 * count
    entries = [
        ((a, m, r, d), value)
        for a, m, r, d, value in struct.iter_unpack("<IIIId", data[4:])
    ]
    assert IndexedHistogram(h.schema, entries) == h


@given(histograms())
def test_equal_histograms_serialize_identically(h):
    rebuilt = IndexedHistogram(h.schema)
    for index, value in reversed(list(h.items())):
        rebuilt[index] = value
    assert rebuilt == h
    assert rebuilt.serialize() == h.serialize()
