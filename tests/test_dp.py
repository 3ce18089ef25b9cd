"""Private release mechanisms: calibration, noise, thresholds, variants."""

from __future__ import annotations

import dataclasses
import itertools
import logging
import math
import statistics
import struct
from hashlib import blake2b

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsum import dp
from fedsum.dp import (
    MechanismConfig,
    VARIANT_JOINT,
    VARIANT_SCALED,
    VARIANT_SPLIT,
    VARIANTS,
    UnitLaplace,
    apply_threshold,
    calibrate_clip,
    calibrate_scales,
    prepare_mechanism,
    resolve_mechanism,
)
from fedsum.model import (
    IndexedHistogram,
    InvalidParameterError,
    Schema,
    SchemaMismatchError,
)
from fedsum.rng import BlockRng, laplace_from_uniform

from blocks import block_of, dense_of, devices_of, exact_sum, histograms_of, rows_of, sparse_of
from helpers import (
    nearest_rank_quantile,
    reference_bounded_sums,
    reference_cell_sums,
    reference_scales,
)


def hist(schema, entries):
    h = IndexedHistogram(schema)
    for index, value in entries.items():
        h[index] = value
    return h


def release(devices, schema, seed=0, window_id="w0", **config):
    """Prepare the configured mechanism on histograms ``devices``; release once."""
    prepared = prepare_mechanism(
        MechanismConfig(**config), block_of(schema, devices), schema
    )
    return prepared.release(window_id, seed)


def linear_devices(schema, n=100):
    """A block in which device i holds the single value i+1 in the first cell."""
    return block_of(
        schema, [hist(schema, {(0, 0, 0, 0): float(i + 1)}) for i in range(n)]
    )


def transform(resolved, h):
    """One device's histogram through the device transform, read back."""
    (bounded,) = histograms_of(
        resolved.transform_devices(block_of(h.schema, [h]), h.schema), h.schema
    )
    return bounded


# --- quantiles and calibration ---------------------------------------------


def test_nearest_rank_picks_the_95th_of_100():
    values = [float(v) for v in range(1, 101)]
    assert nearest_rank_quantile(values, 0.95) == 95.0
    assert nearest_rank_quantile(values, 1.0) == 100.0
    assert nearest_rank_quantile(values, 0.001) == 1.0


def test_nearest_rank_edge_cases():
    assert nearest_rank_quantile([7.0], 0.5) == 7.0
    assert nearest_rank_quantile([3.0, 3.0, 3.0], 0.9) == 3.0
    with pytest.raises(InvalidParameterError):
        nearest_rank_quantile([], 0.5)
    with pytest.raises(InvalidParameterError):
        nearest_rank_quantile([1.0], 0.0)
    with pytest.raises(InvalidParameterError):
        nearest_rank_quantile([1.0], 1.5)


def test_slice_norms_split_by_activity_and_metric(small_schema):
    h = hist(
        small_schema,
        {(0, 0, 0, 0): 3.0, (0, 0, 1, 2): -4.0, (1, 2, 0, 0): 5.0},
    )
    table = calibrate_scales(block_of(small_schema, [h]), small_schema, 1.0)
    assert table[0][0] == 7.0
    assert table[1][2] == 5.0
    assert sum(v == 1.0 for row in table for v in row) == 7  # untouched slices


def test_slice_norms_add_in_the_order_the_device_made_its_cells(cell_schema):
    """(0.1 + 0.2) + 0.3 and (0.3 + 0.2) + 0.1 differ in the last bit."""
    made = [0.1, 0.2, 0.3]
    norms = []
    for values in (made, made[::-1]):
        h = {(0, 0, 0, d): value for d, value in zip((2, 0, 1), values)}  # made in this order
        norms.append(calibrate_scales(block_of(cell_schema, [h]), cell_schema, 1.0))
    assert norms == [((0.1 + 0.2 + 0.3,),), ((0.3 + 0.2 + 0.1,),)]
    assert 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1


def test_calibrated_scales_hit_the_quantile(cell_schema):
    table = calibrate_scales(linear_devices(cell_schema), cell_schema, 0.95)
    assert table[0][0] == 95.0


def test_empty_slices_fall_back_to_unit_scale(caplog):
    schema = Schema(
        num_activities=1,
        num_metrics=2,
        num_regions=1,
        metric_names=("m0", "m1"),
        activity_names=("a",),
    )
    devices = block_of(schema, [hist(schema, {(0, 0, 0, 0): 2.0})])
    with caplog.at_level(logging.WARNING, logger="fedsum.dp"):
        table = calibrate_scales(devices, schema, 0.95)
    assert table[0][1] == 1.0
    assert any("metric=1" in message for message in caplog.messages)


def test_calibrated_clip_hits_the_quantile(cell_schema):
    assert calibrate_clip(linear_devices(cell_schema), 0.95) == 95.0


def test_clip_calibration_needs_active_devices(cell_schema):
    with pytest.raises(InvalidParameterError):
        calibrate_clip(block_of(cell_schema, [IndexedHistogram(cell_schema)] * 5))


def scanned_cell_groups(devices, per_slice):
    """The clip groups found by a scan over each row's key, one row at a time."""
    width = devices.sums.shape[1]
    key = devices.device.tolist()
    activity = devices.activity.tolist()
    if per_slice:
        key = list(zip(key, activity))
    starts = [i for i in range(len(key)) if not i or key[i] != key[i - 1]]
    runs = list(zip(starts, [*starts[1:], len(key)]))
    if not per_slice:
        return [(slice(lo * width, hi * width), 0) for lo, hi in runs]
    return [
        (slice(lo * width + m, hi * width, width), activity[lo] * width + m)
        for lo, hi in runs
        for m in range(width)
    ]


def positioned_cell_groups(layout, devices, per_slice):
    """A layout of the clip groups, ``(cells, edges, index, ...)`` as
    ``dp._cell_groups`` makes it, as (row-major
    cell positions, slice index) per group."""
    cells, edges, index = (np.asarray(part).tolist() for part in layout[:3])
    size, width = devices.sums.shape
    if per_slice:  # metric-major: position p is row p % size, metric p // size
        position = [p % size * width + p // size for p in range(size * width)]
    else:
        position = list(range(size * width))
    row_major = devices.sums.ravel().tolist()
    assert cells == [row_major[p] for p in position]
    return [(position[lo:hi], i) for lo, hi, i in zip(edges, edges[1:], index)]


@pytest.mark.parametrize("per_slice", [False, True], ids=["per_device", "per_slice"])
def test_clip_groups_equal_a_scan_of_the_row_keys(corpus_300, week_one_300, per_slice):
    window = corpus_300.device_histograms(week_one_300)
    uploads = [rows_of(window, window.device == d) for d in devices_of(window)[:50]]
    assert max(len(np.unique(u.activity)) for u in uploads) > 1
    for block in (window, rows_of(window, window.device < 0), *uploads):
        width = block.sums.shape[1]
        positions = list(range(block.sums.size))
        scanned = sorted(
            (positions[group], i) for group, i in scanned_cell_groups(block, per_slice)
        )  # the groups are disjoint, so their order does not matter
        layout = dp._cell_groups(block, per_slice)
        grouped = positioned_cell_groups(layout, block, per_slice)
        assert sorted(grouped) == scanned
        device = block.device.tolist()
        assert layout[3].tolist() == [device[group[0] // width] for group, _ in grouped]


# --- the device transform and clip calibration against exact loops -----------

CLIP_SCHEMA = Schema(
    num_activities=2,
    num_metrics=3,
    num_regions=2,
    metric_names=("num_trips", "distance_km", "duration_s"),
    activity_names=("walk", "ride"),
)

# 2**53 + 1 rounds back to 2**53: a float sum that adds 1.0 to 2**53
# loses it, while the exactly rounded norm keeps every 1.0.
BIG = 2.0**53

cell_values = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([BIG, -BIG, 1.0, -1.0, 0.1, 5e-324]),
)
cell_indexes = st.tuples(
    st.integers(0, 1), st.integers(0, 2), st.integers(0, 1), st.integers(0, 2)
)


@st.composite
def device_blocks(draw, min_devices, max_devices):
    """A block of ``min_devices`` to ``max_devices`` devices of up to 8 cells."""
    num_devices = draw(st.integers(min_devices, max_devices))
    cells = st.dictionaries(cell_indexes, cell_values, max_size=8)
    return block_of(CLIP_SCHEMA, [draw(cells) for _ in range(num_devices)])


def group_norms(block, sums, per_slice):
    """Each clip group's exactly rounded L1 norm, read off ``sums``."""
    groups: dict = {}
    rows = zip(block.device.tolist(), block.activity.tolist(), sums.tolist())
    for device, a, values in rows:
        for m, v in enumerate(values):
            groups.setdefault((device, a, m) if per_slice else device, []).append(abs(v))
    return {key: math.fsum(values) for key, values in groups.items()}


def bounds_near(data, norms):
    """A clip bound: a norm of ``norms``, a float next to one, or any."""
    anywhere = st.floats(min_value=1e-3, max_value=1e7)
    positive = sorted(n for n in norms if n > 0.0)
    if not positive:
        return data.draw(anywhere)
    near = st.sampled_from(positive).flatmap(
        lambda n: st.sampled_from(
            [b for b in (n, math.nextafter(n, 0.0), math.nextafter(n, math.inf)) if b > 0.0]
        )
    )
    return data.draw(st.one_of(anywhere, near))


def drawn_parameters(data, variant, block):
    """Explicit parameters of ``variant``, bounds drawn near the block's norms."""
    num_activities, num_metrics = CLIP_SCHEMA.shape[:2]
    if variant == VARIANT_SPLIT:
        norms = group_norms(block, block.sums, per_slice=True)
        slice_norms = {
            (a, m): [n for (_, i, j), n in norms.items() if (i, j) == (a, m)]
            for a in range(num_activities)
            for m in range(num_metrics)
        }
        table = [
            [bounds_near(data, slice_norms[a, m]) for m in range(num_metrics)]
            for a in range(num_activities)
        ]
        return {"clip_table": table}
    params = {}
    sums = block.sums
    if variant == VARIANT_SCALED:
        factors = st.floats(min_value=0.1, max_value=10.0)
        row = st.lists(factors, min_size=num_metrics, max_size=num_metrics)
        table = st.lists(row, min_size=num_activities, max_size=num_activities)
        params["scale_table"] = data.draw(table)
        sums = reference_bounded_sums(block, clip=math.inf, **params)
    params["clip"] = bounds_near(data, group_norms(block, sums, per_slice=False).values())
    return params


def hexes(values):
    """Every float of an array, bit for bit."""
    return [v.hex() for v in values.ravel().tolist()]


def bounded_hexes(variant, block, params):
    resolved = resolve_mechanism(
        MechanismConfig(variant=variant, epsilon=1.0, **params), [], CLIP_SCHEMA
    )
    return hexes(resolved.transform_devices(block, CLIP_SCHEMA).sums)


@pytest.mark.parametrize(
    "devices", [(0, 0), (1, 1), (2, 6)], ids=["empty", "one_device", "many_devices"]
)
@pytest.mark.parametrize("variant", VARIANTS)
@given(data=st.data())
def test_transform_equals_the_per_group_loop_bit_for_bit(variant, devices, data):
    block = data.draw(device_blocks(*devices))
    params = drawn_parameters(data, variant, block)
    expected = hexes(reference_bounded_sums(block, **params))
    assert bounded_hexes(variant, block, params) == expected


# Under a bound of 4 per group, the first two devices are inside it and
# the third is over it, in one group per variant.
BOUNDED_DEVICES = [
    {(0, 0, 0, 0): 1.0, (1, 2, 1, 2): 0.5},
    {(1, 1, 0, 1): 0.25, (1, 1, 1, 0): 2.0},
    {(0, 0, 0, 0): 3.0, (0, 0, 1, 1): 2.0},  # norm 5, all in slice (0, 0)
]


def bound_parameters(variant, bound):
    """Explicit parameters that bound every clip group by ``bound``."""
    if variant == VARIANT_SPLIT:
        return {"clip_table": [[bound] * 3] * 2}
    if variant == VARIANT_SCALED:  # the cells are halved before the clip
        return {"scale_table": [[2.0] * 3] * 2, "clip": bound / 2.0}
    return {"clip": bound}


@pytest.mark.parametrize("devices", [1, 2, 3], ids=["one_device", "inside", "one_over"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_transform_returns_the_block_it_clips_when_no_cell_changes(
    variant, devices, monkeypatch
):
    block = block_of(CLIP_SCHEMA, BOUNDED_DEVICES[:devices])
    resolved = resolve_mechanism(
        MechanismConfig(variant=variant, epsilon=1.0, **bound_parameters(variant, 4.0)),
        [],
        CLIP_SCHEMA,
    )
    scaled = []

    def recorded_scaled(*args):
        scaled.append(scale(*args))
        return scaled[-1]

    scale = dp._scaled
    monkeypatch.setattr(dp, "_scaled", recorded_scaled)
    bounded = resolved.transform_devices(block, CLIP_SCHEMA)
    clipped = scaled[0] if variant == VARIANT_SCALED else block
    assert (bounded is clipped) == (devices < 3)
    over = block.device == 2
    assert np.array_equal(bounded.sums[~over], clipped.sums[~over])
    assert over.any() == (not np.array_equal(bounded.sums[over], clipped.sums[over]))


def hidden_excess_block(per_slice):
    """Devices 0-2 each hold the cells ``2**53, 1, 1`` in one group, in
    three orders, and device 3 holds a single 1.0.

    Each group's exact norm is ``2**53 + 2``; a float sum that adds a 1.0
    to ``2**53`` before the other 1.0 reads ``2**53``, as a left-to-right
    or a right-to-left sum does for two of the three orders.  Per device
    the group is one row's three metrics; per slice it is metric 0 of
    three rows.
    """
    orders = [(BIG, 1.0, 1.0), (1.0, BIG, 1.0), (1.0, 1.0, BIG)]
    if per_slice:
        devices = [{(0, 0, 0, d): v for d, v in enumerate(order)} for order in orders]
    else:
        devices = [{(0, m, 0, 0): v for m, v in enumerate(order)} for order in orders]
    return block_of(CLIP_SCHEMA, [*devices, {(1, 0, 1, 0): 1.0}])


@pytest.mark.parametrize("variant", VARIANTS)
def test_transform_clips_a_group_whose_float_norm_hides_its_excess(variant):
    per_slice = variant == VARIANT_SPLIT
    block = hidden_excess_block(per_slice)
    if per_slice:
        params = {"clip_table": [[BIG, 1e30, 1e30], [1e30, 1e30, 1e30]]}
    else:
        params = {"clip": BIG}
        if variant == VARIANT_SCALED:
            params["scale_table"] = [[1.0] * 3] * 2
    norms = group_norms(block, block.sums, per_slice).values()
    assert {n for n in norms if n} == {BIG + 2.0, 1.0}
    bounded = bounded_hexes(variant, block, params)
    assert bounded == hexes(reference_bounded_sums(block, **params))
    sums = np.array([float.fromhex(h) for h in bounded]).reshape(block.sums.shape)
    for device in range(4):
        rows = block.device == device
        assert np.array_equal(block.sums[rows], sums[rows]) == (device == 3)  # 0-2 clip
        assert max(group_norms(rows_of(block, rows), sums[rows], per_slice).values()) <= BIG


def exact_device_norms(block):
    """Every active device's exactly rounded L1 norm (``math.fsum``)."""
    return [n for n in group_norms(block, block.sums, per_slice=False).values() if n > 0.0]


def ones_and_big(position):
    """Cells 1.0, 1.0, 1.0, 1.0 and 2**53 over two rows, 2**53 at
    ``position`` in row-major order: an exact norm of 2**53 + 4."""
    values = [1.0] * 5
    values[position] = BIG
    cells = [(0, m, 0, d) for d in range(2) for m in range(3)]
    return dict(zip(cells, values))


CALIBRATION_CASES = {
    "ties_at_the_rank": [{(0, 0, 0, 0): 5.0}] * 4 + [{(0, 0, 0, 0): 1.0}, {(1, 2, 1, 2): 9.0}],
    "one_device": [{(0, 0, 0, 0): 3.0, (1, 1, 0, 2): -4.0}],
    # The first five norms are above the sixth's 2**53 + 2, but a float
    # sum that adds a 1.0 to 2**53 before the other ones reads less, and
    # with 2**53 in each position, some device's float norm does that.
    "float_order_is_not_exact_order": [
        *(ones_and_big(position) for position in range(5)),
        {(0, 0, 0, 0): BIG + 2.0},
        {(0, 0, 0, 0): BIG},
        {},
        {(1, 1, 1, 1): 0.5},
    ],
}


@pytest.mark.parametrize("case", sorted(CALIBRATION_CASES))
def test_clip_calibration_is_the_nearest_rank_of_the_exact_norms(case):
    block = block_of(CLIP_SCHEMA, CALIBRATION_CASES[case])
    norms = exact_device_norms(block)
    quantiles = [1e-12, 0.5, 0.95, 1.0] + [k / len(norms) for k in range(1, len(norms) + 1)]
    for q in quantiles:
        assert calibrate_clip(block, q) == nearest_rank_quantile(norms, q)


@given(block=device_blocks(1, 12), q=st.floats(min_value=1e-12, max_value=1.0))
def test_clip_calibration_equals_a_sort_of_every_exact_norm(block, q):
    norms = exact_device_norms(block)
    if not norms:
        with pytest.raises(InvalidParameterError, match="no device has any data"):
            calibrate_clip(block, q)
    else:
        assert calibrate_clip(block, q) == nearest_rank_quantile(norms, q)


# Hand-written blocks for the slice calibration.
SCALE_CASES = {
    "ties_at_the_rank": [{(0, 0, 0, 0): 5.0}] * 4
    + [{(0, 0, 0, 0): 1.0}, {(1, 2, 1, 2): 9.0, (1, 2, 0, 0): -9.0}, {(1, 2, 0, 1): 18.0}],
    "empty_slices": [{(0, 1, 0, 0): 2.0}, {}, {(1, 0, 1, 1): 0.0, (1, 0, 0, 0): -0.0}],
    # Made in the order (0.1, 0.2, 0.3) and (0.3, 0.2, 0.1): the norms
    # differ in the last bit, and one device holds two slices of a run.
    "made_order": [
        {(0, 1, 1, 2): 0.1, (0, 1, 0, 0): 0.2, (0, 1, 0, 1): 0.3, (0, 2, 1, 0): 4.0},
        {(0, 1, 1, 2): 0.3, (0, 1, 0, 0): 0.2, (0, 1, 0, 1): 0.1, (1, 1, 0, 0): 7.0},
    ],
}


@pytest.mark.parametrize("case", sorted(SCALE_CASES))
def test_scale_calibration_equals_the_reference_loop(case, caplog):
    block = block_of(CLIP_SCHEMA, SCALE_CASES[case])
    for q in (1e-12, 0.3, 0.5, 0.95, 1.0):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="fedsum.dp"):
            table = calibrate_scales(block, CLIP_SCHEMA, q)
        assert table == reference_scales(block, CLIP_SCHEMA, q)
        untouched = {
            (a, m)
            for a in range(2)
            for m in range(3)
            if not np.any(block.sums[block.activity == a, m])
        }
        assert {(a, m) for a, m in untouched if table[a][m] == 1.0} == untouched
        warned = {(int(r.args[0]), int(r.args[1])) for r in caplog.records}
        assert warned == untouched


@given(block=device_blocks(0, 12), q=st.floats(min_value=1e-12, max_value=1.0))
def test_scale_calibration_equals_a_loop_over_the_made_cells(block, q):
    if not np.any(block.sums):
        with pytest.raises(InvalidParameterError, match="no device has any data"):
            calibrate_scales(block, CLIP_SCHEMA, q)
    else:
        assert calibrate_scales(block, CLIP_SCHEMA, q) == reference_scales(block, CLIP_SCHEMA, q)


def test_scale_calibration_of_a_corpus_week_equals_the_reference(corpus_300, week_one_300):
    schema = corpus_300.schema
    window = corpus_300.device_histograms(week_one_300)
    for q in (0.5, 0.95, 1.0):
        assert calibrate_scales(window, schema, q) == reference_scales(window, schema, q)


@pytest.mark.parametrize("variant", VARIANTS)
def test_tables_and_cell_sums_of_a_corpus_week_equal_the_references(
    corpus_300, week_one_300, variant
):
    schema = corpus_300.schema
    window = corpus_300.device_histograms(week_one_300)
    resolved = resolve_mechanism(
        MechanismConfig(variant=variant, epsilon=1.0, quantile=0.9), window, schema
    )
    if variant == VARIANT_SPLIT:
        assert resolved.clip_table == reference_scales(window, schema, 0.9)
    if variant == VARIANT_SCALED:
        assert resolved.scale_table == reference_scales(window, schema, 0.9)
    bounded = resolved.transform_devices(window, schema)
    assert not np.array_equal(bounded.sums, window.sums)  # some devices clipped
    for block in (window, bounded):
        expected = {cell: v.hex() for cell, v in reference_cell_sums(block).items() if v}
        assert {cell: v.hex() for cell, v in sparse_of(block.cell_sums(schema)).items()} == expected


def hex_cells(block):
    """The block's nonzero cell sums as hex strings, per cell."""
    return {cell: v.hex() for cell, v in sparse_of(block.cell_sums(CLIP_SCHEMA)).items()}


def reference_hex_cells(block):
    return {cell: v.hex() for cell, v in reference_cell_sums(block).items() if v}


@given(block=device_blocks(0, 12))
def test_cell_sums_equal_a_per_cell_fsum(block):
    assert hex_cells(block) == reference_hex_cells(block)


def test_cell_sums_break_ties_and_cancel_as_fsum_does():
    tie = [{(0, 1, 0, 0): 1.0}, {(0, 1, 0, 0): 2.0**-53}]
    broken = [*tie, {(0, 1, 0, 0): 2.0**-106}]
    cancelled = [{(1, 2, 1, 1): 1e16}, {(1, 2, 1, 1): 1.0}, {(1, 2, 1, 1): -1e16}]
    for devices in (tie, broken, cancelled, [*broken, *cancelled]):
        block = block_of(CLIP_SCHEMA, devices)
        assert hex_cells(block) == reference_hex_cells(block)
    above_one = math.nextafter(1.0, 2.0).hex()
    assert hex_cells(block_of(CLIP_SCHEMA, broken)) == {(0, 1, 0, 0): above_one}


def test_cell_sums_of_cells_that_are_not_finite_are_fsum_s():
    cells = [{(0, 0, 0, 0): math.inf, (1, 1, 1, 1): math.nan}, {(0, 0, 0, 0): 1.0}]
    sums = block_of(CLIP_SCHEMA, cells).cell_sums(CLIP_SCHEMA)
    assert sums[0, 0, 0, 0] == math.inf and math.isnan(sums[1, 1, 1, 1])
    for cells, error in (([math.inf, -math.inf], ValueError), ([1e308, 1e308], OverflowError)):
        with pytest.raises(error):
            block_of(CLIP_SCHEMA, [{(0, 0, 0, 0): v} for v in cells]).cell_sums(CLIP_SCHEMA)


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_server_admits_every_device_bounded_upload(corpus_300, week_one_300, variant):
    """Each device's rows of the window's bounded block pass the server's
    L1 check: the server never refuses what the device transform made."""
    schema = corpus_300.schema
    window = corpus_300.device_histograms(week_one_300)
    config = MechanismConfig(variant=variant, epsilon=1.0, quantile=0.95)
    resolved = resolve_mechanism(config, window, schema)
    bounded = resolved.transform_devices(window, schema)
    metrics = list(range(schema.num_metrics))
    scaled = window.sums / np.asarray(resolved.scale_table)[window.activity]
    assert not np.array_equal(bounded.sums, scaled)  # some devices clipped
    for device in devices_of(bounded):
        upload = rows_of(bounded, bounded.device == device)
        order = np.argsort(upload.partitions(schema))
        values = upload.sums[order].ravel().tolist()
        norm = math.fsum(map(abs, values))
        partitions = upload.partitions(schema)[order].tolist()
        assert not resolved.exceeds_bound(norm, partitions, values, metrics, schema)


# Two cells of one (activity, metric) slice whose norm, 2e308, is too
# large for a float.
OVERFLOWING = {(0, 0, 0, 0): 1e308, (0, 0, 0, 1): 1e308}


@pytest.mark.parametrize("others", [0, 2], ids=["one_device", "many_devices"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_norm_too_large_for_a_float_is_refused_naming_its_device(variant, others):
    block = block_of(CLIP_SCHEMA, [{(1, 0, 0, 0): 1.0}] * others + [OVERFLOWING])
    params = {"clip_table": [[1.0] * 3] * 2} if variant == VARIANT_SPLIT else {"clip": 1.0}
    if variant == VARIANT_SCALED:
        params["scale_table"] = [[1.0] * 3] * 2
    with pytest.raises(InvalidParameterError, match=f"device {others}'s L1 norm"):
        bounded_hexes(variant, block, params)


@pytest.mark.parametrize("others", [0, 2], ids=["one_device", "many_devices"])
@pytest.mark.parametrize("variant", [VARIANT_JOINT, VARIANT_SCALED])
def test_an_infinite_bound_leaves_even_a_norm_too_large_for_a_float(variant, others):
    block = block_of(CLIP_SCHEMA, [{(1, 0, 0, 0): 1.0}] * others + [OVERFLOWING])
    params = {"clip": math.inf}
    if variant == VARIANT_SCALED:
        params["scale_table"] = [[1.0] * 3] * 2
    resolved = resolve_mechanism(
        MechanismConfig(variant=variant, epsilon=math.inf, **params), [], CLIP_SCHEMA
    )
    assert np.array_equal(resolved.transform_devices(block, CLIP_SCHEMA).sums, block.sums)


@pytest.mark.parametrize("q", [1e-12, 1.0])
def test_clip_calibration_refuses_a_norm_too_large_for_a_float(q):
    block = block_of(CLIP_SCHEMA, [{(1, 0, 0, 0): 1.0}] * 3 + [OVERFLOWING])
    with pytest.raises(InvalidParameterError, match="device 3's L1 norm"):
        calibrate_clip(block, q)


# Cells that are not finite, in one (activity, metric) slice.
NON_FINITE = {
    "inf_cell": {(0, 0, 0, 0): math.inf, (0, 0, 0, 1): 1.0},
    "nan_cell": {(0, 0, 0, 0): math.nan, (0, 0, 0, 1): 1.0},
}


@pytest.mark.parametrize("cell", sorted(NON_FINITE))
@pytest.mark.parametrize("others", [0, 2], ids=["one_device", "many_devices"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_cell_that_is_not_finite_is_refused_naming_its_device(variant, others, cell):
    block = block_of(CLIP_SCHEMA, [{(1, 0, 0, 0): 1.0}] * others + [NON_FINITE[cell]])
    params = {"clip_table": [[1.0] * 3] * 2} if variant == VARIANT_SPLIT else {"clip": 1.0}
    if variant == VARIANT_SCALED:
        params["scale_table"] = [[1.0] * 3] * 2
    message = f"device {others} holds a cell that is not finite"
    with pytest.raises(InvalidParameterError, match=message):
        bounded_hexes(variant, block, params)


@pytest.mark.parametrize("cell", sorted(NON_FINITE))
@pytest.mark.parametrize("others", [0, 2], ids=["one_device", "many_devices"])
@pytest.mark.parametrize("variant", [VARIANT_JOINT, VARIANT_SCALED])
def test_an_infinite_bound_leaves_a_cell_that_is_not_finite(variant, others, cell):
    block = block_of(CLIP_SCHEMA, [{(1, 0, 0, 0): 1.0}] * others + [NON_FINITE[cell]])
    params = {"clip": math.inf}
    if variant == VARIANT_SCALED:
        params["scale_table"] = [[1.0] * 3] * 2
    resolved = resolve_mechanism(
        MechanismConfig(variant=variant, epsilon=math.inf, **params), [], CLIP_SCHEMA
    )
    bounded = resolved.transform_devices(block, CLIP_SCHEMA)
    assert np.array_equal(bounded.sums, block.sums, equal_nan=True)


@pytest.mark.parametrize("cell", sorted(NON_FINITE))
@pytest.mark.parametrize("others", [0, 3], ids=["one_device", "many_devices"])
@pytest.mark.parametrize("q", [1e-12, 1.0])
def test_clip_calibration_refuses_a_cell_that_is_not_finite(q, others, cell):
    block = block_of(CLIP_SCHEMA, [{(1, 0, 0, 0): 1.0}] * others + [NON_FINITE[cell]])
    with pytest.raises(InvalidParameterError, match=f"device {others} holds a cell"):
        calibrate_clip(block, q)


@pytest.mark.parametrize(
    "cells, message",
    [
        (OVERFLOWING, "device 3's L1 norm"),
        *((cells, "device 3 holds a cell") for cells in NON_FINITE.values()),
    ],
    ids=["norm_too_large", *NON_FINITE],
)
def test_scale_calibration_refuses_a_norm_that_is_not_finite(cells, message):
    block = block_of(CLIP_SCHEMA, [{(1, 0, 0, 0): 1.0}] * 3 + [cells])
    with pytest.raises(InvalidParameterError, match=message):
        calibrate_scales(block, CLIP_SCHEMA, 0.5)


# --- thresholding -------------------------------------------------------------


def threshold_fixture(cell_schema):
    return hist(
        cell_schema, {(0, 0, 0, 0): 5.0, (0, 0, 0, 1): -2.0, (0, 0, 0, 2): 10.0}
    )


def threshold(h, tau, strict=False):
    """apply_threshold on the histogram's dense array, read back sparse."""
    kept, suppressed = apply_threshold(dense_of(h.schema, h), tau, strict)
    return IndexedHistogram.from_dense(h.schema, kept), suppressed


def test_threshold_drops_small_partitions(cell_schema):
    kept, suppressed = threshold(threshold_fixture(cell_schema), 3.0)
    assert suppressed == 1
    assert dict(kept.items()) == {(0, 0, 0, 0): 5.0, (0, 0, 0, 2): 10.0}


def test_zero_threshold_is_the_identity(cell_schema):
    original = dense_of(cell_schema, threshold_fixture(cell_schema))
    kept, suppressed = apply_threshold(original, 0.0)
    assert suppressed == 0
    assert np.array_equal(kept, original)
    kept[0, 0, 0, 0] = 99.0  # a copy, not a view
    assert original[0, 0, 0, 0] == 5.0


def test_strict_zero_threshold_drops_negatives(cell_schema):
    kept, suppressed = threshold(threshold_fixture(cell_schema), 0.0, strict=True)
    assert suppressed == 1
    assert (0, 0, 0, 1) not in dict(kept.items())


def test_threshold_can_empty_a_histogram(cell_schema):
    kept, suppressed = threshold(threshold_fixture(cell_schema), 100.0)
    assert len(kept) == 0
    assert suppressed == 3


def test_negative_threshold_is_rejected(cell_schema):
    with pytest.raises(InvalidParameterError):
        apply_threshold(dense_of(cell_schema, threshold_fixture(cell_schema)), -0.5)


# --- noise primitives ------------------------------------------------------------


def test_infinite_epsilon_adds_exactly_no_noise(small_schema):
    h = hist(small_schema, {(0, 1, 2, 0): 12.5, (2, 0, 3, 1): -4.0})
    out = release([h], small_schema, seed=3, variant=VARIANT_JOINT,
                  epsilon=math.inf, clip=math.inf)
    assert out.histogram == h


def test_huge_epsilon_is_near_the_identity(small_schema):
    h = hist(small_schema, {(0, 1, 2, 0): 12.5})
    out = release([h], small_schema, seed=3, variant=VARIANT_JOINT,
                  epsilon=1e9, clip=12.5)
    assert out.histogram[(0, 1, 2, 0)] == pytest.approx(12.5, abs=1e-6)


def test_full_domain_noise_covers_empty_cells(cell_schema):
    out = release([], cell_schema, seed=1, variant=VARIANT_JOINT,
                  epsilon=1.0, clip=1.0)
    assert len(out.histogram) == 3  # every (direction) coordinate of the empty input


def test_epsilon_must_be_positive_for_noise(cell_schema):
    with pytest.raises(InvalidParameterError):
        MechanismConfig(variant=VARIANT_JOINT, epsilon=0.0, clip=1.0)


def test_pure_noise_has_laplace_variance(cell_schema):
    clip, epsilon = 2.0, 1.0
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=epsilon, clip=clip)
    prepared = prepare_mechanism(config, [], cell_schema)
    samples = [
        value
        for seed in range(2000)
        for _, value in prepared.release("w0", seed).histogram.items()
    ]
    b = clip / epsilon
    assert len(samples) == 6000
    assert statistics.mean(samples) == pytest.approx(0.0, abs=0.15)
    assert statistics.pvariance(samples) == pytest.approx(2 * b * b, rel=0.12)


def test_same_seed_same_release_and_fresh_seed_differs(cell_schema):
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=1.0)
    prepared = prepare_mechanism(config, linear_devices(cell_schema, 5), cell_schema)
    assert prepared.release("w0", 7) == prepared.release("w0", 7)
    assert prepared.release("w0", 7) != prepared.release("w0", 8)
    assert prepared.release("w0", 7) != prepared.release("w1", 7)


def test_noise_draws_are_shared_across_epsilons(cell_schema):
    """Releases at two budgets reuse the same underlying draws, rescaled."""
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=2.0)
    prepared = prepare_mechanism(config, [], cell_schema)
    wide = dict(prepared.release("w0", 3, epsilon=1.0).histogram.items())
    narrow = dict(prepared.release("w0", 3, epsilon=2.0).histogram.items())
    assert set(wide) == set(narrow)
    for index, value in wide.items():
        assert narrow[index] == value / 2.0  # power-of-two scales: exact


# --- the dense release against a coordinate-by-coordinate reference ------------


def reference_release(resolved, aggregate, window_id, seed, epsilon):
    """(histogram, suppressed) built one coordinate at a time.

    Each coordinate's uniform is position ``r * D + d`` of the stream
    ``(seed, "release-noise", window_id)`` at index ``(a, m)``, drawn on
    its own as the last of a block that long.  Its noise is drawn at the
    slice's scale with ``laplace_from_uniform``, then multiplied by the
    slice's entry of the scale table (the identity for the variants that
    do not scale) and thresholded by a loop over the stored entries.
    """
    schema = aggregate.schema
    rng = BlockRng(seed, "release-noise", window_id)
    scales = resolved.noise_scales(schema, epsilon)
    table = resolved.scale_table
    noised = IndexedHistogram(schema)
    num_directions = schema.shape[3]
    for a, m, r, d in itertools.product(*map(range, schema.shape)):
        position = r * num_directions + d
        u = rng.uniforms(position + 1, a, m)[position]
        value = aggregate[(a, m, r, d)] + laplace_from_uniform(u, scales[a][m])
        noised[(a, m, r, d)] = value * table[a][m]
    if resolved.tau == 0.0 and not resolved.strict_tau:
        return noised, 0
    kept = IndexedHistogram(schema)
    suppressed = 0
    for index, value in noised.items():
        if value < resolved.tau:
            suppressed += 1
        else:
            kept[index] = value
    return kept, suppressed


REFERENCE_CASES = {
    "plain": {},
    "tau": {"tau": 30.0},
    "strict_tau": {"strict_tau": True},
    "infinite_epsilon": {"tau": 30.0},
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
@pytest.mark.parametrize("variant", VARIANTS)
def test_release_equals_the_coordinate_by_coordinate_reference(
    small_schema, variant, case
):
    devices = [
        hist(
            small_schema,
            {
                (i % 3, i % 2, i % 4, i % 3): 1.0 + 0.37 * i,
                (2, 2, (i * 7) % 4, 1): 3.0 + 1.9 * (i % 5),
            },
        )
        for i in range(40)
    ]
    prepared = prepare_mechanism(
        MechanismConfig(variant=variant, epsilon=1.0, quantile=0.9),
        block_of(small_schema, devices),
        small_schema,
    )
    resolved = dataclasses.replace(prepared.resolved, **REFERENCE_CASES[case])
    epsilons = (math.inf,) if case == "infinite_epsilon" else (1.0, 0.25)
    suppressed_total = 0
    prenoise = IndexedHistogram.from_dense(small_schema, prepared.prenoise)
    for seed in (0, 5):
        unit = UnitLaplace(seed, "w7", small_schema)
        for epsilon in epsilons:
            expected, suppressed = reference_release(
                resolved, prenoise, "w7", seed, epsilon
            )
            for shared in (None, unit):
                release = resolved.finalize(
                    small_schema, prepared.prenoise, "w7", seed, epsilon, unit=shared
                )
                assert release.histogram.serialize() == expected.serialize()
                assert release.suppressed_partitions == suppressed
            suppressed_total += suppressed
    if resolved.tau > 0 or resolved.strict_tau:
        assert suppressed_total > 0  # the threshold had something to drop


def test_a_noise_free_release_draws_nothing(small_schema, monkeypatch):
    draws = []
    uniforms = BlockRng.uniforms

    def counted(self, size, *index):
        draws.extend([index] * size)
        return uniforms(self, size, *index)

    monkeypatch.setattr(BlockRng, "uniforms", counted)
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=math.inf, clip=1.0)
    prepared = prepare_mechanism(config, linear_devices(small_schema, 5), small_schema)
    prepared.release("w0", 3)
    assert draws == []
    prepared.release("w0", 3, epsilon=1.0)
    assert len(draws) == math.prod(small_schema.shape)  # one per coordinate


def test_unit_noise_must_match_the_seed_and_window(cell_schema):
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=1.0)
    prepared = prepare_mechanism(config, [], cell_schema)
    prepared.release("w0", 3, unit=UnitLaplace(3, "w0", cell_schema))
    for seed, window_id in ((4, "w0"), (3, "w1")):
        with pytest.raises(InvalidParameterError):
            prepared.release(
                "w0", 3, unit=UnitLaplace(seed, window_id, cell_schema)
            )


# --- configured mechanisms -----------------------------------------------------


def test_config_validation_matrix(cell_schema):
    good = dict(variant=VARIANT_JOINT, epsilon=1.0)
    MechanismConfig(**good)
    for bad in (
        {"variant": "bogus"},
        {"epsilon": 0.0},
        {"epsilon": -2.0},
        {"quantile": 0.0},
        {"quantile": 1.0001},
        {"clip": 0.0},
        {"tau": -1.0},
        {"tau": math.nan},
        {"clip": math.inf},  # finite budget cannot excuse an unbounded norm
    ):
        with pytest.raises(InvalidParameterError):
            MechanismConfig(**{**good, **bad})
    MechanismConfig(variant=VARIANT_JOINT, epsilon=math.inf, clip=math.inf)


def test_parameters_are_tied_to_their_variant(cell_schema):
    table = ((1.0,),)
    cases = [
        dict(variant=VARIANT_JOINT, scale_table=table),
        dict(variant=VARIANT_JOINT, clip_table=table),
        dict(variant=VARIANT_JOINT, budget_weights=((1.0,),)),
        dict(variant=VARIANT_SPLIT, clip=1.0),
        dict(variant=VARIANT_SPLIT, scale_table=table),
    ]
    for case in cases:
        with pytest.raises(InvalidParameterError, match="applies only to"):
            MechanismConfig(epsilon=1.0, **case)


BAD_TABLES = {
    "ragged": ((1.0, 1.0), (1.0,)),
    "empty": (),
    "empty_row": ((),),
    "zero": ((1.0, 0.0),),
    "negative": ((1.0, -2.0),),
    "nan": ((1.0, math.nan),),
    "inf": ((1.0, math.inf),),
    "-inf": ((1.0, -math.inf),),
}


@pytest.mark.parametrize("case", sorted(BAD_TABLES))
@pytest.mark.parametrize(
    "variant,key",
    [
        (VARIANT_SCALED, "scale_table"),
        (VARIANT_SPLIT, "clip_table"),
        (VARIANT_SPLIT, "budget_weights"),
    ],
)
def test_tables_are_checked_when_the_config_is_built(variant, key, case):
    with pytest.raises(InvalidParameterError, match=key):
        MechanismConfig(variant=variant, epsilon=1.0, **{key: BAD_TABLES[case]})


def test_tables_are_stored_as_float_tuples():
    config = MechanismConfig(
        variant=VARIANT_SPLIT,
        epsilon=1.0,
        clip_table=[[1, 2], [3, 4]],
        budget_weights=np.full((2, 2), 0.25),
    )
    assert config.clip_table == ((1.0, 2.0), (3.0, 4.0))
    assert config.budget_weights == ((0.25, 0.25), (0.25, 0.25))
    assert all(
        type(v) is float
        for table in (config.clip_table, config.budget_weights)
        for row in table
        for v in row
    )
    assert hash(config) == hash(dataclasses.replace(config))


def test_budget_weights_must_be_a_distribution(small_schema):
    shape_ok = tuple(
        tuple(1.0 / 9.0 for _ in range(3)) for _ in range(3)
    )
    resolve_mechanism(
        MechanismConfig(variant=VARIANT_SPLIT, epsilon=1.0, budget_weights=shape_ok),
        linear_devices(small_schema, 3),
        small_schema,
    )
    not_positive = tuple(tuple(0.0 for _ in range(3)) for _ in range(3))
    sums_to_nine = tuple(tuple(1.0 for _ in range(3)) for _ in range(3))
    for weights in (not_positive, sums_to_nine):
        with pytest.raises(InvalidParameterError):
            MechanismConfig(
                variant=VARIANT_SPLIT, epsilon=1.0, budget_weights=weights
            )
    wrong_shape = MechanismConfig(
        variant=VARIANT_SPLIT, epsilon=1.0, budget_weights=((0.5, 0.5),)
    )
    with pytest.raises(SchemaMismatchError):
        resolve_mechanism(wrong_shape, linear_devices(small_schema, 3), small_schema)


def test_split_noise_scales_divide_the_budget_uniformly(small_schema):
    table = ((1.0, 2.0, 4.0), (8.0, 16.0, 32.0), (1.0, 1.0, 1.0))
    resolved = resolve_mechanism(
        MechanismConfig(variant=VARIANT_SPLIT, epsilon=2.0, clip_table=table),
        [],
        small_schema,
    )
    scales = resolved.noise_scales(small_schema)
    for a in range(3):
        for m in range(3):
            assert scales[a][m] == table[a][m] * 9 / 2.0


def test_custom_weights_shift_noise_between_slices(cell_schema):
    resolved = resolve_mechanism(
        MechanismConfig(
            variant=VARIANT_SPLIT,
            epsilon=1.0,
            clip_table=((3.0,),),
            budget_weights=((1.0,),),
        ),
        [],
        cell_schema,
    )
    assert resolved.noise_scales(cell_schema).tolist() == [[3.0]]


def test_budget_split_spends_no_more_than_its_epsilon():
    """Weights within the 1e-6 tolerance of summing to 1 are read as shares
    of epsilon: the slices' epsilons (clip over scale) add up to epsilon."""
    schema = Schema(num_activities=3, num_regions=2, activity_names=("a", "b", "c"))
    weights = (((1 + 9e-7) / 9,) * 3,) * 3
    resolved = resolve_mechanism(
        MechanismConfig(
            variant=VARIANT_SPLIT,
            epsilon=2.0,
            clip_table=((1.0,) * 3,) * 3,
            budget_weights=weights,
        ),
        [],
        schema,
    )
    spent = math.fsum((1.0 / resolved.noise_scales(schema)).ravel().tolist())
    assert spent <= 2.0 * (1 + 1e-12)
    assert resolved.finalize(
        schema, np.zeros(schema.shape), "w0", 0
    ).metadata["privacy_label"].endswith("epsilon=2.0")


def test_joint_noise_scale_is_clip_over_epsilon(small_schema):
    resolved = resolve_mechanism(
        MechanismConfig(variant=VARIANT_JOINT, epsilon=4.0, clip=10.0),
        [],
        small_schema,
    )
    assert resolved.noise_scales(small_schema).tolist() == [[2.5] * 3] * 3
    assert resolved.noise_scales(small_schema, epsilon=math.inf).tolist() == (
        [[0.0] * 3] * 3
    )


def test_prepared_prenoise_is_the_exact_transformed_sum(small_schema):
    devices = [
        hist(small_schema, {(0, 0, 0, 0): 1.0 + i, (1, 2, 3, 1): 0.3 * i})
        for i in range(40)
    ]
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=2.0)
    block = block_of(small_schema, devices)
    prepared = prepare_mechanism(config, block, small_schema)
    bounded = prepared.resolved.transform_devices(block, small_schema)
    transformed = histograms_of(bounded, small_schema)
    assert transformed != devices  # some devices were clipped
    prenoise = IndexedHistogram.from_dense(small_schema, prepared.prenoise)
    assert prenoise == exact_sum(small_schema, transformed)
    sums = bounded.cell_sums(small_schema)
    assert sums.shape == small_schema.shape
    assert np.array_equal(prepared.prenoise, sums)
    assert len(np.unique(bounded.device)) == 40


def test_epsilon_override_lands_in_the_metadata(cell_schema):
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=1.0)
    prepared = prepare_mechanism(config, linear_devices(cell_schema, 5), cell_schema)
    release = prepared.release("w0", 0, epsilon=8.0)
    assert release.metadata["epsilon"] == 8.0
    assert release.metadata["privacy_label"].endswith("epsilon=8.0")
    assert release.metadata["dp"] is True
    assert release.metadata["clip_table_digest"] is None
    assert release.metadata["scale_table_digest"] is not None


def test_only_a_noised_release_is_labelled_dp(cell_schema):
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=1.0)
    prepared = prepare_mechanism(config, linear_devices(cell_schema, 5), cell_schema)
    exact = prepared.release("w0", 0, epsilon=math.inf)
    assert np.array_equal(exact.values, prepared.prenoise)  # no noise was added
    assert exact.metadata["dp"] is False
    assert "epsilon" not in exact.metadata["privacy_label"]
    assert "not differentially private" in exact.metadata["privacy_label"]
    noised = prepared.release("w0", 0, epsilon=2.0)
    assert not np.array_equal(noised.values, prepared.prenoise)
    assert noised.metadata["dp"] is True
    assert noised.metadata["privacy_label"] == (
        "laplace per-device-per-window, epsilon=2.0"
    )


def test_release_metadata_names_the_noise_generator_and_sampler(cell_schema):
    # A later change of generator or sampler must show in the metadata.
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=1.0)
    prepared = prepare_mechanism(config, linear_devices(cell_schema, 5), cell_schema)
    noised = prepared.release("w0", 0)
    assert noised.metadata["noise"] == "philox4x64 / inverse-cdf laplace, 52-bit uniforms"
    assert prepared.release("w0", 0, epsilon=math.inf).metadata["noise"] is None


@pytest.mark.parametrize(
    "config",
    [
        dict(variant=VARIANT_JOINT),
        dict(variant=VARIANT_SPLIT),
        dict(variant=VARIANT_SCALED),
        dict(variant=VARIANT_SCALED, clip=1.0),
    ],
    ids=["joint", "split", "scaled", "scaled_with_clip"],
)
def test_calibration_refuses_a_proxy_with_no_active_device(small_schema, config):
    idle = block_of(small_schema, [IndexedHistogram(small_schema)] * 3)
    for proxy in ([], idle):
        with pytest.raises(InvalidParameterError, match="no device has any data"):
            resolve_mechanism(
                MechanismConfig(epsilon=1.0, **config), proxy, small_schema
            )


def test_table_digests_keep_their_byte_layout(small_schema):
    """BLAKE2b of the ``<II`` shape, then every entry as ``<d``, row-major."""

    def digest(table):
        data = struct.pack("<II", len(table), len(table[0]))
        data += b"".join(struct.pack("<d", v) for row in table for v in row)
        return blake2b(data, digest_size=8).hexdigest()

    table = ((0.5, 2.0, 3.25), (1e-3, 7.0, 1e300), (1.0, 1.0, 4.0))
    split = prepare_mechanism(
        MechanismConfig(variant=VARIANT_SPLIT, epsilon=1.0, clip_table=table),
        [],
        small_schema,
    ).release("w0", 0)
    assert split.metadata["clip_table_digest"] == digest(table)
    assert split.metadata["scale_table_digest"] == digest(((1.0,) * 3,) * 3)
    scaled = prepare_mechanism(
        MechanismConfig(
            variant=VARIANT_SCALED, epsilon=1.0, clip=1.0, scale_table=table
        ),
        [],
        small_schema,
    ).release("w0", 0)
    assert scaled.metadata["scale_table_digest"] == digest(table)
    assert scaled.metadata["clip_table_digest"] is None


def test_table_digests_are_computed_once_per_mechanism(small_schema, monkeypatch):
    digests = []

    def counted(data, **kwargs):
        digests.append(data)
        return blake2b(data, **kwargs)

    monkeypatch.setattr(dp, "blake2b", counted)
    table = ((0.5, 2.0, 3.25), (1e-3, 7.0, 1e300), (1.0, 1.0, 4.0))
    prepared = prepare_mechanism(
        MechanismConfig(variant=VARIANT_SPLIT, epsilon=1.0, clip_table=table),
        [],
        small_schema,
    )
    releases = [prepared.release("w0", seed) for seed in range(3)]
    assert len(digests) == 2  # one per table, not one per release
    assert len({r.metadata["clip_table_digest"] for r in releases}) == 1


# --- the release record ---------------------------------------------------------------


def test_a_release_reads_its_dense_values_as_a_histogram(small_schema):
    devices = block_of(
        small_schema,
        [hist(small_schema, {(i % 3, 1, i % 4, 2): 1.0 + i}) for i in range(30)],
    )
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=4.0, tau=2.0)
    prepared = prepare_mechanism(config, devices, small_schema)
    release = prepared.release("w0", 3)
    assert release.suppressed_partitions > 0
    assert not release.values.flags.writeable
    expected = IndexedHistogram.from_dense(small_schema, release.values)
    assert release.histogram is release.histogram  # built once, on first read
    assert release.histogram == expected
    assert release.histogram.serialize() == expected.serialize()
    assert release == prepared.release("w0", 3)
    assert release != prepared.release("w0", 4)
    assert release != prepared.release("w1", 3)
    assert release != dataclasses.replace(
        release, suppressed_partitions=release.suppressed_partitions + 1
    )
    exact = prepared.release("w0", 3, epsilon=math.inf)
    assert exact.histogram == IndexedHistogram.from_dense(
        small_schema, prepared.prenoise
    )
    assert exact.metadata["dp"] is False
    # Metadata is provenance, not content: exact releases of two seeds are equal.
    assert exact == prepared.release("w0", 4, epsilon=math.inf)


def test_a_release_refuses_an_aggregate_of_another_shape(small_schema, cell_schema):
    resolved = resolve_mechanism(
        MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=1.0), [], cell_schema
    )
    with pytest.raises(SchemaMismatchError):
        resolved.finalize(cell_schema, np.zeros(small_schema.shape), "w0", 0)


# --- variant semantics --------------------------------------------------------------


def test_scaling_variant_descales_after_noising(cell_schema):
    """With a power-of-two scale, pure noise comes back multiplied exactly."""
    factor = 4.0
    scaled = release(
        [],
        cell_schema,
        seed=5,
        variant=VARIANT_SCALED,
        epsilon=1.0,
        clip=1.0,
        scale_table=((factor,),),
    )
    plain = release([], cell_schema, seed=5, variant=VARIANT_JOINT, epsilon=1.0, clip=1.0)
    for index, value in plain.histogram.items():
        assert scaled.histogram[index] == value * factor


def test_descaled_noise_variance_matches_the_scale(cell_schema):
    factor = 4.0
    config = MechanismConfig(
        variant=VARIANT_SCALED,
        epsilon=1.0,
        clip=1.0,
        scale_table=((factor,),),
    )
    prepared = prepare_mechanism(config, [], cell_schema)
    samples = [
        value
        for seed in range(2000)
        for _, value in prepared.release("w0", seed).histogram.items()
    ]
    assert statistics.pvariance(samples) == pytest.approx(
        2.0 * factor * factor, rel=0.12
    )


def test_identity_scaling_degenerates_to_joint_clipping(small_schema):
    devices = [
        hist(small_schema, {(0, 0, 0, 0): 2.0 * i, (2, 1, 1, 2): 5.0})
        for i in range(30)
    ]
    scaled = release(
        devices,
        small_schema,
        seed=9,
        variant=VARIANT_SCALED,
        epsilon=2.0,
        clip=3.0,
        scale_table=((1.0,) * 3,) * 3,
    )
    joint = release(devices, small_schema, seed=9, variant=VARIANT_JOINT, epsilon=2.0, clip=3.0)
    assert scaled.histogram.serialize() == joint.histogram.serialize()


def test_single_slice_budget_split_degenerates_to_joint_clipping(cell_schema):
    devices = [hist(cell_schema, {(0, 0, 0, 0): float(i + 1)}) for i in range(30)]
    split = release(
        devices, cell_schema, seed=9, variant=VARIANT_SPLIT, epsilon=2.0,
        clip_table=((3.0,),),
    )
    joint = release(devices, cell_schema, seed=9, variant=VARIANT_JOINT, epsilon=2.0, clip=3.0)
    assert split.histogram.serialize() == joint.histogram.serialize()


def test_split_clips_each_slice_independently(small_schema):
    device = hist(
        small_schema,
        {(0, 0, 0, 0): 10.0, (1, 1, 0, 0): 1.0},
    )
    table_rows = [[2.0, 1e9, 1e9], [1e9, 1e9, 1e9], [1e9, 1e9, 1e9]]
    resolved = resolve_mechanism(
        MechanismConfig(
            variant=VARIANT_SPLIT, epsilon=1.0, clip_table=table_rows
        ),
        block_of(small_schema, [device]),
        small_schema,
    )
    bounded = transform(resolved, device)
    assert bounded[(0, 0, 0, 0)] == 2.0  # clipped to its slice bound
    assert bounded[(1, 1, 0, 0)] == 1.0  # untouched slice


def test_joint_transform_preserves_direction_within_budget(small_schema):
    device = hist(small_schema, {(0, 0, 0, 0): 6.0, (0, 1, 0, 0): -2.0})
    resolved = resolve_mechanism(
        MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=4.0),
        block_of(small_schema, [device]),
        small_schema,
    )
    bounded = transform(resolved, device)
    assert bounded[(0, 0, 0, 0)] == 3.0
    assert bounded[(0, 1, 0, 0)] == -1.0


def test_power_of_two_scaling_round_trips_through_release(small_schema):
    rows = [[2.0, 4.0, 8.0], [0.5, 1.0, 2.0], [4.0, 4.0, 4.0]]
    devices = [
        hist(small_schema, {(0, 0, 0, 0): 0.7 * (i + 1), (1, 2, 2, 1): 3.1})
        for i in range(20)
    ]
    out = release(
        devices,
        small_schema,
        variant=VARIANT_SCALED,
        epsilon=math.inf,
        clip=math.inf,
        scale_table=rows,
    )
    assert out.histogram == exact_sum(small_schema, devices)


def test_calibration_happens_in_scaled_space(cell_schema):
    """A missing joint clip for the scaling variant bounds scaled norms."""
    devices = linear_devices(cell_schema, 100)
    table = ((2.0,),)
    resolved = resolve_mechanism(
        MechanismConfig(variant=VARIANT_SCALED, epsilon=1.0, scale_table=table),
        devices,
        cell_schema,
    )
    # Raw norms 1..100 halve to 0.5..50; the 0.95 quantile is 47.5.
    assert resolved.clip == 47.5
