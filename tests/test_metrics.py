"""Accuracy and coverage metrics against hand-computed references."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fedsum.metrics import (
    WindowTruth,
    default_device_floor,
    exact_workload,
    per_user_mean_error,
    weighted_relative_error,
    window_truth,
)
from fedsum.model import (
    IndexedHistogram,
    InvalidParameterError,
    Schema,
    SchemaMismatchError,
)
from fedsum.synth import DeviceRecords, SyntheticCorpusConfig, generate_corpus

from fedsum.windows import WindowAlignment, round_down_window, window_after

from blocks import counts_of, dense_of, exact_sum, histograms_of, sparse_of
from helpers import (
    corpus_of,
    naive_device_counts,
    naive_workload,
    sparse_per_user_mean_error,
    sparse_scored_cells,
    sparse_weighted_relative_error,
    trip,
)


def hist(schema, entries):
    """The dense array of hand-written cells."""
    return dense_of(schema, entries)


def tiny_corpus(schema, records_by_device):
    devices = [
        DeviceRecords(
            device_id, "high_end", records[0].region if records else 0, list(records)
        )
        for device_id, records in enumerate(records_by_device)
    ]
    config = SyntheticCorpusConfig(num_devices=max(len(devices), 1))
    return corpus_of(config, schema, devices)


# --- exact workload ------------------------------------------------------------


def test_one_trip_fills_three_cells(small_schema, week_one_300):
    corpus = tiny_corpus(
        small_schema, [[trip(a=1, r=2, d=0, km=4.5, s=300.0)]]
    )
    workload = exact_workload(corpus, corpus.device_histograms(week_one_300))
    assert workload.shape == small_schema.shape
    assert sparse_of(workload) == {
        (1, 0, 2, 0): 1.0,
        (1, 1, 2, 0): 4.5,
        (1, 2, 2, 0): 300.0,
    }


def test_workload_agrees_with_an_independent_oracle(corpus_300, week_one_300):
    workload = exact_workload(corpus_300, corpus_300.device_histograms(week_one_300))
    assert sparse_of(workload) == naive_workload(corpus_300, week_one_300)


@pytest.mark.parametrize("alignment", [WindowAlignment.WEEK, WindowAlignment.DAY])
def test_truth_and_counts_match_the_oracles_in_every_window(
    corpus_300, alignment
):
    config = corpus_300.config
    window = round_down_window(config.start_time, alignment)
    checked = 0
    while window.start < config.start_time + config.num_weeks * 7 * 86400:
        block = corpus_300.device_histograms(window)
        truth = exact_workload(corpus_300, block)
        assert truth.shape == corpus_300.schema.shape
        assert sparse_of(truth) == naive_workload(corpus_300, window)
        counts = corpus_300.device_counts(block)
        expected = counts_of(corpus_300.schema, naive_device_counts(corpus_300, window))
        assert counts.dtype == np.int64 and np.array_equal(counts, expected)
        checked += bool(counts.any())
        window = window_after(window, alignment)
    assert checked == {WindowAlignment.WEEK: 1, WindowAlignment.DAY: 7}[alignment]


def test_a_window_truth_holds_the_workload_counts_and_cells_at_the_fleet_floor(
    corpus_300, week_one_300
):
    block = corpus_300.device_histograms(week_one_300)
    truth = window_truth(corpus_300, block)
    assert sparse_of(truth.workload) == naive_workload(corpus_300, week_one_300)
    counts = naive_device_counts(corpus_300, week_one_300)
    assert np.array_equal(truth.device_counts, counts_of(corpus_300.schema, counts))
    floor = default_device_floor(corpus_300.num_devices)
    expected = sparse_scored_cells(
        sparse_of(truth.workload), counts, floor, corpus_300.schema.shape
    )
    for metric, (indices, values, weights, total) in enumerate(expected):
        assert truth.cell_indices[metric].tolist() == indices
        assert truth.cell_truth[metric].tolist() == values
        assert truth.cell_weights[metric].tolist() == weights
        assert truth.total_weights[metric] == total
    assert any(truth.total_weights)


def test_workload_is_additive_across_subfleets(week_one_300):
    left = generate_corpus(SyntheticCorpusConfig(num_devices=40, num_regions=6, seed=1))
    right = generate_corpus(SyntheticCorpusConfig(num_devices=25, num_regions=6, seed=2))
    combined = corpus_of(
        left.config, left.schema, [*left.devices, *right.devices]
    )
    histograms = [
        h
        for corpus in (left, right)
        for h in histograms_of(corpus.device_histograms(week_one_300), corpus.schema)
    ]
    total = exact_sum(left.schema, histograms)
    workload = exact_workload(combined, combined.device_histograms(week_one_300))
    assert IndexedHistogram.from_dense(left.schema, workload) == total


# --- device floor ---------------------------------------------------------------


@pytest.mark.parametrize(
    "fleet,floor",
    [(0, 20), (100, 20), (10_000, 20), (10_001, 20), (20_000, 40), (1_000_000, 2000)],
)
def test_device_floor_scales_with_the_fleet(fleet, floor):
    assert default_device_floor(fleet) == floor


# --- weighted relative error -------------------------------------------------------


def counts_for(truth, value=100):
    """``value`` devices in every partition the truth holds."""
    return np.where((truth != 0.0).any(axis=1), value, 0)


def test_identical_release_scores_zero(small_schema):
    truth = hist(
        small_schema,
        {(0, 0, 0, 0): 50.0, (0, 1, 0, 0): 120.0, (0, 2, 0, 0): 900.0},
    )
    errors = weighted_relative_error(WindowTruth.from_arrays(truth, counts_for(truth), 1), truth)
    assert errors[0] == errors[1] == errors[2] == 0.0


def test_uniform_inflation_scores_its_factor(small_schema):
    truth = hist(
        small_schema,
        {
            (0, 0, 0, 0): 50.0,
            (0, 1, 0, 0): 120.0,
            (1, 0, 1, 2): 10.0,
            (1, 1, 1, 2): 40.0,
        },
    )
    estimate = truth * 1.03
    errors = weighted_relative_error(
        WindowTruth.from_arrays(truth, counts_for(truth), 1), estimate
    )
    assert errors[0] == pytest.approx(0.03)
    assert errors[1] == pytest.approx(0.03)
    assert math.isnan(errors[2])  # no duration truth anywhere


def test_partitions_weigh_in_by_trip_share(small_schema):
    truth = hist(
        small_schema,
        {
            (0, 0, 0, 0): 90.0,   # 90% of the region's trips
            (0, 1, 0, 0): 100.0,  # estimated exactly
            (1, 0, 0, 0): 10.0,   # 10% of the region's trips
            (1, 1, 0, 0): 50.0,   # estimated 20% low
        },
    )
    estimate = truth.copy()
    estimate[(1, 1, 0, 0)] = 40.0
    errors = weighted_relative_error(
        WindowTruth.from_arrays(truth, counts_for(truth), 1), estimate
    )
    assert errors[1] == pytest.approx(0.9 * 0.0 + 0.1 * 0.2)


def test_sparse_partitions_are_excluded_by_the_floor(small_schema):
    truth = hist(
        small_schema,
        {(0, 0, 0, 0): 90.0, (0, 1, 0, 0): 100.0, (1, 0, 0, 0): 10.0, (1, 1, 0, 0): 50.0},
    )
    estimate = truth.copy()
    estimate[(1, 1, 0, 0)] = 40.0
    counts = counts_of(small_schema, {(0, 0, 0): 100, (1, 0, 0): 3})
    errors = weighted_relative_error(WindowTruth.from_arrays(truth, counts, 20), estimate)
    assert errors[1] == 0.0  # the mis-estimated partition fell below the floor
    errors_all = weighted_relative_error(WindowTruth.from_arrays(truth, counts, 1), estimate)
    assert errors_all[1] == pytest.approx(0.02)


def test_missing_release_partitions_read_as_zero(small_schema):
    truth = hist(small_schema, {(0, 0, 0, 0): 10.0, (0, 1, 0, 0): 70.0})
    estimate = hist(small_schema, {(0, 0, 0, 0): 10.0})
    errors = weighted_relative_error(
        WindowTruth.from_arrays(truth, counts_for(truth), 1), estimate
    )
    assert errors[1] == pytest.approx(1.0)


def test_no_eligible_partition_is_nan_not_zero(small_schema):
    truth = hist(small_schema, {(0, 0, 0, 0): 10.0})
    errors = weighted_relative_error(
        WindowTruth.from_arrays(truth, counts_of(small_schema, {}), 20), truth
    )
    assert all(math.isnan(errors[m]) for m in range(3))


def test_negative_floor_is_rejected(small_schema):
    truth = hist(small_schema, {(0, 0, 0, 0): 10.0})
    with pytest.raises(InvalidParameterError):
        WindowTruth.from_arrays(truth, counts_of(small_schema, {}), -1)


SCORED = Schema(
    num_activities=2,
    num_metrics=3,
    num_regions=2,
    metric_names=("num_trips", "distance_km", "duration_s"),
    activity_names=("stroll", "drive"),
)
SCORED_CELLS = list(itertools.product(*map(range, SCORED.shape)))
SCORED_PARTITIONS = sorted({(a, r, d) for a, _m, r, d in SCORED_CELLS})
magnitudes = st.one_of(
    st.integers(1, 40).map(float),
    st.floats(1e-3, 1e4),
    st.floats(-1e4, -1e-3),
)


@st.composite
def scoring_inputs(draw):
    """(truth cells, estimate cells, device counts, floor) over ``SCORED``.

    Per cell the estimate equals the truth, lacks the cell, holds -0.0 or
    holds another value; one of the non-trip metrics may have no truth.
    """
    truth = draw(st.dictionaries(st.sampled_from(SCORED_CELLS), magnitudes, max_size=24))
    empty_metric = draw(st.sampled_from([None, 1, 2]))
    truth = {i: v for i, v in truth.items() if i[1] != empty_metric}
    estimate = {}
    for index in SCORED_CELLS:
        kind = draw(st.sampled_from(["same", "lacks", "negative_zero", "other"]))
        if kind == "same" and index in truth:
            estimate[index] = truth[index]
        elif kind == "negative_zero":
            estimate[index] = -0.0
        elif kind == "other":
            estimate[index] = draw(magnitudes)
    counts = draw(st.dictionaries(st.sampled_from(SCORED_PARTITIONS), st.integers(0, 5)))
    return truth, estimate, counts, draw(st.integers(0, 4))


@given(scoring_inputs())
@example(
    (
        {(0, 0, 0, 0): 4.0, (0, 1, 0, 0): 2.0, (1, 0, 0, 1): 1.0, (1, 1, 0, 1): 5.0},
        {(0, 1, 0, 0): -0.0, (0, 0, 0, 0): 4.0, (1, 1, 1, 2): 3.0},
        {(0, 0, 0): 2, (1, 0, 1): 1},
        1,
    )
)
def test_dense_scorer_matches_the_sparse_reference_bit_for_bit(case):
    """A -0.0 estimate, a lacking cell, an estimate-only cell and an empty
    metric (NaN) score as the dict-based scorer scores them."""
    truth, values, counts, floor = dense_case(case)
    got = weighted_relative_error(
        WindowTruth.from_arrays(truth, counts_of(SCORED, case[2]), floor), values
    )
    expected = sparse_weighted_relative_error(
        sparse_of(truth), sparse_of(values), case[2], floor, SCORED.num_metrics
    )
    assert {m: v.hex() for m, v in got.items()} == {
        m: v.hex() for m, v in expected.items()
    }


def dense_case(case):
    """(truth, estimate, device counts, floor) of a scoring case, dense."""
    truth_cells, estimate_cells, counts, floor = case
    estimate = np.zeros(SCORED.shape)
    for index, value in estimate_cells.items():
        estimate[index] = value
    return dense_of(SCORED, truth_cells), estimate, counts_of(SCORED, counts), floor


@given(scoring_inputs())
@example(  # region 0's trip total is 2**53 in index order, 2**53 + 2 in another
    (
        {(0, 0, 0, 0): 1.0, (0, 0, 0, 1): 2.0**53, (1, 0, 0, 0): 1.0, (1, 1, 0, 0): 5.0},
        {},
        {(0, 0, 0): 1, (0, 0, 1): 1, (1, 0, 0): 1},
        1,
    )
)
def test_dense_scored_cells_match_the_sparse_reference_bit_for_bit(case):
    """Region trip totals add in index order, cells keep index order, and
    indices, truth values, weights and total weights are equal bit for bit
    to the dict-based selection's."""
    truth, _, counts, floor = dense_case(case)
    cells = WindowTruth.from_arrays(truth, counts, floor)
    expected = sparse_scored_cells(sparse_of(truth), case[2], floor, SCORED.shape)
    for metric, (indices, values, weights, total) in enumerate(expected):
        assert cells.cell_indices[metric].tolist() == indices
        assert [v.hex() for v in cells.cell_truth[metric].tolist()] == [v.hex() for v in values]
        assert [w.hex() for w in cells.cell_weights[metric].tolist()] == [
            w.hex() for w in weights
        ]
        assert cells.total_weights[metric].hex() == total.hex()


@given(scoring_inputs(), st.sampled_from([[0], [1, 2], [0, 1, 2], [2, 0, 2]]))
def test_dense_per_user_error_matches_the_sparse_reference_bit_for_bit(case, metrics):
    truth, estimate, counts, _ = dense_case(case)
    got = per_user_mean_error(WindowTruth.from_arrays(truth, counts, 0), estimate, metrics)
    expected = sparse_per_user_mean_error(
        sparse_of(truth), sparse_of(estimate), case[2], metrics
    )
    assert got.hex() == expected.hex()


def test_an_estimate_of_another_shape_is_refused(small_schema):
    truth = hist(small_schema, {(0, 0, 0, 0): 10.0})
    with pytest.raises(SchemaMismatchError):
        weighted_relative_error(
            WindowTruth.from_arrays(truth, counts_of(small_schema, {}), 0), np.zeros(SCORED.shape)
        )


# --- per-user mean error -------------------------------------------------------------

K1, K2 = (0, 0, 0), (1, 2, 1)
K = K1


def by_partition(schema, rows):
    """A dense array from (activity, region, direction) -> one value per metric."""
    return dense_of(
        schema,
        {
            (a, m, r, d): value
            for (a, r, d), values in rows.items()
            for m, value in enumerate(values)
        },
    )


def per_user(schema, reference, result, counts, metrics):
    truth = WindowTruth.from_arrays(reference, counts_of(schema, counts), 0)
    return per_user_mean_error(truth, result, metrics)


def test_exact_rows_score_zero(small_schema):
    h = by_partition(small_schema, {K1: (10.0, 5.0), K2: (3.0, 4.0)})
    assert per_user(small_schema, h, h, {K1: 1, K2: 1}, [0, 1]) == 0.0


def test_error_is_discounted_by_contributors(small_schema):
    reference = by_partition(small_schema, {K: (10.0,)})
    result = by_partition(small_schema, {K: (9.0,)})
    assert per_user(small_schema, reference, result, {K: 1}, [0]) == pytest.approx(0.1)
    assert per_user(small_schema, reference, result, {K: 10}, [0]) == pytest.approx(0.01)


def test_partitions_average_evenly(small_schema):
    reference = by_partition(small_schema, {K1: (10.0,), K2: (10.0,)})
    result = by_partition(small_schema, {K1: (9.0,), K2: (7.0,)})
    counts = {K1: 1, K2: 1}
    assert per_user(small_schema, reference, result, counts, [0]) == pytest.approx(0.2)


def test_uncounted_partitions_are_excluded(small_schema):
    reference = by_partition(small_schema, {K1: (10.0,), K2: (10.0,)})
    result = by_partition(small_schema, {K1: (9.0,), K2: (0.0,)})
    assert per_user(small_schema, reference, result, {K1: 1}, [0]) == pytest.approx(0.1)
    assert math.isnan(per_user(small_schema, reference, result, {}, [0]))


def test_missing_result_rows_read_as_zero(small_schema):
    reference = by_partition(small_schema, {K: (10.0, 0.0)})
    empty = np.zeros(small_schema.shape)
    assert per_user(small_schema, reference, empty, {K: 1}, [0, 1]) == pytest.approx(1.0)


def test_empty_reference_is_nan(small_schema):
    empty = np.zeros(small_schema.shape)
    assert math.isnan(per_user(small_schema, empty, empty, {}, [0, 1, 2]))


def test_only_the_query_metrics_are_scored(small_schema):
    reference = by_partition(small_schema, {K: (10.0, 0.0, 10.0)})
    result = by_partition(small_schema, {K: (10.0, 3.0, 5.0)})
    assert per_user(small_schema, reference, result, {K: 1}, [0]) == 0.0
    assert per_user(small_schema, reference, result, {K: 1}, [0, 2]) == 0.25
    # A partition the truth holds only outside the query's metrics is not scored.
    assert math.isnan(per_user(small_schema, reference, result, {K: 1}, [1]))
