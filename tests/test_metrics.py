"""Accuracy and coverage metrics against hand-computed references."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fedsum.metrics import (
    default_device_floor,
    exact_workload,
    per_user_mean_error,
    weighted_relative_error,
)
from fedsum.model import (
    IndexedHistogram,
    InvalidParameterError,
    Schema,
    SchemaMismatchError,
)
from fedsum.synth import Corpus, DeviceRecords, SyntheticCorpusConfig, generate_corpus

from fedsum.windows import WindowAlignment, round_down_window, window_after

from blocks import exact_sum, histograms_of
from helpers import (
    naive_device_counts,
    naive_workload,
    sparse_weighted_relative_error,
    trip,
)


def hist(schema, entries):
    h = IndexedHistogram(schema)
    for index, value in entries.items():
        h[index] = value
    return h


def tiny_corpus(schema, records_by_device):
    devices = [
        DeviceRecords(
            device_id, "high_end", records[0].region if records else 0, list(records)
        )
        for device_id, records in enumerate(records_by_device)
    ]
    config = SyntheticCorpusConfig(num_devices=max(len(devices), 1))
    return Corpus.from_devices(config, schema, devices)


# --- exact workload ------------------------------------------------------------


def test_one_trip_fills_three_cells(small_schema, week_one_300):
    corpus = tiny_corpus(
        small_schema, [[trip(a=1, r=2, d=0, km=4.5, s=300.0)]]
    )
    workload = exact_workload(corpus, week_one_300)
    assert dict(workload.items()) == {
        (1, 0, 2, 0): 1.0,
        (1, 1, 2, 0): 4.5,
        (1, 2, 2, 0): 300.0,
    }


def test_workload_agrees_with_an_independent_oracle(corpus_300, week_one_300):
    workload = exact_workload(corpus_300, week_one_300)
    assert dict(workload.items()) == naive_workload(corpus_300, week_one_300)


@pytest.mark.parametrize("alignment", [WindowAlignment.WEEK, WindowAlignment.DAY])
def test_truth_and_counts_match_the_oracles_in_every_window(
    corpus_300, alignment
):
    window = round_down_window(corpus_300.config.start_time, alignment)
    checked = 0
    while window.start < corpus_300.config.end_time:
        subtotals = corpus_300.device_histograms(window)
        truth = exact_workload(corpus_300, window, subtotals)
        assert dict(truth.items()) == naive_workload(corpus_300, window)
        assert list(truth.raw()) == sorted(truth.raw())  # canonical order
        counts = corpus_300.device_counts(window, subtotals)
        assert counts == naive_device_counts(corpus_300, window)
        checked += bool(counts)
        window = window_after(window, alignment)
    assert checked == {WindowAlignment.WEEK: 1, WindowAlignment.DAY: 7}[alignment]


def test_workload_is_additive_across_subfleets(week_one_300):
    left = generate_corpus(SyntheticCorpusConfig(num_devices=40, num_regions=6, seed=1))
    right = generate_corpus(SyntheticCorpusConfig(num_devices=25, num_regions=6, seed=2))
    combined = Corpus.from_devices(
        left.config, left.schema, [*left.devices, *right.devices]
    )
    histograms = [
        h
        for corpus in (left, right)
        for h in histograms_of(corpus.device_histograms(week_one_300), corpus.schema)
    ]
    total = exact_sum(left.schema, histograms)
    assert exact_workload(combined, week_one_300) == total


# --- device floor ---------------------------------------------------------------


@pytest.mark.parametrize(
    "fleet,floor",
    [(0, 20), (100, 20), (10_000, 20), (10_001, 20), (20_000, 40), (1_000_000, 2000)],
)
def test_device_floor_scales_with_the_fleet(fleet, floor):
    assert default_device_floor(fleet) == floor


# --- weighted relative error -------------------------------------------------------


def counts_for(truth, value=100):
    return {(a, r, d): value for (a, _m, r, d) in truth.raw()}


def test_identical_release_scores_zero(small_schema):
    truth = hist(
        small_schema,
        {(0, 0, 0, 0): 50.0, (0, 1, 0, 0): 120.0, (0, 2, 0, 0): 900.0},
    )
    errors = weighted_relative_error(truth, truth.to_dense(), counts_for(truth), 1)
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
    estimate = IndexedHistogram(small_schema)
    for index, value in truth.items():
        estimate[index] = value * 1.03
    errors = weighted_relative_error(truth, estimate.to_dense(), counts_for(truth), 1)
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
    errors = weighted_relative_error(truth, estimate.to_dense(), counts_for(truth), 1)
    assert errors[1] == pytest.approx(0.9 * 0.0 + 0.1 * 0.2)


def test_sparse_partitions_are_excluded_by_the_floor(small_schema):
    truth = hist(
        small_schema,
        {(0, 0, 0, 0): 90.0, (0, 1, 0, 0): 100.0, (1, 0, 0, 0): 10.0, (1, 1, 0, 0): 50.0},
    )
    estimate = truth.copy()
    estimate[(1, 1, 0, 0)] = 40.0
    counts = {(0, 0, 0): 100, (1, 0, 0): 3}
    errors = weighted_relative_error(truth, estimate.to_dense(), counts, 20)
    assert errors[1] == 0.0  # the mis-estimated partition fell below the floor
    errors_all = weighted_relative_error(truth, estimate.to_dense(), counts, 1)
    assert errors_all[1] == pytest.approx(0.02)


def test_missing_release_partitions_read_as_zero(small_schema):
    truth = hist(small_schema, {(0, 0, 0, 0): 10.0, (0, 1, 0, 0): 70.0})
    estimate = hist(small_schema, {(0, 0, 0, 0): 10.0})
    errors = weighted_relative_error(truth, estimate.to_dense(), counts_for(truth), 1)
    assert errors[1] == pytest.approx(1.0)


def test_no_eligible_partition_is_nan_not_zero(small_schema):
    truth = hist(small_schema, {(0, 0, 0, 0): 10.0})
    errors = weighted_relative_error(truth, truth.to_dense(), {}, 20)
    assert all(math.isnan(errors[m]) for m in range(3))


def test_negative_floor_is_rejected(small_schema):
    truth = hist(small_schema, {(0, 0, 0, 0): 10.0})
    with pytest.raises(InvalidParameterError):
        weighted_relative_error(truth, truth.to_dense(), {}, -1)


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
    truth_cells, estimate_cells, counts, floor = case
    truth = IndexedHistogram(SCORED, truth_cells)
    values = np.zeros(SCORED.shape)
    for index, value in estimate_cells.items():
        values[index] = value
    got = weighted_relative_error(truth, values, counts, floor)
    expected = sparse_weighted_relative_error(
        truth, IndexedHistogram.from_dense(SCORED, values), counts, floor
    )
    assert {m: v.hex() for m, v in got.items()} == {
        m: v.hex() for m, v in expected.items()
    }


def test_an_estimate_of_another_shape_is_refused(small_schema):
    truth = hist(small_schema, {(0, 0, 0, 0): 10.0})
    with pytest.raises(SchemaMismatchError):
        weighted_relative_error(truth, np.zeros(SCORED.shape), {}, 0)


# --- per-user mean error -------------------------------------------------------------

K1, K2 = (0, 0, 0), (1, 2, 1)
K = K1


def by_partition(schema, rows):
    """A histogram from (activity, region, direction) -> one value per metric."""
    h = IndexedHistogram(schema)
    for (a, r, d), values in rows.items():
        for m, value in enumerate(values):
            h[(a, m, r, d)] = value
    return h


def test_exact_rows_score_zero(small_schema):
    h = by_partition(small_schema, {K1: (10.0, 5.0), K2: (3.0, 4.0)})
    assert per_user_mean_error(h, h, {K1: 1, K2: 1}, [0, 1]) == 0.0


def test_error_is_discounted_by_contributors(small_schema):
    reference = by_partition(small_schema, {K: (10.0,)})
    result = by_partition(small_schema, {K: (9.0,)})
    assert per_user_mean_error(reference, result, {K: 1}, [0]) == pytest.approx(0.1)
    assert per_user_mean_error(reference, result, {K: 10}, [0]) == pytest.approx(0.01)


def test_partitions_average_evenly(small_schema):
    reference = by_partition(small_schema, {K1: (10.0,), K2: (10.0,)})
    result = by_partition(small_schema, {K1: (9.0,), K2: (7.0,)})
    counts = {K1: 1, K2: 1}
    assert per_user_mean_error(reference, result, counts, [0]) == pytest.approx(0.2)


def test_uncounted_partitions_are_excluded(small_schema):
    reference = by_partition(small_schema, {K1: (10.0,), K2: (10.0,)})
    result = by_partition(small_schema, {K1: (9.0,), K2: (0.0,)})
    assert per_user_mean_error(reference, result, {K1: 1}, [0]) == pytest.approx(0.1)
    assert math.isnan(per_user_mean_error(reference, result, {}, [0]))


def test_missing_result_rows_read_as_zero(small_schema):
    reference = by_partition(small_schema, {K: (10.0, 0.0)})
    empty = IndexedHistogram(small_schema)
    assert per_user_mean_error(reference, empty, {K: 1}, [0, 1]) == pytest.approx(1.0)


def test_empty_reference_is_nan(small_schema):
    empty = IndexedHistogram(small_schema)
    assert math.isnan(per_user_mean_error(empty, empty, {}, [0, 1, 2]))


def test_only_the_query_metrics_are_scored(small_schema):
    reference = by_partition(small_schema, {K: (10.0, 0.0, 10.0)})
    result = by_partition(small_schema, {K: (10.0, 3.0, 5.0)})
    assert per_user_mean_error(reference, result, {K: 1}, [0]) == 0.0
    assert per_user_mean_error(reference, result, {K: 1}, [0, 2]) == 0.25
    # A partition the truth holds only outside the query's metrics is not scored.
    assert math.isnan(per_user_mean_error(reference, result, {K: 1}, [1]))
