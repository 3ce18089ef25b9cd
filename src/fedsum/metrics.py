"""Accuracy and coverage metrics for released aggregates.

The headline metric is the weighted relative error of a released
histogram against the exact workload: per metric, partitions are
weighted by their share of the region's trips, partitions with too few
contributing devices or zero truth are excluded, and the weighted
average is re-normalized over what remains.  Coverage (the share of the
fleet that uploaded) is computed by the simulator's evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    METRIC_NUM_TRIPS,
    DeviceSubtotals,
    IndexedHistogram,
    InvalidParameterError,
    SchemaMismatchError,
)
from .synth import Corpus
from .windows import TimeWindow

__all__ = [
    "exact_workload",
    "default_device_floor",
    "ScoredCells",
    "scored_cells",
    "weighted_relative_error",
    "per_user_mean_error",
]


def exact_workload(
    corpus: Corpus,
    window: TimeWindow,
    subtotals: DeviceSubtotals | None = None,
) -> IndexedHistogram:
    """Ground-truth grouped sums for one window (no bounding, no noise).

    Each device's trips accumulate in event order, then each cell's device
    subtotals are summed exactly: :meth:`DeviceSubtotals.cell_sums` of the
    window's raw block, the sum ``prepare_mechanism`` makes of the bounded
    one.  That is the two-level structure the live pipeline computes, so
    an unbounded, noiseless release matches this oracle bit for bit.
    ``subtotals`` may hand in ``corpus.device_histograms(window)``.
    """
    if subtotals is None:
        subtotals = corpus.device_histograms(window)
    return subtotals.cell_sums(corpus.schema)


def default_device_floor(num_devices: int) -> int:
    """Minimum contributing devices for a partition to count in errors.

    Scales with fleet size (0.2%), floored at 20 so tiny desk fleets
    still exclude near-empty partitions.
    """
    return max(20, int(0.002 * num_devices))


@dataclass(frozen=True)
class ScoredCells:
    """What a weighted relative error scores, per metric.

    For each metric: the eligible partitions' cells as flat ``np.intp``
    indices into the schema-shaped array (row-major over ``(activity,
    metric, region, direction)``), their truth values and weights, and
    the exactly rounded sum of the weights.  It depends on (truth, device
    counts, floor) alone, so a sweep builds it once and scores every
    release against it.
    """

    indices: tuple[np.ndarray, ...]
    truth: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    total_weights: tuple[float, ...]


def scored_cells(
    truth: IndexedHistogram,
    device_counts: dict[tuple[int, int, int], int],
    device_floor: int,
) -> ScoredCells:
    """The eligible partitions of :func:`weighted_relative_error`."""
    if device_floor < 0:
        raise InvalidParameterError("device floor must be >= 0")
    # Region trip totals from the num-trips truth.
    region_trips: dict[int, float] = {}
    for (a, m, r, d), value in truth.raw().items():
        if m == METRIC_NUM_TRIPS:
            region_trips[r] = region_trips.get(r, 0.0) + value

    indices, values, weights, totals = [], [], [], []
    for metric in range(truth.schema.num_metrics):
        metric_indices: list[tuple[int, int, int, int]] = []
        metric_values: list[float] = []
        metric_weights: list[float] = []
        for (a, m, r, d), t in truth.raw().items():
            if m != metric or t == 0.0:
                continue
            if device_counts.get((a, r, d), 0) < device_floor:
                continue
            n_partition = truth[(a, METRIC_NUM_TRIPS, r, d)]
            n_region = region_trips.get(r, 0.0)
            if n_region <= 0.0 or n_partition <= 0.0:
                continue
            metric_indices.append((a, m, r, d))
            metric_values.append(t)
            metric_weights.append(n_partition / n_region)
        positions = np.array(metric_indices, dtype=np.intp).reshape(-1, 4).T
        indices.append(np.ravel_multi_index(positions, truth.schema.shape))
        values.append(np.array(metric_values, dtype=np.float64))
        weights.append(np.array(metric_weights, dtype=np.float64))
        totals.append(math.fsum(metric_weights))
    return ScoredCells(tuple(indices), tuple(values), tuple(weights), tuple(totals))


def weighted_relative_error(
    truth: IndexedHistogram,
    estimate: np.ndarray,
    device_counts: dict[tuple[int, int, int], int],
    device_floor: int,
    cells: ScoredCells | None = None,
) -> dict[int, float]:
    """Per-metric weighted relative error of ``estimate`` vs ``truth``.

    ``estimate`` is a dense array of the truth's schema shape, such as a
    release's ``values``; each metric's eligible cells are gathered from
    it at their flat indices.  For each metric, a partition (activity,
    region, direction) with truth t and estimate e contributes relative
    error |t - e| / |t|, weighted by its share of the region's trips
    (num-trips truth).  Partitions are eligible only if at least
    ``device_floor`` devices contributed data and the truth value is
    nonzero.  Weights are re-normalized over the eligible set; a metric
    with no eligible partition yields NaN (undefined), never a fake zero.
    A cell the release does not hold is 0 in the array and scores as 0;
    a cell only the release holds is not scored.

    ``cells`` may hand in :func:`scored_cells` of the same truth, counts
    and floor, so that scoring many estimates computes it once.
    """
    if estimate.shape != truth.schema.shape:
        raise SchemaMismatchError(f"estimate shape {estimate.shape} is not {truth.schema.shape}")
    if cells is None:
        cells = scored_cells(truth, device_counts, device_floor)
    released = estimate.ravel()
    results: dict[int, float] = {}
    for metric, total_weight in enumerate(cells.total_weights):
        if total_weight == 0.0:
            results[metric] = math.nan
            continue
        t = cells.truth[metric]
        e = released[cells.indices[metric]]
        terms = cells.weights[metric] * np.abs(t - e) / np.abs(t)
        results[metric] = math.fsum(terms.tolist()) / total_weight
    return results


def per_user_mean_error(
    truth: IndexedHistogram,
    estimate: IndexedHistogram,
    device_counts: dict[tuple[int, int, int], int],
    metrics: Sequence[int],
) -> float:
    """Mean over partitions of relative error divided by device count.

    A partition (activity, region, direction) counts if the truth holds
    one of ``metrics`` there and ``device_counts`` records a contributor
    for it.  Its error is the mean over those metrics with nonzero truth
    t of |t - e| / |t| (a missing estimate reads as 0), divided by its
    device count.  Returns NaN if nothing is eligible.
    """
    t, e = truth.raw(), estimate.raw()
    wanted = set(metrics)
    partitions = {(a, r, d) for (a, m, r, d) in t if m in wanted}
    terms: list[float] = []
    for a, r, d in partitions:
        count = device_counts.get((a, r, d), 0)
        if count <= 0:
            continue
        errors = []
        for m in wanted:
            reference = t.get((a, m, r, d), 0.0)
            if reference != 0.0:
                got = e.get((a, m, r, d), 0.0)
                errors.append(abs(reference - got) / abs(reference))
        if errors:
            terms.append(math.fsum(errors) / len(errors) / count)
    if not terms:
        return math.nan
    return math.fsum(terms) / len(terms)
