"""Accuracy and coverage metrics for released aggregates.

The headline metric is the weighted relative error of a released
histogram against the exact workload: per metric, partitions are
weighted by their share of the region's trips, partitions with too few
contributing devices or zero truth are excluded, and the weighted
average is re-normalized over what remains.  Coverage is summarized by
the device-reach funnel: of the fleet with the feature active, how many
downloaded the task and how many successfully uploaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    METRIC_NUM_TRIPS,
    ExactHistogramSum,
    IndexedHistogram,
    InvalidParameterError,
    Schema,
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
    "ReachFunnel",
    "device_reach",
    "metric_slice",
]


def exact_workload(
    corpus: Corpus,
    window: TimeWindow,
    histograms: list[IndexedHistogram] | None = None,
) -> IndexedHistogram:
    """Ground-truth grouped sums for one window (no bounding, no noise).

    Defined over per-device subtotals: each device's records accumulate
    in event order, then device subtotals are summed exactly per cell —
    the same two-level structure the live pipeline computes, so an
    unbounded, noiseless release matches this oracle bit for bit.
    ``histograms`` may hand in ``corpus.device_histograms(window)``
    when the caller already has them.
    """
    if histograms is None:
        histograms = corpus.device_histograms(window)
    acc = ExactHistogramSum(corpus.schema)
    for h in histograms:
        acc.add(h)
    return acc.rounded()


def metric_slice(h: IndexedHistogram, metric: int) -> IndexedHistogram:
    """The sub-histogram of one metric (other entries dropped)."""
    out = IndexedHistogram(h.schema)
    for index, value in h.raw().items():
        if index[1] == metric:
            out[index] = value
    return out


def default_device_floor(num_devices: int) -> int:
    """Minimum contributing devices for a partition to count in errors.

    Scales with fleet size (0.2%), floored at 20 so tiny desk fleets
    still exclude near-empty partitions.
    """
    return max(20, int(0.002 * num_devices))


@dataclass(frozen=True)
class ScoredCells:
    """What a weighted relative error scores, per metric.

    For each metric: the eligible partitions' indices, their truth
    values and weights, and the exactly rounded sum of the weights.  It
    depends on (truth, device counts, floor) alone, so a sweep builds it
    once and scores every release against it.
    """

    indices: tuple[list[tuple[int, int, int, int]], ...]
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
        indices.append(metric_indices)
        values.append(np.array(metric_values, dtype=np.float64))
        weights.append(np.array(metric_weights, dtype=np.float64))
        totals.append(math.fsum(metric_weights))
    return ScoredCells(tuple(indices), tuple(values), tuple(weights), tuple(totals))


def weighted_relative_error(
    truth: IndexedHistogram,
    estimate: IndexedHistogram,
    device_counts: dict[tuple[int, int, int], int],
    device_floor: int,
    cells: ScoredCells | None = None,
) -> dict[int, float]:
    """Per-metric weighted relative error of ``estimate`` vs ``truth``.

    For each metric, a partition (activity, region, direction) with
    truth t and estimate e contributes relative error |t - e| / |t|,
    weighted by its share of the region's trips (num-trips truth).
    Partitions are eligible only if at least ``device_floor`` devices
    contributed data and the truth value is nonzero.  Weights are
    re-normalized over the eligible set; a metric with no eligible
    partition yields NaN (undefined), never a fake zero.  A released
    partition the truth lacks (or vice versa) reads as estimate 0.

    ``cells`` may hand in :func:`scored_cells` of the same truth, counts
    and floor, so that scoring many estimates computes it once.
    """
    if cells is None:
        cells = scored_cells(truth, device_counts, device_floor)
    released = estimate.raw()
    results: dict[int, float] = {}
    for metric, total_weight in enumerate(cells.total_weights):
        if total_weight == 0.0:
            results[metric] = math.nan
            continue
        t = cells.truth[metric]
        e = np.array([released.get(i, 0.0) for i in cells.indices[metric]])
        terms = cells.weights[metric] * np.abs(t - e) / np.abs(t)
        results[metric] = math.fsum(terms.tolist()) / total_weight
    return results


def per_user_mean_error(
    result: dict[str, tuple[float, ...]],
    reference: dict[str, tuple[float, ...]],
    device_counts: dict[str, int],
) -> float:
    """Mean over partitions of relative error divided by device count.

    Operates on grouped rows (key -> value vector) as the server reports
    them.  Partitions with zero recorded contributors are excluded; the
    per-partition error averages over the value columns.  Returns NaN if
    nothing is eligible.
    """
    terms: list[float] = []
    for key, ref_values in reference.items():
        count = device_counts.get(key, 0)
        if count <= 0:
            continue
        got = result.get(key, (0.0,) * len(ref_values))
        errors = []
        for r, g in zip(ref_values, got):
            if r != 0.0:
                errors.append(abs(r - g) / abs(r))
        if errors:
            terms.append(math.fsum(errors) / len(errors) / count)
    if not terms:
        return math.nan
    return math.fsum(terms) / len(terms)


@dataclass(frozen=True)
class ReachFunnel:
    """Device coverage for one window: fleet -> downloaded -> uploaded."""

    feature_active: int
    downloaded: int
    uploaded: int

    def __post_init__(self) -> None:
        if not 0 <= self.uploaded <= self.downloaded <= self.feature_active:
            raise InvalidParameterError(
                "reach funnel must satisfy uploaded <= downloaded <= active"
            )

    @property
    def h(self) -> float:
        """Successful-upload share of the feature-active fleet."""
        if self.feature_active == 0:
            return math.nan
        return self.uploaded / self.feature_active


def device_reach(
    feature_active: int,
    downloaded_devices: set[int],
    uploaded_devices: set[int],
) -> ReachFunnel:
    """Build the funnel, checking containment of the stages."""
    if not uploaded_devices <= downloaded_devices:
        raise InvalidParameterError(
            "devices cannot upload without downloading the task"
        )
    return ReachFunnel(
        feature_active=feature_active,
        downloaded=len(downloaded_devices),
        uploaded=len(uploaded_devices),
    )
