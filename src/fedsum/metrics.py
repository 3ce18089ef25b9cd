"""Accuracy and coverage metrics for released aggregates.

The headline metric is the weighted relative error of a release against
the exact workload: per metric, partitions are weighted by their share
of the region's trips, partitions with too few contributing devices or
zero truth are excluded, and the weighted average is re-normalized over
what remains.  What a window's releases are scored against is one
:class:`WindowTruth`, built once per window by :func:`window_truth` from
the window's raw block (``Corpus.device_histograms``): the dense exact
workload, the ``(activity, region, direction)`` device counts and, per
metric, the cells eligible at the fleet's device floor.  Both scorers
read it; an estimate is a dense ``(activity, metric, region,
direction)`` array, such as a release's ``values``.  This module alone
decides which cells a release is scored on.  Coverage (the share of the
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
    InvalidParameterError,
    SchemaMismatchError,
)
from .synth import Corpus

__all__ = [
    "exact_workload",
    "default_device_floor",
    "WindowTruth",
    "window_truth",
    "weighted_relative_error",
    "per_user_mean_error",
]


def exact_workload(corpus: Corpus, block: DeviceSubtotals) -> np.ndarray:
    """Ground-truth grouped sums of a window's raw block (no bounding, no noise).

    ``block`` (``corpus.device_histograms(window)``) holds each device's
    trips summed in event order; each cell's device subtotals are then
    summed exactly, in one array pass over every cell that rounds each as
    ``math.fsum`` does (:meth:`DeviceSubtotals.cell_sums`).  That is the
    two-level structure the live pipeline computes, so an unbounded,
    noiseless release matches this oracle bit for bit.
    """
    return block.cell_sums(corpus.schema)


def default_device_floor(num_devices: int) -> int:
    """Minimum contributing devices for a partition to count in errors.

    Scales with fleet size (0.2%), floored at 20 so tiny desk fleets
    still exclude near-empty partitions.
    """
    return max(20, int(0.002 * num_devices))


@dataclass(frozen=True)
class WindowTruth:
    """What a window's releases are scored against, built once per window.

    ``workload`` is the dense exact workload and ``device_counts`` the
    ``(activity, region, direction)`` contributing-device counts.  Per
    metric, the partitions eligible at the device floor: their cells as
    flat ``np.intp`` indices into the workload (row-major), their truth
    values and weights, and the exactly rounded sum of the weights.
    """

    workload: np.ndarray
    device_counts: np.ndarray
    cell_indices: tuple[np.ndarray, ...]
    cell_truth: tuple[np.ndarray, ...]
    cell_weights: tuple[np.ndarray, ...]
    total_weights: tuple[float, ...]

    @classmethod
    def from_arrays(
        cls, workload: np.ndarray, device_counts: np.ndarray, device_floor: int
    ) -> WindowTruth:
        """The truth of a dense workload, its device counts and a floor.

        A partition is eligible if at least ``device_floor`` devices
        contributed and its num-trips truth and its region's (nonzero
        num-trips cells added in index order) are positive; its weight is
        its share of the region's trips.  A metric's cells keep index
        order and hold only its nonzero truth values.
        """
        if device_floor < 0:
            raise InvalidParameterError("device floor must be >= 0")
        trips = workload[:, METRIC_NUM_TRIPS]  # (activity, region, direction)
        held = np.nonzero(trips)
        region_trips = np.bincount(held[1], weights=trips[held], minlength=trips.shape[1])
        partition_ok = (
            (device_counts >= device_floor)
            & (trips > 0.0)
            & (region_trips > 0.0)[None, :, None]
        )
        weight = np.divide(
            trips, region_trips[None, :, None], out=np.zeros_like(trips), where=partition_ok
        )
        indices, values, weights, totals = [], [], [], []
        for metric in range(workload.shape[1]):
            keep = partition_ok & (workload[:, metric] != 0.0)
            a, r, d = np.nonzero(keep)
            indices.append(
                np.ravel_multi_index((a, np.full_like(a, metric), r, d), workload.shape)
            )
            values.append(workload[:, metric][keep])
            weights.append(weight[keep])
            totals.append(math.fsum(weights[-1].tolist()))
        return cls(
            workload, device_counts, tuple(indices), tuple(values), tuple(weights), tuple(totals)
        )


def window_truth(corpus: Corpus, block: DeviceSubtotals) -> WindowTruth:
    """The truth of one window from its raw block (``corpus.device_histograms``).

    The exact workload and the device counts both read the block; the
    device floor is the fleet's (:func:`default_device_floor`).
    """
    return WindowTruth.from_arrays(
        exact_workload(corpus, block),
        corpus.device_counts(block),
        default_device_floor(corpus.num_devices),
    )


def weighted_relative_error(truth: WindowTruth, estimate: np.ndarray) -> dict[int, float]:
    """Per-metric weighted relative error of ``estimate`` against ``truth``.

    ``estimate`` is a dense array of the workload's shape, such as a
    release's ``values``.  For each metric, an eligible partition (see
    :meth:`WindowTruth.from_arrays`) with truth t and estimate e
    contributes relative error |t - e| / |t|, weighted by its share of
    the region's trips.  Weights are re-normalized over the eligible
    set; a metric with no eligible partition yields NaN (undefined),
    never a fake zero.  A cell the release does not hold is 0 in the
    array and scores as 0.
    """
    if estimate.shape != truth.workload.shape:
        raise SchemaMismatchError(
            f"estimate shape {estimate.shape} is not {truth.workload.shape}"
        )
    released = estimate.ravel()
    results: dict[int, float] = {}
    for metric, total_weight in enumerate(truth.total_weights):
        if total_weight == 0.0:
            results[metric] = math.nan
            continue
        t = truth.cell_truth[metric]
        e = released[truth.cell_indices[metric]]
        terms = truth.cell_weights[metric] * np.abs(t - e) / np.abs(t)
        results[metric] = math.fsum(terms.tolist()) / total_weight
    return results


def per_user_mean_error(
    truth: WindowTruth,
    estimate: np.ndarray,
    metrics: Sequence[int],
) -> float:
    """Mean over partitions of relative error divided by device count.

    ``estimate`` is a dense array of the workload's shape.  A partition
    counts if the workload holds one of ``metrics`` there and it has a
    contributing device.  Its error is the mean over those metrics with
    nonzero truth t of |t - e| / |t| (``math.fsum`` of the terms),
    divided by its device count.  Returns NaN if nothing is eligible.
    """
    wanted = sorted(set(metrics))
    counts = truth.device_counts
    t = np.moveaxis(truth.workload[:, wanted], 1, -1)  # (activity, region, direction, metric)
    held = t != 0.0
    eligible = held.any(axis=-1) & (counts > 0)
    t, held = t[eligible], held[eligible]
    e = np.moveaxis(estimate[:, wanted], 1, -1)[eligible]
    errors = (np.abs(t - e) / np.where(held, np.abs(t), 1.0)).tolist()
    terms = [
        math.fsum(error for error, h in zip(row, mask) if h) / sum(mask) / count
        for row, mask, count in zip(errors, held.tolist(), counts[eligible].tolist())
    ]
    if not terms:
        return math.nan
    return math.fsum(terms) / len(terms)
