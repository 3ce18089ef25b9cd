"""Accuracy and coverage metrics for released aggregates.

The headline metric is the weighted relative error of a release against
the exact workload: per metric, partitions are weighted by their share
of the region's trips, partitions with too few contributing devices or
zero truth are excluded, and the weighted average is re-normalized over
what remains.  Every input is dense: the truth and the estimate are
``(activity, metric, region, direction)`` arrays (the exact workload and
a release's ``values``), and the device counts an ``(activity, region,
direction)`` array.  Coverage (the share of the fleet that uploaded) is
computed by the simulator's evaluation.
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
) -> np.ndarray:
    """Ground-truth grouped sums for one window (no bounding, no noise).

    Each device's trips accumulate in event order, then each cell's device
    subtotals are summed exactly: :meth:`DeviceSubtotals.cell_sums` of the
    window's raw block, the dense array ``prepare_mechanism`` makes of the
    bounded one.  That is the two-level structure the live pipeline
    computes, so an unbounded, noiseless release matches this oracle bit
    for bit.  ``subtotals`` may hand in ``corpus.device_histograms(window)``.
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
    truth: np.ndarray,
    device_counts: np.ndarray,
    device_floor: int,
) -> ScoredCells:
    """The eligible partitions of :func:`weighted_relative_error`.

    A region's trip total adds its nonzero num-trips cells in index
    order; the cells of each metric keep index order too.
    """
    if device_floor < 0:
        raise InvalidParameterError("device floor must be >= 0")
    trips = truth[:, METRIC_NUM_TRIPS]  # (activity, region, direction)
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
    for metric in range(truth.shape[1]):
        keep = partition_ok & (truth[:, metric] != 0.0)
        a, r, d = np.nonzero(keep)
        indices.append(np.ravel_multi_index((a, np.full_like(a, metric), r, d), truth.shape))
        values.append(truth[:, metric][keep])
        weights.append(weight[keep])
        totals.append(math.fsum(weights[-1].tolist()))
    return ScoredCells(tuple(indices), tuple(values), tuple(weights), tuple(totals))


def weighted_relative_error(
    truth: np.ndarray,
    estimate: np.ndarray,
    device_counts: np.ndarray,
    device_floor: int,
    cells: ScoredCells | None = None,
) -> dict[int, float]:
    """Per-metric weighted relative error of ``estimate`` vs ``truth``.

    ``truth`` and ``estimate`` are dense arrays of one schema's shape,
    such as the exact workload and a release's ``values``;
    ``device_counts`` is :meth:`fedsum.synth.Corpus.device_counts`, an
    ``(activity, region, direction)`` array.  For each metric, a
    partition with truth t and estimate e contributes relative error
    |t - e| / |t|, weighted by its share of the region's trips
    (num-trips truth).  Partitions are eligible only if at least
    ``device_floor`` devices contributed data and the truth value is
    nonzero.  Weights are re-normalized over the eligible set; a metric
    with no eligible partition yields NaN (undefined), never a fake zero.
    A cell the release does not hold is 0 in the array and scores as 0.

    ``cells`` may hand in :func:`scored_cells` of the same truth, counts
    and floor, so that scoring many estimates computes it once.
    """
    if estimate.shape != truth.shape:
        raise SchemaMismatchError(f"estimate shape {estimate.shape} is not {truth.shape}")
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
    truth: np.ndarray,
    estimate: np.ndarray,
    device_counts: np.ndarray,
    metrics: Sequence[int],
) -> float:
    """Mean over partitions of relative error divided by device count.

    ``truth`` and ``estimate`` are dense arrays of one schema's shape and
    ``device_counts`` an ``(activity, region, direction)`` array.  A
    partition counts if the truth holds one of ``metrics`` there and it
    has a contributing device.  Its error is the mean over those metrics
    with nonzero truth t of |t - e| / |t| (``math.fsum`` of the terms),
    divided by its device count.  Returns NaN if nothing is eligible.
    """
    wanted = sorted(set(metrics))
    t = np.moveaxis(truth[:, wanted], 1, -1)  # (activity, region, direction, metric)
    held = t != 0.0
    eligible = held.any(axis=-1) & (device_counts > 0)
    t, held = t[eligible], held[eligible]
    e = np.moveaxis(estimate[:, wanted], 1, -1)[eligible]
    errors = (np.abs(t - e) / np.where(held, np.abs(t), 1.0)).tolist()
    terms = [
        math.fsum(error for error, h in zip(row, mask) if h) / sum(mask) / count
        for row, mask, count in zip(errors, held.tolist(), device_counts[eligible].tolist())
    ]
    if not terms:
        return math.nan
    return math.fsum(terms) / len(terms)
