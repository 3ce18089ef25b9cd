"""Private release mechanisms for cross-device histogram sums.

Three variants bound each device's influence on a window's aggregate and
add calibrated Laplace noise:

* ``joint_clipping`` — clip each device's whole histogram to an L1
  budget C and add Laplace(C/epsilon) to every coordinate of the full
  index domain.  One budget covers all slices jointly, so it is spent
  in proportion to each metric's magnitude: it favours the largest
  metric, while small metrics drown in noise sized for it.
* ``budget_split`` — clip each (activity, metric) slice separately to
  its own bound C(a, m) and give each slice an equal share of epsilon;
  slice noise scales like C(a, m) * num_slices / epsilon.  A custom
  allocation vector may reweight the shares.
* ``activity_metric_scaling`` — divide every entry by a per-slice scale
  S(a, m) before joint clipping, so heterogeneous slices share one
  budget fairly; noised values are multiplied back by S(a, m) before
  thresholding.  Fair sharing trades some error on the metric that
  dominates joint clipping for much lower error on the rest.

Each device bounds its own contribution before it uploads, and one
method does it for every variant: :meth:`ResolvedMechanism.transform_devices`
of a block of raw device histograms (:class:`fedsum.model.DeviceSubtotals`)
bounds the L1 norm of each group of the block's cells by the group's
entry in :attr:`ResolvedMechanism.l1_bounds`.  Array passes take every
group's float norm; a group whose float norm, widened by a proven
rounding margin, is within its bound is left as it is, and only the
others go through one exact rescale loop with ``math.fsum`` norms, so
the result is bit for bit that of the loop over every group.  Each
device is bounded on its own, so the simulator runs it once on a
window's block and slices every upload from the result;
:func:`prepare_mechanism` runs it on a window's block and sums the
bounded rows per cell, so a sweep scores exactly the pre-noise sum a
deployment would release.  No other module scales or clips a device
contribution; the server refuses an upload whose norm in any group is
over that group's bound (:meth:`ResolvedMechanism.exceeds_bound`).

Noise draws are keyed by (seed, window, coordinate), so a fixed seed
yields the same draw for the same coordinate no matter which variant
asked, in which order, or at what epsilon — releases are reproducible
and variant comparisons ride on common noise.  A release draws the
window's unit-scale Laplace block (:class:`UnitLaplace`: one Philox
block of uniforms per (activity, metric) slice, see :mod:`fedsum.rng`)
and multiplies it by each slice's scale, which equals drawing at that
scale bit for bit; a sweep draws one block per seed and reuses it for
every variant and budget.  The release metadata names the generator and
sampler (``noise``).  A release is dense from end to end: the summed
aggregate goes in as one ``(activity, metric, region, direction)`` array
(a prepared mechanism's pre-noise sum, or the server's decoded report),
noise, descaling and thresholding run on it, and the release keeps the
result.  Its sparse :class:`IndexedHistogram` is built on first read,
where an artifact or an event needs it; a sweep scores the dense array
and builds none.  A release at epsilon = inf adds no noise, and its
metadata labels it exact and not differentially private.

A :class:`MechanismConfig` is validated completely when it is built:
each parameter belongs to its variant, and its per-(activity, metric)
tables are stored as tuples of floats (:data:`fedsum.model.Table`), every
entry finite and positive, budget weights summing to 1 within 1e-6 (the
noise scales divide them by their sum, so slices spend exactly epsilon).
:func:`resolve_mechanism` then only fills calibration gaps and checks
table shapes against the schema.  Per-release math reads the stored
tables into ``(A, M)`` arrays: the noise scales, and the descale factors
of :attr:`ResolvedMechanism.scale_table`, which is the identity for the
variants that do not scale, so every release descales the same way.

Calibration uses the nearest-rank empirical quantile of the proxy
block's nonzero per-device (or per-(device, slice)) L1 norms; scale
calibration falls back to 1.0 for a slice nobody touched, and a proxy
with no active device, or with a cell or norm that is not finite, cannot
be calibrated.  Budget split's slice clip
bounds and scaling's scale factors are the same calibration.  The joint
clip bound is selected from the devices' float norm intervals, so only
the few devices that may hold the quantile's rank are summed exactly.
"""

from __future__ import annotations

import itertools
import logging
import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from hashlib import blake2b
from typing import Sequence

import numpy as np

from .model import (
    DeviceSubtotals,
    IndexedHistogram,
    InvalidParameterError,
    Schema,
    SchemaMismatchError,
    Table,
    as_table,
    check_table_shape,
)
from .rng import NOISE_SAMPLER, BlockRng, unit_laplace

__all__ = [
    "VARIANTS",
    "MechanismConfig",
    "NoisedRelease",
    "calibrate_scales",
    "calibrate_clip",
    "apply_threshold",
    "add_laplace_noise",
    "UnitLaplace",
    "ResolvedMechanism",
    "PreparedMechanism",
    "resolve_mechanism",
    "prepare_mechanism",
]

logger = logging.getLogger(__name__)

VARIANT_JOINT = "joint_clipping"
VARIANT_SPLIT = "budget_split"
VARIANT_SCALED = "activity_metric_scaling"
VARIANTS = (VARIANT_JOINT, VARIANT_SPLIT, VARIANT_SCALED)

# Namespace for release-noise draws; shared by every variant so equal
# coordinates at equal scales receive equal draws under one seed.
NOISE_NAMESPACE = "release-noise"

# The variants each optional mechanism parameter applies to.
_PARAMETER_VARIANTS = {
    "clip": (VARIANT_JOINT, VARIANT_SCALED),
    "clip_table": (VARIANT_SPLIT,),
    "scale_table": (VARIANT_SCALED,),
    "budget_weights": (VARIANT_SPLIT,),
}


@dataclass(frozen=True)
class MechanismConfig:
    """Parameters of one private release mechanism, validated when built.

    ``clip``, ``clip_table``, and ``scale_table`` may be left ``None`` to
    be calibrated from the device histograms at ``quantile``.  Each
    parameter belongs to its variant: ``clip`` to joint clipping and
    scaling, ``clip_table`` and ``budget_weights`` to budget split,
    ``scale_table`` to scaling.  Tables are stored as float tuples with
    every entry finite and positive; budget weights must also sum to 1.
    ``tau`` suppresses released partitions below a magnitude floor; with
    ``tau == 0`` nothing is suppressed unless ``strict_tau`` is set, in
    which case negative values are dropped.
    """

    variant: str
    epsilon: float
    quantile: float = 0.95
    clip: float | None = None
    clip_table: Table | None = None
    scale_table: Table | None = None
    tau: float = 0.0
    strict_tau: bool = False
    budget_weights: Table | None = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise InvalidParameterError(
                f"unknown mechanism variant {self.variant!r}; "
                f"expected one of {VARIANTS}"
            )
        if not self.epsilon > 0:
            raise InvalidParameterError("epsilon must be positive")
        if not 0 < self.quantile <= 1:
            raise InvalidParameterError("quantile must be in (0, 1]")
        if self.clip is not None and not self.clip > 0:
            raise InvalidParameterError("clip bound must be positive")
        if not self.tau >= 0:
            raise InvalidParameterError("threshold tau must be >= 0")
        if (
            self.clip is not None
            and math.isinf(self.clip)
            and not math.isinf(self.epsilon)
        ):
            raise InvalidParameterError(
                "infinite clip bound requires infinite epsilon"
            )
        for name, variants in _PARAMETER_VARIANTS.items():
            value = getattr(self, name)
            if value is None:
                continue
            if self.variant not in variants:
                raise InvalidParameterError(
                    f"{name} applies only to "
                    + " and ".join(repr(v) for v in variants)
                )
            if name != "clip":
                object.__setattr__(self, name, as_table(value, name))
        if self.budget_weights is not None:
            total = math.fsum(w for row in self.budget_weights for w in row)
            if abs(total - 1.0) > 1e-6:
                raise InvalidParameterError(
                    f"budget_weights must sum to 1, got {total}"
                )


@dataclass(frozen=True, eq=False)
class NoisedRelease:
    """One window's private release plus its provenance metadata.

    ``values`` is the kept dense ``(activity, metric, region, direction)``
    array, read-only; :attr:`histogram`, its nonzero entries, is built on
    first read.  Releases are equal when their windows, suppressed counts
    and entries are: metadata is not compared.
    """

    window_id: str
    schema: Schema
    values: np.ndarray
    suppressed_partitions: int
    metadata: dict

    @cached_property
    def histogram(self) -> IndexedHistogram:
        """The released entries as a sparse histogram, for artifacts and events."""
        return IndexedHistogram.from_dense(self.schema, self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NoisedRelease):
            return NotImplemented
        return (
            self.window_id == other.window_id
            and self.suppressed_partitions == other.suppressed_partitions
            and np.array_equal(self.values, other.values)
        )


# --------------------------------------------------------------------------
# Calibration


def _rank(count: int | np.ndarray, q: float) -> np.ndarray:
    """The 1-indexed nearest rank ``ceil(q * count)`` in a sample of
    ``count`` (or in each sample of an array of counts)."""
    if not 0 < q <= 1:
        raise InvalidParameterError("quantile must be in (0, 1]")
    return np.ceil(q * np.asarray(count)).astype(np.int64)


def calibrate_scales(
    devices: DeviceSubtotals, schema: Schema, q: float = 0.95
) -> Table:
    """Per-slice scale factors: the q-quantile of active devices' norms.

    A device's norm in an (activity, metric) slice adds ``|v|`` over its
    cells of the slice in the order it made them (``made_at``), and a
    slice's factor is the nearest-rank quantile (the ``ceil(q * n)``-th
    smallest) of its ``n`` nonzero norms.  The block's rows are sorted by
    device, then activity, so each (device, activity) is a run of rows.
    One stable sort by ``made_at`` and one ``np.bincount`` over (run,
    metric) give every norm, each adding its cells in made order; one
    stable sort by slice then lays each slice's norms out together, and
    ``np.partition`` picks its rank.  A slice with no active device falls
    back to 1.0 (logged); a block with no active device at all raises
    :class:`InvalidParameterError`, and so does a norm that is not
    finite, naming its device.
    """
    num_activities, num_metrics = schema.shape[:2]
    first = np.ones(len(devices.device), dtype=bool)  # where a run starts
    first[1:] = (devices.device[1:] != devices.device[:-1]) | (
        devices.activity[1:] != devices.activity[:-1]
    )
    starts = np.flatnonzero(first)
    run = first.cumsum() - 1  # each row's (device, activity) run
    made = np.argsort(devices.made_at, kind="stable")
    cell = (run[made, None] * num_metrics + np.arange(num_metrics)).ravel()
    norms = np.bincount(
        cell, weights=np.abs(devices.sums[made]).ravel(), minlength=len(starts) * num_metrics
    )
    if not np.isfinite(norms).all():
        bad_run, metric = divmod(int(np.flatnonzero(~np.isfinite(norms))[0]), num_metrics)
        owner = int(devices.device[starts[bad_run]])
        cells = devices.sums[run == bad_run, metric]
        raise _norm_overflow(owner) if np.isfinite(cells).all() else _non_finite(owner)
    active = norms > 0.0
    if not active.any():
        raise InvalidParameterError(
            "cannot calibrate per-slice tables: no device has any data"
        )
    slices = devices.activity[starts][:, None] * num_metrics + np.arange(num_metrics)
    slices, norms = slices.ravel()[active], norms[active]
    counts = np.bincount(slices, minlength=num_activities * num_metrics)
    by_slice = norms[np.argsort(slices, kind="stable")]
    table, lo = [1.0] * len(counts), 0
    for index, (count, rank) in enumerate(zip(counts.tolist(), _rank(counts, q).tolist())):
        if count:
            table[index] = float(np.partition(by_slice[lo : lo + count], rank - 1)[rank - 1])
            lo += count
        else:
            logger.warning(
                "no device active in slice (activity=%d, metric=%d); "
                "scale falls back to 1.0",
                *divmod(index, num_metrics),
            )
    return tuple(
        tuple(table[a * num_metrics : (a + 1) * num_metrics])
        for a in range(num_activities)
    )


def calibrate_clip(devices: DeviceSubtotals, q: float = 0.95) -> float:
    """Joint clip bound: q-quantile of nonzero per-device L1 norms.

    The bound is the nearest-rank quantile at ``q`` (the ``k = ceil(q *
    n)``-th smallest) of the ``n`` active devices' exactly rounded norms,
    selected from intervals so that only the devices that may hold its
    rank ``k`` are summed exactly.  Each device's float norm gives an
    interval that holds its exact norm (:func:`_norm_ranges`).  With
    ``L`` and ``H`` the ``k``-th smallest lower and upper ends, the
    rank-``k`` norm is in ``[L, H]``, a device whose upper end is below
    ``L`` is below it, and one whose lower end is above ``H`` is above it.
    So the bound is the norm of rank ``k - below`` among the devices whose
    interval meets ``[L, H]``.  A device whose interval reaches infinity,
    or whose float norm is NaN, is summed exactly too, and a norm too
    large for a float or a cell that is not finite raises
    :class:`InvalidParameterError` naming its device.
    """
    cells, edges, _, owner = _cell_groups(devices, per_slice=False)
    lower, upper = _norm_ranges(cells, edges)
    active = ~(upper <= 0.0)  # all cells zero is no data; a NaN norm is refused below
    if not active.any():
        raise InvalidParameterError(
            "cannot calibrate a clip bound: no device has any data"
        )
    lower, upper = lower[active], upper[active]
    rank = int(_rank(len(upper), q))
    low = np.partition(lower, rank - 1)[rank - 1]
    high = np.partition(upper, rank - 1)[rank - 1]
    below = int(np.count_nonzero(upper < low))
    candidates = (upper >= low) & (lower <= high) | ~(upper < math.inf)
    norms = [
        _exact_norm(cells[edges[k] : edges[k + 1]].tolist(), owner[k])
        for k in np.flatnonzero(active)[candidates].tolist()
    ]
    return sorted(norms)[rank - below - 1]


# --------------------------------------------------------------------------
# The device transform: clip groups decided in float where a float can,
# the rest by one exact L1 rescale loop


# The unit roundoff of float64: a rounded result is within a relative
# 2**-53 of the exact one, outside the subnormal range.
_UNIT_ROUNDOFF = 2.0**-53


def _cell_groups(
    devices: DeviceSubtotals, per_slice: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The block's cells as one flat array in which each group a clip bounds
    is a run: the cells, the runs' edges (group ``k`` is
    ``cells[edges[k]:edges[k + 1]]``), each group's slice index and its
    device.

    Per device (index 0) the cells are row-major.  Per (device, activity,
    metric) (index ``activity * M + metric``) they are metric-major, one
    metric's column after another, so a (device, activity)'s rows are a
    run in each column.  Within a group, cells keep the block's row order.
    """
    size, width = devices.sums.shape  # a row per partition, a cell per metric
    cells = (devices.sums.T if per_slice else devices.sums).ravel()
    change = devices.device[1:] != devices.device[:-1]
    if per_slice:
        change |= devices.activity[1:] != devices.activity[:-1]
    starts = np.flatnonzero(np.concatenate(([size > 0], change)))
    owner = devices.device[starts]
    if not per_slice:
        edges = np.append(starts * width, size * width)
        return cells, edges, np.zeros(len(starts), dtype=np.int64), owner
    metric = np.arange(width)[:, None]
    edges = np.append((metric * size + starts).ravel(), size * width)
    index = (devices.activity[starts] * width + metric).ravel()
    return cells, edges, index, np.tile(owner, width)


def _norm_ranges(cells: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Floats ``lower <= s <= upper`` around each group's exact L1 norm ``s``.

    ``t``, the float norm, adds the group's ``n`` values ``|v|`` in some
    order (``np.add.reduceat``); the ends are ``t * (1 - 4 n u)`` and
    ``t * (1 + 4 n u)``, rounded, with ``u = 2**-53``.

    Proof, for ``n <= 2**49``.  Each float addition of nonnegative values
    rounds with a relative error of at most ``u``, or none when its result
    is subnormal, so whatever the order ``t = s (1 + e)`` with ``|e| <= g
    = k u / (1 - k u)`` and ``k = n - 1`` (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., section 4.2).  Hence ``t (1 - k u)
    = t / (1 + g) <= s <= t / (1 - g) <= t (1 + 2 k u)``.  The factor
    ``1 + 4 n u`` rounds down by at most ``u`` and the product by a
    relative ``u``, so ``upper >= t (1 + 4 n u - 2 u - 4 n u**2) >= t (1 +
    2 k u)``; likewise ``lower <= t (1 - 4 n u + 2 u) <= t (1 - k u)``.
    A subnormal product needs ``t < 2**-1021``; then no partial sum
    exceeds ``t``, each is a multiple of ``2**-1074`` below ``2**53 *
    2**-1074``, so every addition was exact, ``s == t``, and the rounded
    product stays on its factor's side of ``t``.  ``math.fsum``'s exactly
    rounded norm lies between the ends too, since they are floats.

    A float norm that overflowed gives ``lower = 0`` and ``upper = inf``;
    a NaN cell makes ``upper`` NaN.
    """
    margin = 4.0 * _UNIT_ROUNDOFF * np.diff(edges)
    with np.errstate(over="ignore"):  # an overflow is the infinite end
        norms = np.add.reduceat(np.abs(cells), edges[:-1])
        upper = norms * (1.0 + margin)
    return np.where(norms < math.inf, norms * (1.0 - margin), 0.0), upper


def _exact_norm(entries: list[float], device: int) -> float:
    """The exactly rounded sum of ``|v|`` over ``entries``, one group of
    ``device``; a norm too large for a float, or a cell that is not
    finite, raises."""
    try:
        norm = math.fsum(map(abs, entries))
    except OverflowError:
        raise _norm_overflow(device) from None
    if not norm < math.inf:
        raise _non_finite(device)
    return norm


def _norm_overflow(device: int) -> InvalidParameterError:
    return InvalidParameterError(f"device {device}'s L1 norm is too large for a float")


def _non_finite(device: int) -> InvalidParameterError:
    return InvalidParameterError(f"device {device} holds a cell that is not finite")


def _clip_l1(
    cells: list[float],
    edges: list[int],
    index: list[int],
    owner: list[int],
    bounds: list[float],
) -> bool:
    """Rescale each group of ``cells`` in place to an L1 norm within its bound.

    Group ``k`` is ``cells[edges[k]:edges[k + 1]]`` of device ``owner[k]``
    and its bound is ``bounds[index[k]]``; the norm is the exactly rounded
    sum of ``|v|``.  A group inside its bound is left as it is, so
    clipping is idempotent, and an infinite bound clips nothing.
    Otherwise its cells are multiplied by ``bound / norm``, again while
    rounding leaves the norm above the bound, with the factor nudged
    below one should it round to 1.0.  Cells that underflow become zero,
    which is no entry.  A norm too large for a float, or a cell that is
    not finite, raises :class:`InvalidParameterError` naming the device,
    unless the bound is infinite.  Returns whether any cell changed.
    """
    if not min(bounds) > 0.0:
        raise InvalidParameterError(f"clip bounds must be positive, got {bounds}")
    changed = False
    for lo, hi, slice_index, device in zip(edges, edges[1:], index, owner):
        bound, entries = bounds[slice_index], cells[lo:hi]
        if bound == math.inf:
            continue
        norm = _exact_norm(entries, device)
        if norm <= bound:
            continue
        while norm > bound:
            factor = bound / norm
            if factor >= 1.0:
                factor = math.nextafter(1.0, 0.0)
            entries = [v * factor for v in entries]
            norm = math.fsum(map(abs, entries))
        cells[lo:hi] = entries
        changed = True
    return changed


def _clipped_block(
    devices: DeviceSubtotals, per_slice: bool, bounds: list[float]
) -> np.ndarray | None:
    """The cells of a block of devices, laid out by :func:`_cell_groups`,
    each group clipped to its bound as :func:`_clip_l1` clips it, or
    ``None`` if no cell changed.

    A group whose float norm's upper end (:func:`_norm_ranges`) is at or
    below its bound has an exact norm there too, and is left as it is.
    Only the other groups (over their bound, near it, or of a non-finite
    norm) go through :func:`_clip_l1`, gathered into one list, and are
    written back into a copy of the cells.
    """
    cells, group_edges, group_index, group_owner = _cell_groups(devices, per_slice)
    undecided = ~(_norm_ranges(cells, group_edges)[1] <= np.asarray(bounds)[group_index])
    sizes = np.diff(group_edges)
    take = np.repeat(undecided, sizes)
    entries = cells[take].tolist()
    edges = [0, *np.cumsum(sizes[undecided]).tolist()]
    index, owner = group_index[undecided].tolist(), group_owner[undecided].tolist()
    if not _clip_l1(entries, edges, index, owner, bounds):
        return None
    clipped = cells.copy()
    clipped[take] = entries
    return clipped


def _scaled(
    devices: DeviceSubtotals, table: np.ndarray, schema: Schema
) -> DeviceSubtotals:
    """Every cell divided by its slice factor ``table[a, m]``."""
    check_table_shape(table, schema)
    return devices._replace(sums=devices.sums / table[devices.activity])


# --------------------------------------------------------------------------
# Noise and thresholding


def apply_threshold(
    values: np.ndarray, tau: float, strict: bool = False
) -> tuple[np.ndarray, int]:
    """Zero the nonzero entries below ``tau``; returns (kept, suppressed_count).

    ``values`` is a dense histogram array and ``kept`` a new one.  Only
    nonzero entries count as suppressed.  ``tau == 0`` without
    ``strict`` is the identity; with ``strict`` it removes negative
    entries.
    """
    if tau < 0:
        raise InvalidParameterError("threshold tau must be >= 0")
    if tau == 0.0 and not strict:
        return values.copy(), 0
    dropped = (values != 0.0) & (values < tau)
    return np.where(dropped, 0.0, values), int(np.count_nonzero(dropped))


class UnitLaplace:
    """Unit-scale Laplace draws of one (seed, window) over the full domain.

    The block is :func:`fedsum.rng.unit_laplace` of the uniforms of
    ``BlockRng(seed, NOISE_NAMESPACE, window_id)``: slice ``(a, m)`` is
    the stream at index ``(a, m)``, its cells ``(r, d)`` in row-major
    order, so a cell's draw does not depend on the number of regions.
    The block is drawn whole the first time a release noises with it, so
    a release at scale 0 draws nothing.  Noise at any scale is that scale
    times the unit draw, bit for bit, so one block serves every variant
    and budget: a sweep keeps one per seed for the whole grid.
    """

    __slots__ = ("seed", "window_id", "shape", "_values")

    def __init__(self, seed: int, window_id: str, schema: Schema) -> None:
        self.seed = seed
        self.window_id = window_id
        self.shape = schema.shape
        self._values: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        """The block, drawn on first read."""
        if self._values is None:
            num_activities, num_metrics, num_regions, num_directions = self.shape
            rng = BlockRng(self.seed, NOISE_NAMESPACE, self.window_id)
            cells = num_regions * num_directions
            slices = itertools.product(range(num_activities), range(num_metrics))
            uniforms = np.concatenate([rng.uniforms(cells, a, m) for a, m in slices])
            self._values = unit_laplace(uniforms).reshape(self.shape)
        return self._values


def add_laplace_noise(
    values: np.ndarray,
    scales: np.ndarray,
    unit: UnitLaplace,
) -> np.ndarray:
    """Add per-coordinate Laplace noise with per-slice scales.

    ``values`` is a dense histogram array; the result is a new one.
    ``scales`` holds one Laplace scale per (activity, metric): all zero
    (epsilon = inf), which adds no noise and draws nothing, or all
    positive.  Covers the *full* index domain, so empty partitions are
    noised too and the presence of a key reveals nothing.
    """
    if not np.all(np.isfinite(scales) & (scales >= 0.0)):
        raise ValueError(f"laplace scales must be finite and >= 0, got {scales}")
    if not scales.any():
        return values.copy()
    return values + scales[:, :, None, None] * unit.values


# --------------------------------------------------------------------------
# Mechanism pipeline
#
# A MechanismConfig with calibration gaps resolves (against proxy device
# histograms) into a ResolvedMechanism with every table concrete.  The
# resolved form is what ships to devices (scale and clip parameters) and
# what the server uses at release time (noise scales, descaling,
# thresholding).  PreparedMechanism additionally carries the exact
# pre-noise aggregate, dense, so parameter sweeps can reuse it across many
# (epsilon, seed) cells.


@dataclass(frozen=True)
class ResolvedMechanism:
    """A mechanism with all calibrated parameters filled in.

    ``scale_table`` is the identity for the variants that do not scale,
    so every release descales by it.
    """

    variant: str
    epsilon: float
    scale_table: Table
    clip: float | None
    clip_table: Table | None
    tau: float
    strict_tau: bool
    budget_weights: Table | None

    def transform_devices(
        self, devices: DeviceSubtotals, schema: Schema
    ) -> DeviceSubtotals:
        """The bounded contributions of a block of raw device histograms.

        The only code that scales or clips a device contribution: budget
        split clips each (device, slice) to its ``clip_table`` bound; the
        other variants clip each device to ``clip``, after scaling divides
        every cell by its slice factor.  Each device is bounded on its
        own, so a one-device block gives that device's rows of a window.
        Only the groups that a float norm cannot certify inside their
        bound reach the exact loop (:func:`_clipped_block`).  When the
        clip changes no cell, the block it clipped is returned itself:
        ``devices``, or for the scaling variant its scaled block.
        """
        if self.variant == VARIANT_SCALED:
            devices = _scaled(devices, self._scale_divisors, schema)
        per_slice = self.per_slice
        if per_slice:
            assert self.clip_table is not None
            check_table_shape(self.clip_table, schema)
        clipped = _clipped_block(devices, per_slice, self.l1_bounds)
        if clipped is None:
            return devices
        size, width = devices.sums.shape
        if per_slice:  # the cells are metric-major
            return devices._replace(sums=clipped.reshape(width, size).T.copy())
        return devices._replace(sums=clipped.reshape(size, width))

    @property
    def per_slice(self) -> bool:
        """Whether the L1 bound is per (device, activity, metric) slice
        (budget split) rather than per device."""
        return self.variant == VARIANT_SPLIT

    @cached_property
    def l1_bounds(self) -> list[float]:
        """Each clip group's L1 bound: ``[clip]`` per device, or budget
        split's ``clip_table`` row-major, slice ``(a, m)`` at ``a * M + m``."""
        if self.per_slice:
            assert self.clip_table is not None
            return [bound for row in self.clip_table for bound in row]
        assert self.clip is not None
        return [self.clip]

    def exceeds_bound(
        self,
        norm: float,
        partitions: Sequence[int],
        values: Sequence[float],
        metrics: Sequence[int],
        schema: Schema,
    ) -> bool:
        """Whether an upload is over the L1 bound the noise is sized for.

        ``partitions`` are its rows' flat partition indexes, increasing,
        ``values`` their values, one per metric of ``metrics`` per row,
        and ``norm`` the (finite) float sum of every ``|v|``.  Each
        ``|v|`` joins its clip group, indexed as :attr:`l1_bounds` is:
        group 0, or with :attr:`per_slice` the slice ``(a, m)`` at ``a *
        M + m``, a row's activity being its partition ``// (R * D)``, so
        a slice is one strided run of ``values``.  Norms are exactly
        rounded, as in :meth:`transform_devices`.
        """
        bounds = self.l1_bounds
        if not self.per_slice:
            return norm > bounds[0]
        _, num_metrics, num_regions, num_directions = schema.shape
        per_activity = num_regions * num_directions
        width = len(metrics)
        lo = 0
        while lo < len(partitions):
            activity = partitions[lo] // per_activity
            hi = bisect_left(partitions, (activity + 1) * per_activity, lo)
            for j, m in enumerate(metrics):
                run = values[lo * width + j : hi * width : width]
                if math.fsum(map(abs, run)) > bounds[activity * num_metrics + m]:
                    return True
            lo = hi
        return False

    @cached_property
    def _scale_divisors(self) -> np.ndarray:
        return np.asarray(self.scale_table)

    def noise_scales(
        self, schema: Schema, epsilon: float | None = None
    ) -> np.ndarray:
        """Per-slice Laplace scales at ``epsilon`` (default: configured).

        An ``(activity, metric)`` float64 array.
        """
        eps = self.epsilon if epsilon is None else epsilon
        shape = schema.shape[:2]
        if math.isinf(eps):
            return np.zeros(shape)
        if self.variant == VARIANT_SPLIT:
            assert self.clip_table is not None
            weights = np.full(shape, 1.0 / (shape[0] * shape[1]))
            if self.budget_weights is not None:  # shares of eps: slices spend exactly eps
                total = math.fsum(w for row in self.budget_weights for w in row)
                weights = np.asarray(self.budget_weights) / total
            return np.asarray(self.clip_table) / (eps * weights)
        assert self.clip is not None
        return np.full(shape, self.clip / eps)

    def finalize(
        self,
        schema: Schema,
        aggregate: np.ndarray,
        window_id: str,
        seed: int,
        epsilon: float | None = None,
        unit: UnitLaplace | None = None,
    ) -> NoisedRelease:
        """Noise, descale, and threshold a summed aggregate for release.

        ``aggregate`` is the dense ``schema``-shaped array of the summed
        cells; the release keeps its dense result.  Descaling multiplies
        by ``scale_table``, which leaves the values of the non-scaling
        variants unchanged (``x * 1.0 == x``).  ``unit`` may hand in
        the :class:`UnitLaplace` of ``(seed, window_id)`` from an earlier
        release, so that releases sharing a seed draw it once; by
        default it is drawn here.  A release whose noise scales are all 0
        (epsilon = inf) is the exact aggregate, and its metadata says so:
        ``dp`` is False and the label names no epsilon.
        """
        if aggregate.shape != schema.shape:
            raise SchemaMismatchError(f"aggregate shape {aggregate.shape} is not {schema.shape}")
        eps = self.epsilon if epsilon is None else epsilon
        if unit is None:
            unit = UnitLaplace(seed, window_id, schema)
        elif (unit.seed, unit.window_id) != (seed, window_id):
            raise InvalidParameterError(
                f"unit noise of seed {unit.seed}, window "
                f"{unit.window_id!r} cannot noise seed {seed}, window {window_id!r}"
            )
        scales = self.noise_scales(schema, eps)
        noised = bool(scales.any())
        values = add_laplace_noise(aggregate, scales, unit)
        values *= self._scale_divisors[:, :, None, None]
        kept, suppressed = apply_threshold(values, self.tau, self.strict_tau)
        kept.flags.writeable = False
        metadata = {
            "variant": self.variant,
            "epsilon": eps,
            "clip": self.clip,
            **self._table_digests,
            "tau": self.tau,
            "strict_tau": self.strict_tau,
            "seed": seed,
            "window_id": window_id,
            "dp": noised,
            "noise": NOISE_SAMPLER if noised else None,
            "privacy_label": (
                f"laplace per-device-per-window, epsilon={eps}"
                if noised
                else "no noise added: exact, not differentially private"
            ),
        }
        return NoisedRelease(window_id, schema, kept, suppressed, metadata)

    @cached_property
    def _table_digests(self) -> dict[str, str | None]:
        """Release metadata: per table, BLAKE2b of its ``<II`` shape, then
        each entry as ``<d``; ``None`` for no table."""
        digests: dict[str, str | None] = {}
        for name in ("clip_table", "scale_table"):
            table = getattr(self, name)
            if table is None:
                digests[f"{name}_digest"] = None
                continue
            entries = [v for row in table for v in row]
            data = struct.pack(f"<II{len(entries)}d", len(table), len(table[0]), *entries)
            digests[f"{name}_digest"] = blake2b(data, digest_size=8).hexdigest()
        return digests


@dataclass
class PreparedMechanism:
    """A resolved mechanism plus its exact pre-noise aggregate.

    ``prenoise`` is the cell sums of the window's bounded device block,
    as the dense ``schema``-shaped array that every release noises.
    """

    resolved: ResolvedMechanism
    schema: Schema
    prenoise: np.ndarray

    def release(
        self,
        window_id: str,
        seed: int,
        epsilon: float | None = None,
        unit: UnitLaplace | None = None,
    ) -> NoisedRelease:
        return self.resolved.finalize(
            self.schema, self.prenoise, window_id, seed, epsilon, unit
        )


def _as_block(devices: DeviceSubtotals | Sequence, schema: Schema) -> DeviceSubtotals:
    """``devices`` as a block: an empty sequence stands for no device."""
    if isinstance(devices, DeviceSubtotals):
        return devices
    if len(devices):
        raise TypeError("proxy devices must come as one DeviceSubtotals block")
    rows, cells = np.zeros(0, dtype=np.int64), np.zeros((0, schema.num_metrics))
    return DeviceSubtotals(rows, rows, rows, rows, cells, rows)


def resolve_mechanism(
    config: MechanismConfig, proxy: DeviceSubtotals | Sequence, schema: Schema
) -> ResolvedMechanism:
    """Fill calibration gaps in ``config`` from a block of proxy devices.

    Parameters given explicitly are kept, once their table shapes are
    checked against ``schema``; missing scale tables and clip bounds are
    calibrated at the configured quantile, the scaling variant's clip on
    the proxy divided by its scale table.  The proxy block plays the
    role of pre-launch calibration data; an empty sequence stands for no
    device, which serves when nothing needs calibrating.
    """
    proxy = _as_block(proxy, schema)
    for table in (config.scale_table, config.clip_table, config.budget_weights):
        if table is not None:
            check_table_shape(table, schema)
    scale_table, clip_table, clip = config.scale_table, config.clip_table, config.clip
    if config.variant != VARIANT_SCALED:
        scale_table = ((1.0,) * schema.num_metrics,) * schema.num_activities
    elif scale_table is None:
        scale_table = calibrate_scales(proxy, schema, config.quantile)
    if config.variant == VARIANT_SPLIT and clip_table is None:
        clip_table = calibrate_scales(proxy, schema, config.quantile)
    if config.variant != VARIANT_SPLIT and clip is None:
        if config.variant == VARIANT_SCALED:
            proxy = _scaled(proxy, np.asarray(scale_table), schema)
        clip = calibrate_clip(proxy, config.quantile)
    return ResolvedMechanism(
        variant=config.variant,
        epsilon=config.epsilon,
        scale_table=scale_table,
        clip=clip,
        clip_table=clip_table,
        tau=config.tau,
        strict_tau=config.strict_tau,
        budget_weights=config.budget_weights,
    )


def prepare_mechanism(
    config: MechanismConfig, devices: DeviceSubtotals | Sequence, schema: Schema
) -> PreparedMechanism:
    """Resolve parameters and build the exact pre-noise aggregate.

    ``devices`` is one window's block of raw (unscaled, unclipped) device
    histograms, or an empty sequence for none, and the proxy sample of
    any calibration.  The mechanism is resolved on it, the block is
    bounded by the device transform and summed once per cell.
    """
    devices = _as_block(devices, schema)
    resolved = resolve_mechanism(config, devices, schema)
    prenoise = resolved.transform_devices(devices, schema).cell_sums(schema)
    prenoise.flags.writeable = False
    return PreparedMechanism(resolved=resolved, schema=schema, prenoise=prenoise)
