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
of a block of raw device histograms (:class:`fedsum.model.DeviceSubtotals`),
one L1 rescale loop over groups of the block's cells, each group with
its bound in :attr:`ResolvedMechanism.l1_bounds`.  Each device is
bounded on its own, so the simulator runs it once on a window's block
and slices every upload from the result; :func:`prepare_mechanism` runs
it on a window's block and sums the bounded rows per cell, so a sweep
scores exactly the pre-noise sum a deployment would release.  No other
module scales or clips a device contribution; the server refuses an
upload whose norm in any group is over that group's bound
(:meth:`ResolvedMechanism.exceeds_bound`).

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
with no active device cannot be calibrated.  Budget split's slice clip
bounds and scaling's scale factors are the same calibration.
"""

from __future__ import annotations

import itertools
import logging
import math
import struct
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
    "nearest_rank_quantile",
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


def nearest_rank_quantile(values: Sequence[float], q: float) -> float:
    """ceil(q*n)-th order statistic (1-indexed) of ``values``."""
    if not values:
        raise InvalidParameterError("quantile of empty sample")
    if not 0 < q <= 1:
        raise InvalidParameterError("quantile must be in (0, 1]")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    return ordered[rank - 1]


def calibrate_scales(
    devices: DeviceSubtotals, schema: Schema, q: float = 0.95
) -> Table:
    """Per-slice scale factors: the q-quantile of active devices' norms.

    A device's norm in an (activity, metric) slice adds ``|v|`` over its
    cells of the slice in the order it made them (``made_at``).  A slice
    with no active device falls back to 1.0 (logged); a block with no
    active device at all raises :class:`InvalidParameterError`.
    """
    num_activities, num_metrics = schema.shape[:2]
    row, metric = np.nonzero(devices.sums)
    made = np.argsort(devices.made_at[row], kind="stable")  # then by metric
    row, metric = row[made], metric[made]
    partition = devices.device[row] * num_activities + devices.activity[row]
    keys, inverse = np.unique(partition * num_metrics + metric, return_inverse=True)
    # bincount adds each group's weights one at a time, in cell order.
    norms = np.bincount(inverse, weights=np.abs(devices.sums[row, metric]))
    active = norms > 0.0
    if not active.any():
        raise InvalidParameterError(
            "cannot calibrate per-slice tables: no device has any data"
        )
    slices, norms = keys[active] % (num_activities * num_metrics), norms[active]
    table = [1.0] * (num_activities * num_metrics)
    for index in range(len(table)):
        slice_norms = norms[slices == index].tolist()
        if slice_norms:
            table[index] = nearest_rank_quantile(slice_norms, q)
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
    """Joint clip bound: q-quantile of nonzero per-device L1 norms."""
    cells, edges, _ = _cell_groups(devices, per_slice=False)
    norms = [
        norm
        for lo, hi in zip(edges, edges[1:])
        if (norm := math.fsum(map(abs, cells[lo:hi]))) > 0.0
    ]
    if not norms:
        raise InvalidParameterError(
            "cannot calibrate a clip bound: no device has any data"
        )
    return nearest_rank_quantile(norms, q)


# --------------------------------------------------------------------------
# The device transform: one L1 rescale loop over groups of a block's cells


def _cell_groups(
    devices: DeviceSubtotals, per_slice: bool
) -> tuple[list[float], list[int], list[int]]:
    """The block's cells as one flat list in which each group a clip bounds
    is a run: the cells, the runs' edges (group ``k`` is
    ``cells[edges[k]:edges[k + 1]]``) and each group's slice index.

    Per device (index 0) the cells are row-major.  Per (device, activity,
    metric) (index ``activity * M + metric``) they are metric-major, one
    metric's column after another, so a (device, activity)'s rows are a
    run in each column.  Within a group, cells keep the block's row order.
    """
    size, width = devices.sums.shape  # a row per partition, a cell per metric
    cells = (devices.sums.T if per_slice else devices.sums).ravel().tolist()
    if size and devices.device[0] == devices.device[-1]:  # one device: an upload
        if not per_slice:
            return cells, [0, size * width], [0]
        key = devices.activity.tolist()
        starts = [i for i in range(size) if not i or key[i] != key[i - 1]]
    else:
        change = devices.device[1:] != devices.device[:-1]
        if per_slice:
            change |= devices.activity[1:] != devices.activity[:-1]
        starts = np.flatnonzero(np.concatenate(([size > 0], change))).tolist()
    if not per_slice:
        return cells, [lo * width for lo in starts] + [size * width], [0] * len(starts)
    activity = devices.activity[starts].tolist()
    edges = [m * size + lo for m in range(width) for lo in starts]
    index = [a * width + m for m in range(width) for a in activity]
    return cells, edges + [size * width], index


def _clip_l1(
    cells: list[float], edges: list[int], index: list[int], bounds: list[float]
) -> bool:
    """Rescale each group of ``cells`` in place to an L1 norm within its bound.

    Group ``k`` is ``cells[edges[k]:edges[k + 1]]`` and its bound is
    ``bounds[index[k]]``; the norm is the exactly rounded sum of ``|v|``.
    A group inside its bound is left as it is, so clipping is idempotent.
    Otherwise its cells are multiplied by ``bound / norm``, again while
    rounding leaves the norm above the bound, with the factor nudged
    below one should it round to 1.0.  Cells that underflow become zero,
    which is no entry.  Returns whether any cell changed.
    """
    if not min(bounds) > 0.0:
        raise InvalidParameterError(f"clip bounds must be positive, got {bounds}")
    changed = False
    for lo, hi, slice_index in zip(edges, edges[1:], index):
        bound, entries = bounds[slice_index], cells[lo:hi]
        norm = math.fsum(map(abs, entries))
        if not norm > bound:
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
        """
        if self.variant == VARIANT_SCALED:
            devices = _scaled(devices, self._scale_divisors, schema)
        if self.per_slice:
            assert self.clip_table is not None
            check_table_shape(self.clip_table, schema)
        cells, edges, index = _cell_groups(devices, self.per_slice)
        if not _clip_l1(cells, edges, index, self.l1_bounds):
            return devices
        size, width = devices.sums.shape
        if self.per_slice:  # the cells are metric-major
            return devices._replace(sums=np.array(cells).reshape(width, size).T.copy())
        return devices._replace(sums=np.array(cells).reshape(size, width))

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
        activities: Sequence[int],
        rows: Sequence[tuple[str, Sequence[float]]],
        metrics: Sequence[int],
    ) -> bool:
        """Whether an upload is over the L1 bound the noise is sized for.

        ``rows`` are the upload's checked rows, ``activities`` each row's
        activity and ``metrics`` each value column's metric.  Each
        value's ``|v|`` joins its clip group, indexed as :attr:`l1_bounds`
        is: group 0, or with :attr:`per_slice` the slice ``(a, m)`` at
        ``a * M + m``.  Norms are exactly rounded, as in
        :meth:`transform_devices`; an infinite bound refuses nothing, and
        a norm too large for a float is over a finite one.
        """
        bounds = self.l1_bounds
        if self.per_slice:
            assert self.clip_table is not None
            num_metrics = len(self.clip_table[0])
            groups: dict[int, list[float]] = {}
            for a, (_, values) in zip(activities, rows):
                for m, v in zip(metrics, values):
                    groups.setdefault(a * num_metrics + m, []).append(abs(v))
        else:
            groups = {0: [abs(v) for _, values in rows for v in values]}
        try:
            for group, values in groups.items():
                if bounds[group] < math.inf and math.fsum(values) > bounds[group]:
                    return True
        except OverflowError:
            return True
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
