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
method does it for every variant: :meth:`ResolvedMechanism.transform_device`
of the device's raw histogram.  The simulator's uploads, calibration
sweeps and :func:`prepare_mechanism` all go through it, so a sweep scores
exactly the pre-noise sum a deployment would release.  Joint and
per-slice clipping share one L1 rescale loop in :mod:`fedsum.model`.

Noise draws are keyed by (window, coordinate), so a fixed seed yields
the same draw for the same coordinate no matter which variant asked, in
which order, or at what epsilon — releases are reproducible and variant
comparisons ride on common noise.  A release draws the window's
unit-scale Laplace block (:class:`UnitLaplace`) and multiplies it by
each slice's scale, which equals drawing at that scale bit for bit; a
sweep draws one block per seed and reuses it for every variant and
budget.  Noise, descaling and thresholding run on one dense
``(activity, metric, region, direction)`` array; the sparse
:class:`IndexedHistogram` is only the aggregate that goes in and the
release that comes out.

A :class:`MechanismConfig` is validated completely when it is built:
each parameter belongs to its variant, and its per-(activity, metric)
tables are stored as tuples of floats (:data:`fedsum.model.Table`), every
entry finite and positive, budget weights summing to 1.
:func:`resolve_mechanism` then only fills calibration gaps and checks
table shapes against the schema.  Per-release math reads the stored
tables into ``(A, M)`` arrays: the noise scales, and the descale factors
of :attr:`ResolvedMechanism.scale_table`, which is the identity for the
variants that do not scale, so every release descales the same way.

Calibration uses the nearest-rank empirical quantile of per-device L1
norms; scale calibration considers only devices active in the slice and
falls back to 1.0 for slices nobody touched.  Budget split's slice clip
bounds and scaling's scale factors are the same calibration.
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .exactsum import ExactSum
from .model import (
    IndexedHistogram,
    InvalidParameterError,
    Schema,
    Table,
    as_table,
    check_table_shape,
)
from .rng import KeyedRng

__all__ = [
    "VARIANTS",
    "MechanismConfig",
    "NoisedRelease",
    "nearest_rank_quantile",
    "slice_l1_norms",
    "calibrate_scales",
    "calibrate_clip",
    "apply_threshold",
    "add_laplace_noise",
    "UnitLaplace",
    "release_noise",
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


@dataclass(frozen=True)
class NoisedRelease:
    """One window's private release plus its provenance metadata."""

    window_id: str
    histogram: IndexedHistogram
    suppressed_partitions: int
    metadata: dict = field(compare=False)


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


def slice_l1_norms(h: IndexedHistogram) -> dict[tuple[int, int], float]:
    """L1 norm of each (activity, metric) slice of one histogram."""
    norms: dict[tuple[int, int], float] = {}
    for (a, m, _r, _d), value in h.raw().items():
        key = (a, m)
        norms[key] = norms.get(key, 0.0) + abs(value)
    return norms


def calibrate_scales(
    histograms: Iterable[IndexedHistogram], schema: Schema, q: float = 0.95
) -> Table:
    """Per-slice scale factors: the q-quantile of active devices' norms.

    For each (activity, metric), collect the slice L1 norm of every
    device whose slice is nonzero and take the nearest-rank q-quantile.
    Slices with no active device fall back to a factor of 1.0 (logged),
    so scaling stays well-defined over the whole table.
    """
    per_slice: dict[tuple[int, int], list[float]] = {}
    for h in histograms:
        for key, norm in slice_l1_norms(h).items():
            if norm > 0.0:
                per_slice.setdefault(key, []).append(norm)
    rows = []
    for a in range(schema.num_activities):
        row = []
        for m in range(schema.num_metrics):
            norms = per_slice.get((a, m))
            if norms:
                row.append(nearest_rank_quantile(norms, q))
            else:
                logger.warning(
                    "no device active in slice (activity=%d, metric=%d); "
                    "scale falls back to 1.0",
                    a,
                    m,
                )
                row.append(1.0)
        rows.append(tuple(row))
    return tuple(rows)


def calibrate_clip(
    histograms: Iterable[IndexedHistogram], q: float = 0.95
) -> float:
    """Joint clip bound: q-quantile of nonzero per-device L1 norms."""
    norms = [norm for norm in (h.l1_norm() for h in histograms) if norm > 0.0]
    if not norms:
        raise InvalidParameterError(
            "cannot calibrate a clip bound: no device has any data"
        )
    return nearest_rank_quantile(norms, q)


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
    """Unit-scale Laplace draws of one (rng, window) over the full domain.

    Entry ``(a, m, r, d)`` is ``rng.laplace(1.0, window_id, a, m, r, d)``.
    An (activity, metric) slice is drawn the first time a release noises
    it, so slices at scale 0 draw nothing.  Noise at any scale is that
    scale times the unit draw, bit for bit, so one block serves every
    variant and budget: a sweep keeps one per seed for the whole grid.
    """

    __slots__ = ("rng", "window_id", "values", "_drawn")

    def __init__(self, rng: KeyedRng, window_id: str, schema: Schema) -> None:
        self.rng = rng
        self.window_id = window_id
        self.values = np.zeros(schema.shape)
        self._drawn = np.zeros(schema.shape[:2], dtype=bool)

    def slices(self, needed: np.ndarray) -> np.ndarray:
        """The block, with every slice of the (A, M) mask ``needed`` drawn."""
        laplace, window_id = self.rng.laplace, self.window_id
        _, _, num_regions, num_directions = self.values.shape
        fresh = np.nonzero(needed & ~self._drawn)
        for a, m in zip(fresh[0].tolist(), fresh[1].tolist()):
            self.values[a, m] = [
                [laplace(1.0, window_id, a, m, r, d) for d in range(num_directions)]
                for r in range(num_regions)
            ]
        self._drawn |= needed
        return self.values


def release_noise(seed: int, window_id: str, schema: Schema) -> UnitLaplace:
    """The unit draws that releases of ``window_id`` under ``seed`` use."""
    return UnitLaplace(KeyedRng(seed, NOISE_NAMESPACE), window_id, schema)


def add_laplace_noise(
    values: np.ndarray,
    scales: np.ndarray,
    unit: UnitLaplace,
) -> np.ndarray:
    """Add per-coordinate Laplace noise with per-slice scales.

    ``values`` is a dense histogram array; the result is a new one.
    ``scales`` holds one Laplace scale per (activity, metric); a zero
    scale means no noise and skips the draw.  Covers the *full* index
    domain, so empty partitions are noised too and the presence of a key
    reveals nothing.
    """
    if not np.all(np.isfinite(scales) & (scales >= 0.0)):
        raise ValueError(f"laplace scales must be finite and >= 0, got {scales}")
    needed = scales != 0.0
    if not needed.any():
        return values.copy()
    return values + scales[:, :, None, None] * unit.slices(needed)


# --------------------------------------------------------------------------
# Mechanism pipeline
#
# A MechanismConfig with calibration gaps resolves (against proxy device
# histograms) into a ResolvedMechanism with every table concrete.  The
# resolved form is what ships to devices (scale and clip parameters) and
# what the server uses at release time (noise scales, descaling,
# thresholding).  PreparedMechanism additionally carries the exact
# pre-noise aggregate so parameter sweeps can reuse it across many
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

    def transform_device(self, h: IndexedHistogram) -> IndexedHistogram:
        """The bounded contribution one raw device histogram may add.

        The only code that scales or clips a device contribution: budget
        split clips each slice to its ``clip_table`` bound; the other
        variants clip the whole histogram to ``clip``, after scaling
        divides every entry by its slice factor.
        """
        if self.variant == VARIANT_SPLIT:
            assert self.clip_table is not None
            return h.clip_slices(self.clip_table)
        assert self.clip is not None
        if self.variant == VARIANT_SCALED:
            h = h.scale_by_table(self.scale_table)
        return h.clip(self.clip)

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
            if self.budget_weights is None:
                weights = np.full(shape, 1.0 / (shape[0] * shape[1]))
            else:
                weights = np.asarray(self.budget_weights)
            return np.asarray(self.clip_table) / (eps * weights)
        assert self.clip is not None
        return np.full(shape, self.clip / eps)

    def finalize(
        self,
        aggregate: IndexedHistogram,
        window_id: str,
        seed: int,
        epsilon: float | None = None,
        unit: UnitLaplace | None = None,
    ) -> NoisedRelease:
        """Noise, descale, and threshold a summed aggregate for release.

        The work runs on one dense array.  Descaling multiplies by
        ``scale_table``, which leaves the values of the non-scaling
        variants unchanged (``x * 1.0 == x``).  ``unit`` may hand in
        :func:`release_noise` of ``(seed, window_id)`` from an earlier
        release, so that releases sharing a seed draw it once; by
        default it is drawn here.
        """
        eps = self.epsilon if epsilon is None else epsilon
        schema = aggregate.schema
        if unit is None:
            unit = release_noise(seed, window_id, schema)
        elif (unit.rng.seed, unit.rng.namespace, unit.window_id) != (
            seed,
            NOISE_NAMESPACE,
            window_id,
        ):
            raise InvalidParameterError(
                f"unit noise of seed {unit.rng.seed}, window "
                f"{unit.window_id!r} cannot noise seed {seed}, window {window_id!r}"
            )
        values = add_laplace_noise(
            aggregate.to_dense(), self.noise_scales(schema, eps), unit
        )
        values *= np.asarray(self.scale_table)[:, :, None, None]
        kept, suppressed = apply_threshold(values, self.tau, self.strict_tau)
        metadata = {
            "variant": self.variant,
            "epsilon": eps,
            "clip": self.clip,
            "clip_table_digest": _digest_or_none(self.clip_table),
            "scale_table_digest": _digest_or_none(self.scale_table),
            "tau": self.tau,
            "strict_tau": self.strict_tau,
            "seed": seed,
            "window_id": window_id,
            "dp": True,
            "privacy_label": f"laplace per-device-per-window, epsilon={eps}",
        }
        return NoisedRelease(
            window_id=window_id,
            histogram=IndexedHistogram.from_dense(schema, kept),
            suppressed_partitions=suppressed,
            metadata=metadata,
        )


@dataclass
class PreparedMechanism:
    """A resolved mechanism plus its exact pre-noise aggregate.

    ``exact_aggregate`` sums the transformed histograms' one-column rows
    by index tuple; ``prenoise`` is its rounded report.
    """

    resolved: ResolvedMechanism
    schema: Schema
    exact_aggregate: ExactSum
    prenoise: IndexedHistogram
    num_devices: int

    def release(
        self,
        window_id: str,
        seed: int,
        epsilon: float | None = None,
        unit: UnitLaplace | None = None,
    ) -> NoisedRelease:
        return self.resolved.finalize(
            self.prenoise, window_id, seed, epsilon, unit
        )


def _digest_or_none(table: Table | None) -> str | None:
    """BLAKE2b of the table's ``<II`` shape, then each entry as ``<d``."""
    if table is None:
        return None
    from hashlib import blake2b

    entries = [v for row in table for v in row]
    data = struct.pack(f"<II{len(entries)}d", len(table), len(table[0]), *entries)
    return blake2b(data, digest_size=8).hexdigest()


def resolve_mechanism(
    config: MechanismConfig,
    proxy_histograms: Iterable[IndexedHistogram],
    schema: Schema,
) -> ResolvedMechanism:
    """Fill calibration gaps in ``config`` from proxy device histograms.

    Parameters given explicitly are kept, once their table shapes are
    checked against ``schema``; missing scale tables and clip bounds are
    calibrated at the configured quantile.  The proxy sample plays the
    role of pre-launch calibration data.
    """
    histograms = (
        proxy_histograms
        if isinstance(proxy_histograms, list)
        else list(proxy_histograms)
    )
    for table in (config.scale_table, config.clip_table, config.budget_weights):
        if table is not None:
            check_table_shape(table, schema)
    scale_table = config.scale_table
    clip = config.clip
    clip_table = config.clip_table

    if config.variant == VARIANT_SCALED:
        if scale_table is None:
            scale_table = calibrate_scales(histograms, schema, config.quantile)
        if clip is None:
            scaled = [h.scale_by_table(scale_table) for h in histograms]
            clip = calibrate_clip(scaled, config.quantile)
    else:
        scale_table = ((1.0,) * schema.num_metrics,) * schema.num_activities
    if config.variant == VARIANT_SPLIT and clip_table is None:
        clip_table = calibrate_scales(histograms, schema, config.quantile)
    if config.variant == VARIANT_JOINT and clip is None:
        clip = calibrate_clip(histograms, config.quantile)

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
    config: MechanismConfig,
    device_histograms: Iterable[IndexedHistogram],
    schema: Schema,
) -> PreparedMechanism:
    """Resolve parameters and build the exact pre-noise aggregate.

    ``device_histograms`` are raw (unscaled, unclipped) per-device
    histograms for one window.  Calibration, when requested, uses these
    same histograms as the proxy sample.
    """
    histograms = list(device_histograms)
    resolved = resolve_mechanism(config, histograms, schema)
    acc = ExactSum(1)
    for h in histograms:
        acc.add(resolved.transform_device(h).as_rows())
    return PreparedMechanism(
        resolved=resolved,
        schema=schema,
        exact_aggregate=acc,
        prenoise=IndexedHistogram.from_rows(schema, acc.report()),
        num_devices=len(histograms),
    )
