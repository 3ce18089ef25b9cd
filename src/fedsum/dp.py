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

Calibration uses the nearest-rank empirical quantile of per-device L1
norms; scale calibration considers only devices active in the slice and
falls back to 1.0 for slices nobody touched.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .model import (
    ExactHistogramSum,
    IndexedHistogram,
    InvalidParameterError,
    ScaleTable,
    Schema,
    SchemaMismatchError,
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
    "laplace_mechanism",
    "UnitLaplace",
    "release_noise",
    "ResolvedMechanism",
    "PreparedMechanism",
    "resolve_mechanism",
    "prepare_mechanism",
    "mech_joint_clipping",
    "mech_budget_split",
    "mech_activity_metric_scaling",
]

logger = logging.getLogger(__name__)

VARIANT_JOINT = "joint_clipping"
VARIANT_SPLIT = "budget_split"
VARIANT_SCALED = "activity_metric_scaling"
VARIANTS = (VARIANT_JOINT, VARIANT_SPLIT, VARIANT_SCALED)

# Namespace for release-noise draws; shared by every variant so equal
# coordinates at equal scales receive equal draws under one seed.
NOISE_NAMESPACE = "release-noise"


@dataclass(frozen=True)
class MechanismConfig:
    """Parameters of one private release mechanism.

    ``clip``, ``clip_table``, and ``scale_table`` may be left ``None`` to
    be calibrated from the device histograms at ``quantile``.  ``tau``
    suppresses released partitions below a magnitude floor; with
    ``tau == 0`` nothing is suppressed unless ``strict_tau`` is set, in
    which case negative values are dropped.  ``observed_keys_only``
    skips noising empty coordinates — faster, but NOT differentially
    private; it exists for debugging only and is labeled as such in the
    release metadata.
    """

    variant: str
    epsilon: float
    quantile: float = 0.95
    clip: float | None = None
    clip_table: ScaleTable | None = None
    scale_table: ScaleTable | None = None
    tau: float = 0.0
    strict_tau: bool = False
    budget_weights: tuple[tuple[float, ...], ...] | None = None
    observed_keys_only: bool = False

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
        if self.tau < 0:
            raise InvalidParameterError("threshold tau must be >= 0")
        if math.isinf(self.epsilon):
            return
        if self.clip is not None and math.isinf(self.clip):
            raise InvalidParameterError(
                "infinite clip bound requires infinite epsilon"
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
) -> ScaleTable:
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
        rows.append(row)
    return ScaleTable(rows)


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


# Per-slice noise scales: one non-negative Laplace scale per
# (activity, metric); zero means "no noise" and skips the draw entirely.
NoiseScales = tuple[tuple[float, ...], ...]


def uniform_noise_scales(schema: Schema, b: float) -> NoiseScales:
    return tuple(
        tuple(b for _ in range(schema.num_metrics))
        for _ in range(schema.num_activities)
    )


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
    noise_scales: NoiseScales,
    unit: UnitLaplace,
    observed_keys_only: bool = False,
) -> np.ndarray:
    """Add per-coordinate Laplace noise with per-slice scales.

    ``values`` is a dense histogram array; the result is a new one.
    Covers the *full* index domain by default, so empty partitions are
    noised too and the presence of a key reveals nothing.  The
    ``observed_keys_only`` mode noises just the nonzero entries — NOT
    differentially private, debugging only.
    """
    scales = np.asarray(noise_scales, dtype=np.float64)
    if not np.all(np.isfinite(scales) & (scales >= 0.0)):
        raise ValueError(f"laplace scales must be finite and >= 0, got {scales}")
    needed = scales != 0.0
    if not needed.any():
        return values.copy()
    noise = scales[:, :, None, None] * unit.slices(needed)
    if observed_keys_only:
        noise = np.where(values != 0.0, noise, 0.0)
    return values + noise


def laplace_mechanism(
    h: IndexedHistogram,
    sensitivity: float,
    epsilon: float,
    rng: KeyedRng,
    window_id: str,
    observed_keys_only: bool = False,
) -> IndexedHistogram:
    """Uniform-scale Laplace mechanism: noise Lap(sensitivity/epsilon).

    With infinite epsilon the noise scale is exactly zero and the input
    comes back unchanged (explicit zero coordinates are normalized away).
    """
    if not epsilon > 0:
        raise InvalidParameterError("epsilon must be positive")
    b = 0.0 if math.isinf(epsilon) else sensitivity / epsilon
    noised = add_laplace_noise(
        h.to_dense(),
        uniform_noise_scales(h.schema, b),
        UnitLaplace(rng, window_id, h.schema),
        observed_keys_only,
    )
    return IndexedHistogram.from_dense(h.schema, noised)


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
    """A mechanism with all calibrated parameters filled in."""

    variant: str
    epsilon: float
    scale_table: ScaleTable
    clip: float | None
    clip_table: ScaleTable | None
    tau: float
    strict_tau: bool
    budget_weights: tuple[tuple[float, ...], ...] | None
    observed_keys_only: bool

    def transform_device(self, h: IndexedHistogram) -> IndexedHistogram:
        """The bounded contribution one raw device histogram may add."""
        return _transform_device(
            h, self.variant, self.scale_table, self.clip, self.clip_table
        )

    def noise_scales(
        self, schema: Schema, epsilon: float | None = None
    ) -> NoiseScales:
        """Per-slice Laplace scales at ``epsilon`` (default: configured)."""
        eps = self.epsilon if epsilon is None else epsilon
        if math.isinf(eps):
            return uniform_noise_scales(schema, 0.0)
        if self.variant == VARIANT_SPLIT:
            assert self.clip_table is not None
            weights = self.budget_weights or _uniform_weights(schema)
            return tuple(
                tuple(
                    self.clip_table.get(a, m) / (eps * weights[a][m])
                    for m in range(schema.num_metrics)
                )
                for a in range(schema.num_activities)
            )
        assert self.clip is not None
        return uniform_noise_scales(schema, self.clip / eps)

    def finalize(
        self,
        aggregate: IndexedHistogram,
        window_id: str,
        seed: int,
        epsilon: float | None = None,
        unit: UnitLaplace | None = None,
    ) -> NoisedRelease:
        """Noise, descale, and threshold a summed aggregate for release.

        The work runs on one dense array.  ``unit`` may hand in
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
            aggregate.to_dense(),
            self.noise_scales(schema, eps),
            unit,
            self.observed_keys_only,
        )
        if self.variant == VARIANT_SCALED:
            if self.scale_table.shape != schema.shape[:2]:
                raise SchemaMismatchError(
                    f"table shape {self.scale_table.shape} does not match "
                    f"schema {schema.shape[:2]}"
                )
            values *= np.asarray(self.scale_table.rows())[:, :, None, None]
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
            "dp": not self.observed_keys_only,
            "privacy_label": (
                "NOT-DP: observed-keys-only debug mode"
                if self.observed_keys_only
                else f"laplace per-device-per-window, epsilon={eps}"
            ),
        }
        return NoisedRelease(
            window_id=window_id,
            histogram=IndexedHistogram.from_dense(schema, kept),
            suppressed_partitions=suppressed,
            metadata=metadata,
        )


@dataclass
class PreparedMechanism:
    """A resolved mechanism plus its exact pre-noise aggregate."""

    resolved: ResolvedMechanism
    schema: Schema
    exact_aggregate: ExactHistogramSum
    prenoise: IndexedHistogram
    num_devices: int

    @property
    def clip(self) -> float | None:
        return self.resolved.clip

    @property
    def clip_table(self) -> ScaleTable | None:
        return self.resolved.clip_table

    @property
    def scale_table(self) -> ScaleTable:
        return self.resolved.scale_table

    def transform_device(self, h: IndexedHistogram) -> IndexedHistogram:
        return self.resolved.transform_device(h)

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


def _digest_or_none(table: ScaleTable | None) -> str | None:
    if table is None:
        return None
    from hashlib import blake2b

    return blake2b(table.serialize(), digest_size=8).hexdigest()


def _uniform_weights(schema: Schema) -> tuple[tuple[float, ...], ...]:
    share = 1.0 / (schema.num_activities * schema.num_metrics)
    return tuple(
        tuple(share for _ in range(schema.num_metrics))
        for _ in range(schema.num_activities)
    )


def _validate_weights(
    weights: tuple[tuple[float, ...], ...], schema: Schema
) -> None:
    if len(weights) != schema.num_activities or any(
        len(row) != schema.num_metrics for row in weights
    ):
        raise InvalidParameterError(
            "budget weights must have one entry per (activity, metric)"
        )
    flat = [w for row in weights for w in row]
    if any(not w > 0 for w in flat):
        raise InvalidParameterError("budget weights must be positive")
    total = math.fsum(flat)
    if abs(total - 1.0) > 1e-6:
        raise InvalidParameterError(
            f"budget weights must sum to 1, got {total}"
        )


def _clip_slices(
    h: IndexedHistogram, clip_table: ScaleTable
) -> IndexedHistogram:
    """Clip each (activity, metric) slice independently to its bound.

    Like :meth:`IndexedHistogram.clip`, rescaling repeats if rounding
    leaves a slice marginally over its bound, so every output slice
    satisfies its L1 bound exactly as floats.
    """
    slices: dict[tuple[int, int], dict[tuple[int, int, int, int], float]] = {}
    for index, value in h.raw().items():
        slices.setdefault((index[0], index[1]), {})[index] = value
    out = IndexedHistogram(h.schema)
    for (a, m), entries in slices.items():
        bound = clip_table.get(a, m)
        norm = math.fsum(abs(v) for v in entries.values())
        while norm > bound:
            factor = bound / norm
            if factor >= 1.0:
                factor = float.fromhex("0x1.fffffffffffffp-1")
            entries = {k: v * factor for k, v in entries.items()}
            norm = math.fsum(abs(v) for v in entries.values())
        for index, value in entries.items():
            out[index] = value
    return out


def _transform_device(
    h: IndexedHistogram,
    variant: str,
    scale_table: ScaleTable,
    clip: float | None,
    clip_table: ScaleTable | None,
) -> IndexedHistogram:
    if variant == VARIANT_SPLIT:
        assert clip_table is not None
        return _clip_slices(h, clip_table)
    if variant == VARIANT_SCALED:
        h = h.scale_by_table(scale_table)
    assert clip is not None
    return h.clip(clip)


def resolve_mechanism(
    config: MechanismConfig,
    proxy_histograms: Iterable[IndexedHistogram],
    schema: Schema,
) -> ResolvedMechanism:
    """Fill calibration gaps in ``config`` from proxy device histograms.

    Parameters given explicitly are kept; missing scale tables and clip
    bounds are calibrated at the configured quantile.  The proxy sample
    plays the role of pre-launch calibration data.
    """
    histograms = (
        proxy_histograms
        if isinstance(proxy_histograms, list)
        else list(proxy_histograms)
    )
    scale_table = config.scale_table
    clip = config.clip
    clip_table = config.clip_table

    if config.variant == VARIANT_SCALED:
        if scale_table is None:
            scale_table = calibrate_scales(histograms, schema, config.quantile)
    else:
        if scale_table is not None:
            raise InvalidParameterError(
                f"scale_table applies only to {VARIANT_SCALED!r}"
            )
        scale_table = ScaleTable.identity(schema)

    if config.variant == VARIANT_SPLIT:
        if clip is not None:
            raise InvalidParameterError(
                f"{VARIANT_SPLIT!r} uses clip_table, not a joint clip bound"
            )
        if clip_table is None:
            clip_table = calibrate_scales(histograms, schema, config.quantile)
        if config.budget_weights is not None:
            _validate_weights(config.budget_weights, schema)
    else:
        if clip_table is not None:
            raise InvalidParameterError(
                f"clip_table applies only to {VARIANT_SPLIT!r}"
            )
        if config.budget_weights is not None:
            raise InvalidParameterError(
                f"budget_weights apply only to {VARIANT_SPLIT!r}"
            )
        if clip is None:
            if config.variant == VARIANT_SCALED:
                scaled = [h.scale_by_table(scale_table) for h in histograms]
                clip = calibrate_clip(scaled, config.quantile)
            else:
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
        observed_keys_only=config.observed_keys_only,
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
    acc = ExactHistogramSum(schema)
    for h in histograms:
        acc.add(resolved.transform_device(h))
    return PreparedMechanism(
        resolved=resolved,
        schema=schema,
        exact_aggregate=acc,
        prenoise=acc.rounded(),
        num_devices=len(histograms),
    )


# --------------------------------------------------------------------------
# One-shot spellings


def mech_joint_clipping(
    device_histograms: Iterable[IndexedHistogram],
    schema: Schema,
    epsilon: float,
    clip: float | None = None,
    *,
    seed: int = 0,
    window_id: str = "w0",
    quantile: float = 0.95,
    tau: float = 0.0,
    strict_tau: bool = False,
    observed_keys_only: bool = False,
) -> NoisedRelease:
    config = MechanismConfig(
        variant=VARIANT_JOINT,
        epsilon=epsilon,
        clip=clip,
        quantile=quantile,
        tau=tau,
        strict_tau=strict_tau,
        observed_keys_only=observed_keys_only,
    )
    return prepare_mechanism(config, device_histograms, schema).release(
        window_id, seed
    )


def mech_budget_split(
    device_histograms: Iterable[IndexedHistogram],
    schema: Schema,
    epsilon: float,
    clip_table: ScaleTable | None = None,
    *,
    seed: int = 0,
    window_id: str = "w0",
    quantile: float = 0.95,
    tau: float = 0.0,
    strict_tau: bool = False,
    budget_weights: tuple[tuple[float, ...], ...] | None = None,
    observed_keys_only: bool = False,
) -> NoisedRelease:
    config = MechanismConfig(
        variant=VARIANT_SPLIT,
        epsilon=epsilon,
        clip_table=clip_table,
        quantile=quantile,
        tau=tau,
        strict_tau=strict_tau,
        budget_weights=budget_weights,
        observed_keys_only=observed_keys_only,
    )
    return prepare_mechanism(config, device_histograms, schema).release(
        window_id, seed
    )


def mech_activity_metric_scaling(
    device_histograms: Iterable[IndexedHistogram],
    schema: Schema,
    epsilon: float,
    clip: float | None = None,
    scale_table: ScaleTable | None = None,
    *,
    seed: int = 0,
    window_id: str = "w0",
    quantile: float = 0.95,
    tau: float = 0.0,
    strict_tau: bool = False,
    observed_keys_only: bool = False,
) -> NoisedRelease:
    config = MechanismConfig(
        variant=VARIANT_SCALED,
        epsilon=epsilon,
        clip=clip,
        scale_table=scale_table,
        quantile=quantile,
        tau=tau,
        strict_tau=strict_tau,
        observed_keys_only=observed_keys_only,
    )
    return prepare_mechanism(config, device_histograms, schema).release(
        window_id, seed
    )
