"""Privacy/utility sweeps over the release mechanisms.

A sweep fixes one window of data, prepares each mechanism variant once
(calibration plus the exact pre-noise aggregate), then re-noises that
aggregate across a grid of privacy budgets and noise seeds.  Preparing
once is sound because the pre-noise pipeline does not depend on the
budget or the seed — only the final noise draw does — and it makes large
grids cheap.  For the same reason the sweep draws each seed's unit
Laplace block once and reuses it for every variant and budget.  It makes
one pass over the window's trips (``Corpus.device_histograms``), whose
raw block gives the calibration, every variant's pre-noise sum
(:func:`prepare_variants`) and the window's truth
(``metrics.window_truth``); the block is freed before the grid.  Each
grid cell noises, thresholds and scores one array against that truth
(the error gathers the release's ``values`` at the truth's eligible
cells' flat indices), so the sweep builds no sparse histogram.  Every
grid cell is bit-identical to running the whole mechanism from scratch
with the same parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dp import (
    VARIANT_SCALED,
    VARIANT_SPLIT,
    VARIANTS,
    MechanismConfig,
    PreparedMechanism,
    UnitLaplace,
    calibrate_scales,
    prepare_mechanism,
)
from .metrics import weighted_relative_error, window_truth
from .model import DeviceSubtotals, Schema
from .synth import Corpus
from .windows import TimeWindow

__all__ = [
    "SweepConfig",
    "SweepRow",
    "TARGET_MEAN_ERROR",
    "prepare_variants",
    "run_epsilon_sweep",
    "summarize_sweep",
]

DEFAULT_EPSILONS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

# Deployment utility target: a mechanism is considered usable when its
# mean weighted relative error is at or below this line.
TARGET_MEAN_ERROR = 0.03


@dataclass(frozen=True)
class SweepConfig:
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    seeds: tuple[int, ...] = tuple(range(10))
    variants: tuple[str, ...] = VARIANTS
    quantile: float = 0.95
    tau: float = 0.0

    def __post_init__(self) -> None:
        for name in ("epsilons", "seeds", "variants"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        for eps in self.epsilons:
            if not eps > 0:
                raise ValueError(f"epsilon must be positive, got {eps}")
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ValueError(f"unknown variants: {sorted(unknown)}")
        if not 0 < self.quantile <= 1:
            raise ValueError("quantile must be in (0, 1]")
        if not self.tau >= 0:
            raise ValueError("threshold tau must be >= 0")


@dataclass(frozen=True)
class SweepRow:
    variant: str
    epsilon: float
    seed: int
    errors: dict[str, float] = field(compare=False)
    suppressed_cells: int = 0


def prepare_variants(
    block: DeviceSubtotals, schema: Schema, sweep: SweepConfig
) -> dict[str, PreparedMechanism]:
    """Calibrate and pre-aggregate each requested variant once.

    ``block`` is the window's raw block (``Corpus.device_histograms``).
    Budget split's slice clip bounds and scaling's scale factors are the
    same calibration of it, so it runs once and both variants receive it.
    """
    table = None
    if {VARIANT_SPLIT, VARIANT_SCALED} & set(sweep.variants):
        table = calibrate_scales(block, schema, sweep.quantile)
    prepared: dict[str, PreparedMechanism] = {}
    for variant in sweep.variants:
        config = MechanismConfig(
            variant=variant,
            epsilon=sweep.epsilons[0],
            quantile=sweep.quantile,
            clip_table=table if variant == VARIANT_SPLIT else None,
            scale_table=table if variant == VARIANT_SCALED else None,
            tau=sweep.tau,
        )
        prepared[variant] = prepare_mechanism(config, block, schema)
    return prepared


def run_epsilon_sweep(
    corpus: Corpus, window: TimeWindow, sweep: SweepConfig
) -> list[SweepRow]:
    """Evaluate every (variant, epsilon, seed) cell of the grid.

    Rows come back in deterministic grid order: variants as configured,
    then budgets, then seeds.
    """
    block = corpus.device_histograms(window)
    prepared = prepare_variants(block, corpus.schema, sweep)
    truth = window_truth(corpus, block)
    del block  # freed before the grid
    noise = {
        seed: UnitLaplace(seed, window.window_id, corpus.schema)
        for seed in sweep.seeds
    }
    names = corpus.schema.metric_names
    rows: list[SweepRow] = []
    for variant in sweep.variants:
        mech = prepared[variant]
        for epsilon in sweep.epsilons:
            for seed in sweep.seeds:
                release = mech.release(
                    window.window_id, seed, epsilon=epsilon, unit=noise[seed]
                )
                wre = weighted_relative_error(truth, release.values)
                rows.append(
                    SweepRow(
                        variant=variant,
                        epsilon=epsilon,
                        seed=seed,
                        errors={names[m]: wre[m] for m in sorted(wre)},
                        suppressed_cells=release.suppressed_partitions,
                    )
                )
    return rows


def summarize_sweep(rows: list[SweepRow]) -> list[dict]:
    """Mean and seed spread per (variant, epsilon, metric).

    NaN cells (no eligible partition) are dropped; a cell that is NaN
    for every seed stays NaN.  ``std`` is the population standard
    deviation over seeds (0.0 for a single seed).
    """
    groups: dict[tuple[str, float, str], list[float]] = {}
    order: list[tuple[str, float, str]] = []
    for row in rows:
        for metric, err in row.errors.items():
            key = (row.variant, row.epsilon, metric)
            if key not in groups:
                groups[key] = []
                order.append(key)
            if not math.isnan(err):
                groups[key].append(err)
    out = []
    for variant, epsilon, metric in order:
        values = groups[(variant, epsilon, metric)]
        if values:
            mean = math.fsum(values) / len(values)
            std = math.sqrt(
                math.fsum((v - mean) ** 2 for v in values) / len(values)
            )
        else:
            mean = std = math.nan
        out.append(
            {
                "variant": variant,
                "epsilon": epsilon,
                "metric": metric,
                "mean": mean,
                "std": std,
                "num_seeds": len(values),
            }
        )
    return out
