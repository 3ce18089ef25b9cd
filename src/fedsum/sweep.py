"""Privacy/utility sweeps over the release mechanisms.

A sweep fixes one window of data, prepares each mechanism variant once
(calibration plus the exact pre-noise aggregate), then re-noises that
aggregate across a grid of privacy budgets and noise seeds.  Preparing
once is sound because the pre-noise pipeline does not depend on the
budget or the seed — only the final noise draw does — and it makes large
grids cheap.  For the same reason the sweep draws each seed's unit
Laplace block once and reuses it for every variant and budget, and it
computes the window's device histograms and the error's eligible cells
once.  Every grid cell is bit-identical to running the whole mechanism
from scratch with the same parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .dp import (
    MechanismConfig,
    PreparedMechanism,
    VARIANTS,
    prepare_mechanism,
    release_noise,
)
from .metrics import (
    default_device_floor,
    exact_workload,
    scored_cells,
    weighted_relative_error,
)
from .model import IndexedHistogram
from .synth import Corpus
from .windows import TimeWindow

__all__ = [
    "SweepConfig",
    "SweepRow",
    "TARGET_MEAN_ERROR",
    "grid_search_clip_quantile",
    "prepare_variants",
    "run_epsilon_sweep",
    "summarize_sweep",
]

DEFAULT_EPSILONS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
DEFAULT_QUANTILE_GRID = (0.50, 0.75, 0.90, 0.95, 0.99)

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
        if not self.epsilons or not self.seeds or not self.variants:
            raise ValueError("sweep grid must be non-empty")
        for eps in self.epsilons:
            if not eps > 0:
                raise ValueError(f"epsilon must be positive, got {eps}")
        unknown = set(self.variants) - set(VARIANTS)
        if unknown:
            raise ValueError(f"unknown variants: {sorted(unknown)}")


@dataclass(frozen=True)
class SweepRow:
    variant: str
    epsilon: float
    seed: int
    errors: dict[str, float] = field(compare=False)
    suppressed_cells: int = 0


def prepare_variants(
    corpus: Corpus,
    window: TimeWindow,
    sweep: SweepConfig,
    histograms: list[IndexedHistogram] | None = None,
) -> dict[str, PreparedMechanism]:
    """Calibrate and pre-aggregate each requested variant once.

    ``histograms`` may hand in ``corpus.device_histograms(window)`` when
    the caller already has them.
    """
    if histograms is None:
        histograms = corpus.device_histograms(window)
    prepared: dict[str, PreparedMechanism] = {}
    for variant in sweep.variants:
        config = MechanismConfig(
            variant=variant,
            epsilon=sweep.epsilons[0],
            quantile=sweep.quantile,
            tau=sweep.tau,
        )
        prepared[variant] = prepare_mechanism(config, histograms, corpus.schema)
    return prepared


def run_epsilon_sweep(
    corpus: Corpus,
    window: TimeWindow,
    sweep: SweepConfig,
    prepared: dict[str, PreparedMechanism] | None = None,
) -> list[SweepRow]:
    """Evaluate every (variant, epsilon, seed) cell of the grid.

    Rows come back in deterministic grid order: variants as configured,
    then budgets, then seeds.
    """
    histograms = corpus.device_histograms(window)
    if prepared is None:
        prepared = prepare_variants(corpus, window, sweep, histograms)
    truth = exact_workload(corpus, window, histograms)
    counts = corpus.device_counts(window)
    floor = default_device_floor(corpus.num_devices)
    cells = scored_cells(truth, counts, floor)
    noise = {
        seed: release_noise(seed, window.window_id, corpus.schema)
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
                wre = weighted_relative_error(
                    truth, release.histogram, counts, floor, cells
                )
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


def grid_search_clip_quantile(
    corpus: Corpus,
    window: TimeWindow,
    variant: str,
    epsilon: float,
    seeds: tuple[int, ...] = tuple(range(10)),
    quantile_grid: tuple[float, ...] = DEFAULT_QUANTILE_GRID,
    tau: float = 0.0,
) -> tuple[float, list[dict]]:
    """Pick the calibration quantile minimizing mean error at one budget.

    Returns the winning quantile and one summary dict per grid point.
    The score is the mean over metrics and seeds of the weighted
    relative error; ties break toward the smaller quantile.
    """
    histograms = corpus.device_histograms(window)
    truth = exact_workload(corpus, window, histograms)
    counts = corpus.device_counts(window)
    floor = default_device_floor(corpus.num_devices)
    cells = scored_cells(truth, counts, floor)
    noise = {
        seed: release_noise(seed, window.window_id, corpus.schema)
        for seed in seeds
    }
    table = []
    best: tuple[float, float] | None = None
    for q in quantile_grid:
        config = MechanismConfig(
            variant=variant, epsilon=epsilon, quantile=q, tau=tau
        )
        mech = prepare_mechanism(config, histograms, corpus.schema)
        cell_errors: list[float] = []
        for seed in seeds:
            release = mech.release(window.window_id, seed, unit=noise[seed])
            wre = weighted_relative_error(
                truth, release.histogram, counts, floor, cells
            )
            cell_errors.extend(v for v in wre.values() if not math.isnan(v))
        score = math.fsum(cell_errors) / len(cell_errors) if cell_errors else math.inf
        table.append({"quantile": q, "mean_error": score})
        if best is None or score < best[1]:
            best = (q, score)
    assert best is not None
    return best[0], table
