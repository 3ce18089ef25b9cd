"""Budget sweeps: grid mechanics, summaries, and quantile search."""

from __future__ import annotations

import math

import pytest

from fedsum.dp import (
    VARIANT_JOINT,
    VARIANT_SCALED,
    VARIANT_SPLIT,
    VARIANTS,
    MechanismConfig,
    prepare_mechanism,
)
from fedsum.metrics import (
    default_device_floor,
    exact_workload,
    weighted_relative_error,
)
from fedsum.sweep import (
    DEFAULT_EPSILONS,
    SweepConfig,
    SweepRow,
    TARGET_MEAN_ERROR,
    grid_search_clip_quantile,
    prepare_variants,
    run_epsilon_sweep,
    summarize_sweep,
)


def small_sweep():
    return SweepConfig(epsilons=(math.inf, 2.0), seeds=(0, 1, 2), quantile=0.95)


# --- configuration -----------------------------------------------------------


def test_grid_must_be_non_empty():
    for bad in (
        {"epsilons": ()},
        {"seeds": ()},
        {"variants": ()},
        {"epsilons": (0.0,)},
        {"epsilons": (-1.0,)},
        {"variants": ("bogus",)},
    ):
        with pytest.raises(ValueError):
            SweepConfig(**bad)
    assert SweepConfig().epsilons == DEFAULT_EPSILONS
    assert 0 < TARGET_MEAN_ERROR < 1


# --- preparation ----------------------------------------------------------------


def test_each_variant_is_prepared_once(corpus_300, week_one_300):
    prepared = prepare_variants(corpus_300, week_one_300, small_sweep())
    assert set(prepared) == set(VARIANTS)
    active = len(corpus_300.device_histograms(week_one_300))
    for variant, mech in prepared.items():
        assert mech.resolved.variant == variant
        assert mech.num_devices == active
    assert prepared[VARIANT_SPLIT].clip is None
    assert prepared[VARIANT_JOINT].clip is not None
    assert prepared[VARIANT_SCALED].scale_table.get(0, 0) != 1.0


# --- the grid ---------------------------------------------------------------------


def test_rows_come_back_in_grid_order(corpus_300, week_one_300):
    sweep = small_sweep()
    rows = run_epsilon_sweep(corpus_300, week_one_300, sweep)
    expected = [
        (variant, epsilon, seed)
        for variant in sweep.variants
        for epsilon in sweep.epsilons
        for seed in sweep.seeds
    ]
    assert [(r.variant, r.epsilon, r.seed) for r in rows] == expected
    for row in rows:
        assert set(row.errors) == set(corpus_300.schema.metric_names)


def test_sweeps_are_deterministic(corpus_300, week_one_300):
    sweep = small_sweep()
    first = run_epsilon_sweep(corpus_300, week_one_300, sweep)
    second = run_epsilon_sweep(corpus_300, week_one_300, sweep)
    assert [r.errors for r in first] == [r.errors for r in second]
    assert [r.suppressed_cells for r in first] == [
        r.suppressed_cells for r in second
    ]


def test_noiseless_budget_is_no_worse_on_average(corpus_300, week_one_300):
    sweep = SweepConfig(
        epsilons=(math.inf, 1.0), seeds=tuple(range(5)), variants=(VARIANT_JOINT,)
    )
    rows = run_epsilon_sweep(corpus_300, week_one_300, sweep)

    def mean_error(epsilon):
        values = [
            err
            for row in rows
            if row.epsilon == epsilon
            for err in row.errors.values()
            if not math.isnan(err)
        ]
        return math.fsum(values) / len(values)

    assert mean_error(math.inf) <= mean_error(1.0)
    infinite = [r for r in rows if r.epsilon == math.inf]
    assert all(r.errors == infinite[0].errors for r in infinite)  # seed-free


def test_every_cell_equals_a_from_scratch_release(corpus_300, week_one_300):
    """The shared noise blocks, histograms and error cells change no bit."""
    sweep = SweepConfig(
        epsilons=(math.inf, 2.0, 0.5), seeds=(0, 1), quantile=0.9, tau=1.0
    )
    rows = run_epsilon_sweep(corpus_300, week_one_300, sweep)
    schema = corpus_300.schema
    histograms = corpus_300.device_histograms(week_one_300)
    truth = exact_workload(corpus_300, week_one_300)
    counts = corpus_300.device_counts(week_one_300)
    floor = default_device_floor(corpus_300.num_devices)
    assert len(rows) == 3 * 3 * 2
    for row in rows:
        config = MechanismConfig(
            variant=row.variant,
            epsilon=row.epsilon,
            quantile=sweep.quantile,
            tau=sweep.tau,
        )
        release = prepare_mechanism(config, histograms, schema).release(
            week_one_300.window_id, row.seed
        )
        wre = weighted_relative_error(truth, release.histogram, counts, floor)
        expected = {schema.metric_names[m]: wre[m] for m in sorted(wre)}
        assert repr(row.errors) == repr(expected), (row.variant, row.epsilon)
        assert row.suppressed_cells == release.suppressed_partitions


# --- summaries -----------------------------------------------------------------------


def test_summary_means_and_population_spread():
    rows = [
        SweepRow("v", 1.0, 0, {"m": 0.1}),
        SweepRow("v", 1.0, 1, {"m": 0.3}),
    ]
    (summary,) = summarize_sweep(rows)
    assert summary["mean"] == pytest.approx(0.2)
    assert summary["std"] == pytest.approx(0.1)
    assert summary["num_seeds"] == 2


def test_summary_drops_nan_seeds_but_keeps_the_cell():
    rows = [
        SweepRow("v", 1.0, 0, {"m": 0.1}),
        SweepRow("v", 1.0, 1, {"m": math.nan}),
        SweepRow("v", 1.0, 2, {"m": 0.3}),
    ]
    (summary,) = summarize_sweep(rows)
    assert summary["mean"] == pytest.approx(0.2)
    assert summary["num_seeds"] == 2


def test_all_nan_cells_stay_nan():
    rows = [SweepRow("v", 1.0, 0, {"m": math.nan})]
    (summary,) = summarize_sweep(rows)
    assert math.isnan(summary["mean"])
    assert math.isnan(summary["std"])
    assert summary["num_seeds"] == 0


def test_summary_preserves_grid_order():
    rows = [
        SweepRow("a", 2.0, 0, {"m1": 0.1, "m2": 0.2}),
        SweepRow("b", 1.0, 0, {"m1": 0.4, "m2": 0.5}),
    ]
    keys = [(s["variant"], s["epsilon"], s["metric"]) for s in summarize_sweep(rows)]
    assert keys == [
        ("a", 2.0, "m1"),
        ("a", 2.0, "m2"),
        ("b", 1.0, "m1"),
        ("b", 1.0, "m2"),
    ]


# --- quantile search -------------------------------------------------------------------


def test_noiseless_search_prefers_the_gentlest_clip(corpus_300, week_one_300):
    """Without noise, clipping is the only error, so 0.99 beats 0.50."""
    best, table = grid_search_clip_quantile(
        corpus_300,
        week_one_300,
        VARIANT_JOINT,
        epsilon=math.inf,
        seeds=(0,),
        quantile_grid=(0.50, 0.99),
    )
    assert best == 0.99
    assert [point["quantile"] for point in table] == [0.50, 0.99]
    assert table[1]["mean_error"] < table[0]["mean_error"]
