"""Budget sweeps: grid mechanics and summaries."""

from __future__ import annotations

import math

import numpy as np
import pytest

from fedsum.dp import (
    VARIANT_JOINT,
    VARIANT_SCALED,
    VARIANT_SPLIT,
    VARIANTS,
    MechanismConfig,
    prepare_mechanism,
)
from fedsum.metrics import default_device_floor, exact_workload
from fedsum.model import IndexedHistogram
from fedsum.sweep import (
    DEFAULT_EPSILONS,
    SweepConfig,
    SweepRow,
    TARGET_MEAN_ERROR,
    prepare_variants,
    run_epsilon_sweep,
    summarize_sweep,
)

from blocks import devices_of, sparse_of
from helpers import naive_device_counts, sparse_weighted_relative_error


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
        {"quantile": 1.5},
        {"quantile": 0.0},
        {"quantile": math.nan},
        {"tau": -1.0},
        {"tau": math.nan},
    ):
        with pytest.raises(ValueError):
            SweepConfig(**bad)
    assert SweepConfig().epsilons == DEFAULT_EPSILONS
    assert 0 < TARGET_MEAN_ERROR < 1


# --- preparation ----------------------------------------------------------------


def test_each_variant_is_prepared_once(corpus_300, week_one_300):
    block = corpus_300.device_histograms(week_one_300)
    prepared = prepare_variants(block, corpus_300.schema, small_sweep())
    assert set(prepared) == set(VARIANTS)
    active = len(devices_of(block))
    for variant, mech in prepared.items():
        assert mech.resolved.variant == variant
        bounded = mech.resolved.transform_devices(block, corpus_300.schema)
        assert len(np.unique(bounded.device)) == active
        assert np.array_equal(mech.prenoise, bounded.cell_sums(corpus_300.schema))
    assert prepared[VARIANT_SPLIT].resolved.clip is None
    assert prepared[VARIANT_JOINT].resolved.clip is not None
    assert prepared[VARIANT_SCALED].resolved.scale_table[0][0] != 1.0


@pytest.mark.parametrize(
    "variants,calls",
    [
        (VARIANTS, 1),
        ((VARIANT_SPLIT,), 1),
        ((VARIANT_SCALED,), 1),
        ((VARIANT_JOINT,), 0),
    ],
)
def test_one_calibration_serves_split_and_scaling(
    corpus_300, week_one_300, monkeypatch, variants, calls
):
    import fedsum.dp
    import fedsum.sweep

    calibrate = fedsum.dp.calibrate_scales
    tables = []

    def counted(*args, **kwargs):
        tables.append(calibrate(*args, **kwargs))
        return tables[-1]

    for module in (fedsum.dp, fedsum.sweep):
        monkeypatch.setattr(module, "calibrate_scales", counted)
    sweep = SweepConfig(epsilons=(2.0,), seeds=(0,), variants=variants)
    block = corpus_300.device_histograms(week_one_300)
    prepared = prepare_variants(block, corpus_300.schema, sweep)
    assert len(tables) == calls
    if VARIANT_SPLIT in prepared:
        assert prepared[VARIANT_SPLIT].resolved.clip_table == tables[0]
    if VARIANT_SCALED in prepared:
        assert prepared[VARIANT_SCALED].resolved.scale_table == tables[0]


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
    block = corpus_300.device_histograms(week_one_300)
    truth = exact_workload(corpus_300, block)
    counts = naive_device_counts(corpus_300, week_one_300)
    floor = default_device_floor(corpus_300.num_devices)
    assert len(rows) == 3 * 3 * 2
    for row in rows:
        config = MechanismConfig(
            variant=row.variant,
            epsilon=row.epsilon,
            quantile=sweep.quantile,
            tau=sweep.tau,
        )
        release = prepare_mechanism(config, block, schema).release(
            week_one_300.window_id, row.seed
        )
        wre = sparse_weighted_relative_error(
            sparse_of(truth), dict(release.histogram.items()), counts, floor, schema.num_metrics
        )
        expected = {schema.metric_names[m]: wre[m] for m in sorted(wre)}
        assert repr(row.errors) == repr(expected), (row.variant, row.epsilon)
        assert row.suppressed_cells == release.suppressed_partitions


def test_the_sweep_builds_no_histogram_per_grid_cell(
    corpus_300, week_one_300, monkeypatch
):
    built = []
    init, from_dense = IndexedHistogram.__init__, IndexedHistogram.from_dense.__func__

    def counted_init(self, *args, **kwargs):
        built.append("init")
        init(self, *args, **kwargs)

    def counted_from_dense(cls, schema, values):
        built.append("from_dense")
        return from_dense(cls, schema, values)

    monkeypatch.setattr(IndexedHistogram, "__init__", counted_init)
    monkeypatch.setattr(IndexedHistogram, "from_dense", classmethod(counted_from_dense))
    per_grid = []
    for epsilons, seeds in (((1.0,), (0, 1)), ((0.5, 1.0, 2.0, 4.0), tuple(range(5)))):
        built.clear()
        rows = run_epsilon_sweep(
            corpus_300, week_one_300, SweepConfig(epsilons=epsilons, seeds=seeds)
        )
        assert len(rows) == len(VARIANTS) * len(epsilons) * len(seeds)
        per_grid.append(len(built))
    assert per_grid[0] == per_grid[1]


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
