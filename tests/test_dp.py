"""Private release mechanisms: calibration, noise, thresholds, variants."""

from __future__ import annotations

import dataclasses
import logging
import math
import statistics

import numpy as np
import pytest

from fedsum.dp import (
    MechanismConfig,
    VARIANT_JOINT,
    VARIANT_SCALED,
    VARIANT_SPLIT,
    VARIANTS,
    apply_threshold,
    calibrate_clip,
    calibrate_scales,
    laplace_mechanism,
    mech_activity_metric_scaling,
    mech_budget_split,
    mech_joint_clipping,
    nearest_rank_quantile,
    prepare_mechanism,
    release_noise,
    resolve_mechanism,
    slice_l1_norms,
    uniform_noise_scales,
)
from fedsum.model import (
    ExactHistogramSum,
    IndexedHistogram,
    InvalidParameterError,
    ScaleTable,
    Schema,
)
from fedsum.rng import KeyedRng


def hist(schema, entries):
    h = IndexedHistogram(schema)
    for index, value in entries.items():
        h[index] = value
    return h


def linear_devices(schema, n=100):
    """Device i holds the single value i+1 in the first cell."""
    return [
        hist(schema, {(0, 0, 0, 0): float(i + 1)}) for i in range(n)
    ]


# --- quantiles and calibration ---------------------------------------------


def test_nearest_rank_picks_the_95th_of_100():
    values = [float(v) for v in range(1, 101)]
    assert nearest_rank_quantile(values, 0.95) == 95.0
    assert nearest_rank_quantile(values, 1.0) == 100.0
    assert nearest_rank_quantile(values, 0.001) == 1.0


def test_nearest_rank_edge_cases():
    assert nearest_rank_quantile([7.0], 0.5) == 7.0
    assert nearest_rank_quantile([3.0, 3.0, 3.0], 0.9) == 3.0
    with pytest.raises(InvalidParameterError):
        nearest_rank_quantile([], 0.5)
    with pytest.raises(InvalidParameterError):
        nearest_rank_quantile([1.0], 0.0)
    with pytest.raises(InvalidParameterError):
        nearest_rank_quantile([1.0], 1.5)


def test_slice_norms_split_by_activity_and_metric(small_schema):
    h = hist(
        small_schema,
        {(0, 0, 0, 0): 3.0, (0, 0, 1, 2): -4.0, (1, 2, 0, 0): 5.0},
    )
    assert slice_l1_norms(h) == {(0, 0): 7.0, (1, 2): 5.0}


def test_calibrated_scales_hit_the_quantile(cell_schema):
    table = calibrate_scales(linear_devices(cell_schema), cell_schema, 0.95)
    assert table.get(0, 0) == 95.0


def test_empty_slices_fall_back_to_unit_scale(caplog):
    schema = Schema(
        num_activities=1,
        num_metrics=2,
        num_regions=1,
        metric_names=("m0", "m1"),
        activity_names=("a",),
    )
    devices = [hist(schema, {(0, 0, 0, 0): 2.0})]
    with caplog.at_level(logging.WARNING, logger="fedsum.dp"):
        table = calibrate_scales(devices, schema, 0.95)
    assert table.get(0, 1) == 1.0
    assert any("metric=1" in message for message in caplog.messages)


def test_calibrated_clip_hits_the_quantile(cell_schema):
    assert calibrate_clip(linear_devices(cell_schema), 0.95) == 95.0


def test_clip_calibration_needs_active_devices(cell_schema):
    with pytest.raises(InvalidParameterError):
        calibrate_clip([IndexedHistogram(cell_schema)] * 5)


# --- thresholding -------------------------------------------------------------


def threshold_fixture(cell_schema):
    return hist(
        cell_schema, {(0, 0, 0, 0): 5.0, (0, 0, 0, 1): -2.0, (0, 0, 0, 2): 10.0}
    )


def threshold(h, tau, strict=False):
    """apply_threshold on the histogram's dense array, read back sparse."""
    kept, suppressed = apply_threshold(h.to_dense(), tau, strict)
    return IndexedHistogram.from_dense(h.schema, kept), suppressed


def test_threshold_drops_small_partitions(cell_schema):
    kept, suppressed = threshold(threshold_fixture(cell_schema), 3.0)
    assert suppressed == 1
    assert dict(kept.items()) == {(0, 0, 0, 0): 5.0, (0, 0, 0, 2): 10.0}


def test_zero_threshold_is_the_identity(cell_schema):
    original = threshold_fixture(cell_schema).to_dense()
    kept, suppressed = apply_threshold(original, 0.0)
    assert suppressed == 0
    assert np.array_equal(kept, original)
    kept[0, 0, 0, 0] = 99.0  # a copy, not a view
    assert original[0, 0, 0, 0] == 5.0


def test_strict_zero_threshold_drops_negatives(cell_schema):
    kept, suppressed = threshold(threshold_fixture(cell_schema), 0.0, strict=True)
    assert suppressed == 1
    assert (0, 0, 0, 1) not in dict(kept.items())


def test_threshold_can_empty_a_histogram(cell_schema):
    kept, suppressed = threshold(threshold_fixture(cell_schema), 100.0)
    assert len(kept) == 0
    assert suppressed == 3


def test_negative_threshold_is_rejected(cell_schema):
    with pytest.raises(InvalidParameterError):
        apply_threshold(threshold_fixture(cell_schema).to_dense(), -0.5)


# --- noise primitives ------------------------------------------------------------


def test_infinite_epsilon_adds_exactly_no_noise(small_schema):
    h = hist(small_schema, {(0, 1, 2, 0): 12.5, (2, 0, 3, 1): -4.0})
    rng = KeyedRng(3, "release-noise")
    out = laplace_mechanism(h, 1.0, math.inf, rng, "w0")
    assert out == h


def test_huge_epsilon_is_near_the_identity(small_schema):
    h = hist(small_schema, {(0, 1, 2, 0): 12.5})
    rng = KeyedRng(3, "release-noise")
    out = laplace_mechanism(h, 1.0, 1e9, rng, "w0")
    assert out[(0, 1, 2, 0)] == pytest.approx(12.5, abs=1e-6)


def test_full_domain_noise_covers_empty_cells(cell_schema):
    rng = KeyedRng(1, "release-noise")
    out = laplace_mechanism(IndexedHistogram(cell_schema), 1.0, 1.0, rng, "w0")
    assert len(out) == 3  # every (direction) coordinate of the empty input


def test_epsilon_must_be_positive_for_noise(cell_schema):
    rng = KeyedRng(1, "release-noise")
    with pytest.raises(InvalidParameterError):
        laplace_mechanism(IndexedHistogram(cell_schema), 1.0, 0.0, rng, "w0")


def test_pure_noise_has_laplace_variance(cell_schema):
    clip, epsilon = 2.0, 1.0
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=epsilon, clip=clip)
    prepared = prepare_mechanism(config, [], cell_schema)
    samples = [
        value
        for seed in range(2000)
        for _, value in prepared.release("w0", seed).histogram.items()
    ]
    b = clip / epsilon
    assert len(samples) == 6000
    assert statistics.mean(samples) == pytest.approx(0.0, abs=0.15)
    assert statistics.pvariance(samples) == pytest.approx(2 * b * b, rel=0.12)


def test_same_seed_same_release_and_fresh_seed_differs(cell_schema):
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=1.0)
    prepared = prepare_mechanism(config, linear_devices(cell_schema, 5), cell_schema)
    assert prepared.release("w0", 7) == prepared.release("w0", 7)
    assert prepared.release("w0", 7) != prepared.release("w0", 8)
    assert prepared.release("w0", 7) != prepared.release("w1", 7)


def test_noise_draws_are_shared_across_epsilons(cell_schema):
    """Releases at two budgets reuse the same underlying draws, rescaled."""
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=2.0)
    prepared = prepare_mechanism(config, [], cell_schema)
    wide = dict(prepared.release("w0", 3, epsilon=1.0).histogram.items())
    narrow = dict(prepared.release("w0", 3, epsilon=2.0).histogram.items())
    assert set(wide) == set(narrow)
    for index, value in wide.items():
        assert narrow[index] == value / 2.0  # power-of-two scales: exact


# --- the dense release against a coordinate-by-coordinate reference ------------


def reference_release(resolved, aggregate, window_id, seed, epsilon):
    """(histogram, suppressed) built one coordinate at a time.

    Noise is drawn at each slice's scale with ``KeyedRng.laplace``, then
    descaled with ``scale_by_table(invert=True)`` and thresholded by a
    loop over the stored entries.
    """
    schema = aggregate.schema
    rng = KeyedRng(seed, "release-noise")
    scales = resolved.noise_scales(schema, epsilon)
    noised = IndexedHistogram(schema)
    coordinates = (
        [index for index, _ in aggregate.items()]
        if resolved.observed_keys_only
        else schema.iter_domain()
    )
    for a, m, r, d in coordinates:
        noised[(a, m, r, d)] = aggregate[(a, m, r, d)] + rng.laplace(
            scales[a][m], window_id, a, m, r, d
        )
    if resolved.variant == VARIANT_SCALED:
        noised = noised.scale_by_table(resolved.scale_table, invert=True)
    if resolved.tau == 0.0 and not resolved.strict_tau:
        return noised, 0
    kept = IndexedHistogram(schema)
    suppressed = 0
    for index, value in noised.raw().items():
        if value < resolved.tau:
            suppressed += 1
        else:
            kept[index] = value
    return kept, suppressed


REFERENCE_CASES = {
    "plain": {},
    "tau": {"tau": 30.0},
    "strict_tau": {"strict_tau": True},
    "observed_keys_only": {"observed_keys_only": True},
    "infinite_epsilon": {"tau": 30.0},
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
@pytest.mark.parametrize("variant", VARIANTS)
def test_release_equals_the_coordinate_by_coordinate_reference(
    small_schema, variant, case
):
    devices = [
        hist(
            small_schema,
            {
                (i % 3, i % 2, i % 4, i % 3): 1.0 + 0.37 * i,
                (2, 2, (i * 7) % 4, 1): 3.0 + 1.9 * (i % 5),
            },
        )
        for i in range(40)
    ]
    prepared = prepare_mechanism(
        MechanismConfig(variant=variant, epsilon=1.0, quantile=0.9),
        devices,
        small_schema,
    )
    resolved = dataclasses.replace(prepared.resolved, **REFERENCE_CASES[case])
    epsilons = (math.inf,) if case == "infinite_epsilon" else (1.0, 0.25)
    suppressed_total = 0
    for seed in (0, 5):
        unit = release_noise(seed, "w7", small_schema)
        for epsilon in epsilons:
            expected, suppressed = reference_release(
                resolved, prepared.prenoise, "w7", seed, epsilon
            )
            for shared in (None, unit):
                release = resolved.finalize(
                    prepared.prenoise, "w7", seed, epsilon, unit=shared
                )
                assert release.histogram.serialize() == expected.serialize()
                assert release.suppressed_partitions == suppressed
            suppressed_total += suppressed
    if resolved.tau > 0 or resolved.strict_tau:
        assert suppressed_total > 0  # the threshold had something to drop


def test_a_noise_free_release_draws_nothing(small_schema, monkeypatch):
    draws = []
    uniform = KeyedRng.uniform

    def counted(self, *index):
        draws.append(index)
        return uniform(self, *index)

    monkeypatch.setattr(KeyedRng, "uniform", counted)
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=math.inf, clip=1.0)
    prepared = prepare_mechanism(config, linear_devices(small_schema, 5), small_schema)
    prepared.release("w0", 3)
    assert draws == []
    prepared.release("w0", 3, epsilon=1.0)
    assert len(draws) == small_schema.domain_size  # one draw per coordinate


def test_unit_noise_must_match_the_seed_and_window(cell_schema):
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=1.0)
    prepared = prepare_mechanism(config, [], cell_schema)
    prepared.release("w0", 3, unit=release_noise(3, "w0", cell_schema))
    for seed, window_id in ((4, "w0"), (3, "w1")):
        with pytest.raises(InvalidParameterError):
            prepared.release(
                "w0", 3, unit=release_noise(seed, window_id, cell_schema)
            )


# --- configured mechanisms -----------------------------------------------------


def test_config_validation_matrix(cell_schema):
    good = dict(variant=VARIANT_JOINT, epsilon=1.0)
    MechanismConfig(**good)
    for bad in (
        {"variant": "bogus"},
        {"epsilon": 0.0},
        {"epsilon": -2.0},
        {"quantile": 0.0},
        {"quantile": 1.0001},
        {"clip": 0.0},
        {"tau": -1.0},
        {"clip": math.inf},  # finite budget cannot excuse an unbounded norm
    ):
        with pytest.raises(InvalidParameterError):
            MechanismConfig(**{**good, **bad})
    MechanismConfig(variant=VARIANT_JOINT, epsilon=math.inf, clip=math.inf)


def test_parameters_are_tied_to_their_variant(cell_schema):
    table = ScaleTable.identity(cell_schema)
    cases = [
        MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, scale_table=table),
        MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip_table=table),
        MechanismConfig(
            variant=VARIANT_JOINT, epsilon=1.0, budget_weights=((1.0,),)
        ),
        MechanismConfig(variant=VARIANT_SPLIT, epsilon=1.0, clip=1.0),
        MechanismConfig(variant=VARIANT_SPLIT, epsilon=1.0, scale_table=table),
    ]
    for config in cases:
        with pytest.raises(InvalidParameterError):
            resolve_mechanism(config, linear_devices(cell_schema, 3), cell_schema)


def test_budget_weights_must_be_a_distribution(small_schema):
    shape_ok = tuple(
        tuple(1.0 / 9.0 for _ in range(3)) for _ in range(3)
    )
    resolve_mechanism(
        MechanismConfig(variant=VARIANT_SPLIT, epsilon=1.0, budget_weights=shape_ok),
        linear_devices(small_schema, 3),
        small_schema,
    )
    bad_weights = [
        ((0.5, 0.5),),  # wrong shape
        tuple(tuple(0.0 for _ in range(3)) for _ in range(3)),  # not positive
        tuple(tuple(1.0 for _ in range(3)) for _ in range(3)),  # sums to 9
    ]
    for weights in bad_weights:
        with pytest.raises(InvalidParameterError):
            resolve_mechanism(
                MechanismConfig(
                    variant=VARIANT_SPLIT, epsilon=1.0, budget_weights=weights
                ),
                linear_devices(small_schema, 3),
                small_schema,
            )


def test_split_noise_scales_divide_the_budget_uniformly(small_schema):
    table = ScaleTable([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0], [1.0, 1.0, 1.0]])
    resolved = resolve_mechanism(
        MechanismConfig(variant=VARIANT_SPLIT, epsilon=2.0, clip_table=table),
        [],
        small_schema,
    )
    scales = resolved.noise_scales(small_schema)
    for a in range(3):
        for m in range(3):
            assert scales[a][m] == table.get(a, m) * 9 / 2.0


def test_custom_weights_shift_noise_between_slices(cell_schema):
    resolved = resolve_mechanism(
        MechanismConfig(
            variant=VARIANT_SPLIT,
            epsilon=1.0,
            clip_table=ScaleTable([[3.0]]),
            budget_weights=((1.0,),),
        ),
        [],
        cell_schema,
    )
    assert resolved.noise_scales(cell_schema) == ((3.0,),)


def test_joint_noise_scale_is_clip_over_epsilon(small_schema):
    resolved = resolve_mechanism(
        MechanismConfig(variant=VARIANT_JOINT, epsilon=4.0, clip=10.0),
        [],
        small_schema,
    )
    assert resolved.noise_scales(small_schema) == uniform_noise_scales(
        small_schema, 2.5
    )
    assert resolved.noise_scales(small_schema, epsilon=math.inf) == (
        uniform_noise_scales(small_schema, 0.0)
    )


def test_prepared_prenoise_is_the_exact_transformed_sum(small_schema):
    devices = [
        hist(small_schema, {(0, 0, 0, 0): 1.0 + i, (1, 2, 3, 1): 0.3 * i})
        for i in range(40)
    ]
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=2.0)
    prepared = prepare_mechanism(config, devices, small_schema)
    manual = ExactHistogramSum(small_schema)
    for h in devices:
        manual.add(prepared.resolved.transform_device(h))
    assert prepared.prenoise == manual.rounded()
    assert prepared.num_devices == 40


def test_epsilon_override_lands_in_the_metadata(cell_schema):
    config = MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=1.0)
    prepared = prepare_mechanism(config, linear_devices(cell_schema, 5), cell_schema)
    release = prepared.release("w0", 0, epsilon=8.0)
    assert release.metadata["epsilon"] == 8.0
    assert release.metadata["privacy_label"].endswith("epsilon=8.0")
    assert release.metadata["dp"] is True
    assert release.metadata["clip_table_digest"] is None
    assert release.metadata["scale_table_digest"] is not None


def test_observed_keys_mode_is_loudly_not_private(cell_schema):
    release = mech_joint_clipping(
        [], cell_schema, epsilon=1.0, clip=1.0, observed_keys_only=True
    )
    assert release.metadata["dp"] is False
    assert release.metadata["privacy_label"].startswith("NOT-DP")
    assert len(release.histogram) == 0  # nothing stored, nothing noised


# --- variant semantics --------------------------------------------------------------


def test_scaling_variant_descales_after_noising(cell_schema):
    """With a power-of-two scale, pure noise comes back multiplied exactly."""
    factor = 4.0
    scaled = mech_activity_metric_scaling(
        [],
        cell_schema,
        epsilon=1.0,
        clip=1.0,
        scale_table=ScaleTable([[factor]]),
        seed=5,
    )
    plain = mech_joint_clipping([], cell_schema, epsilon=1.0, clip=1.0, seed=5)
    for index, value in plain.histogram.items():
        assert scaled.histogram[index] == value * factor


def test_descaled_noise_variance_matches_the_scale(cell_schema):
    factor = 4.0
    config = MechanismConfig(
        variant=VARIANT_SCALED,
        epsilon=1.0,
        clip=1.0,
        scale_table=ScaleTable([[factor]]),
    )
    prepared = prepare_mechanism(config, [], cell_schema)
    samples = [
        value
        for seed in range(2000)
        for _, value in prepared.release("w0", seed).histogram.items()
    ]
    assert statistics.pvariance(samples) == pytest.approx(
        2.0 * factor * factor, rel=0.12
    )


def test_identity_scaling_degenerates_to_joint_clipping(small_schema):
    devices = [
        hist(small_schema, {(0, 0, 0, 0): 2.0 * i, (2, 1, 1, 2): 5.0})
        for i in range(30)
    ]
    scaled = mech_activity_metric_scaling(
        devices,
        small_schema,
        epsilon=2.0,
        clip=3.0,
        scale_table=ScaleTable.identity(small_schema),
        seed=9,
    )
    joint = mech_joint_clipping(devices, small_schema, epsilon=2.0, clip=3.0, seed=9)
    assert scaled.histogram.serialize() == joint.histogram.serialize()


def test_single_slice_budget_split_degenerates_to_joint_clipping(cell_schema):
    devices = linear_devices(cell_schema, 30)
    split = mech_budget_split(
        devices, cell_schema, epsilon=2.0, clip_table=ScaleTable([[3.0]]), seed=9
    )
    joint = mech_joint_clipping(devices, cell_schema, epsilon=2.0, clip=3.0, seed=9)
    assert split.histogram.serialize() == joint.histogram.serialize()


def test_split_clips_each_slice_independently(small_schema):
    device = hist(
        small_schema,
        {(0, 0, 0, 0): 10.0, (1, 1, 0, 0): 1.0},
    )
    table_rows = [[2.0, 1e9, 1e9], [1e9, 1e9, 1e9], [1e9, 1e9, 1e9]]
    resolved = resolve_mechanism(
        MechanismConfig(
            variant=VARIANT_SPLIT, epsilon=1.0, clip_table=ScaleTable(table_rows)
        ),
        [device],
        small_schema,
    )
    bounded = resolved.transform_device(device)
    assert bounded[(0, 0, 0, 0)] == 2.0  # clipped to its slice bound
    assert bounded[(1, 1, 0, 0)] == 1.0  # untouched slice


def test_joint_transform_preserves_direction_within_budget(small_schema):
    device = hist(small_schema, {(0, 0, 0, 0): 6.0, (0, 1, 0, 0): -2.0})
    resolved = resolve_mechanism(
        MechanismConfig(variant=VARIANT_JOINT, epsilon=1.0, clip=4.0),
        [device],
        small_schema,
    )
    bounded = resolved.transform_device(device)
    assert bounded[(0, 0, 0, 0)] == 3.0
    assert bounded[(0, 1, 0, 0)] == -1.0


def test_power_of_two_scaling_round_trips_through_release(small_schema):
    rows = [[2.0, 4.0, 8.0], [0.5, 1.0, 2.0], [4.0, 4.0, 4.0]]
    devices = [
        hist(small_schema, {(0, 0, 0, 0): 0.7 * (i + 1), (1, 2, 2, 1): 3.1})
        for i in range(20)
    ]
    release = mech_activity_metric_scaling(
        devices,
        small_schema,
        epsilon=math.inf,
        clip=math.inf,
        scale_table=ScaleTable(rows),
    )
    exact = ExactHistogramSum(small_schema)
    for h in devices:
        exact.add(h)
    assert release.histogram == exact.rounded()


def test_calibration_happens_in_scaled_space(cell_schema):
    """A missing joint clip for the scaling variant bounds scaled norms."""
    devices = linear_devices(cell_schema, 100)
    table = ScaleTable([[2.0]])
    resolved = resolve_mechanism(
        MechanismConfig(variant=VARIANT_SCALED, epsilon=1.0, scale_table=table),
        devices,
        cell_schema,
    )
    # Raw norms 1..100 halve to 0.5..50; the 0.95 quantile is 47.5.
    assert resolved.clip == 47.5
