"""Error-free accumulation: the expansion oracle behaves like an exact real
sum, the grouped accumulator reports what the oracle reports however its
rows are sharded, merged and folded, and the array kernel's grouped sums
are math.fsum's, bit for bit."""

from __future__ import annotations

import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsum import exactsum
from fedsum.aggcore import AggCoreConfig, AggregationCore
from fedsum.exactsum import ExactSum, group_fsum

from helpers import ExpansionSum, add_partial, merge_partials, named_sums, round_partials

# Bounded so that no intermediate or final sum can overflow float64.
bounded_floats = st.floats(
    min_value=-1e290, max_value=1e290, allow_nan=False, allow_infinity=False
)
float_lists = st.lists(bounded_floats, max_size=80)


# --- the oracle: Shewchuk expansions (tests/helpers.py) ------------------------------


def expansion(values):
    partials: list[float] = []
    for v in values:
        add_partial(partials, v)
    return partials


def test_empty_rounds_to_zero():
    assert round_partials([]) == 0.0


def test_an_overflowed_expansion_stays_nan_whatever_is_added_after():
    # Adding overflows a partial ([-inf, inf], then NaN partials), and a
    # merge's exact sum can exceed the largest float; neither may raise.
    for count in (2, 3):
        assert math.isnan(round_partials(expansion([1e308] * count)))
    assert math.isnan(round_partials([1e308, 1e308]))  # beyond the largest float
    # The oracle's overflow depends on order: only bounded values compare.
    assert math.isnan(round_partials(expansion([1e308, 1e308, -1e308])))
    assert round_partials(expansion([1e308, -1e308, 1e308])) == 1e308


def test_single_value_round_trip():
    assert round_partials(expansion([3.5])) == 3.5


def test_catastrophic_cancellation_is_exact():
    # Plain left-to-right float addition loses the 1.0 here.
    values = [1e16, 1.0, -1e16]
    assert sum(values) == 0.0
    assert round_partials(expansion(values)) == 1.0


def test_tenths_match_fsum():
    values = [0.1] * 10
    assert round_partials(expansion(values)) == math.fsum(values)


@given(float_lists)
def test_round_matches_fsum(values):
    assert round_partials(expansion(values)) == math.fsum(values)


@given(float_lists, st.randoms(use_true_random=False))
def test_order_invariance(values, rng):
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert round_partials(expansion(shuffled)) == round_partials(
        expansion(values)
    )


@given(float_lists, st.integers(min_value=0, max_value=80))
def test_merge_matches_sequential(values, cut_at):
    cut = min(cut_at, len(values))
    left = expansion(values[:cut])
    right = expansion(values[cut:])
    merge_partials(left, right)
    assert round_partials(left) == round_partials(expansion(values))


@given(float_lists)
def test_partials_stay_compact_and_exact(values):
    partials = expansion(values)
    # Residues of zero are squeezed out as they appear, so only the
    # most significant slot may hold a zero.
    assert all(p != 0.0 for p in partials[:-1])
    assert all(math.isfinite(p) for p in partials)
    # The partial list carries the exact sum: collapsing it is the same
    # as correctly rounding the original inputs.
    assert math.fsum(partials) == math.fsum(values)


def test_many_random_groupings_agree():
    rng = random.Random(7)
    values = [rng.uniform(-1e9, 1e9) for _ in range(500)]
    values += [rng.uniform(-1e-9, 1e-9) for _ in range(500)]
    reference = round_partials(expansion(values))
    for _ in range(10):
        shuffled = list(values)
        rng.shuffle(shuffled)
        chunks = []
        i = 0
        while i < len(shuffled):
            width = rng.randrange(1, 60)
            chunks.append(expansion(shuffled[i : i + width]))
            i += width
        total: list[float] = []
        rng.shuffle(chunks)
        for chunk in chunks:
            merge_partials(total, chunk)
        assert round_partials(total) == reference


# --- ExactSum: grouped rows --------------------------------------------------------

keyed_rows = st.lists(
    st.tuples(st.sampled_from("abcde"), st.tuples(bounded_floats, bounded_floats)),
    max_size=40,
)


KEYS = "abcde"


def add(total, rows):
    """Stage ``(key, values)`` rows, key ``KEYS[k]`` as id ``k``."""
    total.add([KEYS.index(key) for key, _ in rows], [v for _, values in rows for v in values])


def reported(total):
    """Each present key's ``(key, sums)``, in key order."""
    sums, present = total.report()
    return [(KEYS[k], tuple(sums[k].tolist())) for k in np.flatnonzero(present)]


def grouped(rows):
    total = ExactSum(2)
    add(total, rows)
    return total


def reference(rows):
    """``math.fsum`` per key and column, in sorted key order."""
    columns: dict[str, list[list[float]]] = {}
    for key, values in rows:
        cell = columns.setdefault(key, [[], []])
        for column, v in zip(cell, values):
            column.append(v)
    return [
        (key, tuple(math.fsum(column) for column in columns[key]))
        for key in sorted(columns)
    ]


@given(keyed_rows)
def test_rows_sum_per_key_and_column(rows):
    assert reported(grouped(rows)) == reference(rows)


def test_report_is_rounded_once_and_sorted_by_key():
    total = ExactSum(1)
    add(total, [("b", (1e16,)), ("a", (0.5,))])
    add(total, [("b", (1.0,)), ("b", (-1e16,))])
    assert reported(total) == [("a", (0.5,)), ("b", (1.0,))]
    assert total.report()[1].tolist() == [True, True]


@given(keyed_rows, st.integers(0, 40), st.randoms(use_true_random=False))
def test_merge_in_any_order_matches_sequential(rows, cut_at, rng):
    cut = min(cut_at, len(rows))
    parts = [grouped(rows[:cut]), grouped(rows[cut:]), ExactSum(2)]
    rng.shuffle(parts)
    merged = ExactSum(2)
    for part in parts:
        merged.merge(part)
    assert reported(merged) == reported(grouped(rows))


def test_merge_leaves_the_other_sum_unchanged():
    left, right = grouped([("a", (1.0, 2.0))]), grouped([("a", (0.25, 1e-20))])
    left.merge(right)
    add(left, [("a", (1.0, 1.0))])
    assert reported(right) == [("a", (0.25, 1e-20))]
    assert reported(left) == [("a", (2.25, 3.0))]


def test_a_merge_maps_the_other_sums_keys():
    left, right = grouped([("a", (1.0, 2.0))]), grouped([("a", (0.5, 0.5)), ("b", (4.0, 0.0))])
    left.merge(right, remap=[4, 0])  # right's a is left's e, its b left's a
    assert reported(left) == [("a", (5.0, 2.0)), ("e", (0.5, 0.5))]


def test_sums_of_different_widths_do_not_combine():
    with pytest.raises(ValueError):
        ExactSum(1).merge(ExactSum(2))


# Every cell of ExactSum against the oracle: ties and their breakers,
# cancellation, subnormals, signed zeros and ints beyond 2**53 and 2**63
# (each rounded as ``float`` rounds it), all bounded so that the oracle
# cannot overflow.
ROW_VALUES = [
    1.0, -1.0, 2.0**-53, 2.0**-106, -(2.0**-54), 1e16, -1e16, 0.1, 5e-324, -5e-324,
    2.0**-1022, 0.0, -0.0, 2**53 + 1, -(2**53) - 1, 2**63 + 1, 2**64 + 3, -(2**70) - 1,
]
row_values = st.one_of(
    bounded_floats,
    st.sampled_from(ROW_VALUES),
    st.integers(-(2**80), 2**80),
    st.floats(min_value=-1e6, max_value=1e6).map(lambda v: v * 2.0**-60),
)
row_streams = st.lists(
    st.tuples(st.sampled_from("abcd"), st.tuples(row_values, row_values)), max_size=40
)
CORE = AggCoreConfig(key_columns=("k",), value_columns=("x", "y"))


def hexes(core):
    """Each present key's name and sums as hex, by name, from the core's
    running sum (which a report would consume)."""
    sums, present = core._sum.report()
    return sorted(
        (core.keys.names[k], tuple(v.hex() for v in sums[k].tolist()))
        for k in np.flatnonzero(present)
    )


def oracle_core(updates):
    """A core that sums with the oracle, update by update."""
    core = AggregationCore(CORE)
    core._sum = ExpansionSum(len(CORE.value_columns))
    for rows in updates:
        core.accumulate(rows)
    return core


@given(row_streams, st.data())
def test_any_sharding_merge_tree_and_fold_points_report_the_oracle_bits(rows, plan):
    cuts = sorted(plan.draw(st.lists(st.integers(0, len(rows)), max_size=8)))
    updates = [rows[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(rows)])]
    bound = plan.draw(st.sampled_from([2, 3, 5, 8, exactsum._STAGE_MAX]))
    cores = [AggregationCore(CORE) for _ in range(plan.draw(st.integers(1, 4)))]
    with mock.patch.object(exactsum, "_STAGE_MAX", bound):
        for update in updates:
            core = cores[plan.draw(st.integers(0, len(cores) - 1))]
            core.accumulate(update)
            if plan.draw(st.booleans()):
                core.serialize_state()  # a checkpoint's fold
        while len(cores) > 1:
            other = cores.pop(plan.draw(st.integers(0, len(cores) - 1)))
            cores[plan.draw(st.integers(0, len(cores) - 1))].merge(other)
        (core,) = cores
        oracle = oracle_core(updates)
        assert hexes(core) == hexes(oracle)
        assert core.serialize_state() == oracle.serialize_state()


def test_a_key_whose_sums_cancel_stays_and_only_negative_zeros_read_negative_zero():
    total = ExactSum(1)
    add(total, [("a", (-0.0,)), ("b", (-0.0,)), ("c", (1.0,)), ("d", (-0.0,))])
    add(total, [("a", (-0.0,)), ("b", (0.0,)), ("c", (-1.0,))])
    other = ExactSum(1)
    add(other, [("d", (-0.0,)), ("e", (-0.0,))])
    total.merge(other)
    zero, negative = 0.0.hex(), (-0.0).hex()
    assert [(key, tuple(v.hex() for v in values)) for key, values in reported(total)] == [
        ("a", (negative,)), ("b", (zero,)), ("c", (zero,)), ("d", (negative,)), ("e", (negative,))
    ]


LARGEST = 1.7976931348623157e308  # 2**1024 - 2**971: the half-way point is 2**970 above


@pytest.mark.parametrize(
    "values, expected",
    [
        ([1e308, 1e308, -1e308], 1e308),
        ([1e308, 1e308], math.nan),
        ([1e308] * 3, math.nan),
        ([1e308, 1e308, -1e308, -1e308, 0.5], 0.5),
        ([LARGEST, 2.0**969], LARGEST),  # below the half-way point
        ([LARGEST, 2.0**970], math.nan),  # the half-way point rounds to even, 2**1024
    ],
)
def test_a_cell_reads_nan_iff_its_exact_sum_rounds_beyond_the_floats(values, expected):
    """In every order, every split into two shards, folded before the
    merge or not: the exact sum alone decides."""
    for order in set(itertools.permutations(values)):
        for owner in itertools.product(range(2), repeat=len(values)):
            for fold in (False, True):
                shards = [ExactSum(2), ExactSum(2)]
                for shard, value in zip(owner, order):
                    add(shards[shard], [("a", (value, 1.0))])
                    if fold:
                        shards[shard].report()
                shards[owner[0]].merge(shards[1 - owner[0]])
                ((key, (big, count)),) = reported(shards[owner[0]])
                assert count == len(values)
                assert big.hex() == expected.hex() or math.isnan(big) and math.isnan(expected)


def counting_folds():
    """Patch ExactSum's fold to record how many values wait at each fold."""
    waiting = []
    fold = ExactSum._fold

    def counting(self):
        waiting.append(len(self._staged))
        fold(self)

    return waiting, mock.patch.object(ExactSum, "_fold", counting)


def test_ac13s_loop_never_stages_more_values_than_the_bound():
    config = AggCoreConfig(("region", "privacy_time_unit"), ("n", "km", "sec"))
    rows = tuple((f"cell{i:03d}\x1f2024-W20", (1.0, 2.5, 60.0)) for i in range(100))
    core = AggregationCore(config)
    waiting, patch = counting_folds()
    with patch:
        for _ in range(2_000):
            core.accumulate(rows)
            assert len(core._sum._staged) <= exactsum._STAGE_MAX
    assert len(waiting) >= 2_000 * 300 // exactsum._STAGE_MAX
    assert max(waiting) <= exactsum._STAGE_MAX
    assert named_sums(core)["cell042\x1f2024-W20"] == (2_000.0, 5_000.0, 120_000.0)


def test_a_callers_rows_are_copied_when_staged():
    values = [1.0, 2.0]
    rows = [("k", values)]
    core = AggregationCore(CORE)
    core.accumulate(rows)
    values[0] = 1e300
    rows.append(("j", [5.0, 5.0]))
    assert named_sums(core) == {"k": (1.0, 2.0)}


def test_terms_stay_few_per_cell_through_many_folds():
    """Values spread over 1,800 binades leave remainders at every level;
    a cell still holds one term per level of the split."""
    rng = random.Random(3)
    total, values = ExactSum(1), []
    with mock.patch.object(exactsum, "_STAGE_MAX", 64):
        for _ in range(100):
            batch = [rng.uniform(-1.0, 1.0) * 2.0 ** rng.randrange(-900, 900) for _ in range(50)]
            total.add([0] * len(batch), batch)
            values += batch
            assert len(total._terms) <= 40
    assert reported(total) == [("a", (math.fsum(values),))]


# --- group_fsum: grouped one-shot sums in array passes -------------------------------


def fsum_per_group(values, group, num_groups):
    """``math.fsum`` of each group's values in input order, as hex strings;
    or the type of the first exception, in group order."""
    columns: list[list[float]] = [[] for _ in range(num_groups)]
    for g, v in zip(group, values):
        columns[g].append(v)
    try:
        return [math.fsum(column).hex() for column in columns]
    except (OverflowError, ValueError) as error:
        return type(error)


def kernel_per_group(values, group, num_groups):
    try:
        sums = group_fsum(
            np.array(values, dtype=np.float64), np.array(group, dtype=np.intp), num_groups
        )
    except (OverflowError, ValueError) as error:
        return type(error)
    return [v.hex() for v in sums.tolist()]


# Exact ties and their breakers, cancellation, subnormals and the
# neighbourhood of the kernel's 2**1000 limit.
TRICKY = [
    1.0, -1.0, 2.0**-53, -(2.0**-53), 2.0**-106, 2.0**-54, 1e16, -1e16, 0.1, 3.0,
    5e-324, -5e-324, 2.0**-1022, 2.0**-1000, 0.0, -0.0, 1e300, 2.0**1000, -(2.0**1000),
]
group_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(TRICKY),
    st.floats(min_value=-1e6, max_value=1e6).map(lambda v: v * 2.0 ** -60),
)
grouped_values = st.lists(st.tuples(st.integers(0, 5), group_values), max_size=60)


@given(grouped_values)
def test_group_sums_are_fsum_per_group(rows):
    group, values = [g for g, _ in rows], [v for _, v in rows]
    assert kernel_per_group(values, group, 7) == fsum_per_group(values, group, 7)


special_values = st.sampled_from([math.inf, -math.inf, math.nan, 1.0, 1e308, -1e308])


@given(st.lists(st.tuples(st.integers(0, 3), special_values), max_size=12))
def test_groups_that_are_not_finite_fail_as_fsum_does(rows):
    group, values = [g for g, _ in rows], [v for _, v in rows]
    assert kernel_per_group(values, group, 4) == fsum_per_group(values, group, 4)


CASES = {
    "tie_to_even": ([1.0, 2.0**-53], 1.0),
    "tie_broken_above": ([1.0, 2.0**-53, 2.0**-106], math.nextafter(1.0, 2.0)),
    "tie_broken_below": ([1.0, -(2.0**-54), -(2.0**-108)], math.nextafter(1.0, 0.0)),
    "cancellation": ([1e16, 1.0, -1e16], 1.0),
    "subnormals": ([5e-324, 5e-324, -(2.0**-1022), 2.0**-1022], 1e-323),
    "one_row": ([0.1], 0.1),
    "negative_zeros": ([-0.0, -0.0], math.fsum([-0.0, -0.0])),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_hand_written_groups(case):
    values, expected = CASES[case]
    group = np.zeros(len(values), dtype=np.intp)
    assert group_fsum(np.array(values), group, 1)[0].hex() == expected.hex()


def test_empty_groups_and_no_values_sum_to_zero():
    assert group_fsum(np.zeros(0), np.zeros(0, dtype=np.intp), 3).tolist() == [0.0] * 3
    sums = group_fsum(np.array([2.5, 0.5]), np.array([3, 3]), 5)
    assert [v.hex() for v in sums.tolist()] == [0.0.hex()] * 3 + [3.0.hex(), 0.0.hex()]


def counted_fsum(monkeypatch):
    """Count the kernel's calls of ``math.fsum``."""
    calls = []
    fsum = math.fsum

    def counting(values):
        calls.append(1)
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting)
    return calls


def test_an_undecided_tie_falls_back_to_fsum(monkeypatch):
    values = np.array([1.0, 2.0**-53, 2.0**-106, 0.25])
    group = np.array([0, 0, 0, 1])
    calls = counted_fsum(monkeypatch)
    sums = group_fsum(values, group, 2)
    assert len(calls) == 1  # only the tie's group
    assert sums.tolist() == [math.nextafter(1.0, 2.0), 0.25]


def test_a_remainder_far_from_a_tie_is_certified_without_fsum(monkeypatch):
    # Two splits leave 2**-130 over; the sum is far from a rounding boundary.
    values = np.array([1.0, 2.0**-60, 2.0**-130, -3.0, 2.0**-70])
    group = np.array([0, 0, 0, 1, 1])
    expected = fsum_per_group(values.tolist(), group.tolist(), 2)
    calls = counted_fsum(monkeypatch)
    assert kernel_per_group(values, group, 2) == expected
    assert calls == []


def test_large_groups_of_ordinary_values_need_no_fsum(monkeypatch):
    rng = np.random.default_rng(21)
    values = np.concatenate(
        [
            rng.standard_normal(10_000) * 1e3,
            rng.exponential(5.0, 10_000),
            rng.integers(0, 9, 10_000) * 1.0,
        ]
    )
    group = np.repeat([0, 1, 2], 10_000)
    rng.shuffle(group)
    expected = fsum_per_group(values.tolist(), group.tolist(), 3)
    calls = counted_fsum(monkeypatch)
    assert kernel_per_group(values, group, 3) == expected
    assert calls == []
