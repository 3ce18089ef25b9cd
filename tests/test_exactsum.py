"""Error-free accumulation: expansions behave like exact real sums, the
grouped accumulator built on them sums per key and column exactly, and
the array kernel's grouped sums are math.fsum's, bit for bit."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsum.exactsum import ExactSum, add_partial, group_fsum, merge_partials, round_partials

# Bounded so that no intermediate or final sum can overflow float64.
bounded_floats = st.floats(
    min_value=-1e290, max_value=1e290, allow_nan=False, allow_infinity=False
)
float_lists = st.lists(bounded_floats, max_size=80)


def expansion(values):
    partials: list[float] = []
    for v in values:
        add_partial(partials, v)
    return partials


def test_empty_rounds_to_zero():
    assert round_partials([]) == 0.0


def test_a_sum_too_large_for_a_float_rounds_to_nan():
    # Adding overflows a partial ([-inf, inf], then NaN partials), and a
    # merge's exact sum can exceed the largest float; neither may raise.
    for count in (2, 3):
        assert math.isnan(round_partials(expansion([1e308] * count)))
    assert math.isnan(round_partials([1e308, 1e308]))  # beyond the largest float
    # An overflowed expansion stays NaN, whatever is added after.
    assert math.isnan(round_partials(expansion([1e308, 1e308, -1e308])))
    sums = ExactSum(2)
    sums.add([("k", (1e308, 1.0)), ("k", (1e308, 2.0))])
    ((key, (big, small)),) = sums.report()
    assert key == "k" and math.isnan(big) and small == 3.0


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


def grouped(rows):
    total = ExactSum(2)
    total.add(rows)
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
    assert list(grouped(rows).report()) == reference(rows)


def test_report_is_rounded_once_and_sorted_by_key():
    total = ExactSum(1)
    total.add([("b", (1e16,)), ("a", (0.5,))])
    total.add([("b", (1.0,)), ("b", (-1e16,))])
    assert list(total.report()) == [("a", (0.5,)), ("b", (1.0,))]
    assert len(total) == 2


@given(keyed_rows, st.integers(0, 40), st.randoms(use_true_random=False))
def test_merge_in_any_order_matches_sequential(rows, cut_at, rng):
    cut = min(cut_at, len(rows))
    parts = [grouped(rows[:cut]), grouped(rows[cut:]), ExactSum(2)]
    rng.shuffle(parts)
    merged = ExactSum(2)
    for part in parts:
        merged.merge(part)
    assert list(merged.report()) == list(grouped(rows).report())


def test_merge_leaves_the_other_sum_unchanged():
    left, right = grouped([("a", (1.0, 2.0))]), grouped([("a", (0.25, 1e-20))])
    left.merge(right)
    left.add([("a", (1.0, 1.0))])
    assert list(right.report()) == [("a", (0.25, 1e-20))]
    assert list(left.report()) == [("a", (2.25, 3.0))]


def test_sums_of_different_widths_do_not_combine():
    with pytest.raises(ValueError):
        ExactSum(1).merge(ExactSum(2))


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
