"""Civil-time windows: rounding, identifiers, and adjacency."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsum.windows import TimeWindow, WindowAlignment, round_down_window, window_after

from helpers import START, WEEK, iso_week_id, utc_ts

instants = st.integers(min_value=utc_ts(2001, 1, 1), max_value=utc_ts(2090, 1, 1))
alignments = st.sampled_from(list(WindowAlignment))


def test_midweek_instant_rounds_to_monday():
    t = utc_ts(2024, 5, 15, 13)  # Wednesday afternoon
    window = round_down_window(t, WindowAlignment.WEEK)
    assert window.start == utc_ts(2024, 5, 13)
    assert window.end == utc_ts(2024, 5, 20)
    assert window.window_id == "2024-W20"
    assert window.window_id == iso_week_id(t)


def test_week_boundary_is_a_fixed_point():
    monday = utc_ts(2024, 5, 13)
    window = round_down_window(monday, WindowAlignment.WEEK)
    assert window.start == monday


def test_day_window_id_is_calendar_date():
    t = utc_ts(2024, 1, 1, 23, 59)
    window = round_down_window(t, WindowAlignment.DAY)
    assert window.window_id == "2024-01-01"
    assert window.start == utc_ts(2024, 1, 1)
    assert window.end == utc_ts(2024, 1, 2)


def test_month_window_spans_calendar_month():
    window = round_down_window(utc_ts(2024, 12, 15, 6), WindowAlignment.MONTH)
    assert window.window_id == "2024-12"
    assert window.start == utc_ts(2024, 12, 1)
    assert window.end == utc_ts(2025, 1, 1)


def test_iso_week_year_straddles_new_year():
    # Monday 2024-12-30 belongs to ISO week 1 of 2025.
    t = utc_ts(2024, 12, 30, 5)
    window = round_down_window(t, WindowAlignment.WEEK)
    assert window.window_id == "2025-W01"
    assert window.window_id == iso_week_id(t)
    # And Sunday 2023-01-01 still belongs to ISO week 52 of 2022.
    t = utc_ts(2023, 1, 1, 12)
    window = round_down_window(t, WindowAlignment.WEEK)
    assert window.window_id == "2022-W52"
    assert window.window_id == iso_week_id(t)


@given(instants)
def test_week_ids_always_match_calendar_library(t):
    window = round_down_window(t, WindowAlignment.WEEK)
    assert window.window_id == iso_week_id(t)
    assert window.window_id == iso_week_id(window.start)


@given(instants, alignments)
def test_rounding_is_idempotent(t, alignment):
    window = round_down_window(t, alignment)
    again = round_down_window(window.start, alignment)
    assert again == window


@given(instants, alignments)
def test_window_contains_its_instant(t, alignment):
    window = round_down_window(t, alignment)
    assert window.start <= t < window.end


@given(instants, alignments, st.integers(min_value=0, max_value=10**6))
def test_all_instants_in_a_window_share_it(t, alignment, offset):
    window = round_down_window(t, alignment)
    other = window.start + offset % (window.end - window.start)
    assert round_down_window(other, alignment) == window


@given(instants, alignments)
def test_window_after_is_adjacent(t, alignment):
    window = round_down_window(t, alignment)
    nxt = window_after(window, alignment)
    assert nxt.start == window.end
    assert nxt.end > nxt.start


@given(st.integers(min_value=0, max_value=3000))
def test_consecutive_weeks_stay_seven_days(k):
    t = START + k * WEEK
    window = round_down_window(t, WindowAlignment.WEEK)
    assert window.start == t
    assert window.end - window.start == WEEK


def test_alignment_parse_accepts_names_and_values():
    assert WindowAlignment.parse("WEEK") is WindowAlignment.WEEK
    assert WindowAlignment.parse("week") is WindowAlignment.WEEK
    assert WindowAlignment.parse(" day ") is WindowAlignment.DAY
    assert (
        WindowAlignment.parse("ROUND_DOWN_TO_CIVIL_MONTH")
        is WindowAlignment.MONTH
    )
    with pytest.raises(ValueError):
        WindowAlignment.parse("fortnight")


def test_time_window_validates_ordering():
    with pytest.raises(ValueError):
        TimeWindow(start=10, end=10, window_id="empty")
