"""Civil-time windows: rounding instants down to day/week/month boundaries.

All calendar math is UTC.  Weeks are ISO weeks (Monday 00:00), and week
window ids use ISO year-week form like ``2024-W20``; day windows use ISO
dates and month windows ``YYYY-MM``.  Instants are integer UTC seconds.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

__all__ = ["WindowAlignment", "TimeWindow", "round_down_window", "window_after"]

_UTC = timezone.utc


class WindowAlignment(enum.Enum):
    """Supported rounding granularities for the privacy time unit."""

    DAY = "ROUND_DOWN_TO_CIVIL_DAY"
    WEEK = "ROUND_DOWN_TO_CIVIL_WEEK"
    MONTH = "ROUND_DOWN_TO_CIVIL_MONTH"

    @classmethod
    def parse(cls, text: str) -> "WindowAlignment":
        normalized = text.strip().upper()
        for member in cls:
            if normalized in (member.name, member.value):
                return member
        raise ValueError(f"unknown window alignment: {text!r}")


@dataclass(frozen=True, order=True)
class TimeWindow:
    """Half-open interval [start, end) in UTC seconds with a civil id."""

    start: int
    end: int
    window_id: str

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"window {self.window_id!r} must end after it starts"
            )


def _to_datetime(instant: int) -> datetime:
    return datetime.fromtimestamp(instant, tz=_UTC)


def _to_seconds(dt: datetime) -> int:
    return int(dt.timestamp())


@functools.lru_cache(maxsize=4096)
def round_down_window(instant: int, alignment: WindowAlignment) -> TimeWindow:
    """The civil window containing ``instant`` under ``alignment``.

    Day and week windows have fixed spans (24h, 7d); month windows span
    the calendar month.  The mapping is idempotent: every instant inside
    the returned window rounds down to the same window.  Results are
    cached per (instant, alignment): the per-device reference model
    (``client.DeviceState``) asks for the same clock tick once per
    waking device.
    """
    dt = _to_datetime(instant)
    if alignment is WindowAlignment.DAY:
        start_dt = dt.replace(hour=0, minute=0, second=0, microsecond=0)
        end_dt = start_dt + timedelta(days=1)
        window_id = start_dt.date().isoformat()
    elif alignment is WindowAlignment.WEEK:
        day_start = dt.replace(hour=0, minute=0, second=0, microsecond=0)
        start_dt = day_start - timedelta(days=dt.weekday())
        end_dt = start_dt + timedelta(days=7)
        iso = start_dt.isocalendar()
        window_id = f"{iso[0]}-W{iso[1]:02d}"
    elif alignment is WindowAlignment.MONTH:
        start_dt = dt.replace(day=1, hour=0, minute=0, second=0, microsecond=0)
        if start_dt.month == 12:
            end_dt = start_dt.replace(year=start_dt.year + 1, month=1)
        else:
            end_dt = start_dt.replace(month=start_dt.month + 1)
        window_id = f"{start_dt.year:04d}-{start_dt.month:02d}"
    else:  # pragma: no cover - exhaustive over enum
        raise ValueError(f"unsupported alignment {alignment}")
    return TimeWindow(_to_seconds(start_dt), _to_seconds(end_dt), window_id)


def window_after(window: TimeWindow, alignment: WindowAlignment) -> TimeWindow:
    """The next consecutive civil window."""
    return round_down_window(window.end, alignment)
