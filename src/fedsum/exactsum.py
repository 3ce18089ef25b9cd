"""Error-free accumulation of float64 values: the package's one exact sum.

Running sums are kept as lists of non-overlapping partials (Shewchuk's
expansion representation, the same scheme ``math.fsum`` uses internally).
The partials represent the *exact* real-valued sum of everything added so
far, so accumulation is associative and commutative: any grouping of the
same inputs yields the same exact value, and rounding that value to a
single float64 at the end is deterministic.  This is what makes merged
aggregates reproducible regardless of how work was batched or which order
partial results arrived in.  :class:`ExactSum` is the package's only
running exact accumulator: shard cores and partials key it by string,
and the server decodes a session's rounded report into one dense array
of cell sums.  A device block's one-shot sums (the prepared pre-noise
aggregate and a window truth's workload, ``metrics.exact_workload``)
round the same way, one ``math.fsum`` per cell, into the same kind of
array (:meth:`fedsum.model.DeviceSubtotals.cell_sums`).
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Iterator, Sequence

__all__ = ["ExactSum", "add_partial", "merge_partials", "round_partials"]

Row = tuple[Hashable, Sequence[float]]


def add_partial(partials: list[float], x: float) -> None:
    """Add ``x`` into an expansion in place, preserving the exact sum.

    ``partials`` remains a list of non-overlapping floats sorted by
    increasing magnitude whose exact sum equals the old exact sum plus
    ``x``.  Typical lists stay 1-3 elements long for well-scaled data.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def merge_partials(dst: list[float], src: list[float]) -> None:
    """Fold another expansion into ``dst`` in place (exact)."""
    for x in src:
        add_partial(dst, x)


def round_partials(partials: list[float]) -> float:
    """Collapse an expansion to the correctly rounded float64 sum.

    An expansion that overflowed while values were added (it then holds
    an infinity or a NaN, whatever is added after), or whose partials sum
    beyond the largest float, rounds to NaN: it has no float value.
    """
    if not partials:
        return 0.0
    if len(partials) == 1:
        total = partials[0]
    else:
        try:
            total = math.fsum(partials)
        except (OverflowError, ValueError):  # an overflowed sum, or -inf + inf
            return math.nan
    return total if math.isfinite(total) else math.nan


class ExactSum:
    """Grouped exact sums: per key, one expansion per value column.

    Keys are hashable and mutually orderable.  Rows are ``(key, values)``
    with ``width`` numbers each; callers validate them.
    """

    __slots__ = ("width", "_cells")

    def __init__(self, width: int) -> None:
        self.width = width
        self._cells: dict[Hashable, list[list[float]]] = {}

    def add(self, rows: Iterable[Row]) -> None:
        """Add every row of one update."""
        cells = self._cells
        for key, values in rows:
            cell = cells.get(key)
            if cell is None:
                cells[key] = [[float(v)] for v in values]
                continue
            i = 0
            for v in values:
                partials = cell[i]
                i += 1
                if len(partials) == 1:
                    # Two-sum, inlined for the common one-partial case.
                    x = float(v)
                    y = partials[0]
                    if abs(x) < abs(y):
                        x, y = y, x
                    hi = x + y
                    lo = y - (hi - x)
                    if lo:
                        partials[0] = lo
                        partials.append(hi)
                    else:
                        partials[0] = hi
                else:
                    add_partial(partials, float(v))

    def merge(self, other: "ExactSum") -> None:
        """Fold ``other`` into this sum; ``other`` is left unchanged."""
        if other.width != self.width:
            raise ValueError(f"cannot merge width {other.width} into width {self.width}")
        cells = self._cells
        for key, theirs in other._cells.items():
            mine = cells.get(key)
            if mine is None:
                cells[key] = [list(p) for p in theirs]
            else:
                for dst, src in zip(mine, theirs):
                    merge_partials(dst, src)

    def report(self) -> Iterator[tuple[Hashable, tuple[float, ...]]]:
        """Correctly rounded sums per key in sorted key order, made as read."""
        cells = self._cells
        return ((key, tuple(map(round_partials, cells[key]))) for key in sorted(cells))

    def __len__(self) -> int:
        return len(self._cells)
