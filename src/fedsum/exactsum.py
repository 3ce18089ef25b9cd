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
round the same way in array passes, every cell at once
(:func:`group_fsum`, called by
:meth:`fedsum.model.DeviceSubtotals.cell_sums`): each group's result is
``math.fsum``'s, and ``math.fsum`` itself runs only for the groups that
the passes cannot certify.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Iterator, Sequence

import numpy as np

__all__ = ["ExactSum", "add_partial", "merge_partials", "round_partials", "group_fsum"]

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


# --------------------------------------------------------------------------
# One-shot grouped sums in array passes

# A group whose float sum of |x| is above this, or not finite, goes to
# ``math.fsum``: it may overflow, and fsum's exception must come out.
_SPLIT_MAX = 2.0**1000
# The unit roundoff and the smallest subnormal of float64.
_UNIT_ROUNDOFF = 2.0**-53
_TINY = 2.0**-1074


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s, e)`` with ``s = fl(a + b)`` and ``a + b = s + e`` exactly
    (Knuth's TwoSum, exact barring overflow)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _extract(
    values: np.ndarray, group: np.ndarray, num_groups: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(norm, q, r)``: each group's float sum of ``|x|``, and every value
    split as ``x = q + r`` on its group's grid (see :func:`group_fsum`)."""
    norm = np.bincount(group, weights=np.abs(values), minlength=num_groups)
    sigma = np.ldexp(1.0, np.frexp(norm)[1] + 2)[group]
    high = sigma + values
    high -= sigma
    return norm, high, values - high


def group_fsum(values: np.ndarray, group: np.ndarray, num_groups: int) -> np.ndarray:
    """Per group ``g < num_groups``, ``math.fsum`` of the values whose
    ``group`` is ``g``, in their order, bit for bit; an empty group is 0.0.

    The groups are summed in array passes (``np.bincount``), after Rump,
    Ogita and Oishi ("Accurate Floating-Point Summation Part I",
    ``ExtractVector``, SIAM J. Sci. Comput. 2008) and Ogita, Rump and
    Oishi ("Accurate Sum and Dot Product", 2005, ``TwoSum``).  A group
    is handed to ``math.fsum`` (in input order, so that an infinity, a
    NaN, ``inf - inf``'s ``ValueError`` and an intermediate overflow's
    ``OverflowError`` come out as fsum's) when its float sum of ``|x|``
    is not finite or is above ``2**1000``, when its values are all zero
    (fsum decides the sign), or when the certificate below fails.  The
    proof holds for fewer than ``2**49`` values; ``u = 2**-53``.

    *Split.*  With ``a`` a group's float sum of ``|x|`` and ``a < 2**E``
    (``np.frexp``), let ``sigma = 2**(E + 2)``.  Adding ``n`` nonnegative
    values in any order, ``a >= (1 - (n - 1) u) A`` for the exact sum
    ``A`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., section 4.2; a subnormal sum is exact), so ``sigma > 4 a >=
    2 A`` and every ``|x| <= sigma / 2``.  Take ``q = fl(fl(sigma + x) -
    sigma)`` and ``r = fl(x - q)``.  ``fl(sigma + x)`` lies in ``[sigma /
    2, 3 sigma / 2]``, so the subtraction is exact (Sterbenz), and ``q``
    is a multiple of ``v``, the spacing of the floats in ``[sigma / 2,
    sigma)`` (``2**-53 sigma``, or ``2**-1074`` if larger), as ``sigma``
    is.  ``x - q`` is the rounding error of ``sigma + x``, a float, so
    ``x = q + r`` exactly and ``|r| <= 2**-53 sigma``.  Every partial sum
    of the group's ``q`` is a multiple of ``v`` no larger than ``sum |x|
    + n 2**-53 sigma <= sigma``, hence a float (at most ``2**53`` times
    ``v``, or below ``2**-1021``): ``np.bincount`` sums the
    ``q`` to ``T`` exactly, in any order.  The ``r`` are split the same
    way, into an exact ``T2`` and remainders ``r2``; the group's exact
    sum is ``S = T + T2 + rho`` with ``rho`` the exact sum of its
    ``r2``.  The split is exact at any magnitude, subnormals included.

    *Rounding.*  Where a group's ``r2`` are all zero, ``S = T + T2``, and
    IEEE addition rounds it correctly, to nearest and ties to even, as
    ``math.fsum`` does.  Otherwise let ``t`` and ``m`` be the float sums of
    the group's nonzero ``r2`` and of their ``|r2|``, ``k`` the count of
    nonzero ``r2`` in all groups, ``s, e = TwoSum(T, T2)``, ``c, g =
    TwoSum(e, t)`` and ``res, f = TwoSum(s, c)``.  Then ``S - res = f + g
    + (rho - t)`` exactly.  Since float addition errs by at most ``u``
    times its result and never underflows, ``|rho - t| <= 2 (k - 1) u m``
    (Higham again, with ``sum |r2| <= m / (1 - (k - 1) u)``), and
    ``delta = fl(fl(m * 4 k u) + 2**-1074)`` is at least that: the
    product errs by a relative ``u``, or, subnormal, by at most
    ``2**-1075``, which the added ``2**-1074`` then covers exactly.  With
    ``h+`` and ``h-`` half the gaps from ``res`` to its neighbours
    (``np.nextafter``; halving a gap of ``2**-1074`` gives 0, which only
    tightens the test), ``res`` is certified when ``fl(h+ - f)`` and
    ``fl(h- + f)`` both exceed ``M = 2 fl(|g| + delta)``.  Each computed
    value is within a relative ``u`` of its exact result (addition never
    underflows), so ``h+ - f >= fl(h+ - f) / (1 + u) > M / (1 + u) >= 2
    (1 - u) (|g| + delta) / (1 + u) >= |g| + delta``, and likewise ``h- +
    f > |g| + delta``: ``S`` lies strictly inside the interval of reals
    that round to ``res``, so ``res`` is ``math.fsum``'s answer.  No
    operation overflows: ``a <= 2**1000`` keeps every value, partial sum
    and ``sigma`` far below the largest float.
    """
    values = np.asarray(values, dtype=np.float64)
    group = np.asarray(group, dtype=np.intp)
    if not len(values):  # np.bincount would return integers
        return np.zeros(num_groups)
    with np.errstate(over="ignore", invalid="ignore"):  # in groups fsum sums
        norm, q, r = _extract(values, group, num_groups)
        total = np.bincount(group, weights=q, minlength=num_groups)
        _, q, r = _extract(r, group, num_groups)
        total2 = np.bincount(group, weights=q, minlength=num_groups)
        del q
        out = total + total2
        fallback = ~(norm <= _SPLIT_MAX)
        zero = norm == 0.0
        if zero.any():
            fallback |= zero & (np.bincount(group, minlength=num_groups) > 0)
        left = np.flatnonzero(r)
        if len(left):
            tail_group = group[left]
            tail = np.bincount(tail_group, weights=r[left], minlength=num_groups)
            size = np.bincount(tail_group, weights=np.abs(r[left]), minlength=num_groups)
            undecided = np.flatnonzero((size > 0.0) & ~fallback)
            delta = size[undecided] * (4.0 * len(left) * _UNIT_ROUNDOFF) + _TINY
            s, e = _two_sum(total[undecided], total2[undecided])
            c, g = _two_sum(e, tail[undecided])
            res, f = _two_sum(s, c)
            margin = 2.0 * (np.abs(g) + delta)
            certified = ((np.nextafter(res, math.inf) - res) * 0.5 - f > margin) & (
                (res - np.nextafter(res, -math.inf)) * 0.5 + f > margin
            )
            out[undecided] = res
            fallback[undecided[~certified]] = True
    todo = np.flatnonzero(fallback)
    if len(todo):
        rows = np.flatnonzero(fallback[group])
        rows = rows[np.argsort(group[rows], kind="stable")]
        ends = np.searchsorted(group[rows], todo, side="right").tolist()
        column = values[rows].tolist()
        for g, lo, hi in zip(todo.tolist(), [0, *ends], ends):
            out[g] = math.fsum(column[lo:hi])
    return out
