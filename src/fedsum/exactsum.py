"""Error-free accumulation of float64 values: the package's one exact sum.

One algorithm sums exactly: Rump, Ogita and Oishi's error-free split
(:func:`_extract`, proved in :func:`group_fsum`) cuts each value into a
part on its group's power-of-two grid and a float remainder, so that
``np.bincount`` adds a group's grid parts without error.
:func:`group_fsum` gives one-shot grouped sums, ``math.fsum``'s bit for
bit, every group at once (:meth:`fedsum.model.DeviceSubtotals.cell_sums`).
:class:`ExactSum`, the shard cores' running sum, stages rows until a fold
splits them and the terms held into each cell's exact terms, which
``report`` rounds with :func:`group_fsum`: any order, batching, sharding
or merge tree of the same rows reports the same bits.  A cell reads NaN
iff its exact sum rounds beyond the floats; a cell whose float sum of
``|x|`` exceeds ``2**1000`` (infinite L1 bound only) is kept as a Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

__all__ = ["ExactSum", "group_fsum"]

# A group whose float sum of |x| is not at most this may overflow: unsplit.
_SPLIT_MAX = 2.0**1000
# The unit roundoff and the smallest subnormal of float64.
_UNIT_ROUNDOFF = 2.0**-53
_TINY = 2.0**-1074
# An ExactSum folds once this many staged values wait; not a setting.
_STAGE_MAX = 2**16


def _abs_sums(values: np.ndarray, group: np.ndarray, num_groups: int) -> np.ndarray:
    """Each group's float sum of ``|x|``."""
    return np.bincount(group, weights=np.abs(values), minlength=num_groups)


def _extract(
    values: np.ndarray, group: np.ndarray, norm: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(q, r)``: every value split as ``x = q + r`` exactly on the grid
    of its group's float sum of ``|x|``, ``norm`` (see :func:`group_fsum`)."""
    sigma = np.ldexp(1.0, np.frexp(norm)[1] + 2)[group]
    high = sigma + values
    high -= sigma
    return high, values - high


class ExactSum:
    """Grouped exact sums: per key, one exact sum per value column.

    Keys are ids, ints from 0; cell ``k * width + j`` is column ``j`` of
    key ``k``.  An update is its rows' keys and their values, ``width``
    per row in one flat sequence; callers validate them.  Rows wait, the
    keys in one list and the values in another, until the next fold: at
    ``report``, at ``merge``, and before more than ``_STAGE_MAX`` values
    would wait.  A key is present once a row of it is added, whatever
    its sums come to.
    """

    __slots__ = ("width", "_row_ids", "_staged", "_present", "_cells", "_terms", "_plain", "_wide")

    def __init__(self, width: int) -> None:
        self.width = width
        self._row_ids: list[int] = []
        self._staged: list[float] = []
        self._present = np.zeros(0, dtype=bool)  # keys given a row
        self._cells = np.zeros(0, dtype=np.intp)  # each term's cell
        self._terms = np.zeros(0)
        self._plain = np.zeros(0, dtype=bool)  # cells given a value other than -0.0
        self._wide: dict[int, Fraction] = {}  # cells not split: exact sums

    def add(self, keys: Sequence[int], values: Sequence[float]) -> None:
        """Stage one update: key ``keys[i]`` with ``values[i * width :
        (i + 1) * width]`` (both are copied)."""
        if len(self._staged) > _STAGE_MAX - len(values):
            self._fold()
        self._row_ids += keys
        self._staged += values

    def merge(self, other: "ExactSum", remap: Sequence[int] | None = None) -> None:
        """Fold ``other`` into this sum, its key ``k`` as key ``remap[k]``
        (as key ``k`` without ``remap``); ``other``'s value is left unchanged."""
        if other.width != self.width:
            raise ValueError(f"cannot merge width {other.width} into width {self.width}")
        if other._row_ids:
            other._fold()
        width, count = self.width, len(other._present)
        ids = np.arange(count) if remap is None else np.asarray(remap, dtype=np.intp)[:count]
        self._grow(int(ids.max(initial=-1)) + 1)
        self._present[ids[other._present]] = True
        cells = (ids[:, None] * width + np.arange(width)).ravel()
        self._plain[cells] |= other._plain
        self._cells = np.concatenate([self._cells, cells[other._cells]])
        self._terms = np.concatenate([self._terms, other._terms])
        for cell, total in other._wide.items():
            self._wide[int(cells[cell])] = self._wide.get(int(cells[cell]), 0) + total
        self._fold()

    def report(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sums, present)``: each key's correctly rounded sums, one row of
        ``width`` per key id, and whether the key is present.  A cell of
        only -0.0 reads -0.0, one whose sum is beyond the floats NaN."""
        if self._row_ids:
            self._fold()
        sums = group_fsum(self._terms, self._cells, len(self._plain))
        sums[~self._plain] = -0.0
        for cell, total in self._wide.items():
            try:
                sums[cell] = float(total)
            except OverflowError:
                sums[cell] = math.nan
        return sums.reshape(-1, self.width), self._present.copy()

    def _grow(self, num_keys: int) -> None:
        """Make room for keys below ``num_keys``."""
        if num_keys > len(self._present):
            self._present = np.pad(self._present, (0, num_keys - len(self._present)))
            self._plain = np.pad(self._plain, (0, num_keys * self.width - len(self._plain)))

    def _fold(self) -> None:
        """Split the staged values and the terms held into each cell's exact
        terms, one per level (a cell too wide to split into its Fraction):
        ``|r| <= 2**-53 sigma <= 2**-50 norm`` (group_fsum), so ``n`` values
        leave no remainder after about ``2100 / (50 - log2 n)`` levels."""
        width = self.width
        staged = np.fromiter(self._staged, np.float64, len(self._staged))
        staged_ids = np.fromiter(self._row_ids, np.intp, len(self._row_ids))
        self._staged.clear()
        self._row_ids.clear()
        self._grow(int(staged_ids.max(initial=-1)) + 1)
        self._present[staged_ids] = True
        num_cells = len(self._plain)
        staged_cells = (staged_ids[:, None] * width + np.arange(width)).ravel()
        self._plain[staged_cells[(staged != 0.0) | ~np.signbit(staged)]] = True
        values = np.concatenate([self._terms, staged])
        cells = np.concatenate([self._cells, staged_cells])
        with np.errstate(over="ignore"):
            norm = _abs_sums(values, cells, num_cells)
        wide = ~(norm <= _SPLIT_MAX)
        wide[list(self._wide)] = True
        if wide.any():
            moved = wide[cells]
            for cell, value in zip(cells[moved].tolist(), values[moved].tolist()):
                self._wide[cell] = self._wide.get(cell, 0) + Fraction(value)
            values, cells = values[~moved], cells[~moved]
            norm[wide] = 0.0
        terms, term_cells = [self._terms[:0]], [self._cells[:0]]
        while len(values):  # one level of the split
            high, low = _extract(values, cells, norm)
            total = np.bincount(cells, weights=high, minlength=num_cells)
            kept = np.flatnonzero(total)
            terms.append(total[kept])
            term_cells.append(kept)
            left = np.flatnonzero(low)
            values, cells = low[left], cells[left]
            norm = _abs_sums(values, cells, num_cells)
        self._terms = np.concatenate(terms)
        self._cells = np.concatenate(term_cells)


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(s, e)`` with ``s = fl(a + b)`` and ``a + b = s + e`` exactly
    (Knuth's TwoSum, exact barring overflow)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


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
        norm = _abs_sums(values, group, num_groups)
        q, r = _extract(values, group, norm)
        total = np.bincount(group, weights=q, minlength=num_groups)
        q, r = _extract(r, group, _abs_sums(r, group, num_groups))
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
