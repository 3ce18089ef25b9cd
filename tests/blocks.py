"""Test-side builders and readers of device blocks.

A :class:`fedsum.model.DeviceSubtotals` block is what calibration, the
device transform and the pre-noise sum take.  Unit tests state devices as
hand-written histograms; these helpers turn them into a block and read
blocks back per device, with plain loops.  Cell sums, truths and device
counts are dense arrays; ``dense_of``, ``sparse_of`` and ``counts_of``
convert between them and the dicts tests write by hand.
"""

from __future__ import annotations

import math

import numpy as np

from fedsum.model import DeviceSubtotals, IndexedHistogram

from helpers import ExpansionSum


def block_of(schema, histograms) -> DeviceSubtotals:
    """One block holding ``histograms[i]`` as device ``i``'s rows.

    Each histogram is a dict of cells or an :class:`IndexedHistogram`.
    A device's partitions are made in the order its histogram first holds
    them (a dict's insertion order, a histogram's canonical order), which
    calibration's slice norms add in.  An empty histogram has no rows.
    """
    num_metrics = schema.num_metrics
    rows: dict[tuple[int, int, int, int], list] = {}
    position = 0
    for device, h in enumerate(histograms):
        for (a, m, r, d), value in h.items():
            row = rows.setdefault((device, a, r, d), [0.0] * num_metrics + [position])
            row[m] = value
            position += 1
    keys = sorted(rows)
    index = np.array(keys, dtype=np.int64).reshape(len(keys), 4).T
    cells = np.array([rows[k] for k in keys], dtype=np.float64)
    cells = cells.reshape(len(keys), num_metrics + 1)
    return DeviceSubtotals(
        *index, sums=cells[:, :-1], made_at=cells[:, -1].astype(np.int64)
    )


def rows_of(block: DeviceSubtotals, keep) -> DeviceSubtotals:
    """The block's rows at the boolean mask or index array ``keep``."""
    return DeviceSubtotals(*(column[keep] for column in block))


def devices_of(block: DeviceSubtotals) -> list[int]:
    """The ids of the devices holding rows, in increasing order."""
    return sorted(set(block.device.tolist()))


def histograms_of(block: DeviceSubtotals, schema) -> list[IndexedHistogram]:
    """Each device's histogram, read off its rows, in device order."""
    out = []
    for device in devices_of(block):
        h = IndexedHistogram(schema)
        for k in np.flatnonzero(block.device == device).tolist():
            for m, value in enumerate(block.sums[k].tolist()):
                if value:
                    index = (
                        int(block.activity[k]),
                        m,
                        int(block.region[k]),
                        int(block.direction[k]),
                    )
                    h[index] = value
        out.append(h)
    return out


def cell_order(block: DeviceSubtotals) -> list[list[tuple[int, int, int, int]]]:
    """Each device's nonzero cells in the order it made them (``made_at``)."""
    out = []
    for device in devices_of(block):
        cells = []
        for k in np.flatnonzero(block.device == device).tolist():
            for m, value in enumerate(block.sums[k].tolist()):
                if value:
                    made = int(block.made_at[k])
                    index = (
                        int(block.activity[k]),
                        m,
                        int(block.region[k]),
                        int(block.direction[k]),
                    )
                    cells.append((made, m, index))
        out.append([index for _, _, index in sorted(cells)])
    return out


def concat(*blocks: DeviceSubtotals) -> DeviceSubtotals:
    """The blocks' rows one after another; device ids must not overlap."""
    return DeviceSubtotals(*(np.concatenate(columns) for columns in zip(*blocks)))


def renumbered(block: DeviceSubtotals, device: int) -> DeviceSubtotals:
    """A one-device block's rows as device ``device``'s."""
    return block._replace(device=np.full(len(block.device), device, dtype=np.int64))


def exact_sum(schema, histograms) -> IndexedHistogram:
    """The histograms summed exactly and rounded once per cell (the
    expansion oracle, ``helpers.ExpansionSum``)."""
    total, ids = ExpansionSum(1), {}
    for h in histograms:
        entries = list(h.items())
        keys = [ids.setdefault(index, len(ids)) for index, _ in entries]
        total.add(keys, [v for _, v in entries])
    sums, _ = total.report()
    return IndexedHistogram(schema, ((index, float(sums[k, 0])) for index, k in ids.items()))


def dense_of(schema, cells) -> np.ndarray:
    """The schema-shaped array holding ``cells`` (a dict or histogram)."""
    out = np.zeros(schema.shape)
    for index, value in cells.items():
        out[index] = value
    return out


def sparse_of(values: np.ndarray) -> dict[tuple[int, int, int, int], float]:
    """An array's nonzero cells, in canonical order."""
    return {
        tuple(index): value
        for index, value in zip(np.argwhere(values).tolist(), values[values != 0].tolist())
    }


def counts_of(schema, counts) -> np.ndarray:
    """The ``(activity, region, direction)`` array of a dict of device counts."""
    num_activities, _, num_regions, num_directions = schema.shape
    out = np.zeros((num_activities, num_regions, num_directions), dtype=np.int64)
    for partition, count in counts.items():
        out[partition] = count
    return out


def l1_norm(cells) -> float:
    """The exactly rounded sum of ``|v|`` over a dict's or histogram's cells."""
    return math.fsum(abs(value) for _, value in cells.items())
