"""Ephemeral grouped-sum aggregation core.

A core holds the running grouped sums for one aggregation session, per
string group key one exact sum per value column
(:class:`fedsum.exactsum.ExactSum`), plus a count of contributing
updates.  Cores support exactly three operations — accumulate, merge,
report — and report consumes the core.  An update's rows wait in a core
only until its next fold: at merge, at report, once 2**16 values wait,
and at ``serialize_state``, so every checkpoint, roll-up and seal leaves
each cell's exact terms and no device's rows.  Any way of sharding
updates across cores and merging them yields a bit-identical state; a
cell whose exact sum rounds beyond the floats reads NaN, whatever the
sharding.  Whether a window may be released is the server's decision.
A core sums rows that its caller has checked.  :func:`check_rows` is
the check of an update's shape and values; the server runs it once per
upload, before any core sees the rows, so a refused update leaves every
core untouched.  It tests a finite float with one comparison and looks
closely only at other values.  The wire format packs each row's values
with one precompiled ``struct.Struct`` per row width.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from typing import Any, Sequence

from .exactsum import ExactSum

__all__ = [
    "AggCoreConfig",
    "ClientUpdate",
    "MalformedUpdateError",
    "CoreConsumedError",
    "AggregationCore",
    "encode_payload",
    "decode_payload",
    "check_rows",
    "KEY_SEPARATOR",
]

# Group-key tuples are serialized to strings with this separator (the
# ASCII unit separator, which cannot appear in well-formed key parts).
KEY_SEPARATOR = "\x1f"

Rows = list[tuple[str, tuple[float, ...]]]


class MalformedUpdateError(ValueError):
    """An update failed validation; the core state was not modified."""


class CoreConsumedError(RuntimeError):
    """An operation was attempted on a core that was already reported."""


@dataclass(frozen=True)
class AggCoreConfig:
    """Static configuration of a core: its key and value columns."""

    key_columns: tuple[str, ...]
    value_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.value_columns:
            raise ValueError("at least one value column is required")


@dataclass(frozen=True)
class ClientUpdate:
    """One device's grouped rows for one (query, window)."""

    query_id: str
    window_id: str
    token: str
    rows: tuple[tuple[str, tuple[float, ...]], ...]

    def encode(self) -> bytes:
        return encode_payload(self.rows)


def _finite_number(value: Any) -> bool:
    """Whether ``value`` is an int or a float, not a bool, of finite float value."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def check_rows(rows: Any, width: int) -> None:
    """Refuse an update that is not a list or tuple of ``(key, values)``
    pairs, each a string key and a list or tuple of ``width`` finite ints
    or floats, not bools: the first thing that is not raises
    ``MalformedUpdateError``."""
    if not isinstance(rows, (list, tuple)):
        raise MalformedUpdateError(f"rows must be a list or tuple, got {rows!r}")
    for row in rows:
        try:
            key, values = row
        except (TypeError, ValueError):
            raise MalformedUpdateError(f"row is not a (key, values) pair: {row!r}") from None
        if not isinstance(key, str):
            raise MalformedUpdateError(f"key must be a string, got {type(key).__name__}")
        if not isinstance(values, (list, tuple)) or len(values) != width:
            raise MalformedUpdateError(
                f"row for key {key!r} must carry {width} values; got {values!r}"
            )
        for v in values:
            # A finite float passes the first test; anything else is looked at closely.
            if (type(v) is not float or v - v != 0.0) and not _finite_number(v):
                raise MalformedUpdateError(
                    f"non-finite or non-numeric value {v!r} for key {key!r}"
                )


class AggregationCore:
    """Mergeable grouped-sum state for one session (or one shard of it)."""

    __slots__ = ("config", "contribution_count", "_sum", "_consumed")

    def __init__(self, config: AggCoreConfig) -> None:
        self.config = config
        self.contribution_count = 0
        self._sum = ExactSum(len(config.value_columns))
        self._consumed = False

    # -- operations ----------------------------------------------------

    def accumulate(self, rows: Rows) -> None:
        """Add one device update whose rows the caller has checked
        (:func:`check_rows`), count +1."""
        self._check_live()
        self._sum.add(rows)
        self.contribution_count += 1

    def merge(self, other: "AggregationCore") -> None:
        """Fold another core into this one; the other core is consumed."""
        self._check_live()
        other._check_live()
        if other.config != self.config:
            raise ValueError("cannot merge cores with different configs")
        self._sum.merge(other._sum)
        self.contribution_count += other.contribution_count
        other._consume()

    def report(self) -> dict[str, tuple[float, ...]]:
        """Final grouped sums; consumes the core.

        Values are the correctly rounded exact sums, keyed in
        insertion-independent (sorted) order.
        """
        self._check_live()
        result = dict(self._sum.report())
        self._consume()
        return result

    # -- snapshots -------------------------------------------------------

    def serialize_state(self) -> bytes:
        """Canonical bytes of the observable state (for digests/tests).

        Sorted keys; per key one correctly rounded float64 per column;
        then the contribution count.  Two cores that accumulated the same
        multiset of updates serialize identically regardless of merge
        structure.
        """
        self._check_live()
        out = bytearray()
        out += struct.pack("<I", len(self._sum))
        for key, values in self._sum.report():
            kb = key.encode("utf-8")
            out += struct.pack("<I", len(kb))
            out += kb
            out += _float64s(len(values)).pack(*values)
        out += struct.pack("<q", self.contribution_count)
        return bytes(out)

    def state_digest(self) -> str:
        return blake2b(self.serialize_state(), digest_size=16).hexdigest()

    def _check_live(self) -> None:
        if self._consumed:
            raise CoreConsumedError("aggregation core was already consumed")

    def _consume(self) -> None:
        self._sum = ExactSum(self._sum.width)
        self._consumed = True


# --------------------------------------------------------------------------
# Payload wire format
#
# varint row count; per row: varint key length, UTF-8 key bytes, then one
# little-endian float64 per value column.


def _write_varint(out: bytearray, n: int) -> None:
    if n < 0:
        raise ValueError("varint must be non-negative")
    while True:
        byte = n & 0x7F
        n >>= 7
        if n:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise MalformedUpdateError("truncated varint in payload")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise MalformedUpdateError("varint too long in payload")


@lru_cache(maxsize=None)
def _float64s(count: int) -> struct.Struct:
    """The packer of ``count`` little-endian float64s."""
    return struct.Struct(f"<{count}d")


# Row key -> its varint length and UTF-8 bytes.  A run encodes a few
# hundred keys thousands of times; the cache is emptied whenever it
# reaches the bound, so arbitrary keys cannot grow it.
_KEY_PREFIXES_MAX = 4096
_key_prefixes: dict[str, bytes] = {}


def _key_prefix(key: str) -> bytes:
    kb = key.encode("utf-8")
    out = bytearray()
    _write_varint(out, len(kb))
    return bytes(out + kb)


def encode_payload(rows: Sequence[tuple[str, Sequence[float]]]) -> bytes:
    """Serialize rows; every row must have the same number of values."""
    out = bytearray()
    _write_varint(out, len(rows))
    ncols = len(rows[0][1]) if rows else 0
    pack = _float64s(ncols).pack
    prefixes = _key_prefixes
    for key, values in rows:
        if len(values) != ncols:
            raise MalformedUpdateError("ragged rows in payload")
        prefix = prefixes.get(key)
        if prefix is None:
            prefix = _key_prefix(key)
            if len(prefixes) >= _KEY_PREFIXES_MAX:
                prefixes.clear()
            prefixes[key] = prefix
        out += prefix
        out += pack(*values)
    return bytes(out)


def decode_payload(data: bytes, num_value_columns: int) -> Rows:
    count, offset = _read_varint(data, 0)
    rows: Rows = []
    width = 8 * num_value_columns
    for _ in range(count):
        klen, offset = _read_varint(data, offset)
        if offset + klen + width > len(data):
            raise MalformedUpdateError("truncated payload row")
        try:
            key = data[offset : offset + klen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedUpdateError(f"invalid UTF-8 in key: {exc}") from None
        offset += klen
        values = _float64s(num_value_columns).unpack_from(data, offset)
        offset += width
        rows.append((key, values))
    if offset != len(data):
        raise MalformedUpdateError("trailing bytes after payload rows")
    return rows
