"""Ephemeral grouped-sum aggregation core and the upload wire.

A core holds the running grouped sums for one aggregation session, per
group key one exact sum per value column
(:class:`fedsum.exactsum.ExactSum`), plus a count of contributing
updates.  A core accumulates updates, merges another core in (which
consumes that core) and reads out its sums (``present_rows``).  An
update's rows wait in a core only until its next fold: at merge, at a
read, once 2**16 values wait, and at ``serialize_state``, so every
checkpoint, roll-up and seal leaves each cell's exact terms and no
device's rows.  Any way of sharding updates across cores and merging
them yields a bit-identical state; a cell whose exact sum rounds beyond
the floats reads NaN, whatever the sharding.  A core's keys are ids
that its :class:`KeyTable` names; a session's cores share one table,
the window's row keys at their flat partition indexes, so an upload's
key indexes go into a core as they are.

An upload travels as fixed-width records (:class:`Wire`), read by
:func:`decode_payload`, the one reader, with C-level builtins only; the
server reads each upload before any core sees it, so a refused update
leaves every core untouched.  An upload given as ``(key, values)`` rows
is first written into the same bytes (:func:`encode_payload`, the adapter).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from hashlib import blake2b
from operator import itemgetter, lt
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .exactsum import ExactSum

__all__ = [
    "AggCoreConfig",
    "ClientUpdate",
    "MalformedUpdateError",
    "CoreConsumedError",
    "AggregationCore",
    "KeyTable",
    "Wire",
    "encode_payload",
    "decode_payload",
    "KEY_SEPARATOR",
]

# Group-key tuples are serialized to strings with this separator (the
# ASCII unit separator, which cannot appear in well-formed key parts).
KEY_SEPARATOR = "\x1f"

_LENGTH = struct.Struct("<I")
_COUNT = struct.Struct("<q")


class MalformedUpdateError(ValueError):
    """An update failed validation; the core state was not modified."""


class CoreConsumedError(RuntimeError):
    """An operation was attempted on a core that was already merged into another."""


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
    """One device's upload for one (query, window): its payload bytes
    (:class:`Wire`), or its ``(key, values)`` rows, which the server
    writes into the same bytes first (:func:`encode_payload`)."""

    query_id: str
    window_id: str
    token: str
    payload: bytes | tuple[tuple[str, tuple[float, ...]], ...]


class KeyTable:
    """A core's group keys: key ``k`` is named ``names[k]``.

    A session's table names the window's row keys at their flat
    partition indexes and is shared by the session's cores.  A core made
    without one starts an empty table, which its ``(key, values)`` rows'
    keys extend.  A key's length-prefixed UTF-8 name is made as it joins.
    """

    __slots__ = ("names", "ids", "heads", "_order")

    def __init__(self, names: Iterable[str] = ()) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}  # name -> id
        self.heads: list[bytes] = []  # id -> length-prefixed name
        self._order = np.zeros(0, dtype=np.intp)
        self.ids_of(list(names))

    def ids_of(self, keys: Sequence[str]) -> list[int]:
        """Each key's id; a key not in the table joins it."""
        ids, out = self.ids, []
        for key in keys:
            k = ids.get(key)
            if k is None:
                k = ids[key] = len(self.names)
                self.names.append(key)
                name = key.encode("utf-8")
                self.heads.append(_LENGTH.pack(len(name)) + name)
            out.append(k)
        return out

    def order(self) -> np.ndarray:
        """The key ids, sorted by name; worked out again only once keys join."""
        if len(self._order) != len(self.names):
            names = self.names
            self._order = np.array(sorted(range(len(names)), key=names.__getitem__), dtype=np.intp)
        return self._order


class AggregationCore:
    """Mergeable grouped-sum state for one session (or one shard of it)."""

    __slots__ = ("config", "keys", "contribution_count", "_sum", "_consumed")

    def __init__(self, config: AggCoreConfig, keys: KeyTable | None = None) -> None:
        self.config = config
        self.keys = KeyTable() if keys is None else keys
        self.contribution_count = 0
        self._sum = ExactSum(len(config.value_columns))
        self._consumed = False

    # -- operations ----------------------------------------------------

    def accumulate(self, keys: Sequence[Any], values: Sequence[float] | None = None) -> None:
        """Add one device update that its caller has checked, count +1: its
        rows' key ids and their values, flat, as :func:`decode_payload`
        reads them; or (the adapter of updates given as rows) a sequence
        of ``(key, values)`` pairs, whose keys join the core's table."""
        self._check_live()
        if values is None:  # pairs, in one pass
            ids, rows, keys, values = self.keys.ids, keys, [], []
            for key, row in rows:
                k = ids.get(key)
                keys.append(self.keys.ids_of([key])[0] if k is None else k)
                values += row
        self._sum.add(keys, values)
        self.contribution_count += 1

    def merge(self, other: "AggregationCore") -> None:
        """Fold another core into this one; the other core is consumed."""
        self._check_live()
        other._check_live()
        if other.config != self.config:
            raise ValueError("cannot merge cores with different configs")
        remap = None if other.keys is self.keys else self.keys.ids_of(other.keys.names)
        self._sum.merge(other._sum, remap)
        self.contribution_count += other.contribution_count
        other._consume()

    # -- snapshots -------------------------------------------------------

    def serialize_state(self) -> bytes:
        """Canonical bytes of the observable state (for digests/tests): the
        key count; per key in name order its length-prefixed name and its
        correctly rounded float64s, all put in place by one array write;
        the contribution count.  Cores that accumulated the same multiset
        of updates serialize identically regardless of merge structure."""
        ids, sums = self.present_rows()
        heads = list(map(self.keys.heads.__getitem__, ids.tolist()))
        row = 8 * sums.shape[1]
        ends = np.cumsum(np.fromiter(map(len, heads), np.intp, len(heads)) + row)
        out = np.empty(int(ends[-1]) if len(heads) else 0, dtype=np.uint8)
        floats = ((ends - row)[:, None] + np.arange(row)).ravel()
        out[floats] = sums.astype("<f8").view(np.uint8).ravel()
        names = np.ones(len(out), dtype=bool)
        names[floats] = False
        out[names] = np.frombuffer(b"".join(heads), dtype=np.uint8)
        return _LENGTH.pack(len(heads)) + out.tobytes() + _COUNT.pack(self.contribution_count)

    def state_digest(self) -> str:
        return blake2b(self.serialize_state(), digest_size=16).hexdigest()

    def present_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The present keys' ids in name order, and their rows of sums."""
        self._check_live()
        sums, present = self._sum.report()
        order = self.keys.order()
        present = np.pad(present, (0, len(order) - len(present)))
        ids = order[present[order]]
        return ids, sums[ids]

    def _check_live(self) -> None:
        if self._consumed:
            raise CoreConsumedError("aggregation core was already consumed")

    def _consume(self) -> None:
        self._sum = ExactSum(self._sum.width)
        self._consumed = True


# --------------------------------------------------------------------------
# Payload wire format


class Wire:
    """The upload record of a session whose keys are ``0 .. num_keys - 1``:
    the key's flat index, unsigned little-endian in 2 bytes (4 beyond 2**16
    keys), then ``width`` little-endian float64s, unpadded (``dtype``).  A
    payload is its records in strictly increasing key order."""

    __slots__ = ("num_keys", "width", "dtype", "size", "_code")

    def __init__(self, num_keys: int, width: int) -> None:
        self.num_keys = num_keys
        self.width = width
        self._code = "H" if num_keys <= 1 << 16 else "I"
        self.dtype = np.dtype([("key", "<" + self._code), ("values", "<f8", (width,))])
        self.size = self.dtype.itemsize


@lru_cache(maxsize=1024)
def _records(code: str, width: int, count: int) -> tuple[struct.Struct, ...]:
    """The packer of ``count`` records, the reader of their keys and the
    reader of their values."""
    key_size, values_size = struct.calcsize("<" + code), 8 * width
    return (
        struct.Struct("<" + f"{code}{width}d" * count),
        struct.Struct("<" + f"{code}{values_size}x" * count),
        struct.Struct("<" + f"{key_size}x{width}d" * count),
    )


def decode_payload(data: bytes, wire: Wire) -> tuple[tuple[int, ...], tuple[float, ...], float]:
    """One upload's keys, its values (flat, ``width`` per row) and their L1 norm.

    The one reader of uploads.  ``data`` must be one or more whole
    records of ``wire`` whose keys strictly increase below ``num_keys``,
    and the float sum of its values' ``|v|`` (``math.fsum``, which also
    finds a NaN or an infinity) must be finite; anything else raises
    ``MalformedUpdateError``.
    """
    count, rest = divmod(len(data), wire.size)
    if rest or not count:
        raise MalformedUpdateError(f"{len(data)} bytes are not {wire.size}-byte records")
    _, read_keys, read_values = _records(wire._code, wire.width, count)
    keys = read_keys.unpack(data)
    if not (keys[-1] < wire.num_keys and all(map(lt, keys, keys[1:]))):
        raise MalformedUpdateError("payload keys must strictly increase below the key count")
    values = read_values.unpack(data)
    try:
        norm = math.fsum(map(abs, values))
    except OverflowError:
        norm = math.inf
    if not norm < math.inf:
        raise MalformedUpdateError("payload values and their L1 norm must be finite")
    return keys, values, norm


_NUMBERS = {int, float}


def encode_payload(rows: Any, keys: Mapping[str, int], wire: Wire) -> bytes:
    """The payload of an upload given as rows: the adapter to the wire.

    ``rows`` must be a list or tuple of ``(key, values)`` pairs, each a
    key of ``keys`` (name -> flat index) and a list or tuple of
    ``wire.width`` ints or floats, not bools; anything else raises
    ``MalformedUpdateError``.  The records go out sorted by key index;
    whether the payload is one :func:`decode_payload` takes is its check.
    """
    if not isinstance(rows, (list, tuple)):
        raise MalformedUpdateError(f"rows must be a list or tuple, got {rows!r}")
    try:
        indexed = sorted([(keys[key], values) for key, values in rows], key=itemgetter(0))
    except (KeyError, TypeError, ValueError):
        raise MalformedUpdateError("a row is not a (key, values) pair under a row key") from None
    fields: list[Any] = []
    for index, values in indexed:
        if not isinstance(values, (list, tuple)) or len(values) != wire.width:
            raise MalformedUpdateError(f"a row must carry {wire.width} values; got {values!r}")
        fields.append(index)
        fields += values
    if not {*map(type, fields)} <= _NUMBERS and any(
        isinstance(v, bool) or not isinstance(v, (int, float)) for v in fields
    ):
        raise MalformedUpdateError("row values must be ints or floats, not bools")
    try:
        return _records(wire._code, wire.width, len(indexed))[0].pack(*fields)
    except struct.error:  # an int too large for a float
        raise MalformedUpdateError("a row value is too large for a float") from None
