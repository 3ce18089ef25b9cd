"""Deterministic keyed randomness.

Draws are produced by hashing ``(seed, namespace, index...)`` with
BLAKE2b rather than by stepping a stateful generator.  Each logical
random variable names its own index, so a value depends only on the seed
and on *what* is being drawn — never on how many draws happened before it
or in what order code visited the coordinates.  Runs with the same seed
are bit-identical by construction, and two mechanism variants that ask
for the same coordinate's noise at the same scale receive the same value.

Laplace noise at any finite scale b >= 0 is b times the unit-scale draw
of the same index, bit for bit: both take the same rounded
ln(1 - 2|u - 1/2|), round its product with b once, and carry the same
sign.  So one block of unit draws serves every scale, and a release
may draw it once and multiply.
"""

from __future__ import annotations

import math
import struct
from hashlib import blake2b

__all__ = ["KeyedRng", "laplace_from_uniform", "sample_laplace"]

_U64_INV = 2.0 ** -64


def laplace_from_uniform(u: float, scale: float) -> float:
    """Inverse-CDF transform of a (0,1) uniform to Laplace(0, scale).

        x = -scale * sgn(u - 1/2) * ln(1 - 2|u - 1/2|)

    Exact at the anchors: u=0.5 maps to 0.0 and u=0.75 maps to
    ``scale * ln 2``.  ``scale`` may be 0, which yields exactly 0.0.
    """
    if not 0.0 < u < 1.0:
        raise ValueError(f"uniform draw must lie in (0, 1), got {u}")
    if not scale >= 0.0 or math.isinf(scale):
        raise ValueError(f"laplace scale must be finite and >= 0, got {scale}")
    if scale == 0.0:
        return 0.0
    t = u - 0.5
    if t == 0.0:
        return 0.0
    return -scale * math.copysign(1.0, t) * math.log1p(-2.0 * abs(t))


class KeyedRng:
    """Counter-based generator: one named stream per (seed, namespace)."""

    __slots__ = ("seed", "namespace", "_key")

    def __init__(self, seed: int, namespace: str = "") -> None:
        self.seed = seed
        self.namespace = namespace
        material = struct.pack("<q", seed) + namespace.encode("utf-8")
        self._key = blake2b(material, digest_size=16).digest()

    def _digest(self, index: tuple) -> bytes:
        parts = []
        for part in index:
            if isinstance(part, bool):  # bool is an int; reject ambiguity
                raise TypeError("index parts must be int or str, not bool")
            if isinstance(part, int):
                parts.append(b"i" + struct.pack("<q", part))
            elif isinstance(part, str):
                data = part.encode("utf-8")
                parts.append(b"s" + struct.pack("<I", len(data)) + data)
            else:
                raise TypeError(
                    f"index parts must be int or str, got {type(part).__name__}"
                )
        return blake2b(b"".join(parts), key=self._key, digest_size=8).digest()

    def uniform(self, *index: int | str) -> float:
        """Uniform draw in the open interval (0, 1) for this index."""
        x = int.from_bytes(self._digest(index), "little")
        return (x + 0.5) * _U64_INV

    def laplace(self, scale: float, *index: int | str) -> float:
        """Laplace(0, scale) draw for this index; scale 0 gives 0.0."""
        if scale == 0.0:
            return 0.0
        return laplace_from_uniform(self.uniform(*index), scale)

    def randrange(self, n: int, *index: int | str) -> int:
        """Integer in [0, n) for this index."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        return int(self.uniform(*index) * n)

    def token_bytes(self, *index: int | str) -> bytes:
        """16 deterministic bytes for this index (opaque identifiers)."""
        parts = self._digest(index)
        return blake2b(parts, key=self._key, digest_size=16).digest()


def sample_laplace(scale: float, rng: KeyedRng, *index: int | str) -> float:
    """Module-level spelling of :meth:`KeyedRng.laplace`."""
    return rng.laplace(scale, *index)
