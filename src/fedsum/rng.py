"""Deterministic keyed randomness.

Two generators share one contract: a value depends only on the seed, a
namespace and the index of the value drawn, never on how many draws
happened before it or in what order code visited the coordinates.  Runs
with the same seed are bit-identical by construction, and two mechanism
variants that ask for the same coordinate's noise at the same scale
receive the same value.

:class:`BlockRng` draws every simulated random quantity: the synthetic
corpus (:func:`fedsum.synth.generate_corpus`), the fleet's wake hours,
each civil day's device conditions, the upload outcomes and each
release's unit Laplace block.  It gives a whole block in one call from
numpy's counter-based ``Philox`` (Philox4x64-10; Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011).  Its layout:

* the 128-bit Philox key is BLAKE2b-128 of the encoded ``(seed,
  namespace, parts...)``, where the parts name the stream (a condition,
  a window id); it is hashed once, when the generator is built;
* the counter words 1-3 are the integer index of a block (the civil
  day for the fleet, ``(activity, week)`` for the corpus, ``(activity,
  metric)`` for release noise), and word 0 counts 4-value Philox blocks
  along the stream;
* the position in the stream is the device id, a trip's rank in its
  corpus block, or ``region * num_directions + direction`` for noise.
  Position ``p`` is output word ``p % 4`` of Philox applied to counter
  word 0 = ``p // 4 + 1`` (numpy steps the counter before each block).

So a block of any length is a prefix of a longer one: 300 devices and
10,000 devices draw the same first 300 values, and a cell's noise does
not depend on the number of regions.  Each 64-bit output ``x`` becomes
the uniform ``((x >> 12) + 0.5) * 2**-52``: exact, strictly inside
(0, 1) and never 1/2.  :meth:`BlockRng.generator` hands the same stream
to a numpy ``Generator`` instead, for the corpus's Poisson and lognormal
draws; those take a variable number of outputs per value, so a value's
position there is its rank among the values drawn.

:class:`KeyedRng` hashes ``(seed, namespace, index...)`` with BLAKE2b
for each value, one value per call; nothing in the package draws from
it.  The server's upload tokens come from a :class:`TokenMint`: four
from each keyed BLAKE2b-512 of a counter, taken as many at once as a
check-in needs.

Laplace noise at any finite scale b >= 0 is b times the unit-scale draw
of the same uniform, bit for bit: both take the same rounded
ln(1 - 2|u - 1/2|), round its product with b once, and carry the same
sign.  So one block of unit draws (:func:`unit_laplace`) serves every
scale, and a release may draw it once and multiply.  The sampler is the
float inverse CDF on 52-bit uniforms (:data:`NOISE_SAMPLER`).
"""

from __future__ import annotations

import math
import struct
from hashlib import blake2b

import numpy as np

__all__ = [
    "BlockRng",
    "KeyedRng",
    "NOISE_SAMPLER",
    "TokenMint",
    "laplace_from_uniform",
    "unit_laplace",
]

_U64_INV = 2.0 ** -64
_U52_INV = 2.0 ** -52

# The generator and sampler behind every noise value, as release metadata names them.
NOISE_SAMPLER = "philox4x64 / inverse-cdf laplace, 52-bit uniforms"


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


def unit_laplace(uniforms: np.ndarray) -> np.ndarray:
    """``laplace_from_uniform(u, 1.0)`` of each entry of ``uniforms``, bit for bit.

    The logarithm is ``math.log1p`` entry by entry, as in
    :func:`laplace_from_uniform`, not ``np.log1p``, whose vectorised
    code differs from the C library's in the last bit on some CPUs: the
    block is the same on every host.  ``uniforms`` must lie in (0, 1)
    and not be 1/2, as :class:`BlockRng`'s do.
    """
    t = uniforms.ravel() - 0.5
    logs = np.array(list(map(math.log1p, (-2.0 * np.abs(t)).tolist())))
    # -sgn(t) * ln(1 - 2|t|): the log is <= 0, so this is its magnitude with t's sign.
    return np.copysign(logs, t).reshape(uniforms.shape)


_INT_PART = struct.Struct("<q")
_LEN_PREFIX = struct.Struct("<I")


def _encode_part(part: object) -> bytes:
    """One index part's bytes: ``i`` + LE int64, or ``s`` + LE u32 length + UTF-8."""
    if isinstance(part, bool):  # bool is an int; reject ambiguity
        raise TypeError("index parts must be int or str, not bool")
    if isinstance(part, int):
        return b"i" + _INT_PART.pack(part)
    if isinstance(part, str):
        data = part.encode("utf-8")
        return b"s" + _LEN_PREFIX.pack(len(data)) + data
    raise TypeError(f"index parts must be int or str, got {type(part).__name__}")


class KeyedRng:
    """Counter-based generator: one named stream per (seed, namespace)."""

    __slots__ = ("seed", "namespace", "_key", "_keyed")

    def __init__(self, seed: int, namespace: str = "") -> None:
        self.seed = seed
        self.namespace = namespace
        material = struct.pack("<q", seed) + namespace.encode("utf-8")
        self._key = blake2b(material, digest_size=16).digest()
        # Keying BLAKE2b costs a compression; every draw copies this state.
        self._keyed = blake2b(key=self._key, digest_size=8)

    def _digest(self, index: tuple) -> bytes:
        """``blake2b(encoded parts, key=_key, digest_size=8)`` of one index."""
        h = self._keyed.copy()
        h.update(b"".join(map(_encode_part, index)))
        return h.digest()

    def uniform(self, *index: int | str) -> float:
        """Uniform draw in the open interval (0, 1) for this index."""
        x = int.from_bytes(self._digest(index), "little")
        u = (x + 0.5) * _U64_INV
        # The top ~1,024 of the 2**64 digests round to 1.0; they map to the
        # largest double below one instead.
        return u if u < 1.0 else math.nextafter(1.0, 0.0)

    def randrange(self, n: int, *index: int | str) -> int:
        """Integer in [0, n) for this index."""
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        return int(self.uniform(*index) * n)


class TokenMint:
    """Opaque 128-bit identifiers: token ``n`` is 16-byte quarter ``n % 4``
    of one keyed BLAKE2b-512 of ``n // 4``, under the BLAKE2b-128 of the
    encoded ``(seed, namespace)``: distinct, barring a collision, and
    unguessable without the key.  A token depends only on its index, not
    on how the tokens before it were taken."""

    __slots__ = ("minted", "_keyed", "_spare")

    def __init__(self, seed: int, namespace: str) -> None:
        key = blake2b(b"".join(map(_encode_part, (seed, namespace))), digest_size=16).digest()
        # Keying BLAKE2b costs a compression; every hash copies this state.
        self._keyed = blake2b(key=key, digest_size=64)
        self.minted = 0
        # The last hash's tokens not taken yet; minted + len(_spare) is 0 mod 4.
        self._spare: list[str] = []

    def take(self, n: int) -> list[str]:
        """The next ``n`` tokens, each as 32 hex digits."""
        spare = self._spare
        while len(spare) < n:
            h = self._keyed.copy()
            h.update(((self.minted + len(spare)) // 4).to_bytes(8, "little"))
            digits = h.hexdigest()
            spare += digits[:32], digits[32:64], digits[64:96], digits[96:]
        tokens = spare[:n]
        del spare[:n]
        self.minted += n
        return tokens


class BlockRng:
    """Counter-based blocks of uniforms: one Philox key per (seed, namespace, parts).

    See the module docstring for the key, counter and position layout.
    """

    __slots__ = ("_key",)

    def __init__(self, seed: int, namespace: str, *parts: int | str) -> None:
        material = b"".join(map(_encode_part, (seed, namespace, *parts)))
        digest = blake2b(material, digest_size=16).digest()
        self._key = np.frombuffer(digest, dtype="<u8").astype(np.uint64)

    def _philox(self, index: tuple[int, ...]) -> np.random.Philox:
        """The stream at ``index``: up to three integers in [0, 2**64), the
        counter words 1-3; missing words are 0."""
        if len(index) > 3 or not all(0 <= i < 2**64 for i in index):
            raise ValueError(f"a block index is up to 3 integers in [0, 2**64), got {index}")
        counter = np.zeros(4, dtype=np.uint64)
        counter[1 : 1 + len(index)] = index
        return np.random.Philox(counter=counter, key=self._key)

    def uniforms(self, size: int, *index: int) -> np.ndarray:
        """Positions ``0 .. size - 1`` of the stream at ``index`` as float64 in (0, 1)."""
        bits = self._philox(index).random_raw(size)
        bits >>= np.uint64(12)
        uniforms = bits.astype(np.float64)
        del bits  # in place from here: a block holds two arrays at most
        uniforms += 0.5
        uniforms *= _U52_INV
        return uniforms

    def generator(self, *index: int) -> np.random.Generator:
        """A numpy ``Generator`` reading the stream at ``index`` from its start.

        Its array methods draw element after element, so the first ``n``
        values of a block of any length ``>= n`` are the same.
        """
        return np.random.Generator(self._philox(index))
