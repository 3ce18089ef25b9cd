"""Keyed, replayable randomness and the inverse-CDF Laplace sampler."""

from __future__ import annotations

import math
import struct
from hashlib import blake2b

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fedsum.rng import BlockRng, KeyedRng, TokenMint, laplace_from_uniform, unit_laplace

from helpers import block_key, reference_uniforms


def test_median_uniform_maps_to_zero():
    assert laplace_from_uniform(0.5, 1.0) == 0.0


def test_quartile_maps_to_log_two():
    # CDF^-1(0.75) of the unit Laplace is exactly ln 2.
    assert laplace_from_uniform(0.75, 1.0) == pytest.approx(math.log(2), abs=1e-12)
    assert laplace_from_uniform(0.25, 1.0) == pytest.approx(-math.log(2), abs=1e-12)


def test_zero_scale_collapses_to_exact_zero():
    assert laplace_from_uniform(0.123, 0.0) == 0.0
    rng = KeyedRng(0, "release-noise")
    assert laplace_from_uniform(rng.uniform("w", 1, 2, 3), 0.0) == 0.0


def test_uniform_domain_is_open():
    for bad in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError):
            laplace_from_uniform(bad, 1.0)
    with pytest.raises(ValueError):
        laplace_from_uniform(0.5, -1.0)
    with pytest.raises(ValueError):
        laplace_from_uniform(0.5, math.nan)


@given(
    st.floats(min_value=1e-6, max_value=1 - 1e-6),
    st.floats(min_value=0, max_value=1e6),
)
def test_laplace_is_antisymmetric_about_the_median(u, scale):
    x = laplace_from_uniform(u, scale)
    assert math.isfinite(x)
    # 1 - u rounds, so the mirror holds to roughly scale * ulp(1) / u.
    mirrored = laplace_from_uniform(1.0 - u, scale)
    assert mirrored == pytest.approx(-x, abs=1e-9 * (1.0 + scale), rel=1e-9)


def test_same_key_same_draw():
    a = KeyedRng(42, "ns")
    b = KeyedRng(42, "ns")
    assert a.uniform("x", 1) == b.uniform("x", 1)
    assert laplace_from_uniform(a.uniform("w", 7), 2.0) == laplace_from_uniform(
        b.uniform("w", 7), 2.0
    )
    mints = TokenMint(42, "ns"), TokenMint(42, "ns")
    assert mints[0].take(3) == mints[1].take(3)


def test_distinct_namespaces_and_indices_decorrelate():
    rng = KeyedRng(42, "ns")
    other = KeyedRng(42, "other")
    assert rng.uniform("x", 1) != other.uniform("x", 1)
    assert rng.uniform("x", 1) != rng.uniform("x", 2)
    assert rng.uniform("x", 1) != rng.uniform("y", 1)
    assert KeyedRng(42, "ns").uniform("x", 1) != KeyedRng(43, "ns").uniform("x", 1)


def test_boolean_index_parts_are_rejected():
    rng = KeyedRng(0, "ns")
    with pytest.raises(TypeError):
        rng.uniform("flag", True)


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=-10, max_value=10**9))
def test_uniform_stays_in_open_interval(seed, index):
    u = KeyedRng(seed, "ns").uniform("u", index)
    assert 0.0 < u < 1.0


def test_randrange_covers_its_domain():
    rng = KeyedRng(9, "ns")
    seen = {rng.randrange(5, "slot", i) for i in range(200)}
    assert seen == {0, 1, 2, 3, 4}


def test_minted_tokens_are_128_bit_distinct_and_keyed():
    mint = TokenMint(1, "tokens")
    taken = mint.take(64)
    tokens = set(taken)
    assert len(tokens) == 64 and mint.minted == 64
    assert all(len(bytes.fromhex(t)) == 16 for t in tokens)

    def quarters(**key):
        """Tokens 0-63: token n as quarter n % 4 of BLAKE2b-512 of n // 4."""
        digests = [blake2b(n.to_bytes(8, "little"), **key).hexdigest() for n in range(16)]
        return [d[i : i + 32] for d in digests for i in range(0, 128, 32)]

    material = b"i" + struct.pack("<q", 1) + b"s" + struct.pack("<I", 6) + b"tokens"
    assert taken == quarters(key=blake2b(material, digest_size=16).digest())
    assert not tokens & set(quarters())
    for other in (TokenMint(2, "tokens"), TokenMint(1, "other")):
        assert not tokens & set(other.take(64))


@given(st.lists(st.integers(min_value=0, max_value=9), max_size=12))
def test_a_token_depends_only_on_its_index(batches):
    mint, whole = TokenMint(3, "tokens"), TokenMint(3, "tokens")
    taken = [token for n in batches for token in mint.take(n)]
    assert mint.minted == len(taken) == sum(batches)
    assert taken == whole.take(len(taken))
    assert all(len(t) == 32 and len(bytes.fromhex(t)) == 16 for t in taken)


def test_tokens_are_distinct_across_batches_and_calls():
    mint = TokenMint(5, "tokens")
    batches = [mint.take(n) for n in (1, 3, 0, 4, 5, 1, 200, 2)]
    tokens = [token for batch in batches for token in batch]
    assert [len(batch) for batch in batches] == [1, 3, 0, 4, 5, 1, 200, 2]
    assert len(set(tokens)) == len(tokens) == mint.minted == 216
    for other in (TokenMint(6, "tokens"), TokenMint(5, "other")):
        assert not set(tokens) & set(other.take(216))


def fixed_digest_rng(x):
    """A generator whose every draw hashes to the 64-bit digest ``x``."""

    class FixedDigestRng(KeyedRng):
        def _digest(self, index):
            return x.to_bytes(8, "little")

    return FixedDigestRng(0, "ns")


def test_the_largest_digest_stays_below_one():
    rng = fixed_digest_rng(2**64 - 1)
    u = rng.uniform("u", 1)
    assert u < 1.0
    assert u == math.nextafter(1.0, 0.0)
    assert math.isfinite(laplace_from_uniform(rng.uniform("w", 1), 1.0))
    assert rng.randrange(24, "wake-hour", 1) == 23
    for n in (1, 2, 3, 24, 1000, 2**40 + 1):
        assert rng.randrange(n, "slot", 1) < n


@pytest.mark.parametrize(
    "x", [0, 1, 12_345, 2**63, 2**64 - 1025, 2**64 - 1024, 2**64 - 1]
)
def test_only_draws_that_round_to_one_are_moved(x):
    plain = (x + 0.5) * 2.0**-64
    expected = plain if plain < 1.0 else math.nextafter(1.0, 0.0)
    assert fixed_digest_rng(x).uniform("u") == expected
    assert (plain < 1.0) == (x < 2**64 - 1024)


def test_empirical_moments_track_the_distribution():
    rng = KeyedRng(12, "moments")
    n = 200_000
    draws = [laplace_from_uniform(rng.uniform(i), 1.0) for i in range(n)]
    mean = math.fsum(draws) / n
    var = math.fsum((x - mean) ** 2 for x in draws) / n
    # Var = 2b^2 = 2; MC standard errors ~ sqrt(2/n) and ~ sqrt(20/n).
    assert abs(mean) < 0.02
    assert abs(var - 2.0) < 0.1
    quartile = sorted(draws)[3 * n // 4]
    assert quartile == pytest.approx(math.log(2), abs=0.02)


def test_scale_parameter_scales_linearly():
    rng = KeyedRng(5, "ns")
    base = [laplace_from_uniform(rng.uniform("w", i), 1.0) for i in range(100)]
    threex = [laplace_from_uniform(rng.uniform("w", i), 3.0) for i in range(100)]
    for b, t in zip(base, threex):
        assert t == pytest.approx(3.0 * b, rel=1e-12)


class Int(int):
    pass


class Str(str):
    pass


def plain_digest(rng, index):
    """The keyed hash of an index's encoded parts, with a fresh key each time."""
    parts = []
    for part in index:
        if isinstance(part, int):
            parts.append(b"i" + struct.pack("<q", part))
        else:
            data = part.encode("utf-8")
            parts.append(b"s" + struct.pack("<I", len(data)) + data)
    return blake2b(b"".join(parts), key=rng._key, digest_size=8).digest()


INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
INDEX_PART = st.one_of(
    INT64,
    st.sampled_from([0, -1, 2**63 - 1, -(2**63)]),
    st.text(),
    st.sampled_from(["", "é", "\u65e5\u672c", "\U0001f600", "2024-W20"]),
    INT64.map(Int),
    st.text().map(Str),
)


@given(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.text(max_size=8),
    st.lists(INDEX_PART, max_size=6),
)
def test_digest_equals_the_plain_keyed_hash(seed, namespace, index):
    rng = KeyedRng(seed, namespace)
    expected = plain_digest(rng, tuple(index))
    assert rng._digest(tuple(index)) == expected


def test_subclass_parts_hash_as_their_values():
    rng = KeyedRng(3, "ns")
    assert rng.uniform(Str("idle"), Int(7)) == rng.uniform("idle", 7)
    with pytest.raises(TypeError):
        rng.uniform("idle", True)
    with pytest.raises(TypeError):
        rng.uniform(1.5)


# --- the block generator ------------------------------------------------------


def test_block_uniforms_are_pinned():
    # Guards the Philox stream, the key derivation and the uniform mapping.
    got = BlockRng(1, "fleet", "connected").uniforms(6, 19_858)
    assert [u.hex() for u in got.tolist()] == [
        "0x1.1a638661ea008p-4",
        "0x1.fdcb4f18e729fp-1",
        "0x1.106c090c9f055p-1",
        "0x1.22034f1855821p-1",
        "0x1.e61ac2529668dp-1",
        "0x1.ff6da38863b0dp-1",
    ]


@pytest.mark.parametrize(
    "seed, namespace, parts, index",
    [
        (1, "fleet", ("connected",), (19_858,)),
        (0, "release-noise", ("2024-W20",), (2, 1)),
        (-7, "", (), ()),
        (2**63 - 1, "ns", (5, "é"), (2**64 - 1, 0, 3)),
    ],
)
def test_block_uniforms_equal_the_written_out_philox(seed, namespace, parts, index):
    got = BlockRng(seed, namespace, *parts).uniforms(13, *index)
    expected = reference_uniforms([block_key(seed, namespace, *parts)], index, np.arange(13))
    assert got.tolist() == expected.tolist()


def test_a_block_is_a_prefix_of_every_longer_block():
    rng = BlockRng(4, "fleet", "idle")
    longest = rng.uniforms(10_000, 19_860)
    for size in (0, 1, 3, 4, 5, 8, 9, 300):
        assert rng.uniforms(size, 19_860).tolist() == longest[:size].tolist()


def test_streams_differ_by_seed_namespace_part_and_index():
    base = BlockRng(4, "fleet", "upload-ok", "2024-W20").uniforms(64, 19_860)
    others = [
        BlockRng(5, "fleet", "upload-ok", "2024-W20").uniforms(64, 19_860),
        BlockRng(4, "other", "upload-ok", "2024-W20").uniforms(64, 19_860),
        BlockRng(4, "fleet", "upload-ok", "2024-W21").uniforms(64, 19_860),
        BlockRng(4, "fleet", "charging", "2024-W20").uniforms(64, 19_860),
        BlockRng(4, "fleet", "upload-ok", "2024-W20").uniforms(64, 19_861),
        BlockRng(4, "fleet", "upload-ok", "2024-W20").uniforms(64, 19_860, 0),
        BlockRng(4, "fleet", "upload-ok", "2024-W20").uniforms(64),
    ]
    for other in others[:-2]:
        assert not np.isin(other, base).any()
    # Trailing zero words name the same counter.
    assert others[-2].tolist() == base.tolist()
    assert others[-1].tolist() != base.tolist()


def test_block_uniforms_lie_strictly_inside_the_unit_interval():
    u = BlockRng(0, "ns").uniforms(200_000, 1)
    assert (u > 0.0).all() and (u < 1.0).all() and (u != 0.5).all()
    # Each is an odd multiple of 2**-53: exact, and never 1/2.
    assert (np.modf(u * 2.0**52)[0] == 0.5).all()


def test_block_indices_are_up_to_three_words():
    rng = BlockRng(0, "ns")
    for bad in ((-1,), (2**64,), (0, 0, 0, 0)):
        with pytest.raises(ValueError):
            rng.uniforms(4, *bad)


def test_unit_laplace_is_the_scalar_transform_bit_for_bit():
    u = BlockRng(3, "release-noise", "2024-W20").uniforms(4_050, 0, 1)
    u = np.concatenate([u, [2.0**-53, 0.25, 0.75, 1.0 - 2.0**-53]])
    expected = [laplace_from_uniform(x, 1.0) for x in u.tolist()]
    assert [v.hex() for v in unit_laplace(u).tolist()] == [v.hex() for v in expected]
    block = u[:6].reshape(2, 3)
    assert unit_laplace(block).shape == (2, 3)
