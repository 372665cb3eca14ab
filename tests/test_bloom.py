import hashlib
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from wire_edits import edited, round_trips_or_raises

from discoverfriends.bloom import (
    BloomFilter,
    BloomParams,
    clear_spare_bits,
    derive_params,
    hash_positions,
    murmur3_32,
)

# Published murmur3 x86_32 reference vectors.
MURMUR_VECTORS = [
    (b"", 0x00000000, 0x00000000),
    (b"", 0x00000001, 0x514E28B7),
    (b"", 0xFFFFFFFF, 0x81F16F39),
    (b"test", 0x00000000, 0xBA6BD213),
    (b"test", 0x9747B28C, 0x704B81DC),
    (b"Hello, world!", 0x00000000, 0xC0363E43),
    (b"Hello, world!", 0x9747B28C, 0x24884CBA),
    (b"The quick brown fox jumps over the lazy dog", 0x00000000, 0x2E4FF723),
    (b"The quick brown fox jumps over the lazy dog", 0x9747B28C, 0x2FA826CD),
    (b"a", 0x9747B28C, 0x7FA09EA6),
    (b"aa", 0x9747B28C, 0x5D211726),
    (b"aaa", 0x9747B28C, 0x283E0130),
    (b"aaaa", 0x9747B28C, 0x5A97808A),
    (b"ab", 0x9747B28C, 0x74875592),
    (b"abc", 0x9747B28C, 0xC84A62DD),
    (b"abc", 0x00000000, 0xB3DD93FA),
    (b"abcd", 0x9747B28C, 0xF0478627),
]


@pytest.mark.parametrize("data,seed,expected", MURMUR_VECTORS)
def test_murmur3_reference_vectors(data, seed, expected):
    assert murmur3_32(data, seed) == expected


def test_derive_params_reference_sizes():
    params = derive_params(1000, 0.02)
    assert (params.m_bits, params.k_hashes) == (8143, 6)
    assert params.byte_length == 1018


def test_derive_params_tiny_case():
    params = derive_params(1, 0.5)
    assert (params.m_bits, params.k_hashes) == (2, 1)


def test_derive_params_domain_errors():
    with pytest.raises(ValueError):
        derive_params(0, 0.02)
    with pytest.raises(ValueError):
        derive_params(10, 0.0)
    with pytest.raises(ValueError):
        derive_params(10, 1.0)
    with pytest.raises(ValueError):
        derive_params(10, -0.1)


def test_params_reject_inconsistent_geometry():
    with pytest.raises(ValueError):
        BloomParams(n_items=1000, fpp=0.02, m_bits=8000, k_hashes=6)


def test_m_bits_strictly_decreases_as_fpp_grows():
    sizes = [derive_params(1000, p).m_bits for p in (0.005, 0.01, 0.02, 0.05, 0.1, 0.2)]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_insert_then_contains():
    f = BloomFilter(derive_params(100, 0.05))
    f = f.insert(b"element")
    assert f.contains(b"element")


def test_insert_is_idempotent_and_returns_new_value():
    base = BloomFilter(derive_params(100, 0.05))
    once = base.insert(b"x")
    twice = once.insert(b"x")
    assert once.bits == twice.bits
    assert base.bits != once.bits
    assert base.popcount() == 0  # original untouched


def test_popcount_bounded_by_k_per_insert():
    params = derive_params(100, 0.05)
    f = BloomFilter(params)
    for i in range(50):
        f = f.insert(f"item-{i}".encode())
    assert f.popcount() <= params.k_hashes * 50


def test_bits_only_flip_upwards():
    params = derive_params(50, 0.05)
    f = BloomFilter(params)
    prev = f.bits
    for i in range(30):
        f = f.insert(f"e{i}".encode())
        assert all((p & ~c) == 0 for p, c in zip(prev, f.bits))
        prev = f.bits


def test_empty_filter_contains_nothing():
    f = BloomFilter(derive_params(100, 0.05))
    assert not f.contains(b"anything")


def test_no_false_negatives_bulk():
    params = derive_params(500, 0.02)
    f = BloomFilter(params)
    members = [hashlib.sha1(f"member-{i}".encode()).digest()[:16] for i in range(500)]
    for m in members:
        f = f.insert(m)
    assert all(f.contains(m) for m in members)


def test_hash_positions_deterministic_and_in_range():
    params = derive_params(1000, 0.02)
    a = hash_positions(b"payload", params)
    b = hash_positions(b"payload", params)
    assert a == b
    assert len(a) == params.k_hashes
    assert all(0 <= p < params.m_bits for p in a)


def test_hash_positions_follow_double_hashing():
    params = derive_params(1000, 0.02)
    positions = hash_positions(b"abc", params)
    h1, h2 = positions[0], (positions[1] - positions[0]) % params.m_bits
    expected = [(h1 + i * h2) % params.m_bits for i in range(params.k_hashes)]
    assert positions == expected


def test_hash_positions_uniformity_chi_square():
    # Statistical oracle: positions of random inputs should be uniform.
    params = derive_params(100, 0.05)
    rng = Random(1234)
    counts = [0] * params.m_bits
    for _ in range(10_000):
        for p in hash_positions(rng.randbytes(16), params):
            counts[p] += 1
    result = stats.chisquare(counts)
    assert result.pvalue >= 0.01


def test_empirical_false_positive_rate_near_target():
    params = derive_params(1000, 0.02)
    f = BloomFilter(params)
    for i in range(1000):
        f = f.insert(hashlib.sha1(f"member-{i}".encode()).digest()[:16])
    probes = 20_000
    hits = sum(
        f.contains(hashlib.sha1(f"nonmember-{i}".encode()).digest()[:16])
        for i in range(probes)
    )
    rate = hits / probes
    assert 0.01 <= rate <= 0.03


def test_xor_mask_involution_and_identity():
    params = derive_params(64, 0.05)
    f = BloomFilter(params)
    for i in range(40):
        f = f.insert(f"e{i}".encode())
    rng = Random(5)
    mask = clear_spare_bits(rng.randbytes(params.byte_length), params.m_bits)
    assert f.xor_mask(mask).xor_mask(mask) == f
    assert f.xor_mask(bytes(params.byte_length)) == f


def test_xor_mask_length_mismatch():
    f = BloomFilter(derive_params(64, 0.05))
    with pytest.raises(ValueError):
        f.xor_mask(b"\x00" * 3)


def test_serialization_round_trip_and_sizes():
    params = derive_params(1000, 0.02)
    f = BloomFilter(params)
    for i in range(100):
        f = f.insert(f"x{i}".encode())
    blob = f.to_bytes()
    assert len(blob) == 8 + 1018 == 1026
    restored = BloomFilter.from_bytes(blob, 1000, 0.02)
    assert restored == f


def test_deserialization_rejects_wrong_geometry():
    blob = BloomFilter(derive_params(1000, 0.02)).to_bytes()
    with pytest.raises(ValueError):
        BloomFilter.from_bytes(blob, 100, 0.02)
    with pytest.raises(ValueError):
        BloomFilter.from_bytes(blob[:40], 1000, 0.02)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_deserialization_round_trips_or_raises(data):
    f = BloomFilter(derive_params(20, 0.05))  # 125 bits: three spare bits in the last byte
    for i in range(data.draw(st.integers(0, 20))):
        f = f.insert(f"x{i}".encode())
    round_trips_or_raises(lambda b: BloomFilter.from_bytes(b, 20, 0.05), edited(f.to_bytes(), data))


def test_deserialization_rejects_set_spare_bits():
    params = derive_params(20, 0.05)  # 125 bits: three spare bits in the last byte
    blob = bytearray(BloomFilter(params).insert(b"x").to_bytes())
    assert BloomFilter.from_bytes(bytes(blob), 20, 0.05).to_bytes() == blob
    blob[-1] ^= 1 << 7  # bit 127, past m_bits
    with pytest.raises(ValueError, match="past m_bits"):
        BloomFilter.from_bytes(bytes(blob), 20, 0.05)
