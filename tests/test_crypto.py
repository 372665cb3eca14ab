import hashlib
from random import Random

import numpy as np
import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given, settings
from hypothesis import strategies as st
from wire_edits import edited, round_trips_or_raises

from discoverfriends import crypto
from discoverfriends.crypto import (
    CertStatus,
    Certificate,
    IntegrityError,
    KeyUnwrapError,
    SymmetricKey,
    keystream,
    keystream_many,
    make_certificate,
    padded_len,
    sym_decrypt,
    sym_encrypt,
    unwrap_key,
    verify_certificate,
    wrap_key,
    xor_bytes,
)

NOW = 1_700_000_000


def test_keystream_deterministic_and_sized():
    seed = bytes(range(16))
    assert keystream(seed, 100) == keystream(seed, 100)
    assert len(keystream(seed, 1)) == 1
    assert len(keystream(seed, 0)) == 0
    assert keystream(seed, 40) == keystream(seed, 100)[:40]


def test_keystream_distinct_seeds_differ():
    a = keystream(bytes(16), 64)
    b = keystream(bytes(15) + b"\x01", 64)
    assert a != b


def test_keystream_seed_length_enforced():
    with pytest.raises(ValueError):
        keystream(b"short", 16)


def test_keystream_known_answers():
    assert hashlib.sha256(keystream(bytes(16), 4096)).hexdigest() == (
        "e9eed48b777b0da2996ed93189177195e2d912d93d1c232ae9cc8d703eb4dca0"
    )
    assert hashlib.sha256(keystream(bytes(range(16)), 1018)).hexdigest() == (
        "16e2d42706d77564c699d40329fb9c4cb722f69563c0dbb08721b7e6169fd83d"
    )


def _reference_keystream(seed: bytes, length: int) -> bytes:
    """Block i: AES-ECB(seed ^ i) ^ (seed ^ i) under the fixed key, i big-endian."""
    out = b""
    for i in range((length + 15) // 16):
        x = bytes(s ^ c for s, c in zip(seed, i.to_bytes(16, "big")))
        enc = Cipher(algorithms.AES(crypto._PRG_KEY), modes.ECB()).encryptor()
        y = enc.update(x) + enc.finalize()
        out += bytes(a ^ b for a, b in zip(y, x))
    return out[:length]


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.binary(min_size=16, max_size=16), max_size=4), length=st.integers(0, 3000))
def test_keystream_many_rows_match_keystream_and_reference(seeds, length):
    rows = keystream_many(np.frombuffer(b"".join(seeds), dtype=np.uint8).reshape(-1, 16), length)
    assert rows.shape == (len(seeds), length)
    for seed, row in zip(seeds, rows):
        assert row.tobytes() == keystream(seed, length) == _reference_keystream(seed, length)


@settings(max_examples=40, deadline=None)
@given(
    calls=st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from([0, 1, 15, 16, 17, 40, 100])),
        min_size=2,
        max_size=6,
    ),
    data=st.data(),
)
def test_keystream_many_calls_share_no_state(calls, data):
    # Every call goes through one process-wide AES context; interleaving
    # calls of other shapes must not change any call's rows.
    seeds = [np.frombuffer(data.draw(st.binary(min_size=16 * k, max_size=16 * k)), dtype=np.uint8)
             .reshape(k, 16) for k, _ in calls]
    alone = []
    for s, (_, length) in zip(seeds, calls):
        alone.append(keystream_many(s, length))
        keystream_many(s[:1], 23)  # a call of another shape between any two
    order = data.draw(st.permutations(range(len(calls))))
    interleaved = {i: keystream_many(seeds[i], calls[i][1]) for i in order}
    for i, (s, (_, length)) in enumerate(zip(seeds, calls)):
        assert np.array_equal(interleaved[i], alone[i])
        assert [row.tobytes() for row in alone[i]] == [
            _reference_keystream(seed.tobytes(), length) for seed in s
        ]


def test_keystream_many_edge_shapes_match_keystream():
    seeds = np.frombuffer(bytes(range(96)), dtype=np.uint8).reshape(6, 16)
    assert keystream_many(seeds[:0], 40).shape == (0, 40)
    assert keystream_many(seeds[:0], 0).shape == (0, 0)
    assert keystream_many(seeds, 0).shape == (6, 0)
    strided = seeds[::2]  # rows not contiguous in memory
    assert not strided.flags.c_contiguous
    rows = keystream_many(strided, 53)
    assert [row.tobytes() for row in rows] == [keystream(s.tobytes(), 53) for s in strided]


def test_keystream_many_rejects_bad_shapes_and_lengths():
    with pytest.raises(ValueError):
        keystream_many(np.zeros((2, 15), dtype=np.uint8), 16)
    with pytest.raises(ValueError):
        keystream_many(np.zeros(16, dtype=np.uint8), 16)
    with pytest.raises(ValueError):
        keystream_many(np.zeros((1, 16), dtype=np.uint8), -1)
    with pytest.raises(ValueError):
        keystream_many(np.zeros((1, 16), dtype=np.int64), 16)


def test_xor_bytes():
    assert xor_bytes(b"\x0f\xf0\x00", b"\xff\xff\x01") == b"\xf0\x0f\x01"
    assert xor_bytes(b"", b"") == b""
    with pytest.raises(ValueError):
        xor_bytes(b"\x00\x01", b"\x00")


def test_symmetric_key_length_enforced():
    with pytest.raises(ValueError):
        SymmetricKey(b"too-short")


def test_ciphertext_length_formula_full_sweep():
    key = SymmetricKey(bytes(16))
    payload = b"a" * 10_000
    for n in range(0, 10_001):
        blob = sym_encrypt(key, payload[:n])
        assert len(blob) == padded_len(n) + crypto.TAG_LEN == 16 * (n // 16 + 1) + 16


def test_reference_payload_sizes():
    key = SymmetricKey(bytes(16))
    assert len(sym_encrypt(key, b"m" * 160)) - crypto.TAG_LEN == 176
    assert len(sym_encrypt(key, b"")) - crypto.TAG_LEN == 16


def test_encrypt_decrypt_round_trip_random_messages():
    rng = Random(31337)
    for _ in range(1000):
        key = SymmetricKey(rng.randbytes(16))
        msg = rng.randbytes(rng.randrange(0, 600))
        assert sym_decrypt(key, sym_encrypt(key, msg)) == msg


def test_wrong_key_detected():
    blob = sym_encrypt(SymmetricKey(bytes(16)), b"secret")
    with pytest.raises(IntegrityError):
        sym_decrypt(SymmetricKey(b"\x01" * 16), blob)


def test_tampered_ciphertext_detected():
    key = SymmetricKey(bytes(16))
    blob = bytearray(sym_encrypt(key, b"secret payload"))
    rng = Random(8)
    for _ in range(50):
        i = rng.randrange(len(blob))
        flipped = bytearray(blob)
        flipped[i] ^= 1 << rng.randrange(8)
        with pytest.raises(IntegrityError):
            sym_decrypt(key, bytes(flipped))


def test_malformed_ciphertext_detected():
    key = SymmetricKey(bytes(16))
    with pytest.raises(IntegrityError):
        sym_decrypt(key, b"short")
    with pytest.raises(IntegrityError):
        sym_decrypt(key, bytes(33))  # not a block multiple after the tag


def test_wrap_unwrap_round_trip(shared_keypair):
    key = SymmetricKey(b"\x42" * 16)
    wrapped = wrap_key(shared_keypair.public_key, key)
    assert len(wrapped) == 128
    assert unwrap_key(shared_keypair.private_key, wrapped) == key


def test_unwrap_with_wrong_private_key_errors(shared_keypair, second_keypair):
    wrapped = wrap_key(shared_keypair.public_key, SymmetricKey(bytes(16)))
    with pytest.raises(KeyUnwrapError):
        unwrap_key(second_keypair.private_key, wrapped)


def test_wrap_is_randomized(shared_keypair):
    key = SymmetricKey(b"\x42" * 16)
    assert wrap_key(shared_keypair.public_key, key) != wrap_key(
        shared_keypair.public_key, key
    )


def test_public_key_serialization_round_trip(shared_keypair):
    assert len(shared_keypair.public_bytes) == crypto.PUBKEY_LEN
    parsed = crypto.parse_public_key(shared_keypair.public_bytes)
    assert crypto.serialize_public_key(parsed) == shared_keypair.public_bytes


def test_keypair_generation_produces_distinct_keys():
    seen = {crypto.generate_keypair().public_bytes for _ in range(100)}
    assert len(seen) == 100


def test_certificate_serialized_size_and_round_trip(shared_keypair):
    cert = make_certificate(shared_keypair, b"\x07" * 16, NOW, NOW + 3600)
    blob = cert.to_bytes()
    assert len(blob) == 481
    assert Certificate.from_bytes(blob) == cert


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_certificate_decode_round_trips_or_raises(shared_keypair, data):
    cert = make_certificate(shared_keypair, b"\x07" * 16, NOW, NOW + 3600)
    round_trips_or_raises(Certificate.from_bytes, edited(cert.to_bytes(), data))


def test_certificate_validity_window(shared_keypair):
    cert = make_certificate(shared_keypair, b"\x07" * 16, NOW, NOW + 3600)
    assert verify_certificate(cert, NOW) is CertStatus.VALID
    assert verify_certificate(cert, NOW + 3600) is CertStatus.VALID
    assert verify_certificate(cert, NOW + 3601) is CertStatus.EXPIRED
    assert verify_certificate(cert, NOW - 1) is CertStatus.EXPIRED


def test_certificate_invalid_window_rejected(shared_keypair):
    with pytest.raises(ValueError):
        make_certificate(shared_keypair, b"\x07" * 16, NOW, NOW)


def test_tampered_subject_breaks_signature(shared_keypair):
    cert = make_certificate(shared_keypair, b"\x07" * 16, NOW, NOW + 3600)
    tampered = Certificate(
        subject_digest=b"\x08" * 16,
        public_key=cert.public_key,
        not_before=cert.not_before,
        not_after=cert.not_after,
        signature=cert.signature,
    )
    assert verify_certificate(tampered, NOW) is CertStatus.BAD_SIGNATURE


def test_certificate_single_bit_mutations_rejected(shared_keypair):
    cert = make_certificate(shared_keypair, b"\x07" * 16, NOW, NOW + 3600)
    blob = bytearray(cert.to_bytes())
    rng = Random(404)
    signed_len = 192  # subject + key + window, the signed region
    for _ in range(200):
        i = rng.randrange(signed_len)
        mutated = bytearray(blob)
        mutated[i] ^= 1 << rng.randrange(8)
        status = verify_certificate(Certificate.from_bytes(bytes(mutated)), NOW)
        assert status is CertStatus.BAD_SIGNATURE
