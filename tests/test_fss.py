import hashlib
import time
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from wire_edits import edited, round_trips_or_raises

from discoverfriends.fss import (
    SLOT_HEADER_LEN,
    DpfKey,
    DpfParams,
    Epoch,
    EpochInvalid,
    EpochServer,
    SealedEpochError,
    ShareDatabase,
    client_check_in,
    close_epoch,
    decode_slot,
    dpf_eval,
    dpf_gen,
    encode_slot,
    eval_full,
    server_accumulate,
)


def _combine_keys(keys, params):
    db = ShareDatabase.zeros(params)
    for key in keys:
        db.xor_update(eval_full(key))
    return db


def _point_table(alpha, beta, params):
    """Brute-force oracle: the database a point function should produce."""
    table = np.zeros((params.domain_size, params.output_len), dtype=np.uint8)
    table[alpha] = np.frombuffer(beta, dtype=np.uint8)
    return table


# --- parameters -------------------------------------------------------------

def test_grid_geometry():
    params = DpfParams(11, 187, 2)
    assert (params.grid_rows, params.grid_cols) == (64, 32)
    assert params.grid_rows * params.grid_cols == params.domain_size == 2048
    even = DpfParams(4, 1, 2)
    assert (even.grid_rows, even.grid_cols) == (4, 4)


def test_param_validation():
    with pytest.raises(ValueError):
        DpfParams(0, 1, 2)
    with pytest.raises(ValueError):
        DpfParams(4, 0, 2)
    with pytest.raises(ValueError):
        DpfParams(4, 1, 1)
    with pytest.raises(ValueError):
        DpfParams(4, 1, 9)
    assert DpfParams(4, 1, 8).seeds_per_row == 128


def test_gen_argument_validation():
    params = DpfParams(3, 2, 2)
    with pytest.raises(ValueError):
        dpf_gen(8, b"ab", params, 0)
    with pytest.raises(ValueError):
        dpf_gen(0, b"abc", params, 0)


# --- core correctness -------------------------------------------------------

def test_two_party_defining_example():
    params = DpfParams(2, 1, 2)
    keys = dpf_gen(1, b"\x5a", params, rng=42)
    combined = [
        bytes(a ^ b for a, b in zip(dpf_eval(keys[0], x), dpf_eval(keys[1], x)))
        for x in range(4)
    ]
    assert combined == [b"\x00", b"\x5a", b"\x00", b"\x00"]


def test_zero_beta_evaluates_to_zero_everywhere():
    params = DpfParams(4, 3, 2)
    keys = dpf_gen(9, bytes(3), params, rng=7)
    db = _combine_keys(keys, params)
    assert not db.slots.any()


def test_three_party_brute_force():
    params = DpfParams(4, 2, 3)
    rng = Random(13)
    alpha = rng.randrange(16)
    beta = rng.randbytes(2)
    keys = dpf_gen(alpha, beta, params, rng=rng)
    db = _combine_keys(keys, params)
    assert np.array_equal(db.slots, _point_table(alpha, beta, params))


@pytest.mark.parametrize("party_count", [2, 3])
def test_random_instances_match_brute_force(party_count):
    rng = Random(party_count * 101)
    for _ in range(25):
        n = rng.randrange(1, 9)
        m = rng.randrange(1, 9)
        params = DpfParams(n, m, party_count)
        alpha = rng.randrange(params.domain_size)
        beta = rng.randbytes(m)
        keys = dpf_gen(alpha, beta, params, rng=rng.randrange(2**32))
        db = _combine_keys(keys, params)
        assert np.array_equal(db.slots, _point_table(alpha, beta, params))


def test_gen_is_deterministic_from_seed():
    params = DpfParams(6, 4, 3)
    a = dpf_gen(17, b"abcd", params, rng=555)
    b = dpf_gen(17, b"abcd", params, rng=555)
    assert [k.to_bytes() for k in a] == [k.to_bytes() for k in b]
    c = dpf_gen(17, b"abcd", params, rng=556)
    assert [k.to_bytes() for k in a] != [k.to_bytes() for k in c]


def test_eval_deterministic_and_range_checked():
    params = DpfParams(5, 3, 2)
    keys = dpf_gen(11, b"xyz", params, rng=3)
    assert dpf_eval(keys[0], 7) == dpf_eval(keys[0], 7)
    with pytest.raises(ValueError):
        dpf_eval(keys[0], 32)


def test_eval_full_matches_pointwise():
    params = DpfParams(7, 5, 3)
    keys = dpf_gen(77, b"hello", params, rng=1)
    rng = Random(2)
    for key in keys:
        full = eval_full(key)
        for _ in range(100):
            x = rng.randrange(params.domain_size)
            assert full.slot(x) == dpf_eval(key, x)


# SHA-256 of each party's eval_full(key).to_bytes() for
# dpf_gen(alpha, encode_slot(b"pin", output_len), DpfParams(n, output_len, p), rng=seed).
EVAL_FULL_KNOWN_ANSWERS = [
    ((14, 187, 2), 12345, 7, [
        "ce6d11af5f30412c163f0e63b3de09c459bbbdd46bc0077e40056649e342ae93",
        "66ad19fcb2b087ede5b01091ac94c139fd92032f1f3ff5d9d49cd89e8c2d64b2",
    ]),
    ((11, 61, 3), 1000, 8, [
        "ca0a0a6743982ab624287fc474ab8edfa77689c226e1e1d4d648ec96fe4ee814",
        "bdb887aad92450bc26667f5fe2b60622e917f5ca9d0f664b28e5688c16eef0a1",
        "f741041532834660b16ad88e0e7eba5d2a4c688958a45e4ff91181a16309f120",
    ]),
    ((5, 7, 2), 17, 9, [
        "dd989db0305be116ef88e9df3f650e35072b34dd14941b159d164c50825e695e",
        "696668e9730d5ff08ada59cfca595c00cf457c3426b1ff163e84fd5866e97f8d",
    ]),
]


@pytest.mark.parametrize("shape, alpha, seed, digests", EVAL_FULL_KNOWN_ANSWERS)
def test_eval_full_known_answers(shape, alpha, seed, digests):
    params = DpfParams(*shape)
    keys = dpf_gen(alpha, encode_slot(b"pin", params.output_len), params, rng=seed)
    assert [hashlib.sha256(eval_full(k).to_bytes()).hexdigest() for k in keys] == digests


# SHA-256 of each party's key.to_bytes() for the dpf_gen calls of EVAL_FULL_KNOWN_ANSWERS.
KEY_BYTES_KNOWN_ANSWERS = [
    ((14, 187, 2), 12345, 7, [
        "e290758705a452595e8a9f9bcb57d51750eef2af57d61cbc34c18dd84734e3bd",
        "f0aa07c644bdbd55cc804f91642cf38167d4d544334a4e9cdb57c0dc19fccb75",
    ]),
    ((11, 61, 3), 1000, 8, [
        "a838395cf8f1bb1549d0714f79a13147129c6d1a5795507e3dd051793847d3e2",
        "0e65001dff21ea635d5001b13e0fa8016711ac45f30c992abcfa4a27ae370bc6",
        "a98f2076a10ef8c34fb0ac27182fe4d9335a1c009c24692305ff817361fb4b18",
    ]),
    ((5, 7, 2), 17, 9, [
        "f7c314ca1e45099037825154a44e77748373a6b5db58b81382d5a655f461a274",
        "92598c3486698d106c25c35a37b15e0ffdaf65c057c73619b0641bf14ad7cdc8",
    ]),
]


@pytest.mark.parametrize("shape, alpha, seed, digests", KEY_BYTES_KNOWN_ANSWERS)
def test_key_bytes_known_answers(shape, alpha, seed, digests):
    params = DpfParams(*shape)
    keys = dpf_gen(alpha, encode_slot(b"pin", params.output_len), params, rng=seed)
    assert [hashlib.sha256(k.to_bytes()).hexdigest() for k in keys] == digests


def _undo_right_shift(y, shift):
    x = y
    for _ in range(32 // shift):
        x = y ^ (x >> shift)
    return x


def _undo_left_shift(y, shift, mask):
    x = y
    for _ in range(32 // shift):
        x = y ^ ((x << shift) & mask)
    return x


def _predicts_next_word(words):
    """Whether 624 MT19937 outputs, untempered into a cloned Random, predict the 625th."""
    state = []
    for y in words[:624]:
        y = _undo_right_shift(int(y), 18)
        y = _undo_left_shift(y, 15, 0xEFC60000)
        y = _undo_left_shift(y, 7, 0x9D2C5680)
        state.append(_undo_right_shift(y, 11))
    clone = Random()
    clone.setstate((3, (*state, 624), None))
    return clone.getrandbits(32) == int(words[624])


def test_default_rng_keys_do_not_reveal_the_generator():
    # A p=2 key's one random correction word is 2,992 bytes of raw generator output.
    params = DpfParams(8, 187, 2)

    def word_outputs(rng):
        key = dpf_gen(3, bytes(187), params, rng=rng)[0]
        return np.frombuffer(bytes(key.correction_words[0]), dtype="<u4")

    assert _predicts_next_word(word_outputs(Random(5)))  # the clone works on an MT stream
    assert not _predicts_next_word(word_outputs(None))


@settings(max_examples=40, deadline=None)
@given(
    party_count=st.sampled_from([2, 3]),
    input_bits=st.integers(1, 9),
    output_len=st.integers(1, 40),
    data=st.data(),
)
def test_eval_full_is_pointwise_and_parties_xor_to_point_function(
    party_count, input_bits, output_len, data
):
    # Odd and even input_bits give square and 2:1 grids; most output_len
    # values make word_len a non-multiple of the 16-byte block.
    params = DpfParams(input_bits, output_len, party_count)
    alpha = data.draw(st.integers(0, params.domain_size - 1))
    beta = data.draw(st.binary(min_size=output_len, max_size=output_len))
    keys = dpf_gen(alpha, beta, params, rng=data.draw(st.integers(0, 2**32)))
    fulls = [eval_full(key) for key in keys]
    for key, full in zip(keys, fulls):
        for x in data.draw(st.lists(st.integers(0, params.domain_size - 1), min_size=1, max_size=5)):
            assert full.slot(x) == dpf_eval(key, x)
    combined = ShareDatabase.zeros(params)
    for full in fulls:
        combined.xor_update(full)
    assert np.array_equal(combined.slots, _point_table(alpha, beta, params))


def test_single_party_output_bit_balance():
    # Pseudorandomness smoke test: a lone share looks like coin flips.
    params = DpfParams(8, 8, 2)
    keys = dpf_gen(100, b"A" * 8, params, rng=2024)
    for key in keys:
        share = eval_full(key)
        total_bits = share.slots.size * 8
        assert total_bits >= 10_000
        ones = int(np.unpackbits(share.slots).sum())
        assert abs(ones / total_bits - 0.5) <= 0.05


def test_strict_subsets_never_reveal_beta():
    rng = Random(31)
    for trial in range(100):
        p = rng.choice([2, 3])
        params = DpfParams(rng.randrange(2, 7), rng.randrange(2, 6), p)
        alpha = rng.randrange(params.domain_size)
        beta = rng.randbytes(params.output_len)
        keys = dpf_gen(alpha, beta, params, rng=rng.randrange(2**32))
        for mask in range(1, (1 << p) - 1):
            partial = ShareDatabase.zeros(params)
            for i in range(p):
                if (mask >> i) & 1:
                    partial.xor_update(eval_full(keys[i]))
            assert partial.slot(alpha) != beta


def test_partial_databases_pass_bit_balance():
    params = DpfParams(8, 8, 3)
    keys = dpf_gen(33, b"B" * 8, params, rng=77)
    for mask in (0b001, 0b011, 0b101):
        partial = ShareDatabase.zeros(params)
        for i in range(3):
            if (mask >> i) & 1:
                partial.xor_update(eval_full(keys[i]))
        ones = int(np.unpackbits(partial.slots).sum())
        assert abs(ones / (partial.slots.size * 8) - 0.5) <= 0.05


def test_key_wire_round_trip():
    params = DpfParams(6, 7, 3)
    keys = dpf_gen(40, b"1234567", params, rng=5)
    for key in keys:
        blob = key.to_bytes()
        restored = DpfKey.from_bytes(blob)
        assert restored == key
        assert restored.to_bytes() == blob


def test_key_wire_rejects_malformed():
    params = DpfParams(4, 3, 2)
    blob = dpf_gen(5, b"abc", params, rng=5)[0].to_bytes()
    with pytest.raises(ValueError):
        DpfKey.from_bytes(blob[:4])
    with pytest.raises(ValueError):
        DpfKey.from_bytes(blob + b"\x00")
    with pytest.raises(ValueError):
        DpfKey.from_bytes(b"\x05" + blob[1:])  # party index out of range


@pytest.mark.parametrize("party_count", [9, 64, 255])
def test_key_decode_rejects_large_party_counts_quickly(party_count):
    # Before the cap, decoding walked 2^(p-1) seed slots per row first.
    start = time.perf_counter()
    with pytest.raises(ValueError):
        DpfKey.from_bytes(bytes([0, 1, party_count, 1, 0, 0, 0]))
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("party_count", [2, 3])
def test_key_decode_rejects_mask_bits_past_seeds_per_row(party_count):
    params = DpfParams(4, 3, party_count)
    blob = bytearray(dpf_gen(5, b"abc", params, rng=5)[0].to_bytes())
    blob[-1] |= 1 << params.seeds_per_row  # the lowest spare bit of the last row's mask
    with pytest.raises(ValueError, match="past slot"):
        DpfKey.from_bytes(bytes(blob))


def test_key_decode_checks_length_before_parsing():
    params = DpfParams(11, 187, 3)
    blob = dpf_gen(5, bytes(187), params, rng=5)[1].to_bytes()
    assert len(blob) == params.key_len
    for bad in (blob[:-1], blob + b"\x00"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="key encoding must be"):
            DpfKey.from_bytes(bad)
        assert time.perf_counter() - start < 0.1


@settings(max_examples=200, deadline=None)
@given(party_count=st.sampled_from([2, 3]), input_bits=st.integers(1, 6),
       output_len=st.integers(1, 8), data=st.data())
def test_key_decode_round_trips_or_raises(party_count, input_bits, output_len, data):
    params = DpfParams(input_bits, output_len, party_count)
    keys = dpf_gen(0, bytes(output_len), params, rng=data.draw(st.integers(0, 2**32)))
    blob = keys[data.draw(st.integers(0, party_count - 1))].to_bytes()
    round_trips_or_raises(DpfKey.from_bytes, edited(blob, data))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_database_decode_round_trips_or_raises(data):
    params = DpfParams(4, 6, 2)
    blob = data.draw(st.binary(min_size=96, max_size=96))
    round_trips_or_raises(lambda b: ShareDatabase.from_bytes(b, params), edited(blob, data))


@settings(max_examples=40, deadline=None)
@given(
    input_bits=st.integers(1, 10),
    output_len=st.sampled_from([1, 7, 16, 62, 187]),
    party_count=st.sampled_from([2, 3, 4]),
    data=st.data(),
)
def test_eval_full_folds_into_a_given_database(input_bits, output_len, party_count, data):
    params = DpfParams(input_bits, output_len, party_count)
    alpha = data.draw(st.integers(0, params.domain_size - 1))
    beta = data.draw(st.binary(min_size=output_len, max_size=output_len))
    key = dpf_gen(alpha, beta, params, rng=data.draw(st.integers(0, 2**32)))[0]
    fresh = eval_full(key)
    base = ShareDatabase(np.frombuffer(
        Random(data.draw(st.integers(0, 2**32))).randbytes(params.domain_size * output_len),
        dtype=np.uint8,
    ).reshape(params.domain_size, output_len).copy())
    base.slots[alpha] |= 1  # never all zero
    into = base.copy()
    assert eval_full(key, into) is into
    assert np.array_equal(into.slots, base.slots ^ fresh.slots)
    for x in data.draw(st.lists(st.integers(0, params.domain_size - 1), min_size=1, max_size=4)):
        assert dpf_eval(key, x) == fresh.slot(x)


def test_eval_full_rejects_databases_it_cannot_fold_into():
    params = DpfParams(4, 3, 2)
    key = dpf_gen(5, b"abc", params, rng=5)[0]
    with pytest.raises(ValueError, match="dimensions"):
        eval_full(key, ShareDatabase.zeros(DpfParams(4, 4, 2)))
    with pytest.raises(ValueError, match="dimensions"):
        eval_full(key, ShareDatabase.zeros(DpfParams(5, 3, 2)))
    read_only = np.frombuffer(bytes(48), dtype=np.uint8).reshape(16, 3)
    assert not read_only.flags.writeable
    with pytest.raises(ValueError, match="writeable"):
        eval_full(key, ShareDatabase(read_only))
    strided = np.zeros((16, 6), dtype=np.uint8)[:, ::2]
    assert strided.shape == (16, 3) and not strided.flags.c_contiguous
    with pytest.raises(ValueError, match="C-contiguous"):
        eval_full(key, ShareDatabase(strided))
    assert not strided.any()


def test_empty_row_selection_rejected():
    params = DpfParams(4, 3, 2)
    key = dpf_gen(5, b"abc", params, rng=5)[0]
    key.selection[2] = False
    with pytest.raises(ValueError, match="no selected seeds"):
        eval_full(key)
    with pytest.raises(ValueError, match="no selected seeds"):
        dpf_eval(key, 2 * params.grid_cols)
    # Checked before any row is folded, so a server's delta is left as it
    # was; one 256 KiB row per chunk puts rows 0 and 1 in earlier chunks.
    wide = DpfParams(4, 1 << 16, 2)
    key = dpf_gen(5, bytes(1 << 16), wide, rng=5)[0]
    key.selection[2] = False
    epoch = Epoch(epoch_id=1, params=wide)
    with pytest.raises(ValueError, match="no selected seeds"):
        server_accumulate(epoch, key)
    assert not epoch.delta_share.slots.any()


# --- epochs and accumulation ------------------------------------------------

def test_accumulate_is_order_independent():
    params = DpfParams(5, 4, 2)
    k1 = dpf_gen(3, b"aaaa", params, rng=1)[0]
    k2 = dpf_gen(9, b"bbbb", params, rng=2)[0]
    e1 = Epoch(epoch_id=1, params=params)
    server_accumulate(e1, k1)
    server_accumulate(e1, k2)
    e2 = Epoch(epoch_id=1, params=params)
    server_accumulate(e2, k2)
    server_accumulate(e2, k1)
    assert e1.delta_share == e2.delta_share


def test_accumulating_same_key_twice_cancels():
    params = DpfParams(5, 4, 2)
    key = dpf_gen(3, b"aaaa", params, rng=1)[0]
    epoch = Epoch(epoch_id=1, params=params)
    server_accumulate(epoch, key)
    server_accumulate(epoch, key)
    assert not epoch.delta_share.slots.any()


def test_accumulate_linearity():
    params = DpfParams(5, 4, 2)
    k1 = dpf_gen(3, b"aaaa", params, rng=1)[0]
    k2 = dpf_gen(9, b"bbbb", params, rng=2)[0]
    epoch = Epoch(epoch_id=1, params=params)
    server_accumulate(epoch, k1)
    server_accumulate(epoch, k2)
    expected = eval_full(k1)
    expected.xor_update(eval_full(k2))
    assert epoch.delta_share == expected


def test_one_client_two_servers_deltas_reconstruct():
    params = DpfParams(6, 5, 2)
    keys = dpf_gen(44, b"early", params, rng=10)
    epochs = [Epoch(epoch_id=1, params=params) for _ in range(2)]
    for epoch, key in zip(epochs, keys):
        server_accumulate(epoch, key)
    combined = epochs[0].delta_share.copy()
    combined.xor_update(epochs[1].delta_share)
    assert combined.slot(44) == b"early"
    assert not np.delete(combined.slots, 44, axis=0).any()


# --- check-ins ---------------------------------------------------------------

def test_check_in_160_byte_message_recoverable():
    params = DpfParams(8, 187, 2)
    message = b"m" * 160
    index, keys = client_check_in(message, params, rng=404)
    db = _combine_keys(keys, params)
    kind, payload = decode_slot(db.slot(index))
    assert (kind, payload) == ("message", message)


def test_check_in_rejects_oversize():
    params = DpfParams(6, 32, 2)
    with pytest.raises(ValueError):
        client_check_in(b"x" * 29, params, rng=1)  # 4-byte header leaves 28


def test_check_in_index_uniformity():
    params = DpfParams(6, 8, 2)
    rng = Random(3141)
    counts = [0] * params.domain_size
    for _ in range(10_000):
        counts[rng.randrange(params.domain_size)] += 1
    # the index draw inside client_check_in uses the same generator API;
    # sample it directly through the public call for a smaller run too
    direct = [0] * params.domain_size
    gen = Random(2718)
    for _ in range(2_000):
        index, _ = client_check_in(b"m", params, rng=gen)
        direct[index] += 1
    assert stats.chisquare(counts).pvalue >= 0.01
    assert stats.chisquare(direct).pvalue >= 0.01


def test_forced_collision_is_detected_not_corrected():
    params = DpfParams(5, 16, 2)
    index = 7
    keys_a = dpf_gen(index, encode_slot(b"first", 16), params, rng=1)
    keys_b = dpf_gen(index, encode_slot(b"second!", 16), params, rng=2)
    db = ShareDatabase.zeros(params)
    for keys in (keys_a, keys_b):
        for key in keys:
            db.xor_update(eval_full(key))
    kind, _ = decode_slot(db.slot(index))
    assert kind == "garbled"


def test_slot_codec_edges():
    assert decode_slot(bytes(32)) == ("empty", None)
    assert decode_slot(encode_slot(b"", 32)) == ("message", b"")
    assert decode_slot(b"\x01\x00\x00\x00" + bytes(28))[0] == "garbled"  # bad complement
    blob = bytearray(encode_slot(b"ok", 32))
    blob[-1] = 5  # dirt in the zero padding
    assert decode_slot(bytes(blob))[0] == "garbled"
    blob = bytearray(encode_slot(b"ok", 32))
    blob[6] = 1  # dirt in the first padding byte
    assert decode_slot(bytes(blob))[0] == "garbled"
    assert decode_slot(encode_slot(b"\xff" * 28, 32)) == ("message", b"\xff" * 28)  # no padding
    assert decode_slot(bytes(31) + b"\x01")[0] == "garbled"  # one stray byte is not empty


@st.composite
def _sparse_databases(draw):
    """A mostly empty database: valid slots, random rows, single stray bytes and zero rows."""
    params = DpfParams(draw(st.integers(1, 8)), draw(st.integers(SLOT_HEADER_LEN, 24)), 2)
    db = ShareDatabase.zeros(params)
    width = params.output_len
    for index in draw(st.lists(st.integers(0, params.domain_size - 1), max_size=12)):
        kind = draw(st.sampled_from(["message", "random", "stray", "zero"]))
        if kind == "message":
            row = encode_slot(draw(st.binary(max_size=width - SLOT_HEADER_LEN)), width)
        elif kind == "random":
            row = draw(st.binary(min_size=width, max_size=width))
        elif kind == "stray":
            row = bytearray(width)
            row[draw(st.integers(0, width - 1))] = draw(st.integers(1, 255))
        else:
            row = bytes(width)
        db.slots[index] = np.frombuffer(bytes(row), dtype=np.uint8)
    return db


@settings(max_examples=200, deadline=None)
@given(db=_sparse_databases())
def test_decoded_agrees_with_decode_slot(db):
    # decode_slot over every slot is the oracle for the one-scan reader
    slots = (decode_slot(db.slot(i)) for i in range(len(db.slots)))
    expected = {i: payload for i, (kind, payload) in enumerate(slots) if kind != "empty"}
    assert db.decoded() == expected


# --- server endpoint ----------------------------------------------------------

def _run_epoch(servers, params, writers, epoch_id=1):
    for cid, (alpha, beta) in writers.items():
        keys = dpf_gen(alpha, encode_slot(beta, params.output_len), params, rng=alpha)
        for server, key in zip(servers, keys):
            server.submit(epoch_id, key, client_id=cid)
    return close_epoch(servers, epoch_id)


def test_epoch_server_end_to_end():
    params = DpfParams(6, 16, 2)
    servers = [EpochServer(i, params, peer_count=2) for i in range(2)]
    writers = {"c1": (5, b"van"), "c2": (40, b"park")}
    outputs = _run_epoch(servers, params, writers)
    assert outputs[0] == outputs[1]
    assert ShareDatabase.from_bytes(outputs[0], params).decoded() == {5: b"van", 40: b"park"}


def test_epoch_server_rejects_peer_count_other_than_party_count():
    # Three 3-party servers told of 2 peers used to output after one remote delta.
    params = DpfParams(6, 16, 3)
    with pytest.raises(ValueError, match="peer_count"):
        EpochServer(0, params, peer_count=2)
    with pytest.raises(ValueError, match="peer_count"):
        EpochServer(0, params, peer_count=4)
    servers = [EpochServer(i, params, peer_count=3) for i in range(3)]
    for server in servers:
        server.seal(1)
    servers[0].exchange(1, servers[1].delta_bytes(1), servers[1].membership(1))
    with pytest.raises(EpochInvalid, match="have 1 of 2"):
        servers[0].output(1)


def test_sealed_epoch_rejects_accumulation():
    params = DpfParams(4, 2, 2)
    server = EpochServer(0, params, peer_count=2)
    key = dpf_gen(1, b"zz", params, rng=1)[0]
    server.seal(1)
    with pytest.raises(SealedEpochError):
        server.submit(1, key, client_id="late")
    with pytest.raises(SealedEpochError):
        server.seal(1)
    assert server.membership(1) == EpochServer(0, params, peer_count=2).membership(1)


def test_close_epoch_multi_client():
    params = DpfParams(6, 4, 3)
    rng = Random(50)
    writes = {1: b"aaaa", 17: b"bbbb", 60: b"cccc"}
    servers = [EpochServer(i, params, peer_count=3) for i in range(3)]
    own = [ShareDatabase.zeros(params) for _ in servers]
    for alpha, beta in writes.items():
        keys = dpf_gen(alpha, beta, params, rng=rng.randrange(2**32))
        for server, delta, key in zip(servers, own, keys):
            server.submit(9, key, client_id=f"c{alpha}")
            delta.xor_update(eval_full(key))
    outputs = close_epoch(servers, 9)
    assert outputs[0] == outputs[1] == outputs[2]  # every server computes the same database
    expected = np.zeros((params.domain_size, params.output_len), dtype=np.uint8)
    for alpha, beta in writes.items():
        expected[alpha] = np.frombuffer(beta, dtype=np.uint8)
    assert outputs[0] == expected.tobytes()
    # output combines into a copy, so each server still serves its own delta
    assert [server.delta_bytes(9) for server in servers] == [d.to_bytes() for d in own]
    assert [server.output(9) for server in servers] == outputs


def test_output_requires_seal_and_matching_delta_length():
    params = DpfParams(4, 2, 2)
    servers = [EpochServer(i, params, peer_count=2) for i in range(2)]
    with pytest.raises(SealedEpochError):
        servers[0].output(1)
    for server in servers:
        server.seal(1)
    short = servers[1].delta_bytes(1)[:-1]
    with pytest.raises(ValueError, match="database must be"):
        servers[0].exchange(1, short, servers[1].membership(1))
    wider = ShareDatabase.zeros(DpfParams(5, 2, 2)).to_bytes()
    with pytest.raises(ValueError, match="database must be"):
        servers[0].exchange(1, wider, servers[1].membership(1))
    with pytest.raises(EpochInvalid):
        servers[0].output(1)  # neither bad delta was kept


def test_zero_clients_all_zero_output():
    params = DpfParams(4, 2, 2)
    servers = [EpochServer(i, params, peer_count=2) for i in range(2)]
    outputs = close_epoch(servers, 1)
    assert outputs == [bytes(params.domain_size * params.output_len)] * 2
    assert ShareDatabase.from_bytes(outputs[0], params).decoded() == {}


def test_epoch_server_rejects_duplicate_client_before_accumulating():
    params = DpfParams(6, 16, 2)
    servers = [EpochServer(i, params, peer_count=2) for i in range(2)]
    keys = dpf_gen(5, encode_slot(b"van", 16), params, rng=5)
    for server, key in zip(servers, keys):
        server.submit(1, key, client_id="c1")
    digest = servers[0].membership(1)
    replay = dpf_gen(40, encode_slot(b"park", 16), params, rng=40)
    for server, key in zip(servers, keys):
        with pytest.raises(ValueError):
            server.submit(1, key, client_id="c1")  # the same key replayed
    with pytest.raises(ValueError):
        servers[0].submit(1, replay[0], client_id="c1")  # a new key under a used id
    assert servers[0].membership(1) == servers[1].membership(1) == digest
    db = ShareDatabase.from_bytes(close_epoch(servers, 1)[0], params)
    assert db.decoded() == {5: b"van"}  # slot 40 stays empty


def test_epoch_server_rejects_misrouted_key():
    params = DpfParams(4, 8, 2)
    server = EpochServer(0, params, peer_count=2)
    keys = dpf_gen(1, encode_slot(b"x", 8), params, rng=1)
    with pytest.raises(ValueError):
        server.submit(1, keys[1], client_id="c")


def test_epoch_strict_membership_fail_closed():
    # A client that submits to only one server invalidates the epoch.
    params = DpfParams(4, 8, 2)
    servers = [EpochServer(i, params, peer_count=2) for i in range(2)]
    keys = dpf_gen(3, encode_slot(b"x", 8), params, rng=9)
    servers[0].submit(1, keys[0], client_id="lonely")
    for server in servers:
        server.seal(1)
    with pytest.raises(EpochInvalid):
        servers[1].exchange(1, servers[0].delta_bytes(1), servers[0].membership(1))


def test_exchange_requires_seal():
    params = DpfParams(4, 8, 2)
    server = EpochServer(0, params, peer_count=2)
    keys = dpf_gen(3, encode_slot(b"x", 8), params, rng=9)
    server.submit(1, keys[0], client_id="c")
    with pytest.raises(SealedEpochError):
        server.delta_bytes(1)
    with pytest.raises(SealedEpochError):
        server.exchange(1, b"", b"")


def test_output_requires_all_deltas():
    params = DpfParams(4, 8, 2)
    server = EpochServer(0, params, peer_count=2)
    server.seal(1)
    with pytest.raises(EpochInvalid):
        server.output(1)


def test_duplicate_exchange_rejected():
    params = DpfParams(4, 8, 2)
    servers = [EpochServer(i, params, peer_count=2) for i in range(2)]
    for server in servers:
        server.seal(1)
    servers[0].exchange(1, servers[1].delta_bytes(1), servers[1].membership(1))
    with pytest.raises(EpochInvalid):
        servers[0].exchange(1, servers[1].delta_bytes(1), servers[1].membership(1))
