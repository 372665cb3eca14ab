"""Hypothesis helpers for the round-trip-or-ValueError property of wire decoders."""

import time

from hypothesis import strategies as st


def edited(blob, data):
    """``blob`` kept, with one bit flipped, cut short or extended; or random bytes."""
    blob = bytearray(blob)
    edit = data.draw(st.sampled_from(["keep", "flip", "cut", "extend", "random"]))
    if edit == "flip":
        bit = data.draw(st.integers(0, len(blob) * 8 - 1))
        blob[bit // 8] ^= 1 << (bit % 8)
    elif edit == "cut":
        del blob[data.draw(st.integers(0, len(blob) - 1)) :]
    elif edit == "extend":
        blob += data.draw(st.binary(min_size=1, max_size=8))
    elif edit == "random":
        blob = bytearray(data.draw(st.binary(max_size=64)))
    return bytes(blob)


def round_trips_or_raises(decode, blob):
    """``decode(blob)`` raises ValueError or re-encodes to ``blob``, within 0.1 s."""
    start = time.perf_counter()
    try:
        value = decode(blob)
    except ValueError:
        value = None
    assert time.perf_counter() - start < 0.1
    if value is not None:
        assert value.to_bytes() == blob
