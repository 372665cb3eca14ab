"""Bloom filter sized for a target false-positive probability.

The filter is an m-bit array probed by k hash functions. Sizing follows
the classic optimum for n expected insertions and false-positive rate p:

    m = -n * ln(p) / (ln 2)^2        (rounded up)
    k = (m / n) * ln 2               (rounded to nearest, at least 1)

Probe positions come from a 32-bit murmur3 pair combined with the
Kirsch-Mitzenmacher double-hashing scheme h_i = (h1 + i*h2) mod m, so a
single element costs two hash passes regardless of k.

Filters here additionally support XOR-masking of the whole bit array,
which the discovery handshake uses to piggyback a sender fingerprint on
top of the membership filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import crypto

_M32 = 0xFFFFFFFF

# Distinct seeds for the double-hashing pair.
_SEED_H1 = 0x9747B28C
_SEED_H2 = 0x5BD1E995


def _rotl32(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & _M32


def murmur3_32(data: bytes, seed: int = 0) -> int:
    """murmur3 x86 32-bit digest of ``data`` under ``seed``."""
    c1, c2 = 0xCC9E2D51, 0x1B873593
    h = seed & _M32
    n = len(data)
    nblocks = n // 4
    for i in range(0, nblocks * 4, 4):
        k = int.from_bytes(data[i : i + 4], "little")
        k = (k * c1) & _M32
        k = _rotl32(k, 15)
        k = (k * c2) & _M32
        h ^= k
        h = _rotl32(h, 13)
        h = (h * 5 + 0xE6546B64) & _M32
    k = 0
    tail = data[nblocks * 4 :]
    if len(tail) >= 3:
        k ^= tail[2] << 16
    if len(tail) >= 2:
        k ^= tail[1] << 8
    if len(tail) >= 1:
        k ^= tail[0]
        k = (k * c1) & _M32
        k = _rotl32(k, 15)
        k = (k * c2) & _M32
        h ^= k
    h ^= n
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & _M32
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & _M32
    h ^= h >> 16
    return h


@dataclass(frozen=True)
class BloomParams:
    """Filter geometry derived from capacity and false-positive target."""

    n_items: int
    fpp: float
    m_bits: int
    k_hashes: int

    def __post_init__(self) -> None:
        if self.n_items < 1:
            raise ValueError(f"n_items must be >= 1, got {self.n_items}")
        if not 0.0 < self.fpp < 1.0:
            raise ValueError(f"fpp must be in (0, 1), got {self.fpp}")
        m, k = _optimal_geometry(self.n_items, self.fpp)
        if (self.m_bits, self.k_hashes) != (m, k):
            raise ValueError(
                f"inconsistent geometry: expected m={m}, k={k} "
                f"for (n={self.n_items}, p={self.fpp})"
            )

    @property
    def byte_length(self) -> int:
        """Payload bytes needed to hold the bit array."""
        return (self.m_bits + 7) // 8


def _optimal_geometry(n_items: int, fpp: float) -> tuple[int, int]:
    m = math.ceil(-n_items * math.log(fpp) / (math.log(2) ** 2))
    k = max(1, round(m / n_items * math.log(2)))
    return m, k


def derive_params(n_items: int, fpp: float) -> BloomParams:
    """Size a filter for ``n_items`` insertions at false-positive rate ``fpp``."""
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    if not 0.0 < fpp < 1.0:
        raise ValueError(f"fpp must be in (0, 1), got {fpp}")
    m, k = _optimal_geometry(n_items, fpp)
    return BloomParams(n_items=n_items, fpp=fpp, m_bits=m, k_hashes=k)


def hash_positions(element: bytes, params: BloomParams) -> list[int]:
    """The k probe positions of ``element``, each in [0, m_bits)."""
    h1 = murmur3_32(element, _SEED_H1)
    h2 = murmur3_32(element, _SEED_H2)
    m = params.m_bits
    return [(h1 + i * h2) % m for i in range(params.k_hashes)]


class BloomFilter:
    """Immutable-style filter: ``insert`` returns a new filter value.

    The bit array is little-endian within bytes: bit i lives in byte
    i // 8 at bit position i % 8. Trailing bits past m_bits stay zero so
    whole-array comparisons and XOR masks are well defined.
    """

    __slots__ = ("params", "bits")

    def __init__(self, params: BloomParams, bits: bytes | None = None):
        self.params = params
        if bits is None:
            bits = bytes(params.byte_length)
        if len(bits) != params.byte_length:
            raise ValueError(
                f"bit array must be {params.byte_length} bytes, got {len(bits)}"
            )
        self.bits = bytes(bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return self.params == other.params and self.bits == other.bits

    def __repr__(self) -> str:
        return (
            f"BloomFilter(m={self.params.m_bits}, k={self.params.k_hashes}, "
            f"popcount={self.popcount()})"
        )

    def popcount(self) -> int:
        return sum(byte.bit_count() for byte in self.bits)

    def insert(self, element: bytes) -> "BloomFilter":
        """Return a new filter that also contains ``element``."""
        buf = bytearray(self.bits)
        for pos in hash_positions(element, self.params):
            buf[pos >> 3] |= 1 << (pos & 7)
        return BloomFilter(self.params, bytes(buf))

    def contains(self, element: bytes) -> bool:
        """True if every probe position of ``element`` is set."""
        bits = self.bits
        for pos in hash_positions(element, self.params):
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
        return True

    def xor_mask(self, mask: bytes) -> "BloomFilter":
        """XOR the full bit array with an equal-length ``mask`` (involutive)."""
        masked = crypto.xor_bytes(self.bits, mask)
        return BloomFilter(self.params, clear_spare_bits(masked, self.params.m_bits))

    def to_bytes(self) -> bytes:
        """Wire form: m_bits u32 LE, k_hashes u32 LE, then the bit array."""
        header = self.params.m_bits.to_bytes(4, "little") + self.params.k_hashes.to_bytes(4, "little")
        return header + self.bits

    @classmethod
    def from_bytes(cls, blob: bytes, n_items: int, fpp: float) -> "BloomFilter":
        """Parse the wire form; geometry must match (n_items, fpp)."""
        if len(blob) < 8:
            raise ValueError("truncated filter: missing header")
        m = int.from_bytes(blob[0:4], "little")
        k = int.from_bytes(blob[4:8], "little")
        params = BloomParams(n_items=n_items, fpp=fpp, m_bits=m, k_hashes=k)
        payload = blob[8:]
        if len(payload) != params.byte_length:
            raise ValueError(
                f"payload must be {params.byte_length} bytes, got {len(payload)}"
            )
        if clear_spare_bits(payload, m) != payload:
            raise ValueError(f"payload sets a bit past m_bits={m}")
        return cls(params, payload)


def clear_spare_bits(bits: bytes, m_bits: int) -> bytes:
    """Zero any bits at positions >= m_bits in the final byte."""
    spare = len(bits) * 8 - m_bits
    if spare == 0:
        return bits
    buf = bytearray(bits)
    buf[-1] &= 0xFF >> spare
    return bytes(buf)
