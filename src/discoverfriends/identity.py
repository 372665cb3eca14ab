"""Confidential social-network identities and the digests derived from them.

A user's per-network ID never leaves the device in the clear. Everything
downstream works with a 128-bit composite digest: the truncated SHA-1 of
a single network ID, or the XOR of several networks' digests when the
same person must be recognizable only to friends on all of them.

The digest doubles as the identity-derived symmetric key, and expands
deterministically into an m-bit mask used to blend a sender fingerprint
into a Bloom filter.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from . import bloom, crypto

DIGEST_LEN = 16


@dataclass(frozen=True)
class OsnId:
    """One social network's confidential identifier for a user."""

    osn_name: str
    id_value: bytes

    def __post_init__(self) -> None:
        if not self.id_value:
            raise ValueError("id_value must be non-empty")

    def digest(self) -> bytes:
        return hashlib.sha1(self.id_value).digest()[:DIGEST_LEN]


@dataclass(frozen=True)
class CompositeId:
    """128-bit identity digest, possibly spanning several networks."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != DIGEST_LEN:
            raise ValueError(f"digest must be {DIGEST_LEN} bytes")

    def hex(self) -> str:
        return self.digest.hex()


def composite_of(ids: list[OsnId]) -> CompositeId:
    """Combine per-network digests by XOR; order-independent.

    Duplicate digests are rejected: x XOR x would zero the identity out.
    """
    if not ids:
        raise ValueError("at least one network ID is required")
    digests = [i.digest() for i in ids]
    if len(set(digests)) != len(digests):
        raise ValueError("duplicate network IDs would cancel to zero")
    acc = bytes(DIGEST_LEN)
    for d in digests:
        acc = crypto.xor_bytes(acc, d)
    return CompositeId(acc)


def id_mask(composite: CompositeId, m_bits: int) -> bytes:
    """Expand the digest into an m-bit mask via the seeded keystream.

    Bits past m_bits in the final byte are zeroed so masks compare and
    XOR cleanly against same-sized Bloom filter bit arrays.
    """
    if m_bits < 1:
        raise ValueError("m_bits must be >= 1")
    raw = crypto.keystream(composite.digest, (m_bits + 7) // 8)
    return bloom.clear_spare_bits(raw, m_bits)


def sym_key_of(composite: CompositeId) -> crypto.SymmetricKey:
    """Identity-derived AES key: the 128-bit digest itself."""
    return crypto.SymmetricKey(composite.digest)


@dataclass
class FriendList:
    """Display names keyed by composite digest; composites are unique."""

    _entries: dict[bytes, tuple[str, CompositeId]] = field(default_factory=dict)

    def add(self, display_name: str, composite: CompositeId) -> None:
        if composite.digest in self._entries:
            raise ValueError(f"duplicate friend digest {composite.hex()}")
        self._entries[composite.digest] = (display_name, composite)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, composite: CompositeId) -> bool:
        return composite.digest in self._entries

    def name_of(self, composite: CompositeId) -> str | None:
        entry = self._entries.get(composite.digest)
        return entry[0] if entry else None

    def composites(self) -> list[CompositeId]:
        return [c for _, c in self._entries.values()]
