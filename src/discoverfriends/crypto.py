"""Cipher, key-wrap and certificate primitives shared by the protocol.

Symmetric encryption is AES-128-CBC with PKCS#7 padding plus a 16-byte
keyed authentication tag. The tag doubles as a synthetic IV (SIV style),
so a ciphertext is exactly padded_len(plaintext) + 16 bytes and wrong
keys or tampering are always detected rather than yielding garbage.

Key wrapping and certificate signatures use 1024-bit RSA, giving the
fixed 128-byte blobs the packet accounting relies on. Keys are wrapped
with RSA-OAEP (MGF1/SHA-256), so unwrapping with the wrong private key
raises instead of yielding a bogus key; signatures use PKCS#1 v1.5.
Certificates are a fixed 481-byte binary layout (no ASN.1):

    [subject digest 16B][public key 160B][not_before u64][not_after u64]
    [signature 128B][zero pad to 481B]

with the signature taken over the first 192 bytes.

Identity masks and DPF rows come from one seeded expander,
``keystream_many``; ``keystream`` is its one-seed form, and
``xor_bytes`` is the one bytewise XOR.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from enum import Enum

import numpy as np
from cryptography.hazmat.primitives import hashes, padding
from cryptography.hazmat.primitives.asymmetric import padding as asym_padding
from cryptography.hazmat.primitives.asymmetric import rsa
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

KEY_LEN = 16
TAG_LEN = 16
BLOCK_LEN = 16
RSA_BITS = 1024
WRAPPED_LEN = RSA_BITS // 8
SIGNATURE_LEN = RSA_BITS // 8
PUBKEY_LEN = 160
CERT_LEN = 481
_CERT_BODY_LEN = 16 + PUBKEY_LEN + 8 + 8
_CERT_PAD = bytes(CERT_LEN - _CERT_BODY_LEN - SIGNATURE_LEN)
_WRAP_PADDING = asym_padding.OAEP(
    mgf=asym_padding.MGF1(algorithm=hashes.SHA256()), algorithm=hashes.SHA256(), label=None
)

# Fixed key for the expandable keystream generator; the seed is the secret.
_PRG_KEY = hashlib.sha256(b"discoverfriends.keystream.v1").digest()[:16]
# ECB keeps no state between whole-block calls, so one context serves them all.
_PRG = Cipher(algorithms.AES(_PRG_KEY), modes.ECB()).encryptor()


class IntegrityError(Exception):
    """Ciphertext failed authentication (wrong key or tampered data)."""


class KeyUnwrapError(Exception):
    """Wrapped key could not be recovered with the given private key."""


class CertStatus(Enum):
    VALID = "valid"
    EXPIRED = "expired"
    BAD_SIGNATURE = "bad_signature"


def prg_permute_into(blocks, out) -> None:
    """AES permutation under the fixed keystream key, from one buffer into another.

    Whole blocks only, in one pass, through one process-wide ECB context,
    which is not for concurrent use from threads. ``out`` is one block longer
    than ``blocks``: update_into needs that slack; its contents are unspecified.
    """
    n = len(blocks)
    if n % BLOCK_LEN or len(out) != n + BLOCK_LEN:
        raise ValueError("blocks must be whole blocks and out one block longer")
    _PRG.update_into(blocks, out)


def keystream_many(seeds: np.ndarray, length: int) -> np.ndarray:
    """Expand (k, 16) uint8 seeds into (k, length) uint8 keystream rows.

    Block i of a row is AES(seed XOR i) XOR (seed XOR i) under a fixed
    key, with i a 128-bit big-endian counter: a one-way Matyas-Meyer-Oseas
    style expansion, so observing output does not reveal the seed. All
    rows go through one AES pass.
    """
    if seeds.ndim != 2 or seeds.shape[1] != KEY_LEN or seeds.dtype != np.uint8:
        raise ValueError(f"seeds must be (k, {KEY_LEN}) uint8, got {seeds.dtype} {seeds.shape}")
    if length < 0:
        raise ValueError("length must be non-negative")
    nblocks = (length + BLOCK_LEN - 1) // BLOCK_LEN
    # Blocks as uint64 lane pairs, bytes in place: lane 0 is the seed's first
    # half, lane 1 its second half XOR the big-endian counter i (i < 2^64).
    halves = np.ascontiguousarray(seeds).view(np.uint64)
    counters = np.arange(nblocks, dtype=">u8").view(np.uint64)
    x = np.empty((len(seeds), nblocks, 2), dtype=np.uint64)
    x[:, :, 0] = halves[:, :1]
    np.bitwise_xor(halves[:, 1:], counters, out=x[:, :, 1])
    y = np.empty(x.size + 2, dtype=np.uint64)  # one block of slack for prg_permute_into
    prg_permute_into(x.view(np.uint8).reshape(-1), y.view(np.uint8))
    y = y[:-2].reshape(x.shape)
    y ^= x
    return y.view(np.uint8).reshape(len(seeds), nblocks * BLOCK_LEN)[:, :length]


def keystream(seed: bytes, length: int) -> bytes:
    """The keystream_many row of one 16-byte seed."""
    return keystream_many(np.frombuffer(seed, dtype=np.uint8).reshape(1, -1), length)[0].tobytes()


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR of two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"cannot XOR {len(a)} bytes with {len(b)} bytes")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


@dataclass(frozen=True)
class SymmetricKey:
    key_bytes: bytes

    def __post_init__(self) -> None:
        if len(self.key_bytes) != KEY_LEN:
            raise ValueError(f"key must be {KEY_LEN} bytes, got {len(self.key_bytes)}")

    def _mac_key(self) -> bytes:
        return hashlib.sha256(b"mac" + self.key_bytes).digest()


def padded_len(plaintext_len: int) -> int:
    """Ciphertext body length for a plaintext of the given size."""
    return BLOCK_LEN * (plaintext_len // BLOCK_LEN + 1)


def sym_encrypt(key: SymmetricKey, plaintext: bytes) -> bytes:
    """Encrypt to body || tag; body is PKCS#7-padded CBC output."""
    tag = hmac.new(key._mac_key(), plaintext, hashlib.sha256).digest()[:TAG_LEN]
    padder = padding.PKCS7(BLOCK_LEN * 8).padder()
    padded = padder.update(plaintext) + padder.finalize()
    enc = Cipher(algorithms.AES(key.key_bytes), modes.CBC(tag)).encryptor()
    body = enc.update(padded) + enc.finalize()
    return body + tag


def sym_decrypt(key: SymmetricKey, ciphertext: bytes) -> bytes:
    """Invert sym_encrypt; raises IntegrityError on wrong key or tampering."""
    if len(ciphertext) < BLOCK_LEN + TAG_LEN or (len(ciphertext) - TAG_LEN) % BLOCK_LEN:
        raise IntegrityError("malformed ciphertext")
    body, tag = ciphertext[:-TAG_LEN], ciphertext[-TAG_LEN:]
    dec = Cipher(algorithms.AES(key.key_bytes), modes.CBC(tag)).decryptor()
    try:
        padded = dec.update(body) + dec.finalize()
        unpadder = padding.PKCS7(BLOCK_LEN * 8).unpadder()
        plaintext = unpadder.update(padded) + unpadder.finalize()
    except ValueError as exc:
        raise IntegrityError("decryption failed") from exc
    want = hmac.new(key._mac_key(), plaintext, hashlib.sha256).digest()[:TAG_LEN]
    if not hmac.compare_digest(tag, want):
        raise IntegrityError("authentication tag mismatch")
    return plaintext


@dataclass(frozen=True)
class AsymKeyPair:
    private_key: rsa.RSAPrivateKey
    public_bytes: bytes  # fixed 160-byte serialization

    @property
    def public_key(self) -> rsa.RSAPublicKey:
        return parse_public_key(self.public_bytes)


def generate_keypair() -> AsymKeyPair:
    private = rsa.generate_private_key(public_exponent=65537, key_size=RSA_BITS)
    return AsymKeyPair(private, serialize_public_key(private.public_key()))


def serialize_public_key(public: rsa.RSAPublicKey) -> bytes:
    """Modulus (128B BE) || exponent (4B BE), zero padded to 160 bytes."""
    nums = public.public_numbers()
    raw = nums.n.to_bytes(RSA_BITS // 8, "big") + nums.e.to_bytes(4, "big")
    return raw.ljust(PUBKEY_LEN, b"\x00")


def parse_public_key(blob: bytes) -> rsa.RSAPublicKey:
    if len(blob) != PUBKEY_LEN:
        raise ValueError(f"public key must be {PUBKEY_LEN} bytes, got {len(blob)}")
    n = int.from_bytes(blob[: RSA_BITS // 8], "big")
    e = int.from_bytes(blob[RSA_BITS // 8 : RSA_BITS // 8 + 4], "big")
    return rsa.RSAPublicNumbers(e, n).public_key()


def wrap_key(peer_public: rsa.RSAPublicKey, key: SymmetricKey) -> bytes:
    """Encrypt a symmetric key to the peer; always 128 bytes."""
    return peer_public.encrypt(key.key_bytes, _WRAP_PADDING)


def unwrap_key(private: rsa.RSAPrivateKey, wrapped: bytes) -> SymmetricKey:
    if len(wrapped) != WRAPPED_LEN:
        raise KeyUnwrapError(f"wrapped blob must be {WRAPPED_LEN} bytes")
    try:
        key_bytes = private.decrypt(wrapped, _WRAP_PADDING)
    except ValueError as exc:
        raise KeyUnwrapError("key unwrap failed") from exc
    if len(key_bytes) != KEY_LEN:
        raise KeyUnwrapError("unwrapped key has wrong length")
    return SymmetricKey(key_bytes)


@dataclass(frozen=True)
class Certificate:
    subject_digest: bytes
    public_key: bytes
    not_before: int
    not_after: int
    signature: bytes

    def signed_body(self) -> bytes:
        return (
            self.subject_digest
            + self.public_key
            + self.not_before.to_bytes(8, "little")
            + self.not_after.to_bytes(8, "little")
        )

    def to_bytes(self) -> bytes:
        blob = self.signed_body() + self.signature
        return blob.ljust(CERT_LEN, b"\x00")

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Certificate":
        if len(blob) != CERT_LEN:
            raise ValueError(f"certificate must be {CERT_LEN} bytes, got {len(blob)}")
        if not blob.endswith(_CERT_PAD):
            raise ValueError("certificate padding must be zero")
        return cls(
            subject_digest=blob[0:16],
            public_key=blob[16 : 16 + PUBKEY_LEN],
            not_before=int.from_bytes(blob[176:184], "little"),
            not_after=int.from_bytes(blob[184:192], "little"),
            signature=blob[_CERT_BODY_LEN : _CERT_BODY_LEN + SIGNATURE_LEN],
        )


def make_certificate(
    pair: AsymKeyPair, subject_digest: bytes, not_before: int, not_after: int
) -> Certificate:
    """Self-sign a binding of the subject digest to the pair's public key."""
    if len(subject_digest) != 16:
        raise ValueError("subject digest must be 16 bytes")
    if not not_before < not_after:
        raise ValueError(f"invalid validity window [{not_before}, {not_after}]")
    unsigned = Certificate(
        subject_digest=subject_digest,
        public_key=pair.public_bytes,
        not_before=not_before,
        not_after=not_after,
        signature=b"\x00" * SIGNATURE_LEN,
    )
    signature = pair.private_key.sign(
        unsigned.signed_body(), asym_padding.PKCS1v15(), hashes.SHA256()
    )
    return Certificate(
        subject_digest=subject_digest,
        public_key=pair.public_bytes,
        not_before=not_before,
        not_after=not_after,
        signature=signature,
    )


def verify_certificate(cert: Certificate, now: int) -> CertStatus:
    """Signature check first, then the validity window."""
    try:
        public = parse_public_key(cert.public_key)
        public.verify(
            cert.signature, cert.signed_body(), asym_padding.PKCS1v15(), hashes.SHA256()
        )
    except Exception:
        return CertStatus.BAD_SIGNATURE
    return validity_status(cert, now)


def validity_status(cert: Certificate, now: int) -> CertStatus:
    """The validity window alone: VALID iff not_before <= now <= not_after."""
    if not cert.not_before <= now <= cert.not_after:
        return CertStatus.EXPIRED
    return CertStatus.VALID
