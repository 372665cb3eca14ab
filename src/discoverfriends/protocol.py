"""Five-stage discovery and messaging protocol.

Stage 1: the initiator broadcasts a setup request with three parts: a
Bloom filter of the target identity digests, the same bit array XORed
with the initiator's expanded identity mask, and the initiator's
certificate encrypted under the initiator's identity-derived key.

Stage 2: a receiver checks whether it is addressed, recovers the mask by
XORing the two bit arrays, scans its friend list for a matching mask,
decrypts and validates the certificate, and answers with its own
certificate encrypted under the initiator's identity key.

Stage 3: the initiator validates replies, admits certificates through
the trust-graph gate and pushes the collected certificate set to the
group, after which everyone is connected.

Stages 4/5: per-message hybrid encryption; a fresh symmetric key per
message, wrapped with the recipient's public key. Acknowledgments are
ordinary data messages in the reverse direction.

Frames are tag + length-prefixed fields on the wire. Packet accounting
for size reports uses the payload-byte convention (filter payloads,
certificate bodies, padded ciphertext bodies) rather than raw frame
length, so framing overhead never skews size comparisons.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from random import Random, SystemRandom

from . import crypto, identity, keymgmt
from .bloom import BloomFilter, BloomParams
from .bloom import clear_spare_bits  # noqa: F401  bench/test_bench.py reads protocol.clear_spare_bits
from .crypto import Certificate
from .identity import CompositeId, FriendList

logger = logging.getLogger(__name__)

MAX_PLAINTEXT = 160

FRAME_SETUP = 0
FRAME_REPLY = 1
FRAME_CERT_UPDATE = 2
FRAME_DATA = 3

class ProtocolError(Exception):
    """Operation attempted outside its role/phase preconditions."""


class Role(Enum):
    INITIATOR = "initiator"
    TARGET = "target"


class Phase(IntEnum):
    INIT = 0
    DISCOVERING = 1
    CONNECTED = 2
    CLOSED = 3


def _lp(blob: bytes) -> bytes:
    return len(blob).to_bytes(4, "little") + blob


def _read_lp(blob: bytes, off: int) -> tuple[bytes, int]:
    start = off + 4
    if start > len(blob):
        raise ValueError("truncated length prefix")
    end = start + int.from_bytes(blob[off:start], "little")
    if end > len(blob):
        raise ValueError("length prefix runs past the frame")
    return blob[start:end], end


@dataclass(frozen=True)
class SetupRequest:
    bf_c: BloomFilter
    bf_c_plus: bytes
    cf: bytes

    def __post_init__(self) -> None:
        if len(self.bf_c_plus) != self.bf_c.params.byte_length:
            raise ValueError("bf_c_plus length does not match the filter")

    def table_size(self) -> int:
        """Payload-byte accounting: two filter payloads plus the certificate."""
        return 2 * self.bf_c.params.byte_length + crypto.CERT_LEN

    def encode(self) -> bytes:
        params = self.bf_c.params
        head = bytes([FRAME_SETUP])
        head += params.n_items.to_bytes(4, "little")
        head += struct.pack("<d", params.fpp)
        return head + _lp(self.bf_c.to_bytes()) + _lp(self.bf_c_plus) + _lp(self.cf)


@dataclass(frozen=True)
class SetupReply:
    encrypted_cert: bytes

    def encode(self) -> bytes:
        return bytes([FRAME_REPLY]) + _lp(self.encrypted_cert)


@dataclass(frozen=True)
class CertUpdate:
    certs: tuple[Certificate, ...]

    def table_size(self) -> int:
        return crypto.CERT_LEN * len(self.certs)

    def encode(self) -> bytes:
        out = bytes([FRAME_CERT_UPDATE]) + len(self.certs).to_bytes(4, "little")
        return out + b"".join(c.to_bytes() for c in self.certs)


@dataclass(frozen=True)
class DataMessage:
    wrapped_key: bytes
    body: bytes

    def table_size(self) -> int:
        """Padded ciphertext body, excluding the authentication tag."""
        return len(self.body) - crypto.TAG_LEN

    def encode(self) -> bytes:
        return bytes([FRAME_DATA]) + _lp(self.wrapped_key) + _lp(self.body)


Frame = SetupRequest | SetupReply | CertUpdate | DataMessage


def decode_frame(blob: bytes) -> Frame:
    """Parse one whole frame; any malformed input raises ``ValueError``."""
    if not blob:
        raise ValueError("empty frame")
    tag = blob[0]
    frame: Frame
    if tag == FRAME_SETUP:
        if len(blob) < 13:
            raise ValueError("truncated setup header")
        n_items = int.from_bytes(blob[1:5], "little")
        (fpp,) = struct.unpack("<d", blob[5:13])
        bf_blob, off = _read_lp(blob, 13)
        bf_plus, off = _read_lp(blob, off)
        cf, off = _read_lp(blob, off)
        frame = SetupRequest(BloomFilter.from_bytes(bf_blob, n_items, fpp), bf_plus, cf)
    elif tag == FRAME_REPLY:
        enc, off = _read_lp(blob, 1)
        frame = SetupReply(enc)
    elif tag == FRAME_CERT_UPDATE:
        off = 5 + int.from_bytes(blob[1:5], "little") * crypto.CERT_LEN
        if len(blob) < 5 or off > len(blob):
            raise ValueError("certificate count runs past the frame")
        frame = CertUpdate(tuple(
            Certificate.from_bytes(blob[i : i + crypto.CERT_LEN])
            for i in range(5, off, crypto.CERT_LEN)
        ))
    elif tag == FRAME_DATA:
        wrapped, off = _read_lp(blob, 1)
        body, off = _read_lp(blob, off)
        frame = DataMessage(wrapped, body)
    else:
        raise ValueError(f"unknown frame tag {tag}")
    if off != len(blob):
        raise ValueError(f"{len(blob) - off} trailing bytes after the frame")
    return frame


@dataclass(frozen=True)
class Accept:
    reply: SetupReply


@dataclass(frozen=True)
class Ignore:
    reason: str = "not_addressed"


@dataclass(frozen=True)
class Reject:
    reason: str  # unknown_initiator | cert_invalid | decrypt_failed


SetupDecision = Accept | Ignore | Reject


@dataclass
class SessionState:
    """All per-node protocol state, mutated only by that node's events."""

    role: Role
    composite: CompositeId
    friends: FriendList
    keypair: crypto.AsymKeyPair
    certificate: Certificate
    rng: Random
    phase: Phase = Phase.INIT
    skr: keymgmt.SharedKeyRepository = field(default_factory=keymgmt.SharedKeyRepository)
    cr: keymgmt.CertRepository = field(default_factory=keymgmt.CertRepository)
    master_graph: keymgmt.MasterGraph | None = None
    _mask_cache: dict[int, dict[bytes, CompositeId]] = field(default_factory=dict)

    @property
    def node_id(self) -> str:
        return self.composite.hex()

    @property
    def peers(self) -> dict[bytes, Certificate]:
        """Admitted peer certificates by subject digest: the certificate repository."""
        return self.cr.certs

    def _advance(self, phase: Phase) -> None:
        if phase < self.phase:
            raise ProtocolError(f"cannot move back from {self.phase.name} to {phase.name}")
        self.phase = phase

    def _masks_for(self, m_bits: int) -> dict[bytes, CompositeId]:
        cache = self._mask_cache.get(m_bits)
        if cache is None:
            cache = {
                identity.id_mask(c, m_bits): c for c in self.friends.composites()
            }
            self._mask_cache[m_bits] = cache
        return cache

    def stored_key_bytes(self) -> int:
        """Key material kept for messaging: public key + certificate per peer."""
        return sum(len(c.public_key) + crypto.CERT_LEN for c in self.peers.values())


def create_session(
    role: Role,
    composite: CompositeId,
    friends: FriendList,
    now: int,
    validity_seconds: int,
    rng: Random | None = None,
) -> SessionState:
    keypair = crypto.generate_keypair()
    cert = crypto.make_certificate(keypair, composite.digest, now, now + validity_seconds)
    return SessionState(
        role=role,
        composite=composite,
        friends=friends,
        keypair=keypair,
        certificate=cert,
        rng=rng if rng is not None else SystemRandom(),
    )


def install_network_keys(
    state: SessionState,
    all_keys: dict[str, bytes],
    received_from: dict[str, set[str]],
    now: int,
) -> None:
    """Ingest the key-distribution round and freeze the master graph."""
    for node, key in all_keys.items():
        state.skr.record(node, key)
    state.master_graph = keymgmt.build_trust_graph(state.node_id, state.skr, received_from, now)


def key_round(sessions: list[SessionState], now: int) -> None:
    """One-hop key round: every node hears every key, then freezes its graph."""
    all_keys = {s.node_id: s.keypair.public_bytes for s in sessions}
    received_from = {node: set(all_keys) - {node} for node in all_keys}
    for session in sessions:
        install_network_keys(session, all_keys, received_from, now)


def build_setup_request(
    initiator: SessionState,
    targets: list[CompositeId],
    params: BloomParams,
    now: int,
) -> SetupRequest:
    """Stage 1: assemble the three-part broadcast."""
    if initiator.role is not Role.INITIATOR:
        raise ProtocolError("only initiators build setup requests")
    if initiator.phase is not Phase.INIT:
        raise ProtocolError("discovery requires network reinitialization")
    if not targets:
        raise ProtocolError("at least one target is required")
    bf = BloomFilter(params)
    for target in targets:
        bf = bf.insert(target.digest)
    mask = identity.id_mask(initiator.composite, params.m_bits)
    bf_plus = bf.xor_mask(mask).bits
    own_key = identity.sym_key_of(initiator.composite)
    cf = crypto.sym_encrypt(own_key, initiator.certificate.to_bytes())
    initiator._advance(Phase.DISCOVERING)
    return SetupRequest(bf_c=bf, bf_c_plus=bf_plus, cf=cf)


def process_setup_request(
    target: SessionState, req: SetupRequest, now: int
) -> SetupDecision:
    """Stage 2: membership test, mask recovery, friend scan, cert check, reply."""
    if target.role is not Role.TARGET:
        raise ProtocolError("only targets process setup requests")
    if target.phase is not Phase.INIT:
        # joining another group needs a fresh network initialization
        return Ignore("already_connected")
    if not req.bf_c.contains(target.composite.digest):
        return Ignore()
    m_bits = req.bf_c.params.m_bits
    mask = req.bf_c.xor_mask(req.bf_c_plus).bits
    initiator_id = target._masks_for(m_bits).get(mask)
    if initiator_id is None:
        return Reject("unknown_initiator")
    initiator_key = identity.sym_key_of(initiator_id)
    try:
        cert_blob = crypto.sym_decrypt(initiator_key, req.cf)
        cert = Certificate.from_bytes(cert_blob)
    except (crypto.IntegrityError, ValueError):
        return Reject("decrypt_failed")
    if crypto.verify_certificate(cert, now) is not crypto.CertStatus.VALID:
        return Reject("cert_invalid")
    if cert.subject_digest != initiator_id.digest:
        return Reject("cert_invalid")
    reply = SetupReply(crypto.sym_encrypt(initiator_key, target.certificate.to_bytes()))
    target._advance(Phase.DISCOVERING)
    target._advance(Phase.CONNECTED)
    return Accept(reply)


def _admit(state: SessionState, cert: Certificate, now: int) -> keymgmt.AdmitResult:
    """The admission gate, with the certificate's subject as its issuing node."""
    return keymgmt.admit_certificate(
        state.cr, cert, state.master_graph, issuer=cert.subject_digest.hex(),
        local=state.node_id, now=now,
    )


def complete_initialization(
    initiator: SessionState, replies: list[SetupReply], now: int
) -> tuple[SessionState, CertUpdate]:
    """Stage 3: validate replies, admit certificates, emit the group update."""
    if initiator.phase is not Phase.DISCOVERING:
        raise ProtocolError("initialization completes from the discovering phase")
    if initiator.master_graph is None:
        raise ProtocolError("master graph missing; run key distribution first")
    own_key = identity.sym_key_of(initiator.composite)
    admitted: list[Certificate] = []
    for reply in replies:
        try:
            cert = Certificate.from_bytes(crypto.sym_decrypt(own_key, reply.encrypted_cert))
        except (crypto.IntegrityError, ValueError):
            logger.info("dropping reply: undecryptable or malformed certificate")
            continue
        result = _admit(initiator, cert, now)
        if result is keymgmt.AdmitResult.ACCEPTED:
            admitted.append(cert)
        else:
            logger.info("dropping reply certificate: %s", result.value)
    # Nothing to push when nobody connected; otherwise the group needs the
    # initiator's own certificate alongside the admitted peers'.
    update = CertUpdate(tuple([initiator.certificate, *admitted]) if admitted else ())
    initiator._advance(Phase.CONNECTED)
    return initiator, update


def apply_cert_update(
    state: SessionState, update: CertUpdate, now: int
) -> SessionState:
    """Re-validate each certificate through the admission gate; refresh peers."""
    if state.phase is not Phase.CONNECTED:
        raise ProtocolError("certificate updates apply to connected sessions")
    if state.master_graph is None:
        raise ProtocolError("master graph missing; run key distribution first")
    for cert in update.certs:
        if cert.subject_digest == state.composite.digest:
            continue
        result = _admit(state, cert, now)
        if result is not keymgmt.AdmitResult.ACCEPTED:
            logger.info("dropping updated certificate: %s", result.value)
    return state


def send_message(
    sender: SessionState, recipient: CompositeId, plaintext: bytes
) -> DataMessage:
    """Stage 4: fresh symmetric key per message, wrapped to the recipient."""
    if sender.phase is not Phase.CONNECTED:
        raise ProtocolError("messaging requires a connected session")
    peer = sender.peers.get(recipient.digest)
    if peer is None:
        raise ProtocolError(f"unknown recipient {recipient.hex()}")
    if len(plaintext) > MAX_PLAINTEXT:
        raise ProtocolError(
            f"plaintext of {len(plaintext)} bytes exceeds the {MAX_PLAINTEXT}-byte limit"
        )
    key = crypto.SymmetricKey(sender.rng.randbytes(crypto.KEY_LEN))
    body = crypto.sym_encrypt(key, plaintext)
    wrapped = crypto.wrap_key(crypto.parse_public_key(peer.public_key), key)
    return DataMessage(wrapped_key=wrapped, body=body)


def receive_message(
    receiver: SessionState,
    msg: DataMessage,
    sender: CompositeId | None = None,
    ack_plaintext: bytes | None = None,
) -> tuple[bytes, DataMessage | None]:
    """Stage 5: unwrap with own private key, decrypt, optionally acknowledge."""
    if receiver.phase is not Phase.CONNECTED:
        raise ProtocolError("messaging requires a connected session")
    key = crypto.unwrap_key(receiver.keypair.private_key, msg.wrapped_key)
    plaintext = crypto.sym_decrypt(key, msg.body)
    ack = None
    if ack_plaintext is not None and sender is not None:
        ack = send_message(receiver, sender, ack_plaintext)
    return plaintext, ack
