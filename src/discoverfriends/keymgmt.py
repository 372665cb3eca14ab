"""Self-organized public-key management for infrastructure-less groups.

During network initialization every node broadcasts its public key once.
The round is one hop, so every node is every other node's direct
neighbor: each records every key it heard in its shared key repository
(SKR), and the "who got whose key" relation forms a directed trust graph,
frozen when the round ends (the master graph). The master graph then
gates certificate admission: a certificate is only stored if it verifies
*and* its issuer was reachable during initialization, which keeps out
Sybil identities that never took part in the round.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from . import crypto

NodeId = str


class KeyConflict(Exception):
    """A node presented a different key than previously recorded."""


@dataclass
class SharedKeyRepository:
    """Keys of every node learned during initialization."""

    all_keys: dict[NodeId, bytes] = field(default_factory=dict)

    def record(self, node: NodeId, key: bytes) -> None:
        crypto.parse_public_key(key)  # reject anything that is not a key
        existing = self.all_keys.get(node)
        if existing is not None and existing != key:
            raise KeyConflict(f"conflicting key for node {node}")
        self.all_keys[node] = key

    def __len__(self) -> int:
        return len(self.all_keys)


@dataclass(frozen=True)
class MasterGraph:
    """The trust graph, frozen when initialization ends.

    Edge (a, b) means node a vouches it received node b's key. Since the
    graph never changes, the set reachable from each source is computed
    once and memoized in ``_reachable``.
    """

    nodes: frozenset[NodeId]
    edges: frozenset[tuple[NodeId, NodeId]]
    frozen_at: int
    _reachable: dict[NodeId, frozenset[NodeId]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


def build_trust_graph(
    local: NodeId,
    skr: SharedKeyRepository,
    received_from: dict[NodeId, set[NodeId]],
    now: int,
) -> MasterGraph:
    """Master graph from declared receipts: edge (a, b) iff a received b's key."""
    unknown = set(received_from) - set(skr.all_keys)
    if unknown:
        raise ValueError(f"receipt reporters not in shared repository: {sorted(unknown)}")
    edges = frozenset(
        (reporter, sender) for reporter, senders in received_from.items() for sender in senders
    )
    nodes = frozenset({local, *skr.all_keys, *(sender for _, sender in edges)})
    return MasterGraph(nodes=nodes, edges=edges, frozen_at=now)


def _reachable_from(edges: frozenset[tuple[NodeId, NodeId]], src: NodeId) -> frozenset[NodeId]:
    """Every node reachable from src along directed edges, src included."""
    adjacency: dict[NodeId, list[NodeId]] = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    seen = {src}
    queue = deque([src])
    while queue:
        for nxt in adjacency.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def trust_path_exists(graph: MasterGraph, src: NodeId, dst: NodeId) -> bool:
    """Directed reachability src -> dst; False if either node is absent."""
    if src not in graph.nodes or dst not in graph.nodes:
        return False
    reachable = graph._reachable.get(src)
    if reachable is None:
        reachable = graph._reachable[src] = _reachable_from(graph.edges, src)
    return dst in reachable


class AdmitResult(Enum):
    ACCEPTED = "accepted"
    EXPIRED = "expired"
    BAD_SIGNATURE = "bad_signature"
    UNTRUSTED_ISSUER = "untrusted_issuer"


@dataclass
class CertRepository:
    """Certificates that verified and came from a trusted issuer."""

    certs: dict[bytes, crypto.Certificate] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.certs)

    def get(self, subject_digest: bytes) -> crypto.Certificate | None:
        return self.certs.get(subject_digest)


def admit_certificate(
    cr: CertRepository,
    cert: crypto.Certificate,
    graph: MasterGraph,
    issuer: NodeId,
    local: NodeId,
    now: int,
) -> AdmitResult:
    """Store the certificate iff it verifies and the issuer is trust-reachable.

    A certificate equal to the stored one (signature bytes included) verified
    when it was first admitted, so only its validity window is checked again.
    """
    if cert == cr.certs.get(cert.subject_digest):
        status = crypto.validity_status(cert, now)
    else:
        status = crypto.verify_certificate(cert, now)
    if status is crypto.CertStatus.BAD_SIGNATURE:
        return AdmitResult.BAD_SIGNATURE
    if status is crypto.CertStatus.EXPIRED:
        return AdmitResult.EXPIRED
    if not trust_path_exists(graph, local, issuer):
        return AdmitResult.UNTRUSTED_ISSUER
    cr.certs[cert.subject_digest] = cert
    return AdmitResult.ACCEPTED
