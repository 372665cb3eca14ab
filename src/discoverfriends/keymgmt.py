"""Self-organized public-key management for infrastructure-less groups.

During network initialization every node broadcasts its public key and
records what it heard: direct neighbors land in the key repository (KR),
the union of everything learned becomes the shared key repository (SKR),
and the "who got whose key" relation forms a directed trust graph. A
frozen snapshot of that graph (the master graph) then gates certificate
admission: a certificate is only stored if it verifies *and* its issuer
was reachable during initialization, which keeps out Sybil identities
that never took part in the round.
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
class KeyRepository:
    """Public keys received directly from neighbors."""

    neighbor_keys: dict[NodeId, bytes] = field(default_factory=dict)

    def record(self, node: NodeId, key: bytes) -> None:
        crypto.parse_public_key(key)  # reject anything that is not a key
        existing = self.neighbor_keys.get(node)
        if existing is not None and existing != key:
            raise KeyConflict(f"conflicting key for node {node}")
        self.neighbor_keys[node] = key

    def lookup(self, node: NodeId) -> bytes | None:
        return self.neighbor_keys.get(node)


@dataclass
class SharedKeyRepository:
    """Keys of every node learned during initialization (superset of the KR)."""

    all_keys: dict[NodeId, bytes] = field(default_factory=dict)

    def record(self, node: NodeId, key: bytes) -> None:
        existing = self.all_keys.get(node)
        if existing is not None and existing != key:
            raise KeyConflict(f"conflicting key for node {node}")
        self.all_keys[node] = key

    def __len__(self) -> int:
        return len(self.all_keys)


@dataclass
class TrustGraph:
    """Directed edges (a, b): node a vouches it received node b's key."""

    nodes: set[NodeId] = field(default_factory=set)
    edges: set[tuple[NodeId, NodeId]] = field(default_factory=set)


@dataclass(frozen=True)
class MasterGraph:
    """Immutable snapshot of a trust graph taken when initialization ends.

    Since the snapshot never changes, the set reachable from each source is
    computed once and memoized in ``_reachable``.
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
) -> TrustGraph:
    """Trust graph from declared receipts: edge (a, b) iff a received b's key."""
    unknown = set(received_from) - set(skr.all_keys)
    if unknown:
        raise ValueError(f"receipt reporters not in shared repository: {sorted(unknown)}")
    graph = TrustGraph()
    graph.nodes.add(local)
    graph.nodes.update(skr.all_keys)
    for reporter, senders in received_from.items():
        for sender in senders:
            graph.nodes.add(sender)
            graph.edges.add((reporter, sender))
    return graph


def _reachable_from(edges: frozenset | set, src: NodeId) -> frozenset[NodeId]:
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


def trust_path_exists(
    graph: TrustGraph | MasterGraph, src: NodeId, dst: NodeId
) -> bool:
    """Directed reachability src -> dst; False if either node is absent."""
    if src not in graph.nodes or dst not in graph.nodes:
        return False
    if not isinstance(graph, MasterGraph):
        return dst in _reachable_from(graph.edges, src)
    reachable = graph._reachable.get(src)
    if reachable is None:
        reachable = graph._reachable[src] = _reachable_from(graph.edges, src)
    return dst in reachable


def snapshot_master(graph: TrustGraph, now: int) -> MasterGraph:
    return MasterGraph(
        nodes=frozenset(graph.nodes), edges=frozenset(graph.edges), frozen_at=now
    )


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
