import dataclasses
from random import Random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoverfriends import crypto, keymgmt
from discoverfriends.keymgmt import (
    AdmitResult,
    CertRepository,
    KeyConflict,
    MasterGraph,
    SharedKeyRepository,
    build_trust_graph,
    trust_path_exists,
)

NOW = 1_700_000_000


def test_record_then_lookup(shared_keypair):
    repo = SharedKeyRepository()
    repo.record("a", shared_keypair.public_bytes)
    assert repo.all_keys["a"] == shared_keypair.public_bytes


def test_record_is_idempotent(shared_keypair):
    repo = SharedKeyRepository()
    repo.record("a", shared_keypair.public_bytes)
    repo.record("a", shared_keypair.public_bytes)
    repo.record("b", shared_keypair.public_bytes)
    assert len(repo) == 2


def test_conflicting_key_raises(shared_keypair, second_keypair):
    repo = SharedKeyRepository()
    repo.record("a", shared_keypair.public_bytes)
    with pytest.raises(KeyConflict):
        repo.record("a", second_keypair.public_bytes)
    assert repo.all_keys["a"] == shared_keypair.public_bytes


def test_unparseable_key_rejected():
    repo = SharedKeyRepository()
    with pytest.raises(ValueError):
        repo.record("a", b"not a key")
    assert len(repo) == 0


def test_trust_graph_empty_repo():
    graph = build_trust_graph("me", SharedKeyRepository(), {}, NOW)
    assert graph.nodes == {"me"}
    assert graph.edges == set()


def test_trust_graph_chain_and_edge_count(shared_keypair):
    skr = SharedKeyRepository()
    for node in ("a", "b", "c"):
        skr.record(node, shared_keypair.public_bytes)
    received = {"a": {"b"}, "b": {"c"}}
    graph = build_trust_graph("a", skr, received, NOW)
    assert ("a", "b") in graph.edges and ("b", "c") in graph.edges
    assert len(graph.edges) == sum(len(v) for v in received.values())
    assert trust_path_exists(graph, "a", "c")


def test_trust_graph_rejects_unknown_reporters(shared_keypair):
    skr = SharedKeyRepository()
    skr.record("a", shared_keypair.public_bytes)
    with pytest.raises(ValueError):
        build_trust_graph("a", skr, {"ghost": {"a"}}, NOW)


def test_reachability_basics(shared_keypair):
    skr = SharedKeyRepository()
    for node in ("a", "b", "c", "d"):
        skr.record(node, shared_keypair.public_bytes)
    graph = build_trust_graph("a", skr, {"a": {"b"}, "b": {"c"}}, NOW)
    assert trust_path_exists(graph, "a", "a")  # trivial path
    assert trust_path_exists(graph, "a", "c")  # 2-hop relay
    assert not trust_path_exists(graph, "a", "d")  # disconnected
    assert not trust_path_exists(graph, "a", "missing")
    assert not trust_path_exists(graph, "c", "a")  # directed


def test_reachability_matches_networkx_oracle(shared_keypair):
    rng = Random(2024)
    skr = SharedKeyRepository()
    nodes = [f"n{i}" for i in range(12)]
    for n in nodes:
        skr.record(n, shared_keypair.public_bytes)
    received = {
        n: {m for m in nodes if m != n and rng.random() < 0.15} for n in nodes
    }
    graph = build_trust_graph(nodes[0], skr, received, NOW)
    oracle = nx.DiGraph()
    oracle.add_nodes_from(graph.nodes)
    oracle.add_edges_from(graph.edges)
    for src in nodes:
        for dst in nodes:
            assert trust_path_exists(graph, src, dst) == nx.has_path(oracle, src, dst)


def test_snapshot_is_immutable(shared_keypair):
    skr = SharedKeyRepository()
    skr.record("a", shared_keypair.public_bytes)
    received = {"a": {"a"}}
    master = build_trust_graph("a", skr, received, NOW)
    # Later receipts and keys do not reach the frozen graph.
    received["a"].add("late")
    skr.record("late", shared_keypair.public_bytes)
    assert "late" not in master.nodes
    assert master.edges == {("a", "a")}
    assert master.frozen_at == NOW
    with pytest.raises(dataclasses.FrozenInstanceError):
        master.edges = frozenset()


def _master_with(nodes, edges):
    return MasterGraph(nodes=frozenset(nodes), edges=frozenset(edges), frozen_at=NOW)


def test_admit_accepts_trusted_valid_cert(shared_keypair):
    cert = crypto.make_certificate(shared_keypair, b"\x01" * 16, NOW, NOW + 60)
    master = _master_with({"me", "issuer"}, {("me", "issuer")})
    cr = CertRepository()
    result = keymgmt.admit_certificate(cr, cert, master, "issuer", "me", NOW)
    assert result is AdmitResult.ACCEPTED
    assert cr.get(b"\x01" * 16) == cert


def test_admit_rejects_unknown_issuer(shared_keypair):
    cert = crypto.make_certificate(shared_keypair, b"\x01" * 16, NOW, NOW + 60)
    master = _master_with({"me"}, set())
    cr = CertRepository()
    result = keymgmt.admit_certificate(cr, cert, master, "sybil", "me", NOW)
    assert result is AdmitResult.UNTRUSTED_ISSUER
    assert len(cr) == 0


def test_admit_rejects_expired(shared_keypair):
    cert = crypto.make_certificate(shared_keypair, b"\x01" * 16, NOW, NOW + 60)
    master = _master_with({"me", "issuer"}, {("me", "issuer")})
    cr = CertRepository()
    result = keymgmt.admit_certificate(cr, cert, master, "issuer", "me", NOW + 61)
    assert result is AdmitResult.EXPIRED
    assert len(cr) == 0


def test_admit_rejects_bad_signature(shared_keypair):
    cert = crypto.make_certificate(shared_keypair, b"\x01" * 16, NOW, NOW + 60)
    forged = crypto.Certificate(
        subject_digest=b"\x02" * 16,
        public_key=cert.public_key,
        not_before=cert.not_before,
        not_after=cert.not_after,
        signature=cert.signature,
    )
    master = _master_with({"me", "issuer"}, {("me", "issuer")})
    cr = CertRepository()
    result = keymgmt.admit_certificate(cr, forged, master, "issuer", "me", NOW)
    assert result is AdmitResult.BAD_SIGNATURE
    assert len(cr) == 0


def test_full_initialization_round_property(shared_keypair):
    # After a complete round among N honest nodes, every shared repository
    # holds N keys and the trust graph is strongly connected.
    nodes = [f"n{i}" for i in range(6)]
    for local in nodes:
        skr = SharedKeyRepository()
        for n in nodes:
            skr.record(n, shared_keypair.public_bytes)
        received = {n: {m for m in nodes if m != n} for n in nodes}
        graph = build_trust_graph(local, skr, received, NOW)
        assert len(skr) == len(nodes)
        oracle = nx.DiGraph()
        oracle.add_nodes_from(graph.nodes)
        oracle.add_edges_from(graph.edges)
        assert nx.is_strongly_connected(oracle)


_NODES = [f"n{i}" for i in range(8)]


@settings(max_examples=200, deadline=None)
@given(
    edges=st.sets(st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES)), max_size=24),
    queries=st.lists(
        st.tuples(st.sampled_from([*_NODES, "missing"]), st.sampled_from([*_NODES, "missing"])),
        min_size=1,
        max_size=30,
    ),
)
def test_master_reachability_matches_networkx(shared_keypair, edges, queries):
    skr = SharedKeyRepository()
    for node in _NODES:
        skr.record(node, shared_keypair.public_bytes)
    received: dict[str, set[str]] = {}
    for reporter, sender in edges:
        received.setdefault(reporter, set()).add(sender)
    master = build_trust_graph(_NODES[0], skr, received, NOW)
    assert master.nodes == set(_NODES) and master.edges == edges
    oracle = nx.DiGraph()
    oracle.add_nodes_from(_NODES)
    oracle.add_edges_from(edges)
    # Repeated and multi-source queries on one graph, then every pair again.
    pairs = [*queries, *queries, *((s, d) for s in _NODES for d in _NODES)]
    for src, dst in pairs:
        want = src in oracle and dst in oracle and nx.has_path(oracle, src, dst)
        assert trust_path_exists(master, src, dst) == want
    # The memo is not part of the graph's value.
    fresh = build_trust_graph(_NODES[0], skr, received, NOW)
    assert master == fresh and hash(master) == hash(fresh)


@pytest.fixture
def verify_calls(monkeypatch):
    """Count signature verifications made through the crypto module."""
    calls = []
    real = crypto.verify_certificate

    def counting(cert, now):
        calls.append(cert)
        return real(cert, now)

    monkeypatch.setattr(crypto, "verify_certificate", counting)
    return calls


def _admitted(shared_keypair):
    """A repository holding one admitted certificate, its master graph and the cert."""
    cert = crypto.make_certificate(shared_keypair, b"\x01" * 16, NOW, NOW + 60)
    master = _master_with({"me", "issuer"}, {("me", "issuer")})
    cr = CertRepository()
    assert keymgmt.admit_certificate(cr, cert, master, "issuer", "me", NOW) is AdmitResult.ACCEPTED
    return cr, master, cert


def test_identical_repush_skips_verification_and_stores_new_object(shared_keypair, verify_calls):
    cr, master, cert = _admitted(shared_keypair)
    assert len(verify_calls) == 1
    again = crypto.Certificate.from_bytes(cert.to_bytes())
    assert again == cert and again is not cert
    result = keymgmt.admit_certificate(cr, again, master, "issuer", "me", NOW + 30)
    assert result is AdmitResult.ACCEPTED
    assert cr.get(cert.subject_digest) is again
    assert len(verify_calls) == 1


def test_identical_repush_after_expiry_is_expired(shared_keypair, verify_calls):
    cr, master, cert = _admitted(shared_keypair)
    again = crypto.Certificate.from_bytes(cert.to_bytes())
    result = keymgmt.admit_certificate(cr, again, master, "issuer", "me", cert.not_after + 1)
    assert result is AdmitResult.EXPIRED
    assert cr.get(cert.subject_digest) is cert
    assert len(verify_calls) == 1


def test_identical_repush_from_unreachable_issuer_is_untrusted(shared_keypair, verify_calls):
    cr, master, cert = _admitted(shared_keypair)
    again = crypto.Certificate.from_bytes(cert.to_bytes())
    result = keymgmt.admit_certificate(cr, again, master, "sybil", "me", NOW)
    assert result is AdmitResult.UNTRUSTED_ISSUER
    assert cr.get(cert.subject_digest) is cert
    assert len(verify_calls) == 1


def test_same_subject_with_altered_signature_is_bad_signature(shared_keypair, verify_calls):
    cr, master, cert = _admitted(shared_keypair)
    signature = bytearray(cert.signature)
    signature[-1] ^= 1
    altered = crypto.Certificate(
        subject_digest=cert.subject_digest,
        public_key=cert.public_key,
        not_before=cert.not_before,
        not_after=cert.not_after,
        signature=bytes(signature),
    )
    result = keymgmt.admit_certificate(cr, altered, master, "issuer", "me", NOW)
    assert result is AdmitResult.BAD_SIGNATURE
    assert cr.get(cert.subject_digest) is cert
    assert len(verify_calls) == 2
