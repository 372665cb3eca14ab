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
    KeyRepository,
    SharedKeyRepository,
    build_trust_graph,
    snapshot_master,
    trust_path_exists,
)

NOW = 1_700_000_000


def test_record_then_lookup(shared_keypair):
    repo = KeyRepository()
    repo.record("a", shared_keypair.public_bytes)
    assert repo.lookup("a") == shared_keypair.public_bytes


def test_record_is_idempotent(shared_keypair):
    repo = KeyRepository()
    repo.record("a", shared_keypair.public_bytes)
    repo.record("a", shared_keypair.public_bytes)
    assert len(repo.neighbor_keys) == 1


def test_conflicting_key_raises(shared_keypair, second_keypair):
    repo = KeyRepository()
    repo.record("a", shared_keypair.public_bytes)
    with pytest.raises(KeyConflict):
        repo.record("a", second_keypair.public_bytes)


def test_unparseable_key_rejected():
    repo = KeyRepository()
    with pytest.raises(ValueError):
        repo.record("a", b"not a key")


def test_shared_repo_is_superset_of_key_repo(shared_keypair, second_keypair):
    repo = KeyRepository()
    skr = SharedKeyRepository()
    repo.record("a", shared_keypair.public_bytes)
    for node, key in repo.neighbor_keys.items():
        skr.record(node, key)
    skr.record("a", shared_keypair.public_bytes)  # idempotent
    skr.record("b", shared_keypair.public_bytes)
    assert set(repo.neighbor_keys) <= set(skr.all_keys)
    assert len(skr) == 2
    with pytest.raises(KeyConflict):
        skr.record("a", second_keypair.public_bytes)


def test_trust_graph_empty_repo():
    graph = build_trust_graph("me", SharedKeyRepository(), {})
    assert graph.nodes == {"me"}
    assert graph.edges == set()


def test_trust_graph_chain_and_edge_count(shared_keypair):
    skr = SharedKeyRepository()
    for node in ("a", "b", "c"):
        skr.record(node, shared_keypair.public_bytes)
    received = {"a": {"b"}, "b": {"c"}}
    graph = build_trust_graph("a", skr, received)
    assert ("a", "b") in graph.edges and ("b", "c") in graph.edges
    assert len(graph.edges) == sum(len(v) for v in received.values())
    assert trust_path_exists(graph, "a", "c")


def test_trust_graph_rejects_unknown_reporters(shared_keypair):
    skr = SharedKeyRepository()
    skr.record("a", shared_keypair.public_bytes)
    with pytest.raises(ValueError):
        build_trust_graph("a", skr, {"ghost": {"a"}})


def test_reachability_basics(shared_keypair):
    skr = SharedKeyRepository()
    for node in ("a", "b", "c", "d"):
        skr.record(node, shared_keypair.public_bytes)
    graph = build_trust_graph("a", skr, {"a": {"b"}, "b": {"c"}})
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
    graph = build_trust_graph(nodes[0], skr, received)
    oracle = nx.DiGraph()
    oracle.add_nodes_from(graph.nodes)
    oracle.add_edges_from(graph.edges)
    for src in nodes:
        for dst in nodes:
            assert trust_path_exists(graph, src, dst) == nx.has_path(oracle, src, dst)


def test_snapshot_is_immutable(shared_keypair):
    skr = SharedKeyRepository()
    skr.record("a", shared_keypair.public_bytes)
    graph = build_trust_graph("a", skr, {"a": set()})
    master = snapshot_master(graph, NOW)
    graph.nodes.add("late")
    graph.edges.add(("a", "late"))
    assert "late" not in master.nodes
    assert master.frozen_at == NOW
    again = snapshot_master(
        keymgmt.TrustGraph(set(master.nodes), set(master.edges)), NOW
    )
    assert again.nodes == master.nodes and again.edges == master.edges


def _master_with(shared_keypair, nodes, edges):
    graph = keymgmt.TrustGraph(set(nodes), set(edges))
    return snapshot_master(graph, NOW)


def test_admit_accepts_trusted_valid_cert(shared_keypair):
    cert = crypto.make_certificate(shared_keypair, b"\x01" * 16, NOW, NOW + 60)
    master = _master_with(shared_keypair, {"me", "issuer"}, {("me", "issuer")})
    cr = CertRepository()
    result = keymgmt.admit_certificate(cr, cert, master, "issuer", "me", NOW)
    assert result is AdmitResult.ACCEPTED
    assert cr.get(b"\x01" * 16) == cert


def test_admit_rejects_unknown_issuer(shared_keypair):
    cert = crypto.make_certificate(shared_keypair, b"\x01" * 16, NOW, NOW + 60)
    master = _master_with(shared_keypair, {"me"}, set())
    cr = CertRepository()
    result = keymgmt.admit_certificate(cr, cert, master, "sybil", "me", NOW)
    assert result is AdmitResult.UNTRUSTED_ISSUER
    assert len(cr) == 0


def test_admit_rejects_expired(shared_keypair):
    cert = crypto.make_certificate(shared_keypair, b"\x01" * 16, NOW, NOW + 60)
    master = _master_with(shared_keypair, {"me", "issuer"}, {("me", "issuer")})
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
    master = _master_with(shared_keypair, {"me", "issuer"}, {("me", "issuer")})
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
        graph = build_trust_graph(local, skr, received)
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
def test_master_reachability_matches_trust_graph_and_networkx(edges, queries):
    graph = keymgmt.TrustGraph(set(_NODES), set(edges))
    master = snapshot_master(graph, NOW)
    oracle = nx.DiGraph()
    oracle.add_nodes_from(graph.nodes)
    oracle.add_edges_from(graph.edges)
    # Repeated and multi-source queries on one snapshot, then every pair again.
    pairs = [*queries, *queries, *((s, d) for s in _NODES for d in _NODES)]
    for src, dst in pairs:
        want = src in oracle and dst in oracle and nx.has_path(oracle, src, dst)
        assert trust_path_exists(master, src, dst) == want
        assert trust_path_exists(graph, src, dst) == want
    # The memo is not part of the snapshot's value.
    fresh = snapshot_master(graph, NOW)
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
    master = _master_with(shared_keypair, {"me", "issuer"}, {("me", "issuer")})
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
