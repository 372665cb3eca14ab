import pytest

from discoverfriends import netsim
from discoverfriends.netsim import Frame, Simulator, build_broadcast, build_chain, run_load_test


def test_chain_shape():
    topo = build_chain(3, 20e6)
    assert len(topo.nodes) == 4  # h hops -> h+1 nodes
    assert len(topo.links) == 3
    assert not topo.nodes["n0"].relay_enabled
    assert topo.nodes["n1"].relay_enabled and topo.nodes["n2"].relay_enabled
    assert not topo.nodes["n3"].relay_enabled
    for node_id in ("n1", "n2"):  # relays have both interfaces attached
        node = topo.nodes[node_id]
        assert node.legacy.link is not None and node.p2p.link is not None


def test_single_hop_has_no_relays():
    topo = build_chain(1, 10e6)
    assert len(topo.nodes) == 2
    assert not any(n.relay_enabled for n in topo.nodes.values())


def test_interference_penalty_scales_capacity():
    topo = build_chain(3, 20e6, interference_penalty=0.75)
    assert all(abs(l.capacity_bps - 11.25e6) < 1e-6 for l in topo.links)
    flat = build_chain(1, 20e6, interference_penalty=0.75)
    assert flat.links[0].capacity_bps == 20e6  # no extra hops, no penalty


def test_build_chain_validation():
    with pytest.raises(ValueError):
        build_chain(0, 10e6)
    with pytest.raises(ValueError):
        build_chain(2, 10e6, interference_penalty=0.0)
    with pytest.raises(ValueError):
        netsim.Link("l", capacity_bps=0)


def test_mtu_enforced():
    with pytest.raises(ValueError):
        Frame("a", "b", bytes(netsim.MTU + 1))


def test_detached_source_rejected():
    topo = build_chain(1, 10e6)
    sim = Simulator(topo)
    with pytest.raises(ValueError):
        sim.send("n0", Frame("n0", "n1", b"x"), iface="legacy")  # n0 uses p2p


def test_single_hop_latency_is_serialization_delay():
    topo = build_chain(1, 20e6)
    sim = Simulator(topo, seed=0)
    sim.send("n0", Frame("n0", "n1", bytes(1250)), now=0)
    sim.run()
    (at, frame) = topo.nodes["n1"].inbox[0]
    assert at == 500  # 10_000 bits / 20 Mbps = 500 us


def test_three_hop_delivers_exactly_once_with_payload_intact():
    topo = build_chain(3, 20e6)
    sim = Simulator(topo, seed=0)
    payload = bytes(range(256)) * 4
    sim.send("n0", Frame("n0", "n3", payload), now=0)
    sim.run()
    arrivals = topo.nodes["n3"].inbox
    assert len(arrivals) == 1
    assert arrivals[0][1].payload == payload  # relay transparency


def test_conservation_per_link_under_loss():
    topo = build_chain(2, 10e6, base_loss=0.3)
    sim = Simulator(topo, seed=42)
    for i in range(200):
        sim.send("n0", Frame("n0", "n2", bytes(500)), now=i * 1000)
    sim.run()
    for link in topo.links:
        assert link.delivered + link.dropped_queue + link.dropped_loss == link.sent


def test_below_capacity_load():
    throughput, loss = run_load_test(build_chain(1, 20e6), 10e6, 0.5)
    assert loss == 0.0
    assert abs(throughput - 10e6) / 10e6 < 0.02


def test_base_loss_floor():
    throughput, loss = run_load_test(
        build_chain(1, 20e6, base_loss=0.1), 5e6, 1.0, seed=7
    )
    assert 0.06 <= loss <= 0.14


def test_overload_saturates_at_capacity():
    throughput, loss = run_load_test(build_chain(1, 20e6), 40e6, 1.0)
    assert abs(throughput - 20e6) / 20e6 < 0.10
    assert 0.40 <= loss <= 0.55


def test_loss_monotone_in_offered_load():
    losses = []
    for load in (4e6, 8e6, 12e6, 16e6, 24e6, 32e6):
        _, loss = run_load_test(build_chain(1, 10e6), load, 0.5)
        losses.append(loss)
    assert all(b >= a - 1e-9 for a, b in zip(losses, losses[1:]))


def test_more_hops_never_beat_fewer():
    results = {}
    for hops in (1, 2, 3):
        topo = build_chain(hops, 20e6, interference_penalty=0.6)
        throughput, _ = run_load_test(topo, 24e6, 0.5)
        results[hops] = throughput
    assert results[1] >= results[2] >= results[3]


def test_identical_seed_identical_trace():
    def run(seed):
        topo = build_chain(2, 10e6, base_loss=0.2)
        sim = Simulator(topo, seed=seed)
        for i in range(100):
            sim.send("n0", Frame("n0", "n2", bytes(400)), now=i * 500)
        sim.run()
        return sim.trace_lines()

    assert run(5) == run(5)
    assert run(5) != run(6)  # loss sampling differs


def test_broadcast_reaches_every_other_node():
    topo = build_broadcast(["a", "b", "c", "d"], 20e6)
    sim = Simulator(topo, seed=0)
    sim.send("a", Frame("a", None, b"hello all"), now=0)
    sim.run()
    assert len(topo.nodes["a"].inbox) == 0  # sender does not hear itself
    for node_id in ("b", "c", "d"):
        assert len(topo.nodes[node_id].inbox) == 1


def test_unicast_on_shared_link_delivers_to_dst_only():
    topo = build_broadcast(["a", "b", "c"], 20e6)
    sim = Simulator(topo, seed=0)
    sim.send("a", Frame("a", "c", b"direct"), now=0)
    sim.run()
    assert len(topo.nodes["b"].inbox) == 0
    assert len(topo.nodes["c"].inbox) == 1


def test_handler_can_respond():
    topo = build_broadcast(["a", "b"], 20e6)
    sim = Simulator(topo, seed=0)

    def echo(sim_, node_id, frame, at):
        if frame.frame_type == "ping":
            sim_.send(node_id, Frame(node_id, frame.src, b"pong", "pong"), now=at)

    topo.nodes["b"].handler = echo
    sim.send("a", Frame("a", "b", b"ping", "ping"), now=0)
    sim.run()
    assert any(f.frame_type == "pong" for _, f in topo.nodes["a"].inbox)
