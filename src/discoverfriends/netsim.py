"""Deterministic discrete-event simulation of ad-hoc Wi-Fi style links.

Nodes carry two interfaces (legacy and p2p). A chain of h hops is h+1
nodes joined by h capacity-limited broadcast links; intermediate nodes
relay by receiving on one interface and retransmitting on the other.
Co-channel interference across a chain is modeled as a multiplicative
per-extra-hop capacity penalty applied to every link.

Each interface serializes one frame at a time (payload_bits / capacity)
behind a drop-tail queue, so congestion loss emerges once offered load
exceeds the effective capacity; independent per-hop corruption loss is
sampled from the link's base loss rate. The clock is integer
microseconds and all randomness comes from one seeded generator, so a
run is a pure function of (topology, workload, seed).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from random import Random

MTU = 65_507
QUEUE_FRAMES = 64


@dataclass(frozen=True)
class Frame:
    src: str
    dst: str | None  # None broadcasts to every node on the link
    payload: bytes
    frame_type: str = "data"

    def __post_init__(self) -> None:
        if len(self.payload) > MTU:
            raise ValueError(f"payload of {len(self.payload)} bytes exceeds MTU {MTU}")

    @property
    def bits(self) -> int:
        return len(self.payload) * 8


@dataclass
class Link:
    link_id: str
    capacity_bps: float
    base_loss: float = 0.0
    attached: list[tuple[str, str]] = field(default_factory=list)  # (node, iface)
    sent: int = 0
    delivered: int = 0
    dropped_queue: int = 0
    dropped_loss: int = 0

    def __post_init__(self) -> None:
        if self.capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= self.base_loss <= 1.0:
            raise ValueError("base_loss must be in [0, 1]")


@dataclass
class Interface:
    name: str
    link: Link | None = None
    queue: deque = field(default_factory=deque)
    busy: bool = False


@dataclass
class SimNode:
    node_id: str
    legacy: Interface = field(default_factory=lambda: Interface("legacy"))
    p2p: Interface = field(default_factory=lambda: Interface("p2p"))
    relay_enabled: bool = False
    inbox: list[tuple[int, Frame]] = field(default_factory=list)
    handler: object = None  # callable(sim, node_id, frame, now)

    def interfaces(self) -> list[Interface]:
        return [self.legacy, self.p2p]

    def attached_interfaces(self) -> list[Interface]:
        return [i for i in self.interfaces() if i.link is not None]

    def interface(self, name: str) -> Interface:
        if name == "legacy":
            return self.legacy
        if name == "p2p":
            return self.p2p
        raise ValueError(f"unknown interface {name}")


@dataclass
class Topology:
    nodes: dict[str, SimNode]
    links: list[Link]


def _attach(node: SimNode, iface_name: str, link: Link) -> None:
    node.interface(iface_name).link = link
    link.attached.append((node.node_id, iface_name))


def build_chain(
    hops: int,
    capacity_bps: float,
    base_loss: float = 0.0,
    interference_penalty: float = 1.0,
) -> Topology:
    """Linear chain of hops+1 nodes; middle nodes relay between interfaces."""
    if hops < 1:
        raise ValueError("hops must be >= 1")
    if not 0.0 < interference_penalty <= 1.0:
        raise ValueError("interference_penalty must be in (0, 1]")
    effective = capacity_bps * interference_penalty ** (hops - 1)
    nodes = {f"n{i}": SimNode(node_id=f"n{i}") for i in range(hops + 1)}
    links = []
    for i in range(hops):
        link = Link(link_id=f"l{i}", capacity_bps=effective, base_loss=base_loss)
        _attach(nodes[f"n{i}"], "p2p", link)
        _attach(nodes[f"n{i + 1}"], "legacy", link)
        links.append(link)
    for i in range(1, hops):
        nodes[f"n{i}"].relay_enabled = True
    return Topology(nodes=nodes, links=links)


def build_broadcast(
    node_ids: list[str], capacity_bps: float, base_loss: float = 0.0
) -> Topology:
    """Single shared medium: every node's legacy interface on one link."""
    link = Link(link_id="l0", capacity_bps=capacity_bps, base_loss=base_loss)
    nodes = {}
    for node_id in node_ids:
        node = SimNode(node_id=node_id)
        _attach(node, "legacy", link)
        nodes[node_id] = node
    return Topology(nodes=nodes, links=[link])


class Simulator:
    """Single-threaded event loop over a topology."""

    def __init__(self, topology: Topology, seed: int = 0):
        self.topology = topology
        self.rng = Random(seed)
        self.now = 0
        self._events: list[tuple[int, int, object]] = []
        self._seq = 0
        self.trace: list[tuple[int, str, str, int, str]] = []

    def log(self, time_us: int, node: str, frame_type: str, size: int, outcome: str) -> None:
        self.trace.append((time_us, node, frame_type, size, outcome))

    def trace_lines(self) -> list[str]:
        return [
            f"{t},{node},{ftype},{size},{outcome}"
            for t, node, ftype, size, outcome in self.trace
        ]

    def _schedule(self, time_us: int, fn) -> None:
        heapq.heappush(self._events, (time_us, self._seq, fn))
        self._seq += 1

    def send(
        self, node_id: str, frame: Frame, now: int | None = None, iface: str | None = None
    ) -> None:
        """Enqueue a frame on the node's (single, or named) attached interface."""
        node = self.topology.nodes[node_id]
        if iface is not None:
            interface = node.interface(iface)
            if interface.link is None:
                raise ValueError(f"{node_id}.{iface} is not attached to a link")
        else:
            attached = node.attached_interfaces()
            if not attached:
                raise ValueError(f"{node_id} has no attached interface")
            if len(attached) > 1:
                raise ValueError(f"{node_id} has two attached interfaces; name one")
            interface = attached[0]
        at = self.now if now is None else now
        self._schedule(at, lambda: self._enqueue(node, interface, frame))

    def _enqueue(self, node: SimNode, interface: Interface, frame: Frame) -> None:
        link = interface.link
        link.sent += 1
        if len(interface.queue) >= QUEUE_FRAMES:
            link.dropped_queue += 1
            self.log(self.now, node.node_id, frame.frame_type, len(frame.payload), "drop_queue")
            return
        interface.queue.append(frame)
        self.log(self.now, node.node_id, frame.frame_type, len(frame.payload), "enqueue")
        self._pump(node, interface)

    def _pump(self, node: SimNode, interface: Interface) -> None:
        if interface.busy or not interface.queue:
            return
        frame = interface.queue.popleft()
        interface.busy = True
        duration = max(1, round(frame.bits * 1_000_000 / interface.link.capacity_bps))
        self._schedule(
            self.now + duration, lambda: self._complete(node, interface, frame)
        )

    def _complete(self, node: SimNode, interface: Interface, frame: Frame) -> None:
        interface.busy = False
        link = interface.link
        if self.rng.random() < link.base_loss:
            link.dropped_loss += 1
            self.log(self.now, node.node_id, frame.frame_type, len(frame.payload), "drop_loss")
        else:
            link.delivered += 1
            for peer_id, iface_name in link.attached:
                if peer_id == node.node_id and interface.name == iface_name:
                    continue
                self._deliver(self.topology.nodes[peer_id], iface_name, frame)
        self._pump(node, interface)

    def _deliver(self, node: SimNode, arrived_iface: str, frame: Frame) -> None:
        addressed = frame.dst is None or frame.dst == node.node_id
        if addressed:
            self.log(self.now, node.node_id, frame.frame_type, len(frame.payload), "deliver")
            node.inbox.append((self.now, frame))
            if node.handler is not None:
                node.handler(self, node.node_id, frame, self.now)
        if node.relay_enabled and frame.dst != node.node_id:
            out = node.p2p if arrived_iface == "legacy" else node.legacy
            if out.link is not None:
                self.log(self.now, node.node_id, frame.frame_type, len(frame.payload), "relay")
                self._enqueue(node, out, frame)

    def run(self, until: int | None = None) -> None:
        while self._events:
            time_us, _, fn = self._events[0]
            if until is not None and time_us > until:
                break
            heapq.heappop(self._events)
            self.now = time_us
            fn()


def run_load_test(
    topology: Topology,
    offered_load_bps: float,
    duration_s: float,
    frame_bytes: int = 1250,
    seed: int = 0,
) -> tuple[float, float]:
    """Drive a constant-rate unicast flow down the chain.

    Returns (delivered throughput in bits/second, loss fraction).
    """
    if offered_load_bps <= 0 or duration_s <= 0:
        raise ValueError("offered load and duration must be positive")
    sim = Simulator(topology, seed=seed)
    node_ids = list(topology.nodes)
    src, dst = node_ids[0], node_ids[-1]
    frame_bits = frame_bytes * 8
    total = int(duration_s * offered_load_bps // frame_bits)
    payload = bytes(frame_bytes)
    interarrival = frame_bits * 1_000_000 / offered_load_bps
    for i in range(total):
        frame = Frame(src=src, dst=dst, payload=payload, frame_type="load")
        sim.send(src, frame, now=int(i * interarrival))
    sim.run()
    delivered = len(topology.nodes[dst].inbox)
    throughput = delivered * frame_bits / duration_s
    loss = 1.0 - delivered / total if total else 0.0
    return throughput, loss
