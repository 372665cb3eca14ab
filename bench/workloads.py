"""The three benchmark workloads: discover, group and checkin.

Each workload builds its state from a seed in its constructor (the
benchmark's set-up), then runs closed-loop units through ``unit()``. A
unit is one op (discover) or one op batch plus the background
work it triggers (a group round ends with a certificate push, a checkin
epoch ends with the epoch close). ``unit()`` times its own ops and
background work and leaves bookkeeping (checks, clearing logs) outside
the timed regions.

Every call into the package goes through a module attribute
(``protocol.create_session``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from random import Random

from discoverfriends import bloom, crypto, fss, netsim, protocol
from discoverfriends.identity import CompositeId, FriendList
from discoverfriends.protocol import Phase, Role

NOW = 1_700_000_000
VALIDITY_SECONDS = 3600
FPP = 0.02
CAPACITY_BPS = 20e6

clock = time.perf_counter


@dataclass(frozen=True)
class Scale:
    """Input sizes of one workload; each workload reads only its own fields."""

    friends: int = 0  # discover: the initiator's friend-list size
    targets: int = 0  # discover friends in range; group members besides the initiator
    bystanders: int = 0
    member_friends: int = 0  # friend-list size of every other node
    input_bits: int = 0  # checkin: 2^input_bits slots
    output_len: int = 0  # checkin: slot bytes
    epoch_size: int = 0  # checkin: check-ins per epoch


# "full" is the measured configuration; "smoke" a toy one for the tests.
SCALES = {
    "discover": {
        "full": Scale(friends=1000, targets=10, bystanders=5, member_friends=1000),
        "smoke": Scale(friends=40, targets=3, bystanders=2, member_friends=40),
    },
    "group": {
        "full": Scale(targets=40, bystanders=20, member_friends=10),
        "smoke": Scale(targets=4, bystanders=2, member_friends=3),
    },
    "checkin": {
        "full": Scale(input_bits=14, output_len=187, epoch_size=16),
        "smoke": Scale(input_bits=8, output_len=62, epoch_size=4),
    },
}


@dataclass
class Unit:
    """What one closed-loop unit did."""

    latencies: list[float]  # seconds, one per op
    busy: float  # timed seconds: the ops plus their background work
    failed: int  # ops whose output check failed
    outcome: str  # deterministic summary of the ops' outcomes


def _ids(rng: Random, n: int) -> list[CompositeId]:
    return [CompositeId(rng.randbytes(16)) for _ in range(n)]


def _friend_list(comps: list[CompositeId]) -> FriendList:
    friends = FriendList()
    for i, comp in enumerate(comps):
        friends.add(f"friend-{i}", comp)
    return friends


def _session(role: Role, comp: CompositeId, friends: FriendList, rng_label: str):
    return protocol.create_session(
        role, comp, friends, NOW, VALIDITY_SECONDS, rng=Random(rng_label)
    )


def _key_round(sessions: list[protocol.SessionState]) -> None:
    """Every node hears every other node's key, then freezes its master graph."""
    all_keys = {s.node_id: s.keypair.public_bytes for s in sessions}
    received_from = {s.node_id: set(all_keys) - {s.node_id} for s in sessions}
    for session in sessions:
        protocol.install_network_keys(session, all_keys, received_from, NOW)


def _broadcast(sim: netsim.Simulator, src: str, payload: bytes, frame_type: str) -> None:
    sim.send(src, netsim.Frame(src=src, dst=None, payload=payload, frame_type=frame_type), now=sim.now)


def _unicast(sim: netsim.Simulator, src: str, dst: str, payload: bytes, frame_type: str, at: int) -> None:
    sim.send(src, netsim.Frame(src=src, dst=dst, payload=payload, frame_type=frame_type), now=at)


def _decision_name(decision) -> str:
    if isinstance(decision, protocol.Accept):
        return "accept"
    if isinstance(decision, protocol.Ignore):
        return f"ignore:{decision.reason}"
    return f"reject:{decision.reason}"


def _plaintext(tag: str) -> bytes:
    return tag.encode().ljust(protocol.MAX_PLAINTEXT, b".")


class _Network:
    """A broadcast medium plus its simulator, with per-op log accounting."""

    def __init__(self, node_ids: list[str], seed: int, trace):
        self.topology = netsim.build_broadcast(node_ids, capacity_bps=CAPACITY_BPS)
        self.sim = netsim.Simulator(self.topology, seed=seed)
        self.trace = trace

    def set_handler(self, node_id: str, handler) -> None:
        self.topology.nodes[node_id].handler = self.trace.wrap_handler(handler)

    def drain(self, timed: bool = True) -> None:
        """Count a timed op's netsim work, then drop the logs."""
        trace, links = self.trace, self.topology.links
        if trace.enabled and timed:
            trace.count("frames", sum(link.sent for link in links))
            trace.count("drops", sum(link.dropped_queue + link.dropped_loss for link in links))
            trace.count("trace_rows", len(self.sim.trace))
            trace.count("deliveries", sum(1 for row in self.sim.trace if row[4] == "deliver"))
        for link in links:
            link.sent = link.delivered = link.dropped_queue = link.dropped_loss = 0
        self.sim.trace.clear()
        for node in self.topology.nodes.values():
            node.inbox.clear()

    def close(self) -> None:
        """Drop the handlers, which hold their owner, so memory frees at once."""
        for node in self.topology.nodes.values():
            node.handler = None


class Discover:
    """Fresh network initialization, then stages 1-3, per op."""

    def __init__(self, seed: int, scale: Scale, trace):
        self.trace = trace
        self.seed = seed
        rng = Random(f"{seed}:discover")
        self.params = bloom.derive_params(scale.friends, FPP)
        self.initiator = initiator = CompositeId(rng.randbytes(16))
        own_friends = _ids(rng, scale.friends)
        self.targets = own_friends[: scale.targets]
        self.bystanders = _ids(rng, scale.bystanders)
        self.friend_lists = {initiator.digest: _friend_list(own_friends)}
        for comp in self.targets:
            others = _ids(rng, scale.member_friends - 1)
            self.friend_lists[comp.digest] = _friend_list([initiator, *others])
        for comp in self.bystanders:
            self.friend_lists[comp.digest] = _friend_list(_ids(rng, scale.member_friends))
        self.sim_seeds = rng
        self.op = 0
        self.round = _DiscoverRound(self, self.op)

    def unit(self) -> Unit:
        rnd = self.round
        self.trace.begin(self.op)
        start = clock()
        request = protocol.build_setup_request(
            rnd.initiator, rnd.initiator.friends.composites(), self.params, NOW
        )
        _broadcast(rnd.net.sim, rnd.initiator.node_id, request.encode(), "setup")
        rnd.net.sim.run()
        _, update = protocol.complete_initialization(rnd.initiator, rnd.replies, NOW)
        _broadcast(rnd.net.sim, rnd.initiator.node_id, update.encode(), "cert_update")
        rnd.net.sim.run()
        elapsed = clock() - start
        self.trace.begin(None)
        ok, outcome = rnd.check()
        rnd.net.drain()
        rnd.net.close()
        self.op += 1
        self.round = _DiscoverRound(self, self.op)  # the next op's network, outside the timed region
        return Unit([elapsed], elapsed, 0 if ok else 1, outcome)


class _DiscoverRound:
    """One network initialization: fresh sessions, key round and medium."""

    def __init__(self, wl: Discover, index: int):
        label = f"{wl.seed}:discover:{index}"
        self.trace = wl.trace
        self.initiator = _session(
            Role.INITIATOR, wl.initiator, wl.friend_lists[wl.initiator.digest], f"{label}:i"
        )
        self.targets = [
            _session(Role.TARGET, c, wl.friend_lists[c.digest], f"{label}:t{i}")
            for i, c in enumerate(wl.targets)
        ]
        self.bystanders = [
            _session(Role.TARGET, c, wl.friend_lists[c.digest], f"{label}:b{i}")
            for i, c in enumerate(wl.bystanders)
        ]
        everyone = [self.initiator, *self.targets, *self.bystanders]
        _key_round(everyone)
        self.net = _Network([s.node_id for s in everyone], wl.sim_seeds.randrange(2**32), wl.trace)
        self.replies: list[protocol.SetupReply] = []
        self.decisions: dict[str, str] = {}
        self.updates: dict[str, protocol.CertUpdate] = {}
        self.net.set_handler(self.initiator.node_id, self._on_initiator)
        for session in everyone[1:]:
            self.net.set_handler(session.node_id, self._on_node)
        self.sessions = {s.node_id: s for s in everyone}

    def _on_initiator(self, sim, node_id, frame, at):
        parsed = protocol.decode_frame(frame.payload)
        if isinstance(parsed, protocol.SetupReply):
            self.replies.append(parsed)

    def _on_node(self, sim, node_id, frame, at):
        session = self.sessions[node_id]
        parsed = protocol.decode_frame(frame.payload)
        if isinstance(parsed, protocol.SetupRequest):
            decision = protocol.process_setup_request(session, parsed, NOW)
            self.decisions[node_id] = _decision_name(decision)
            if isinstance(decision, protocol.Accept):
                _unicast(sim, node_id, self.initiator.node_id, decision.reply.encode(), "reply", at)
        elif isinstance(parsed, protocol.CertUpdate) and session.phase is Phase.CONNECTED:
            protocol.apply_cert_update(session, parsed, NOW)
            self.updates[node_id] = parsed

    def check(self) -> tuple[bool, str]:
        """Peers are exactly the targets; targets hold every group certificate."""
        target_digests = {s.composite.digest for s in self.targets}
        group = target_digests | {self.initiator.composite.digest}
        ok = set(self.initiator.peers) == target_digests
        for session in self.targets:
            update = self.updates.get(session.node_id)
            own = session.composite.digest
            ok = ok and session.phase is Phase.CONNECTED and update is not None
            ok = ok and set(session.peers) == group - {own}
            ok = ok and all(
                session.cr.get(c.subject_digest) is c
                for c in update.certs
                if c.subject_digest != own
            )
        ok = ok and all(self.decisions.get(s.node_id) == "accept" for s in self.targets)
        ok = ok and not any(self.decisions.get(s.node_id) == "accept" for s in self.bystanders)
        probed = [self.decisions.get(s.node_id) for s in self.bystanders]
        self.trace.count("nontarget_probes", len(probed))
        self.trace.count("nontarget_hits", probed.count("reject:unknown_initiator"))
        outcome = ",".join(self.decisions.get(s.node_id, "-") for s in [*self.targets, *self.bystanders])
        return ok, f"{outcome};peers={len(self.initiator.peers)}"


class Group:
    """Hybrid-encrypted hellos in a connected group, with periodic cert pushes."""

    def __init__(self, seed: int, scale: Scale, trace):
        self.trace = trace
        rng = Random(f"{seed}:group")
        initiator_comp = CompositeId(rng.randbytes(16))
        member_comps = _ids(rng, scale.targets)
        self.initiator = _session(
            Role.INITIATOR, initiator_comp, _friend_list(member_comps), f"{seed}:group:i"
        )
        self.members = [
            _session(
                Role.TARGET, c, _friend_list([initiator_comp, *_ids(rng, scale.member_friends - 1)]),
                f"{seed}:group:m{i}",
            )
            for i, c in enumerate(member_comps)
        ]
        self.bystanders = [
            _session(Role.TARGET, c, _friend_list(_ids(rng, scale.member_friends)), f"{seed}:group:b{i}")
            for i, c in enumerate(_ids(rng, scale.bystanders))
        ]
        everyone = [self.initiator, *self.members, *self.bystanders]
        self.sessions = {s.node_id: s for s in everyone}
        _key_round(everyone)
        self.net = _Network(list(self.sessions), rng.randrange(2**32), trace)
        self.net.set_handler(self.initiator.node_id, self._on_initiator)
        for session in everyone[1:]:
            self.net.set_handler(session.node_id, self._on_node)
        self.replies: list[protocol.SetupReply] = []
        self.decrypted: dict[str, bytes] = {}
        self.acks: list[bytes] = []
        self.updates: dict[str, protocol.CertUpdate] = {}
        self.ack_text = b""

        # Stages 1-3 form the group.
        params = bloom.derive_params(scale.targets, FPP)
        request = protocol.build_setup_request(
            self.initiator, self.initiator.friends.composites(), params, NOW
        )
        _broadcast(self.net.sim, self.initiator.node_id, request.encode(), "setup")
        self.net.sim.run()
        _, update = protocol.complete_initialization(self.initiator, self.replies, NOW)
        _broadcast(self.net.sim, self.initiator.node_id, update.encode(), "cert_update")
        self.net.sim.run()
        self.net.drain(timed=False)
        if set(self.initiator.peers) != {m.composite.digest for m in self.members}:
            raise RuntimeError("group set-up did not connect every member")
        self.op = 0

    def _on_initiator(self, sim, node_id, frame, at):
        parsed = protocol.decode_frame(frame.payload)
        if isinstance(parsed, protocol.SetupReply):
            self.replies.append(parsed)
        elif isinstance(parsed, protocol.DataMessage):
            plaintext, _ = protocol.receive_message(self.initiator, parsed)
            self.acks.append(plaintext)

    def _on_node(self, sim, node_id, frame, at):
        session = self.sessions[node_id]
        parsed = protocol.decode_frame(frame.payload)
        if isinstance(parsed, protocol.SetupRequest):
            decision = protocol.process_setup_request(session, parsed, NOW)
            if isinstance(decision, protocol.Accept):
                _unicast(sim, node_id, self.initiator.node_id, decision.reply.encode(), "reply", at)
        elif session.phase is not Phase.CONNECTED:
            return
        elif isinstance(parsed, protocol.CertUpdate):
            protocol.apply_cert_update(session, parsed, NOW)
            self.updates[node_id] = parsed
        elif isinstance(parsed, protocol.DataMessage):
            self.trace.count("hello_unwraps")
            try:
                plaintext, ack = protocol.receive_message(
                    session, parsed, sender=self.initiator.composite, ack_plaintext=self.ack_text
                )
            except (crypto.KeyUnwrapError, crypto.IntegrityError):
                return  # not the addressee
            self.trace.count("hello_decrypted")
            self.decrypted[node_id] = plaintext
            _unicast(sim, node_id, self.initiator.node_id, ack.encode(), "data", at)

    def _message(self, peer: protocol.SessionState) -> tuple[float, bool]:
        text = _plaintext(f"hello:{self.op}:{peer.node_id[:8]}")
        self.ack_text = _plaintext(f"ack:{self.op}")
        self.decrypted, self.acks = {}, []
        self.trace.begin(self.op)
        start = clock()
        msg = protocol.send_message(self.initiator, peer.composite, text)
        _broadcast(self.net.sim, self.initiator.node_id, msg.encode(), "data")
        self.net.sim.run()
        elapsed = clock() - start
        self.trace.begin(None)
        self.net.drain()
        ok = self.decrypted == {peer.node_id: text} and self.acks == [self.ack_text]
        self.op += 1
        return elapsed, ok

    def _push(self) -> tuple[float, bool]:
        """The initiator re-sends all group certificates; every member re-admits them."""
        self.updates = {}
        self.trace.begin(self.trace.BACKGROUND)
        start = clock()
        certs = (self.initiator.certificate, *(m.certificate for m in self.members))
        payload = protocol.CertUpdate(certs).encode()
        _broadcast(self.net.sim, self.initiator.node_id, payload, "cert_update")
        self.net.sim.run()
        # The sender applies its own broadcast as received.
        own = protocol.decode_frame(payload)
        protocol.apply_cert_update(self.initiator, own, NOW)
        elapsed = clock() - start
        self.trace.begin(None)
        self.net.drain()
        self.updates[self.initiator.node_id] = own
        ok = len(self.updates) == len(self.members) + 1
        for node_id, update in self.updates.items():
            session = self.sessions[node_id]
            mine = session.composite.digest
            ok = ok and all(
                session.cr.get(c.subject_digest) is c for c in update.certs if c.subject_digest != mine
            )
        return elapsed, ok

    def unit(self) -> Unit:
        latencies, oks = [], []
        for peer in self.members:
            elapsed, ok = self._message(peer)
            latencies.append(elapsed)
            oks.append(ok)
        push_s, push_ok = self._push()
        failed = len(oks) if not push_ok else oks.count(False)
        outcome = "".join("1" if ok else "0" for ok in oks) + f";push={int(push_ok)}"
        return Unit(latencies, sum(latencies) + push_s, failed, outcome)


class Checkin:
    """Anonymous check-ins into 2-server epochs of fixed size."""

    SERVERS = 2

    def __init__(self, seed: int, scale: Scale, trace):
        self.trace = trace
        self.scale = scale
        self.params = fss.DpfParams(scale.input_bits, scale.output_len, self.SERVERS)
        self.inputs = Random(f"{seed}:checkin:messages")
        self.key_rng = Random(f"{seed}:checkin:keys")
        self.capacity = scale.output_len - fss.SLOT_HEADER_LEN
        self.op = 0
        self.epoch_id = 0
        self._epoch(2, warm_up=True)

    def _epoch(self, size: int, warm_up: bool = False) -> Unit:
        # Fresh servers per epoch: the servers keep every epoch's buffers,
        # which would make memory grow with the run's length.
        servers = [
            fss.EpochServer(server_id=i, params=self.params, peer_count=self.SERVERS)
            for i in range(self.SERVERS)
        ]
        self.epoch_id += 1
        epoch = self.epoch_id
        writes: dict[int, list[bytes]] = {}
        latencies = []
        for n in range(size):
            message = self.inputs.randbytes(self.inputs.randrange(1, self.capacity + 1))
            client = f"client-{epoch}-{n}"
            self.trace.begin(None if warm_up else self.op)
            start = clock()
            index, keys = fss.client_check_in(message, self.params, self.key_rng)
            blobs = [key.to_bytes() for key in keys]
            for server, blob in zip(servers, blobs):
                server.submit(epoch, fss.DpfKey.from_bytes(blob), client_id=client)
            latencies.append(clock() - start)
            self.trace.begin(None)
            self.trace.count("key_bytes", sum(len(b) for b in blobs))
            self.trace.count("keys", len(blobs))
            writes.setdefault(index, []).append(message)
            if not warm_up:
                self.op += 1

        self.trace.begin(None if warm_up else self.trace.BACKGROUND)
        start = clock()
        with self.trace.span("bench.epoch_close"):
            for server in servers:
                server.seal(epoch)
            shares = [(s.delta_bytes(epoch), s.membership(epoch)) for s in servers]
            for i, server in enumerate(servers):
                for j, (delta, membership) in enumerate(shares):
                    if i != j:
                        server.exchange(epoch, delta, membership)
            outputs = [server.output(epoch) for server in servers]
        with self.trace.span("bench.decode_slots"):
            database = fss.ShareDatabase.from_bytes(outputs[0], self.params)
            slots = [fss.decode_slot(database.slot(i)) for i in range(self.params.domain_size)]
        close_s = clock() - start
        self.trace.begin(None)

        clean = {i: ms[0] for i, ms in writes.items() if len(ms) == 1}
        collisions = len(writes) - len(clean)
        recovered = sum(1 for i, m in clean.items() if slots[i] == ("message", m))
        stray = sum(1 for i, (kind, _) in enumerate(slots) if kind != "empty" and i not in writes)
        epoch_ok = len(set(outputs)) == 1 and stray == 0
        failed = size if not epoch_ok else len(clean) - recovered
        if not warm_up:
            self.trace.count("collisions", collisions)
            self.trace.count("clean_writes", len(clean))
            self.trace.count("recovered", recovered)
            self.trace.count("epochs", 1)
        digest = hashlib.sha256(repr(sorted(clean)).encode()).hexdigest()[:16]
        outcome = f"{recovered}/{len(clean)};collisions={collisions};stray={stray};{digest}"
        return Unit(latencies, sum(latencies) + close_s, failed, outcome)

    def unit(self) -> Unit:
        return self._epoch(self.scale.epoch_size)


WORKLOADS = {"discover": Discover, "group": Group, "checkin": Checkin}
