"""Scenario runners: wire the protocol stack over the simulated network
and produce reproducible reports.

Every runner is a pure function of its config (seed included): reports
and traces from two runs with the same config are byte-identical. The
one exception is wall-clock timing, which goes to a separate side file
(timings.csv) and never into the deterministic report body.

Reference values from published measurements appear in a dedicated
report column for comparison; rows that embed an assertion record a
failure in the report instead of raising.
"""

from __future__ import annotations

import configparser
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from random import Random

from . import crypto, fss, identity, netsim, protocol
from .bloom import derive_params
from .identity import CompositeId, FriendList, OsnId
from .protocol import Phase, Role

EPOCH_BASE = 1_700_000_000  # fixed wall-clock origin for certificate windows
VALIDITY_SECONDS = 3600

# Cost model for the no-filter baseline that stores one pre-arranged key
# per friend: calibrated to 44.9 KB at 100 friends, hence exactly linear.
ABE_KB_PER_FRIEND = Fraction(449, 1000)

SETUP_REFERENCE_BYTES = 2516.59
CERT_UPDATE_REFERENCE = 481
NORMAL_REFERENCE = 176
FSS_SHARE_REFERENCE = 1_468_006
KEYSTORE_REFERENCE_KB = 4.52


@dataclass
class ScenarioConfig:
    kind: str = "discover"
    seed: int = 7
    # discovery
    fpp: float = 0.02
    friend_sizes: tuple[int, ...] = (100, 1000)
    connected: int = 10
    bystanders: int = 5
    messages: int = 3
    validity_seconds: int = VALIDITY_SECONDS
    # check-ins
    input_bits: int = 11
    output_len: int = 187
    servers: int = 2
    clients: int = 5
    message_sizes: tuple[int, ...] = (62, 125, 187)
    epochs: int = 100
    trials: int = 100
    # network
    capacity_mbps: float = 20.0
    base_loss: float = 0.0
    interference_penalty: float = 0.6
    hops: tuple[int, ...] = (1, 2, 3)
    loads_mbps: tuple[float, ...] = (4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 12.0, 16.0, 20.0, 24.0)
    duration_s: float = 1.0
    frame_bytes: int = 1250
    onset_target_mbps: float = 8.0

    def validate(self) -> None:
        if not 0.0 < self.fpp < 1.0:
            raise ValueError("fpp must be in (0, 1)")
        if self.kind in ("discover", "chat"):
            if not self.friend_sizes:
                raise ValueError("friend_sizes must be non-empty")
            if self.connected < 1 or self.connected > min(self.friend_sizes):
                raise ValueError("connected must be in [1, min(friend_sizes)]")
        if self.kind in ("checkin", "adversary"):
            if not 1 <= self.input_bits <= 14:
                raise ValueError("input_bits must be in [1, 14] for check-in runs")
            if self.servers not in (2, 3):
                raise ValueError("servers must be 2 or 3")
            if self.clients < 1:
                raise ValueError("clients must be >= 1")
            if self.output_len < fss.SLOT_HEADER_LEN:
                raise ValueError("output_len below slot header size")
        if self.kind == "loadtest":
            if any(h not in (1, 2, 3) for h in self.hops):
                raise ValueError("hops must be within {1, 2, 3}")
            if self.capacity_mbps <= 0 or self.duration_s <= 0:
                raise ValueError("capacity and duration must be positive")
            if not 0.0 < self.interference_penalty <= 1.0:
                raise ValueError("interference_penalty must be in (0, 1]")

    def ini_text(self) -> str:
        lines = ["[scenario]"]
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


def load_config(path: str | None, kind: str, seed: int | None = None) -> ScenarioConfig:
    cfg = ScenarioConfig(kind=kind)
    if path is not None:
        parser = configparser.ConfigParser()
        if not parser.read(path):
            raise ValueError(f"cannot read config file {path}")
        known = {f.name: f for f in fields(ScenarioConfig)}
        for section in parser.sections():
            for key, raw in parser.items(section):
                if key == "kind":
                    continue
                if key not in known:
                    raise ValueError(f"unknown config key '{key}'")
                current = getattr(cfg, key)
                if isinstance(current, tuple):
                    elem = float if any(isinstance(v, float) for v in current) else int
                    value = tuple(elem(v.strip()) for v in raw.split(",") if v.strip())
                elif isinstance(current, int):
                    value = int(raw)
                elif isinstance(current, float):
                    value = float(raw)
                else:
                    value = raw
                setattr(cfg, key, value)
    if seed is not None:
        cfg.seed = seed
    cfg.validate()
    return cfg


@dataclass
class Report:
    title: str
    config_text: str
    sections: list[tuple[str, list[tuple[str, str, str]]]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    traces: dict[str, list[str]] = field(default_factory=dict)
    side_files: dict[str, list[str]] = field(default_factory=dict)

    def section(self, title: str) -> list[tuple[str, str, str]]:
        rows: list[tuple[str, str, str]] = []
        self.sections.append((title, rows))
        return rows

    def check(self, rows: list, name: str, ok: bool, value: str, reference: str = "") -> None:
        rows.append((name, f"{value} [{'ok' if ok else 'FAIL'}]", reference))
        if not ok:
            self.failures.append(f"{name}: {value}")

    def render(self) -> str:
        out = [f"# {self.title}", ""]
        for title, rows in self.sections:
            out.append(f"== {title} ==")
            width_m = max([len(r[0]) for r in rows] + [6])
            width_v = max([len(r[1]) for r in rows] + [5])
            for metric, value, reference in rows:
                line = f"  {metric:<{width_m}}  {value:<{width_v}}"
                if reference:
                    line += f"  (reference: {reference})"
                out.append(line.rstrip())
            out.append("")
        out.append(f"STATUS: {'FAIL' if self.failures else 'PASS'}")
        for failure in self.failures:
            out.append(f"  failed: {failure}")
        out.append("")
        out.append("-- config --")
        out.append(self.config_text.rstrip())
        out.append("")
        return "\n".join(out)

    def csv_lines(self) -> list[str]:
        lines = ["section,metric,value,reference"]
        for title, rows in self.sections:
            for metric, value, reference in rows:
                lines.append(f"{title},{metric},{value},{reference}")
        return lines

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(self.render())
        (out / "results.csv").write_text("\n".join(self.csv_lines()) + "\n")
        for name, lines in self.traces.items():
            (out / name).write_text("\n".join(lines) + "\n")
        for name, lines in self.side_files.items():
            (out / name).write_text("\n".join(lines) + "\n")
        return out / "report.txt"


def _mk_composite(label: str) -> CompositeId:
    return identity.composite_of([OsnId("osn", label.encode())])


def _session(
    cfg: ScenarioConfig,
    role: Role,
    comp: CompositeId,
    friend_comps: list[CompositeId],
    rng_label: str,
) -> protocol.SessionState:
    """A session created at EPOCH_BASE, befriending friend_comps, on its own seeded rng."""
    friends = FriendList()
    for i, friend in enumerate(friend_comps):
        friends.add(f"friend-{i}", friend)
    return protocol.create_session(
        role, comp, friends, EPOCH_BASE, cfg.validity_seconds, rng=Random(rng_label)
    )


def _fixed_plaintext(tag: str) -> bytes:
    return tag.encode().ljust(protocol.MAX_PLAINTEXT, b".")[: protocol.MAX_PLAINTEXT]


@dataclass
class DiscoveryOutcome:
    sessions: dict[str, protocol.SessionState]
    initiator_id: str
    target_ids: list[str]
    request: protocol.SetupRequest
    update: protocol.CertUpdate
    reply_sizes: list[int]
    data_sizes: list[int]
    acks: int
    trace: list[str]
    decisions: dict[str, str]


def _run_discovery(
    cfg: ScenarioConfig, friends_n: int, with_messages: bool = True
) -> DiscoveryOutcome:
    """One full five-stage exchange over a shared broadcast medium."""
    rng = Random(f"{cfg.seed}:discover:{friends_n}")
    now = EPOCH_BASE

    initiator_comp = _mk_composite(f"initiator:{cfg.seed}:{friends_n}")
    friend_comps = [
        _mk_composite(f"friend:{cfg.seed}:{friends_n}:{i}") for i in range(friends_n)
    ]
    present = friend_comps[: cfg.connected]
    bystander_comps = [
        _mk_composite(f"bystander:{cfg.seed}:{friends_n}:{i}")
        for i in range(cfg.bystanders)
    ]

    initiator = _session(
        cfg, Role.INITIATOR, initiator_comp, friend_comps, f"{cfg.seed}:initiator:{friends_n}"
    )
    group = [initiator]
    group += [
        _session(cfg, Role.TARGET, comp, [initiator_comp], f"{cfg.seed}:target:{friends_n}:{i}")
        for i, comp in enumerate(present)
    ]
    group += [
        _session(
            cfg, Role.TARGET, comp, [_mk_composite(f"stranger:{cfg.seed}:{i}")],
            f"{cfg.seed}:bystander:{friends_n}:{i}",
        )
        for i, comp in enumerate(bystander_comps)
    ]
    protocol.key_round(group, now)
    sessions = {s.node_id: s for s in group}

    topology = netsim.build_broadcast(list(sessions), capacity_bps=cfg.capacity_mbps * 1e6)
    sim = netsim.Simulator(topology, seed=rng.randrange(2**32))

    replies: list[protocol.SetupReply] = []
    reply_sizes: list[int] = []
    decisions: dict[str, str] = {}
    data_plaintexts: dict[str, bytes] = {}
    acks_received: list[bytes] = []

    def node_handler(sim_, node_id, frame, at):
        session = sessions[node_id]
        parsed = protocol.decode_frame(frame.payload)
        if isinstance(parsed, protocol.SetupRequest):
            decision = protocol.process_setup_request(session, parsed, now)
            if isinstance(decision, protocol.Accept):
                decisions[node_id] = "accept"
                sim_.send(
                    node_id,
                    netsim.Frame(
                        src=node_id,
                        dst=initiator.node_id,
                        payload=decision.reply.encode(),
                        frame_type="reply",
                    ),
                    now=at,
                )
            elif isinstance(decision, protocol.Ignore):
                decisions[node_id] = "ignore"
            else:
                decisions[node_id] = f"reject:{decision.reason}"
            sim_.log(at, node_id, "setup", parsed.table_size(), decisions[node_id])
        elif isinstance(parsed, protocol.CertUpdate):
            if session.phase is Phase.CONNECTED:
                protocol.apply_cert_update(session, parsed, now)
                sim_.log(at, node_id, "cert_update", parsed.table_size(), "applied")
        elif isinstance(parsed, protocol.DataMessage):
            if session.phase is not Phase.CONNECTED:
                return
            try:
                plaintext, ack = protocol.receive_message(
                    session, parsed, sender=initiator_comp,
                    ack_plaintext=_fixed_plaintext(f"ack:{node_id[:8]}"),
                )
            except (crypto.KeyUnwrapError, crypto.IntegrityError):
                # not the addressee: either the wrap fails outright or, on a
                # fluke padding pass, the authentication tag rejects the body
                sim_.log(at, node_id, "data", parsed.table_size(), "unwrap_failed")
                return
            data_plaintexts[node_id] = plaintext
            sim_.log(at, node_id, "data", parsed.table_size(), "decrypted")
            if ack is not None:
                sim_.send(
                    node_id,
                    netsim.Frame(
                        src=node_id, dst=initiator.node_id,
                        payload=ack.encode(), frame_type="data",
                    ),
                    now=at,
                )

    def initiator_handler(sim_, node_id, frame, at):
        parsed = protocol.decode_frame(frame.payload)
        if isinstance(parsed, protocol.SetupReply):
            replies.append(parsed)
            reply_sizes.append(len(frame.payload))
            sim_.log(at, node_id, "reply", crypto.CERT_LEN, "collected")
        elif isinstance(parsed, protocol.DataMessage):
            try:
                plaintext, _ = protocol.receive_message(initiator, parsed)
            except (crypto.KeyUnwrapError, crypto.IntegrityError):
                return
            acks_received.append(plaintext)
            sim_.log(at, node_id, "data", parsed.table_size(), "ack")

    for node_id, session in sessions.items():
        topology.nodes[node_id].handler = (
            initiator_handler if node_id == initiator.node_id else node_handler
        )

    # Stage 1: broadcast the three-part request to everyone in range.
    params = derive_params(friends_n, cfg.fpp)
    request = protocol.build_setup_request(initiator, friend_comps, params, now)
    sim.send(
        initiator.node_id,
        netsim.Frame(
            src=initiator.node_id, dst=None,
            payload=request.encode(), frame_type="setup",
        ),
        now=0,
    )
    sim.run()

    # Stage 3: admit replies, then push the certificate set to the group.
    _, update = protocol.complete_initialization(initiator, replies, now)
    if update.certs:
        sim.send(
            initiator.node_id,
            netsim.Frame(
                src=initiator.node_id, dst=None,
                payload=update.encode(), frame_type="cert_update",
            ),
            now=sim.now,
        )
        sim.run()

    # Stages 4/5: one message per connected peer, acknowledged back.
    data_sizes = []
    if with_messages:
        for digest in initiator.peers:
            comp = CompositeId(digest)
            msg = protocol.send_message(
                initiator, comp, _fixed_plaintext(f"hello:{comp.hex()[:8]}")
            )
            data_sizes.append(msg.table_size())
            sim.send(
                initiator.node_id,
                netsim.Frame(
                    src=initiator.node_id, dst=None,
                    payload=msg.encode(), frame_type="data",
                ),
                now=sim.now,
            )
        sim.run()

    return DiscoveryOutcome(
        sessions=sessions,
        initiator_id=initiator.node_id,
        target_ids=[c.hex() for c in present],
        request=request,
        update=update,
        reply_sizes=reply_sizes,
        data_sizes=data_sizes,
        acks=len(acks_received),
        trace=sim.trace_lines(),
        decisions=decisions,
    )


def run_discover(cfg: ScenarioConfig) -> Report:
    """Full discovery for each friend-list size; packet and keystore accounting."""
    cfg.validate()
    report = Report(title="discover scenario", config_text=cfg.ini_text())
    stored: dict[int, int] = {}
    abe: dict[int, Fraction] = {}

    for friends_n in cfg.friend_sizes:
        outcome = _run_discovery(cfg, friends_n)
        initiator = outcome.sessions[outcome.initiator_id]
        rows = report.section(f"packet sizes (friends={friends_n})")
        setup_size = outcome.request.table_size()
        reference = f"{SETUP_REFERENCE_BYTES}" if friends_n == 1000 else ""
        if friends_n == 1000:
            ok = abs(setup_size - SETUP_REFERENCE_BYTES) / SETUP_REFERENCE_BYTES <= 0.01
            report.check(rows, "setup_bytes", ok, str(setup_size), reference)
        else:
            rows.append(("setup_bytes", str(setup_size), reference))
        rows.append(("setup_wire_bytes", str(len(outcome.request.encode())), ""))
        rows.append(
            (
                "reply_wire_bytes",
                str(outcome.reply_sizes[0]) if outcome.reply_sizes else "n/a",
                "encrypted certificate",
            )
        )
        report.check(
            rows, "cert_update_bytes_per_cert", crypto.CERT_LEN == CERT_UPDATE_REFERENCE,
            str(crypto.CERT_LEN), str(CERT_UPDATE_REFERENCE),
        )
        data_ok = bool(outcome.data_sizes) and all(
            s == NORMAL_REFERENCE for s in outcome.data_sizes
        )
        report.check(
            rows, "data_body_bytes", data_ok,
            str(outcome.data_sizes[0] if outcome.data_sizes else "n/a"),
            str(NORMAL_REFERENCE),
        )

        rows = report.section(f"connectivity (friends={friends_n})")
        report.check(
            rows, "connected_peers", len(initiator.peers) == cfg.connected,
            str(len(initiator.peers)), str(cfg.connected),
        )
        report.check(
            rows, "acks_received", outcome.acks == cfg.connected,
            str(outcome.acks), str(cfg.connected),
        )
        ignores = sum(1 for d in outcome.decisions.values() if d == "ignore")
        rows.append(("bystander_ignores", f"{ignores}/{cfg.bystanders}", ""))

        stored[friends_n] = initiator.stored_key_bytes()
        abe[friends_n] = ABE_KB_PER_FRIEND * friends_n
        report.traces[f"trace_discover_{friends_n}.csv"] = outcome.trace

    rows = report.section("keystore")
    for friends_n in cfg.friend_sizes:
        rows.append(
            (
                f"stored_key_bytes(friends={friends_n})",
                str(stored[friends_n]),
                f"{KEYSTORE_REFERENCE_KB} KB constant",
            )
        )
        rows.append(
            (
                f"abe_model_kb(friends={friends_n})",
                f"{float(abe[friends_n]):.1f}",
                "44.9 KB at 100 friends",
            )
        )
    sizes = list(cfg.friend_sizes)
    if len(sizes) >= 2:
        report.check(
            rows, "stored_bytes_constant",
            len({stored[n] for n in sizes}) == 1,
            "/".join(str(stored[n]) for n in sizes),
            "identical across friend-list sizes",
        )
        ratio = abe[sizes[-1]] / abe[sizes[0]]
        expected = Fraction(sizes[-1], sizes[0])
        report.check(
            rows, "abe_model_scaling", ratio == expected,
            f"{float(ratio):g}x", f"{float(expected):g}x",
        )
    return report


def run_chat(cfg: ScenarioConfig) -> Report:
    """Post-discovery message exchange; every message acknowledged."""
    cfg.validate()
    report = Report(title="chat scenario", config_text=cfg.ini_text())
    friends_n = cfg.friend_sizes[0]
    outcome = _run_discovery(cfg, friends_n, with_messages=False)
    initiator = outcome.sessions[outcome.initiator_id]
    sessions = outcome.sessions

    exchanged = 0
    mismatches = 0
    for round_no in range(cfg.messages):
        for digest in list(initiator.peers):
            comp = CompositeId(digest)
            text = _fixed_plaintext(f"chat:{round_no}:{comp.hex()[:8]}")
            msg = protocol.send_message(initiator, comp, text)
            target = sessions[comp.hex()]
            plaintext, ack = protocol.receive_message(
                target, msg, sender=initiator.composite,
                ack_plaintext=_fixed_plaintext(f"ack:{round_no}"),
            )
            if plaintext != text:
                mismatches += 1
            ack_text, _ = protocol.receive_message(initiator, ack)
            if ack_text != _fixed_plaintext(f"ack:{round_no}"):
                mismatches += 1
            exchanged += 1

    rows = report.section("chat")
    expected = cfg.messages * len(initiator.peers)
    report.check(rows, "round_trips", exchanged == expected, str(exchanged), str(expected))
    report.check(rows, "plaintext_mismatches", mismatches == 0, str(mismatches), "0")
    rows.append(("data_body_bytes", str(crypto.padded_len(protocol.MAX_PLAINTEXT)), str(NORMAL_REFERENCE)))
    report.traces["trace_chat.csv"] = outcome.trace
    return report


def run_checkin(cfg: ScenarioConfig) -> Report:
    """Anonymous check-ins: one epoch at full scale plus timing side file."""
    cfg.validate()
    report = Report(title="checkin scenario", config_text=cfg.ini_text())
    params = fss.DpfParams(cfg.input_bits, cfg.output_len, cfg.servers)
    rng = Random(f"{cfg.seed}:checkin")

    servers = [
        fss.EpochServer(server_id=i, params=params, peer_count=cfg.servers)
        for i in range(cfg.servers)
    ]
    epoch_id = 1
    sent: dict[int, bytes] = {}
    collisions = 0
    key_bytes = None
    for i in range(cfg.clients):
        message = _fixed_plaintext(f"checkin:client-{i}")[: params.output_len - fss.SLOT_HEADER_LEN]
        index, keys = fss.client_check_in(message, params, rng)
        if index in sent:
            collisions += 1
        sent[index] = message
        key_bytes = len(keys[0].to_bytes())
        for server, key in zip(servers, keys):
            server.submit(epoch_id, key, client_id=f"client-{i}")

    outputs = fss.close_epoch(servers, epoch_id)

    rows = report.section("epoch")
    report.check(
        rows, "server_outputs_identical", len(set(outputs)) == 1,
        f"{len(servers)} servers", "all byte-identical",
    )
    found = fss.ShareDatabase.from_bytes(outputs[0], params).decoded()
    recovered = sum(1 for index, message in sent.items() if found.get(index) == message)
    stray = len(found.keys() - sent.keys())
    report.check(
        rows, "messages_recovered", recovered == len(sent),
        f"{recovered}/{len(sent)}", "all client messages",
    )
    report.check(rows, "non_empty_stray_slots", stray == 0, str(stray), "0")
    report.check(rows, "collisions", collisions == 0, str(collisions), "0 (detect-only)")
    rows.append(("anonymity_set_slots", str(params.domain_size), "2048"))

    rows = report.section("sizes")
    rows.append(("dpf_key_bytes", str(key_bytes), f"{FSS_SHARE_REFERENCE} (reported, not asserted)"))
    rows.append(("delta_share_bytes", str(params.domain_size * params.output_len), ""))
    rows.append(("slot_bytes", str(params.output_len), "187"))

    timing_lines = ["message_size_bytes,accumulate_seconds"]
    timings = {}
    for m_size in cfg.message_sizes:
        t_params = fss.DpfParams(cfg.input_bits, m_size, cfg.servers)
        t_keys = fss.dpf_gen(
            1, fss.encode_slot(b"x" * (m_size - fss.SLOT_HEADER_LEN), m_size),
            t_params, Random(f"{cfg.seed}:timing:{m_size}"),
        )
        best = None
        for _ in range(5):
            epoch = fss.Epoch(epoch_id=0, params=t_params)
            start = time.perf_counter()
            for _ in range(10):
                fss.server_accumulate(epoch, t_keys[0])
            elapsed = (time.perf_counter() - start) / 10
            best = elapsed if best is None else min(best, elapsed)
        timings[m_size] = best
        timing_lines.append(f"{m_size},{best:.6f}")
    if len(cfg.message_sizes) >= 2:
        lo, hi = min(cfg.message_sizes), max(cfg.message_sizes)
        timing_lines.append(f"ratio_{hi}_over_{lo},{timings[hi] / timings[lo]:.3f}")
    report.side_files["timings.csv"] = timing_lines
    rows.append(("accumulate_timings", "written to timings.csv (hardware-dependent)", "8s/14s/20s trend"))
    return report


def run_loadtest(cfg: ScenarioConfig) -> Report:
    """Throughput/loss sweep per chain length."""
    cfg.validate()
    report = Report(title="loadtest scenario", config_text=cfg.ini_text())
    sweep_lines = ["hops,offered_mbps,throughput_mbps,loss_fraction"]
    max_throughput: dict[int, float] = {}
    onset: dict[int, float | None] = {}

    for hops in cfg.hops:
        losses = []
        onset[hops] = None
        for load in cfg.loads_mbps:
            topology = netsim.build_chain(
                hops, cfg.capacity_mbps * 1e6, cfg.base_loss, cfg.interference_penalty
            )
            throughput, loss = netsim.run_load_test(
                topology, load * 1e6, cfg.duration_s,
                frame_bytes=cfg.frame_bytes,
                seed=Random(f"{cfg.seed}:load:{hops}:{load}").randrange(2**32),
            )
            sweep_lines.append(f"{hops},{load:g},{throughput / 1e6:.3f},{loss:.4f}")
            max_throughput[hops] = max(max_throughput.get(hops, 0.0), throughput / 1e6)
            if onset[hops] is None and loss > cfg.base_loss + 0.005:
                onset[hops] = load
            losses.append(loss)
        rows = report.section(f"chain {hops}-hop")
        effective = cfg.capacity_mbps * cfg.interference_penalty ** (hops - 1)
        rows.append(("effective_capacity_mbps", f"{effective:.2f}", ""))
        reference_max = {1: "19", 2: "18", 3: "10"}[hops]
        rows.append(
            ("max_throughput_mbps", f"{max_throughput[hops]:.2f}", f"{reference_max} (not asserted)")
        )
        rows.append(("loss_onset_mbps", f"{onset[hops]:g}" if onset[hops] else "none", ""))
        monotone = all(b >= a - 1e-9 for a, b in zip(losses, losses[1:]))
        report.check(rows, "loss_monotone_in_load", monotone, str(monotone), "non-decreasing")

    rows = report.section("cross-chain")
    ordering = all(
        max_throughput[a] >= max_throughput[b] - 1e-9
        for a, b in zip(sorted(cfg.hops), sorted(cfg.hops)[1:])
    )
    report.check(
        rows, "throughput_ordering", ordering,
        " >= ".join(f"{max_throughput[h]:.1f}" for h in sorted(cfg.hops)),
        "1-hop >= 2-hop >= 3-hop",
    )
    onsets = [v for v in onset.values() if v is not None]
    first_onset = min(onsets) if onsets else None
    onset_ok = (
        first_onset is not None
        and abs(first_onset - cfg.onset_target_mbps) / cfg.onset_target_mbps <= 0.25
    )
    report.check(
        rows, "loss_onset_near_target", onset_ok,
        f"{first_onset:g}" if first_onset else "none",
        f"{cfg.onset_target_mbps:g} Mbps +/- 25%",
    )
    report.traces["sweep.csv"] = sweep_lines
    return report


def run_adversary(cfg: ScenarioConfig) -> Report:
    """Replay, common-friend eavesdropping and server-collusion experiments."""
    cfg.validate()
    report = Report(title="adversary scenario", config_text=cfg.ini_text())

    # Replay: recorded setup requests re-delivered after expiry.
    rows = report.section("replay of expired setup requests")
    acceptances = 0
    rejects_cert = 0
    pair_count = 5
    per_pair = max(1, cfg.trials // pair_count)
    trial = 0
    for pair in range(pair_count):
        now = EPOCH_BASE
        init_comp = _mk_composite(f"adv-init:{cfg.seed}:{pair}")
        target_comp = _mk_composite(f"adv-target:{cfg.seed}:{pair}")
        initiator = _session(
            cfg, Role.INITIATOR, init_comp, [target_comp], f"{cfg.seed}:adv:{pair}"
        )
        target = _session(cfg, Role.TARGET, target_comp, [init_comp], f"{cfg.seed}:adv-t:{pair}")
        params = derive_params(16, cfg.fpp)
        request = protocol.build_setup_request(initiator, [target_comp], params, now)
        recorded = protocol.decode_frame(request.encode())
        for i in range(per_pair):
            trial += 1
            replay_at = now + cfg.validity_seconds + 1 + i * 60
            decision = protocol.process_setup_request(target, recorded, replay_at)
            if isinstance(decision, protocol.Accept):
                acceptances += 1
            elif isinstance(decision, protocol.Reject) and decision.reason == "cert_invalid":
                rejects_cert += 1
    report.check(rows, "replay_acceptances", acceptances == 0, f"{acceptances}/{trial}", "0")
    report.check(
        rows, "rejected_as_cert_invalid", rejects_cert == trial, f"{rejects_cert}/{trial}", str(trial)
    )

    # Common-friend eavesdropper: identifies the initiator, reads nothing else.
    rows = report.section("common-friend eavesdropper")
    now = EPOCH_BASE
    init_comp = _mk_composite(f"eav-init:{cfg.seed}")
    targets = [_mk_composite(f"eav-target:{cfg.seed}:{i}") for i in range(3)]
    eve_comp = _mk_composite(f"eav-eve:{cfg.seed}")
    # Eve is a friend of the initiator, just not targeted.
    initiator = _session(
        cfg, Role.INITIATOR, init_comp, [*targets, eve_comp], f"{cfg.seed}:eav"
    )
    target_sessions = [
        _session(cfg, Role.TARGET, comp, [init_comp], f"{cfg.seed}:eav-t:{i}")
        for i, comp in enumerate(targets)
    ]
    eve = _session(cfg, Role.TARGET, eve_comp, [init_comp], f"{cfg.seed}:eav-e")
    protocol.key_round([initiator, *target_sessions, eve], now)

    params = derive_params(max(16, len(targets)), cfg.fpp)
    request = protocol.build_setup_request(initiator, targets, params, now)

    # Eve runs the mask recovery offline against her own friend list.
    recovered_mask = request.bf_c.xor_mask(request.bf_c_plus).bits
    eve_masks = {identity.id_mask(c, params.m_bits): c for c in eve.friends.composites()}
    identified = eve_masks.get(recovered_mask)
    cf_readable = False
    if identified is not None:
        try:
            crypto.sym_decrypt(identity.sym_key_of(identified), request.cf)
            cf_readable = True
        except crypto.IntegrityError:
            pass
    report.check(
        rows, "initiator_identified_by_common_friend",
        identified is not None and identified.digest == init_comp.digest,
        str(identified is not None), "mask match succeeds",
    )
    report.check(rows, "setup_certificate_readable", cf_readable, str(cf_readable), "yes (semi-public)")

    replies = []
    for session in target_sessions:
        decision = protocol.process_setup_request(session, request, now)
        assert isinstance(decision, protocol.Accept)
        replies.append(decision.reply)
    _, update = protocol.complete_initialization(initiator, replies, now)
    for session in target_sessions:
        protocol.apply_cert_update(session, update, now)

    intercepted = []
    for comp in targets:
        msg = protocol.send_message(initiator, comp, _fixed_plaintext(f"secret:{comp.hex()[:8]}"))
        intercepted.append(msg)
        msg2 = protocol.send_message(initiator, comp, _fixed_plaintext("second"))
        intercepted.append(msg2)
    eve_plaintexts = 0
    for msg in intercepted:
        try:
            crypto.sym_decrypt(
                crypto.unwrap_key(eve.keypair.private_key, msg.wrapped_key), msg.body
            )
            eve_plaintexts += 1
        except (crypto.KeyUnwrapError, crypto.IntegrityError):
            continue
    report.check(
        rows, "data_messages_decrypted_by_eve", eve_plaintexts == 0,
        f"{eve_plaintexts}/{len(intercepted)}", "0",
    )

    # Collusion: strict server subsets decode nothing across many epochs.
    rows = report.section("server collusion")
    c_params = fss.DpfParams(8, 62, cfg.servers)
    rng = Random(f"{cfg.seed}:collusion")
    false_messages = 0
    full_recovered = 0
    total_clean = 0
    collisions = 0
    subsets_checked = 0
    for epoch_no in range(cfg.epochs):
        servers = [
            fss.EpochServer(server_id=i, params=c_params, peer_count=cfg.servers)
            for i in range(cfg.servers)
        ]
        writes: dict[int, list[bytes]] = {}
        for c in range(3):
            message = f"e{epoch_no}c{c}".encode()
            index, keys = fss.client_check_in(message, c_params, rng)
            writes.setdefault(index, []).append(message)
            for server, key in zip(servers, keys):
                server.submit(1, key, client_id=f"c{c}")
        # colliding writes garble each other (detect-only, no correction)
        sent = {i: ms[0] for i, ms in writes.items() if len(ms) == 1}
        collisions += sum(1 for ms in writes.values() if len(ms) > 1)
        total_clean += len(sent)
        outputs = fss.close_epoch(servers, 1)
        deltas = [
            fss.ShareDatabase.from_bytes(s.delta_bytes(1), c_params) for s in servers
        ]
        # every strict non-empty subset of servers pools its deltas
        for mask in range(1, (1 << cfg.servers) - 1):
            subsets_checked += 1
            partial = fss.ShareDatabase.zeros(c_params)
            for i in range(cfg.servers):
                if (mask >> i) & 1:
                    partial.xor_update(deltas[i])
            false_messages += sum(1 for p in partial.decoded().values() if p is not None)
        found = fss.ShareDatabase.from_bytes(outputs[0], c_params).decoded()
        full_recovered += sum(1 for index, message in sent.items() if found.get(index) == message)
    report.check(
        rows, "messages_recovered_by_collusion", false_messages == 0,
        f"{false_messages} over {subsets_checked} subset-epochs", "0",
    )
    report.check(
        rows, "full_combination_recovers_all", full_recovered == total_clean,
        f"{full_recovered}/{total_clean}", "all collision-free writes",
    )
    rows.append(("index_collisions", str(collisions), "garbled, detected"))
    return report


RUNNERS = {
    "discover": run_discover,
    "chat": run_chat,
    "checkin": run_checkin,
    "loadtest": run_loadtest,
    "adversary": run_adversary,
}
