"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single PASS line on success so a -s run reads as a
checklist; any failure surfaces through the normal pytest mechanism.
"""

import hashlib
import time
from random import Random

import numpy as np

from discoverfriends import crypto, fss, identity, protocol
from discoverfriends.bloom import BloomFilter, derive_params
from discoverfriends.identity import FriendList, OsnId, composite_of
from discoverfriends.protocol import Role
from discoverfriends.scenarios import (
    ScenarioConfig,
    run_adversary,
    run_chat,
    run_checkin,
    run_discover,
    run_loadtest,
)

NOW = 1_700_000_000


def _digest(label: str) -> bytes:
    return hashlib.sha1(label.encode()).digest()[:16]


def test_criterion_1_bloom_sizing_and_false_positive_rate():
    started = time.perf_counter()
    params = derive_params(1000, 0.02)
    assert (params.m_bits, params.k_hashes) == (8143, 6)
    assert params.byte_length == 1018

    filt = BloomFilter(params)
    for i in range(1000):
        filt = filt.insert(_digest(f"member-{i}"))
    probes = 100_000
    hits = sum(filt.contains(_digest(f"nonmember-{i}")) for i in range(probes))
    rate = hits / probes
    elapsed = time.perf_counter() - started
    assert 0.01 <= rate <= 0.03
    assert elapsed < 10.0
    print(f"PASS criterion 1: m=8143 k=6, FPR={rate:.4f} in [0.01, 0.03], {elapsed:.1f}s < 10s")


def test_criterion_2_setup_packet_size():
    initiator_comp = composite_of([OsnId("osn", b"acceptance-initiator")])
    target_comp = composite_of([OsnId("osn", b"acceptance-target")])
    friends = FriendList()
    friends.add("t", target_comp)
    initiator = protocol.create_session(
        Role.INITIATOR, initiator_comp, friends, NOW, 3600, Random(0)
    )
    request = protocol.build_setup_request(
        initiator, [target_comp], derive_params(1000, 0.02), NOW
    )
    size = request.table_size()
    assert size == 2 * 1018 + 481 == 2517
    deviation = abs(size - 2516.59) / 2516.59
    assert deviation <= 0.01
    print(f"PASS criterion 2: setup packet {size} B, {deviation * 100:.3f}% from 2,516.59")


def test_criterion_3_message_and_certificate_sizes(shared_keypair):
    key = crypto.SymmetricKey(bytes(16))
    body = len(crypto.sym_encrypt(key, b"m" * 160)) - crypto.TAG_LEN
    assert body == 176

    cert = crypto.make_certificate(shared_keypair, b"\x01" * 16, NOW, NOW + 60)
    assert len(cert.to_bytes()) == 481
    assert protocol.CertUpdate((cert,)).table_size() == 481
    print("PASS criterion 3: 160 B plaintext -> 176 B body; certificate update = 481 B")


def test_criterion_4_keystore_independence():
    cfg = ScenarioConfig(
        kind="discover", seed=11, friend_sizes=(100, 1000), connected=10, bystanders=5
    )
    report = run_discover(cfg)
    assert report.failures == [], report.failures
    keystore = {
        metric: value
        for title, rows in report.sections
        for metric, value, _ in rows
        if title == "keystore"
    }
    assert "ok" in keystore["stored_bytes_constant"]
    assert "ok" in keystore["abe_model_scaling"]
    stored = {
        n: int(keystore[f"stored_key_bytes(friends={n})"]) for n in (100, 1000)
    }
    assert stored[100] == stored[1000]
    print(
        f"PASS criterion 4: stored keys {stored[100]} B for both friend sizes; "
        "ABE model scales 10x"
    )


def test_criterion_5_dpf_correctness_random_instances():
    started = time.perf_counter()
    rng = Random(20240)
    mismatches = 0
    for trial in range(200):
        n = rng.randrange(1, 13)
        p = rng.choice([2, 3])
        m = rng.randrange(1, 17)
        params = fss.DpfParams(n, m, p)
        alpha = rng.randrange(params.domain_size)
        beta = rng.randbytes(m)
        keys = fss.dpf_gen(alpha, beta, params, rng=rng.randrange(2**32))

        # every server folds its key, then combines everyone's deltas
        deltas = [fss.eval_full(key) for key in keys]
        outputs = []
        for i in range(p):
            combined = deltas[i].copy()
            for j in range(p):
                if j != i:
                    combined.xor_update(deltas[j])
            outputs.append(combined.to_bytes())
        assert len(set(outputs)) == 1  # identical on all servers

        expected = np.zeros((params.domain_size, m), dtype=np.uint8)
        expected[alpha] = np.frombuffer(beta, dtype=np.uint8)
        if not np.array_equal(
            np.frombuffer(outputs[0], dtype=np.uint8).reshape(params.domain_size, m),
            expected,
        ):
            mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 60.0
    print(f"PASS criterion 5: 200 instances, 0 mismatches, {elapsed:.1f}s < 60s")


def test_criterion_6_checkin_at_2048_slot_scale():
    params = fss.DpfParams(11, 187, 2)
    assert params.domain_size == 2048
    rng = Random(61)
    servers = [fss.EpochServer(i, params, peer_count=2) for i in range(2)]
    sent = {}
    for i in range(5):
        message = f"checkin client {i}".encode().ljust(160, b".")
        index, keys = fss.client_check_in(message, params, rng=rng)
        assert index not in sent  # seed chosen collision-free
        sent[index] = message
        for server, key in zip(servers, keys):
            server.submit(1, key, client_id=f"c{i}")
    outputs = fss.close_epoch(servers, 1)
    assert outputs[0] == outputs[1]
    # every sent index holds its message and every other slot is empty
    assert fss.ShareDatabase.from_bytes(outputs[0], params).decoded() == sent

    def accumulate_case(output_len: int):
        t_params = fss.DpfParams(11, output_len, 2)
        beta = fss.encode_slot(b"t" * (output_len - fss.SLOT_HEADER_LEN), output_len)
        return t_params, fss.dpf_gen(123, beta, t_params, rng=9)[0]

    def accumulate_time(t_params, key) -> float:
        epoch = fss.Epoch(epoch_id=0, params=t_params)
        start = time.perf_counter()
        for _ in range(10):
            fss.server_accumulate(epoch, key)
        return (time.perf_counter() - start) / 10

    # One warm-up round, then 7 interleaved rounds: a slow spell of the
    # machine hits both shapes alike instead of the one timed first.
    cases = [accumulate_case(62), accumulate_case(187)]
    rounds = [[accumulate_time(*case) for case in cases] for _ in range(8)]
    t62, t187 = (min(times) for times in zip(*rounds[1:]))
    ratio = t187 / t62
    quadratic = (187 / 62) ** 2
    assert 1.5 <= ratio <= 4.0, f"ratio {ratio:.2f} outside [1.5, 4.0]"
    assert ratio < quadratic  # sub-quadratic growth in slot size
    print(
        f"PASS criterion 6: 5/5 messages at 2048 slots, zeros elsewhere; "
        f"t(187)/t(62)={ratio:.2f} in [1.5, 4.0], sub-quadratic (< {quadratic:.1f})"
    )


def test_criterion_7_adversary_suite():
    cfg = ScenarioConfig(kind="adversary", seed=71, epochs=100, trials=100)
    report = run_adversary(cfg)
    assert report.failures == [], report.failures
    rows = {
        metric: value
        for _, section_rows in report.sections
        for metric, value, _ in section_rows
    }
    assert rows["replay_acceptances"].startswith("0/")
    assert rows["data_messages_decrypted_by_eve"].startswith("0/")
    assert rows["messages_recovered_by_collusion"].startswith("0 ")
    again = run_adversary(cfg)
    assert again.render() == report.render()  # deterministic under the fixed seed
    print(
        "PASS criterion 7: replay 0/100, eavesdropper plaintexts 0, "
        "collusion recoveries 0 over 100 epochs, deterministic"
    )


def test_criterion_8_multihop_qualitative_reproduction():
    cfg = ScenarioConfig(kind="loadtest", seed=81)
    report = run_loadtest(cfg)
    assert report.failures == [], report.failures
    rows = {
        metric: value
        for _, section_rows in report.sections
        for metric, value, _ in section_rows
    }
    assert "ok" in rows["throughput_ordering"]
    assert "ok" in rows["loss_onset_near_target"]
    print(
        f"PASS criterion 8: throughput ordering {rows['throughput_ordering']}; "
        f"loss onset {rows['loss_onset_near_target']} vs 8 Mbps +/- 25%"
    )


def test_criterion_9_deterministic_reruns():
    runs = [
        (
            "discover",
            run_discover,
            ScenarioConfig(kind="discover", seed=91, friend_sizes=(10, 20), connected=3, bystanders=2),
        ),
        (
            "checkin",
            run_checkin,
            ScenarioConfig(kind="checkin", seed=92, input_bits=6, output_len=32, clients=3, message_sizes=(16, 32)),
        ),
        (
            "loadtest",
            run_loadtest,
            ScenarioConfig(kind="loadtest", seed=93, hops=(1, 2), loads_mbps=(4.0, 10.0, 24.0), duration_s=0.2),
        ),
        (
            "adversary",
            run_adversary,
            ScenarioConfig(kind="adversary", seed=94, epochs=5, trials=10),
        ),
        (
            "chat",
            run_chat,
            ScenarioConfig(kind="chat", seed=95, friend_sizes=(8,), connected=3, bystanders=1, messages=2),
        ),
    ]
    for name, runner, cfg in runs:
        first = runner(cfg)
        second = runner(cfg)
        assert first.render() == second.render(), f"{name} report differs between runs"
        assert first.traces == second.traces, f"{name} traces differ between runs"
        assert first.csv_lines() == second.csv_lines()
    print("PASS criterion 9: all five scenarios byte-identical on rerun")


def test_criterion_10_property_suites():
    # No false negatives over 10^4 insertions.
    params = derive_params(10_000, 0.02)
    filt = BloomFilter(params)
    members = [_digest(f"prop-{i}") for i in range(10_000)]
    for m in members:
        filt = filt.insert(m)
    assert all(filt.contains(m) for m in members)

    # XOR-mask involution on a loaded filter.
    comp = composite_of([OsnId("osn", b"mask-owner")])
    mask = identity.id_mask(comp, params.m_bits)
    assert filt.xor_mask(mask).xor_mask(mask) == filt

    # Certificate mutation rejection across 10^3 single-bit flips.
    pair = crypto.generate_keypair()
    cert = crypto.make_certificate(pair, b"\x09" * 16, NOW, NOW + 60)
    blob = cert.to_bytes()
    rng = Random(1010)
    rejected = 0
    for _ in range(1000):
        position = rng.randrange(192)  # signed region
        mutated = bytearray(blob)
        mutated[position] ^= 1 << rng.randrange(8)
        status = crypto.verify_certificate(
            crypto.Certificate.from_bytes(bytes(mutated)), NOW
        )
        if status is crypto.CertStatus.BAD_SIGNATURE:
            rejected += 1
    assert rejected == 1000

    # Accumulation order independence.
    d_params = fss.DpfParams(6, 8, 2)
    keys = [
        fss.dpf_gen(i * 7 % 64, bytes([i]) * 8, d_params, rng=i)[0] for i in range(1, 6)
    ]
    forward = fss.Epoch(epoch_id=1, params=d_params)
    backward = fss.Epoch(epoch_id=1, params=d_params)
    for key in keys:
        fss.server_accumulate(forward, key)
    for key in reversed(keys):
        fss.server_accumulate(backward, key)
    assert forward.delta_share == backward.delta_share

    print(
        "PASS criterion 10: no false negatives (10^4), XOR involution, "
        "1000/1000 mutations rejected, accumulation order-independent"
    )
