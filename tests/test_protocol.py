import logging
from dataclasses import replace
from random import Random, SystemRandom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discoverfriends import crypto, identity, protocol
from discoverfriends.bloom import BloomFilter, derive_params
from discoverfriends.identity import CompositeId, FriendList, OsnId, composite_of
from discoverfriends.protocol import (
    Accept,
    CertUpdate,
    DataMessage,
    Ignore,
    Phase,
    ProtocolError,
    Reject,
    Role,
    SetupReply,
    SetupRequest,
    apply_cert_update,
    build_setup_request,
    complete_initialization,
    create_session,
    decode_frame,
    process_setup_request,
    receive_message,
    send_message,
)

NOW = 1_700_000_000
VALIDITY = 3600


def _comp(label: str) -> CompositeId:
    return composite_of([OsnId("osn", label.encode())])


def _group(n_targets=2, validity=VALIDITY, seed=1):
    """Initiator plus n connected-capable targets, keys distributed."""
    init_comp = _comp(f"initiator-{seed}")
    target_comps = [_comp(f"target-{seed}-{i}") for i in range(n_targets)]
    init_friends = FriendList()
    for i, c in enumerate(target_comps):
        init_friends.add(f"t{i}", c)
    initiator = create_session(
        Role.INITIATOR, init_comp, init_friends, NOW, validity, Random(seed)
    )
    targets = []
    for i, c in enumerate(target_comps):
        friends = FriendList()
        friends.add("initiator", init_comp)
        targets.append(
            create_session(Role.TARGET, c, friends, NOW, validity, Random(seed + i + 1))
        )
    protocol.key_round([initiator, *targets], NOW)
    return initiator, targets


def _connect(initiator, targets, params=None):
    params = params or derive_params(max(16, len(targets)), 0.02)
    request = build_setup_request(
        initiator, [t.composite for t in targets], params, NOW
    )
    replies = []
    for t in targets:
        decision = process_setup_request(t, request, NOW)
        assert isinstance(decision, Accept)
        replies.append(decision.reply)
    _, update = complete_initialization(initiator, replies, NOW)
    for t in targets:
        apply_cert_update(t, update, NOW)
    return request, update


# --- frame encoding -------------------------------------------------------

def test_setup_frame_round_trip():
    initiator, targets = _group(1)
    request = build_setup_request(
        initiator, [targets[0].composite], derive_params(50, 0.02), NOW
    )
    assert decode_frame(request.encode()) == request


def test_reply_cert_update_data_frames_round_trip(shared_keypair):
    reply = SetupReply(encrypted_cert=b"\xaa" * 512)
    assert decode_frame(reply.encode()) == reply
    cert = crypto.make_certificate(shared_keypair, b"\x01" * 16, NOW, NOW + 60)
    update = CertUpdate((cert, cert))
    assert decode_frame(update.encode()) == update
    msg = DataMessage(wrapped_key=b"\xbb" * 128, body=b"\xcc" * 192)
    assert decode_frame(msg.encode()) == msg


def test_unknown_frame_tag_rejected():
    with pytest.raises(ValueError):
        decode_frame(b"\xff\x00")
    with pytest.raises(ValueError):
        decode_frame(b"")


_MALFORMED = {
    "setup header cut short": b"\x00",
    "length prefix past the end": b"\x01\x10\x00\x00\x00ab",
    "length prefix cut short": b"\x01\x00\x00",
    "trailing byte after a field": b"\x01\x02\x00\x00\x00abc",
    "second field missing": b"\x03\x01\x00\x00\x00a",
    "certificate count cut short": b"\x02\x01\x00",
    "count far beyond the frame": b"\x02\xff\xff\xff\xff",
    "trailing byte after a certificate": b"\x02\x01\x00\x00\x00" + bytes(crypto.CERT_LEN + 1),
}


@pytest.mark.parametrize("blob", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_frames_rejected(blob):
    with pytest.raises(ValueError):
        decode_frame(blob)


@pytest.fixture(scope="module")
def valid_frames(shared_keypair):
    cert = crypto.make_certificate(shared_keypair, b"\x01" * 16, NOW, NOW + 60)
    bf = BloomFilter(derive_params(4, 0.1)).insert(b"\x02" * 16)
    return [
        SetupRequest(bf, bytes(bf.params.byte_length), b"cf").encode(),
        SetupReply(b"\xaa" * 5).encode(),
        CertUpdate((cert,)).encode(),
        DataMessage(b"key", b"body").encode(),
    ]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_decode_frame_round_trips_or_raises(valid_frames, data):
    # A valid frame, kept, with one byte flipped, cut short or extended; or random bytes.
    blob = bytearray(data.draw(st.sampled_from(valid_frames)))
    edit = data.draw(st.sampled_from(["keep", "flip", "cut", "extend", "random"]))
    if edit == "flip":
        blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
    elif edit == "cut":
        del blob[data.draw(st.integers(0, len(blob) - 1)) :]
    elif edit == "extend":
        blob += data.draw(st.binary(min_size=1, max_size=3))
    elif edit == "random":
        blob = bytearray(data.draw(st.binary(max_size=48)))
    blob = bytes(blob)
    try:
        frame = decode_frame(blob)
    except ValueError:
        return
    assert frame.encode() == blob


# --- stage 1 --------------------------------------------------------------

def test_setup_request_contains_targets_and_mask():
    initiator, targets = _group(2)
    params = derive_params(16, 0.02)
    request = build_setup_request(
        initiator, [t.composite for t in targets], params, NOW
    )
    for t in targets:
        assert request.bf_c.contains(t.composite.digest)
    recovered = bytes(a ^ b for a, b in zip(request.bf_c.bits, request.bf_c_plus))
    assert recovered == identity.id_mask(initiator.composite, params.m_bits)
    assert initiator.phase is Phase.DISCOVERING


def test_setup_request_reference_size():
    initiator, targets = _group(1)
    request = build_setup_request(
        initiator, [targets[0].composite], derive_params(1000, 0.02), NOW
    )
    assert request.table_size() == 2 * 1018 + 481 == 2517


def test_setup_request_requires_init_phase_and_targets():
    initiator, targets = _group(1)
    with pytest.raises(ProtocolError):
        build_setup_request(initiator, [], derive_params(16, 0.02), NOW)
    build_setup_request(initiator, [targets[0].composite], derive_params(16, 0.02), NOW)
    with pytest.raises(ProtocolError):  # rediscovery without reinitialization
        build_setup_request(
            initiator, [targets[0].composite], derive_params(16, 0.02), NOW
        )


def test_targets_cannot_build_setup_requests():
    _, targets = _group(1)
    with pytest.raises(ProtocolError):
        build_setup_request(targets[0], [targets[0].composite], derive_params(16, 0.02), NOW)


def test_connected_target_ignores_further_requests():
    initiator, targets = _group(1)
    _connect(initiator, targets)
    other_init, _ = _group(1, seed=500)
    other_init.friends = FriendList()
    other_init.friends.add("t", targets[0].composite)
    targets[0].friends.add("other", other_init.composite)
    targets[0]._mask_cache.clear()
    request = build_setup_request(
        other_init, [targets[0].composite], derive_params(16, 0.02), NOW
    )
    decision = process_setup_request(targets[0], request, NOW)
    assert decision == Ignore("already_connected")


# --- stage 2 --------------------------------------------------------------

def test_non_addressed_node_ignores():
    initiator, targets = _group(2)
    request = build_setup_request(
        initiator, [targets[0].composite], derive_params(16, 0.02), NOW
    )
    decision = process_setup_request(targets[1], request, NOW)
    assert isinstance(decision, Ignore)
    assert targets[1].phase is Phase.INIT


def test_happy_path_accept_with_decryptable_reply():
    initiator, targets = _group(1)
    request = build_setup_request(
        initiator, [targets[0].composite], derive_params(16, 0.02), NOW
    )
    decision = process_setup_request(targets[0], request, NOW)
    assert isinstance(decision, Accept)
    blob = crypto.sym_decrypt(
        identity.sym_key_of(initiator.composite), decision.reply.encrypted_cert
    )
    cert = crypto.Certificate.from_bytes(blob)
    assert cert.subject_digest == targets[0].composite.digest
    assert targets[0].phase is Phase.CONNECTED


def test_addressed_but_unknown_initiator_rejected():
    initiator, targets = _group(1)
    target = targets[0]
    stranger_friends = FriendList()
    stranger_friends.add("someone", _comp("someone-else"))
    target.friends = stranger_friends  # initiator not in this friend list
    request = build_setup_request(
        initiator, [target.composite], derive_params(16, 0.02), NOW
    )
    decision = process_setup_request(target, request, NOW)
    assert decision == Reject("unknown_initiator")


def test_expired_certificate_rejected_replay():
    initiator, targets = _group(1)
    request = build_setup_request(
        initiator, [targets[0].composite], derive_params(16, 0.02), NOW
    )
    recorded = decode_frame(request.encode())
    for offset in (1, 100, 86400):
        decision = process_setup_request(
            targets[0], recorded, NOW + VALIDITY + offset
        )
        assert decision == Reject("cert_invalid")
    assert targets[0].phase is Phase.INIT


def test_corrupted_cf_rejected_as_decrypt_failure():
    initiator, targets = _group(1)
    request = build_setup_request(
        initiator, [targets[0].composite], derive_params(16, 0.02), NOW
    )
    corrupted = replace(request, cf=bytes(len(request.cf)))
    decision = process_setup_request(targets[0], corrupted, NOW)
    assert decision == Reject("decrypt_failed")


def test_cf_encrypted_under_wrong_identity_rejected():
    # A mask match that does not own the CF key: certificate subject check.
    initiator, targets = _group(1)
    target = targets[0]
    request = build_setup_request(
        initiator, [target.composite], derive_params(16, 0.02), NOW
    )
    imposter = _comp("imposter")
    imposter_cf = crypto.sym_encrypt(
        identity.sym_key_of(initiator.composite),
        crypto.make_certificate(initiator.keypair, imposter.digest, NOW, NOW + 60).to_bytes(),
    )
    forged = replace(request, cf=imposter_cf)
    decision = process_setup_request(target, forged, NOW)
    assert decision == Reject("cert_invalid")


# --- stage 3 --------------------------------------------------------------

def test_complete_initialization_counts():
    initiator, targets = _group(3)
    request = build_setup_request(
        initiator, [t.composite for t in targets], derive_params(16, 0.02), NOW
    )
    replies = [process_setup_request(t, request, NOW).reply for t in targets]
    _, update = complete_initialization(initiator, replies, NOW)
    assert len(initiator.peers) == 3
    assert len(update.certs) == 4  # three targets plus the initiator
    assert initiator.phase is Phase.CONNECTED


def test_complete_initialization_with_no_replies():
    initiator, targets = _group(1)
    build_setup_request(initiator, [targets[0].composite], derive_params(16, 0.02), NOW)
    _, update = complete_initialization(initiator, [], NOW)
    assert initiator.phase is Phase.CONNECTED
    assert initiator.peers == {}
    assert update.certs == ()


def test_sybil_reply_dropped_by_trust_gate():
    # Eve never took part in key distribution: her certificate must not land.
    initiator, targets = _group(1)
    eve_comp = _comp("eve")
    eve_keys = crypto.generate_keypair()
    eve_cert = crypto.make_certificate(eve_keys, eve_comp.digest, NOW, NOW + 60)
    eve_reply = SetupReply(
        crypto.sym_encrypt(
            identity.sym_key_of(initiator.composite), eve_cert.to_bytes()
        )
    )
    request = build_setup_request(
        initiator, [targets[0].composite], derive_params(16, 0.02), NOW
    )
    good_reply = process_setup_request(targets[0], request, NOW).reply
    _, update = complete_initialization(initiator, [good_reply, eve_reply], NOW)
    assert eve_comp.digest not in initiator.peers
    assert len(initiator.peers) == 1
    assert all(c.subject_digest != eve_comp.digest for c in update.certs)


def test_garbage_reply_dropped():
    initiator, targets = _group(1)
    build_setup_request(initiator, [targets[0].composite], derive_params(16, 0.02), NOW)
    _, update = complete_initialization(initiator, [SetupReply(b"\x00" * 512)], NOW)
    assert initiator.peers == {}


def test_stored_bytes_track_connected_not_friends():
    small_init, small_targets = _group(2, seed=10)
    _connect(small_init, small_targets)
    big_init, big_targets = _group(2, seed=20)
    for i in range(50):  # big friend list, same connected subset
        big_init.friends.add(f"extra-{i}", _comp(f"extra-{i}"))
    _connect(big_init, big_targets)
    assert small_init.stored_key_bytes() == big_init.stored_key_bytes()


# --- stages 4 and 5 -------------------------------------------------------

def test_message_round_trip_with_ack():
    initiator, targets = _group(1)
    _connect(initiator, targets)
    msg = send_message(initiator, targets[0].composite, b"hi" * 10)
    plaintext, ack = receive_message(
        targets[0], msg, sender=initiator.composite, ack_plaintext=b"roger"
    )
    assert plaintext == b"hi" * 10
    ack_plain, _ = receive_message(initiator, ack)
    assert ack_plain == b"roger"


def test_fresh_key_per_message():
    initiator, targets = _group(1)
    _connect(initiator, targets)
    a = send_message(initiator, targets[0].composite, b"same")
    b = send_message(initiator, targets[0].composite, b"same")
    assert a.wrapped_key != b.wrapped_key
    assert a.body != b.body


def test_unseeded_session_draws_message_keys_from_the_os():
    session = create_session(Role.TARGET, _comp("unseeded"), FriendList(), NOW, VALIDITY)
    assert isinstance(session.rng, SystemRandom)


def test_max_payload_gives_reference_body_size():
    initiator, targets = _group(1)
    _connect(initiator, targets)
    msg = send_message(initiator, targets[0].composite, b"x" * 160)
    assert msg.table_size() == 176
    assert len(msg.wrapped_key) == 128


def test_oversize_and_unknown_recipient_rejected():
    initiator, targets = _group(1)
    _connect(initiator, targets)
    with pytest.raises(ProtocolError):
        send_message(initiator, targets[0].composite, b"x" * 161)
    with pytest.raises(ProtocolError):
        send_message(initiator, _comp("nobody"), b"x")


def test_messaging_requires_connection():
    initiator, targets = _group(1)
    with pytest.raises(ProtocolError):
        send_message(initiator, targets[0].composite, b"x")


def test_non_recipient_cannot_unwrap():
    initiator, targets = _group(2)
    _connect(initiator, targets)
    msg = send_message(initiator, targets[0].composite, b"for target 0 only")
    with pytest.raises(crypto.KeyUnwrapError):
        receive_message(targets[1], msg)


def test_tampered_body_detected():
    initiator, targets = _group(1)
    _connect(initiator, targets)
    msg = send_message(initiator, targets[0].composite, b"payload")
    flipped = bytearray(msg.body)
    flipped[0] ^= 1
    with pytest.raises(crypto.IntegrityError):
        receive_message(targets[0], DataMessage(msg.wrapped_key, bytes(flipped)))


def test_peers_are_the_cert_repository(caplog):
    initiator, targets = _group(3)
    _connect(initiator, targets)
    for session in (initiator, *targets):
        assert set(session.peers) == set(session.cr.certs)
    # A re-push with a broken signature is rejected and keeps the old certificate.
    target = targets[0]
    old_cert = target.peers[initiator.composite.digest]
    signature = bytearray(old_cert.signature)
    signature[-1] ^= 1
    forged = replace(old_cert, signature=bytes(signature))
    with caplog.at_level(logging.INFO, logger=protocol.__name__):
        apply_cert_update(target, CertUpdate((forged,)), NOW)
    assert "dropping updated certificate: bad_signature" in caplog.text
    assert set(target.peers) == set(target.cr.certs)
    assert target.peers[initiator.composite.digest] is old_cert


def test_any_member_with_full_cert_set_can_message():
    # Once the certificate set is distributed, messaging is not limited to
    # the original initiator: targets reach each other directly.
    initiator, targets = _group(2)
    _connect(initiator, targets)
    a, b = targets
    msg = send_message(a, b.composite, b"peer to peer")
    plaintext, _ = receive_message(b, msg)
    assert plaintext == b"peer to peer"


# --- certificate updates --------------------------------------------------

def test_single_cert_update_reference_size(shared_keypair):
    cert = crypto.make_certificate(shared_keypair, b"\x01" * 16, NOW, NOW + 60)
    assert CertUpdate((cert,)).table_size() == 481


def test_cert_update_refreshes_peer():
    initiator, targets = _group(1)
    _connect(initiator, targets)
    target = targets[0]
    old_cert = target.peers[initiator.composite.digest]
    renewed = crypto.make_certificate(
        initiator.keypair, initiator.composite.digest, NOW, NOW + 7200
    )
    apply_cert_update(target, CertUpdate((renewed,)), NOW)
    assert target.peers[initiator.composite.digest] == renewed
    assert target.peers[initiator.composite.digest] != old_cert


def test_cert_update_drops_untrusted_issuer():
    initiator, targets = _group(1)
    _connect(initiator, targets)
    eve_keys = crypto.generate_keypair()
    eve_cert = crypto.make_certificate(eve_keys, _comp("eve").digest, NOW, NOW + 60)
    apply_cert_update(targets[0], CertUpdate((eve_cert,)), NOW)
    assert _comp("eve").digest not in targets[0].peers


# --- end-to-end invariants --------------------------------------------------

def test_end_to_end_partition_and_ignore_rate(shared_keypair):
    # Present friends connect; non-friends ignore at roughly 1 - fpp.
    # The filter must hold its design load for the target rate to apply.
    initiator, targets = _group(4, seed=77)
    for i in range(96):
        initiator.friends.add(f"extra-{i}", _comp(f"extra-77-{i}"))
    params = derive_params(100, 0.02)
    request = build_setup_request(
        initiator, initiator.friends.composites(), params, NOW
    )
    replies = []
    for t in targets:
        decision = process_setup_request(t, request, NOW)
        assert isinstance(decision, Accept)
        replies.append(decision.reply)
    complete_initialization(initiator, replies, NOW)
    assert len(initiator.peers) == 4

    dummy_cert = crypto.make_certificate(shared_keypair, b"\x00" * 16, NOW, NOW + 60)
    outcomes = {"ignore": 0, "reject": 0}
    n_probes = 2000
    for i in range(n_probes):
        comp = _comp(f"outsider-{i}")
        outsider = protocol.SessionState(
            role=Role.TARGET,
            composite=comp,
            friends=FriendList(),
            keypair=shared_keypair,
            certificate=dummy_cert,
            rng=Random(0),
        )
        decision = process_setup_request(outsider, request, NOW)
        if isinstance(decision, Ignore):
            outcomes["ignore"] += 1
        else:
            assert decision == Reject("unknown_initiator")
            outcomes["reject"] += 1
    ignore_rate = outcomes["ignore"] / n_probes
    assert 0.95 <= ignore_rate <= 0.999


def test_observer_without_friend_relationship_learns_nothing():
    initiator, targets = _group(2, seed=55)
    params = derive_params(64, 0.02)
    request = build_setup_request(
        initiator, [t.composite for t in targets], params, NOW
    )
    recovered_mask = bytes(a ^ b for a, b in zip(request.bf_c.bits, request.bf_c_plus))
    cf_decryptions = 0
    mask_matches = 0
    for i in range(500):  # disjoint identity pool
        comp = _comp(f"unrelated-{i}")
        if identity.id_mask(comp, params.m_bits) == recovered_mask:
            mask_matches += 1
        try:
            crypto.sym_decrypt(identity.sym_key_of(comp), request.cf)
            cf_decryptions += 1
        except crypto.IntegrityError:
            pass
    assert mask_matches == 0
    assert cf_decryptions == 0


def test_common_friend_identifies_but_cannot_read_traffic():
    initiator, targets = _group(2, seed=66)
    eve_comp = _comp("eve-66")
    initiator.friends.add("eve", eve_comp)  # Eve is a friend, not a target
    eve_friends = FriendList()
    eve_friends.add("initiator", initiator.composite)
    eve = create_session(Role.TARGET, eve_comp, eve_friends, NOW, VALIDITY, Random(9))

    params = derive_params(64, 0.02)
    request, _ = _connect(initiator, targets, params=params)

    recovered = bytes(a ^ b for a, b in zip(request.bf_c.bits, request.bf_c_plus))
    matches = {
        identity.id_mask(c, params.m_bits): c for c in eve.friends.composites()
    }
    identified = matches.get(recovered)
    assert identified == initiator.composite  # identification succeeds

    msgs = [send_message(initiator, t.composite, b"x" * 32) for t in targets]
    readable = 0
    for msg in msgs:
        try:
            crypto.sym_decrypt(
                crypto.unwrap_key(eve.keypair.private_key, msg.wrapped_key), msg.body
            )
            readable += 1
        except (crypto.KeyUnwrapError, crypto.IntegrityError):
            pass
    assert readable == 0  # but stage-4/5 traffic stays private
