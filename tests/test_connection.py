from dataclasses import replace
from random import Random

import pytest

from quicmq import connection, handshake, wire
from quicmq.connection import (
    CachedSession,
    Closed,
    DRAIN_PERIOD_S,
    MAX_STREAMS,
    Connection,
    HandshakeDone,
    HandshakeFailed,
    Migrated,
    Stream,
    StreamData,
    TransportError,
)
from quicmq.crypto import GCM_TAG_LEN, NULL_KEYS, sha256, sign, split_keys
from quicmq.handshake import (
    GROUP_ID,
    build_full_chlo,
    build_inchoate_chlo,
    build_rej,
    signed_blob,
)
from quicmq.wire import (
    EPOCH_CLEAR,
    EPOCH_IK,
    EPOCH_K,
    HANDSHAKE_PACKET_LEN,
    HEADER_LEN,
    CloseFrame,
    PacketHeader,
    StreamFrame,
    WindowUpdateFrame,
    decode_frames,
    decode_header,
    encode_frames,
    encode_header,
    frame_len,
    open_packet_body,
    seal_packet,
)
from conftest import CLIENT_ADDR, SERVER_ADDR
from test_trace_pin import lossy_exchange


def seal_hello(msg, cid, sqn, role):
    """Forge a cleartext hello: ``msg`` padded, as every genuine hello and
    REJ is, so that its packet is exactly HANDSHAKE_PACKET_LEN bytes and
    passes the gate's size rule."""
    header = PacketHeader(cid=cid, sqn=sqn, epoch=EPOCH_CLEAR)
    overhead = HEADER_LEN + 1 + frame_len(StreamFrame(1, 0, b"")) + GCM_TAG_LEN
    frame = StreamFrame(1, 0, msg.padded(HANDSHAKE_PACKET_LEN - overhead).encode())
    packet = seal_packet(header, bytes([wire.MARKER_HANDSHAKE]) + encode_frames([frame]),
                         NULL_KEYS, role)
    assert len(packet) == HANDSHAKE_PACKET_LEN
    return packet


def seal_client_data(keys, sqn, payload, cid, epoch):
    """Forge a client data packet: ``payload`` behind the application marker,
    sealed under ``keys``."""
    header = PacketHeader(cid=cid, sqn=sqn, epoch=epoch)
    return seal_packet(header, bytes([wire.MARKER_DATA]) + payload, keys, "client")


def run_handshake(world, session=None, **kw):
    net, client_ep, server_ep, identity = world(session=session, **kw)
    conn = client_ep.make_client()
    conn.start_connect()
    client_ep.pump(conn.cid)
    net.run(until_s=3.0)
    return net, client_ep, server_ep, conn


# ---------------------------------------------------------------------------
# 1-RTT handshake
# ---------------------------------------------------------------------------


def test_1rtt_completes_with_identical_keys(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    assert conn.phase == "established"
    assert server_conn.phase == "established"
    assert conn.k is not None and server_conn.k is not None
    assert conn.ik == server_conn.ik
    assert conn.k == server_conn.k
    assert conn.k != conn.ik


def test_1rtt_sqn_ladder(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    headers = [decode_header(p) for p, _ in client_ep.sent]
    annotations = [a for _, a in client_ep.sent]
    assert annotations[0] == "chlo_inchoate"
    assert headers[0].sqn == 1
    assert annotations[1] == "chlo_full"
    assert headers[1].sqn == 2


@pytest.mark.parametrize("resume", [False, True])
def test_packet_header_rule_under_hello_and_shlo_loss(world, resume):
    session, identity = warm_session(world) if resume else (None, None)
    net, client_ep, server_ep, identity = world(session=session, identity=identity,
                                                client_seed=99)
    for lost in ("chlo_full", "shlo"):  # the first copy of each; retx pass
        net.add_periodic_drop(lambda src, dst, size, ann, lost=lost: ann == lost, 1)
    conn = client_ep.make_client()
    assert conn.start_connect() == ("0rtt" if resume else "1rtt")
    client_ep.pump(conn.cid)
    net.run(until_s=3.0)
    server_conn = server_ep.only_conn()
    assert conn.phase == server_conn.phase == "established"

    originals = {}
    retx = set()
    for role, sent in (("client", client_ep.sent), ("server", server_ep.sent)):
        for packet, annotation in sent:
            header = decode_header(packet)
            # One layout for every packet, whatever its end and epoch.
            assert encode_header(header) == packet[:HEADER_LEN], annotation
            kind = annotation.removesuffix(" retx")
            if kind not in ("chlo_inchoate", "chlo_full", "shlo"):
                continue
            keys = NULL_KEYS if header.epoch == EPOCH_CLEAR else server_conn.ik
            receiver = "server" if role == "client" else "client"
            body = open_packet_body(header, packet, keys, receiver)
            frames = decode_frames(body[1:])
            if kind == annotation:
                originals[kind] = frames
            else:
                assert frames == originals[kind], annotation
                retx.add(annotation)
    assert {"chlo_full retx", "shlo retx"} <= retx


def test_handshake_packets_have_fixed_length(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    for packet, annotation in client_ep.sent + server_ep.sent:
        kind = annotation.split(" ")[0]
        if kind in ("chlo_inchoate", "chlo_full", "rej"):
            assert len(packet) == HANDSHAKE_PACKET_LEN


def test_distinct_connections_distinct_cids(world):
    net, client_ep, server_ep, identity = world()
    a = client_ep.make_client()
    other_ep_rng_ids = client_ep.make_client()
    assert a.cid != other_ep_rng_ids.cid


def test_rej_carries_session_ticket(world, full_chlos):
    net, client_ep, server_ep, conn = run_handshake(world)
    # The REJ's pair is kept; the SHLO's token is not.
    assert conn.session is not None
    assert conn.session.scfg.scid == full_chlos[-1][0].scid


def test_sender_sqns_strictly_increase(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    conn.send_stream(3, b"\x30\x04\x00\x01tx")
    client_ep.pump(conn.cid)
    net.run(until_s=4.0)
    for sent in (client_ep.sent, server_ep.sent):
        sqns = [decode_header(p).sqn for p, _ in sent]
        assert sqns == sorted(sqns)
        assert len(set(sqns)) == len(sqns)


def test_nonce_inputs_never_repeat_per_direction(world):
    # Nonces are (role IV prefix || sqn); per direction and key epoch the
    # (epoch, sqn) pairs must be unique.
    net, client_ep, server_ep, conn = run_handshake(world)
    seen = set()
    for packet, _ in client_ep.sent:
        header = decode_header(packet)
        key = (header.epoch, header.sqn)
        assert key not in seen
        seen.add(key)


# ---------------------------------------------------------------------------
# 0-RTT
# ---------------------------------------------------------------------------


def warm_session(world):
    """Complete one 1-RTT handshake and return the session it kept."""
    net, client_ep, server_ep, conn = run_handshake(world)
    return conn.session, server_ep.identity


def test_0rtt_first_flight_carries_data(world):
    session, identity = warm_session(world)
    net, client_ep, server_ep, identity = world(session=session, identity=identity,
                                                client_seed=99)
    conn = client_ep.make_client()
    conn.send_stream(3, b"\x30\x04\x00\x01tx")  # queued before the hello
    assert conn.start_connect() == "0rtt"
    client_ep.pump(conn.cid)
    first_flight = [a for _, a in client_ep.sent]
    assert first_flight[0] == "chlo_full"
    assert first_flight[1].startswith("data s3")
    net.run(until_s=3.0)
    assert conn.phase == "established"
    assert client_ep.events_of(HandshakeDone)[0].resumed
    assert not any(a == "rej" for _, a in server_ep.sent)


def test_0rtt_expired_scfg_falls_back_client_side(world):
    session, identity = warm_session(world)
    # Age the clock beyond the config's expiry: the client goes straight to
    # a fresh 1-RTT (inchoate hello first).
    net, client_ep, server_ep, _ = world(session=session, identity=identity,
                                         client_seed=99)
    net.clock.now_us = int((session.scfg.expy + 10) * 1e6)
    conn = client_ep.make_client()
    assert conn.start_connect() == "1rtt"
    client_ep.pump(conn.cid)
    assert client_ep.sent[0][1] == "chlo_inchoate"


def test_0rtt_unknown_scid_falls_back_transparently(world):
    session, identity = warm_session(world)
    identity.rotate_scfg(1.0, Random(77))
    # One small write, then several chunks in flight when the REJ lands.
    for seed, payload, chunks in ((99, b"\x30\x04\x00\x01tx", 1),
                                  (98, bytes(range(256)) * 12, 3)):
        net, client_ep, server_ep, _ = world(session=session, identity=identity,
                                             client_seed=seed)
        conn = client_ep.make_client()
        conn.send_stream(3, payload)
        assert conn.start_connect() == "0rtt"
        client_ep.pump(conn.cid)
        first_flight = [a for _, a in client_ep.sent]
        assert first_flight == ["chlo_full"] + ["data s3"] * chunks
        net.run(until_s=3.0)
        # Server rejected the stale scid; the connection still completed.
        assert conn.phase == "established"
        assert server_ep.only_conn().last_reject_reason == "scid_expired"
        annotations = [a for _, a in client_ep.sent]
        assert "chlo_full" in annotations[2:]  # fresh hello after the REJ
        # The REJ turned the resumption into a full handshake.
        assert client_ep.events_of(HandshakeDone)[0].resumed is False
        # The data went out again under the fresh keys, each byte delivered
        # exactly once.
        server_data = [ev for ev in server_ep.events_of(StreamData) if ev.stream_id == 3]
        assert b"".join(ev.data for ev in server_data) == payload


def test_0rtt_replayed_chlo_rejected(world):
    session, identity = warm_session(world)
    net, client_ep, server_ep, _ = world(session=session, identity=identity,
                                         client_seed=99)
    conn = client_ep.make_client()
    conn.start_connect()
    client_ep.pump(conn.cid)
    chlo = next(p for p, a in client_ep.sent if a == "chlo_full")
    net.run(until_s=3.0)
    assert conn.phase == "established"
    # Tear the connection down, then replay the captured hello bytes.
    server_conn = server_ep.only_conn()
    server_ep.conns.clear()
    net.send(chlo, CLIENT_ADDR, SERVER_ADDR, "replayed chlo")
    net.run(until_s=6.0)
    replay_conn = server_ep.only_conn()
    assert replay_conn.last_reject_reason == "nonc_replayed"
    assert replay_conn.phase != "established"


def test_chlo_replayed_after_the_first_packet_under_k_draws_nothing(world):
    # The client's first packet under k shows the SHLO arrived, so the server
    # no longer keeps it: a late copy of the CHLO is neither answered with
    # the SHLO nor taken for a new hello.
    net, client_ep, server_ep, conn = run_handshake(world)
    chlo = next(p for p, a in client_ep.sent if a == "chlo_full")
    conn.send_stream(3, b"\x30\x04\x00\x01tx")
    client_ep.pump(conn.cid)
    net.run(until_s=4.0)
    server_conn = server_ep.only_conn()
    sent = len(server_ep.sent)
    for _ in range(10):
        server_ep.on_datagram(chlo, CLIENT_ADDR)
    net.run(until_s=6.0)
    assert server_ep.sent[sent:] == []
    assert conn.phase == server_conn.phase == "established"


def test_tampered_config_signature_aborts_handshake(world):
    # Give the client the wrong broker key: the REJ's config signature fails
    # verification and the handshake aborts instead of proceeding.
    from quicmq.crypto import kg
    net, client_ep, server_ep, identity = world()
    client_ep.server_pk = kg(Random(123)).pk
    conn = client_ep.make_client()
    conn.start_connect()
    client_ep.pump(conn.cid)
    net.run(until_s=3.0)
    assert conn.phase == "closed"
    failures = [ev for _, ev in client_ep.events if isinstance(ev, HandshakeFailed)]
    assert failures and failures[0].reason == "scfg_bad_signature"


def test_shlo_with_data_marker_is_not_accepted(world):
    # The settlement payload must carry the key-exchange marker; the same
    # bytes under the application marker never settle the key.
    fresh_net, fresh_client_ep, fresh_server_ep, identity = world(seed=9)
    c = fresh_client_ep.make_client()
    c.start_connect()
    fresh_client_ep.pump(c.cid)
    fresh_net.run(until_s=0.0025)  # hello and reject exchanged, no SHLO yet
    assert c.phase == "handshake" and c.ik is not None and c.k is None
    server_conn = fresh_server_ep.only_conn()
    shlo_msg, _ = identity.build_shlo("10.0.0.2", 0.0, Random(5))
    from quicmq.wire import PacketHeader, StreamFrame, encode_frames, seal_packet
    frame = StreamFrame(1, 0, shlo_msg.encode())
    packet = seal_packet(PacketHeader(cid=c.cid, sqn=700, epoch=EPOCH_IK),
                         b"\x01" + encode_frames([frame]), c.ik, "server")
    c.handle_datagram(packet, SERVER_ADDR)
    assert c.phase == "handshake"  # not established
    assert c.ik is not None and c.k is None


def test_shlo_with_a_malformed_public_value_fails_the_handshake(world):
    # A SHLO that opens under ik but whose PUBS is not a group byte and a
    # 32-byte value ends the handshake; no forward-secure key is derived.
    net, client_ep, server_ep, identity = world(seed=9)
    c = client_ep.make_client()
    c.start_connect()
    client_ep.pump(c.cid)
    net.run(until_s=0.0025)  # hello and reject exchanged, no SHLO yet
    assert c.phase == "handshake" and c.ik is not None
    shlo_msg, _ = identity.build_shlo("10.0.0.2", 0.0, Random(5))
    shlo_msg.fields[wire.TAG_PUBS] = bytes([GROUP_ID]) + bytes(5)
    packet = seal_packet(PacketHeader(cid=c.cid, sqn=700, epoch=EPOCH_IK),
                         bytes([wire.MARKER_HANDSHAKE])
                         + encode_frames([StreamFrame(1, 0, shlo_msg.encode())]),
                         c.ik, "server")
    c.handle_datagram(packet, SERVER_ADDR)
    assert client_ep.events_of(HandshakeFailed) == [HandshakeFailed("shlo_invalid")]
    assert client_ep.events_of(Closed) == [Closed("shlo_invalid")]
    assert c.phase == "closed" and c.k is None
    assert c.auth_failures == 0


def test_undecodable_handshake_message_is_refused_once(world):
    # Under ik, frames that decode but do not hold a handshake message are
    # refused like a packet that does not open; the handshake goes on.
    net, client_ep, server_ep, identity = world(seed=9)
    c = client_ep.make_client()
    c.start_connect()
    client_ep.pump(c.cid)
    net.run(until_s=0.0025)
    packet = seal_packet(PacketHeader(cid=c.cid, sqn=700, epoch=EPOCH_IK),
                         bytes([wire.MARKER_HANDSHAKE])
                         + encode_frames([StreamFrame(1, 0, b"SHL")]), c.ik, "server")
    c.handle_datagram(packet, SERVER_ADDR)
    assert c.auth_failures == 1
    assert c.phase == "handshake" and c.k is None
    assert not client_ep.events_of(HandshakeFailed)
    net.run(until_s=3.0)
    assert c.phase == "established"


def test_second_full_chlo_on_a_live_connection_draws_a_rej(world):
    # A full CHLO with a new nonce on a connection that already accepted
    # one is never accepted: the server answers with a REJ and keeps its
    # keys.
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    ik, k = server_conn.ik, server_conn.k
    msg, _ = build_full_chlo(conn.session.scfg, conn.session.stk, net.clock.now_s,
                             Random(77))
    packet = seal_hello(msg, conn.cid, 900, "client")
    server_conn.handle_datagram(packet, CLIENT_ADDR)
    assert [a for _, a in server_conn.take_outputs()] == ["rej"]
    assert server_conn.last_reject_reason == "chlo_on_live_connection"
    assert server_conn.auth_failures == 0
    assert server_conn.phase == "established"
    assert (server_conn.ik, server_conn.k) == (ik, k)


def test_persistently_rejecting_server_fails_connect(world, monkeypatch):
    # A strike window that rejects every nonce sends REJ after REJ; the
    # client gives up with a handshake failure instead of looping.
    net, client_ep, server_ep, identity = world()
    # Every timestamp is out of a negative window.
    monkeypatch.setattr(handshake, "STRIKE_WINDOW_S", -1.0)
    conn = client_ep.make_client()
    conn.start_connect()
    client_ep.pump(conn.cid)
    net.run(until_s=10.0)
    assert conn.phase == "closed"
    failures = [ev for _, ev in client_ep.events if isinstance(ev, HandshakeFailed)]
    assert failures and failures[0].reason == "too_many_rejects"
    assert server_ep.only_conn().last_reject_reason == "stk_stale"


def test_client_with_no_broker_gives_up_after_its_hello_retries(world):
    # Nothing answers: the hello goes out once and again on each of 8
    # retries, 0.3 s apart. The next retry fails the handshake, and the
    # failed handshake closes the connection like any other end.
    net, client_ep, server_ep, identity = world()
    nowhere = ("10.0.0.99", 4433)
    conn = client_ep.make_client(peer=nowhere)
    timed = []
    record = conn.on_event
    conn.on_event = lambda event: (timed.append((net.clock.now_us, event)), record(event))
    conn.start_connect()
    client_ep.pump(conn.cid)
    net.run(until_s=10.0)
    hellos = [ev.time_us for ev in net.trace if ev.event == "send" and ev.dst == nowhere]
    assert hellos == [300_000 * i for i in range(1 + connection.MAX_HANDSHAKE_RETRIES)]
    assert timed == [(2_700_000, HandshakeFailed("handshake_timeout")),
                     (2_700_000, Closed("handshake_timeout"))]
    assert conn.phase == "closed"
    assert [item for _, _, item in net._queue
            if item[0] == "timer" and not item[1].cancelled] == []


def test_connection_refuses_sqn_reuse():
    conn = Connection("client", 1, CLIENT_ADDR, SERVER_ADDR,
                      lambda: 0.0, lambda d, f: None, lambda e: None,
                      rng=Random(7))
    conn.ik = split_keys(Random(7).randbytes(40))
    conn.send_stream(3, b"a")
    conn.flush()
    conn.next_sqn -= 1  # force the same sequence number / IV
    conn.send_stream(3, b"b")
    with pytest.raises(TransportError) as e:
        conn.flush()
    assert e.value.reason == "sqn_reuse"


def degenerate_scfg(identity, public):
    """The identity's config with its DH value replaced by ``public``, with a
    fresh scid and signed by the identity's key, so it passes check_scfg."""
    cfg = identity.scfg
    pub_bytes = bytes([GROUP_ID]) + public
    scid = sha256(pub_bytes + cfg.expy.to_bytes(4, "big"))
    prof = sign(identity.sign_pair.sk, signed_blob(scid, pub_bytes, cfg.expy))
    return replace(cfg, scid=scid, public=public, prof=prof)


# All zero, and u = 1, a low-order point.
degenerate_publics = pytest.mark.parametrize(
    "public", [bytes(32), b"\x01" + bytes(31)], ids=["zero", "low_order"])


@degenerate_publics
def test_signed_degenerate_config_in_a_rej_fails_the_handshake(world, public):
    net, client_ep, server_ep, identity = world()
    identity.scfg = degenerate_scfg(identity, public)
    conn = client_ep.make_client()
    assert conn.start_connect() == "1rtt"
    client_ep.pump(conn.cid)
    net.run(until_s=3.0)
    assert [ev.reason for ev in client_ep.events_of(HandshakeFailed)] == ["scfg_malformed"]
    assert conn.phase == "closed"
    assert [a for _, a in client_ep.sent] == ["chlo_inchoate"]
    assert conn.session is None


@degenerate_publics
def test_signed_degenerate_cached_config_falls_back_to_1rtt(world, public):
    session, identity = warm_session(world)
    session = CachedSession(scfg=degenerate_scfg(identity, public), stk=session.stk)
    net, client_ep, server_ep, _ = world(session=session, identity=identity,
                                         client_seed=99)
    conn = client_ep.make_client()
    assert conn.start_connect() == "1rtt"  # before anything went out
    client_ep.pump(conn.cid)
    assert client_ep.sent[0][1] == "chlo_inchoate"
    net.run(until_s=3.0)
    assert conn.phase == "established"
    assert not client_ep.events_of(HandshakeFailed)


@pytest.mark.parametrize("path", ["1rtt", "0rtt"])
def test_a_connect_builds_one_x25519_key_per_ephemeral_value(world, key_builds, full_chlos,
                                                             path):
    session, identity = warm_session(world) if path == "0rtt" else (None, None)
    net, client_ep, server_ep, identity = world(session=session, identity=identity,
                                                client_seed=99)
    key_builds.clear()
    conn = client_ep.make_client()
    assert conn.start_connect() == path
    client_ep.pump(conn.cid)
    net.run(until_s=3.0)
    assert conn.phase == "established"
    # The client's hello and the server's SHLO; no DH rebuilds a key.
    assert len(key_builds) == 2
    assert key_builds[0] == full_chlos[-1][1].dh.secret


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


def test_frame_kind_0x04_is_refused_and_the_stream_stays(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    conn.send_stream(3, b"abc")
    client_ep.pump(conn.cid)
    net.run(until_s=net.clock.now_s + 0.5)
    # What an RST_STREAM for stream 3 at its final offset would have been.
    raw = bytes([0x04]) + (3).to_bytes(4, "big") + (3).to_bytes(8, "big") + bytes(4)
    packet = seal_client_data(conn.k, conn.next_sqn + 5, raw, cid=conn.cid, epoch=EPOCH_K)
    failures = server_conn.auth_failures
    server_conn.handle_datagram(packet, CLIENT_ADDR)
    assert server_conn.auth_failures == failures + 1
    assert server_conn.phase == "established"
    assert server_conn.streams[3].delivered == 3


def stream_frame_with_reserved_byte() -> bytes:
    raw = bytearray(encode_frames([StreamFrame(3, 0, b"abc")]))
    raw[13] = 1  # kind(1), stream id(4), offset(8), then the reserved byte
    return bytes(raw)


@pytest.mark.parametrize("raw", [
    pytest.param(bytes([wire.KIND_STREAM]) + bytes(10), id="truncated_stream_head"),
    pytest.param(encode_frames([StreamFrame(3, 0, b"abc")])[:-1], id="truncated_stream_data"),
    pytest.param(stream_frame_with_reserved_byte(), id="reserved_byte_set"),
])
def test_authenticated_frames_that_do_not_decode_are_refused_once(world, raw):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    net.run(until_s=net.clock.now_s + 0.5)
    sqn = conn.next_sqn + 5
    packet = seal_client_data(conn.k, sqn, raw, cid=conn.cid, epoch=EPOCH_K)
    failures = server_conn.auth_failures
    owed = server_conn.ack_needed
    server_conn.handle_datagram(packet, CLIENT_ADDR)
    assert server_conn.auth_failures == failures + 1
    assert not server_ep.events_of(StreamData)
    assert server_conn.streams == {}
    assert server_conn.ack_needed == owed
    assert server_conn.phase == "established"
    assert sqn not in server_conn.received_sqns


def test_frame_kind_0x05_is_refused_and_owes_no_ack(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    net.run(until_s=net.clock.now_s + 0.5)
    # 0x05 was a PING frame once; nothing sends one, so it is unknown.
    packet = seal_client_data(conn.k, conn.next_sqn + 5, bytes([0x05]),
                              cid=conn.cid, epoch=EPOCH_K)
    failures = server_conn.auth_failures
    owed = server_conn.ack_needed
    server_conn.handle_datagram(packet, CLIENT_ADDR)
    assert server_conn.auth_failures == failures + 1
    assert server_conn.ack_needed == owed
    assert server_conn.phase == "established"


def test_handshake_stream_reserved(world):
    net, client_ep, _, _ = world()
    conn = client_ep.make_client()
    with pytest.raises(TransportError):
        conn.send_stream(1, b"nope")


@pytest.mark.parametrize("stream_id", [0, 1, 2**32, -1])
def test_stream_ids_the_transport_cannot_carry_are_refused(world, stream_id):
    # Stream 0's WINDOW_UPDATE would read as the connection-level one, and a
    # frame holds the id in 32 bits: refused at the write, not at flush.
    net, client_ep, _, _ = world()
    conn = client_ep.make_client()
    with pytest.raises(TransportError) as e:
        conn.send_stream(stream_id, b"nope")
    assert e.value.reason == "bad_stream_id"
    assert not conn.streams
    conn.send_stream(2, b"ok")
    conn.send_stream(2**32 - 1, b"ok")
    assert sorted(conn.streams) == [2, 2**32 - 1]


def close_reasons(sent, keys) -> list[bytes]:
    """The reasons of the CLOSE frames in ``sent``, packets a server sealed
    under ``keys``."""
    reasons = []
    for packet, _ in sent:
        plain = open_packet_body(decode_header(packet), packet, keys, "client")
        reasons += [f.reason for f in decode_frames(plain[1:]) if isinstance(f, CloseFrame)]
    return reasons


def test_stream_frame_on_stream_0_closes_the_connection(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    # The frame after the bad one is not taken either.
    raw = encode_frames([StreamFrame(0, 0, b"x"), StreamFrame(3, 0, b"y")])
    server_conn.handle_datagram(
        seal_client_data(conn.k, conn.next_sqn, raw, cid=conn.cid, epoch=EPOCH_K),
        CLIENT_ADDR)
    assert 0 not in server_conn.streams
    assert not server_ep.events_of(StreamData)
    server_conn.flush()
    assert close_reasons(server_conn.take_outputs(), conn.k) == [b"bad_stream_id"]


def test_stream_reassembly_no_double_delivery():
    stream = Stream(3)
    out = stream.accept(StreamFrame(3, 0, b"abc"))
    assert out == [b"abc"]
    # Overlapping retransmission: already-delivered bytes are trimmed.
    out = stream.accept(StreamFrame(3, 0, b"abcdef"))
    assert out == [b"def"]
    # Out-of-order fragment held until the gap fills.
    assert stream.accept(StreamFrame(3, 9, b"z")) == []
    out = stream.accept(StreamFrame(3, 6, b"ghi"))
    assert out == [b"ghi", b"z"]


# ---------------------------------------------------------------------------
# Flow control
# ---------------------------------------------------------------------------


def _stream_bytes(packet, server_conn):
    """Total stream payload bytes inside one client-sent packet."""
    from quicmq.wire import open_packet_body
    header = decode_header(packet)
    keys = {EPOCH_CLEAR: NULL_KEYS, EPOCH_IK: server_conn.ik,
            EPOCH_K: server_conn.k}.get(header.epoch)
    if keys is None:
        return b""
    plain = open_packet_body(header, packet, keys, "server")
    if plain is None or not plain or plain[0] != 0x01:
        return b""
    return b"".join(f.data for f in wire.decode_frames(plain[1:])
                    if isinstance(f, StreamFrame))


def test_sender_blocked_at_stream_window_edge(world, windows):
    windows(64, 256)
    net, client_ep, server_ep, conn = run_handshake(world)
    client_ep.sent.clear()
    conn = client_ep.only_conn()
    server_conn = server_ep.only_conn()
    conn.send_stream(3, b"x" * 200)  # stream window is 64
    client_ep.pump(conn.cid)
    sent_now = sum(len(_stream_bytes(p, server_conn)) for p, _ in client_ep.sent)
    assert sent_now == 64  # blocked at the advertised offset
    net.run(until_s=5.0)
    # Window updates flow back as the receiver consumes; everything lands.
    assert server_conn.streams[3].delivered == 200


def test_sender_blocked_then_window_update_unblocks(world, windows):
    windows(64, 256)
    net, client_ep, server_ep, conn = run_handshake(world)
    conn = client_ep.only_conn()
    server_conn = server_ep.only_conn()
    client_ep.sent.clear()
    conn.send_stream(3, b"y" * 200)
    client_ep.pump(conn.cid)
    first_burst = sum(len(_stream_bytes(p, server_conn)) for p, _ in client_ep.sent)
    assert first_burst == 64
    net.run(until_s=5.0)
    total = sum(len(_stream_bytes(p, server_conn)) for p, _ in client_ep.sent)
    assert total == 200


def test_connection_window_caps_aggregate(world, windows):
    # Two streams, each within its stream window, together capped by the
    # connection-level window (256 here).
    windows(200, 256)
    net, client_ep, server_ep, conn = run_handshake(world)
    conn = client_ep.only_conn()
    server_conn = server_ep.only_conn()
    client_ep.sent.clear()
    conn.send_stream(3, b"a" * 200)
    conn.send_stream(5, b"b" * 200)
    client_ep.pump(conn.cid)
    burst = sum(len(_stream_bytes(p, server_conn)) for p, _ in client_ep.sent)
    assert burst == 256
    net.run(until_s=5.0)
    assert server_conn.streams[5].delivered == 200


def test_data_past_the_stream_window_closes_the_connection(world, windows):
    # The client believes in a larger stream window than the server gave.
    windows(64, 1024)
    net, client_ep, server_ep, conn = run_handshake(world)
    keys = conn.k
    server_ep.sent.clear()
    conn.send_stream(3, b"x" * 128)
    conn.streams[3].peer_limit = 128
    client_ep.pump(conn.cid)
    net.run(until_s=5.0)
    assert close_reasons(server_ep.sent, keys) == [b"flow_control"]
    assert not server_ep.events_of(StreamData)
    assert [ev.reason for ev in client_ep.events_of(Closed)] == ["peer_close:1"]


def test_streams_past_the_connection_window_close_the_connection(world, windows):
    # Each frame stays inside its stream's window (200); held out of order,
    # nothing is delivered and no window moves, yet the two highest offsets
    # together pass the connection's 256.
    windows(200, 256)
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    raw = encode_frames([StreamFrame(3, 100, b"a" * 100),
                         StreamFrame(5, 100, b"b" * 100)])
    server_conn.handle_datagram(
        seal_client_data(conn.k, conn.next_sqn, raw, cid=conn.cid, epoch=EPOCH_K),
        CLIENT_ADDR)
    server_conn.flush()
    assert close_reasons(server_conn.take_outputs(), conn.k) == [b"flow_control"]
    assert server_conn.conn_received == 400


def test_a_stream_past_max_streams_closes_the_connection(world):
    # One byte on each of MAX_STREAMS streams is taken; a frame that would
    # open one more closes the connection, whatever its window.
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    sqn = conn.next_sqn
    for k in range(MAX_STREAMS + 1):
        assert server_conn.phase == "established"
        raw = encode_frames([StreamFrame(2 + k, 0, b"x")])
        server_conn.handle_datagram(
            seal_client_data(conn.k, sqn + k, raw, cid=conn.cid, epoch=EPOCH_K), CLIENT_ADDR)
    assert server_conn.phase == "draining"
    assert len(server_conn.streams) == MAX_STREAMS
    assert len(server_ep.events_of(StreamData)) == MAX_STREAMS
    server_conn.flush()
    assert close_reasons(server_conn.take_outputs(), conn.k) == [b"stream_limit"]


def test_congestion_window_blocks_then_releases_without_loss(world, windows):
    # Enough queued data for 50 packets against a 32-packet window: the
    # flush stops at the window, nothing is dropped, and acks release the
    # rest until every byte lands exactly once.
    windows(256 * 1024, 1024 * 1024)
    net, client_ep, server_ep, conn = run_handshake(world)
    conn = client_ep.only_conn()
    server_conn = server_ep.only_conn()
    client_ep.sent.clear()
    total = 50 * 1200
    conn.send_stream(3, b"z" * total)
    client_ep.pump(conn.cid)
    burst = sum(1 for _, a in client_ep.sent if a.startswith("data"))
    assert burst == 32  # congestion window
    net.run(until_s=10.0)
    assert server_conn.streams[3].delivered == total


def test_slow_stream_does_not_block_other(world, windows):
    windows(64, 1024)
    net, client_ep, server_ep, conn = run_handshake(world)
    conn = client_ep.only_conn()
    server_conn = server_ep.only_conn()
    conn.send_stream(3, b"s" * 64)  # exhausts its own stream window
    conn.send_stream(5, b"f" * 32)
    client_ep.pump(conn.cid)
    net.run(until_s=5.0)
    assert server_conn.streams[5].delivered == 32


# ---------------------------------------------------------------------------
# Loss detection and retransmission
# ---------------------------------------------------------------------------


def test_nacked_data_retransmitted_under_fresh_sqn(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    conn = client_ep.only_conn()
    # Drop the next data packet once.
    dropped = {"armed": True}

    def match(src, dst, size, ann):
        if dropped["armed"] and ann.startswith("data") and src == CLIENT_ADDR:
            dropped["armed"] = False
            return True
        return False
    net.add_periodic_drop(match, 1)
    client_ep.sent.clear()
    conn.send_stream(3, b"\x30\x08\x00\x01tpayload")
    client_ep.pump(conn.cid)
    lost_sqn = decode_header(client_ep.sent[-1][0]).sqn
    # Follow-up packets provoke NACK feedback.
    for i in range(4):
        conn.send_stream(3, b"\x30\x08\x00\x01tpayload")
        client_ep.pump(conn.cid)
        net.run(until_s=net.clock.now_s + 0.01)
    net.run(until_s=net.clock.now_s + 1.0)
    retx = [(p, a) for p, a in client_ep.sent if "retx" in a]
    assert retx, "expected a retransmission"
    retx_sqn = decode_header(retx[0][0]).sqn
    assert retx_sqn != lost_sqn and retx_sqn > lost_sqn
    # Every payload delivered exactly once despite the loss.
    server_conn = server_ep.only_conn()
    assert server_conn.streams[3].delivered == 5 * 12


def test_ack_with_too_many_nack_ranges_rejected(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    # Hand-craft an over-limit ACK under the established key.
    from quicmq.wire import PacketHeader, seal_packet
    import struct
    raw = bytes([wire.KIND_ACK]) + struct.pack(">QQH", 500, 0, 257)
    raw += b"\x00" * (16 * 257)
    header = PacketHeader(cid=conn.cid, sqn=900, epoch=EPOCH_K)
    packet = seal_packet(header, b"\x01" + raw, conn.k, "client")
    failures_before = server_conn.auth_failures
    server_conn.handle_datagram(packet, CLIENT_ADDR)
    assert server_conn.auth_failures == failures_before + 1


def test_rto_retransmission_when_acks_lost(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    conn = client_ep.only_conn()
    # Silence the server entirely: every server datagram is dropped.
    net.add_periodic_drop(lambda src, dst, size, ann: src == SERVER_ADDR, 1)
    client_ep.sent.clear()
    conn.send_stream(3, b"\x30\x04\x00\x01tx")
    client_ep.pump(conn.cid)
    net.run(until_s=net.clock.now_s + 1.0)
    retx = [a for _, a in client_ep.sent if "retx" in a]
    assert retx  # the 200 ms timer floor fired and re-sent the data


# ---------------------------------------------------------------------------
# Migration
# ---------------------------------------------------------------------------


def test_migration_updates_peer_address(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    assert server_conn.peer_addr == CLIENT_ADDR
    new_addr = ("192.168.7.7", 50000)
    net.change_address(CLIENT_ADDR, new_addr)
    client_ep.addr = new_addr
    conn.local_addr = new_addr
    conn.send_stream(3, b"\x30\x04\x00\x01tx")
    client_ep.pump(conn.cid)
    net.run(until_s=5.0)
    assert server_conn.peer_addr == new_addr
    assert server_conn.cid == conn.cid
    migrations = server_ep.events_of(Migrated)
    assert migrations and migrations[0].old == CLIENT_ADDR


def test_reflected_rej_dropped_silently(world):
    # A REJ bounced at the server must not provoke any response.
    net, client_ep, server_ep, conn = run_handshake(world)
    rej_packet = next(p for p, a in server_ep.sent if a == "rej")
    server_conn = server_ep.only_conn()
    sent_before = len(server_ep.sent)
    # Reuse the server's own cid header by rebuilding a clear packet that
    # carries the REJ message back at it.
    msg = build_rej(server_ep.identity.scfg, server_ep.identity.k_stk,
                    "10.0.0.2", 0.0, Random(1))
    packet = seal_hello(msg, conn.cid, 600, "client")
    net.send(packet, CLIENT_ADDR, SERVER_ADDR, "reflected rej")
    net.run(until_s=net.clock.now_s + 0.1)
    assert len(server_ep.sent) == sent_before
    assert server_conn.phase == "established"


def test_forged_rej_with_empty_public_value_fails_the_handshake_cleanly(world):
    # A cleartext REJ can come from anyone who sees the cid. One whose
    # config carries an empty public value ends the handshake with
    # scfg_malformed; it must not raise out of the client's event loop.
    net, client_ep, server_ep, identity = world()
    attacker = ("6.6.6.8", 668)
    net.register(attacker, lambda p, s: None)
    conn = client_ep.make_client()
    conn.start_connect()
    client_ep.pump(conn.cid)
    scfg = b"\xab" * 32 + (0).to_bytes(2, "big") + (10**6).to_bytes(4, "big") + bytes(32)
    rej = wire.HandshakeMessage(wire.MSG_REJ, {wire.TAG_SCFG: scfg, wire.TAG_PROF: b"",
                                               wire.TAG_STK: bytes(36)})
    packet = seal_hello(rej, conn.cid, 1, "server")
    net.send(packet, attacker, CLIENT_ADDR, "forged rej")
    net.run(until_s=3.0)
    assert [ev.reason for ev in client_ep.events_of(HandshakeFailed)] == ["scfg_malformed"]
    assert conn.phase == "closed"


def test_unknown_cid_dropped_without_state_change(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    keys = split_keys(Random(9).randbytes(40))
    bogus = seal_client_data(keys, 1, b"m", cid=0xDEAD, epoch=EPOCH_IK)
    count_before = len(server_ep.conns)
    net.send(bogus, CLIENT_ADDR, SERVER_ADDR, "bogus")
    net.run(until_s=net.clock.now_s + 0.1)
    assert len(server_ep.conns) == count_before


def test_forged_packet_does_not_migrate(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    attacker = ("6.6.6.6", 666)
    net.register(attacker, lambda p, s: None)
    forged = seal_client_data(split_keys(Random(10).randbytes(40)), 99, b"x",
                              cid=conn.cid, epoch=EPOCH_K)
    net.send(forged, attacker, SERVER_ADDR, "forged")
    net.run(until_s=net.clock.now_s + 0.1)
    assert server_conn.peer_addr == CLIENT_ADDR
    assert not server_ep.events_of(Migrated)


def test_spoofed_cleartext_packet_does_not_migrate(world):
    # Cleartext handshake packets are sealed under a public key set; anyone
    # can forge one, so they must never move the peer address.
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    attacker = ("6.6.6.7", 667)
    net.register(attacker, lambda p, s: None)
    spoof = seal_hello(build_inchoate_chlo(), conn.cid, 700, "client")
    last_rx_before = server_conn._last_rx
    net.run(until_s=net.clock.now_s + 0.05)
    net.send(spoof, attacker, SERVER_ADDR, "spoofed clear")
    net.run(until_s=net.clock.now_s + 0.1)
    assert server_conn.peer_addr == CLIENT_ADDR
    assert not server_ep.events_of(Migrated)
    assert server_conn._last_rx == last_rx_before  # no idle-timer refresh
    # Nor does its sqn reach the ack state: acking sqn 700, which the client
    # never sent, would make the client close the connection.
    assert 700 not in server_conn.received_sqns
    conn.send_stream(3, b"up")
    client_ep.pump(conn.cid)
    net.run(until_s=net.clock.now_s + 0.1)
    server_conn.send_stream(3, b"down")
    server_ep.pump(server_conn.cid)
    net.run(until_s=net.clock.now_s + 0.1)
    conn.send_stream(3, b"up again")
    client_ep.pump(conn.cid)
    net.run(until_s=net.clock.now_s + 0.1)
    assert conn.phase == server_conn.phase == "established"
    assert not client_ep.events_of(Closed) and not server_ep.events_of(Closed)
    assert b"".join(ev.data for ev in server_ep.events_of(StreamData)) == b"upup again"
    assert b"".join(ev.data for ev in client_ep.events_of(StreamData)) == b"down"


def test_cleartext_data_packet_refused(world):
    # Only hellos travel in cleartext. A forged cleartext data packet must
    # not inject stream data or acks into an established connection.
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    # Full size, so that the marker rule refuses it, not the size rule.
    ack = wire.AckFrame(10**6, 1, ())
    room = (HANDSHAKE_PACKET_LEN - HEADER_LEN - 1
            - frame_len(ack) - frame_len(StreamFrame(3, 0, b"")) - GCM_TAG_LEN)
    forged = encode_frames([ack, StreamFrame(3, 0, b"forged".ljust(room, b"."))])
    packet = seal_client_data(NULL_KEYS, 900, forged, cid=conn.cid, epoch=EPOCH_CLEAR)
    assert len(packet) == HANDSHAKE_PACKET_LEN
    failures = server_conn.auth_failures
    server_conn.handle_datagram(packet, CLIENT_ADDR)
    assert server_conn.auth_failures == failures + 1
    assert 900 not in server_conn.received_sqns
    assert server_conn.phase == "established"
    assert not server_ep.events_of(StreamData)


def flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(out)


def server_state(server_conn):
    """What a refused datagram must leave as it was."""
    received = server_conn.received_sqns
    streams = {sid: (s.send_offset, s.delivered, s.received, s.advertised, s.peer_limit)
               for sid, s in server_conn.streams.items()}
    return (received.floor, received.gaps(), received.largest, server_conn.ack_needed,
            server_conn._last_rx, server_conn.peer_addr, server_conn.phase, streams)


def test_altered_copies_of_a_genuine_packet_are_refused_and_change_nothing(world):
    # Every single-bit flip of the 17-byte header, 32 seeded flips in the
    # body and every truncation of one genuine client packet under k, each
    # sent from the client's address and from a new one: each is refused
    # once and moves nothing the server holds. The genuine packet is then
    # taken.
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    conn.send_stream(3, b"up")
    client_ep.pump(conn.cid)
    net.run(until_s=net.clock.now_s + 1.0)  # quiet, and past the last receipt
    conn.send_stream(3, b"genuine")
    conn.flush()
    [packet] = [p for p, annotation in conn.take_outputs() if annotation == "data s3"]
    header = decode_header(packet)
    assert header.epoch == EPOCH_K

    rng = Random(19)
    altered = [flip_bit(packet, bit) for bit in range(HEADER_LEN * 8)]
    altered += [flip_bit(packet, rng.randrange(HEADER_LEN * 8, len(packet) * 8))
                for _ in range(32)]
    altered += [packet[:n] for n in range(len(packet))]
    before = server_state(server_conn)
    for data in altered:
        for src in (CLIENT_ADDR, ("10.0.0.9", 40000)):
            failures, events = server_conn.auth_failures, len(server_ep.events)
            server_conn.handle_datagram(data, src)
            assert server_conn.auth_failures == failures + 1
            assert len(server_ep.events) == events
            assert server_conn.outputs == []
            assert server_state(server_conn) == before

    failures = server_conn.auth_failures
    server_conn.handle_datagram(packet, CLIENT_ADDR)
    assert server_conn.auth_failures == failures
    assert header.sqn in server_conn.received_sqns
    assert server_conn._last_rx == net.clock.now_s
    assert server_conn.streams[3].delivered == len(b"upgenuine")
    assert server_ep.events_of(StreamData)[-1].data == b"genuine"


def test_authenticated_packets_whose_payload_is_refused_change_nothing(world):
    # Each payload opens under k but holds nothing the server can take. It
    # is refused once, from the client's address or a new one, and leaves
    # no trace: its sqn is not acked, the idle clock and the peer's address
    # stay, and no event or packet follows.
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    conn.send_stream(3, b"up")
    client_ep.pump(conn.cid)
    net.run(until_s=net.clock.now_s + 1.0)  # quiet, and past the last receipt
    data = bytes([wire.MARKER_DATA])
    hello = StreamFrame(1, 0, build_inchoate_chlo().encode())
    payloads = [
        b"",
        bytes([0x7F]) + encode_frames([StreamFrame(3, 2, b"x")]),  # unknown marker
        data + bytes([0x05]),
        data + bytes([wire.KIND_STREAM]) + bytes(10),
        data + encode_frames([StreamFrame(3, 2, b"abc")])[:-1],
        data + stream_frame_with_reserved_byte(),
        bytes([wire.MARKER_HANDSHAKE]) + encode_frames([hello]),
    ]
    sqn = conn.next_sqn + 5
    before = server_state(server_conn)
    for payload in payloads:
        packet = seal_packet(PacketHeader(cid=conn.cid, sqn=sqn, epoch=EPOCH_K), payload,
                             conn.k, "client")
        for src in (CLIENT_ADDR, ("10.9.9.9", 40000)):
            failures, events = server_conn.auth_failures, len(server_ep.events)
            server_conn.handle_datagram(packet, src)
            assert server_conn.auth_failures == failures + 1
            assert len(server_ep.events) == events
            assert server_conn.outputs == []
            assert server_state(server_conn) == before
    assert sqn not in server_conn.received_sqns


def test_stray_rej_to_a_server_in_handshake_records_no_sqn(world):
    net, client_ep, server_ep, identity = world()
    conn = client_ep.make_client()
    conn.start_connect()
    client_ep.pump(conn.cid)
    net.run(until_s=0.0015)  # the inchoate hello is in, the REJ on its way
    server_conn = server_ep.only_conn()
    assert server_conn.phase == "handshake"
    rej = build_rej(identity.scfg, identity.k_stk, CLIENT_ADDR[0], 0.0, Random(1))
    before = server_state(server_conn)
    server_conn.handle_datagram(seal_hello(rej, conn.cid, 600, "client"), CLIENT_ADDR)
    assert server_conn.auth_failures == 1
    assert 600 not in server_conn.received_sqns
    assert server_conn.outputs == []
    assert server_state(server_conn) == before


# ---------------------------------------------------------------------------
# Idle timeout and teardown
# ---------------------------------------------------------------------------


def test_idle_timeout_closes_without_draining(world):
    # RFC 9000 §10.1: an idle connection is discarded silently, as a failed
    # handshake is: no drain period, and nothing is sent from then on.
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    # Kill the client silently; the server only sees silence.
    client_ep.conns.clear()
    net.unregister(CLIENT_ADDR)
    deadline = server_conn._last_rx + connection.IDLE_TIMEOUT_S
    net.run(until_s=deadline - 0.1)
    assert server_conn.phase == "established"
    net.run(until_s=deadline + 0.001)
    assert server_conn.phase == "closed"
    assert not server_conn.streams and server_conn.ik is None and server_conn.k is None
    assert [ev.reason for ev in server_ep.events_of(Closed)] == ["idle_timeout"]
    net.run(until_s=deadline + 60.0)
    assert not [ev for ev in net.trace if ev.event == "send" and ev.src == SERVER_ADDR
                and ev.time_us > deadline * 1e6 + 1]


def test_unanswered_local_close_ends_as_local_close(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    net.add_periodic_drop(lambda src, dst, size, ann: src == SERVER_ADDR, 1)
    conn.close()
    client_ep.pump(conn.cid)
    assert conn.phase == "draining"
    net.run(until_s=net.clock.now_s + DRAIN_PERIOD_S + 1.0)
    assert conn.phase == "closed"
    assert [ev.reason for ev in client_ep.events_of(Closed)] == ["local_close"]


def test_activity_resets_idle_timer(world, monkeypatch):
    # run_handshake drains the network to t=3.0, so the idle timeout must
    # exceed that; ticks at 4.5 s intervals keep a 5 s timeout alive.
    monkeypatch.setattr(connection, "IDLE_TIMEOUT_S", 5.0)
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()

    def tick(n):
        if n <= 0 or conn.phase != "established":
            return
        conn.send_stream(3, b"\x30\x04\x00\x01tx")
        client_ep.pump(conn.cid)
        net.schedule(4.5, lambda: tick(n - 1))

    net.schedule(1.5, lambda: tick(3))
    net.run(until_s=12.0)
    assert server_conn.phase == "established"
    net.run(until_s=25.0)
    assert server_conn.phase == "closed"


def test_close_sends_queued_data_one_chunk_per_packet(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    payload = bytes(range(250)) * 20  # 5000 B, more than four chunks
    conn.send_stream(3, payload)
    conn.close()
    sent_before = len(client_ep.sent)
    client_ep.pump(conn.cid)
    flight = client_ep.sent[sent_before:]
    assert len(flight) == 5
    assert max(len(p) for p, _ in flight) <= HANDSHAKE_PACKET_LEN
    assert [a for _, a in flight] == ["data s3"] * 4 + ["close"]  # CLOSE on the last
    net.run(until_s=net.clock.now_s + 1.0)
    received = [ev for ev in server_ep.events_of(StreamData) if ev.stream_id == 3]
    assert b"".join(ev.data for ev in received) == payload
    assert server_conn.phase == "closed"
    assert conn.phase == "closed"


def test_lossy_exchange_sends_one_chunk_per_packet(monkeypatch):
    # The rule the annotations rest on: every data packet holds at most one
    # STREAM frame, and its annotation names that frame's stream, through
    # window updates, NACKs, retransmissions and delayed ACKs.
    plains = []
    seal = connection.seal_packet

    def recording_seal(header, plain, keys, role):
        plains.append(plain)
        return seal(header, plain, keys, role)
    monkeypatch.setattr(connection, "seal_packet", recording_seal)
    packets = []
    send_packet = Connection._send_packet

    def recording_send(self, *args, **kw):
        sqn = send_packet(self, *args, **kw)
        packets.append((plains[-1], self.outputs[-1][1]))
        return sqn
    monkeypatch.setattr(Connection, "_send_packet", recording_send)
    lossy_exchange()

    kinds = set()
    for plain, annotation in packets:
        if plain[0] != wire.MARKER_DATA:
            continue
        frames = decode_frames(plain[1:])
        chunks = [f for f in frames if isinstance(f, StreamFrame)]
        assert len(chunks) <= 1, annotation
        name = annotation.removesuffix(" retx")
        if chunks:
            assert name == f"data s{chunks[0].stream_id}", annotation
        else:
            assert name in ("ack", "control"), annotation
        kinds.add((annotation, any(isinstance(f, WindowUpdateFrame) for f in frames)))
    assert {"data s3", "data s5", "data s3 retx", "data s5 retx"} <= {a for a, _ in kinds}
    assert any(update for _, update in kinds)


def test_peer_close_reports_the_error_code(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    server_conn.close(error_code=7)
    server_ep.pump(server_conn.cid)
    net.run(until_s=net.clock.now_s + 1.0)
    assert [ev.reason for ev in client_ep.events_of(Closed)] == ["peer_close:7"]
    assert [ev.reason for ev in server_ep.events_of(Closed)] == ["peer_close:7"]


def test_clean_close_handshake(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    conn.send_stream(3, b"\xe0\x00")  # DISCONNECT
    conn.close()
    client_ep.pump(conn.cid)
    close_packets = [a for _, a in client_ep.sent if a == "close"]
    assert len(close_packets) == 1  # data and CLOSE share one datagram
    net.run(until_s=net.clock.now_s + 1.0)
    assert server_conn.phase == "closed"
    assert conn.phase == "closed"


def test_packets_sealed_under_ik_do_not_open_under_k(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    packet = seal_client_data(conn.ik, 500, b"stale", cid=conn.cid, epoch=EPOCH_K)
    failures = server_conn.auth_failures
    server_conn.handle_datagram(packet, CLIENT_ADDR)
    assert server_conn.auth_failures == failures + 1


def test_data_under_ik_refused_once_peer_is_on_k(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    conn.send_stream(3, b"real")  # one genuine packet under k
    client_ep.pump(conn.cid)
    net.run(until_s=net.clock.now_s + 0.1)
    assert server_ep.events_of(StreamData) == [StreamData(3, b"real")]
    forged = encode_frames([StreamFrame(5, 0, b"forged")])
    packet = seal_client_data(conn.ik, 500, forged, cid=conn.cid, epoch=EPOCH_IK)
    failures = server_conn.auth_failures
    server_conn.handle_datagram(packet, CLIENT_ADDR)
    assert server_conn.auth_failures == failures + 1
    assert server_ep.events_of(StreamData) == [StreamData(3, b"real")]
    assert 500 not in server_conn.received_sqns
