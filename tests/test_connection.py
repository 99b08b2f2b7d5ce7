from random import Random

import pytest

from quicmq import wire
from quicmq.connection import (
    CachedSession,
    Closed,
    Connection,
    HandshakeDone,
    HandshakeFailed,
    Migrated,
    SessionTicket,
    Stream,
    StreamData,
    TransportConfig,
    TransportError,
)
from quicmq.crypto import split_keys
from quicmq.wire import (
    EPOCH_IK,
    EPOCH_K,
    HANDSHAKE_DATAGRAM_LEN,
    HANDSHAKE_PACKET_LEN,
    LINK_OVERHEAD,
    PacketHeader,
    StreamFrame,
    decode_header,
    seal_packet,
)
from conftest import CLIENT_ADDR, SERVER_ADDR


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
    assert conn.handshake_completed and server_conn.handshake_completed
    assert conn.ik == server_conn.ik
    assert conn.k == server_conn.k
    assert conn.k != conn.ik


def test_1rtt_sqn_ladder(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    headers = [decode_header(p)[0] for p, _ in client_ep.sent]
    annotations = [a for _, a in client_ep.sent]
    assert annotations[0] == "chlo_inchoate"
    assert headers[0].sqn == 1
    assert headers[0].version == wire.VERSION
    assert annotations[1] == "chlo_full"
    assert headers[1].sqn == 2
    assert headers[1].version is None


def test_div_nonce_on_server_ik_packets_only(world):
    # Server-originated post-REJ packets under the initial keys carry the
    # 32-byte diversification nonce; forward-secure packets do not.
    net, client_ep, server_ep, conn = run_handshake(world)
    identity = server_ep.identity
    for packet, annotation in server_ep.sent:
        header, _ = decode_header(packet)
        if header.epoch == wire.EPOCH_IK:
            assert header.div_nonce == identity.scfg.div_nonce, annotation
        elif header.epoch == wire.EPOCH_K:
            assert header.div_nonce is None, annotation


def test_handshake_packets_have_fixed_length(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    for packet, annotation in client_ep.sent + server_ep.sent:
        kind = annotation.split(" ")[0]
        if kind in ("chlo_inchoate", "chlo_full", "rej"):
            assert len(packet) == HANDSHAKE_PACKET_LEN
            assert len(packet) + LINK_OVERHEAD == HANDSHAKE_DATAGRAM_LEN


def test_distinct_connections_distinct_cids(world):
    net, client_ep, server_ep, identity = world()
    a = client_ep.make_client()
    other_ep_rng_ids = client_ep.make_client()
    assert a.cid != other_ep_rng_ids.cid


def test_rej_carries_session_ticket(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    tickets = client_ep.events_of(SessionTicket)
    # One from the REJ, one refreshed by the SHLO.
    assert len(tickets) >= 2
    assert tickets[0].scfg.scid == tickets[-1].scfg.scid


def test_sender_sqns_strictly_increase(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    conn.send_stream(3, b"\x30\x04\x00\x01tx")
    client_ep.pump(conn.cid)
    net.run(until_s=4.0)
    for sent in (client_ep.sent, server_ep.sent):
        sqns = [decode_header(p)[0].sqn for p, _ in sent]
        assert sqns == sorted(sqns)
        assert len(set(sqns)) == len(sqns)


def test_nonce_inputs_never_repeat_per_direction(world):
    # Nonces are (role IV prefix || sqn); per direction and key epoch the
    # (epoch, sqn) pairs must be unique.
    net, client_ep, server_ep, conn = run_handshake(world)
    seen = set()
    for packet, _ in client_ep.sent:
        header, _ = decode_header(packet)
        key = (header.epoch, header.sqn)
        assert key not in seen
        seen.add(key)


# ---------------------------------------------------------------------------
# 0-RTT
# ---------------------------------------------------------------------------


def warm_session(world):
    """Complete one 1-RTT handshake and return the freshest ticket."""
    net, client_ep, server_ep, conn = run_handshake(world)
    ticket = client_ep.events_of(SessionTicket)[-1]
    identity = server_ep.identity
    return CachedSession(scfg=ticket.scfg, stk=ticket.stk), identity


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
    net, client_ep, server_ep, _ = world(session=session, identity=identity,
                                         client_seed=99)
    conn = client_ep.make_client()
    conn.send_stream(3, b"\x30\x04\x00\x01tx")
    assert conn.start_connect() == "0rtt"
    client_ep.pump(conn.cid)
    net.run(until_s=3.0)
    # Server rejected the stale scid; the connection still completed.
    assert conn.phase == "established"
    assert server_ep.only_conn().last_reject_reason == "scid_expired"
    annotations = [a for _, a in client_ep.sent]
    assert annotations[0] == "chlo_full"
    assert "chlo_full" in annotations[2:]  # fresh hello after the REJ
    # The queued data went out again under the fresh keys.
    server_data = [ev for _, ev in server_ep.events if isinstance(ev, StreamData)]
    assert b"".join(ev.data for ev in server_data if ev.stream_id == 3) == b"\x30\x04\x00\x01tx"


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


def test_tampered_config_signature_aborts_handshake(world):
    # Give the client the wrong broker key: the REJ's config signature fails
    # verification and the handshake aborts instead of proceeding.
    from quicmq.crypto import kg
    net, client_ep, server_ep, identity = world()
    client_ep.server_pk = kg(128, Random(123)).pk
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
    assert c.phase == "key_exchanged"
    server_conn = fresh_server_ep.only_conn()
    shlo_msg, _ = identity.build_shlo("10.0.0.2", 0.0, Random(5))
    from quicmq.wire import PacketHeader, StreamFrame, encode_frames, seal_packet
    frame = StreamFrame(1, 0, shlo_msg.encode(), False)
    packet = seal_packet(PacketHeader(cid=c.cid, sqn=700, epoch=EPOCH_IK),
                         b"\x01" + encode_frames([frame]), c.ik, "server")
    c.handle_datagram(packet, SERVER_ADDR)
    assert c.phase == "key_exchanged"  # not established
    assert c.k is None


def test_persistently_rejecting_server_fails_connect(world):
    # A strike window that rejects every nonce sends REJ after REJ; the
    # client gives up with a handshake failure instead of looping.
    net, client_ep, server_ep, identity = world()
    identity.strike.window_s = -1.0  # every timestamp is out of window
    conn = client_ep.make_client()
    conn.start_connect()
    client_ep.pump(conn.cid)
    net.run(until_s=10.0)
    assert conn.phase == "closed"
    failures = [ev for _, ev in client_ep.events if isinstance(ev, HandshakeFailed)]
    assert failures and failures[0].reason == "too_many_rejects"
    assert server_ep.only_conn().last_reject_reason == "stk_stale"


def test_connection_refuses_sqn_reuse():
    conn = Connection("client", 1, CLIENT_ADDR, SERVER_ADDR, TransportConfig(),
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


# ---------------------------------------------------------------------------
# Streams
# ---------------------------------------------------------------------------


def test_stream_id_parity_progression(world):
    net, client_ep, server_ep, identity = world()
    conn = client_ep.make_client()
    first = conn.stream_open()
    second = conn.stream_open()
    assert (first.stream_id, second.stream_id) == (1, 3)
    server_conn = Connection("server", 1, SERVER_ADDR, CLIENT_ADDR,
                             TransportConfig(), lambda: 0.0,
                             lambda d, f: net.schedule(d, f), lambda e: None,
                             rng=Random(1), identity=identity)
    assert server_conn.stream_open().stream_id == 2


def test_stream_find_returns_same_object(world):
    net, client_ep, _, _ = world()
    conn = client_ep.make_client()
    stream = conn.stream_open(3)
    assert conn.find_stream(3) is stream
    assert conn.stream_open(3) is stream


def test_write_after_fin_is_stream_closed(world):
    net, client_ep, _, _ = world()
    conn = client_ep.make_client()
    conn.stream_open(3).write(b"x", fin=True)
    with pytest.raises(TransportError) as e:
        conn.send_stream(3, b"more")
    assert e.value.reason == "stream_closed"


def test_reopen_closed_stream_clears_entry_and_errors(world):
    net, client_ep, _, _ = world()
    conn = client_ep.make_client()
    conn.stream_open(3)
    conn.reset_stream(3)
    with pytest.raises(TransportError) as e:
        conn.stream_open(3)
    assert e.value.reason == "stream_closed"
    # The entry was cleared: the next attempt starts a fresh stream.
    assert conn.stream_open(3).stream_id == 3


def test_handshake_stream_reserved(world):
    net, client_ep, _, _ = world()
    conn = client_ep.make_client()
    with pytest.raises(TransportError):
        conn.send_stream(1, b"nope")


def test_stream_reassembly_no_double_delivery():
    stream = Stream(3, 1 << 16)
    out = stream.accept(StreamFrame(3, 0, b"abc", False))
    assert out == [(b"abc", False)]
    # Overlapping retransmission: already-delivered bytes are trimmed.
    out = stream.accept(StreamFrame(3, 0, b"abcdef", False))
    assert out == [(b"def", False)]
    # Out-of-order fragment held until the gap fills.
    assert stream.accept(StreamFrame(3, 9, b"z", True)) == []
    out = stream.accept(StreamFrame(3, 6, b"ghi", False))
    assert out == [(b"ghi", False), (b"z", True)]


def test_stream_final_offset_never_decreases():
    stream = Stream(3, 1 << 16)
    stream.accept(StreamFrame(3, 0, b"abcd", True))
    with pytest.raises(TransportError) as e:
        stream.accept(StreamFrame(3, 0, b"ab", True))
    assert e.value.reason == "final_offset_changed"


# ---------------------------------------------------------------------------
# Flow control
# ---------------------------------------------------------------------------


def tiny_window_config():
    return TransportConfig(stream_window=64, connection_window=256)


def _stream_bytes(packet, server_conn):
    """Total stream payload bytes inside one client-sent packet."""
    from quicmq.wire import open_packet_body
    header, hlen = decode_header(packet)
    keys = server_conn._keys_for_epoch(header.epoch)
    if keys is None:
        return b""
    plain = open_packet_body(header, hlen, packet, keys, "server")
    if plain is None or not plain or plain[0] != 0x01:
        return b""
    return b"".join(f.data for f in wire.decode_frames(plain[1:])
                    if isinstance(f, StreamFrame))


def test_sender_blocked_at_stream_window_edge(world):
    net, client_ep, server_ep, conn = run_handshake(
        world, config=tiny_window_config())
    client_ep.sent.clear()
    conn = client_ep.only_conn()
    server_conn = server_ep.only_conn()
    conn.send_stream(3, b"x" * 200)  # stream window is 64
    client_ep.pump(conn.cid)
    sent_now = sum(len(_stream_bytes(p, server_conn)) for p, _ in client_ep.sent)
    assert sent_now == 64  # blocked at the advertised offset
    net.run(until_s=5.0)
    # Window updates flow back as the receiver consumes; everything lands.
    stream = server_conn.find_stream(3)
    assert stream is not None and stream.delivered == 200


def test_sender_blocked_then_window_update_unblocks(world):
    net, client_ep, server_ep, conn = run_handshake(
        world, config=tiny_window_config())
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


def test_connection_window_caps_aggregate(world):
    # Two streams, each within its stream window, together capped by the
    # connection-level window (256 here).
    net, client_ep, server_ep, conn = run_handshake(
        world, config=TransportConfig(stream_window=200, connection_window=256))
    conn = client_ep.only_conn()
    server_conn = server_ep.only_conn()
    client_ep.sent.clear()
    conn.send_stream(3, b"a" * 200)
    conn.send_stream(5, b"b" * 200)
    client_ep.pump(conn.cid)
    burst = sum(len(_stream_bytes(p, server_conn)) for p, _ in client_ep.sent)
    assert burst == 256
    net.run(until_s=5.0)
    assert server_conn.find_stream(5).delivered == 200


def test_congestion_window_blocks_then_releases_without_loss(world):
    # Enough queued data for 50 packets against a 32-packet window: the
    # flush stops at the window, nothing is dropped, and acks release the
    # rest until every byte lands exactly once.
    net, client_ep, server_ep, conn = run_handshake(
        world, config=TransportConfig(stream_window=256 * 1024,
                                      connection_window=1024 * 1024))
    conn = client_ep.only_conn()
    server_conn = server_ep.only_conn()
    client_ep.sent.clear()
    total = 50 * 1200
    conn.send_stream(3, b"z" * total)
    client_ep.pump(conn.cid)
    burst = sum(1 for _, a in client_ep.sent if a.startswith("data"))
    assert burst == 32  # congestion window
    net.run(until_s=10.0)
    stream = server_conn.find_stream(3)
    assert stream is not None and stream.delivered == total


def test_slow_stream_does_not_block_other(world):
    net, client_ep, server_ep, conn = run_handshake(
        world, config=TransportConfig(stream_window=64, connection_window=1024))
    conn = client_ep.only_conn()
    server_conn = server_ep.only_conn()
    conn.send_stream(3, b"s" * 64)  # exhausts its own stream window
    conn.send_stream(5, b"f" * 32)
    client_ep.pump(conn.cid)
    net.run(until_s=5.0)
    assert server_conn.find_stream(5).delivered == 32


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
    lost_sqn = decode_header(client_ep.sent[-1][0])[0].sqn
    # Follow-up packets provoke NACK feedback.
    for i in range(4):
        conn.send_stream(3, b"\x30\x08\x00\x01tpayload")
        client_ep.pump(conn.cid)
        net.run(until_s=net.clock.now_s + 0.01)
    net.run(until_s=net.clock.now_s + 1.0)
    retx = [(p, a) for p, a in client_ep.sent if "retx" in a]
    assert retx, "expected a retransmission"
    retx_sqn = decode_header(retx[0][0])[0].sqn
    assert retx_sqn != lost_sqn and retx_sqn > lost_sqn
    # Every payload delivered exactly once despite the loss.
    server_conn = server_ep.only_conn()
    assert server_conn.find_stream(3).delivered == 5 * 12


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
    from quicmq.handshake import build_rej
    from quicmq.wire import PacketHeader, StreamFrame, encode_frames, seal_packet
    from quicmq.crypto import NULL_KEYS
    msg = build_rej(server_ep.identity.scfg, server_ep.identity.k_stk,
                    "10.0.0.2", 0.0, Random(1))
    frame = StreamFrame(1, 0, msg.encode(), False)
    packet = seal_packet(PacketHeader(cid=conn.cid, sqn=600, epoch=0),
                         b"\x00" + encode_frames([frame]), NULL_KEYS, "client")
    net.send(packet, CLIENT_ADDR, SERVER_ADDR, "reflected rej")
    net.run(until_s=net.clock.now_s + 0.1)
    assert len(server_ep.sent) == sent_before
    assert server_conn.phase == "established"


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
    from quicmq.crypto import NULL_KEYS
    from quicmq.wire import EPOCH_CLEAR, PacketHeader, seal_packet
    spoof = seal_packet(PacketHeader(cid=conn.cid, sqn=700, epoch=EPOCH_CLEAR),
                        b"\x00CHLO", NULL_KEYS, "client")
    last_rx_before = server_conn._last_rx
    net.run(until_s=net.clock.now_s + 0.05)
    net.send(spoof, attacker, SERVER_ADDR, "spoofed clear")
    net.run(until_s=net.clock.now_s + 0.1)
    assert server_conn.peer_addr == CLIENT_ADDR
    assert not server_ep.events_of(Migrated)
    assert server_conn._last_rx == last_rx_before  # no idle-timer refresh


# ---------------------------------------------------------------------------
# Idle timeout and teardown
# ---------------------------------------------------------------------------


def test_idle_timeout_drains_then_closes(world):
    cfg = TransportConfig(idle_timeout_s=30.0, drain_period_s=10.0)
    net, client_ep, server_ep, conn = run_handshake(world, config=cfg)
    server_conn = server_ep.only_conn()
    # Kill the client silently; the server only sees silence.
    client_ep.conns.clear()
    net.unregister(CLIENT_ADDR)
    last_rx = server_conn._last_rx
    net.run(until_s=last_rx + 29.9)
    assert server_conn.phase == "established"
    net.run(until_s=last_rx + 31.0)
    assert server_conn.phase == "draining"
    net.run(until_s=last_rx + 60.0)
    assert server_conn.phase == "closed"
    assert not server_conn.streams and server_conn.ik is None and server_conn.k is None
    closed = [ev for _, ev in server_ep.events if isinstance(ev, Closed)]
    assert closed and closed[0].reason == "idle_timeout"


def test_activity_resets_idle_timer(world):
    # run_handshake drains the network to t=3.0, so the idle timeout must
    # exceed that; ticks at 4.5 s intervals keep a 5 s timeout alive.
    cfg = TransportConfig(idle_timeout_s=5.0, drain_period_s=2.0)
    net, client_ep, server_ep, conn = run_handshake(world, config=cfg)
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
