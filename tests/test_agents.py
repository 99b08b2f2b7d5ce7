import gc
import os
import tracemalloc
import weakref
from random import Random

import pytest

from quicmq import agents, connection, mqtt, wire
from quicmq.agents import (
    AgentError,
    ClientAgent,
    ServerAgent,
    SessionStore,
    _pump,
)
from quicmq.connection import IDLE_TIMEOUT_S, CachedSession
from quicmq.crypto import NULL_KEYS
from quicmq.handshake import (
    STRIKE_WINDOW_S,
    HandshakeError,
    ServerIdentity,
    build_inchoate_chlo,
)
from quicmq.mqtt import Broker, MqttMessage
from quicmq.netsim import SimConfig, SimNetwork
from quicmq.wire import EPOCH_IK, EPOCH_K, TAG_PUBC, TAG_STK, decode_header

BROKER = ("10.0.0.1", 4433)


def make_world(seed=3, delay_ms=0.5, state_dir=None):
    net = SimNetwork(SimConfig(delay_ms=delay_ms), seed=seed)
    identity = ServerIdentity.create(now=0.0, rng=Random(42))
    broker = Broker(state_dir=state_dir)
    server = ServerAgent(net, BROKER, identity, broker=broker, rng=Random(seed))
    return net, identity, server


def make_client(net, identity, port, client_id, seed=9, **kw):
    return ClientAgent(net, ("10.0.0.9", port), BROKER, client_id,
                       server_pk=identity.sign_pair.pk, rng=Random(seed), **kw)


def record_dispatch(client) -> list:
    """Every MQTT message the client's dispatcher is handed, in order."""
    seen = []
    dispatch = client.quic_dispatcher

    def recorder(msg, stream_id):
        seen.append(msg)
        dispatch(msg, stream_id)
    client.quic_dispatcher = recorder
    return seen


# ---------------------------------------------------------------------------
# client_connect and the initializer chain
# ---------------------------------------------------------------------------


def test_fresh_client_connects_via_1rtt():
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1")
    seen = record_dispatch(client)
    assert client.connect_mqtt() == "1rtt"
    net.run(until_s=2.0)
    assert client.connected
    assert seen[0].kind == mqtt.CONNACK


def test_warm_client_connects_via_0rtt(tmp_path):
    net, identity, server = make_world(state_dir=None)
    client = make_client(net, identity, 50001, "dev1", state_dir=str(tmp_path))
    client.connect_mqtt()
    net.run(until_s=2.0)
    assert client.connected

    net2, _, server2 = make_world(seed=5)
    server2.identity = identity  # same broker identity across restarts
    client2 = make_client(net2, identity, 50002, "dev1", seed=11,
                          state_dir=str(tmp_path))
    assert client2.connect_mqtt() == "0rtt"
    first = [ev for ev in net2.trace if ev.event == "send"]
    assert first[0].annotation == "chlo_full"
    assert first[1].annotation.startswith("data")
    net2.run(until_s=2.0)
    assert client2.connected


def test_lost_0rtt_hello_is_resent_unchanged(tmp_path):
    # The padded CHLO is part of the key transcript, so the retransmission
    # must repeat it byte for byte for both ends to derive the same keys.
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1", state_dir=str(tmp_path))
    client.connect_mqtt()
    net.run(until_s=2.0)

    net2, _, server2 = make_world(seed=5)
    server2.identity = identity
    net2.add_periodic_drop(lambda src, dst, size, ann: ann == "chlo_full", 1)
    client2 = make_client(net2, identity, 50002, "dev1", seed=11,
                          state_dir=str(tmp_path))
    assert client2.connect_mqtt() == "0rtt"
    net2.run(until_s=5.0)
    assert client2.failure is None
    assert client2.connected
    sent = [ev.annotation for ev in net2.trace if ev.event == "send"]
    assert "chlo_full retx" in sent
    assert "rej" not in sent


def test_empty_client_id_fails_instance_stage():
    net, identity, server = make_world()
    with pytest.raises(AgentError) as e:
        make_client(net, identity, 50001, "")
    assert e.value.stage == "instance"


def test_bad_keepalive_fails_options_stage():
    net, identity, server = make_world()
    with pytest.raises(AgentError) as e:
        make_client(net, identity, 50001, "dev1", keepalive=-1)
    assert e.value.stage == "options"


def test_oversized_connect_fails_sanity_before_any_datagram():
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "x" * 20000)
    with pytest.raises(AgentError) as e:
        client.connect_mqtt()
    assert e.value.stage == "sanity"
    assert not net.trace  # nothing left the host


# ---------------------------------------------------------------------------
# Session files
# ---------------------------------------------------------------------------


def test_session_file_path_layout(tmp_path):
    store = SessionStore(str(tmp_path))
    assert store.path_for("10.0.0.1", 4433).endswith("10.0.0.1_4433.session")


def test_session_store_roundtrip(tmp_path):
    identity = ServerIdentity.create(now=0.0, rng=Random(1))
    store = SessionStore(str(tmp_path))
    store.store("h", 1, CachedSession(identity.scfg, b"t" * 36), created=123.0)
    session = store.load("h", 1)
    assert session.stk == b"t" * 36
    assert session.scfg.scid == identity.scfg.scid
    text = open(store.path_for("h", 1)).read()
    assert "server = h:1" in text and "created = 123" in text


def test_failed_session_write_leaves_the_old_file(tmp_path, monkeypatch):
    identity = ServerIdentity.create(now=0.0, rng=Random(1))
    store = SessionStore(str(tmp_path))
    store.store("h", 1, CachedSession(identity.scfg, b"t" * 36), created=123.0)
    before = open(store.path_for("h", 1)).read()

    def disk_full_open(path, mode="r", **kw):
        # The file is opened for writing, so truncated, then the write fails.
        f = open(path, mode, **kw)
        if "w" in mode:
            f.close()
            raise OSError(28, "No space left on device")
        return f
    monkeypatch.setattr("quicmq.mqtt.open", disk_full_open, raising=False)
    with pytest.raises(OSError):
        store.store("h", 1, CachedSession(identity.scfg, b"u" * 36), created=456.0)
    monkeypatch.undo()
    assert open(store.path_for("h", 1)).read() == before
    assert os.listdir(tmp_path) == ["h_1.session"]
    assert store.load("h", 1).stk == b"t" * 36


def test_session_file_that_is_not_utf8_is_no_session(tmp_path):
    net, identity, server = make_world()
    store = SessionStore(str(tmp_path))
    with open(store.path_for(*BROKER), "wb") as f:
        f.write(b"\xff\xfe garbage")
    assert store.load(*BROKER) is None
    client = make_client(net, identity, 50001, "dev1", state_dir=str(tmp_path))
    assert client.connect_mqtt() == "1rtt"
    net.run(until_s=2.0)
    assert client.connected
    assert store.load(*BROKER) is not None  # replaced by the REJ's material


def test_broker_keeps_serving_when_its_session_writes_fail(tmp_path):
    net, identity, server = make_world(state_dir=str(tmp_path))
    os.rmdir(tmp_path / "clients")
    client = make_client(net, identity, 50001, "dev1", persistent=True)
    subacks = []
    client.on_suback = lambda agent, msgid: subacks.append(msgid)
    client.connect_mqtt()
    net.run(until_s=2.0)
    assert client.connected
    msgid = client.subscribe("a/b")
    net.run(until_s=3.0)
    assert subacks == [msgid]
    assert server.broker.store_failures == 2


def test_session_file_rewritten_after_fallback(tmp_path):
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1", state_dir=str(tmp_path))
    client.connect_mqtt()
    net.run(until_s=2.0)
    store = SessionStore(str(tmp_path))
    old = store.load(*BROKER)
    # Rotate the broker config: the cached scid is now stale.
    identity.rotate_scfg(1.0, Random(50))
    net2, _, server2 = make_world(seed=6)
    server2.identity = identity
    client2 = make_client(net2, identity, 50002, "dev1", seed=12,
                          state_dir=str(tmp_path))
    assert client2.connect_mqtt() == "0rtt"  # attempted from the stale file
    net2.run(until_s=2.0)
    assert client2.connected  # transparent 1-RTT fallback
    fresh = store.load(*BROKER)
    assert fresh.scfg.scid != old.scfg.scid  # file rewritten with the new config


def count_session_writes(monkeypatch) -> list:
    """The token of every session file write, in order."""
    writes = []
    store = SessionStore.store

    def counting_store(self, host, port, session, created):
        writes.append(session.stk)
        store(self, host, port, session, created)
    monkeypatch.setattr(SessionStore, "store", counting_store)
    return writes


def test_session_file_written_once_per_handshake(tmp_path, monkeypatch):
    # A 1-RTT connect writes the file once, with the REJ's token; a resumed
    # connect writes nothing.
    writes = count_session_writes(monkeypatch)
    rej_stks = []
    build_rej = connection.build_rej

    def record_rej(*args, **kw):
        msg = build_rej(*args, **kw)
        rej_stks.append(msg.fields[TAG_STK])
        return msg
    monkeypatch.setattr(connection, "build_rej", record_rej)

    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1", state_dir=str(tmp_path))
    assert client.connect_mqtt() == "1rtt"
    net.run(until_s=2.0)
    assert client.connected
    assert len(writes) == 1 and writes == rej_stks

    net2, _, server2 = make_world(seed=5)
    server2.identity = identity
    client2 = make_client(net2, identity, 50002, "dev1", seed=11,
                          state_dir=str(tmp_path))
    assert client2.connect_mqtt() == "0rtt"
    net2.run(until_s=2.0)
    assert client2.connected
    assert len(writes) == 1 and writes == rej_stks
    assert SessionStore(str(tmp_path)).load(*BROKER).stk == writes[0]


def test_session_file_outlives_resumes_until_its_config_expires(tmp_path, monkeypatch):
    # The broker's config, minted at 0 s, expires at 86,400 s; the REJ's
    # token, minted at 100 s, goes stale at 86,500 s. Resumes before the
    # expiry write nothing; the first connect after it falls back to 1-RTT
    # and writes the file once.
    writes = count_session_writes(monkeypatch)
    net, identity, server = make_world()
    paths, written = {}, {}

    def connect_at(at, port):
        client = make_client(net, identity, port, f"dev{port}", seed=port,
                             state_dir=str(tmp_path))

        def go():
            paths[at] = client.connect_mqtt()
            net.schedule(1.0, lambda: written.setdefault(at, (client.connected,
                                                              len(writes))))
        net.schedule(at, go)
    for port, at in enumerate((100.0, 50_000.0, 86_390.0, 86_410.0), start=50001):
        connect_at(at, port)
    net.run(until_s=86_415.0)
    assert paths == {100.0: "1rtt", 50_000.0: "0rtt", 86_390.0: "0rtt", 86_410.0: "1rtt"}
    assert written == {100.0: (True, 1), 50_000.0: (True, 1), 86_390.0: (True, 1),
                       86_410.0: (True, 2)}


def test_broker_renews_its_server_config_when_it_expires():
    # The identity is created at 0 s, so its first config expires at 86,400 s.
    net, identity, server = make_world()
    first = identity.scfg
    paths = {}
    early = make_client(net, identity, 50001, "early")
    late = make_client(net, identity, 50002, "late", seed=10)
    net.schedule(100.0, lambda: paths.setdefault("early", early.connect_mqtt()))
    net.schedule(86410.0, lambda: paths.setdefault("late", late.connect_mqtt()))
    net.run(until_s=86415.0)
    assert paths == {"early": "1rtt", "late": "1rtt"}
    assert early.failure is None and late.failure is None
    assert late.connected
    assert identity.scfg.expy > 86410 and identity.retired == {first.scid}


@pytest.mark.parametrize("bad_value", [bytes(5), bytes(32), b"\x01" + bytes(31)],
                         ids=["5_bytes", "all_zero", "low_order"])
def test_bad_client_dh_value_draws_a_rej_and_records_no_nonce(monkeypatch, bad_value):
    # The bad hellos follow an honest inchoate hello, so each carries a valid
    # token and names the current config; only the X25519 value is bad.
    net, identity, server = make_world()
    nonces = []
    honest_build = connection.build_full_chlo

    def build_bad_chlo(cfg, stk, now, rng):
        msg, secrets = honest_build(cfg, stk, now, rng)
        msg.fields[TAG_PUBC] = b"\x01" + bad_value
        nonces.append(secrets.nonc)
        return msg, secrets
    monkeypatch.setattr(connection, "build_full_chlo", build_bad_chlo)
    bad = make_client(net, identity, 50001, "bad")
    bad.connect_mqtt()
    net.run(until_s=2.0)
    assert nonces and not bad.connected
    assert [s.conn.last_reject_reason for s in server.conns.values()] == ["pubc_invalid"]
    assert identity.strike.seen == set()

    monkeypatch.undo()
    honest = make_client(net, identity, 50002, "honest", seed=10)
    assert honest.connect_mqtt() == "1rtt"
    net.run(until_s=4.0)
    assert honest.connected
    assert len(identity.strike.seen) == 1


def test_strike_register_holds_only_recent_nonces(full_chlos):
    # One full handshake every 100 s for 2,000 s: the register keeps at most
    # the nonces of the last two 300 s windows, and still refuses a replay
    # of one inside the window.
    net, identity, server = make_world()
    window = STRIKE_WINDOW_S
    sizes = {}
    starts = [100.0 * i for i in range(1, 21)]
    for port, at in enumerate(starts, start=50001):
        client = make_client(net, identity, port, f"dev{port}", seed=port)
        net.schedule(at, client.connect_mqtt)
        net.schedule(at + 1.0, lambda at=at: sizes.setdefault(at, len(identity.strike.seen)))
    net.run(until_s=starts[-1] + 2.0)
    nonces = [secrets.nonc for _, secrets in full_chlos]
    assert len(nonces) == len(starts) and sizes[starts[-1]] < len(starts)
    for at, size in sizes.items():
        assert size <= sum(1 for s in starts if at - 2 * window <= s <= at)
    with pytest.raises(HandshakeError) as e:
        identity.strike.check(nonces[-1], net.clock.now_s)
    assert e.value.reason == "nonc_replayed"


# ---------------------------------------------------------------------------
# Dispatcher and broker routing
# ---------------------------------------------------------------------------


def test_publish_routed_to_all_subscribers():
    net, identity, server = make_world()
    got = {"a": [], "b": []}
    sub_a = make_client(net, identity, 50001, "sub-a", seed=21,
                        on_connected=lambda a: a.subscribe("t/x"),
                        on_message=lambda a, m: got["a"].append(m.payload))
    sub_b = make_client(net, identity, 50002, "sub-b", seed=22,
                        on_connected=lambda a: a.subscribe("t/+"),
                        on_message=lambda a, m: got["b"].append(m.payload))
    pub = make_client(net, identity, 50003, "pub", seed=23)
    sub_a.connect_mqtt()
    sub_b.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=2.0)
    pub.publish("t/x", b"fanout")
    net.run(until_s=4.0)
    assert got["a"] == [b"fanout"]
    assert got["b"] == [b"fanout"]


def test_broker_decodes_each_datagram_header_once(monkeypatch):
    """The server agent decodes a header to find the connection and hands
    it on: one decode per datagram to the broker, through either name."""
    inside_broker = False
    counts = {"datagrams": 0, "decodes": 0}
    on_datagram = ServerAgent.on_datagram

    def counted_on_datagram(self, data, src):
        nonlocal inside_broker
        counts["datagrams"] += 1
        inside_broker = True
        try:
            on_datagram(self, data, src)
        finally:
            inside_broker = False

    def counted(decode):
        def wrapper(data):
            counts["decodes"] += inside_broker
            return decode(data)
        return wrapper

    monkeypatch.setattr(ServerAgent, "on_datagram", counted_on_datagram)
    monkeypatch.setattr(agents, "decode_header", counted(wire.decode_header))
    monkeypatch.setattr(connection, "decode_header", counted(wire.decode_header))
    net, identity, server = make_world()
    got = []
    sub = make_client(net, identity, 50001, "sub", seed=21,
                      on_connected=lambda a: a.subscribe("t", qos=1),
                      on_message=lambda a, m: got.append(m.payload))
    pub = make_client(net, identity, 50002, "pub", seed=22)
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=2.0)
    for i in range(10):
        pub.publish("t", bytes([i]), qos=1)
    net.run(until_s=4.0)
    pub.disconnect()
    net.run(until_s=5.0)
    assert got == [bytes([i]) for i in range(10)]
    to_broker = sum(1 for ev in net.trace if ev.event == "deliver" and ev.dst == BROKER)
    assert counts["datagrams"] == to_broker > 20
    assert counts["decodes"] == to_broker


def test_client_rx_queue_is_fifo():
    net, identity, server = make_world()
    payloads = []
    sub = make_client(net, identity, 50001, "sub", seed=21,
                      on_connected=lambda a: a.subscribe("q"),
                      on_message=lambda a, m: payloads.append(m.payload))
    pub = make_client(net, identity, 50002, "pub", seed=22)
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=2.0)
    for i in range(5):
        pub.publish("q", bytes([i]))
    net.run(until_s=4.0)
    assert payloads == [bytes([i]) for i in range(5)]


def test_suback_surfaced_to_application():
    net, identity, server = make_world()
    events = []
    sub = make_client(net, identity, 50001, "sub", seed=21,
                      on_connected=lambda a: a.subscribe("s"),
                      on_suback=lambda a, msgid: events.append(msgid))
    sub.connect_mqtt()
    net.run(until_s=2.0)
    assert events == [1]


def test_invalid_mqtt_payload_keeps_connection():
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1")
    client.connect_mqtt()
    net.run(until_s=2.0)
    client.conn.send_stream(5, b"\x00\xff\xff")  # not a valid MQTT header
    _pump(net, client.conn)
    net.run(until_s=3.0)
    assert server.mqtt_errors == 1
    assert server.connection_count() == 1  # connection survives
    client.publish("still/alive", b"yes")
    net.run(until_s=4.0)
    assert client.connected


def test_partial_message_held_no_longer_than_the_message_bound():
    # A PUBLISH head declaring 50 MB, then 300 KB of body: the transport
    # counts the bytes as delivered and reopens its windows, so only the
    # agent's own bound stops it holding them all for one stream.
    net, identity, server = make_world()
    got = []
    sub = make_client(net, identity, 50001, "sub", seed=21,
                      on_connected=lambda a: a.subscribe("ok"),
                      on_message=lambda a, m: got.append(m.payload))
    pub = make_client(net, identity, 50002, "pub", seed=22)
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=2.0)
    head = bytes([0x30, 0x80, 0xE1, 0xEB, 0x17]) + b"\x00\x01t"  # 50,000,000
    with pytest.raises(mqtt.IncompleteMessage):
        mqtt.decode(head)
    pub.conn.send_stream(3, head + b"b" * 300_000)
    _pump(net, pub.conn)
    held = 0
    while net.clock.now_s < 6.0 and net.step():
        for state in server.conns.values():
            held = max(held, sum(map(len, state.rx_buffers.values())))
    assert held <= agents.MAX_MESSAGE_SIZE + 1200
    assert server.mqtt_errors >= 1
    assert server.connection_count() == 2
    assert pub.conn.phase == connection.ESTABLISHED
    pub.publish("ok", b"still routed", stream_id=5)
    net.run(until_s=net.clock.now_s + 2.0)
    assert got == [b"still routed"]


@pytest.mark.parametrize("bad", [
    b"\x00\xff\xff",  # not a valid MQTT header
    bytes([0x30, 0x80, 0xE1, 0xEB, 0x17]) + b"\x00\x01t" + b"b" * 300_000,  # 50 MB head
], ids=["malformed", "oversized"])
def test_stream_out_of_frame_is_read_no_more(bad):
    # Once a stream's bytes break MQTT framing, nothing later on that stream
    # can be told from the middle of a message: it counts one error and is
    # not read again, while the connection and its other streams carry on.
    net, identity, server = make_world()
    got = []
    sub = make_client(net, identity, 50001, "sub", seed=21,
                      on_connected=lambda a: a.subscribe("t/x"),
                      on_message=lambda a, m: got.append(m.payload))
    pub = make_client(net, identity, 50002, "pub", seed=22)
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=2.0)
    pub.conn.send_stream(5, bad)
    _pump(net, pub.conn)
    net.run(until_s=6.0)
    pub.publish("t/x", b"same stream", stream_id=5)
    net.run(until_s=8.0)
    assert server.mqtt_errors == 1
    assert got == []
    pub.publish("t/x", b"other stream", stream_id=7)
    net.run(until_s=10.0)
    assert got == [b"other stream"]
    assert server.connection_count() == 2
    assert pub.conn.phase == connection.ESTABLISHED


def test_publish_split_after_its_first_byte_is_delivered():
    # An incomplete fixed header waits for the rest instead of being dropped.
    net, identity, server = make_world()
    got = []
    sub = make_client(net, identity, 50001, "sub", seed=21,
                      on_connected=lambda a: a.subscribe("t/x"),
                      on_message=lambda a, m: got.append(m.payload))
    pub = make_client(net, identity, 50002, "pub", seed=22)
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=2.0)
    raw = mqtt.encode(MqttMessage(mqtt.PUBLISH, topic="t/x", payload=b"split"))
    for part in (raw[:1], raw[1:]):
        pub.conn.send_stream(3, part)
        _pump(net, pub.conn)
        net.run(until_s=net.clock.now_s + 1.0)
    assert server.mqtt_errors == 0
    assert got == [b"split"]


def test_qos1_delivery_and_puback():
    net, identity, server = make_world()
    got = []
    sub = make_client(net, identity, 50001, "sub", seed=21,
                      on_connected=lambda a: a.subscribe("q1", qos=1),
                      on_message=lambda a, m: got.append(m))
    pub = make_client(net, identity, 50002, "pub", seed=22)
    acks = record_dispatch(pub)
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=2.0)
    msgid = pub.publish("q1", b"important", qos=1)
    net.run(until_s=4.0)
    assert [m.payload for m in got] == [b"important"]
    assert got[0].qos == 1 and not got[0].dup
    assert [m.msgid for m in acks if m.kind == mqtt.PUBACK] == [msgid]


class RecordingBroker(Broker):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.seen: list[MqttMessage] = []

    def handle(self, msg, conn):
        self.seen.append(msg)
        return super().handle(msg, conn)


@pytest.mark.parametrize("end", ["publisher", "broker"])
def test_qos1_publish_without_puback_is_sent_once(end):
    # Every PUBACK to the sender is lost. The stream already delivered the
    # PUBLISH, so neither end sends it again, with or without the dup flag.
    net = SimNetwork(SimConfig(delay_ms=0.5), seed=8)
    identity = ServerIdentity.create(now=0.0, rng=Random(42))
    broker = RecordingBroker()
    server = ServerAgent(net, BROKER, identity, broker=broker, rng=Random(8))
    got = []
    sub = make_client(net, identity, 50001, "sub", seed=21,
                      on_connected=lambda a: a.subscribe("q1", qos=1),
                      on_message=lambda a, m: got.append(m))
    pub = make_client(net, identity, 50002, "pub", seed=22)
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=2.0)
    sender = pub.state if end == "publisher" else server.conns[sub.conn.cid]
    acker, me = sender.conn.peer_addr, sender.conn.local_addr
    net.add_periodic_drop(lambda src, dst, size, ann: (src == acker and dst == me
                                                       and ann.startswith("data")), 1)
    pub.publish("q1", b"once", qos=1)
    net.run(until_s=net.clock.now_s + 15.0)
    received = broker.seen if end == "publisher" else got
    publishes = [m for m in received if m.kind == mqtt.PUBLISH]
    assert [(m.topic, m.payload, m.dup) for m in publishes] == [("q1", b"once", False)]


def test_subscriber_that_never_pubacks_gets_each_message_once(monkeypatch):
    net, identity, server = make_world()
    got = []
    sub = make_client(net, identity, 50001, "sub", seed=21,
                      on_connected=lambda a: a.subscribe("q1", qos=1),
                      on_message=lambda a, m: got.append(m))
    pub = make_client(net, identity, 50002, "pub", seed=22)
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=2.0)
    send = connection.Connection.send_stream

    def dropping_pubacks(conn, stream_id, raw):
        if conn is not sub.conn or raw[0] >> 4 != mqtt.PUBACK:
            send(conn, stream_id, raw)
    monkeypatch.setattr(connection.Connection, "send_stream", dropping_pubacks)
    for i in range(100):
        pub.publish("q1", i.to_bytes(2, "big"), qos=1)
        net.run(until_s=net.clock.now_s + 0.05)
    net.run(until_s=net.clock.now_s + 15.0)
    assert [m.payload for m in got] == [i.to_bytes(2, "big") for i in range(100)]
    assert not any(m.dup for m in got)


def test_unsubscribed_filter_no_longer_picks_the_stream():
    # A PUBLISH goes out on the stream its matching filter was subscribed
    # from; once that filter is unsubscribed it must not steer routing.
    net, identity, server = make_world()
    arrivals = []
    sub = make_client(net, identity, 50001, "sub", seed=21)
    dispatch = sub.quic_dispatcher
    sub.quic_dispatcher = lambda m, stream_id: (arrivals.append((m.kind, stream_id)),
                                                dispatch(m, stream_id))
    pub = make_client(net, identity, 50002, "pub", seed=22)
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=2.0)
    sub.subscribe("a/#", stream_id=5)
    net.run(until_s=3.0)
    sub.conn.send_stream(5, mqtt.encode(MqttMessage(mqtt.UNSUBSCRIBE, msgid=99,
                                                    topics=(("a/#", 0),))))
    _pump(net, sub.conn)
    net.run(until_s=4.0)
    sub.subscribe("a/b", stream_id=7)
    net.run(until_s=5.0)
    pub.publish("a/b", b"m")
    net.run(until_s=6.0)
    assert (mqtt.UNSUBACK, 5) in arrivals
    assert [s for kind, s in arrivals if kind == mqtt.PUBLISH] == [7]


def lose_first_connect(net, client) -> list:
    """Drop the packet that first carries the client's CONNECT (stream 3);
    the list it returns fills once that happens."""
    dropped = []

    def first_connect(src, dst, size, annotation):
        if src == client.local_addr and annotation == "data s3" and not dropped:
            dropped.append(annotation)
            return True
        return False
    net.add_periodic_drop(first_connect, 1)
    return dropped


def record_arrivals(client) -> list:
    """(kind, stream) of every MQTT message the client's dispatcher is
    handed, in order."""
    arrivals = []
    dispatch = client.quic_dispatcher
    client.quic_dispatcher = lambda m, stream_id: (arrivals.append((m.kind, stream_id)),
                                                   dispatch(m, stream_id))
    return arrivals


def test_subscribe_that_overtakes_its_connect_is_held_until_the_connect():
    # The subscriber's CONNECT is lost, so its SUBSCRIBE on stream 5 reaches
    # the broker first. It is held, taken right after the retransmitted
    # CONNECT, answered on stream 5, and its filter steers routing.
    net, identity, server = make_world()
    sub = make_client(net, identity, 50001, "sub", seed=21)
    arrivals = record_arrivals(sub)
    pub = make_client(net, identity, 50002, "pub", seed=22)
    dropped = lose_first_connect(net, sub)
    sub.connect_mqtt()
    sub.subscribe("a/#", stream_id=5)
    pub.connect_mqtt()
    net.run(until_s=2.0)
    assert dropped and sub.connected and server.mqtt_errors == 0
    assert arrivals == [(mqtt.CONNACK, 3), (mqtt.SUBACK, 5)]
    pub.publish("a/x", b"m")
    net.run(until_s=3.0)
    assert arrivals[2:] == [(mqtt.PUBLISH, 5)]
    assert all(state.early is None for state in server.conns.values())


def test_refused_subscribe_does_not_pick_the_stream():
    # The subscriber's CONNECT is lost, and 16 PUBLISHes on stream 4 fill
    # the broker's hold before its SUBSCRIBE on stream 5 arrives, so that
    # SUBSCRIBE is refused. The filter it named must not steer routing once
    # the retransmitted CONNECT is in.
    net, identity, server = make_world()
    sub = make_client(net, identity, 50001, "sub", seed=21)
    arrivals = record_arrivals(sub)
    pub = make_client(net, identity, 50002, "pub", seed=22)
    dropped = lose_first_connect(net, sub)
    sub.connect_mqtt()
    for n in range(agents.MAX_EARLY_MESSAGES):
        sub.publish("z", bytes([n]), stream_id=4)
    sub.subscribe("a/#", stream_id=5)
    pub.connect_mqtt()
    net.run(until_s=2.0)
    assert dropped and server.mqtt_errors == 1
    assert sub.connected and (mqtt.SUBACK, 5) not in arrivals
    sub.subscribe("a/b", stream_id=7)
    net.run(until_s=3.0)
    pub.publish("a/b", b"m")
    net.run(until_s=4.0)
    assert (mqtt.SUBACK, 7) in arrivals
    assert [s for kind, s in arrivals if kind == mqtt.PUBLISH] == [7]


def fields(msgs) -> list:
    return [(m.topic, m.payload, m.qos, m.msgid, m.retained) for m in msgs]


def test_late_subscriber_gets_each_retained_message_with_its_own_bytes():
    # The two retained deliveries of one SUBSCRIBE share qos 0 and msgid 0
    # but differ in topic and payload; each must be encoded for itself.
    net, identity, server = make_world()
    pub = make_client(net, identity, 50001, "pub", seed=31)
    pub.connect_mqtt()
    net.run(until_s=1.0)
    pub.publish("r/a", b"first", retain=True)
    pub.publish("r/b", b"second", retain=True)
    net.run(until_s=1.5)
    got = []
    sub = make_client(net, identity, 50002, "sub", seed=32,
                      on_message=lambda agent, m: got.append(m))
    sub.connect_mqtt()
    net.run(until_s=2.5)
    sub.subscribe("r/#")
    net.run(until_s=3.0)
    assert fields(got) == [("r/a", b"first", 0, 0, True), ("r/b", b"second", 0, 0, True)]


def test_one_publish_reaches_each_subscriber_with_its_own_qos_and_msgid():
    # One QoS 1 publish fans out to subscribers granted QoS 0, 1 and 0: the
    # two QoS 0 copies carry msgid 0, the QoS 1 copy the broker's msgid.
    net, identity, server = make_world()
    got = {}
    subs = []
    for i, qos in enumerate((0, 1, 0)):
        got[f"sub{i}"] = []
        sub = make_client(net, identity, 50010 + i, f"sub{i}", seed=40 + i,
                          on_message=lambda agent, m: got[agent.client_id].append(m))
        sub.connect_mqtt()
        subs.append((sub, qos))
    pub = make_client(net, identity, 50001, "pub", seed=31)
    pub.connect_mqtt()
    net.run(until_s=1.0)
    for sub, qos in subs:
        sub.subscribe("t/x", qos=qos)
    net.run(until_s=1.5)
    pub.publish("t/x", b"m", qos=1)
    net.run(until_s=2.0)
    assert {name: fields(msgs) for name, msgs in got.items()} == {
        "sub0": [("t/x", b"m", 0, 0, False)],
        "sub1": [("t/x", b"m", 1, 1, False)],
        "sub2": [("t/x", b"m", 0, 0, False)],
    }


# ---------------------------------------------------------------------------
# Server loop events and resource reclamation
# ---------------------------------------------------------------------------


def test_disconnect_event_frees_one_connection():
    net, identity, server = make_world()
    a = make_client(net, identity, 50001, "a", seed=21)
    b = make_client(net, identity, 50002, "b", seed=22)
    a.connect_mqtt()
    b.connect_mqtt()
    net.run(until_s=2.0)
    assert server.connection_count() == 2
    state = server.conns[a.conn.cid]
    state.conn.close()
    _pump(net, state.conn)
    net.run(until_s=4.0)
    assert server.connection_count() == 1
    assert b.conn.cid in server.conns


def test_broker_shutdown_closes_every_connection():
    net, identity, server = make_world()
    clients = []
    for i in range(3):
        c = make_client(net, identity, 50001 + i, f"c{i}", seed=40 + i)
        c.connect_mqtt()
        clients.append(c)
    net.run(until_s=2.0)
    assert server.connection_count() == 3
    server.shutdown()
    net.run(until_s=4.0)
    assert server.connection_count() == 0
    assert all(not c.connected for c in clients)


def test_established_idle_pair_stays_under_its_memory_bound():
    # Once settled, neither end keeps its hellos, its ephemeral secrets or
    # the SHLO: about 15.0 KB per client-broker pair, against 20.1 KB when
    # both ends kept them for the connection's whole life.
    net, identity, server = make_world()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        clients = [make_client(net, identity, 10000 + i, f"c{i}", seed=i)
                   for i in range(100)]
        for client in clients:
            client.connect_mqtt()
        net.run(until_s=2.0)
        net.trace.clear()
        gc.collect()
        per_pair = (tracemalloc.get_traced_memory()[0] - before) / len(clients)
    finally:
        tracemalloc.stop()
    assert all(client.connected for client in clients)
    assert per_pair < 17_000


def test_crashed_clients_reclaimed_within_budget():
    net, identity, server = make_world()
    clients = []
    for i in range(10):
        c = make_client(net, identity, 50001 + i, f"c{i}", seed=30 + i)
        c.connect_mqtt()
        clients.append(c)
    net.run(until_s=2.0)
    assert server.connection_count() == 10
    for c in clients:
        c.kill()
    net.run(until_s=2.0 + IDLE_TIMEOUT_S + 1.0)
    assert server.connection_count() == 0


def test_connection_closed_by_disconnect_is_freed_at_once():
    # The broker's idle timer for the connection is cancelled at the close
    # but stays queued until its deadline, 30 s on; it must not keep the
    # connection, its keys and its streams alive until then.
    net, identity, server = make_world(delay_ms=1.0)
    client = make_client(net, identity, 50001, "dev1")
    client.connect_mqtt()
    net.run(until_s=1.0)
    assert client.connected
    (state,) = server.conns.values()
    broker_conn = weakref.ref(state.conn)
    del state
    client.disconnect()
    net.run(until_s=2.0)
    gc.collect()
    assert server.connection_count() == 0
    assert broker_conn() is None


def test_client_connection_closed_while_draining_is_freed_at_once():
    # The client's CLOSE starts its drain and the broker's CLOSE ends it. The
    # cancelled drain timer stays queued until its deadline, 10 s on; it must
    # not keep the client's connection alive until then.
    net, identity, server = make_world(delay_ms=1.0)
    client = make_client(net, identity, 50001, "dev1")
    client.connect_mqtt()
    net.run(until_s=1.0)
    assert client.connected
    client.disconnect()
    net.run(until_s=2.0)
    assert client.conn.phase == connection.CLOSED
    client_conn = weakref.ref(client.conn)
    client.state = None
    gc.collect()
    assert client_conn() is None


def test_failed_handshake_slot_reclaimed_by_the_idle_timeout():
    # The broker's slot for a client that gave up on a REJ signed by another
    # key closes at the idle timeout, with no drain after it.
    net, identity, server = make_world()
    other = ServerIdentity.create(now=0.0, rng=Random(7))
    client = ClientAgent(net, ("10.0.0.9", 50001), BROKER, "dev1",
                         server_pk=other.sign_pair.pk, rng=Random(9))
    client.connect_mqtt()
    net.run(until_s=2.0)
    assert client.failure == "scfg_bad_signature"
    assert server.connection_count() == 1
    net.run(until_s=IDLE_TIMEOUT_S + 1.0)
    assert server.connection_count() == 0


class TapNetwork(SimNetwork):
    """Simulator that also keeps the raw datagram bytes for header audits."""

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.datagrams: list[tuple[bytes, str]] = []

    def send(self, payload, src, dst, annotation=""):
        self.datagrams.append((payload, annotation))
        super().send(payload, src, dst, annotation)


def test_epoch_correctness_across_a_run():
    # Every data payload sealed before key settlement uses ik; every one
    # after uses k.
    net = TapNetwork(SimConfig(delay_ms=0.5), seed=8)
    identity = ServerIdentity.create(now=0.0, rng=Random(42))
    server = ServerAgent(net, BROKER, identity, rng=Random(8))
    client = make_client(net, identity, 50001, "dev1")
    client.connect_mqtt()
    net.run(until_s=2.0)
    client.publish("t", b"post")
    net.run(until_s=3.0)
    shlo_at = next(i for i, (_, a) in enumerate(net.datagrams) if a == "shlo")
    epochs_before, epochs_after = [], []
    for i, (payload, annotation) in enumerate(net.datagrams):
        if not annotation.startswith(("data", "ack", "close")):
            continue
        header = decode_header(payload)
        (epochs_before if i < shlo_at else epochs_after).append(header.epoch)
    assert epochs_before and set(epochs_before) == {EPOCH_IK}
    assert epochs_after and set(epochs_after) == {EPOCH_K}


def test_three_client_packets_to_reach_connected():
    # Inchoate hello, full hello, then the initial-data packet carrying the
    # CONNECT: the client is MQTT-connected after exactly three sends.
    net, identity, server = make_world()
    sent_when_connected = {}

    def on_connected(agent):
        sent_when_connected["count"] = sum(
            1 for ev in net.trace if ev.event == "send" and ev.src[0] == "10.0.0.9")
    client = make_client(net, identity, 50001, "dev1", on_connected=on_connected)
    client.connect_mqtt()
    net.run(until_s=2.0)
    assert sent_when_connected["count"] == 3


def test_persistent_session_survives_client_restart():
    net, identity, server = make_world(state_dir=None)
    got = []
    sub = make_client(net, identity, 50001, "persist-dev", seed=21,
                      persistent=True,
                      on_connected=lambda a: a.subscribe("keep/me", qos=1))
    sub.connect_mqtt()
    net.run(until_s=2.0)
    sub.kill()
    net.run(until_s=3.0)
    # Reconnect under the same client id; no re-SUBSCRIBE is issued.
    sub2 = ClientAgent(net, ("10.0.0.9", 50099), BROKER, "persist-dev",
                       server_pk=identity.sign_pair.pk, rng=Random(31),
                       persistent=True,
                       on_message=lambda a, m: got.append(m.payload))
    seen = record_dispatch(sub2)
    sub2.connect_mqtt()
    net.run(until_s=5.0)
    assert sub2.connected
    assert any(m.kind == mqtt.CONNACK and m.session_present for m in seen)
    pub = make_client(net, identity, 50002, "pub", seed=23)
    pub.connect_mqtt()
    net.run(until_s=7.0)
    pub.publish("keep/me", b"restored")
    net.run(until_s=9.0)
    assert got == [b"restored"]
    # The dead predecessor connection expires around t=42 (idle + drain);
    # steady traffic keeps the live pair up across that point, and the
    # session must stay bound to its new connection throughout.
    def steady():
        if net.clock.now_s < 48.0:
            pub.publish("keep/me", b"tick")
            net.schedule(5.0, steady)
    net.schedule(5.0, steady)
    net.run(until_s=50.0)
    pub.publish("keep/me", b"still-bound")
    net.run(until_s=55.0)
    assert got[-1] == b"still-bound"
    assert b"tick" in got


def test_qos1_at_least_once_under_loss():
    # Every 2nd fresh data packet from the publisher is dropped; transport
    # retransmission delivers every qos-1 publish exactly once.
    net, identity, server = make_world()
    got = []
    sub = make_client(net, identity, 50001, "sub", seed=21,
                      on_connected=lambda a: a.subscribe("q1", qos=1),
                      on_message=lambda a, m: got.append(m))
    pub = make_client(net, identity, 50002, "pub", seed=22)
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=2.0)
    net.add_periodic_drop(
        lambda src, dst, size, ann: (src == ("10.0.0.9", 50002)
                                     and ann.startswith("data")
                                     and "retx" not in ann), 2)
    for i in range(5):
        pub.publish("q1", bytes([i]), qos=1)
        net.run(until_s=net.clock.now_s + 0.05)
    net.run(until_s=net.clock.now_s + 10.0)
    assert sorted(m.payload for m in got) == [bytes([i]) for i in range(5)]
    assert not any(m.dup for m in got)


def test_keepalive_pings_when_enabled():
    # Keep-alive is off by default; with a period set, PINGREQs flow and the
    # broker answers, keeping the connection alive past the idle timeout.
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1", keepalive=1)
    seen = record_dispatch(client)
    client.connect_mqtt()
    net.run(until_s=IDLE_TIMEOUT_S + 5.0)
    assert client.connected
    assert any(m.kind == mqtt.PINGRESP for m in seen)
    assert server.connection_count() == 1


def test_second_connect_is_refused_and_sends_nothing():
    # A spent connection cannot complete again: a reconnect is a new agent.
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1")
    client.connect_mqtt()
    net.run(until_s=2.0)
    client.disconnect()
    net.run(until_s=20.0)
    conn, sent, rng_state = client.conn, len(net.trace), client.rng.getstate()
    with pytest.raises(AgentError) as e:
        client.connect_mqtt()
    assert e.value.stage == "transport"
    assert client.conn is conn
    assert client.rng.getstate() == rng_state  # nothing drawn
    net.run(until_s=25.0)
    assert len(net.trace) == sent  # nothing left the host


def test_publish_before_connect_rejected():
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1")
    with pytest.raises(AgentError) as e:
        client.publish("t", b"m")
    assert e.value.stage == "transport"


@pytest.mark.parametrize("topic,qos", [("", 0), ("a/#/b", 0), ("a+", 0), ("a", 3)])
def test_subscribe_refuses_what_the_broker_would(topic, qos):
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1")
    client.connect_mqtt()
    net.run(until_s=2.0)
    sent = len(net.trace)
    with pytest.raises(AgentError) as e:
        client.subscribe(topic, qos=qos)
    assert e.value.stage == "sanity"
    assert len(net.trace) == sent  # nothing left the host
    seen = record_dispatch(client)
    client.subscribe("a/+/#", qos=2)
    net.run(until_s=3.0)
    assert server.mqtt_errors == 0
    assert [m.granted for m in seen if m.kind == mqtt.SUBACK] == [(1,)]


def test_publish_refuses_a_topic_the_broker_would():
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1")
    client.connect_mqtt()
    net.run(until_s=2.0)
    sent = len(net.trace)
    for topic in ("a/+", "", "#"):
        with pytest.raises(AgentError) as e:
            client.publish(topic, b"m", qos=1)
        assert e.value.stage == "sanity"
    assert len(net.trace) == sent  # nothing left the host
    client.publish("a/b", b"m")
    net.run(until_s=3.0)
    assert server.mqtt_errors == 0


def test_refused_publish_or_subscribe_spends_no_msgid():
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1")
    client.connect_mqtt()
    net.run(until_s=2.0)
    before = client._next_msgid
    refusals = [
        lambda: client.publish("a/b", b"m", qos=2),
        lambda: client.publish("a/+", b"m", qos=1),
        lambda: client.subscribe("a/#/b", qos=1),
        lambda: client.subscribe("a/b", qos=3),
        lambda: client.subscribe("a/b", qos=256),
    ]
    # Stream 0 would stall at its first window and 1 is the handshake's; a
    # frame carries the id in 32 bits.
    for stream_id in (0, 1, 2**32, -1):
        refusals.append(lambda s=stream_id: client.publish("a/b", b"m", qos=1,
                                                           stream_id=s))
        refusals.append(lambda s=stream_id: client.subscribe("a/b", stream_id=s))
    sent = len(net.trace)
    for refused in refusals:
        with pytest.raises(AgentError) as e:
            refused()
        assert e.value.stage == "sanity"
        assert client._next_msgid == before
    assert len(net.trace) == sent  # nothing left the host
    assert client.publish("a/b", b"m", qos=1) == before
    assert client.subscribe("a/b", qos=1) == before + 1


def test_server_survives_datagram_fuzzing():
    # The loop must survive arbitrary garbage: header fragments, valid
    # headers with bogus bodies, random epochs, and truncated seals.
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1")
    client.connect_mqtt()
    net.run(until_s=2.0)
    rng = Random(1234)
    attacker = ("6.6.6.6", 6666)
    net.register(attacker, lambda p, s: None)
    cid = client.conn.cid
    for i in range(300):
        choice = i % 4
        if choice == 0:
            payload = rng.randbytes(rng.randrange(0, 60))
        elif choice == 1:
            payload = bytes([rng.randrange(256)]) + cid.to_bytes(8, "big") + \
                rng.randbytes(rng.randrange(0, 80))
        elif choice == 2:
            from quicmq.wire import PacketHeader, encode_header
            header = encode_header(PacketHeader(cid=cid, sqn=rng.getrandbits(32),
                                                epoch=rng.randrange(4) & 3))
            payload = header + rng.randbytes(rng.randrange(0, 64))
        else:
            payload = rng.randbytes(1400)
        net.send(payload, attacker, BROKER, "fuzz")
        net.run(until_s=net.clock.now_s + 0.002)
    # The legitimate connection still works end to end.
    assert server.connection_count() >= 1
    client.publish("still/up", b"ok")
    net.run(until_s=net.clock.now_s + 1.0)
    assert client.connected


def test_garbage_hellos_leave_no_slot_and_no_timer():
    net, identity, server = make_world()
    attacker = ("6.6.6.6", 6666)
    net.register(attacker, lambda p, s: None)
    for cid in range(1, 201):
        # A cleartext header with an unknown cid, then bytes that do not open.
        header = wire.encode_header(wire.PacketHeader(cid=cid, sqn=1,
                                                      epoch=wire.EPOCH_CLEAR))
        net.send(header + bytes(64), attacker, BROKER, "fuzz")
    net.run(until_s=1.0)
    assert server.connection_count() == 0
    live = [item for _, _, item in net._queue
            if item[0] == "timer" and not item[1].cancelled]
    assert live == []


def test_short_inchoate_hello_from_a_spoofed_address_draws_nothing():
    # An unpadded hello would draw a 1350-byte REJ to whatever address it
    # names, about 19 times what was sent (RFC 9000 §8.1, §14.1). The gate
    # refuses it, and the slot it opened is dropped.
    net, identity, server = make_world()
    victim = ("6.6.6.6", 6666)
    received = []
    net.register(victim, lambda p, s: received.append(p))
    header = wire.PacketHeader(cid=77, sqn=1, epoch=wire.EPOCH_CLEAR)
    body = bytes([wire.MARKER_HANDSHAKE]) + wire.encode_frames(
        [wire.StreamFrame(wire.HANDSHAKE_STREAM_ID, 0, build_inchoate_chlo().encode())])
    hello = wire.seal_packet(header, body, NULL_KEYS, "client")
    assert len(hello) == 68
    net.send(hello, victim, BROKER, "spoofed hello")
    net.run(until_s=1.0)
    assert received == []
    assert server.connection_count() == 0


@pytest.mark.parametrize("reason", ["scfg_bad_signature", "handshake_timeout"])
def test_failed_handshake_closes_the_client(reason):
    # A REJ signed by another key, or no broker at all: either way the
    # client learns the reason through on_closed, as for any other end.
    net, identity, server = make_world()
    server_pk = identity.sign_pair.pk
    if reason == "scfg_bad_signature":
        server_pk = ServerIdentity.create(now=0.0, rng=Random(7)).sign_pair.pk
    else:
        net.unregister(BROKER)
    closed = []
    client = ClientAgent(net, ("10.0.0.9", 50001), BROKER, "dev1", server_pk=server_pk,
                         rng=Random(9), on_closed=lambda a, r: closed.append(r))
    client.connect_mqtt()
    net.run(until_s=10.0)
    assert client.failure == reason
    assert closed == [reason]
    assert client.conn.phase == "closed" and not client.connected


def test_migration_via_set_address():
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1")
    client.connect_mqtt()
    net.run(until_s=2.0)
    client.set_address(("10.0.77.7", 50001))
    client.publish("after/move", b"m")
    net.run(until_s=4.0)
    assert server.migrations == 1
    state = next(iter(server.conns.values()))
    assert state.conn.peer_addr == ("10.0.77.7", 50001)
