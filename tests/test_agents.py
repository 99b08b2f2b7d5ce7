import os
from random import Random

import pytest

from quicmq import mqtt
from quicmq.agents import (
    AgentError,
    ClientAgent,
    ServerAgent,
    SessionStore,
)
from quicmq.connection import TransportConfig
from quicmq.handshake import ServerIdentity
from quicmq.mqtt import Broker, MqttMessage
from quicmq.netsim import SimConfig, SimNetwork
from quicmq.wire import EPOCH_IK, EPOCH_K, decode_header

BROKER = ("10.0.0.1", 4433)


def make_world(seed=3, delay_ms=0.5, state_dir=None, config=None):
    net = SimNetwork(SimConfig(delay_ms=delay_ms), seed=seed)
    identity = ServerIdentity.create(now=0.0, rng=Random(42))
    broker = Broker(state_dir=state_dir)
    server = ServerAgent(net, BROKER, identity, broker=broker,
                         config=config, rng=Random(seed))
    return net, identity, server


def make_client(net, identity, port, client_id, seed=9, **kw):
    return ClientAgent(net, ("10.0.0.9", port), BROKER, client_id,
                       server_pk=identity.sign_pair.pk, rng=Random(seed), **kw)


# ---------------------------------------------------------------------------
# client_connect and the initializer chain
# ---------------------------------------------------------------------------


def test_fresh_client_connects_via_1rtt():
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1")
    assert client.connect_mqtt() == "1rtt"
    net.run(until_s=2.0)
    assert client.connected
    assert client.rx_msg_queue[0].kind == mqtt.CONNACK


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
    store.store("h", 1, identity.scfg, b"t" * 36, created=123.0)
    session = store.load("h", 1)
    assert session.stk == b"t" * 36
    assert session.scfg.scid == identity.scfg.scid
    text = open(store.path_for("h", 1)).read()
    assert "server = h:1" in text and "created = 123" in text


def test_session_store_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("QUICMQ_STATE_DIR", str(tmp_path / "envdir"))
    store = SessionStore()
    assert store.state_dir == str(tmp_path / "envdir")


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


def test_client_rx_queue_is_fifo():
    net, identity, server = make_world()
    sub = make_client(net, identity, 50001, "sub", seed=21,
                      on_connected=lambda a: a.subscribe("q"))
    pub = make_client(net, identity, 50002, "pub", seed=22)
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=2.0)
    for i in range(5):
        pub.publish("q", bytes([i]))
    net.run(until_s=4.0)
    payloads = [m.payload for m in sub.rx_msg_queue if m.kind == mqtt.PUBLISH]
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
    assert any(m.kind == mqtt.SUBACK for m in sub.rx_msg_queue)


def test_invalid_mqtt_payload_keeps_connection():
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1")
    client.connect_mqtt()
    net.run(until_s=2.0)
    client.conn.send_stream(5, b"\x00\xff\xff")  # not a valid MQTT header
    client._pump()
    net.run(until_s=3.0)
    assert server.mqtt_errors == 1
    assert server.connection_count() == 1  # connection survives
    client.publish("still/alive", b"yes")
    net.run(until_s=4.0)
    assert client.connected


def test_qos1_delivery_and_puback():
    net, identity, server = make_world()
    got = []
    sub = make_client(net, identity, 50001, "sub", seed=21,
                      on_connected=lambda a: a.subscribe("q1", qos=1),
                      on_message=lambda a, m: got.append(m))
    pub = make_client(net, identity, 50002, "pub", seed=22)
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=2.0)
    msgid = pub.publish("q1", b"important", qos=1)
    net.run(until_s=4.0)
    assert [m.payload for m in got] == [b"important"]
    assert got[0].qos == 1 and not got[0].dup
    assert msgid not in pub._pending_qos1  # PUBACK retired the retry state


class RecordingBroker(Broker):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.seen: list[MqttMessage] = []

    def handle(self, msg, conn):
        self.seen.append(msg)
        return super().handle(msg, conn)


def test_qos1_retry_carries_dup_flag():
    net = SimNetwork(SimConfig(delay_ms=0.5), seed=8)
    identity = ServerIdentity.create(now=0.0, rng=Random(42))
    broker = RecordingBroker()
    server = ServerAgent(net, BROKER, identity, broker=broker, rng=Random(8))
    client = make_client(net, identity, 50001, "pub", seed=21)
    client.connect_mqtt()
    net.run(until_s=2.0)
    # Suppress the broker's PUBACK by dropping broker->client data packets;
    # the MQTT retry fires with the dup flag set.
    net.add_periodic_drop(
        lambda src, dst, size, ann: src == BROKER and ann.startswith("data"), 1)
    client.publish("q1", b"retry-me", qos=1)
    net.run(until_s=net.clock.now_s + 5.0)
    dups = [m for m in broker.seen if m.kind == mqtt.PUBLISH and m.dup]
    assert dups and dups[0].topic == "q1"


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
    server._pump(state.conn)
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


def test_crashed_clients_reclaimed_within_budget():
    cfg = TransportConfig(idle_timeout_s=3.0, drain_period_s=1.0)
    net, identity, server = make_world(config=cfg)
    clients = []
    for i in range(10):
        c = make_client(net, identity, 50001 + i, f"c{i}", seed=30 + i, config=cfg)
        c.connect_mqtt()
        clients.append(c)
    net.run(until_s=2.0)
    assert server.connection_count() == 10
    for c in clients:
        c.kill()
    net.run(until_s=2.0 + 3.0 + 1.0 + 1.0)
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
        header, _ = decode_header(payload)
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
    sub2.connect_mqtt()
    net.run(until_s=5.0)
    assert sub2.connected
    assert any(m.kind == mqtt.CONNACK and m.session_present
               for m in sub2.rx_msg_queue)
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
    # retransmission still delivers every qos-1 publish, and any MQTT-level
    # duplicates carry the dup flag.
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
    fresh = {m.payload for m in got if not m.dup}
    assert fresh == {bytes([i]) for i in range(5)}
    assert all(m.dup for m in got if got.count(m) > 1 or m.dup)


def test_keepalive_pings_when_enabled():
    # Keep-alive is off by default; with a period set, PINGREQs flow and the
    # broker answers, keeping the connection alive past the idle timeout.
    cfg = TransportConfig(idle_timeout_s=3.0, drain_period_s=1.0)
    net, identity, server = make_world(config=cfg)
    client = make_client(net, identity, 50001, "dev1", keepalive=1, config=cfg)
    client.connect_mqtt()
    net.run(until_s=8.0)
    assert client.connected
    assert any(m.kind == mqtt.PINGRESP for m in client.rx_msg_queue)
    assert server.connection_count() == 1


def test_publish_before_connect_rejected():
    net, identity, server = make_world()
    client = make_client(net, identity, 50001, "dev1")
    with pytest.raises(AgentError) as e:
        client.publish("t", b"m")
    assert e.value.stage == "transport"


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
