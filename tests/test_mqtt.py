import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quicmq import mqtt
from quicmq.mqtt import (
    Broker,
    IncompleteMessage,
    MqttError,
    MqttMessage,
    decode,
    encode,
    topic_matches,
    valid_mqtt_header,
)

topic_names = st.from_regex(r"[a-z0-9]{1,8}(/[a-z0-9]{1,8}){0,3}", fullmatch=True)
client_ids = st.from_regex(r"[a-zA-Z0-9_-]{1,16}", fullmatch=True)


def roundtrip(msg: MqttMessage) -> MqttMessage:
    decoded, consumed = decode(encode(msg))
    assert consumed == len(encode(msg))
    return decoded


def test_publish_roundtrip_simple():
    msg = MqttMessage(mqtt.PUBLISH, topic="a/b", payload=b"hi", qos=0)
    assert roundtrip(msg) == msg


@settings(max_examples=150)
@given(
    topic=topic_names,
    payload=st.binary(max_size=100),
    qos=st.integers(min_value=0, max_value=1),
    dup=st.booleans(),
    retained=st.booleans(),
    msgid=st.integers(min_value=1, max_value=0xFFFF),
)
def test_publish_roundtrip_property(topic, payload, qos, dup, retained, msgid):
    msg = MqttMessage(
        mqtt.PUBLISH, topic=topic, payload=payload, qos=qos,
        dup=dup and qos == 1, retained=retained, msgid=msgid if qos else 0,
    )
    assert roundtrip(msg) == msg


@settings(max_examples=100)
@given(client_id=client_ids, persistent=st.booleans(),
       keepalive=st.integers(min_value=0, max_value=0xFFFF))
def test_connect_roundtrip_property(client_id, persistent, keepalive):
    msg = MqttMessage(mqtt.CONNECT, client_id=client_id, persistent=persistent,
                      keepalive=keepalive)
    assert roundtrip(msg) == msg


@settings(max_examples=100)
@given(
    msgid=st.integers(min_value=1, max_value=0xFFFF),
    topics=st.lists(st.tuples(topic_names, st.integers(min_value=0, max_value=1)),
                    min_size=1, max_size=4),
)
def test_subscribe_suback_roundtrip(msgid, topics):
    sub = MqttMessage(mqtt.SUBSCRIBE, msgid=msgid, topics=tuple(topics))
    assert roundtrip(sub) == sub
    ack = MqttMessage(mqtt.SUBACK, msgid=msgid, granted=tuple(q for _, q in topics))
    assert roundtrip(ack) == ack


def test_simple_kinds_roundtrip():
    for kind in (mqtt.PINGREQ, mqtt.PINGRESP, mqtt.DISCONNECT):
        assert roundtrip(MqttMessage(kind)) == MqttMessage(kind)
    assert roundtrip(MqttMessage(mqtt.PUBACK, msgid=9)) == MqttMessage(mqtt.PUBACK, msgid=9)
    connack = MqttMessage(mqtt.CONNACK, session_present=True, return_code=0)
    assert roundtrip(connack) == connack


def test_connect_empty_client_id_with_persistence_rejected():
    with pytest.raises(MqttError):
        encode(MqttMessage(mqtt.CONNECT, client_id="", persistent=True))
    # Same on the decode side, hand-built.
    body = (
        b"\x00\x04MQTT" + bytes([4, 0x00]) + b"\x00\x00" + b"\x00\x00"
    )
    raw = bytes([mqtt.CONNECT << 4]) + bytes([len(body)]) + body
    with pytest.raises(MqttError):
        decode(raw)


def test_truncated_buffer_is_incomplete_not_crash():
    raw = encode(MqttMessage(mqtt.PUBLISH, topic="t", payload=b"0123456789"))
    with pytest.raises(IncompleteMessage):
        decode(raw[:-4])


def test_qos1_requires_msgid():
    with pytest.raises(MqttError):
        encode(MqttMessage(mqtt.PUBLISH, topic="t", qos=1, msgid=0))


def test_bad_utf8_topic():
    body = b"\x00\x02\xff\xfe" + b"payload"
    raw = bytes([mqtt.PUBLISH << 4]) + bytes([len(body)]) + body
    with pytest.raises(MqttError):
        decode(raw)


def test_bad_publish_qos_refused_before_the_body():
    with pytest.raises(MqttError) as e:
        decode(bytes([(mqtt.PUBLISH << 4) | 0x06]))  # qos 3, nothing more yet
    assert not isinstance(e.value, IncompleteMessage)


def test_valid_mqtt_header_predicate():
    good = encode(MqttMessage(mqtt.PUBLISH, topic="t", payload=b"x"))
    assert valid_mqtt_header(good)
    assert not valid_mqtt_header(b"")
    assert not valid_mqtt_header(b"\x00\x00")  # kind 0 reserved
    assert not valid_mqtt_header(b"\xf0\x00")  # kind 15 reserved
    assert not valid_mqtt_header(bytes([mqtt.SUBSCRIBE << 4]) + b"\x00")  # bad flags


def test_header_valid_but_body_truncated_distinguished():
    # Fuzz corpus: the header predicate passes but the parse stage errors.
    raw = encode(MqttMessage(mqtt.CONNECT, client_id="abc"))
    cut = raw[: len(raw) - 2]
    # Rewrite remaining length so the header is self-consistent but the body
    # is short on string bytes.
    body = raw[2:-2]
    fixed = raw[:1] + bytes([len(body)]) + body
    assert valid_mqtt_header(fixed)
    with pytest.raises(MqttError):
        decode(fixed)


@settings(max_examples=200)
@given(st.binary(max_size=30))
def test_random_bytes_never_crash(data):
    if valid_mqtt_header(data):
        try:
            decode(data)
        except (MqttError, IncompleteMessage):
            pass
    else:
        with pytest.raises((MqttError, IncompleteMessage)):
            decode(data)


# ---------------------------------------------------------------------------
# Topic matching
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "filter_,topic,match",
    [
        ("a/b", "a/b", True),
        ("a/b", "a/c", False),
        ("a/+", "a/b", True),
        ("a/+", "a/b/c", False),
        ("a/#", "a/b/c", True),
        ("#", "anything/at/all", True),
        ("+/b", "a/b", True),
        ("a/+/c", "a/x/c", True),
        ("a/b", "a", False),
        ("a", "a/b", False),
    ],
)
def test_topic_matches(filter_, topic, match):
    assert topic_matches(filter_, topic) is match


# ---------------------------------------------------------------------------
# Broker
# ---------------------------------------------------------------------------


def connect(broker, conn, client_id, persistent=False):
    return broker.handle(MqttMessage(mqtt.CONNECT, client_id=client_id,
                                     persistent=persistent), conn)


def test_broker_basic_fanout():
    b = Broker()
    connect(b, "c1", "sub1")
    connect(b, "c2", "pub1")
    b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=(("t", 0),)), "c1")
    out = b.handle(MqttMessage(mqtt.PUBLISH, topic="t", payload=b"m"), "c2")
    targets = [d.conn for d in out if d.message.kind == mqtt.PUBLISH]
    assert targets == ["c1"]


def test_broker_retained_delivery_to_late_subscriber():
    b = Broker()
    connect(b, "p", "pub")
    b.handle(MqttMessage(mqtt.PUBLISH, topic="t", payload=b"last", retained=True), "p")
    connect(b, "s", "sub")
    out = b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=(("t", 0),)), "s")
    pubs = [d for d in out if d.message.kind == mqtt.PUBLISH]
    assert len(pubs) == 1
    assert pubs[0].message.payload == b"last"
    assert pubs[0].message.retained


def test_broker_persistent_session_restored(tmp_path):
    b = Broker(state_dir=str(tmp_path))
    connect(b, "c1", "dev1", persistent=True)
    b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=(("t/x", 1),)), "c1")
    b.drop_connection("c1")
    # Reconnect on a new connection handle: subscriptions survive.
    out = connect(b, "c2", "dev1", persistent=True)
    assert out[0].message.kind == mqtt.CONNACK
    assert out[0].message.session_present
    connect(b, "p", "pub")
    deliveries = b.handle(MqttMessage(mqtt.PUBLISH, topic="t/x", payload=b"m"), "p")
    assert any(d.conn == "c2" and d.message.kind == mqtt.PUBLISH for d in deliveries)


def test_broker_persistent_session_survives_broker_restart(tmp_path):
    b = Broker(state_dir=str(tmp_path))
    connect(b, "c1", "dev1", persistent=True)
    b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=(("a", 0),)), "c1")
    b2 = Broker(state_dir=str(tmp_path))
    out = connect(b2, "c9", "dev1", persistent=True)
    assert out[0].message.session_present


def test_broker_transient_session_discarded():
    b = Broker()
    connect(b, "c1", "dev1", persistent=False)
    b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=(("t", 0),)), "c1")
    b.drop_connection("c1")
    out = connect(b, "c2", "dev1", persistent=False)
    assert not out[0].message.session_present


def test_broker_disconnect_frees_state():
    b = Broker()
    connect(b, "c1", "dev1")
    assert b.connection_count() == 1
    b.handle(MqttMessage(mqtt.DISCONNECT), "c1")
    assert b.connection_count() == 0


def test_broker_qos_downgrade_and_msgid():
    b = Broker()
    connect(b, "s", "sub")
    connect(b, "p", "pub")
    b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=(("t", 1),)), "s")
    out = b.handle(MqttMessage(mqtt.PUBLISH, topic="t", payload=b"m", qos=1, msgid=5), "p")
    puback = [d for d in out if d.message.kind == mqtt.PUBACK]
    assert puback and puback[0].conn == "p" and puback[0].message.msgid == 5
    pubs = [d for d in out if d.message.kind == mqtt.PUBLISH]
    assert pubs[0].message.qos == 1 and pubs[0].message.msgid != 0


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["sub", "unsub", "pub"]),
              st.integers(min_value=0, max_value=3),
              topic_names),
    min_size=1, max_size=30,
))
def test_broker_fanout_exactness_property(ops):
    """Delivery set equals the exact subscriber set at publish time."""
    b = Broker()
    clients = [f"conn{i}" for i in range(4)]
    for i, c in enumerate(clients):
        connect(b, c, f"client{i}")
    subs: dict[str, set[str]] = {c: set() for c in clients}
    msgid = 1
    for op, who, topic in ops:
        conn = clients[who]
        if op == "sub":
            b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=msgid, topics=((topic, 0),)), conn)
            subs[conn].add(topic)
            msgid += 1
        elif op == "unsub":
            b.handle(MqttMessage(mqtt.UNSUBSCRIBE, msgid=msgid, topics=((topic, 0),)), conn)
            subs[conn].discard(topic)
            msgid += 1
        else:
            out = b.handle(MqttMessage(mqtt.PUBLISH, topic=topic, payload=b"x"), conn)
            delivered = [d.conn for d in out if d.message.kind == mqtt.PUBLISH]
            expected = [c for c in clients
                        if any(topic_matches(f, topic) for f in subs[c])]
            assert sorted(delivered) == sorted(expected)
            assert len(delivered) == len(set(delivered))  # no duplicates


def test_broker_message_before_connect_rejected():
    b = Broker()
    with pytest.raises(MqttError):
        b.handle(MqttMessage(mqtt.PUBLISH, topic="t", payload=b"m"), "ghost")
