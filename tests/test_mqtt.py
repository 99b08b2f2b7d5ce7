import itertools
from dataclasses import replace

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


@pytest.mark.parametrize("filter_", [
    "#", "+", "a/#", "a/+/b", "+/+", "/", "a//b", "/#", "+/#", "sport/tennis/+",
])
def test_valid_filters_roundtrip(filter_):
    sub = MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=((filter_, 1),))
    assert roundtrip(sub) == sub
    unsub = MqttMessage(mqtt.UNSUBSCRIBE, msgid=2, topics=((filter_, 0),))
    assert roundtrip(unsub) == unsub


@pytest.mark.parametrize("kind,topics", [
    (mqtt.SUBSCRIBE, (("", 0),)),  # empty filter, §4.7.3
    (mqtt.SUBSCRIBE, (("a/#/b", 0),)),  # '#' not last, §4.7.1.2
    (mqtt.SUBSCRIBE, (("#/a", 0),)),
    (mqtt.SUBSCRIBE, (("a#", 0),)),  # '#' sharing a level
    (mqtt.SUBSCRIBE, (("a/b#", 0),)),
    (mqtt.SUBSCRIBE, (("a+", 0),)),  # '+' sharing a level, §4.7.1.3
    (mqtt.SUBSCRIBE, (("a/+b/c", 0),)),
    (mqtt.SUBSCRIBE, (("++", 0),)),
    (mqtt.SUBSCRIBE, (("a", 3),)),  # requested qos above 2, §3.8.3.1
    (mqtt.SUBSCRIBE, (("a", 0), ("b", 0x80))),
    (mqtt.SUBSCRIBE, (("ok", 0), ("a/#/b", 1))),  # one bad filter spoils the packet
    (mqtt.UNSUBSCRIBE, (("a/#/b", 0),)),
    (mqtt.UNSUBSCRIBE, (("", 0),)),
    (mqtt.UNSUBSCRIBE, ()),  # no filter, §3.10.3
])
def test_malformed_subscribe_and_unsubscribe_refused(kind, topics):
    raw = encode(MqttMessage(kind, msgid=1, topics=topics))
    with pytest.raises(MqttError) as e:
        decode(raw)
    assert not isinstance(e.value, IncompleteMessage)


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


@pytest.mark.parametrize("level, connect_flags", [(3, 0x02), (5, 0x02), (4, 0x03)],
                         ids=["level-3", "level-5", "reserved-bit"])
def test_connect_with_another_level_or_the_reserved_flag_is_refused(level, connect_flags):
    # MQTT 3.1.1 §3.1.2.2 and §3.1.2.3.
    body = b"\x00\x04MQTT" + bytes([level, connect_flags]) + b"\x00\x00" + b"\x00\x01c"
    raw = bytes([mqtt.CONNECT << 4, len(body)]) + body
    with pytest.raises(MqttError) as e:
        decode(raw)
    assert not isinstance(e.value, IncompleteMessage)
    ok = raw[:8] + bytes([mqtt.PROTOCOL_LEVEL, 0x02]) + raw[10:]
    assert decode(ok)[0] == MqttMessage(mqtt.CONNECT, client_id="c")


def test_truncated_buffer_is_incomplete_not_crash():
    raw = encode(MqttMessage(mqtt.PUBLISH, topic="t", payload=b"0123456789"))
    with pytest.raises(IncompleteMessage):
        decode(raw[:-4])


def test_qos1_requires_msgid():
    with pytest.raises(MqttError):
        encode(MqttMessage(mqtt.PUBLISH, topic="t", qos=1, msgid=0))


@pytest.mark.parametrize("kind", [mqtt.SUBSCRIBE, mqtt.UNSUBSCRIBE],
                         ids=["subscribe", "unsubscribe"])
def test_zero_packet_id_refused(kind):
    # MQTT 3.1.1 §2.3.1: SUBSCRIBE and UNSUBSCRIBE carry a nonzero packet id,
    # both when encoded and when decoded.
    msg = MqttMessage(kind, msgid=0, topics=(("a/b", 0),))
    with pytest.raises(MqttError):
        encode(msg)
    raw = bytearray(encode(MqttMessage(kind, msgid=1, topics=(("a/b", 0),))))
    raw[3] = 0  # the packet id's low byte, after the 1-byte remaining length
    with pytest.raises(MqttError) as e:
        decode(bytes(raw))
    assert not isinstance(e.value, IncompleteMessage)


def test_bad_utf8_topic():
    body = b"\x00\x02\xff\xfe" + b"payload"
    raw = bytes([mqtt.PUBLISH << 4]) + bytes([len(body)]) + body
    with pytest.raises(MqttError):
        decode(raw)


def test_bad_publish_qos_refused_before_the_body():
    with pytest.raises(MqttError) as e:
        decode(bytes([(mqtt.PUBLISH << 4) | 0x06]))  # qos 3, nothing more yet
    assert not isinstance(e.value, IncompleteMessage)


def test_malformed_fixed_header_refused():
    for raw in (
        b"\x00\x00",  # kind 0 reserved
        b"\xf0\x00",  # kind 15 reserved
        bytes([mqtt.SUBSCRIBE << 4]) + b"\x00",  # SUBSCRIBE flags must be 0b0010
        bytes([mqtt.UNSUBSCRIBE << 4 | 0x0A]) + b"\x00",
        bytes([mqtt.PINGREQ << 4 | 0x01]) + b"\x00",  # flags on a flagless kind
        bytes([mqtt.PUBACK << 4]) + b"\xff\xff\xff\xff\x01",  # 5-byte length
    ):
        with pytest.raises(MqttError) as e:
            decode(raw)
        assert not isinstance(e.value, IncompleteMessage), raw
    with pytest.raises(IncompleteMessage):
        decode(b"")


@pytest.mark.parametrize("topic", ["", "a/+", "+", "a/#", "#", "a+b"])
def test_invalid_publish_topic_refused(topic):
    with pytest.raises(MqttError):
        mqtt.check_publish_topic(topic)
    with pytest.raises(MqttError) as e:
        decode(encode(MqttMessage(mqtt.PUBLISH, topic=topic, payload=b"x")))
    assert not isinstance(e.value, IncompleteMessage)


def test_header_valid_but_body_truncated_distinguished():
    # Fuzz corpus: the fixed header is well formed but the body parse errors.
    raw = encode(MqttMessage(mqtt.CONNECT, client_id="abc"))
    # Rewrite remaining length so the header is self-consistent but the body
    # is short on string bytes.
    body = raw[2:-2]
    fixed = raw[:1] + bytes([len(body)]) + body
    with pytest.raises(MqttError) as e:
        decode(fixed)
    assert not isinstance(e.value, IncompleteMessage)


@settings(max_examples=200)
@given(st.binary(max_size=30))
def test_random_bytes_never_crash(data):
    try:
        decode(data)
    except MqttError:  # IncompleteMessage included
        pass


# -- reference decoder --------------------------------------------------------
# The decoder as it was before it read a PUBLISH in place, kept as an oracle:
# every body was sliced once and a PUBLISH payload sliced again from it.


def _reference_decode_string(data: bytes, pos: int) -> tuple[str, int]:
    if len(data) - pos < 2:
        raise MqttError("truncated string length")
    n = int.from_bytes(data[pos:pos + 2], "big")
    pos += 2
    if len(data) - pos < n:
        raise MqttError("truncated string")
    try:
        s = data[pos:pos + n].decode("utf-8")
    except UnicodeDecodeError as e:
        raise MqttError(f"invalid UTF-8: {e}") from None
    return s, pos + n


def reference_decode(data: bytes) -> tuple[MqttMessage, int]:
    if not data:
        raise IncompleteMessage("empty buffer")
    first = data[0]
    kind = first >> 4
    flags = first & 0x0F
    if kind not in mqtt.KIND_NAMES:
        raise MqttError(f"unknown message kind {kind}")
    if kind in (mqtt.SUBSCRIBE, mqtt.UNSUBSCRIBE):
        if flags != 0x02:
            raise MqttError("bad fixed-header flags")
    elif kind != mqtt.PUBLISH and flags != 0:
        raise MqttError("bad fixed-header flags")
    qos = (flags >> 1) & 0x03
    if kind == mqtt.PUBLISH and qos > 1:
        raise MqttError(f"unsupported qos {qos}")
    remaining, pos = mqtt._decode_remaining_length(data, 1)
    if len(data) - pos < remaining:
        raise IncompleteMessage(f"need {remaining} body bytes, have {len(data) - pos}")
    body = data[pos:pos + remaining]
    end = pos + remaining

    if kind == mqtt.CONNECT:
        name, p = _reference_decode_string(body, 0)
        if name != "MQTT":
            raise MqttError(f"bad protocol name {name!r}")
        if len(body) - p < 4:
            raise MqttError("truncated CONNECT")
        if body[p] != mqtt.PROTOCOL_LEVEL:
            raise MqttError(f"unsupported protocol level {body[p]}")
        connect_flags = body[p + 1]
        if connect_flags & 0x01:
            raise MqttError("reserved CONNECT flag set")
        keepalive = int.from_bytes(body[p + 2:p + 4], "big")
        p += 4
        client_id, p = _reference_decode_string(body, p)
        persistent = not (connect_flags & 0x02)
        if persistent and not client_id:
            raise MqttError("persistent session requires a client id")
        return MqttMessage(
            mqtt.CONNECT, client_id=client_id, persistent=persistent,
            keepalive=keepalive,
        ), end
    if kind == mqtt.CONNACK:
        if len(body) != 2:
            raise MqttError("bad CONNACK length")
        return MqttMessage(mqtt.CONNACK, session_present=bool(body[0] & 1),
                           return_code=body[1]), end
    if kind == mqtt.PUBLISH:
        topic, p = _reference_decode_string(body, 0)
        mqtt.check_publish_topic(topic)
        msgid = 0
        if qos > 0:
            if len(body) - p < 2:
                raise MqttError("truncated msgid")
            msgid = int.from_bytes(body[p:p + 2], "big")
            if msgid == 0:
                raise MqttError("qos 1 publish with zero msgid")
            p += 2
        return MqttMessage(mqtt.PUBLISH, msgid, bool(flags & 0x08), bool(flags & 0x01), qos,
                           topic, body[p:]), end
    if kind in (mqtt.PUBACK, mqtt.UNSUBACK):
        if len(body) != 2:
            raise MqttError("bad ack length")
        return MqttMessage(kind, msgid=int.from_bytes(body, "big")), end
    if kind == mqtt.SUBSCRIBE:
        if len(body) < 2:
            raise MqttError("truncated SUBSCRIBE")
        msgid = int.from_bytes(body[:2], "big")
        if msgid == 0:
            raise MqttError("subscribe with zero msgid")
        topics = []
        p = 2
        while p < len(body):
            topic, p = _reference_decode_string(body, p)
            mqtt.check_filter(topic)
            if p > len(body) - 1:
                raise MqttError("missing requested qos")
            if body[p] > 2:
                raise MqttError(f"bad requested qos {body[p]}")
            topics.append((topic, body[p]))
            p += 1
        if not topics:
            raise MqttError("SUBSCRIBE without topics")
        return MqttMessage(mqtt.SUBSCRIBE, msgid=msgid, topics=tuple(topics)), end
    if kind == mqtt.SUBACK:
        if len(body) < 3:
            raise MqttError("truncated SUBACK")
        return MqttMessage(mqtt.SUBACK, msgid=int.from_bytes(body[:2], "big"),
                           granted=tuple(body[2:])), end
    if kind == mqtt.UNSUBSCRIBE:
        if len(body) < 2:
            raise MqttError("truncated UNSUBSCRIBE")
        msgid = int.from_bytes(body[:2], "big")
        if msgid == 0:
            raise MqttError("unsubscribe with zero msgid")
        topics = []
        p = 2
        while p < len(body):
            topic, p = _reference_decode_string(body, p)
            mqtt.check_filter(topic)
            topics.append((topic, 0))
        if not topics:
            raise MqttError("UNSUBSCRIBE without topics")
        return MqttMessage(mqtt.UNSUBSCRIBE, msgid=msgid, topics=tuple(topics)), end
    if kind in (mqtt.PINGREQ, mqtt.PINGRESP, mqtt.DISCONNECT):
        if body:
            raise MqttError("unexpected payload")
        return MqttMessage(kind), end
    raise MqttError(f"unknown message kind {kind}")


# -- reference encoder --------------------------------------------------------
# The encoder as it was before it built a PUBLISH's topic string and short
# remaining length inline, kept as an oracle: every kind went through the
# string and remaining-length helpers.


def _reference_encode_string(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise MqttError("string too long")
    return len(raw).to_bytes(2, "big") + raw


def reference_encode(msg: MqttMessage) -> bytes:
    kind = msg.kind
    flags = 0
    body = b""
    if kind == mqtt.CONNECT:
        if msg.persistent and not msg.client_id:
            raise MqttError("persistent session requires a client id")
        connect_flags = 0x00 if msg.persistent else 0x02
        body = (
            _reference_encode_string("MQTT")
            + bytes([mqtt.PROTOCOL_LEVEL, connect_flags])
            + msg.keepalive.to_bytes(2, "big")
            + _reference_encode_string(msg.client_id)
        )
    elif kind == mqtt.CONNACK:
        body = bytes([1 if msg.session_present else 0, msg.return_code])
    elif kind == mqtt.PUBLISH:
        if msg.qos not in (0, 1):
            raise MqttError(f"unsupported qos {msg.qos}")
        if msg.qos == 1 and msg.msgid == 0:
            raise MqttError("qos 1 publish requires a nonzero msgid")
        flags = (0x08 if msg.dup else 0) | (msg.qos << 1) | (0x01 if msg.retained else 0)
        body = _reference_encode_string(msg.topic)
        if msg.qos > 0:
            body += msg.msgid.to_bytes(2, "big")
        body += msg.payload
    elif kind in (mqtt.PUBACK, mqtt.UNSUBACK):
        body = msg.msgid.to_bytes(2, "big")
    elif kind == mqtt.SUBSCRIBE:
        if msg.msgid == 0:
            raise MqttError("subscribe requires a nonzero msgid")
        flags = 0x02
        body = msg.msgid.to_bytes(2, "big")
        for topic, qos in msg.topics:
            body += _reference_encode_string(topic) + bytes([qos])
    elif kind == mqtt.SUBACK:
        body = msg.msgid.to_bytes(2, "big") + bytes(msg.granted)
    elif kind == mqtt.UNSUBSCRIBE:
        if msg.msgid == 0:
            raise MqttError("unsubscribe requires a nonzero msgid")
        flags = 0x02
        body = msg.msgid.to_bytes(2, "big")
        for topic, _ in msg.topics:
            body += _reference_encode_string(topic)
    elif kind in (mqtt.PINGREQ, mqtt.PINGRESP, mqtt.DISCONNECT):
        body = b""
    else:
        raise MqttError(f"unknown message kind {kind}")
    return bytes([(kind << 4) | flags]) + mqtt._encode_remaining_length(len(body)) + body


def outcome(decoder, data: bytes):
    """What ``decoder`` makes of ``data``: the message, its type and the
    bytes consumed, or the exception's type and text."""
    try:
        msg, consumed = decoder(data)
    except MqttError as e:
        return type(e), str(e)
    return msg, type(msg.payload), consumed


any_topics = st.text(max_size=6)  # wildcards, empty and non-ASCII included
filters = st.lists(st.tuples(st.one_of(topic_names, any_topics),
                             st.integers(min_value=0, max_value=2)), max_size=3)
messages = st.one_of(
    st.builds(lambda c, p, k: MqttMessage(mqtt.CONNECT, client_id=c, persistent=p,
                                          keepalive=k),
              client_ids, st.booleans(), st.integers(min_value=0, max_value=0xFFFF)),
    st.builds(lambda s, r: MqttMessage(mqtt.CONNACK, session_present=s, return_code=r),
              st.booleans(), st.integers(min_value=0, max_value=5)),
    st.builds(lambda t, p, q, d, r, m: MqttMessage(mqtt.PUBLISH, msgid=m * q, dup=d,
                                                   retained=r, qos=q, topic=t, payload=p),
              st.one_of(topic_names, any_topics), st.binary(max_size=300),
              st.integers(min_value=0, max_value=1), st.booleans(), st.booleans(),
              st.integers(min_value=1, max_value=0xFFFF)),
    st.builds(lambda k, m: MqttMessage(k, msgid=m), st.sampled_from([mqtt.PUBACK, mqtt.UNSUBACK]),
              st.integers(min_value=0, max_value=0xFFFF)),
    st.builds(lambda k, m, t: MqttMessage(k, msgid=m, topics=tuple(t)),
              st.sampled_from([mqtt.SUBSCRIBE, mqtt.UNSUBSCRIBE]),
              st.integers(min_value=1, max_value=0xFFFF), filters),
    st.builds(lambda m, g: MqttMessage(mqtt.SUBACK, msgid=m, granted=tuple(g)),
              st.integers(min_value=0, max_value=0xFFFF),
              st.lists(st.sampled_from([0, 1, 2, 0x80]), max_size=4)),
    st.sampled_from([MqttMessage(k) for k in (mqtt.PINGREQ, mqtt.PINGRESP, mqtt.DISCONNECT)]),
)


@settings(max_examples=300)
@given(msg=messages, tail=st.binary(max_size=4), flip=st.tuples(st.integers(0, 2**16),
                                                                st.integers(0, 255)))
def test_decode_matches_the_reference_decoder(msg, tail, flip):
    # Every encoding followed by more bytes, each of its truncations, each
    # framing of a shorter body with the rest behind it, and one copy with a
    # byte replaced decode the same way as by the reference: the same
    # message and length, or the same error.
    data = encode(msg) + tail
    remaining, pos = mqtt._decode_remaining_length(data, 1)
    samples = [data[:n] for n in range(len(data) + 1)]
    samples += [data[:1] + mqtt._encode_remaining_length(n) + data[pos:]
                for n in range(remaining)]
    at, value = flip
    altered = bytearray(data)
    altered[at % len(data)] = value
    for sample in samples + [bytes(altered)]:
        assert outcome(decode, sample) == outcome(reference_decode, sample)


@settings(max_examples=300)
@given(st.binary(max_size=40))
def test_decode_matches_the_reference_decoder_on_random_bytes(data):
    assert outcome(decode, data) == outcome(reference_decode, data)


def encode_outcome(encoder, msg: MqttMessage):
    """The bytes ``encoder`` makes of ``msg``, or the error's type and text."""
    try:
        return encoder(msg)
    except (MqttError, OverflowError) as e:
        return type(e), str(e)


@settings(max_examples=300)
@given(msg=messages, qos=st.integers(min_value=0, max_value=2),
       msgid=st.integers(min_value=0, max_value=0xFFFF))
def test_encode_matches_the_reference_encoder(msg, qos, msgid):
    # Payloads of 0-300 B put a PUBLISH's remaining length on both sides of
    # 127/128, and the topics include non-ASCII text. The copy with another
    # qos and msgid reaches the refusals (qos 2, qos 1 with msgid 0).
    assert encode(msg) == reference_encode(msg)
    other = replace(msg, qos=qos, msgid=msgid)
    assert encode_outcome(encode, other) == encode_outcome(reference_encode, other)


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
        ("a/#", "a", True),
        ("a/+", "a/", True),
        ("a//b", "a//b", True),
        ("#", "/", True),
        ("a/#/b", "a/#/b", False),
        ("#/a", "x/a", False),
        ("+", "a/b", False),
    ],
)
def test_topic_matches(filter_, topic, match):
    assert topic_matches(filter_, topic) is match
    # The broker's subscription tree agrees, for a filter decode would refuse too.
    b = Broker()
    connect(b, "s", "sub")
    b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=((filter_, 0),)), "s")
    out = b.handle(MqttMessage(mqtt.PUBLISH, topic=topic, payload=b"m"), "s")
    assert [d.conn for d in out] == (["s"] if match else [])


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
    connect(b2, "p", "pub")
    deliveries = b2.handle(MqttMessage(mqtt.PUBLISH, topic="a", payload=b"m"), "p")
    assert [d.conn for d in deliveries] == ["c9"]


@pytest.mark.parametrize("client_id", ["d" * 300, "dev\x001"], ids=["long", "nul"])
def test_broker_persists_any_client_id(tmp_path, client_id):
    # Neither a name too long for the file system nor a NUL may escape
    # handle(); the session is stored and survives a restart.
    b = Broker(state_dir=str(tmp_path))
    connect(b, "c1", client_id, persistent=True)
    b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=(("a", 0),)), "c1")
    b2 = Broker(state_dir=str(tmp_path))
    out = connect(b2, "c9", client_id, persistent=True)
    assert out[0].message.session_present


def test_broker_session_files_of_similar_ids_stay_apart(tmp_path):
    b = Broker(state_dir=str(tmp_path))
    connect(b, "c1", "a_b", persistent=True)
    b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=(("secret/#", 0),)), "c1")
    b2 = Broker(state_dir=str(tmp_path))
    out = connect(b2, "c2", "a/b", persistent=True)
    assert not out[0].message.session_present
    connect(b2, "p", "pub")
    deliveries = b2.handle(MqttMessage(mqtt.PUBLISH, topic="secret/x", payload=b"m"), "p")
    assert deliveries == []


@pytest.mark.parametrize("damage", ["torn", "not_utf8", "other_id", "bad_filter"])
def test_broker_reads_a_damaged_session_file_as_none(tmp_path, damage):
    b = Broker(state_dir=str(tmp_path))
    connect(b, "c1", "dev1", persistent=True)
    b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=(("a", 0),)), "c1")
    (path,) = (tmp_path / "clients").iterdir()
    text = path.read_text()
    path.write_bytes({
        "torn": text[:len(text) // 2].encode(),
        "not_utf8": b"\xff\xfe" + text.encode(),
        "other_id": text.replace('"dev1"', '"dev2"').encode(),
        "bad_filter": text.replace('"a"', '"a/#/b"').encode(),
    }[damage])
    b2 = Broker(state_dir=str(tmp_path))
    out = connect(b2, "c9", "dev1", persistent=True)
    assert not out[0].message.session_present
    # The damaged file is replaced by a good one on the next store.
    b2.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=(("b", 0),)), "c9")
    out = connect(Broker(state_dir=str(tmp_path)), "c10", "dev1", persistent=True)
    assert out[0].message.session_present


def test_broker_answers_when_a_session_write_fails(tmp_path):
    b = Broker(state_dir=str(tmp_path))
    (tmp_path / "clients").rmdir()  # every session write now fails
    out = connect(b, "c1", "dev1", persistent=True)
    assert [d.message.kind for d in out] == [mqtt.CONNACK]
    out = b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=(("a", 0), ("b", 0))), "c1")
    assert [d.message.kind for d in out] == [mqtt.SUBACK]
    out = b.handle(MqttMessage(mqtt.UNSUBSCRIBE, msgid=2, topics=(("b", 0),)), "c1")
    assert [d.message.kind for d in out] == [mqtt.UNSUBACK]
    assert b.store_failures == 3
    # The session lives on in memory.
    connect(b, "p", "pub")
    out = b.handle(MqttMessage(mqtt.PUBLISH, topic="a", payload=b"m"), "p")
    assert [(d.conn, d.message.topic) for d in out] == [("c1", "a")]
    assert b.sessions["dev1"].subscriptions == {"a": 0}


def test_broker_transient_session_discarded():
    b = Broker()
    connect(b, "c1", "dev1", persistent=False)
    b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=(("t", 0),)), "c1")
    b.drop_connection("c1")
    out = connect(b, "c2", "dev1", persistent=False)
    assert not out[0].message.session_present


def test_broker_drops_transient_sessions_by_equal_handles():
    b = Broker()
    connect(b, "p", "pub")
    handles = [f"conn{i}" for i in range(3)]
    for i, conn in enumerate(handles):
        connect(b, conn, f"dev{i}")
        b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=((f"dev/{i}", 0),)), conn)
    for i, conn in enumerate(handles):
        rebuilt = f"conn{i}"
        assert rebuilt == conn and rebuilt is not conn
        b.drop_connection(rebuilt)
    assert set(b.sessions) == {"pub"}
    assert list(b._by_conn) == ["p"]
    assert not b._tree.children and not b._tree.subscribers
    for i in range(3):
        out = b.handle(MqttMessage(mqtt.PUBLISH, topic=f"dev/{i}", payload=b"m"), "p")
        assert out == []


def test_broker_disconnect_frees_state():
    b = Broker()
    connect(b, "c1", "dev1")
    assert len(b._by_conn) == 1
    b.handle(MqttMessage(mqtt.DISCONNECT), "c1")
    assert len(b._by_conn) == 0


@pytest.mark.parametrize("persistent", [False, True])
def test_broker_session_taken_over_no_longer_answers_to_the_old_connection(persistent):
    # MQTT 3.1.1 §3.1.4-2: a CONNECT with a client id already connected
    # takes the session over; the old connection no longer speaks for it.
    b = Broker()
    connect(b, "p", "pub")
    connect(b, "A", "dev", persistent=persistent)
    connect(b, "B", "dev", persistent=persistent)
    with pytest.raises(MqttError, match="before CONNECT"):
        b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=(("x", 0),)), "A")
    assert b.sessions["dev"].subscriptions == {}
    assert b.handle(MqttMessage(mqtt.PUBLISH, topic="x", payload=b"m"), "p") == []
    with pytest.raises(MqttError, match="before CONNECT"):
        b.handle(MqttMessage(mqtt.DISCONNECT), "A")
    b.drop_connection("A")
    assert b.sessions["dev"].conn == "B"
    b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=2, topics=(("x", 0),)), "B")
    out = b.handle(MqttMessage(mqtt.PUBLISH, topic="x", payload=b"m"), "p")
    assert [d.conn for d in out] == ["B"]
    assert b._by_conn == {"p": "pub", "B": "dev"}


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



@settings(max_examples=150, deadline=None)
@given(
    topic=topic_names,
    payload=st.binary(max_size=64),
    qos=st.integers(min_value=0, max_value=1),
    dup=st.booleans(),
    retained=st.booleans(),
    msgid=st.integers(min_value=1, max_value=0xFFFF),
    sub_qos=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=4),
)
def test_delivered_publish_is_the_decoded_one_with_fresh_flags(
        topic, payload, qos, dup, retained, msgid, sub_qos):
    """Each delivered PUBLISH equals the decoded one with the retained and
    dup flags cleared, the lower of the two qos levels, and a fresh msgid
    under QoS 1 only; every other field stays at its default."""
    b = Broker()
    connect(b, "p", "pub")
    for i, q in enumerate(sub_qos):
        connect(b, f"s{i}", f"sub{i}")
        b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=((topic, q),)), f"s{i}")
    msg, _ = decode(encode(MqttMessage(
        mqtt.PUBLISH, topic=topic, payload=payload, qos=qos, dup=dup,
        retained=retained, msgid=msgid if qos else 0)))
    out = b.handle(msg, "p")
    expected = []
    next_msgid = 1  # a new broker's first fresh msgid
    for i, q in enumerate(sub_qos):  # client ids sub0..sub3 sort in this order
        eff_qos = min(qos, q)
        fresh = next_msgid if eff_qos else 0
        next_msgid += 1 if eff_qos else 0
        expected.append((f"s{i}", replace(msg, retained=False, dup=False,
                                           qos=eff_qos, msgid=fresh)))
    assert [(d.conn, d.message) for d in out if d.message.kind == mqtt.PUBLISH] == expected

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


# ---------------------------------------------------------------------------
# Routing through the subscription tree
# ---------------------------------------------------------------------------


def scan_deliveries(broker, topic, qos, next_msgid):
    """The routing the tree replaced: every session in client-id order, each
    filter through ``topic_matches``. Returns (conn, qos, msgid) per PUBLISH."""
    out = []
    for client_id in sorted(broker.sessions):
        session = broker.sessions[client_id]
        if session.conn is None:
            continue
        best = None
        for filter_, sub_qos in session.subscriptions.items():
            if topic_matches(filter_, topic):
                best = sub_qos if best is None else max(best, sub_qos)
        if best is None:
            continue
        eff_qos = min(qos, best)
        msgid = 0
        if eff_qos:
            msgid, next_msgid = next_msgid, next_msgid % 0xFFFF + 1
        out.append((session.conn, eff_qos, msgid))
    return out


def tree_entries(broker):
    """Every (client id, filter, qos) the broker's subscription tree holds."""
    found = set()
    stack = [((), broker._tree)]
    while stack:
        path, node = stack.pop()
        found.update((cid, "/".join(path), q) for cid, q in node.subscribers.items())
        assert node.subscribers or node.children or not path  # no empty leftovers
        stack.extend((path + (level,), child) for level, child in node.children.items())
    return found


# Levels that include the wildcards, empty levels and '#' anywhere: decode
# refuses such filters, so they reach the broker through handle directly.
LEVELS = ["a", "b", "", "+", "#"]
levels = st.sampled_from(LEVELS)
raw_filters = st.lists(levels, min_size=1, max_size=3).map("/".join)
raw_topics = st.lists(levels, min_size=1, max_size=4).map("/".join)
# Every topic of up to three of those levels, published after the ops.
SWEEP = ["/".join(p) for n in (1, 2, 3) for p in itertools.product(LEVELS, repeat=n)]
who = st.integers(min_value=0, max_value=3)
routing_ops = st.one_of(
    st.tuples(st.just("sub"), who, raw_filters, st.integers(min_value=0, max_value=2)),
    st.tuples(st.just("unsub"), who, raw_filters),
    st.tuples(st.just("pub"), who, raw_topics, st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("reconnect"), who, st.booleans()),  # persistent or transient
    st.tuples(st.just("drop"), who, st.booleans()),  # latest or previous connection
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(raw_filters, st.integers(min_value=0, max_value=2)),
                         min_size=1, max_size=4), min_size=4, max_size=4),
       st.lists(routing_ops, max_size=40))
def test_broker_routing_matches_the_session_scan(initial, ops):
    """Each PUBLISH gets exactly the deliveries, in order and with the
    msgids, that scanning every session's filters would give, through
    subscriptions, reconnects under the same client id and drops; the tree
    holds exactly the live sessions' subscriptions. After the ops, every
    topic of up to three levels is published once more."""
    b = Broker()
    conns = {i: [f"conn{i}.0"] for i in range(4)}
    online = set(range(4))
    for i in range(4):
        connect(b, conns[i][-1], f"client{i}")
        b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1, topics=tuple(initial[i])), conns[i][-1])
    msgid = 2
    for op, i, *args in ops:
        conn = conns[i][-1]
        if op == "reconnect":
            conns[i].append(f"conn{i}.{len(conns[i])}")
            connect(b, conns[i][-1], f"client{i}", persistent=args[0])
            online.add(i)
        elif op == "drop":
            latest = args[0]
            if latest or len(conns[i]) == 1:
                b.drop_connection(conn)
                online.discard(i)
            else:
                b.drop_connection(conns[i][-2])
        elif i not in online:
            continue
        elif op == "sub":
            b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=msgid, topics=((args[0], args[1]),)),
                     conn)
            msgid += 1
        elif op == "unsub":
            b.handle(MqttMessage(mqtt.UNSUBSCRIBE, msgid=msgid, topics=((args[0], 0),)), conn)
            msgid += 1
        else:
            check_publish(b, conn, *args)
        assert tree_entries(b) == {(cid, f, q) for cid, s in b.sessions.items()
                                   for f, q in s.subscriptions.items()}
    if online:
        conn = conns[min(online)][-1]
        for topic in SWEEP:
            check_publish(b, conn, topic, 1)


def check_publish(broker, conn, topic, qos):
    expected = scan_deliveries(broker, topic, qos, broker._next_msgid)
    out = broker.handle(MqttMessage(mqtt.PUBLISH, topic=topic, payload=b"x", qos=qos,
                                    msgid=9 if qos else 0), conn)
    got = [(d.conn, d.message.qos, d.message.msgid)
           for d in out if d.message.kind == mqtt.PUBLISH]
    assert got == expected, topic


def test_broker_routing_cost_does_not_scan_sessions(monkeypatch):
    b = Broker()
    n = 10_000
    conns = [f"conn{i}" for i in range(n)]
    for i, conn in enumerate(conns):
        connect(b, conn, f"dev{i}")
        b.handle(MqttMessage(mqtt.SUBSCRIBE, msgid=1,
                             topics=((f"dev/{i}/in", 1), (f"grp/{i // 50}/#", 0))), conn)
    calls = []
    real = mqtt.topic_matches
    monkeypatch.setattr(mqtt, "topic_matches", lambda f, t: calls.append(1) or real(f, t))

    out = b.handle(MqttMessage(mqtt.PUBLISH, topic="dev/4321/in", payload=b"m", qos=1,
                               msgid=7), conns[1])
    pubs = [d for d in out if d.message.kind == mqtt.PUBLISH]
    assert [(d.conn, d.message.qos) for d in pubs] == [("conn4321", 1)]

    out = b.handle(MqttMessage(mqtt.PUBLISH, topic="grp/17/news", payload=b"m"), conns[1])
    members = sorted(f"dev{i}" for i in range(17 * 50, 18 * 50))
    assert [d.conn for d in out] == [f"conn{cid[3:]}" for cid in members]
    assert calls == []

    for conn in conns:
        b.drop_connection(conn)
    assert not b.sessions
    assert not b._tree.children and not b._tree.subscribers
