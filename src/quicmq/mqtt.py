"""Minimal MQTT 3.1.1 codec and broker logic.

Standard byte framing (fixed header + remaining length + variable header),
so payloads can be inspected with common tooling. QoS 0 and 1 only; topic
filters support the ``+`` and ``#`` wildcards; retained messages and
persistent sessions are implemented.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

CONNECT = 1
CONNACK = 2
PUBLISH = 3
PUBACK = 4
SUBSCRIBE = 8
SUBACK = 9
UNSUBSCRIBE = 10
UNSUBACK = 11
PINGREQ = 12
PINGRESP = 13
DISCONNECT = 14

PROTOCOL_LEVEL = 4  # MQTT 3.1.1

KIND_NAMES = {
    CONNECT: "CONNECT", CONNACK: "CONNACK", PUBLISH: "PUBLISH",
    PUBACK: "PUBACK", SUBSCRIBE: "SUBSCRIBE", SUBACK: "SUBACK",
    UNSUBSCRIBE: "UNSUBSCRIBE", UNSUBACK: "UNSUBACK",
    PINGREQ: "PINGREQ", PINGRESP: "PINGRESP", DISCONNECT: "DISCONNECT",
}


class MqttError(Exception):
    pass


class IncompleteMessage(MqttError):
    """More bytes are needed; not a protocol violation."""


@dataclass(frozen=True)
class MqttMessage:
    kind: int
    msgid: int = 0
    dup: bool = False
    retained: bool = False
    qos: int = 0
    topic: str = ""
    payload: bytes = b""
    client_id: str = ""
    persistent: bool = False  # CONNECT: restore/keep session state
    keepalive: int = 0
    session_present: bool = False  # CONNACK
    return_code: int = 0  # CONNACK
    topics: tuple[tuple[str, int], ...] = ()  # SUBSCRIBE: (filter, qos)
    granted: tuple[int, ...] = ()  # SUBACK
    version: int = PROTOCOL_LEVEL


def _encode_string(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise MqttError("string too long")
    return len(raw).to_bytes(2, "big") + raw


def _decode_string(data: bytes, pos: int) -> tuple[str, int]:
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


def _encode_remaining_length(n: int) -> bytes:
    if n > 268_435_455:
        raise MqttError("remaining length too large")
    out = bytearray()
    while True:
        digit = n % 128
        n //= 128
        if n:
            out.append(digit | 0x80)
        else:
            out.append(digit)
            return bytes(out)


def _decode_remaining_length(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    for i in range(4):
        if len(data) <= pos + i:
            raise IncompleteMessage("remaining length incomplete")
        byte = data[pos + i]
        value |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            return value, pos + i + 1
    raise MqttError("malformed remaining length")


def encode(msg: MqttMessage) -> bytes:
    kind = msg.kind
    flags = 0
    body = b""
    if kind == CONNECT:
        if msg.persistent and not msg.client_id:
            raise MqttError("persistent session requires a client id")
        connect_flags = 0x00 if msg.persistent else 0x02  # clean session bit
        body = (
            _encode_string("MQTT")
            + bytes([msg.version, connect_flags])
            + msg.keepalive.to_bytes(2, "big")
            + _encode_string(msg.client_id)
        )
    elif kind == CONNACK:
        body = bytes([1 if msg.session_present else 0, msg.return_code])
    elif kind == PUBLISH:
        if msg.qos not in (0, 1):
            raise MqttError(f"unsupported qos {msg.qos}")
        if msg.qos == 1 and msg.msgid == 0:
            raise MqttError("qos 1 publish requires a nonzero msgid")
        flags = (0x08 if msg.dup else 0) | (msg.qos << 1) | (0x01 if msg.retained else 0)
        body = _encode_string(msg.topic)
        if msg.qos > 0:
            body += msg.msgid.to_bytes(2, "big")
        body += msg.payload
    elif kind in (PUBACK, UNSUBACK):
        body = msg.msgid.to_bytes(2, "big")
    elif kind == SUBSCRIBE:
        if msg.msgid == 0:
            raise MqttError("subscribe requires a nonzero msgid")
        flags = 0x02
        body = msg.msgid.to_bytes(2, "big")
        for topic, qos in msg.topics:
            body += _encode_string(topic) + bytes([qos])
    elif kind == SUBACK:
        body = msg.msgid.to_bytes(2, "big") + bytes(msg.granted)
    elif kind == UNSUBSCRIBE:
        flags = 0x02
        body = msg.msgid.to_bytes(2, "big")
        for topic, _ in msg.topics:
            body += _encode_string(topic)
    elif kind in (PINGREQ, PINGRESP, DISCONNECT):
        body = b""
    else:
        raise MqttError(f"unknown message kind {kind}")
    return bytes([(kind << 4) | flags]) + _encode_remaining_length(len(body)) + body


def valid_mqtt_header(data: bytes) -> bool:
    """Pure predicate: does ``data`` begin with a plausible fixed header?

    Checks the kind nibble, its reserved flag bits, and that the remaining
    length field is well formed. Truncated bodies pass the header check and
    fail later in decode.
    """
    if not data:
        return False
    kind = data[0] >> 4
    flags = data[0] & 0x0F
    if kind not in KIND_NAMES:
        return False
    if kind in (SUBSCRIBE, UNSUBSCRIBE):
        if flags != 0x02:
            return False
    elif kind != PUBLISH and flags != 0:
        return False
    if kind == PUBLISH and (flags >> 1) & 0x03 > 1:
        return False
    try:
        _decode_remaining_length(data, 1)
    except IncompleteMessage:
        return False
    except MqttError:
        return False
    return True


def decode(data: bytes) -> tuple[MqttMessage, int]:
    """Decode one message from the head of ``data``.

    Returns the message and the number of bytes consumed. Raises
    IncompleteMessage when the buffer holds only part of a message.
    """
    if not data:
        raise IncompleteMessage("empty buffer")
    first = data[0]
    kind = first >> 4
    flags = first & 0x0F
    if kind not in KIND_NAMES:
        raise MqttError(f"unknown message kind {kind}")
    if kind in (SUBSCRIBE, UNSUBSCRIBE):
        if flags != 0x02:
            raise MqttError("bad fixed-header flags")
    elif kind != PUBLISH and flags != 0:
        raise MqttError("bad fixed-header flags")
    remaining, pos = _decode_remaining_length(data, 1)
    if len(data) - pos < remaining:
        raise IncompleteMessage(f"need {remaining} body bytes, have {len(data) - pos}")
    body = data[pos:pos + remaining]
    end = pos + remaining

    if kind == CONNECT:
        name, p = _decode_string(body, 0)
        if name != "MQTT":
            raise MqttError(f"bad protocol name {name!r}")
        if len(body) - p < 4:
            raise MqttError("truncated CONNECT")
        version = body[p]
        connect_flags = body[p + 1]
        keepalive = int.from_bytes(body[p + 2:p + 4], "big")
        p += 4
        client_id, p = _decode_string(body, p)
        persistent = not (connect_flags & 0x02)
        if persistent and not client_id:
            raise MqttError("persistent session requires a client id")
        return MqttMessage(
            CONNECT, client_id=client_id, persistent=persistent,
            keepalive=keepalive, version=version,
        ), end
    if kind == CONNACK:
        if len(body) != 2:
            raise MqttError("bad CONNACK length")
        return MqttMessage(CONNACK, session_present=bool(body[0] & 1), return_code=body[1]), end
    if kind == PUBLISH:
        qos = (flags >> 1) & 0x03
        if qos > 1:
            raise MqttError(f"unsupported qos {qos}")
        topic, p = _decode_string(body, 0)
        if not topic or "#" in topic or "+" in topic:
            raise MqttError(f"invalid publish topic {topic!r}")
        msgid = 0
        if qos > 0:
            if len(body) - p < 2:
                raise MqttError("truncated msgid")
            msgid = int.from_bytes(body[p:p + 2], "big")
            if msgid == 0:
                raise MqttError("qos 1 publish with zero msgid")
            p += 2
        return MqttMessage(
            PUBLISH, msgid=msgid, dup=bool(flags & 0x08), retained=bool(flags & 0x01),
            qos=qos, topic=topic, payload=body[p:],
        ), end
    if kind in (PUBACK, UNSUBACK):
        if len(body) != 2:
            raise MqttError("bad ack length")
        return MqttMessage(kind, msgid=int.from_bytes(body, "big")), end
    if kind == SUBSCRIBE:
        if flags != 0x02:
            raise MqttError("bad SUBSCRIBE flags")
        if len(body) < 2:
            raise MqttError("truncated SUBSCRIBE")
        msgid = int.from_bytes(body[:2], "big")
        if msgid == 0:
            raise MqttError("subscribe with zero msgid")
        topics = []
        p = 2
        while p < len(body):
            topic, p = _decode_string(body, p)
            if p > len(body) - 1:
                raise MqttError("missing requested qos")
            topics.append((topic, body[p]))
            p += 1
        if not topics:
            raise MqttError("SUBSCRIBE without topics")
        return MqttMessage(SUBSCRIBE, msgid=msgid, topics=tuple(topics)), end
    if kind == SUBACK:
        if len(body) < 3:
            raise MqttError("truncated SUBACK")
        return MqttMessage(SUBACK, msgid=int.from_bytes(body[:2], "big"),
                           granted=tuple(body[2:])), end
    if kind == UNSUBSCRIBE:
        if len(body) < 2:
            raise MqttError("truncated UNSUBSCRIBE")
        msgid = int.from_bytes(body[:2], "big")
        topics = []
        p = 2
        while p < len(body):
            topic, p = _decode_string(body, p)
            topics.append((topic, 0))
        return MqttMessage(UNSUBSCRIBE, msgid=msgid, topics=tuple(topics)), end
    if kind in (PINGREQ, PINGRESP, DISCONNECT):
        if body:
            raise MqttError("unexpected payload")
        return MqttMessage(kind), end
    raise MqttError(f"unknown message kind {kind}")


def topic_matches(filter_: str, topic: str) -> bool:
    """MQTT topic filter matching with ``+`` (one level) and ``#`` (rest)."""
    f_parts = filter_.split("/")
    t_parts = topic.split("/")
    for i, fp in enumerate(f_parts):
        if fp == "#":
            return i == len(f_parts) - 1
        if i >= len(t_parts):
            return False
        if fp != "+" and fp != t_parts[i]:
            return False
    return len(f_parts) == len(t_parts)


# ---------------------------------------------------------------------------
# Broker
# ---------------------------------------------------------------------------

@dataclass
class Session:
    client_id: str
    persistent: bool = False
    subscriptions: dict[str, int] = field(default_factory=dict)  # filter -> qos
    conn: object | None = None  # opaque connection handle, None while offline


@dataclass(frozen=True)
class Delivery:
    """A message the broker wants sent to a connected client."""
    conn: object
    message: MqttMessage


class Broker:
    """Topic routing, retained messages, and persistent sessions.

    The broker is transport-agnostic: ``handle`` consumes a decoded message
    from a connection handle and returns the deliveries to perform. All
    mutation happens on the caller's event loop.
    """

    def __init__(self, state_dir: str | None = None):
        self.sessions: dict[str, Session] = {}
        self.retained: dict[str, MqttMessage] = {}
        self._by_conn: dict[object, str] = {}
        self._next_msgid = 1
        self.state_dir = state_dir
        if state_dir:
            os.makedirs(os.path.join(state_dir, "clients"), exist_ok=True)

    # -- persistence ------------------------------------------------------

    def _session_path(self, client_id: str) -> str:
        safe = client_id.replace("/", "_")
        return os.path.join(self.state_dir, "clients", f"{safe}.session")

    def _store_session(self, session: Session) -> None:
        if not self.state_dir or not session.persistent:
            return
        doc = {"client_id": session.client_id, "subscriptions": session.subscriptions}
        with open(self._session_path(session.client_id), "w", encoding="utf-8") as f:
            json.dump(doc, f, sort_keys=True)

    def _load_session(self, client_id: str) -> Session | None:
        if not self.state_dir:
            return None
        path = self._session_path(client_id)
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        return Session(client_id, True, dict(doc.get("subscriptions", {})))

    # -- accounting -------------------------------------------------------

    def connection_count(self) -> int:
        return len(self._by_conn)

    def fresh_msgid(self) -> int:
        msgid = self._next_msgid
        self._next_msgid = self._next_msgid % 0xFFFF + 1
        return msgid

    def drop_connection(self, conn: object) -> None:
        """Forget a connection (disconnect, timeout, or crash). Persistent
        sessions keep their subscriptions; transient ones are discarded.
        A session that already moved to a newer connection is untouched."""
        client_id = self._by_conn.pop(conn, None)
        if client_id is None:
            return
        session = self.sessions.get(client_id)
        if session is None or session.conn is not conn:
            return
        session.conn = None
        if not session.persistent:
            del self.sessions[client_id]

    # -- message handling ---------------------------------------------------

    def handle(self, msg: MqttMessage, conn: object) -> list[Delivery]:
        kind = msg.kind
        if kind == CONNECT:
            return self._handle_connect(msg, conn)
        client_id = self._by_conn.get(conn)
        if client_id is None:
            raise MqttError("message before CONNECT")
        session = self.sessions.get(client_id)
        if session is None:
            raise MqttError(f"no session for {client_id!r}")
        if kind == SUBSCRIBE:
            return self._handle_subscribe(msg, session, conn)
        if kind == UNSUBSCRIBE:
            for topic, _ in msg.topics:
                session.subscriptions.pop(topic, None)
            self._store_session(session)
            return [Delivery(conn, MqttMessage(UNSUBACK, msgid=msg.msgid))]
        if kind == PUBLISH:
            return self._handle_publish(msg, conn)
        if kind == PUBACK:
            return []  # QoS bookkeeping lives in the agent layer
        if kind == PINGREQ:
            return [Delivery(conn, MqttMessage(PINGRESP))]
        if kind == DISCONNECT:
            self.drop_connection(conn)
            return []
        raise MqttError(f"broker cannot handle {KIND_NAMES.get(kind, kind)}")

    def _handle_connect(self, msg: MqttMessage, conn: object) -> list[Delivery]:
        if not msg.client_id:
            raise MqttError("empty client id")
        session_present = False
        session = self.sessions.get(msg.client_id)
        if session is None and msg.persistent:
            session = self._load_session(msg.client_id)
        if session is not None and msg.persistent:
            session_present = bool(session.subscriptions)
            session.persistent = True
        else:
            session = Session(msg.client_id, msg.persistent)
        session.conn = conn
        self.sessions[msg.client_id] = session
        self._by_conn[conn] = msg.client_id
        self._store_session(session)
        return [Delivery(conn, MqttMessage(CONNACK, session_present=session_present))]

    def _handle_subscribe(self, msg: MqttMessage, session: Session,
                          conn: object) -> list[Delivery]:
        granted = []
        out = []
        for topic, qos in msg.topics:
            qos = min(qos, 1)
            session.subscriptions[topic] = qos
            granted.append(qos)
            for rtopic, retained_msg in sorted(self.retained.items()):
                if topic_matches(topic, rtopic):
                    out.append(Delivery(conn, replace(
                        retained_msg,
                        retained=True,
                        qos=min(retained_msg.qos, qos),
                        msgid=self.fresh_msgid() if min(retained_msg.qos, qos) else 0,
                    )))
        self._store_session(session)
        return [Delivery(conn, MqttMessage(SUBACK, msgid=msg.msgid, granted=tuple(granted)))] + out

    def _handle_publish(self, msg: MqttMessage, conn: object) -> list[Delivery]:
        out = []
        if msg.qos == 1:
            out.append(Delivery(conn, MqttMessage(PUBACK, msgid=msg.msgid)))
        if msg.retained:
            if msg.payload:
                self.retained[msg.topic] = replace(msg, dup=False)
            else:
                self.retained.pop(msg.topic, None)
        for client_id in sorted(self.sessions):
            session = self.sessions[client_id]
            if session.conn is None:
                continue
            qos = self._match_qos(session, msg.topic)
            if qos is None:
                continue
            eff_qos = min(msg.qos, qos)
            out.append(Delivery(session.conn, replace(
                msg,
                retained=False,
                dup=False,
                qos=eff_qos,
                msgid=self.fresh_msgid() if eff_qos else 0,
            )))
        return out

    @staticmethod
    def _match_qos(session: Session, topic: str) -> int | None:
        best = None
        for filter_, qos in session.subscriptions.items():
            if topic_matches(filter_, topic):
                best = qos if best is None else max(best, qos)
        return best
