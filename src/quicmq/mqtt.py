"""Minimal MQTT 3.1.1 codec and broker logic.

Standard byte framing (fixed header + remaining length + variable header),
so payloads can be inspected with common tooling. QoS 0 and 1 only; topic
filters support the ``+`` and ``#`` wildcards; retained messages and
persistent sessions are implemented.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
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


@dataclass(slots=True)
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
    """The string at ``pos`` and the position after it."""
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


# A PUBLISH's first byte, a remaining length below 128 and its topic's length.
_PUBLISH_HEAD = struct.Struct(">BBH")


def encode(msg: MqttMessage) -> bytes:
    kind = msg.kind
    if kind == PUBLISH:
        qos = msg.qos
        if qos not in (0, 1):
            raise MqttError(f"unsupported qos {qos}")
        if qos == 1 and msg.msgid == 0:
            raise MqttError("qos 1 publish requires a nonzero msgid")
        first = ((PUBLISH << 4) | (0x08 if msg.dup else 0) | (qos << 1)
                 | (0x01 if msg.retained else 0))
        topic = msg.topic.encode("utf-8")
        n = len(topic)
        if n > 0xFFFF:
            raise MqttError("string too long")
        head = topic + msg.msgid.to_bytes(2, "big") if qos > 0 else topic
        payload = msg.payload
        remaining = 2 + len(head) + len(payload)
        # One join: the payload is copied once, not once per concatenation.
        if remaining < 128:
            return b"".join((_PUBLISH_HEAD.pack(first, remaining, n), head, payload))
        return b"".join((bytes((first,)), _encode_remaining_length(remaining),
                         n.to_bytes(2, "big"), head, payload))
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
        if msg.msgid == 0:
            raise MqttError("unsubscribe requires a nonzero msgid")
        flags = 0x02
        body = msg.msgid.to_bytes(2, "big")
        for topic, _ in msg.topics:
            body += _encode_string(topic)
    elif kind in (PINGREQ, PINGRESP, DISCONNECT):
        body = b""
    else:
        raise MqttError(f"unknown message kind {kind}")
    return bytes([(kind << 4) | flags]) + _encode_remaining_length(len(body)) + body


def decode(data: bytes) -> tuple[MqttMessage, int]:
    """Decode one message from the head of ``data``.

    Returns the message and the number of bytes consumed. Raises
    IncompleteMessage when the buffer holds only part of a message.
    """
    if not data:
        raise IncompleteMessage("empty buffer")
    first = data[0]
    kind = first >> 4
    if kind == PUBLISH:
        qos = (first >> 1) & 0x03
        if qos > 1:
            # Refused before the body arrives, like the other header checks.
            raise MqttError(f"unsupported qos {qos}")
        if len(data) > 1 and data[1] < 0x80:
            remaining, pos = data[1], 2
        else:
            remaining, pos = _decode_remaining_length(data, 1)
        end = pos + remaining
        if len(data) < end:
            raise IncompleteMessage(f"need {remaining} body bytes, have {len(data) - pos}")
        # The topic string is read in place, so that the payload is copied once.
        if remaining < 2:
            raise MqttError("truncated string length")
        p = pos + 2 + ((data[pos] << 8) | data[pos + 1])
        if p > end:
            raise MqttError("truncated string")
        try:
            topic = data[pos + 2:p].decode("utf-8")
        except UnicodeDecodeError as e:
            raise MqttError(f"invalid UTF-8: {e}") from None
        check_publish_topic(topic)
        msgid = 0
        if qos:
            if end - p < 2:
                raise MqttError("truncated msgid")
            msgid = (data[p] << 8) | data[p + 1]
            if msgid == 0:
                raise MqttError("qos 1 publish with zero msgid")
            p += 2
        # Positional: kind, msgid, dup, retained, qos, topic, payload.
        return MqttMessage(PUBLISH, msgid, bool(first & 0x08), bool(first & 0x01), qos,
                           topic, data[p:end]), end
    flags = first & 0x0F
    if kind not in KIND_NAMES:
        raise MqttError(f"unknown message kind {kind}")
    if kind in (SUBSCRIBE, UNSUBSCRIBE):
        if flags != 0x02:
            raise MqttError("bad fixed-header flags")
    elif flags != 0:
        raise MqttError("bad fixed-header flags")
    remaining, pos = _decode_remaining_length(data, 1)
    if len(data) - pos < remaining:
        raise IncompleteMessage(f"need {remaining} body bytes, have {len(data) - pos}")
    end = pos + remaining
    body = data[pos:end]

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
    if kind in (PUBACK, UNSUBACK):
        if len(body) != 2:
            raise MqttError("bad ack length")
        return MqttMessage(kind, msgid=int.from_bytes(body, "big")), end
    if kind == SUBSCRIBE:
        if len(body) < 2:
            raise MqttError("truncated SUBSCRIBE")
        msgid = int.from_bytes(body[:2], "big")
        if msgid == 0:
            raise MqttError("subscribe with zero msgid")
        topics = []
        p = 2
        while p < len(body):
            topic, p = _decode_string(body, p)
            check_filter(topic)
            if p > len(body) - 1:
                raise MqttError("missing requested qos")
            if body[p] > 2:
                raise MqttError(f"bad requested qos {body[p]}")
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
        if msgid == 0:
            raise MqttError("unsubscribe with zero msgid")
        topics = []
        p = 2
        while p < len(body):
            topic, p = _decode_string(body, p)
            check_filter(topic)
            topics.append((topic, 0))
        if not topics:
            raise MqttError("UNSUBSCRIBE without topics")
        return MqttMessage(UNSUBSCRIBE, msgid=msgid, topics=tuple(topics)), end
    if kind in (PINGREQ, PINGRESP, DISCONNECT):
        if body:
            raise MqttError("unexpected payload")
        return MqttMessage(kind), end
    raise MqttError(f"unknown message kind {kind}")


def check_publish_topic(topic: str) -> None:
    """Refuse a PUBLISH topic name that is empty or holds a wildcard
    (MQTT 3.1.1 §4.7.3, §3.3.2.1)."""
    if not topic or "#" in topic or "+" in topic:
        raise MqttError(f"invalid publish topic {topic!r}")


def check_filter(filter_: str) -> None:
    """Refuse a filter no topic can match (MQTT 3.1.1 §4.7): an empty one,
    ``#`` anywhere but alone in the last level, ``+`` not alone in its level."""
    if not filter_:
        raise MqttError("empty topic filter")
    levels = filter_.split("/")
    for i, level in enumerate(levels):
        if (("#" in level and (level != "#" or i != len(levels) - 1))
                or ("+" in level and level != "+")):
            raise MqttError(f"invalid topic filter {filter_!r}")


def replace_file(path: str, text: str) -> None:
    """Write ``text`` aside, then rename it over ``path``: a reader sees the
    old file or the new one whole, and a failed write leaves the old one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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


class _FilterNode:
    """One level of the subscription tree: the filter that ends here is
    the path of level names from the root."""

    __slots__ = ("children", "subscribers")

    def __init__(self):
        self.children: dict[str, _FilterNode] = {}
        self.subscribers: dict[str, int] = {}  # client id -> qos


@dataclass(slots=True)
class Delivery:
    """A message the broker wants sent to a connected client.

    The QoS 0 deliveries of one publish share one message object, so a
    caller must not mutate a delivery's message."""
    conn: object
    message: MqttMessage


class Broker:
    """Topic routing, retained messages, and persistent sessions.

    The broker is transport-agnostic: ``handle`` consumes a decoded message
    from a connection handle and returns the deliveries to perform. All
    mutation happens on the caller's event loop.

    A PUBLISH is routed through a tree of the subscribed filters, one level
    per node, so its cost grows with topic depth and matches, not with the
    session count. The tree holds exactly the subscriptions of ``sessions``.
    """

    def __init__(self, state_dir: str | None = None):
        self.sessions: dict[str, Session] = {}
        self._tree = _FilterNode()
        self.retained: dict[str, MqttMessage] = {}
        self._by_conn: dict[object, str] = {}
        self._next_msgid = 1
        self.state_dir = state_dir
        self.store_failures = 0
        if state_dir:
            os.makedirs(os.path.join(state_dir, "clients"), exist_ok=True)

    # -- persistence ------------------------------------------------------

    def _session_path(self, client_id: str) -> str:
        """One file per client id, named by its SHA-256: any id gives a
        valid file name, and no two ids share one."""
        name = hashlib.sha256(client_id.encode("utf-8")).hexdigest()
        return os.path.join(self.state_dir, "clients", f"{name}.session")

    def _store_session(self, session: Session) -> None:
        """Persist a session. A failed write is counted and the session lives
        on in memory: a storage fault must not stop the broker answering."""
        if not self.state_dir or not session.persistent:
            return
        doc = {"client_id": session.client_id, "subscriptions": session.subscriptions}
        try:
            replace_file(self._session_path(session.client_id),
                         json.dumps(doc, sort_keys=True))
        except OSError:
            self.store_failures += 1

    def _load_session(self, client_id: str) -> Session | None:
        """The stored session of ``client_id``. A missing, unreadable or
        malformed file, or one stored for another id, is no session."""
        if not self.state_dir:
            return None
        try:
            with open(self._session_path(client_id), encoding="utf-8") as f:
                doc = json.load(f)
            subscriptions = dict(doc["subscriptions"])
            if doc["client_id"] != client_id:
                return None
            for filter_, qos in subscriptions.items():
                check_filter(filter_)
                if qos not in (0, 1):
                    return None
        except Exception:
            return None
        return Session(client_id, True, subscriptions)

    # -- subscription tree ------------------------------------------------

    def _index(self, client_id: str, filter_: str, qos: int) -> None:
        node = self._tree
        for level in filter_.split("/"):
            node = node.children.setdefault(level, _FilterNode())
        node.subscribers[client_id] = qos

    def _unindex(self, client_id: str, filter_: str) -> None:
        """Drop one subscription and the nodes it leaves empty."""
        levels = filter_.split("/")
        path = [self._tree]
        for level in levels:
            path.append(path[-1].children[level])
        del path[-1].subscribers[client_id]
        for i in range(len(levels) - 1, -1, -1):
            if path[i + 1].subscribers or path[i + 1].children:
                break
            del path[i].children[levels[i]]

    def _unindex_session(self, session: Session) -> None:
        for filter_ in session.subscriptions:
            self._unindex(session.client_id, filter_)

    def _subscribers(self, topic: str) -> dict[str, int]:
        """Client id -> highest qos among its filters matching ``topic``,
        with ``topic_matches``'s meaning: ``+`` is one level, ``#`` as the
        last level is zero or more, a ``#`` elsewhere matches nothing."""
        best: dict[str, int] = {}

        def collect(node: _FilterNode | None) -> None:
            if node is not None:
                for client_id, qos in node.subscribers.items():
                    if qos > best.get(client_id, -1):
                        best[client_id] = qos

        nodes = [self._tree]
        for level in topic.split("/"):
            reached = []
            for node in nodes:
                children = node.children
                if level != "+" and level != "#" and level in children:
                    reached.append(children[level])
                if "+" in children:
                    reached.append(children["+"])
                collect(children.get("#"))
            nodes = reached
        for node in nodes:
            collect(node)
            collect(node.children.get("#"))
        return best

    # -- accounting -------------------------------------------------------

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
        if session is None or session.conn != conn:
            return
        session.conn = None
        if not session.persistent:
            del self.sessions[client_id]
            self._unindex_session(session)

    # -- message handling ---------------------------------------------------

    def handle(self, msg: MqttMessage, conn: object) -> list[Delivery]:
        """The deliveries ``msg`` from ``conn`` calls for. The QoS 0
        deliveries of one publish share a message object, which callers
        must not mutate."""
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
                if session.subscriptions.pop(topic, None) is not None:
                    self._unindex(client_id, topic)
            self._store_session(session)
            return [Delivery(conn, MqttMessage(UNSUBACK, msgid=msg.msgid))]
        if kind == PUBLISH:
            return self._handle_publish(msg, conn)
        if kind == PUBACK:
            return []  # the stream delivered the PUBLISH; nothing is re-sent
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
        old = session = self.sessions.get(msg.client_id)
        if session is None and msg.persistent:
            session = self._load_session(msg.client_id)
        if session is not None and msg.persistent:
            session_present = bool(session.subscriptions)
            session.persistent = True
        else:
            session = Session(msg.client_id, msg.persistent)
        if session is not old:
            if old is not None:
                self._unindex_session(old)
            for filter_, qos in session.subscriptions.items():
                self._index(msg.client_id, filter_, qos)
        if old is not None and self._by_conn.get(old.conn) == msg.client_id:
            del self._by_conn[old.conn]  # taken over (MQTT 3.1.1 §3.1.4-2)
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
            self._index(session.client_id, topic, qos)
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
        # Client-id order fixes which delivery gets which msgid. Every QoS 0
        # delivery shares one message, so the agent encodes it once.
        matched = self._subscribers(msg.topic)
        shared = None
        for client_id in sorted(matched):
            session = self.sessions[client_id]
            if session.conn is None:
                continue
            eff_qos = min(msg.qos, matched[client_id])
            # Positional: kind, msgid, dup, retained, qos, topic, payload.
            if eff_qos:
                message = MqttMessage(PUBLISH, self.fresh_msgid(), False, False, eff_qos,
                                      msg.topic, msg.payload)
            else:
                if shared is None:
                    shared = MqttMessage(PUBLISH, 0, False, False, 0, msg.topic, msg.payload)
                message = shared
            out.append(Delivery(session.conn, message))
        return out
