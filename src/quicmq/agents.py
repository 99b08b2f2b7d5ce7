"""Client and server agents: the layer that feeds MQTT messages into the
transport and routes decrypted transport payloads back to MQTT.

Both agents are event-driven around a network (simulated or real-UDP): every
entry point handles one datagram, timer, or application call, then pumps the
connection's output packets onto the network. Each connection, at either
end, is one ``_ConnState``: the transport connection, its timer hook and
its per-stream receive buffers.
"""

from __future__ import annotations

import base64
import os
from random import Random
from typing import Callable, Iterator

from . import mqtt
from .connection import (
    ESTABLISHED,
    CachedSession,
    Closed,
    Connection,
    HandshakeDone,
    HandshakeFailed,
    Migrated,
    StreamData,
    TransportError,
    check_stream_id,
)
from .crypto import SYSTEM_RNG
from .handshake import HandshakeError, ServerConfig, ServerIdentity
from .mqtt import CONNECT, PUBLISH, SUBSCRIBE, UNSUBSCRIBE, Broker, MqttError, MqttMessage
from .netsim import Address, SimNetwork
from .wire import EPOCH_CLEAR, WireError, decode_header

PRIMARY_STREAM = 3  # first application stream; stream 1 carries the handshake
MAX_MESSAGE_SIZE = 16 * 1024
# Messages a broker holds for a connection until its CONNECT is in; with
# MAX_MESSAGE_SIZE each, that is at most one CONNECTION_WINDOW.
MAX_EARLY_MESSAGES = 16


class AgentError(Exception):
    """Agent-level failure; ``stage`` pinpoints which initializer failed."""

    def __init__(self, stage: str, detail: str = ""):
        super().__init__(f"{stage}{': ' + detail if detail else ''}")
        self.stage = stage


# ---------------------------------------------------------------------------
# Session files
# ---------------------------------------------------------------------------

class SessionStore:
    """One human-readable key-value document per broker address, holding the
    resumption material for 0-RTT: scfg, its signature, and the token."""

    def __init__(self, state_dir: str):
        self.state_dir = state_dir
        os.makedirs(self.state_dir, exist_ok=True)

    def path_for(self, host: str, port: int) -> str:
        return os.path.join(self.state_dir, f"{host}_{port}.session")

    def store(self, host: str, port: int, session: CachedSession,
              created: float) -> None:
        lines = [
            f"server = {host}:{port}",
            f"created = {int(created)}",
            f"scfg = {base64.b64encode(session.scfg.serialize_pub()).decode()}",
            f"prof = {base64.b64encode(session.scfg.prof).decode()}",
            f"stk = {base64.b64encode(session.stk).decode()}",
        ]
        mqtt.replace_file(self.path_for(host, port), "\n".join(lines) + "\n")

    def load(self, host: str, port: int) -> CachedSession | None:
        """The cached session for a broker. A missing, unreadable or
        malformed file is no session."""
        fields: dict[str, str] = {}
        try:
            with open(self.path_for(host, port), encoding="utf-8") as f:
                for line in f:
                    if "=" in line:
                        key, _, value = line.partition("=")
                        fields[key.strip()] = value.strip()
            scfg = ServerConfig.parse_pub(
                base64.b64decode(fields["scfg"]),
                base64.b64decode(fields["prof"]),
            )
            stk = base64.b64decode(fields["stk"])
        except (OSError, ValueError, KeyError, HandshakeError):
            return None
        return CachedSession(scfg=scfg, stk=stk)

    def clear(self, host: str, port: int) -> None:
        path = self.path_for(host, port)
        if os.path.exists(path):
            os.remove(path)


# ---------------------------------------------------------------------------
# The per-connection record both agents keep
# ---------------------------------------------------------------------------

def _pump(network: SimNetwork, conn: Connection) -> None:
    """Packetize what the connection has queued and put it on the network."""
    conn.flush()
    if conn.outputs:
        for packet, annotation in conn.take_outputs():
            network.send(packet, conn.local_addr, conn.peer_addr, annotation)


class _ConnState:
    """One connection's MQTT side, the same at both ends. It owns the
    ``Connection`` and is its scheduler: a timer runs, then the connection is
    pumped. It buffers each stream's bytes until a whole MQTT message is in.
    A QoS 1 PUBLISH is sent once: the stream is reliable and in order, so a
    re-send on the same connection could only arrive after the original."""

    def __init__(self, network: SimNetwork, on_event: Callable[[object], None],
                 **conn_args):
        self.network = network
        self.conn = Connection(clock=lambda: network.clock.now_s, scheduler=self.schedule,
                               on_event=on_event, **conn_args)
        self.rx_buffers: dict[int, bytes] = {}  # stream -> bytes of a partial message
        self.out_of_frame: set[int] = set()  # streams whose bytes are no longer read
        # filter -> stream it was subscribed from, kept in filter order
        self.sub_streams: dict[str, int] = {}
        self.primary_stream = PRIMARY_STREAM  # the CONNECT stream
        # (message, stream) pairs that overtook the CONNECT; a broker's
        # connection holds a list until its CONNECT is in, a client none.
        self.early: list[tuple[MqttMessage, int]] | None = None

    def schedule(self, delay_s: float, fn: Callable[[], None]):
        def wrapped():
            fn()
            _pump(self.network, self.conn)
        return self.network.schedule(delay_s, wrapped)

    def read(self, event: StreamData) -> Iterator[MqttMessage | None]:
        """Decode and consume each complete MQTT message at the head of the
        event's stream buffer; a partial message stays buffered. Malformed
        bytes, and a partial message already past ``MAX_MESSAGE_SIZE``, are
        dropped with the rest of the buffer and yield None once: the stream
        is then out of frame, and every later byte on it is dropped unread.
        The connection stays up. With nothing buffered, the event's bytes
        are decoded as they are."""
        if event.stream_id in self.out_of_frame:
            return
        data = event.data
        held = self.rx_buffers.pop(event.stream_id, None)
        if held:
            data = held + data
        while data:
            try:
                msg, consumed = mqtt.decode(data)
            except mqtt.IncompleteMessage:
                if len(data) > MAX_MESSAGE_SIZE:  # more than any agent sends
                    self.out_of_frame.add(event.stream_id)
                    yield None
                    return
                self.rx_buffers[event.stream_id] = data
                return
            except MqttError:
                self.out_of_frame.add(event.stream_id)
                yield None
                return
            data = data[consumed:]
            yield msg


# ---------------------------------------------------------------------------
# Client agent
# ---------------------------------------------------------------------------

class ClientAgent:
    """One MQTT client (publisher or subscriber) over one connection."""

    def __init__(self, network: SimNetwork, local_addr: Address, broker_addr: Address,
                 client_id: str, server_pk: bytes,
                 rng: Random = SYSTEM_RNG,
                 state_dir: str | None = None,
                 persistent: bool = False,
                 keepalive: int = 0,
                 on_connected: Callable[["ClientAgent"], None] | None = None,
                 on_message: Callable[["ClientAgent", MqttMessage], None] | None = None,
                 on_suback: Callable[["ClientAgent", int], None] | None = None,
                 on_closed: Callable[["ClientAgent", str], None] | None = None):
        if not client_id:
            raise AgentError("instance", "empty client id")
        if keepalive < 0 or keepalive > 0xFFFF:
            raise AgentError("options", f"bad keepalive {keepalive}")
        self.network = network
        self.local_addr = local_addr
        self.broker_addr = broker_addr
        self.client_id = client_id
        self.server_pk = server_pk
        self.rng = rng
        self.sessions = SessionStore(state_dir) if state_dir is not None else None
        self.persistent = persistent
        self.keepalive = keepalive
        self.on_connected = on_connected
        self.on_message = on_message
        self.on_suback = on_suback
        self.on_closed = on_closed

        self.state: _ConnState | None = None
        self.connected = False
        self.dead = False
        self.failure: str | None = None
        self._next_msgid = 1

        network.register(local_addr, self._on_datagram)

    @property
    def conn(self) -> Connection | None:
        return self.state.conn if self.state is not None else None

    # -- lifecycle -----------------------------------------------------------

    def _fresh_msgid(self) -> int:
        msgid = self._next_msgid
        self._next_msgid = self._next_msgid % 0xFFFF + 1
        return msgid

    def connect_mqtt(self) -> str:
        """Build the CONNECT message, sanity-check it, set up the connection,
        and start the handshake. Returns the chosen path (1rtt or 0rtt). An
        agent connects once: a reconnect is a new agent."""
        if self.state is not None:
            raise AgentError("transport", "this agent has already connected")
        msg = MqttMessage(mqtt.CONNECT, client_id=self.client_id,
                          persistent=self.persistent, keepalive=self.keepalive)
        try:
            raw = mqtt.encode(msg)
        except MqttError as e:
            raise AgentError("instance", str(e)) from None
        self._sanity(raw)
        session = self.sessions.load(*self.broker_addr) if self.sessions else None
        self.state = _ConnState(
            self.network, self._on_conn_event, role="client",
            cid=self.rng.getrandbits(64),
            local_addr=self.local_addr, peer_addr=self.broker_addr,
            rng=self.rng, server_pk=self.server_pk, session=session)
        try:
            path = self.conn.start_connect()
        except Exception as e:
            raise AgentError("transport", str(e)) from None
        self.conn.send_stream(PRIMARY_STREAM, raw)
        _pump(self.network, self.conn)
        if self.keepalive:
            self._arm_ping()
        return path

    @staticmethod
    def _sanity(raw: bytes, stream_id: int = PRIMARY_STREAM) -> None:
        if len(raw) > MAX_MESSAGE_SIZE:
            raise AgentError("sanity", f"message of {len(raw)} bytes exceeds limit")
        try:
            check_stream_id(stream_id)  # a stream the transport cannot carry
        except TransportError as e:
            raise AgentError("sanity", str(e)) from None

    # -- application API ------------------------------------------------------

    def subscribe(self, topic: str, qos: int = 0, stream_id: int = PRIMARY_STREAM) -> int:
        if self.state is None:
            raise AgentError("transport", "not connected")
        if qos not in (0, 1, 2):
            raise AgentError("sanity", f"bad requested qos {qos}")
        try:
            mqtt.check_filter(topic)  # a filter the broker would refuse
        except MqttError as e:
            raise AgentError("sanity", str(e)) from None
        # The msgid is spent only once the message would be accepted.
        msgid = self._next_msgid
        raw = mqtt.encode(MqttMessage(mqtt.SUBSCRIBE, msgid=msgid,
                                      topics=((topic, qos),)))
        self._sanity(raw, stream_id)
        self._fresh_msgid()
        self.conn.send_stream(stream_id, raw)
        _pump(self.network, self.conn)
        return msgid

    def publish(self, topic: str, payload: bytes, qos: int = 0,
                retain: bool = False, stream_id: int = PRIMARY_STREAM) -> int:
        if self.state is None:
            raise AgentError("transport", "not connected")
        try:
            mqtt.check_publish_topic(topic)  # a topic the broker would refuse
        except MqttError as e:
            raise AgentError("sanity", str(e)) from None
        # The msgid is spent only once the message would be accepted.
        msgid = self._next_msgid if qos else 0
        msg = MqttMessage(mqtt.PUBLISH, topic=topic, payload=payload, qos=qos,
                          retained=retain, msgid=msgid)
        try:
            raw = mqtt.encode(msg)  # a qos the broker would refuse
        except MqttError as e:
            raise AgentError("sanity", str(e)) from None
        self._sanity(raw, stream_id)
        if qos:
            self._fresh_msgid()
        self.conn.send_stream(stream_id, raw)
        _pump(self.network, self.conn)
        return msgid

    def disconnect(self) -> None:
        """Clean teardown: the transport CLOSE rides on the packet that
        carries the DISCONNECT."""
        if self.conn is None:
            return
        self.conn.send_stream(PRIMARY_STREAM, mqtt.encode(MqttMessage(mqtt.DISCONNECT)))
        self.conn.close()
        _pump(self.network, self.conn)

    def _arm_ping(self) -> None:
        self.state.schedule(max(1, self.keepalive), self._send_ping)

    def _send_ping(self) -> None:
        if self.conn.phase == ESTABLISHED:
            self.conn.send_stream(PRIMARY_STREAM, mqtt.encode(MqttMessage(mqtt.PINGREQ)))
            self._arm_ping()

    # -- plumbing ----------------------------------------------------------------

    def _on_datagram(self, data: bytes, src: Address) -> None:
        if self.state is None:
            return
        self.conn.handle_datagram(data, src)
        _pump(self.network, self.conn)

    def kill(self) -> None:
        """Abrupt process death: no teardown traffic, the address vanishes,
        and every local timer stops. The broker only learns through silence."""
        self.dead = True
        self.connected = False
        self.network.unregister(self.local_addr)
        if self.conn is not None:
            self.conn.kill()

    def set_address(self, new_addr: Address) -> None:
        """Move to a new local address on the simulator (roaming); the
        connection survives. The real-UDP runner has no such move."""
        self.network.change_address(self.local_addr, new_addr)
        self.local_addr = new_addr
        if self.conn is not None:
            self.conn.local_addr = new_addr

    # -- events -------------------------------------------------------------------

    def _on_conn_event(self, event) -> None:
        if isinstance(event, StreamData):
            for msg in self.state.read(event):
                if msg is not None:
                    self.quic_dispatcher(msg, event.stream_id)
        elif isinstance(event, HandshakeDone):
            # The REJ's material is written once per handshake it answered,
            # and never on a resume: the cached config expires before its
            # token goes stale. MQTT-level connected state comes with CONNACK.
            if self.sessions is not None and not event.resumed:
                self.sessions.store(*self.broker_addr, self.conn.session,
                                    self.network.clock.now_s)
        elif isinstance(event, HandshakeFailed):
            self.failure = event.reason
        elif isinstance(event, Closed):
            self.connected = False
            if self.on_closed is not None:
                self.on_closed(self, event.reason)

    def quic_dispatcher(self, msg: MqttMessage, stream_id: int) -> None:
        """Client branch of the dispatcher: react to the session-level
        responses and hand each PUBLISH to ``on_message``."""
        if msg.kind == mqtt.CONNACK:
            self.connected = True
            if self.on_connected is not None:
                self.on_connected(self)
        elif msg.kind == mqtt.SUBACK:
            if self.on_suback is not None:
                self.on_suback(self, msg.msgid)
        elif msg.kind == mqtt.PUBLISH:
            if msg.qos == 1:
                self.conn.send_stream(stream_id,
                                      mqtt.encode(MqttMessage(mqtt.PUBACK, msgid=msg.msgid)))
            if self.on_message is not None:
                self.on_message(self, msg)


# ---------------------------------------------------------------------------
# Server agent
# ---------------------------------------------------------------------------

class ServerAgent:
    """The broker-side agent: accepts connections, advances handshakes, and
    routes decrypted MQTT messages through the broker's topic table."""

    def __init__(self, network: SimNetwork, addr: Address, identity: ServerIdentity,
                 broker: Broker | None = None,
                 rng: Random = SYSTEM_RNG):
        self.network = network
        self.addr = addr
        self.identity = identity
        self.broker = broker if broker is not None else Broker()
        self.rng = rng
        self.conns: dict[int, _ConnState] = {}
        self.conns_opened = 0
        self.rx_errors = 0
        self.mqtt_errors = 0
        self.migrations = 0
        network.register(addr, self.on_datagram)

    # -- state accounting ------------------------------------------------

    def connection_count(self) -> int:
        return len(self.conns)

    # -- event entry points ---------------------------------------------------------

    def shutdown(self) -> None:
        """Broker shutdown (reboot): a disconnect for every client at once."""
        for state in list(self.conns.values()):
            state.conn.close(error_code=0, reason=b"shutdown")
            _pump(self.network, state.conn)

    def on_datagram(self, data: bytes, src: Address) -> None:
        try:
            header = decode_header(data)
        except WireError:
            self.rx_errors += 1
            return
        state = self.conns.get(header.cid)
        fresh = state is None
        if fresh:
            if header.epoch != EPOCH_CLEAR:
                self.rx_errors += 1  # unknown cid: drop, no state change
                return
            state = self._new_conn(header.cid, src)
        # The connection advances the handshake or decrypts and dispatches;
        # our event hook handles the rest.
        conn = state.conn
        conn.handle_datagram(data, src, header)
        if fresh and conn.auth_failures:
            # Garbage that never started a handshake: drop the slot and its timers.
            del self.conns[conn.cid]
            conn.kill()
            return
        _pump(self.network, conn)

    def _new_conn(self, cid: int, src: Address) -> _ConnState:
        state = _ConnState(
            self.network, lambda event: self._on_conn_event(state, event),
            role="server", cid=cid, local_addr=self.addr, peer_addr=src,
            rng=self.rng, identity=self.identity)
        state.early = []
        self.conns[cid] = state
        self.conns_opened += 1
        return state

    # -- connection events -------------------------------------------------------------

    def _on_conn_event(self, state: _ConnState, event) -> None:
        if isinstance(event, StreamData):
            for msg in state.read(event):
                if msg is None:
                    self.mqtt_errors += 1
                else:
                    self.quic_dispatcher(state, msg, event.stream_id)
        elif isinstance(event, Migrated):
            self.migrations += 1
        elif isinstance(event, Closed):
            self.broker.drop_connection(state.conn)
            self.conns.pop(state.conn.cid, None)

    def quic_dispatcher(self, state: _ConnState, msg: MqttMessage,
                        stream_id: int) -> None:
        """Broker branch of the dispatcher: parsed MQTT messages route by
        topic to every live subscriber. Over separate streams a message can
        overtake its connection's CONNECT (MQTT 3.1.1 §3.1.4), so until a
        CONNECT is in, up to MAX_EARLY_MESSAGES others are held; they follow
        it in arrival order. One past the bound goes to the broker, which
        refuses it."""
        early = state.early
        if early is not None:
            if msg.kind == CONNECT:
                state.early = None
                self.quic_dispatcher(state, msg, stream_id)
                for held in early:
                    self.quic_dispatcher(state, *held)
                return
            if len(early) < MAX_EARLY_MESSAGES:
                early.append((msg, stream_id))
                return
        try:
            deliveries = self.broker.handle(msg, state.conn)
        except MqttError:
            self.mqtt_errors += 1
            return
        # Only a message the broker took steers routing, and before the
        # fan-out: a SUBSCRIBE's retained deliveries use its new filters.
        kind = msg.kind
        if kind == CONNECT:
            state.primary_stream = stream_id
        elif kind == SUBSCRIBE:
            for topic, _ in msg.topics:
                state.sub_streams[topic] = stream_id
            # Sorted here, so a delivery walks the filters without sorting.
            state.sub_streams = dict(sorted(state.sub_streams.items()))
        elif kind == UNSUBSCRIBE:
            for topic, _ in msg.topics:
                state.sub_streams.pop(topic, None)
        conns = self.conns
        # The broker shares one message among the deliveries that would
        # encode alike (every QoS 0 copy of a publish), so each message
        # object is encoded once.
        encoded: dict[int, bytes] = {}
        touched = set()
        for delivery in deliveries:
            target = conns.get(delivery.conn.cid)
            if target is None:
                continue
            message = delivery.message
            raw = encoded.get(id(message))
            if raw is None:
                raw = encoded[id(message)] = mqtt.encode(message)
            conn = target.conn
            conn.send_stream(self._stream_for(target, message, stream_id), raw)
            touched.add(conn.cid)
        for cid in touched:
            conn_state = conns.get(cid)
            if conn_state is not None and conn_state is not state:
                _pump(self.network, conn_state.conn)

    @staticmethod
    def _stream_for(target: _ConnState, msg: MqttMessage, arrival_stream: int) -> int:
        """A PUBLISH goes out on the stream its filter was subscribed from;
        any other delivery answers its asker on the stream it came in on."""
        if msg.kind == PUBLISH:
            topic = msg.topic
            for topic_filter, stream_id in target.sub_streams.items():
                if mqtt.topic_matches(topic_filter, topic):
                    return stream_id
            return target.primary_stream
        return arrival_stream
