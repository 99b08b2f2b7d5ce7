"""Client and server agents: the layer that feeds MQTT messages into the
transport and routes decrypted transport payloads back to MQTT.

Both agents are event-driven around a network (simulated or real-UDP): every
entry point handles one datagram, timer, or application call, then pumps the
connection's output packets onto the network. Message queues between the
MQTT layer and the transport are FIFO per connection.
"""

from __future__ import annotations

import base64
import os
from collections import deque
from dataclasses import dataclass, field
from random import Random
from typing import Callable

from . import mqtt
from .connection import (
    CachedSession,
    Closed,
    Connection,
    HandshakeDone,
    HandshakeFailed,
    Migrated,
    SessionTicket,
    StreamData,
    TransportConfig,
    TransportError,
)
from .handshake import ServerConfig, ServerIdentity
from .mqtt import Broker, MqttError, MqttMessage
from .netsim import Address, SimNetwork
from .wire import EPOCH_CLEAR, WireError, decode_header

STATE_DIR_ENV = "QUICMQ_STATE_DIR"
PRIMARY_STREAM = 3  # first application stream; stream 1 carries the handshake
MAX_MESSAGE_SIZE = 16 * 1024

QOS1_RETRY_S = 2.0
QOS1_MAX_RETRIES = 5


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

    def __init__(self, state_dir: str | None = None):
        self.state_dir = (state_dir or os.environ.get(STATE_DIR_ENV)
                          or os.path.join(os.path.expanduser("~"), ".quicmq"))
        os.makedirs(self.state_dir, exist_ok=True)

    def path_for(self, host: str, port: int) -> str:
        return os.path.join(self.state_dir, f"{host}_{port}.session")

    def store(self, host: str, port: int, scfg: ServerConfig, stk: bytes,
              created: float) -> None:
        lines = [
            f"server = {host}:{port}",
            f"created = {int(created)}",
            f"scfg = {base64.b64encode(scfg.serialize_pub()).decode()}",
            f"prof = {base64.b64encode(scfg.prof).decode()}",
            f"stk = {base64.b64encode(stk).decode()}",
        ]
        with open(self.path_for(host, port), "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

    def load(self, host: str, port: int) -> CachedSession | None:
        path = self.path_for(host, port)
        if not os.path.exists(path):
            return None
        fields: dict[str, str] = {}
        with open(path, encoding="utf-8") as f:
            for line in f:
                if "=" in line:
                    key, _, value = line.partition("=")
                    fields[key.strip()] = value.strip()
        try:
            scfg = ServerConfig.parse_pub(
                base64.b64decode(fields["scfg"]),
                base64.b64decode(fields["prof"]),
            )
            stk = base64.b64decode(fields["stk"])
        except Exception:
            return None
        return CachedSession(scfg=scfg, stk=stk)

    def clear(self, host: str, port: int) -> None:
        path = self.path_for(host, port)
        if os.path.exists(path):
            os.remove(path)


# ---------------------------------------------------------------------------
# Client agent
# ---------------------------------------------------------------------------

class ClientAgent:
    """One MQTT client (publisher or subscriber) over one connection."""

    def __init__(self, network: SimNetwork, local_addr: Address, broker_addr: Address,
                 client_id: str, server_pk: bytes,
                 config: TransportConfig | None = None,
                 rng: Random | None = None,
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
        self.config = config or TransportConfig()
        self.rng = rng if rng is not None else Random()
        self.sessions = SessionStore(state_dir) if state_dir is not None else None
        self.persistent = persistent
        self.keepalive = keepalive
        self.on_connected = on_connected
        self.on_message = on_message
        self.on_suback = on_suback
        self.on_closed = on_closed

        self.conn: Connection | None = None
        self.connected = False
        self.dead = False
        self.handshake_path = ""
        self.failure: str | None = None
        self.tx_msg_queue: deque[tuple[int, bytes]] = deque()
        self.rx_msg_queue: deque[MqttMessage] = deque()
        self._rx_buffers: dict[int, bytearray] = {}
        self._next_msgid = 1
        self._pending_qos1: dict[int, dict] = {}
        self._ping_timer = None

        network.register(local_addr, self._on_datagram)

    # -- lifecycle -----------------------------------------------------------

    def _fresh_msgid(self) -> int:
        msgid = self._next_msgid
        self._next_msgid = self._next_msgid % 0xFFFF + 1
        return msgid

    def _make_connection(self) -> Connection:
        cid = self.rng.getrandbits(64)
        session = None
        if self.sessions is not None:
            session = self.sessions.load(*self.broker_addr)
        return Connection(
            role="client", cid=cid, local_addr=self.local_addr,
            peer_addr=self.broker_addr, config=self.config,
            clock=lambda: self.network.clock.now_s,
            scheduler=self._scheduler, on_event=self._on_conn_event,
            rng=self.rng, server_pk=self.server_pk, session=session,
        )

    def connect_mqtt(self) -> str:
        """Build the CONNECT message, sanity-check it, set up the connection,
        and start the handshake. Returns the chosen path (1rtt or 0rtt)."""
        msg = MqttMessage(mqtt.CONNECT, client_id=self.client_id,
                          persistent=self.persistent, keepalive=self.keepalive)
        try:
            raw = mqtt.encode(msg)
        except MqttError as e:
            raise AgentError("instance", str(e)) from None
        self._sanity(raw)
        if self.conn is None:
            self.conn = self._make_connection()
        self.tx_msg_queue.append((PRIMARY_STREAM, raw))
        try:
            self.handshake_path = self.conn.start_connect()
        except Exception as e:
            raise AgentError("transport", str(e)) from None
        self._pump()
        if self.keepalive:
            self._arm_ping()
        return self.handshake_path

    @staticmethod
    def _sanity(raw: bytes) -> None:
        if not mqtt.valid_mqtt_header(raw):
            raise AgentError("sanity", "invalid MQTT header")
        if len(raw) > MAX_MESSAGE_SIZE:
            raise AgentError("sanity", f"message of {len(raw)} bytes exceeds limit")

    # -- application API ------------------------------------------------------

    def subscribe(self, topic: str, qos: int = 0, stream_id: int = PRIMARY_STREAM) -> int:
        if self.conn is None:
            raise AgentError("transport", "not connected")
        msgid = self._fresh_msgid()
        raw = mqtt.encode(MqttMessage(mqtt.SUBSCRIBE, msgid=msgid,
                                      topics=((topic, qos),)))
        self._sanity(raw)
        self.tx_msg_queue.append((stream_id, raw))
        self._pump()
        return msgid

    def publish(self, topic: str, payload: bytes, qos: int = 0,
                retain: bool = False, stream_id: int = PRIMARY_STREAM) -> int:
        if self.conn is None:
            raise AgentError("transport", "not connected")
        msgid = self._fresh_msgid() if qos else 0
        msg = MqttMessage(mqtt.PUBLISH, topic=topic, payload=payload, qos=qos,
                          retained=retain, msgid=msgid)
        raw = mqtt.encode(msg)
        self._sanity(raw)
        self.tx_msg_queue.append((stream_id, raw))
        if qos == 1:
            self._pending_qos1[msgid] = {
                "msg": msg, "stream": stream_id, "tries": 0,
                "timer": self._scheduler(QOS1_RETRY_S, lambda: self._retry_qos1(msgid)),
            }
        self._pump()
        return msgid

    def disconnect(self) -> None:
        """Clean teardown: DISCONNECT and the transport CLOSE leave in one
        datagram."""
        if self.conn is None or self.conn.phase in ("draining", "closed"):
            return
        self.tx_msg_queue.append((PRIMARY_STREAM, mqtt.encode(MqttMessage(mqtt.DISCONNECT))))
        self._drain_tx()
        self.conn.close()
        self._pump()

    def _retry_qos1(self, msgid: int) -> None:
        pending = self._pending_qos1.get(msgid)
        if pending is None or self.conn is None or self.conn.phase in ("draining", "closed"):
            return
        pending["tries"] += 1
        if pending["tries"] > QOS1_MAX_RETRIES:
            del self._pending_qos1[msgid]
            return
        dup = mqtt.encode(
            MqttMessage(mqtt.PUBLISH, topic=pending["msg"].topic,
                        payload=pending["msg"].payload, qos=1, msgid=msgid, dup=True))
        self.tx_msg_queue.append((pending["stream"], dup))
        pending["timer"] = self._scheduler(QOS1_RETRY_S, lambda: self._retry_qos1(msgid))

    def _arm_ping(self) -> None:
        if self._ping_timer is not None:
            self._ping_timer.cancel()
        self._ping_timer = self._scheduler(max(1, self.keepalive), self._send_ping)

    def _send_ping(self) -> None:
        if self.conn is not None and self.conn.phase == "established":
            self.tx_msg_queue.append((PRIMARY_STREAM, mqtt.encode(MqttMessage(mqtt.PINGREQ))))
            self._arm_ping()

    # -- plumbing ----------------------------------------------------------------

    def _scheduler(self, delay_s: float, fn: Callable[[], None]):
        def wrapped():
            fn()
            self._pump()
        return self.network.schedule(delay_s, wrapped)

    def _on_datagram(self, data: bytes, src: Address) -> None:
        if self.conn is None:
            return
        self.conn.handle_datagram(data, src)
        self._pump()

    def _pump(self) -> None:
        if self.conn is None:
            return
        if self.dead:
            self.conn.take_outputs()
            return
        self._drain_tx()
        self.conn.flush()
        for packet, annotation in self.conn.take_outputs():
            self.network.send(packet, self.local_addr, self.conn.peer_addr, annotation)

    def kill(self) -> None:
        """Abrupt process death: no teardown traffic, the address vanishes,
        and every local timer stops. The broker only learns through silence."""
        self.dead = True
        self.connected = False
        try:
            self.network.unregister(self.local_addr)
        except Exception:
            pass
        if self.conn is not None:
            self.conn._cancel_timers()
            self.conn.take_outputs()
            self.conn.phase = "closed"

    def _drain_tx(self) -> None:
        if self.conn is None or self.conn.phase in ("draining", "closed"):
            self.tx_msg_queue.clear()
            return
        while self.tx_msg_queue:
            stream_id, raw = self.tx_msg_queue.popleft()
            self.conn.send_stream(stream_id, raw)

    def set_address(self, new_addr: Address) -> None:
        """Follow a local address change (roaming); the connection survives."""
        self.network.change_address(self.local_addr, new_addr)
        self.local_addr = new_addr
        if self.conn is not None:
            self.conn.local_addr = new_addr

    # -- events -------------------------------------------------------------------

    def _on_conn_event(self, event) -> None:
        if isinstance(event, SessionTicket):
            if self.sessions is not None:
                self.sessions.store(self.broker_addr[0], self.broker_addr[1],
                                    event.scfg, event.stk, self.network.clock.now_s)
        elif isinstance(event, HandshakeDone):
            pass  # MQTT-level connected state arrives with the CONNACK
        elif isinstance(event, HandshakeFailed):
            self.failure = event.reason
        elif isinstance(event, StreamData):
            self._on_stream_data(event)
        elif isinstance(event, Closed):
            self.connected = False
            if self.on_closed is not None:
                self.on_closed(self, event.reason)

    def _on_stream_data(self, event: StreamData) -> None:
        buf = self._rx_buffers.setdefault(event.stream_id, bytearray())
        buf += event.data
        while buf:
            try:
                msg, consumed = mqtt.decode(bytes(buf))
            except mqtt.IncompleteMessage:
                return
            except MqttError:
                buf.clear()
                return
            del buf[:consumed]
            self.quic_dispatcher(msg, event.stream_id)

    def quic_dispatcher(self, msg: MqttMessage, stream_id: int) -> None:
        """Client branch of the dispatcher: surface the message to the
        application queue and react to the session-level responses."""
        self.rx_msg_queue.append(msg)
        if msg.kind == mqtt.CONNACK:
            self.connected = True
            if self.on_connected is not None:
                self.on_connected(self)
        elif msg.kind == mqtt.SUBACK:
            if self.on_suback is not None:
                self.on_suback(self, msg.msgid)
        elif msg.kind == mqtt.PUBLISH:
            if msg.qos == 1:
                self.tx_msg_queue.append(
                    (stream_id, mqtt.encode(MqttMessage(mqtt.PUBACK, msgid=msg.msgid))))
            if self.on_message is not None:
                self.on_message(self, msg)
        elif msg.kind == mqtt.PUBACK:
            pending = self._pending_qos1.pop(msg.msgid, None)
            if pending is not None and pending["timer"] is not None:
                pending["timer"].cancel()


# ---------------------------------------------------------------------------
# Server agent
# ---------------------------------------------------------------------------

@dataclass
class _ConnState:
    conn: Connection
    rx_buffers: dict[int, bytearray] = field(default_factory=dict)
    sub_streams: dict[str, int] = field(default_factory=dict)
    primary_stream: int = PRIMARY_STREAM
    pending_qos1: dict[int, dict] = field(default_factory=dict)


class ServerAgent:
    """The broker-side agent: accepts connections, advances handshakes, and
    routes decrypted MQTT messages through the broker's topic table."""

    def __init__(self, network: SimNetwork, addr: Address, identity: ServerIdentity,
                 broker: Broker | None = None,
                 config: TransportConfig | None = None,
                 rng: Random | None = None):
        self.network = network
        self.addr = addr
        self.identity = identity
        self.broker = broker if broker is not None else Broker()
        self.config = config or TransportConfig()
        self.rng = rng if rng is not None else Random()
        self.conns: dict[int, _ConnState] = {}
        self.cids_seen: set[int] = set()
        self.rx_errors = 0
        self.mqtt_errors = 0
        self.migrations = 0
        self.closed_reasons: list[str] = []
        network.register(addr, self.on_datagram)

    # -- state accounting ------------------------------------------------

    def connection_count(self) -> int:
        return len(self.conns)

    # -- event entry points ---------------------------------------------------------

    def shutdown(self) -> None:
        """Broker shutdown (reboot): a disconnect for every client at once."""
        for state in list(self.conns.values()):
            state.conn.close(error_code=0, reason=b"shutdown")
            self._pump(state.conn)

    def on_datagram(self, data: bytes, src: Address) -> None:
        try:
            header, _ = decode_header(data)
        except WireError:
            self.rx_errors += 1
            return
        state = self.conns.get(header.cid)
        if state is None:
            if header.epoch != EPOCH_CLEAR:
                self.rx_errors += 1  # unknown cid: drop, no state change
                return
            state = self._new_conn(header.cid, src)
        # The connection advances the handshake or decrypts and dispatches;
        # our event hook handles the rest.
        conn = state.conn
        conn.handle_datagram(data, src)
        if conn.phase == "idle" and conn.auth_failures:
            # Garbage that never started a handshake: drop the slot.
            self.conns.pop(conn.cid, None)
            return
        self._pump(conn)

    def _new_conn(self, cid: int, src: Address) -> _ConnState:
        cell: dict = {}

        def schedule(delay_s: float, fn: Callable[[], None]):
            def wrapped():
                fn()
                if "conn" in cell:
                    self._pump(cell["conn"])
            return self.network.schedule(delay_s, wrapped)

        conn = Connection(
            role="server", cid=cid, local_addr=self.addr, peer_addr=src,
            config=self.config, clock=lambda: self.network.clock.now_s,
            scheduler=schedule,
            on_event=lambda event: self._on_conn_event(cell["state"], event),
            rng=self.rng, identity=self.identity,
        )
        state = _ConnState(conn=conn)
        cell["conn"] = conn
        cell["state"] = state
        self.conns[cid] = state
        self.cids_seen.add(cid)
        return state

    def _pump(self, conn: Connection) -> None:
        conn.flush()
        for packet, annotation in conn.take_outputs():
            self.network.send(packet, self.addr, conn.peer_addr, annotation)

    # -- connection events -------------------------------------------------------------

    def _on_conn_event(self, state: _ConnState, event) -> None:
        if isinstance(event, StreamData):
            self._on_stream_data(state, event)
        elif isinstance(event, Migrated):
            self.migrations += 1
        elif isinstance(event, Closed):
            self.closed_reasons.append(event.reason)
            self.broker.drop_connection(state.conn)
            self.conns.pop(state.conn.cid, None)

    def _on_stream_data(self, state: _ConnState, event: StreamData) -> None:
        buf = state.rx_buffers.setdefault(event.stream_id, bytearray())
        buf += event.data
        while buf:
            head = bytes(buf)
            if not mqtt.valid_mqtt_header(head):
                # Not even a plausible header: drop the payload, keep the
                # connection.
                self.mqtt_errors += 1
                buf.clear()
                return
            try:
                msg, consumed = mqtt.decode(head)
            except mqtt.IncompleteMessage:
                return
            except MqttError:
                self.mqtt_errors += 1
                buf.clear()
                return
            del buf[:consumed]
            self.quic_dispatcher(state, msg, event.stream_id)

    def quic_dispatcher(self, state: _ConnState, msg: MqttMessage,
                        stream_id: int) -> None:
        """Broker branch of the dispatcher: parsed MQTT messages route by
        topic to every live subscriber."""
        if msg.kind == mqtt.CONNECT:
            state.primary_stream = stream_id
        elif msg.kind == mqtt.SUBSCRIBE:
            for topic, _ in msg.topics:
                state.sub_streams[topic] = stream_id
        elif msg.kind == mqtt.PUBACK:
            pending = state.pending_qos1.pop(msg.msgid, None)
            if pending is not None and pending["timer"] is not None:
                pending["timer"].cancel()
        try:
            deliveries = self.broker.handle(msg, state.conn)
        except MqttError:
            self.mqtt_errors += 1
            return
        touched = set()
        for delivery in deliveries:
            target: Connection = delivery.conn
            target_state = self.conns.get(target.cid)
            if target_state is None or target.phase in ("draining", "closed"):
                continue
            out_stream = self._stream_for(target_state, delivery.message, stream_id,
                                          source=state)
            try:
                target.send_stream(out_stream, mqtt.encode(delivery.message))
            except TransportError:
                continue
            if delivery.message.kind == mqtt.PUBLISH and delivery.message.qos == 1:
                self._track_qos1(target_state, delivery.message, out_stream)
            touched.add(target.cid)
        for cid in touched:
            conn_state = self.conns.get(cid)
            if conn_state is not None and conn_state.conn is not state.conn:
                self._pump(conn_state.conn)

    def _stream_for(self, target: _ConnState, msg: MqttMessage,
                    arrival_stream: int, source: _ConnState) -> int:
        if msg.kind == mqtt.PUBLISH:
            for topic_filter, stream_id in sorted(target.sub_streams.items()):
                if mqtt.topic_matches(topic_filter, msg.topic):
                    return stream_id
            return target.primary_stream
        if target is source:
            return arrival_stream
        return target.primary_stream

    def _track_qos1(self, state: _ConnState, msg: MqttMessage, stream_id: int) -> None:
        entry = {"msg": msg, "stream": stream_id, "tries": 0, "timer": None}
        state.pending_qos1[msg.msgid] = entry
        entry["timer"] = state.conn.scheduler(
            QOS1_RETRY_S, lambda: self._retry_qos1(state, msg.msgid))

    def _retry_qos1(self, state: _ConnState, msgid: int) -> None:
        entry = state.pending_qos1.get(msgid)
        if entry is None or state.conn.phase in ("draining", "closed"):
            return
        entry["tries"] += 1
        if entry["tries"] > QOS1_MAX_RETRIES:
            del state.pending_qos1[msgid]
            return
        dup = mqtt.encode(
            MqttMessage(mqtt.PUBLISH, topic=entry["msg"].topic,
                        payload=entry["msg"].payload, qos=1,
                        msgid=msgid, dup=True))
        try:
            state.conn.send_stream(entry["stream"], dup)
        except TransportError:
            return
        entry["timer"] = state.conn.scheduler(
            QOS1_RETRY_S, lambda: self._retry_qos1(state, msgid))
