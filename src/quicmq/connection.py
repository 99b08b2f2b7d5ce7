"""The QUIC-style connection: a single-threaded state machine that turns
datagrams and timers into stream deliveries, and application writes into
sealed packets.

One instance owns one connection end. All mutation happens through
``handle_datagram``, timer callbacks, and the application-facing send
methods; the endpoint driving the connection flushes output packets to the
network after each entry point. Events (handshake completion, stream data,
migration, close) are delivered inline through ``on_event`` so the agent can
queue responses before the flush.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, Iterator

from . import wire
from .crypto import KeySet, NULL_KEYS
from .handshake import (
    ClientHelloSecrets,
    HandshakeError,
    ServerConfig,
    ServerIdentity,
    build_full_chlo,
    build_inchoate_chlo,
    build_rej,
    check_scfg,
    derive_ik_client,
    derive_k_client,
    is_full_chlo,
    parse_rej,
)
from .netsim import Address
from .wire import (
    AckFrame,
    CloseFrame,
    EPOCH_CLEAR,
    EPOCH_IK,
    EPOCH_K,
    HANDSHAKE_PACKET_LEN,
    HANDSHAKE_STREAM_ID,
    HandshakeMessage,
    MARKER_DATA,
    MARKER_HANDSHAKE,
    PacketHeader,
    PingFrame,
    RstStreamFrame,
    StreamFrame,
    WindowUpdateFrame,
    WireError,
    decode_frames,
    decode_header,
    encode_frames,
    open_packet_body,
    seal_packet,
)

# Connection phases.
IDLE = "idle"
INITIAL_SENT = "initial_sent"
REJECTED = "rejected"
KEY_EXCHANGED = "key_exchanged"
ESTABLISHED = "established"
DRAINING = "draining"
CLOSED = "closed"

MAX_STREAM_CHUNK = 1200


class TransportError(Exception):
    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}{': ' + detail if detail else ''}")
        self.reason = reason


@dataclass(frozen=True)
class TransportConfig:
    idle_timeout_s: float = 30.0
    drain_period_s: float = 10.0
    stream_window: int = 64 * 1024
    connection_window: int = 256 * 1024
    congestion_window_packets: int = 32
    rto_floor_s: float = 0.2
    nack_threshold: int = 3
    handshake_retry_s: float = 0.3
    max_handshake_retries: int = 8


@dataclass(frozen=True)
class CachedSession:
    """Client-side resumption state loaded from a session file."""
    scfg: ServerConfig
    stk: bytes


# -- events delivered to the agent ------------------------------------------

@dataclass(frozen=True)
class HandshakeDone:
    resumed: bool


@dataclass(frozen=True)
class HandshakeFailed:
    reason: str


@dataclass(frozen=True)
class StreamData:
    stream_id: int
    data: bytes
    fin: bool


@dataclass(frozen=True)
class Migrated:
    old: Address
    new: Address


@dataclass(frozen=True)
class Closed:
    reason: str


@dataclass(frozen=True)
class SessionTicket:
    """Fresh resumption material to persist (scfg from the REJ, stk
    refreshed by every REJ and SHLO)."""
    scfg: ServerConfig
    stk: bytes


# -- helper records ----------------------------------------------------------


@dataclass
class SentPacket:
    sqn: int
    sent_at: float
    frames: tuple  # retransmittable frames only
    nack_count: int = 0

    def has_close(self) -> bool:
        return any(isinstance(f, CloseFrame) for f in self.frames)


class Stream:
    """One bidirectional stream: send buffering with offset accounting and
    receive reassembly that never delivers a byte twice."""

    def __init__(self, stream_id: int, window: int):
        self.stream_id = stream_id
        # send side
        self.send_queue: list[tuple[bytes, bool]] = []
        self.send_offset = 0  # next offset to packetize
        self.queued_bytes = 0
        self.fin_queued = False
        self.fin_sent = False
        self.peer_limit = window
        # receive side
        self.fragments: dict[int, bytes] = {}
        self.delivered = 0
        self.fin_offset: int | None = None
        self.advertised = window
        self.window = window
        self.state = "open"

    # -- send --------------------------------------------------------------

    def write(self, data: bytes, fin: bool = False) -> None:
        if self.state == "closed" or self.fin_queued:
            raise TransportError("stream_closed", f"stream {self.stream_id}")
        if data or fin:
            self.send_queue.append((data, fin))
            self.queued_bytes += len(data)
            if fin:
                self.fin_queued = True

    def sendable(self, conn_room: int) -> int:
        room = min(self.peer_limit - self.send_offset, conn_room, MAX_STREAM_CHUNK)
        return max(0, min(self.queued_bytes, room))

    def has_pending(self) -> bool:
        return self.queued_bytes > 0 or (self.fin_queued and not self.fin_sent)

    def blocked(self, conn_room: int) -> bool:
        return self.queued_bytes > 0 and self.sendable(conn_room) == 0

    def take_chunk(self, limit: int) -> tuple[bytes, bool, int]:
        """Dequeue up to ``limit`` bytes; returns (data, fin, offset)."""
        out = bytearray()
        fin = False
        while self.send_queue and len(out) < limit:
            data, f = self.send_queue[0]
            take = min(len(data), limit - len(out))
            out += data[:take]
            if take < len(data):
                self.send_queue[0] = (data[take:], f)
            else:
                self.send_queue.pop(0)
                fin = f
        if not out and self.fin_queued and not self.fin_sent and not self.send_queue:
            fin = True
        self.queued_bytes -= len(out)
        offset = self.send_offset
        self.send_offset += len(out)
        if fin:
            self.fin_sent = True
        return bytes(out), fin, offset

    # -- receive ------------------------------------------------------------

    def accept(self, frame: StreamFrame) -> list[tuple[bytes, bool]]:
        """Insert a fragment, returning newly contiguous (data, fin) chunks."""
        end = frame.offset + len(frame.data)
        if frame.fin:
            if self.fin_offset is not None and self.fin_offset != end:
                raise TransportError("final_offset_changed",
                                     f"stream {self.stream_id}")
            self.fin_offset = end
        if self.fin_offset is not None and end > self.fin_offset:
            raise TransportError("data_past_final_offset")
        if end > self.delivered:
            start = frame.offset
            data = frame.data
            if start < self.delivered:
                data = data[self.delivered - start:]
                start = self.delivered
            existing = self.fragments.get(start)
            if existing is None or len(existing) < len(data):
                self.fragments[start] = data
        out = []
        while self.delivered in self.fragments:
            data = self.fragments.pop(self.delivered)
            self.delivered += len(data)
            fin = self.fin_offset == self.delivered
            out.append((data, fin))
        if not out and frame.fin and self.fin_offset == self.delivered:
            out.append((b"", True))
        return out


class Connection:
    """One end of a connection. ``role`` is "client" or "server"."""

    def __init__(self, role: str, cid: int, local_addr: Address, peer_addr: Address,
                 config: TransportConfig, clock: Callable[[], float],
                 scheduler: Callable[[float, Callable[[], None]], object],
                 on_event: Callable[[object], None],
                 rng: Random | None = None,
                 server_pk: bytes | None = None,
                 identity: ServerIdentity | None = None,
                 session: CachedSession | None = None):
        self.role = role
        self.cid = cid
        self.local_addr = local_addr
        self.peer_addr = peer_addr
        self.config = config
        self.clock = clock
        self.scheduler = scheduler
        self.on_event = on_event
        self.rng = rng if rng is not None else Random()
        self.server_pk = server_pk
        self.identity = identity
        self.session = session

        self.phase = IDLE
        self.handshake_completed = False
        self.ik: KeySet | None = None
        self.k: KeySet | None = None

        # One send counter per direction; receipts deduplicated by sqn.
        self.next_sqn = 1
        self._last_sqn = 0  # high-water mark of allocated sqns
        self.received_sqns: set[int] = set()
        self.largest_received = 0
        self.ack_needed = False
        self._acked_upto = 0
        self._acked_count = 0
        self.auth_failures = 0
        self.last_reject_reason = ""

        self.streams: dict[int, Stream] = {}
        self.closed_streams: set[int] = set()
        self._next_stream_id = 1 if role == "client" else 2
        self.conn_bytes_sent = 0
        self.peer_conn_limit = config.connection_window
        self.conn_delivered = 0
        self.conn_advertised = config.connection_window

        self.sent_packets: dict[int, SentPacket] = {}
        self.srtt: float | None = None
        self._rto_timer = None
        self._idle_timer = None
        self._last_rx = clock()

        self.outputs: list[tuple[bytes, str]] = []
        self._control_frames: list = []
        self._close_pending: CloseFrame | None = None
        self._close_sent = False
        self._close_received = False

        # handshake driver state
        self._hs_secrets: ClientHelloSecrets | None = None
        self._hs_scfg: ServerConfig | None = None
        self._hs_chlo_msg: HandshakeMessage | None = None
        self._hs_retries = 0
        self._rej_count = 0
        self._hs_timer = None
        self._hs_nonc: bytes | None = None
        self._hs_chlo_wire: bytes | None = None
        self._hs_client_pub: bytes | None = None
        self._hs_shlo_inner: bytes | None = None
        self._resumed = False

        self._arm_idle_timer()

    # ------------------------------------------------------------------ utils

    def _emit(self, event) -> None:
        self.on_event(event)

    def _now(self) -> float:
        return self.clock()

    def _alloc_sqn(self) -> int:
        """Hand out the next sequence number. A number at or below one
        already spent would reuse a nonce under the same key (RFC 9000
        §12.3), so it is refused rather than sealed."""
        sqn = self.next_sqn
        if sqn <= self._last_sqn:
            raise TransportError("sqn_reuse", str(sqn))
        self._last_sqn = sqn
        self.next_sqn = sqn + 1
        return sqn

    def _keys_for_epoch(self, epoch: int) -> KeySet | None:
        if epoch == EPOCH_CLEAR:
            return NULL_KEYS
        if epoch == EPOCH_IK:
            return self.ik
        if epoch == EPOCH_K:
            return self.k
        return None

    def _send_epoch(self) -> int:
        return EPOCH_K if self.handshake_completed else EPOCH_IK

    def _transmit(self, packet: bytes, annotation: str) -> None:
        self.outputs.append((packet, annotation))

    def take_outputs(self) -> list[tuple[bytes, str]]:
        out = self.outputs
        self.outputs = []
        return out

    # ------------------------------------------------------------- handshake

    def start_connect(self) -> str:
        """Client entry point: begin 1-RTT, or resume at 0-RTT when usable
        cached session material is present. Returns the chosen path."""
        assert self.role == "client"
        if self.session is not None:
            try:
                check_scfg(self.session.scfg, self.server_pk, self._now())
                self._start_resume()
                return "0rtt"
            except HandshakeError:
                pass  # unusable cache: fall back to a fresh 1-RTT
        self._start_1rtt()
        return "1rtt"

    def _start_1rtt(self) -> None:
        self._send_handshake_msg(build_inchoate_chlo(), "chlo_inchoate", first=True)
        self.phase = INITIAL_SENT
        self._arm_handshake_timer()

    def _start_resume(self) -> None:
        cfg = self.session.scfg
        msg, secrets = build_full_chlo(cfg, self.session.stk, self._now(), self.rng)
        self._hs_scfg = cfg
        self._send_full_chlo(msg, secrets, first=True)
        self._resumed = True
        self._arm_handshake_timer()

    def _send_full_chlo(self, msg: HandshakeMessage, secrets: ClientHelloSecrets,
                        first: bool = False) -> None:
        packet, padded_bytes = self._build_handshake_packet(msg, first=first)
        secrets.chlo_wire = padded_bytes
        self._hs_secrets = secrets
        self._hs_chlo_msg = msg
        self.ik = derive_ik_client(secrets, self._hs_scfg, self.cid)
        self.phase = KEY_EXCHANGED
        self._transmit(packet, "chlo_full")
        # Initial data already queued by the application follows under ik in
        # the same flush, right behind the hello.

    def _build_handshake_packet(self, msg: HandshakeMessage,
                                first: bool = False) -> tuple[bytes, bytes]:
        """Pad a CHLO/REJ to the fixed handshake size, inside a cleartext
        packet carried on the handshake stream."""
        header_extra = 4 if first else 0
        # header(17+extra) + marker(1) + stream frame header(18) + tag(16)
        overhead = 17 + header_extra + 1 + 18 + 16
        padded = msg.padded(HANDSHAKE_PACKET_LEN - overhead)
        padded_bytes = padded.encode()
        frame = StreamFrame(HANDSHAKE_STREAM_ID, 0, padded_bytes, False)
        header = PacketHeader(
            cid=self.cid, sqn=self._alloc_sqn(), epoch=EPOCH_CLEAR,
            version=wire.VERSION if first else None,
        )
        plain = bytes([MARKER_HANDSHAKE]) + encode_frames([frame])
        packet = seal_packet(header, plain, NULL_KEYS, self.role)
        assert len(packet) == HANDSHAKE_PACKET_LEN, len(packet)
        return packet, padded_bytes

    def _send_handshake_msg(self, msg: HandshakeMessage, annotation: str,
                            first: bool = False) -> None:
        packet, _ = self._build_handshake_packet(msg, first=first)
        self._transmit(packet, annotation)

    def _arm_handshake_timer(self) -> None:
        if self._hs_timer is not None:
            self._hs_timer.cancel()
        self._hs_timer = self.scheduler(self.config.handshake_retry_s,
                                        self._handshake_retry)

    def _handshake_retry(self) -> None:
        if self.phase in (ESTABLISHED, DRAINING, CLOSED):
            return
        self._hs_retries += 1
        if self._hs_retries > self.config.max_handshake_retries:
            self._fail_handshake("handshake_timeout")
            return
        if self.role == "client":
            if self.phase == INITIAL_SENT:
                self._send_handshake_msg(build_inchoate_chlo(), "chlo_inchoate retx",
                                         first=True)
            elif self.phase == KEY_EXCHANGED and self._hs_chlo_msg is not None:
                packet, _ = self._build_handshake_packet(self._hs_chlo_msg)
                self._transmit(packet, "chlo_full retx")
        self._arm_handshake_timer()

    def _fail_handshake(self, reason: str) -> None:
        self.phase = CLOSED
        self._cancel_timers()
        self._emit(HandshakeFailed(reason))

    # ------------------------------------------------------------- datagrams

    def handle_datagram(self, data: bytes, src: Address) -> None:
        if self.phase == CLOSED:
            return
        try:
            header, hlen = decode_header(data)
        except WireError:
            self.auth_failures += 1
            return
        if header.cid != self.cid:
            self.auth_failures += 1
            return
        keys = self._keys_for_epoch(header.epoch)
        if keys is None:
            self.auth_failures += 1
            return
        plain = open_packet_body(header, hlen, data, keys, self.role)
        if plain is None:
            self.auth_failures += 1
            return
        if header.sqn in self.received_sqns:
            return  # duplicate delivery (replay or spurious retransmission)
        self.received_sqns.add(header.sqn)
        self.largest_received = max(self.largest_received, header.sqn)
        # Cleartext packets are sealed under a public key set, so they are
        # spoofable: they neither refresh the idle timer nor migrate the peer.
        if header.epoch != EPOCH_CLEAR:
            self._last_rx = self._now()

        if self.phase == DRAINING:
            # Only a peer CLOSE still matters while draining.
            if plain and plain[0] == MARKER_DATA:
                try:
                    frames = decode_frames(plain[1:])
                except WireError:
                    return
                for frame in frames:
                    if isinstance(frame, CloseFrame):
                        self._on_close_frame(frame)
            return

        # Authenticated non-probe traffic from a new address migrates the peer.
        if (src != self.peer_addr and self.phase == ESTABLISHED
                and header.epoch != EPOCH_CLEAR):
            old = self.peer_addr
            self.peer_addr = src
            self._emit(Migrated(old, src))

        marker = plain[0] if plain else None
        payload = plain[1:]
        if marker == MARKER_HANDSHAKE:
            self._handle_handshake_payload(header, payload, src)
        elif marker == MARKER_DATA:
            self._handle_data_payload(header, payload)
        else:
            self.auth_failures += 1

    # -- handshake payloads ------------------------------------------------

    def _handle_handshake_payload(self, header: PacketHeader, payload: bytes,
                                  src: Address) -> None:
        try:
            frames = decode_frames(payload)
        except WireError:
            self.auth_failures += 1
            return
        stream_data = b"".join(f.data for f in frames if isinstance(f, StreamFrame))
        if header.epoch == EPOCH_CLEAR:
            try:
                msg = HandshakeMessage.decode(stream_data)
            except WireError:
                self.auth_failures += 1
                return
            if self.role == "server":
                self._server_on_chlo(msg, stream_data, src)
            else:
                self._client_on_rej(msg)
        elif header.epoch == EPOCH_IK and self.role == "client":
            self._client_on_shlo(stream_data)

    def _client_on_rej(self, msg: HandshakeMessage) -> None:
        if msg.kind != wire.MSG_REJ:
            return
        if self.phase not in (INITIAL_SENT, KEY_EXCHANGED):
            return
        self._rej_count += 1
        if self._rej_count > 4:
            self._fail_handshake("too_many_rejects")
            return
        try:
            scfg, stk = parse_rej(msg)
            check_scfg(scfg, self.server_pk, self._now())
        except HandshakeError as e:
            self._fail_handshake(e.reason)
            return
        # The REJ both answers an inchoate hello and rejects a resumption
        # attempt; either way the next step is a fresh full CHLO.
        if self.phase == KEY_EXCHANGED:
            self._requeue_unacked_data()
        self.phase = REJECTED
        self._hs_scfg = scfg
        self._emit(SessionTicket(scfg, stk))
        chlo, secrets = build_full_chlo(scfg, stk, self._now(), self.rng)
        self._send_full_chlo(chlo, secrets)
        self._arm_handshake_timer()

    def _client_on_shlo(self, inner: bytes) -> None:
        if self.phase != KEY_EXCHANGED or self.role != "client":
            return
        try:
            msg = HandshakeMessage.decode(inner)
        except WireError:
            self.auth_failures += 1
            return
        if msg.kind != wire.MSG_SHLO:
            return
        pubs = msg.fields.get(wire.TAG_PUBS, b"")
        if not pubs or pubs[0] != self._hs_scfg.group_id:
            self._fail_handshake("group_mismatch")
            return
        try:
            self.k = derive_k_client(self._hs_secrets, self._hs_scfg, self.cid,
                                     inner, pubs[1:])
        except Exception:
            self._fail_handshake("shlo_invalid")
            return
        self.phase = ESTABLISHED
        self.handshake_completed = True
        if self._hs_timer is not None:
            self._hs_timer.cancel()
            self._hs_timer = None
        stk = msg.fields.get(wire.TAG_STK)
        if stk:
            self._emit(SessionTicket(self._hs_scfg, stk))
        self._emit(HandshakeDone(resumed=self._resumed))

    def _server_on_chlo(self, msg: HandshakeMessage, chlo_wire: bytes,
                        src: Address) -> None:
        identity = self.identity
        now = self._now()
        if msg.kind != wire.MSG_CHLO:
            self.auth_failures += 1  # a stray REJ/SHLO: dropped silently
            return
        if not is_full_chlo(msg):
            # Inchoate hello: answer (or repeat) the server config.
            if self.phase in (IDLE, REJECTED):
                rej = build_rej(identity.scfg, identity.k_stk, src[0], now, self.rng)
                self._send_handshake_msg(rej, "rej")
                self.phase = REJECTED
            return
        if self._hs_nonc is not None and msg.fields.get(wire.TAG_NONC) == self._hs_nonc:
            # Client retransmission after a lost server flight: repeat the
            # settlement without re-deriving or re-accepting anything.
            self._server_repeat_flight()
            return
        if self.phase in (KEY_EXCHANGED, ESTABLISHED):
            # A different nonce on a live connection is never accepted.
            self._reject_chlo(src, now, "chlo_on_live_connection")
            return
        try:
            ik, nonc = identity.validate_full_chlo(msg, chlo_wire, src[0], self.cid, now)
        except HandshakeError as e:
            self._reject_chlo(src, now, e.reason)
            return
        self.ik = ik
        self._hs_nonc = nonc
        self._hs_chlo_wire = chlo_wire
        self._hs_client_pub = msg.fields[wire.TAG_PUBC][1:]
        self.phase = KEY_EXCHANGED
        # Continue after any initial data that arrived in the same flight.
        self.scheduler(0, self._server_continue)

    def _reject_chlo(self, src: Address, now: float, reason: str) -> None:
        self.last_reject_reason = reason
        rej = build_rej(self.identity.scfg, self.identity.k_stk, src[0], now, self.rng)
        self._send_handshake_msg(rej, "rej")

    def _server_continue(self) -> None:
        """Phase boundary after the initial-data exchange: ack what arrived
        under ik, settle the forward-secure key, then release queued data."""
        if self.phase != KEY_EXCHANGED or self.role != "server":
            return
        self._send_ack_packet(EPOCH_IK)
        shlo, ephemeral = self.identity.build_shlo(self.peer_addr[0], self._now(),
                                                   self.rng)
        inner = shlo.encode()
        self._transmit(self._seal_shlo(inner), "shlo")
        self._hs_shlo_inner = inner
        self.k = self.identity.derive_k_server(
            ephemeral, self._hs_client_pub, self._hs_nonc, self.cid,
            self._hs_chlo_wire, inner)
        self.phase = ESTABLISHED
        self.handshake_completed = True
        self._emit(HandshakeDone(resumed=False))
        self.flush()

    def _seal_shlo(self, inner: bytes) -> bytes:
        frame = StreamFrame(HANDSHAKE_STREAM_ID, 0, inner, False)
        header = PacketHeader(cid=self.cid, sqn=self._alloc_sqn(), epoch=EPOCH_IK,
                              div_nonce=self.identity.scfg.div_nonce)
        return seal_packet(header, bytes([MARKER_HANDSHAKE]) + encode_frames([frame]),
                           self.ik, self.role)

    def _server_repeat_flight(self) -> None:
        if self._hs_shlo_inner is None or self.ik is None:
            return
        self._transmit(self._seal_shlo(self._hs_shlo_inner), "shlo retx")

    # -- data payloads --------------------------------------------------------

    def _handle_data_payload(self, header: PacketHeader, payload: bytes) -> None:
        try:
            frames = decode_frames(payload)
        except WireError:
            self.auth_failures += 1
            return
        ack_eliciting = False
        for frame in frames:
            if isinstance(frame, AckFrame):
                self._on_ack_frame(frame)
            elif isinstance(frame, StreamFrame):
                ack_eliciting = True
                self._on_stream_frame(frame)
            elif isinstance(frame, WindowUpdateFrame):
                ack_eliciting = True
                self._on_window_update(frame)
            elif isinstance(frame, RstStreamFrame):
                ack_eliciting = True
                self._on_rst_stream(frame)
            elif isinstance(frame, PingFrame):
                ack_eliciting = True
            elif isinstance(frame, CloseFrame):
                self._on_close_frame(frame)
                return
        if ack_eliciting:
            self.ack_needed = True

    def _on_stream_frame(self, frame: StreamFrame) -> None:
        if frame.stream_id == HANDSHAKE_STREAM_ID:
            return
        stream = self.streams.get(frame.stream_id)
        if stream is None:
            if frame.stream_id in self.closed_streams:
                return
            stream = Stream(frame.stream_id, self.config.stream_window)
            self.streams[frame.stream_id] = stream
        before = stream.delivered
        try:
            chunks = stream.accept(frame)
        except TransportError as e:
            self.close(error_code=1, reason=e.reason.encode())
            return
        for data, fin in chunks:
            self._emit(StreamData(frame.stream_id, data, fin))
        delivered_now = stream.delivered - before
        if delivered_now:
            self.conn_delivered += delivered_now
            self._maybe_advertise(stream)

    def _maybe_advertise(self, stream: Stream) -> None:
        if stream.advertised - stream.delivered <= stream.window // 2:
            stream.advertised = stream.delivered + stream.window
            self._control_frames.append(
                WindowUpdateFrame(stream.stream_id, stream.advertised))
        if self.conn_advertised - self.conn_delivered <= self.config.connection_window // 2:
            self.conn_advertised = self.conn_delivered + self.config.connection_window
            self._control_frames.append(WindowUpdateFrame(0, self.conn_advertised))

    def _on_window_update(self, frame: WindowUpdateFrame) -> None:
        if frame.stream_id == 0:
            self.peer_conn_limit = max(self.peer_conn_limit, frame.byte_offset)
            return
        stream = self.streams.get(frame.stream_id)
        if stream is not None:
            stream.peer_limit = max(stream.peer_limit, frame.byte_offset)

    def _on_rst_stream(self, frame: RstStreamFrame) -> None:
        stream = self.streams.get(frame.stream_id)
        if stream is None:
            return
        if stream.fin_offset is not None and stream.fin_offset != frame.final_offset:
            self.close(error_code=1, reason=b"final_offset_changed")
            return
        stream.state = "closed"
        self.closed_streams.add(frame.stream_id)
        self.streams.pop(frame.stream_id, None)
        self._emit(StreamData(frame.stream_id, b"", True))

    def _on_close_frame(self, frame: CloseFrame) -> None:
        self._close_received = True
        if not self._close_sent and self.phase not in (CLOSED,):
            self._close_pending = CloseFrame(frame.error_code, b"")
            self._flush_close()
        self._become_closed(f"peer_close:{frame.error_code}")

    # -- acks and loss -----------------------------------------------------------

    def _on_ack_frame(self, frame: AckFrame) -> None:
        nacked: set[int] = set()
        for start, end in frame.nack_ranges:
            nacked.update(range(start, end + 1))
        now = self._now()
        for sqn, record in list(self.sent_packets.items()):
            if sqn in nacked:
                record.nack_count += 1
                if record.nack_count >= self.config.nack_threshold:
                    self._retransmit(record)
            elif sqn <= frame.largest_observed:
                rtt = now - record.sent_at
                self.srtt = rtt if self.srtt is None else 0.875 * self.srtt + 0.125 * rtt
                del self.sent_packets[sqn]
        self._maybe_flush_blocked()

    def _retransmit(self, record: SentPacket) -> None:
        """Move a lost packet's frames into a fresh packet under a fresh
        sequence number; the original sqn is never reused."""
        self.sent_packets.pop(record.sqn, None)
        frames = list(record.frames)
        if not frames:
            return
        close = next((f for f in frames if isinstance(f, CloseFrame)), None)
        frames = [f for f in frames if not isinstance(f, CloseFrame)]
        self._send_data_packet(frames, retx=True, close=close)

    def _rto(self) -> float:
        if self.srtt is None:
            return self.config.rto_floor_s
        return max(self.config.rto_floor_s, 2.0 * self.srtt)

    def _arm_rto_timer(self) -> None:
        if self._rto_timer is not None:
            return
        self._rto_timer = self.scheduler(self._rto(), self._on_rto)

    def _on_rto(self) -> None:
        self._rto_timer = None
        if self.phase == CLOSED:
            return
        if self.role == "client" and not self.handshake_completed:
            # The hello retry timer owns recovery until settlement; initial
            # data that was lost goes out again under k once established.
            if self.sent_packets:
                self._arm_rto_timer()
            return
        now = self._now()
        rto = self._rto()
        for record in list(self.sent_packets.values()):
            if now - record.sent_at < rto:
                continue
            if self.phase == DRAINING and not record.has_close():
                continue
            self._retransmit(record)
        if self.sent_packets:
            self._arm_rto_timer()
        if self.phase != DRAINING:
            self.flush()

    def _can_send_packet(self) -> bool:
        return len(self.sent_packets) < self.config.congestion_window_packets

    # -- idle / teardown ---------------------------------------------------------

    def _arm_idle_timer(self) -> None:
        if self._idle_timer is not None:
            self._idle_timer.cancel()
        self._idle_timer = self.scheduler(self.config.idle_timeout_s, self._on_idle)

    def _on_idle(self) -> None:
        self._idle_timer = None
        if self.phase in (DRAINING, CLOSED):
            return
        now = self._now()
        deadline = self._last_rx + self.config.idle_timeout_s
        if now + 1e-6 >= deadline:  # clock granularity is one microsecond
            self.phase = DRAINING
            self.scheduler(self.config.drain_period_s, self._drain_done)
        else:
            self._idle_timer = self.scheduler(deadline - now, self._on_idle)

    def _drain_done(self) -> None:
        if self.phase == DRAINING:
            self._become_closed("idle_timeout")

    def _become_closed(self, reason: str) -> None:
        if self.phase == CLOSED:
            return
        self.phase = CLOSED
        self._cancel_timers()
        self.streams.clear()
        self.ik = None
        self.k = None
        self._emit(Closed(reason))

    def _cancel_timers(self) -> None:
        for timer in (self._idle_timer, self._rto_timer, self._hs_timer):
            if timer is not None:
                timer.cancel()
        self._idle_timer = self._rto_timer = self._hs_timer = None

    def close(self, error_code: int = 0, reason: bytes = b"") -> None:
        """Start a clean close. The CLOSE frame rides in one packet with any
        final stream data still queued (the usual DISCONNECT)."""
        if self.phase in (DRAINING, CLOSED) or self._close_sent:
            return
        self._close_pending = CloseFrame(error_code, reason)

    # ------------------------------------------------------------------ app API

    def stream_open(self, stream_id: int | None = None) -> Stream:
        """Find or create a stream. Reuses an existing open stream; touching
        a closed one clears its entry and reports the error."""
        if stream_id is None:
            stream_id = self._next_stream_id
        if stream_id in self.closed_streams:
            self.closed_streams.discard(stream_id)
            raise TransportError("stream_closed", f"stream {stream_id}")
        existing = self.streams.get(stream_id)
        if existing is not None:
            return existing
        if stream_id >= self._next_stream_id and stream_id % 2 == self._next_stream_id % 2:
            self._next_stream_id = stream_id + 2
        stream = Stream(stream_id, self.config.stream_window)
        self.streams[stream_id] = stream
        return stream

    def find_stream(self, stream_id: int) -> Stream | None:
        return self.streams.get(stream_id)

    def send_stream(self, stream_id: int, data: bytes, fin: bool = False) -> None:
        if self.phase in (DRAINING, CLOSED):
            raise TransportError("connection_closed")
        if stream_id == HANDSHAKE_STREAM_ID:
            raise TransportError("reserved_stream")
        stream = self.stream_open(stream_id)
        stream.write(data, fin)

    def reset_stream(self, stream_id: int, error_code: int = 0) -> None:
        stream = self.streams.pop(stream_id, None)
        if stream is None:
            return
        self.closed_streams.add(stream_id)
        self._control_frames.append(
            RstStreamFrame(stream_id, stream.send_offset, error_code))

    # ------------------------------------------------------------------- flush

    def _ack_frame(self) -> AckFrame:
        gaps: list[tuple[int, int]] = []
        run_start = None
        for sqn in range(1, self.largest_received + 1):
            if sqn not in self.received_sqns:
                if run_start is None:
                    run_start = sqn
            elif run_start is not None:
                gaps.append((run_start, sqn - 1))
                run_start = None
        if run_start is not None:
            gaps.append((run_start, self.largest_received))
        self._acked_upto = self.largest_received
        self._acked_count = len(self.received_sqns)
        self.ack_needed = False
        return AckFrame(self.largest_received, 0, tuple(gaps[-wire.MAX_NACK_RANGES:]))

    def _send_ack_packet(self, epoch: int | None = None) -> None:
        epoch = epoch if epoch is not None else self._send_epoch()
        keys = self._keys_for_epoch(epoch)
        if keys is None:
            return
        frames = [self._ack_frame()] + self._drain_control_frames()
        header = PacketHeader(
            cid=self.cid, sqn=self._alloc_sqn(), epoch=epoch,
            div_nonce=self.identity.scfg.div_nonce
            if self.role == "server" and epoch == EPOCH_IK else None,
        )
        packet = seal_packet(header, bytes([MARKER_DATA]) + encode_frames(frames),
                             keys, self.role)
        self._transmit(packet, "ack")

    def _drain_control_frames(self) -> list:
        frames, self._control_frames = self._control_frames, []
        return frames

    def _send_data_packet(self, frames: list, retx: bool = False,
                          close: CloseFrame | None = None) -> None:
        epoch = self._send_epoch()
        keys = self._keys_for_epoch(epoch)
        assert keys is not None
        sqn = self._alloc_sqn()
        # Every data packet carries current ack information.
        out_frames: list = [self._ack_frame()]
        out_frames += self._drain_control_frames()
        out_frames += frames
        if close is not None:
            out_frames.append(close)
        header = PacketHeader(cid=self.cid, sqn=sqn, epoch=epoch)
        packet = seal_packet(header, bytes([MARKER_DATA]) + encode_frames(out_frames),
                             keys, self.role)
        retransmittable = tuple(
            f for f in out_frames
            if isinstance(f, (StreamFrame, WindowUpdateFrame, RstStreamFrame, CloseFrame))
        )
        if retransmittable:
            self.sent_packets[sqn] = SentPacket(sqn, self._now(), retransmittable)
            self._arm_rto_timer()
        stream_ids = sorted({f.stream_id for f in out_frames if isinstance(f, StreamFrame)})
        if close is not None:
            annotation = "close"
        elif stream_ids:
            annotation = "data " + ",".join(f"s{i}" for i in stream_ids)
        else:
            annotation = "control"
        if retx:
            annotation += " retx"
        self._transmit(packet, annotation)

    def _data_allowed(self) -> bool:
        if self.phase in (DRAINING, CLOSED):
            return False
        if self.role == "client":
            # Initial data rides under ik before settlement.
            return self.ik is not None or self.handshake_completed
        return self.handshake_completed

    def _maybe_flush_blocked(self) -> None:
        if any(s.has_pending() for s in self.streams.values()):
            self.flush()

    def _stream_chunks(self) -> Iterator[StreamFrame]:
        """The stream scheduler: dequeue sendable data round-robin over the
        streams in id order, one chunk per stream per pass, while the
        flow-control limits allow. Each chunk is dequeued only when the
        caller asks for it."""
        progressed = True
        while progressed:
            progressed = False
            for stream_id in sorted(self.streams):
                stream = self.streams[stream_id]
                if not stream.has_pending():
                    continue
                conn_room = self.peer_conn_limit - self.conn_bytes_sent
                limit = stream.sendable(conn_room)
                if limit <= 0 and not (stream.fin_queued and not stream.fin_sent
                                       and stream.queued_bytes == 0):
                    continue
                data, fin, offset = stream.take_chunk(limit)
                if not data and not fin:
                    continue
                self.conn_bytes_sent += len(data)
                yield StreamFrame(stream_id, offset, data, fin)
                progressed = True

    def _flush_data(self) -> None:
        """Send one stream chunk per packet while the congestion window
        allows; anything left stays queued on its stream."""
        chunks = self._stream_chunks()
        while self._can_send_packet():
            frame = next(chunks, None)
            if frame is None:
                return
            self._send_data_packet([frame])

    def flush(self) -> None:
        """Packetize everything currently sendable."""
        if self.phase == CLOSED:
            return
        if self._close_pending is not None and not self._close_sent:
            self._flush_close()
            return
        if self._data_allowed():
            self._flush_data()
        if self.ack_needed and (self.largest_received == self._acked_upto
                                and len(self.received_sqns) == self._acked_count):
            self.ack_needed = False  # a packet this flush already carried the acks
        if self.phase == ESTABLISHED and (self.ack_needed or self._control_frames):
            self._send_ack_packet()

    def _flush_close(self) -> None:
        """Emit the final packet: ack info, any remaining stream data (the
        MQTT DISCONNECT, typically), and the CLOSE frame, in one datagram."""
        close = self._close_pending
        epoch = self._send_epoch()
        keys = self._keys_for_epoch(epoch)
        if keys is None:
            self._close_sent = True
            self._close_pending = None
            self._become_closed("local_close")
            return
        frames: list = self._drain_control_frames()
        if self._data_allowed():
            frames += self._stream_chunks()
        self._send_data_packet(frames, close=close)
        self._close_sent = True
        self._close_pending = None
        if self._close_received:
            self._become_closed("peer_close")
        elif self.phase != CLOSED:
            self.phase = DRAINING
            self.scheduler(self.config.drain_period_s, self._drain_done)

    def _requeue_unacked_data(self) -> None:
        """After a resumption rejection, everything sent under the stale ik
        is re-queued to go out under the fresh keys."""
        per_stream: dict[int, list[StreamFrame]] = {}
        for record in list(self.sent_packets.values()):
            self.sent_packets.pop(record.sqn, None)
            for frame in record.frames:
                if isinstance(frame, StreamFrame):
                    per_stream.setdefault(frame.stream_id, []).append(frame)
                elif isinstance(frame, (WindowUpdateFrame, RstStreamFrame)):
                    self._control_frames.append(frame)
        for stream_id, frames in per_stream.items():
            frames.sort(key=lambda f: f.offset)
            stream = self.stream_open(stream_id)
            stream.send_queue[:0] = [(f.data, f.fin) for f in frames]
            stream.queued_bytes += sum(len(f.data) for f in frames)
            stream.send_offset = frames[0].offset
            if any(f.fin for f in frames):
                stream.fin_sent = False
        self.conn_bytes_sent = sum(s.send_offset for s in self.streams.values())
