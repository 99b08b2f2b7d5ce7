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

from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from random import Random
from typing import Callable, Iterator

from . import wire
from .crypto import GCM_TAG_LEN, NULL_KEYS, SYSTEM_RNG, CryptoError, KeySet
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
    parse_public,
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
    HEADER_LEN,
    HandshakeMessage,
    MARKER_DATA,
    MARKER_HANDSHAKE,
    PacketHeader,
    StreamFrame,
    WindowUpdateFrame,
    WireError,
    decode_frames,
    decode_header,
    encode_frames,
    frame_len,
    open_packet_body,
    seal_packet,
)

# Connection phases (RFC 9000 §10). Which handshake step a connection is
# at follows from the keys and hello it holds.
HANDSHAKE = "handshake"
ESTABLISHED = "established"
DRAINING = "draining"
CLOSED = "closed"

MAX_STREAM_CHUNK = 1200
CONGESTION_WINDOW_PACKETS = 32  # unacked packets in flight
RTO_FLOOR_S = 0.2
MAX_ACK_DELAY_S = 0.025  # an owed ACK waits at most this long (RFC 9000 §13.2.1)
QUICK_ACKS = 16  # ack-eliciting packets acked at once on a new connection
NACK_THRESHOLD = 3  # NACKs before a packet counts as lost
HANDSHAKE_RETRY_S = 0.3
MAX_HANDSHAKE_RETRIES = 8
# Receive windows, the same at both ends: no transport parameters are
# exchanged, so a sender starts from these as the peer's limits.
STREAM_WINDOW = 64 * 1024
CONNECTION_WINDOW = 256 * 1024
# A peer opens streams and gaps in the sqns it sends at will, so both are
# capped: a STREAM frame that would open one more stream closes the
# connection, and a packet that would open one more range is dropped unacked.
MAX_STREAMS = 256
MAX_RANGES = 1024
DRAIN_PERIOD_S = 10.0  # how long a connection drains after its own CLOSE
IDLE_TIMEOUT_S = 30.0  # silence from the peer for this long closes the connection
_MARKER_BYTES = {MARKER_DATA: bytes([MARKER_DATA]),
                 MARKER_HANDSHAKE: bytes([MARKER_HANDSHAKE])}
_by_stream_id = attrgetter("stream_id")


def data_packet_len(frames: list) -> int:
    """The size of a data packet carrying ``frames`` behind a gap-free ACK."""
    return (HEADER_LEN + 1 + wire.ACK_FRAME_LEN + sum(map(frame_len, frames))
            + GCM_TAG_LEN)


class TransportError(Exception):
    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}{': ' + detail if detail else ''}")
        self.reason = reason


def check_stream_id(stream_id: int) -> None:
    """Refuse an id no application stream can have: a WINDOW_UPDATE for
    stream 0 is the connection-level one, stream 1 carries the handshake,
    and frames carry the id in 32 bits."""
    if not HANDSHAKE_STREAM_ID < stream_id <= 0xFFFFFFFF:
        raise TransportError("bad_stream_id", str(stream_id))


@dataclass(frozen=True)
class CachedSession:
    """Client-side resumption material for 0-RTT: a signed scfg and its
    token. It is loaded from a session file, and a REJ replaces it with the
    REJ's own pair. The SHLO's token is never kept: the config expires
    before the REJ's token goes stale, so a refreshed token would never be
    used."""
    scfg: ServerConfig
    stk: bytes


# -- events delivered to the agent ------------------------------------------

@dataclass(frozen=True)
class HandshakeDone:
    resumed: bool


@dataclass(frozen=True)
class HandshakeFailed:
    reason: str


@dataclass(slots=True)
class StreamData:
    stream_id: int
    data: bytes


@dataclass(frozen=True)
class Migrated:
    old: Address
    new: Address


@dataclass(frozen=True)
class Closed:
    reason: str


# -- helper records ----------------------------------------------------------


@dataclass(slots=True)
class SentPacket:
    sqn: int
    sent_at: float
    frames: tuple  # retransmittable frames only
    nack_count: int = 0


class Recovery:
    """The sender's side of loss recovery (RFC 9002 Appendix A): the
    outstanding packets in sqn order, srtt, NACK counting and the RTO. It
    sends nothing and arms no timer: its methods take ``now`` and return the
    records to re-send, which the caller takes out of ``sent`` one by one."""

    __slots__ = ("sent", "srtt")

    def __init__(self):
        self.sent: dict[int, SentPacket] = {}
        self.srtt: float | None = None

    def rto(self) -> float:
        srtt = self.srtt
        return RTO_FLOOR_S if srtt is None else max(RTO_FLOOR_S, 2.0 * srtt)

    def on_ack(self, largest: int, ranges: tuple, now: float) -> Iterator[SentPacket]:
        """Apply an ACK: every outstanding record up to ``largest`` is acked
        and sampled unless a NACK range names it. A named record is yielded
        when its count reaches NACK_THRESHOLD, at that point in the walk, so
        that its re-send sees srtt and ``sent`` as they stand then. The walk
        is over the outstanding records, never over the extent of the ranges."""
        sent = self.sent
        if not ranges:
            # Every record up to largest is acked, oldest first.
            srtt = self.srtt
            while sent:
                sqn = next(iter(sent))
                if sqn > largest:
                    break
                rtt = now - sent.pop(sqn).sent_at
                srtt = rtt if srtt is None else 0.875 * srtt + 0.125 * rtt
            self.srtt = srtt
            return
        # A re-send adds a record, so the walk is over those due.
        due = []
        for item in sent.items():
            if item[0] > largest:
                break
            due.append(item)
        starts = [start for start, _ in ranges]
        for sqn, record in due:
            i = bisect_right(starts, sqn)
            if i and sqn <= ranges[i - 1][1]:
                record.nack_count += 1
                if record.nack_count >= NACK_THRESHOLD:
                    yield record
            else:
                rtt = now - record.sent_at
                self.srtt = rtt if self.srtt is None else 0.875 * self.srtt + 0.125 * rtt
                del sent[sqn]

    def expired(self, now: float) -> list[SentPacket]:
        """The records outstanding for at least one RTO, oldest first."""
        rto = self.rto()
        return [record for record in self.sent.values() if now - record.sent_at >= rto]


class ReceivedSqns:
    """The sequence numbers received from the peer: every number below
    ``floor``, plus sorted, disjoint, non-adjacent inclusive ranges above it.
    The peer raises the floor by naming its least unacked number, so what is
    held is the gaps the peer still waits on, not the connection's age.
    At most MAX_RANGES ranges are held. ``len()`` counts the ranges held;
    ``in`` asks whether a number counts as received."""

    def __init__(self):
        self.floor = 1  # sqns start at 1
        self._starts: list[int] = []
        self._ends: list[int] = []

    def __len__(self) -> int:
        return len(self._starts)

    def __contains__(self, sqn: int) -> bool:
        if sqn < self.floor:
            return True
        i = bisect_right(self._starts, sqn)
        return i > 0 and sqn <= self._ends[i - 1]

    @property
    def largest(self) -> int:
        return self._ends[-1] if self._ends else self.floor - 1

    def add(self, sqn: int) -> bool:
        """Record ``sqn``; False if it already counts as received, or if it
        would open a range past MAX_RANGES. The packet is then dropped
        unacked, as if lost, and its sender sends the frames again: leaving
        out a new number cannot read as acked, as dropping an old gap would."""
        floor = self.floor
        starts = self._starts
        if sqn == floor and not starts:  # the next in order, with no gap held
            self.floor = sqn + 1
            return True
        if sqn < floor:
            return False
        ends = self._ends
        i = bisect_right(starts, sqn)
        if i and sqn <= ends[i - 1]:
            return False
        joins_above = i < len(starts) and starts[i] == sqn + 1
        if i == 0 and sqn == floor:
            if joins_above:
                self.floor = ends[0] + 1
                del starts[0], ends[0]
            else:
                self.floor = sqn + 1
        elif i and ends[i - 1] == sqn - 1:
            if joins_above:
                ends[i - 1] = ends[i]
                del starts[i], ends[i]
            else:
                ends[i - 1] = sqn
        elif joins_above:
            starts[i] = sqn
        elif len(starts) >= MAX_RANGES:
            return False
        else:
            starts.insert(i, sqn)
            ends.insert(i, sqn)
        return True

    def raise_floor(self, floor: int) -> None:
        """Count every number below ``floor`` as received; never lowers it.
        Ranges that reach the new floor merge into it."""
        if floor <= self.floor:
            return
        k = bisect_right(self._starts, floor)
        if k:
            floor = max(floor, self._ends[k - 1] + 1)
            del self._starts[:k], self._ends[:k]
        self.floor = floor

    def gaps(self) -> list[tuple[int, int]]:
        """The missing numbers from the floor up to the largest received,
        as inclusive ranges, oldest first."""
        if not self._starts:
            return []
        lows = [self.floor] + [end + 1 for end in self._ends]
        return [(low, start - 1) for low, start in zip(lows, self._starts)]


class Stream:
    """One bidirectional stream: send buffering with offset accounting and
    receive reassembly that never delivers a byte twice."""

    __slots__ = ("stream_id", "send_buf", "send_offset", "peer_limit", "fragments",
                 "delivered", "received", "advertised")

    def __init__(self, stream_id: int):
        self.stream_id = stream_id
        # send side
        self.send_buf = bytearray()  # written, not yet packetized
        self.send_offset = 0  # next offset to packetize
        self.peer_limit = STREAM_WINDOW
        # receive side
        self.fragments: dict[int, bytes] = {}
        self.delivered = 0
        self.received = 0  # highest offset received
        self.advertised = STREAM_WINDOW

    # -- send --------------------------------------------------------------

    def has_pending(self) -> bool:
        return bool(self.send_buf)

    def take_chunk(self, conn_room: int) -> tuple[bytes, int]:
        """Dequeue one chunk: at most MAX_STREAM_CHUNK bytes, within the
        peer's window on this stream and ``conn_room`` bytes of its window
        on the connection; returns (data, offset)."""
        offset = self.send_offset
        limit = min(self.peer_limit - offset, conn_room, MAX_STREAM_CHUNK)
        buf = self.send_buf
        if len(buf) <= limit:
            data = bytes(buf)
            buf.clear()
        elif limit > 0:
            data = bytes(buf[:limit])
            del buf[:limit]
        else:
            return b"", offset
        self.send_offset = offset + len(data)
        return data, offset

    # -- receive ------------------------------------------------------------

    def accept(self, frame: StreamFrame) -> list[bytes]:
        """Insert a fragment, returning the newly contiguous chunks. Data
        past the advertised limit is a flow-control error (RFC 9000 §4.1)."""
        start = frame.offset
        data = frame.data
        end = start + len(data)
        if end > self.advertised:
            raise TransportError("flow_control", f"stream {self.stream_id}")
        if end > self.received:
            self.received = end
        if start == self.delivered and not self.fragments:
            # In order with nothing held: delivered as it is.
            if not data:
                return []
            self.delivered = end
            return [data]
        if end > self.delivered:
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
            out.append(data)
        return out


class Connection:
    """One end of a connection. ``role`` is "client" or "server"."""

    def __init__(self, role: str, cid: int, local_addr: Address, peer_addr: Address,
                 clock: Callable[[], float],
                 scheduler: Callable[[float, Callable[[], None]], object],
                 on_event: Callable[[object], None],
                 rng: Random = SYSTEM_RNG,
                 server_pk: bytes | None = None,
                 identity: ServerIdentity | None = None,
                 session: CachedSession | None = None):
        self.role = role
        self.cid = cid
        self.local_addr = local_addr
        self.peer_addr = peer_addr
        self.clock = clock
        self.scheduler = scheduler
        self.on_event = on_event
        self.rng = rng
        self.server_pk = server_pk
        self.identity = identity
        self.session = session

        self.phase = HANDSHAKE
        self.ik: KeySet | None = None
        self.k: KeySet | None = None

        # One send counter per direction; receipts deduplicated by sqn.
        self.next_sqn = 1
        self._last_sqn = 0  # high-water mark of allocated sqns
        self.received_sqns = ReceivedSqns()
        self.ack_needed = 0  # ack-eliciting packets since the last ACK sent
        self._eliciting_rx = 0  # ack-eliciting packets received in all
        self._ack_timer = None
        self.auth_failures = 0
        self.last_reject_reason = ""
        self._peer_on_k = False  # a packet under k has opened from the peer

        self.streams: dict[int, Stream] = {}
        self.conn_bytes_sent = 0
        self.peer_conn_limit = CONNECTION_WINDOW
        self.conn_delivered = 0
        self.conn_received = 0  # the sum of the streams' highest offsets received
        self.conn_advertised = CONNECTION_WINDOW

        self.recovery = Recovery()
        self._rto_timer = None
        self._idle_timer = scheduler(IDLE_TIMEOUT_S, self._on_idle)
        self._last_rx = clock()

        self.outputs: list[tuple[bytes, str]] = []
        self._control_frames: list = []

        # Handshake state. The client drops its secrets and hello once the SHLO
        # settles k; the server drops the SHLO at the first packet under k.
        self._hs_secrets: ClientHelloSecrets | None = None
        # the client's last hello: (frame, annotation)
        self._hs_hello: tuple[StreamFrame, str] | None = None
        self._hs_retries = 0
        self._rej_count = 0  # zero at settlement means the handshake resumed
        self._hs_timer = None
        self._drain_timer = None
        self._hs_nonc: bytes | None = None
        self._hs_shlo: StreamFrame | None = None

    # ------------------------------------------------------------------ utils

    def _send_packet(self, epoch: int, marker: int, frames: list, annotation: str) -> int:
        """The one place a packet is built and sealed; returns its sqn. A
        sqn at or below one already spent would reuse a nonce under the same
        key (RFC 9000 §12.3), so it is refused rather than sealed."""
        sqn = self.next_sqn
        if sqn <= self._last_sqn:
            raise TransportError("sqn_reuse", str(sqn))
        self._last_sqn = sqn
        self.next_sqn = sqn + 1
        if epoch == EPOCH_K:
            keys = self.k
        else:
            keys = self.ik if epoch == EPOCH_IK else NULL_KEYS
        if marker == MARKER_DATA:
            # Every data packet leads with current ack information.
            frames = [self._ack_frame(sqn, frames)] + frames
        packet = seal_packet(PacketHeader(self.cid, sqn, epoch),
                             _MARKER_BYTES[marker] + encode_frames(frames), keys, self.role)
        self.outputs.append((packet, annotation))
        return sqn

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
                check_scfg(self.session.scfg, self.server_pk, self.clock())
                self._send_full_chlo(self.session.scfg, self.session.stk)
                return "0rtt"
            except (HandshakeError, CryptoError):
                pass  # unusable cache: fall back to a fresh 1-RTT, nothing sent yet
        self._send_hello(self._pad_hello(build_inchoate_chlo()), "chlo_inchoate")
        return "1rtt"

    def _send_full_chlo(self, cfg: ServerConfig, stk: bytes) -> None:
        """Build, pad and send a full CHLO against ``cfg``, deriving ik first. A
        config with an unusable DH value raises ``CryptoError`` before any send."""
        msg, secrets = build_full_chlo(cfg, stk, self.clock(), self.rng)
        secrets.chlo_wire = self._pad_hello(msg)
        self.ik = derive_ik_client(secrets, cfg, self.cid)
        self._hs_secrets = secrets
        self._send_hello(secrets.chlo_wire, "chlo_full")
        # Initial data already queued by the application follows under ik in
        # the same flush, right behind the hello.

    def _pad_hello(self, msg: HandshakeMessage) -> bytes:
        """Pad a CHLO/REJ to the fixed handshake size of the cleartext packet
        that carries it on the handshake stream. The padded CHLO is part of
        the key transcript."""
        overhead = (HEADER_LEN + 1 + frame_len(StreamFrame(HANDSHAKE_STREAM_ID, 0, b""))
                    + GCM_TAG_LEN)
        return msg.padded(HANDSHAKE_PACKET_LEN - overhead).encode()

    def _send_hello(self, padded: bytes, annotation: str) -> None:
        """Send a hello padded by ``_pad_hello``. A client keeps it for the
        retry it arms, which repeats it byte for byte."""
        frame = StreamFrame(HANDSHAKE_STREAM_ID, 0, padded)
        self._send_packet(EPOCH_CLEAR, MARKER_HANDSHAKE, [frame], annotation)
        assert len(self.outputs[-1][0]) == HANDSHAKE_PACKET_LEN
        if self.role == "client":
            self._hs_hello = (frame, annotation)
            if self._hs_timer is not None:
                self._hs_timer.cancel()
            self._hs_timer = self.scheduler(HANDSHAKE_RETRY_S, self._handshake_retry)

    def _handshake_retry(self) -> None:
        if self.phase != HANDSHAKE:
            return
        self._hs_retries += 1
        if self._hs_retries > MAX_HANDSHAKE_RETRIES:
            self._fail_handshake("handshake_timeout")
            return
        frame, annotation = self._hs_hello
        self._send_packet(EPOCH_CLEAR, MARKER_HANDSHAKE, [frame], annotation + " retx")
        self._hs_timer = self.scheduler(HANDSHAKE_RETRY_S, self._handshake_retry)

    def _fail_handshake(self, reason: str) -> None:
        self.on_event(HandshakeFailed(reason))
        self._become_closed(reason)

    # ------------------------------------------------------------- datagrams

    def handle_datagram(self, data: bytes, src: Address,
                        header: PacketHeader | None = None) -> None:
        """Take one datagram from ``src``. ``header`` is its clear header,
        given by a caller that already decoded it to find this connection;
        without it the header is decoded here. A datagram the gate refuses
        counts once in ``auth_failures`` and changes nothing else."""
        if self.phase == CLOSED:
            return
        opened = self._open(data, header)
        if opened is None:
            self.auth_failures += 1
        else:
            self._dispatch(*opened, src)

    def _open(self, data: bytes, header: PacketHeader | None
              ) -> tuple[PacketHeader, list, tuple[HandshakeMessage, bytes] | None] | None:
        """The gate: the header, the frames and, for a handshake packet, its
        one message with the bytes it was decoded from; None when the
        datagram is refused. Nothing here changes the connection."""
        if header is None:
            try:
                header = decode_header(data)
            except WireError:
                return None
        if header.cid != self.cid:
            return None
        epoch = header.epoch
        if epoch == EPOCH_K:
            keys = self.k
        elif epoch == EPOCH_IK:
            keys = self.ik
        elif epoch == EPOCH_CLEAR:
            # Every hello and REJ fills a packet, so a shorter cleartext one
            # is forged, and a REJ to it would amplify (RFC 9000 §8.1, §14.1).
            if len(data) < HANDSHAKE_PACKET_LEN:
                return None
            keys = NULL_KEYS
        else:
            return None
        if keys is None:
            return None
        plain = open_packet_body(header, data, keys, self.role)
        if not plain:
            return None
        marker = plain[0]
        if marker == MARKER_DATA:
            # Cleartext packets are sealed under a public key set, so anyone
            # who knows the cid can forge one: they carry hellos only. Once
            # the peer has moved to the forward-secure key, data under the
            # initial key is refused (RFC 9001 §4.9).
            if epoch == EPOCH_CLEAR or (epoch == EPOCH_IK and self._peer_on_k):
                return None
        elif marker != MARKER_HANDSHAKE:
            return None
        elif epoch == EPOCH_CLEAR:
            # A handshake packet holds the one message its end can take: a
            # hello in cleartext, or the SHLO to a client under ik.
            kind = wire.MSG_CHLO if self.role == "server" else wire.MSG_REJ
        elif epoch == EPOCH_IK and self.role == "client":
            # A repeated SHLO still opens, so a lost server flight can be
            # recovered.
            kind = wire.MSG_SHLO
        else:
            return None
        try:
            frames = decode_frames(plain[1:])
            if marker == MARKER_DATA:
                return header, frames, None
            raw = b"".join(f.data for f in frames if isinstance(f, StreamFrame))
            msg = HandshakeMessage.decode(raw)
        except WireError:
            return None
        return (header, frames, (msg, raw)) if msg.kind == kind else None

    def _dispatch(self, header: PacketHeader, frames: list,
                  hello: tuple[HandshakeMessage, bytes] | None, src: Address) -> None:
        """Act on a packet the gate let through: record its sqn, migrate
        the peer, then hand on the frames, or ``hello``, the handshake
        message and its bytes."""
        epoch = header.epoch
        if epoch == EPOCH_K:
            # The client only sends under k once the SHLO has settled it.
            self._peer_on_k = True
            self._hs_shlo = None
        # A cleartext packet never refreshes the idle timer or migrates the
        # peer, and once the handshake is over its sqn stays out of the ack
        # state, where a forged one would be acked as if the peer had sent
        # it. A sqn already held is a replay, a spurious retransmission, or
        # below the floor the peer named (RFC 9000 §13.2.3).
        if ((epoch != EPOCH_CLEAR or self.phase == HANDSHAKE)
                and not self.received_sqns.add(header.sqn)):
            return
        if epoch != EPOCH_CLEAR:
            self._last_rx = self.clock()
            if src != self.peer_addr and self.phase == ESTABLISHED:
                # Authenticated traffic from a new address migrates the peer.
                old, self.peer_addr = self.peer_addr, src
                self.on_event(Migrated(old, src))
        if self.phase == DRAINING:
            # Only a peer CLOSE still matters while draining.
            for frame in frames if hello is None else ():
                if isinstance(frame, CloseFrame):
                    self._on_close_frame(frame)
        elif hello is None:
            self._on_data_frames(header.sqn, frames)
        elif self.role == "server":
            self._server_on_chlo(*hello, src)
        elif epoch == EPOCH_CLEAR:
            self._client_on_rej(hello[0])
        else:
            self._client_on_shlo(*hello)

    # -- handshake payloads ------------------------------------------------

    def _client_on_rej(self, msg: HandshakeMessage) -> None:
        # A REJ answers a hello: none is held before the first is sent or
        # once the SHLO has settled k.
        if self._hs_hello is None:
            return
        self._rej_count += 1
        if self._rej_count > 4:
            self._fail_handshake("too_many_rejects")
            return
        try:
            scfg, stk = parse_rej(msg)
            check_scfg(scfg, self.server_pk, self.clock())
        except HandshakeError as e:
            self._fail_handshake(e.reason)
            return
        # The REJ both answers an inchoate hello and rejects a resumption
        # attempt; either way the next step is a fresh full CHLO.
        try:
            self._send_full_chlo(scfg, stk)
        except CryptoError:
            # Signed, yet its DH value is all zero or of low order.
            self._fail_handshake("scfg_malformed")
            return
        self.session = CachedSession(scfg, stk)
        # The server never opened what went out under the rejected keys: the
        # same frames go out again under the fresh ik.
        for record in list(self.recovery.sent.values()):
            self._retransmit(record)

    def _client_on_shlo(self, msg: HandshakeMessage, inner: bytes) -> None:
        if self.phase != HANDSHAKE:
            return  # a repeated SHLO after settlement
        try:
            server_pub = parse_public(msg.fields.get(wire.TAG_PUBS, b""), "shlo_invalid")
            self.k = derive_k_client(self._hs_secrets, self.session.scfg, self.cid,
                                     inner, server_pub)
        except (HandshakeError, CryptoError):
            self._fail_handshake("shlo_invalid")
            return
        self.phase = ESTABLISHED
        self._hs_secrets = self._hs_hello = None
        if self._hs_timer is not None:
            self._hs_timer.cancel()
            self._hs_timer = None
        self.on_event(HandshakeDone(resumed=self._rej_count == 0))

    def _server_on_chlo(self, msg: HandshakeMessage, chlo_wire: bytes,
                        src: Address) -> None:
        identity = self.identity
        now = self.clock()
        if identity.scfg.expy <= now:
            # Renewed before anything is answered under it.
            identity.rotate_scfg(now, self.rng)
        if not is_full_chlo(msg):
            # Inchoate hello: answer (or repeat) the server config until a
            # full CHLO is accepted.
            if self.ik is None:
                rej = build_rej(identity.scfg, identity.k_stk, src[0], now, self.rng)
                self._send_hello(self._pad_hello(rej), "rej")
            return
        if self._hs_nonc is not None and msg.fields.get(wire.TAG_NONC) == self._hs_nonc:
            # Client retransmission after a lost server flight: repeat the
            # settlement without re-deriving or re-accepting anything. Once
            # the SHLO is dropped, a late copy draws nothing.
            if self._hs_shlo is not None:
                self._send_packet(EPOCH_IK, MARKER_HANDSHAKE, [self._hs_shlo], "shlo retx")
            return
        if self.ik is not None:
            # A different nonce on a live connection is never accepted.
            self._reject_chlo(src, now, "chlo_on_live_connection")
            return
        try:
            ik, nonc, client_pub = identity.validate_full_chlo(msg, chlo_wire, src[0],
                                                               self.cid, now)
        except HandshakeError as e:
            # The REJ spent a sqn the client will acknowledge, so this
            # connection answers the client's next hello too.
            self._reject_chlo(src, now, e.reason)
            return
        self.ik = ik
        self._hs_nonc = nonc
        # Continue after any initial data that arrived in the same flight.
        self.scheduler(0, lambda: self._server_continue(chlo_wire, client_pub))

    def _reject_chlo(self, src: Address, now: float, reason: str) -> None:
        self.last_reject_reason = reason
        rej = build_rej(self.identity.scfg, self.identity.k_stk, src[0], now, self.rng)
        self._send_hello(self._pad_hello(rej), "rej")

    def _server_continue(self, chlo_wire: bytes, client_pub: bytes) -> None:
        """Phase boundary after the initial-data exchange: ack what arrived
        under ik, settle the forward-secure key, then release queued data."""
        if self.phase != HANDSHAKE:
            return  # closed by what arrived in the same flight
        self._send_ack_packet()
        shlo, ephemeral = self.identity.build_shlo(self.peer_addr[0], self.clock(),
                                                   self.rng)
        inner = shlo.encode()
        self._hs_shlo = StreamFrame(HANDSHAKE_STREAM_ID, 0, inner)
        self._send_packet(EPOCH_IK, MARKER_HANDSHAKE, [self._hs_shlo], "shlo")
        self.k = self.identity.derive_k_server(
            ephemeral, client_pub, self._hs_nonc, self.cid, chlo_wire, inner)
        self.phase = ESTABLISHED
        self.on_event(HandshakeDone(resumed=False))

    # -- data payloads --------------------------------------------------------

    def _on_data_frames(self, sqn: int, frames: list) -> None:
        # An ack is owed from the moment an ack-eliciting packet opens; any
        # packet its frames cause to be sent carries the ack and clears it.
        for frame in frames:
            kind = type(frame)
            if kind is not AckFrame and kind is not CloseFrame:
                self.ack_needed += 1
                self._eliciting_rx += 1
                break
        for frame in frames:
            if self.phase in (DRAINING, CLOSED):
                return  # an earlier frame closed the connection
            kind = type(frame)
            if kind is StreamFrame:
                self._on_stream_frame(frame)
            elif kind is AckFrame:
                try:
                    self._on_ack_frame(frame, sqn)
                except TransportError as e:
                    self.close(error_code=1, reason=e.reason.encode())
            elif kind is WindowUpdateFrame:
                self._on_window_update(frame)
            elif kind is CloseFrame:
                self._on_close_frame(frame)

    def _on_stream_frame(self, frame: StreamFrame) -> None:
        stream_id = frame.stream_id
        if stream_id == HANDSHAKE_STREAM_ID:
            return
        try:
            stream = self.streams.get(stream_id)
            if stream is None:
                if len(self.streams) >= MAX_STREAMS:
                    raise TransportError("stream_limit", str(stream_id))
                stream = self._stream(stream_id)
            before, received = stream.delivered, stream.received
            chunks = stream.accept(frame)
            self.conn_received += stream.received - received
            if self.conn_received > self.conn_advertised:
                raise TransportError("flow_control", "connection")
        except TransportError as e:
            self.close(error_code=1, reason=e.reason.encode())
            return
        for data in chunks:
            self.on_event(StreamData(stream_id, data))
        delivered_now = stream.delivered - before
        if not delivered_now:
            return
        # Open the windows again once half of each is used up.
        self.conn_delivered += delivered_now
        if stream.advertised - stream.delivered <= STREAM_WINDOW // 2:
            stream.advertised = stream.delivered + STREAM_WINDOW
            self._control_frames.append(WindowUpdateFrame(stream_id, stream.advertised))
        if self.conn_advertised - self.conn_delivered <= CONNECTION_WINDOW // 2:
            self.conn_advertised = self.conn_delivered + CONNECTION_WINDOW
            self._control_frames.append(WindowUpdateFrame(0, self.conn_advertised))

    def _on_window_update(self, frame: WindowUpdateFrame) -> None:
        if frame.stream_id == 0:
            self.peer_conn_limit = max(self.peer_conn_limit, frame.byte_offset)
            return
        stream = self.streams.get(frame.stream_id)
        if stream is not None:
            stream.peer_limit = max(stream.peer_limit, frame.byte_offset)

    def _on_close_frame(self, frame: CloseFrame) -> None:
        # A CLOSE opened under ik or k, so there are keys to answer under;
        # draining means our own CLOSE is out.
        if self.phase != DRAINING:
            self._send_stream_data(CloseFrame(frame.error_code, b""))
        self._become_closed(f"peer_close:{frame.error_code}")

    # -- acks and loss -----------------------------------------------------------

    def _on_ack_frame(self, frame: AckFrame, carrier_sqn: int) -> None:
        """Check an ACK that arrived in packet ``carrier_sqn``, then apply it
        and re-send each record it shows lost."""
        largest = frame.largest_observed
        ranges = frame.nack_ranges
        if largest >= self.next_sqn:
            raise TransportError("ack_of_unsent_packet", str(largest))  # RFC 9000 §13.1
        if frame.least_unacked > carrier_sqn:
            raise TransportError("least_unacked_ahead", str(frame.least_unacked))
        prev_end = -1
        for start, end in ranges:
            if not prev_end < start <= end < largest:
                raise TransportError("bad_nack_ranges")
            prev_end = end
        received = self.received_sqns
        if frame.least_unacked > received.floor:
            received.raise_floor(frame.least_unacked)
        recovery = self.recovery
        if recovery.sent:  # _last_rx was set by _dispatch as this packet arrived
            for record in recovery.on_ack(largest, ranges, self._last_rx):
                self._retransmit(record)

    def _retransmit(self, record: SentPacket) -> None:
        """Move a lost packet's frames into a fresh packet under a fresh
        sequence number; the original sqn is never reused."""
        self.recovery.sent.pop(record.sqn, None)
        self._send_data_packet(list(record.frames), retx=True)

    def _arm_rto_timer(self) -> None:
        if self._rto_timer is not None:
            return
        self._rto_timer = self.scheduler(self.recovery.rto(), self._on_rto)

    def _on_rto(self) -> None:
        self._rto_timer = None
        recovery = self.recovery
        if self.role == "client" and self.k is None:
            # The hello retry timer owns recovery until settlement; initial
            # data that was lost goes out again under k once established.
            if recovery.sent:
                self._arm_rto_timer()
            return
        for record in recovery.expired(self.clock()):
            if self.phase == DRAINING and type(record.frames[-1]) is not CloseFrame:
                continue  # only the CLOSE, always a packet's last frame, goes again
            self._retransmit(record)
        if recovery.sent:
            self._arm_rto_timer()

    # -- idle / teardown ---------------------------------------------------------

    def _on_idle(self) -> None:
        self._idle_timer = None
        if self.phase == DRAINING:
            return
        now = self.clock()
        deadline = self._last_rx + IDLE_TIMEOUT_S
        if now + 1e-6 >= deadline:  # clock granularity is one microsecond
            # Closed silently, as a failed handshake is (RFC 9000 §10.1).
            self._become_closed("idle_timeout")
        else:
            self._idle_timer = self.scheduler(deadline - now, self._on_idle)

    def _become_closed(self, reason: str) -> None:
        """Every end but ``kill`` comes here: the timers stop, streams and
        keys are dropped, and the agent gets ``Closed``."""
        if self.phase == CLOSED:
            return
        self.phase = CLOSED
        self._cancel_timers()
        self.streams.clear()
        self.ik = None
        self.k = None
        self.on_event(Closed(reason))

    def _cancel_timers(self) -> None:
        for timer in (self._idle_timer, self._rto_timer, self._hs_timer, self._ack_timer,
                      self._drain_timer):
            if timer is not None:
                timer.cancel()
        self._idle_timer = self._rto_timer = self._hs_timer = self._ack_timer = None
        self._drain_timer = None

    def kill(self) -> None:
        """End at once, as a dead process would: no CLOSE goes out, queued
        outputs are discarded, every timer stops and no event is emitted."""
        self._cancel_timers()
        self.outputs = []
        self.phase = CLOSED

    def close(self, error_code: int = 0, reason: bytes = b"") -> None:
        """Send the CLOSE and drain. Queued stream data (the usual
        DISCONNECT) goes out first, one chunk per packet whatever the
        congestion window, and the CLOSE frame rides on its last packet.
        The connection then drains for DRAIN_PERIOD_S and closes with
        ``local_close``, unless the peer's CLOSE ends it first. With no keys
        to send under, it closes at once."""
        if self.phase in (DRAINING, CLOSED):
            return
        if self.k is None and self.ik is None:
            self._become_closed("local_close")
            return
        self._send_stream_data(CloseFrame(error_code, reason))
        self.phase = DRAINING
        self._drain_timer = self.scheduler(
            DRAIN_PERIOD_S, lambda: self._become_closed("local_close"))

    # ------------------------------------------------------------------ app API

    def _stream(self, stream_id: int) -> Stream:
        """The stream ``stream_id``, created by its first write or first
        frame; it ends with the connection."""
        stream = self.streams.get(stream_id)
        if stream is None:
            check_stream_id(stream_id)
            stream = self.streams[stream_id] = Stream(stream_id)
        return stream

    def send_stream(self, stream_id: int, data: bytes) -> None:
        """Queue ``data`` on a stream; a write to a draining or closed
        connection is dropped."""
        if self.phase not in (DRAINING, CLOSED):
            self._stream(stream_id).send_buf += data

    # ------------------------------------------------------------------- flush

    def _ack_frame(self, sqn: int, frames: list) -> AckFrame:
        """The ACK that leads the packet ``sqn`` ahead of ``frames``. It
        names this end's floor: the oldest packet still outstanding, or this
        packet's own sqn. Its gaps get the room the other frames leave
        within the packet budget; those that do not fit are left out from
        the newest end, and largest_observed drops to just below the first
        gap left out, since a gap not reported reads as received."""
        self.ack_needed = 0
        least_unacked = next(iter(self.recovery.sent), sqn)
        received = self.received_sqns
        if not received:
            return AckFrame(received.floor - 1, least_unacked)
        gaps = received.gaps()
        largest = received.largest
        room = HANDSHAKE_PACKET_LEN - data_packet_len(frames)
        fit = min(wire.MAX_NACK_RANGES, max(0, room // wire.NACK_RANGE_LEN))
        if len(gaps) > fit:
            largest = gaps[fit][0] - 1
            gaps = gaps[:fit]
        return AckFrame(largest, least_unacked, tuple(gaps))

    def _send_ack_packet(self) -> None:
        frames, self._control_frames = self._control_frames, []
        self._send_packet(EPOCH_K if self.k is not None else EPOCH_IK, MARKER_DATA,
                          frames, "ack")

    def _send_data_packet(self, frames: list, retx: bool = False) -> None:
        """Send ``frames`` behind the queued control frames, in a packet
        recorded for retransmission. Control frames that would push the
        packet past the budget go out first in a packet of their own.
        Every caller passes at most one STREAM frame, with only a CLOSE
        after it, and a retransmission re-sends one record's frames, so the
        last frame names the packet."""
        epoch = EPOCH_K if self.k is not None else EPOCH_IK
        controls = self._control_frames
        if controls:
            self._control_frames = []
            if data_packet_len(controls + frames) > HANDSHAKE_PACKET_LEN:
                self._send_data_packet(controls)
            else:
                frames = controls + frames
        last = frames[-1]
        kind = type(last)
        if kind is StreamFrame:
            annotation = f"data s{last.stream_id}"
        elif kind is CloseFrame:
            annotation = "close"
        else:
            annotation = "control"
        if retx:
            annotation += " retx"
        sqn = self._send_packet(epoch, MARKER_DATA, frames, annotation)
        self.recovery.sent[sqn] = SentPacket(sqn, self.clock(), tuple(frames))
        if self._rto_timer is None:
            self._arm_rto_timer()

    def _send_stream_data(self, close: CloseFrame | None = None) -> None:
        """The stream scheduler: dequeue one chunk per packet, round-robin
        over the streams in id order, one chunk per stream per pass, while
        the flow-control limits allow. Without ``close``, the congestion
        window is checked before each chunk is dequeued and what it holds
        back stays queued. With ``close``, the window is ignored and
        ``close`` rides on the last packet, alone if there is no data.
        Nothing is dequeued before this end may send data: a client's
        initial data rides under ik, a server's waits for k."""
        # Buffers only shrink and limits only tighten while this runs, so a
        # stream that is empty or blocked leaves the rotation for good.
        ready = []
        if (self.ik if self.role == "client" else self.k) is not None:
            for stream in self.streams.values():
                if stream.send_buf:
                    ready.append(stream)
            if len(ready) > 1:
                ready.sort(key=_by_stream_id)
        sent = self.recovery.sent
        held = None
        while ready:
            still = []
            for stream in ready:
                if close is None and len(sent) >= CONGESTION_WINDOW_PACKETS:
                    return
                data, offset = stream.take_chunk(self.peer_conn_limit - self.conn_bytes_sent)
                if not data:
                    continue
                self.conn_bytes_sent += len(data)
                frame = StreamFrame(stream.stream_id, offset, data)
                if close is None:
                    self._send_data_packet([frame])
                else:
                    if held is not None:
                        self._send_data_packet([held])
                    held = frame
                if stream.send_buf:
                    still.append(stream)
            ready = still
        if close is not None:
            self._send_data_packet([close] if held is None else [held, close])

    def flush(self) -> None:
        """Packetize everything currently sendable."""
        phase = self.phase
        if phase == CLOSED:
            return
        if phase != DRAINING:
            self._send_stream_data()
        if phase != ESTABLISHED or not (self.ack_needed or self._control_frames):
            return
        if self._control_frames or self._ack_at_once():
            self._send_ack_packet()
        elif self._ack_timer is None:
            self._ack_timer = self.scheduler(MAX_ACK_DELAY_S, self._on_ack_delay)

    def _ack_at_once(self) -> bool:
        """Whether an owed ACK leaves now rather than within MAX_ACK_DELAY_S
        (RFC 9000 §13.2.1-13.2.2): every second ack-eliciting packet, any
        packet while a gap is held, so the sender learns of a loss without
        delay, and each of a connection's first QUICK_ACKS ack-eliciting
        packets, so a short exchange never waits on the timer."""
        return (self.ack_needed >= 2 or len(self.received_sqns) > 0
                or self._eliciting_rx <= QUICK_ACKS)

    def _on_ack_delay(self) -> None:
        """The ACK timer: send the ACK if one is still owed. A packet that
        carried it in the meantime leaves the timer armed, and it finds
        nothing to do."""
        self._ack_timer = None
        if self.phase == ESTABLISHED and self.ack_needed:
            self._send_ack_packet()
