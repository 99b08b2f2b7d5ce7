"""Wire formats: packet headers, frames, and the tag-length-value handshake
messages.

Clear header layout (all integers big-endian), the same for every packet:

    flags(1) || cid(8) || sqn(8)

Flags bits 2-3 carry the key epoch (0 = cleartext handshake, 1 = initial
keys, 2 = forward-secure keys). Bits 0-1 are never set, and a header with
either set is refused; bits 4-7 carry nothing. The hello names its version
in its VER tag, so the header carries none. The body of every packet is an
AEAD ciphertext of ``marker(1) || frames`` followed by the 16-byte tag; the
header is the associated data, so any header bit-flip breaks the seal.
Cleartext handshake packets are sealed under the all-zero key set, which
buys nothing but format uniformity and integrity under a known key.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .crypto import GCM_TAG_LEN, KeySet, aead_open, aead_seal, get_iv

VERSION = b"Q001"

EPOCH_CLEAR = 0
EPOCH_IK = 1
EPOCH_K = 2

# First plaintext byte inside the seal: application data vs handshake-internal
# key exchange payloads.
MARKER_DATA = 0x01
MARKER_HANDSHAKE = 0x00

MAX_NACK_RANGES = 256
ACK_FRAME_LEN = 19  # kind(1) || largest_observed(8) || least_unacked(8) || count(2)
NACK_RANGE_LEN = 16  # start(8) || end(8)

HANDSHAKE_STREAM_ID = 1

# Every cleartext handshake packet (the hellos and the REJ) is padded to
# exactly this many bytes.
HANDSHAKE_PACKET_LEN = 1350


class WireError(Exception):
    """Malformed or truncated wire data."""


@dataclass(slots=True)
class PacketHeader:
    cid: int
    sqn: int
    epoch: int = EPOCH_CLEAR


_HEADER = struct.Struct(">BQQ")  # flags, cid, sqn
HEADER_LEN = _HEADER.size  # 17


def encode_header(h: PacketHeader) -> bytes:
    return _HEADER.pack((h.epoch & 0x03) << 2, h.cid, h.sqn)


def decode_header(data: bytes) -> PacketHeader:
    """Decode the clear header, the first HEADER_LEN bytes of ``data``."""
    if len(data) < HEADER_LEN:
        raise WireError("truncated header")
    flags, cid, sqn = _HEADER.unpack_from(data)
    if flags & 0x03:
        raise WireError("reserved header flag set")
    return PacketHeader(cid, sqn, (flags >> 2) & 0x03)


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

KIND_STREAM = 0x01
KIND_ACK = 0x02
KIND_WINDOW_UPDATE = 0x03
KIND_CLOSE = 0x06  # 0x04 and 0x05 are unassigned and refused


@dataclass(slots=True)
class StreamFrame:
    stream_id: int
    offset: int
    data: bytes


@dataclass(slots=True)
class AckFrame:
    """Every sqn up to ``largest_observed`` that no NACK range names counts
    as received. ``least_unacked`` is the sender's own floor: it no longer
    waits on any packet it sent below that number, so the receiver of this
    frame may count them all as received (gQUIC's STOP_WAITING)."""
    largest_observed: int
    least_unacked: int = 0
    # NACK ranges are inclusive (start, end) sqn pairs below largest_observed.
    nack_ranges: tuple[tuple[int, int], ...] = ()


@dataclass(slots=True)
class WindowUpdateFrame:
    stream_id: int  # 0 addresses the connection-level window
    byte_offset: int


@dataclass(slots=True)
class CloseFrame:
    error_code: int = 0
    reason: bytes = b""


Frame = StreamFrame | AckFrame | WindowUpdateFrame | CloseFrame


# Frame heads, kind byte included.
# kind, stream_id, offset, reserved, data length; the reserved byte is sent
# as 0 and a frame with it set is refused.
_STREAM_HEAD = struct.Struct(">BIQBI")
_ACK_HEAD = struct.Struct(">BQQH")  # kind, largest_observed, least_unacked, count
_NACK_RANGE = struct.Struct(">QQ")  # start, end
_WINDOW_UPDATE = struct.Struct(">BIQ")  # kind, stream_id, byte_offset
_CLOSE_HEAD = struct.Struct(">BIH")  # kind, error_code, reason length


def encode_frame(f: Frame) -> bytes:
    if isinstance(f, StreamFrame):
        data = f.data
        return _STREAM_HEAD.pack(KIND_STREAM, f.stream_id, f.offset, 0, len(data)) + data
    if isinstance(f, AckFrame):
        ranges = f.nack_ranges
        if len(ranges) > MAX_NACK_RANGES:
            raise WireError(f"ack with {len(ranges)} NACK ranges")
        head = _ACK_HEAD.pack(KIND_ACK, f.largest_observed, f.least_unacked, len(ranges))
        if not ranges:
            return head
        return head + b"".join([_NACK_RANGE.pack(start, end) for start, end in ranges])
    if isinstance(f, WindowUpdateFrame):
        return _WINDOW_UPDATE.pack(KIND_WINDOW_UPDATE, f.stream_id, f.byte_offset)
    if isinstance(f, CloseFrame):
        return _CLOSE_HEAD.pack(KIND_CLOSE, f.error_code, len(f.reason)) + f.reason
    raise WireError(f"unknown frame {f!r}")


def frame_len(f: Frame) -> int:
    """The encoded size of ``f``, without encoding it."""
    if isinstance(f, StreamFrame):
        return 18 + len(f.data)
    if isinstance(f, AckFrame):
        return ACK_FRAME_LEN + NACK_RANGE_LEN * len(f.nack_ranges)
    if isinstance(f, WindowUpdateFrame):
        return 13
    return 7 + len(f.reason)  # CLOSE


def encode_frames(frames: list[Frame]) -> bytes:
    # encode_frame is looked up per frame: the benchmark's tracer wraps it
    # there to sample ACK sizes.
    return b"".join([encode_frame(f) for f in frames])


def decode_frames(data: bytes) -> list[Frame]:
    frames: list[Frame] = []
    pos = 0
    n = len(data)
    while pos < n:
        kind = data[pos]
        if kind == KIND_STREAM:
            if n - pos < 18:
                raise WireError("truncated STREAM frame")
            _, stream_id, offset, reserved, dlen = _STREAM_HEAD.unpack_from(data, pos)
            if reserved:
                raise WireError("reserved STREAM byte set")
            pos += 18
            end = pos + dlen
            if end > n:
                raise WireError("truncated STREAM data")
            frames.append(StreamFrame(stream_id, offset, data[pos:end]))
            pos = end
        elif kind == KIND_ACK:
            if n - pos < ACK_FRAME_LEN:
                raise WireError("truncated ACK frame")
            _, largest, least_unacked, count = _ACK_HEAD.unpack_from(data, pos)
            pos += ACK_FRAME_LEN
            if count > MAX_NACK_RANGES:
                raise WireError(f"ack with {count} NACK ranges")
            if not count:
                frames.append(AckFrame(largest, least_unacked))
                continue
            end = pos + NACK_RANGE_LEN * count
            if end > n:
                raise WireError("truncated NACK ranges")
            frames.append(AckFrame(largest, least_unacked,
                                   tuple(_NACK_RANGE.iter_unpack(data[pos:end]))))
            pos = end
        elif kind == KIND_WINDOW_UPDATE:
            if n - pos < 13:
                raise WireError("truncated WINDOW_UPDATE")
            _, stream_id, byte_offset = _WINDOW_UPDATE.unpack_from(data, pos)
            pos += 13
            frames.append(WindowUpdateFrame(stream_id, byte_offset))
        elif kind == KIND_CLOSE:
            if n - pos < 7:
                raise WireError("truncated CLOSE")
            _, code, rlen = _CLOSE_HEAD.unpack_from(data, pos)
            pos += 7
            end = pos + rlen
            if end > n:
                raise WireError("truncated CLOSE reason")
            frames.append(CloseFrame(code, data[pos:end]))
            pos = end
        else:
            raise WireError(f"unknown frame kind 0x{kind:02x}")
    return frames


# ---------------------------------------------------------------------------
# Packet sealing
# ---------------------------------------------------------------------------

def seal_packet(header: PacketHeader, plaintext: bytes, keys: KeySet, role: str) -> bytes:
    """Seal ``plaintext`` (marker byte plus frames) into a full packet, under
    the half of ``keys`` addressed to the peer: a client seals with
    (k_s, iv_s), a server with (k_c, iv_c)."""
    hdr = encode_header(header)
    if role == "client":
        key, prefix = keys.k_s, keys.iv_s
    else:
        key, prefix = keys.k_c, keys.iv_c
    return hdr + aead_seal(key, get_iv(prefix, header.sqn), hdr, plaintext)


def open_packet_body(header: PacketHeader, packet: bytes, keys: KeySet,
                     role: str) -> bytes | None:
    """Open the sealed body of an already-decoded packet under the half of
    ``keys`` addressed to ``role``, the one its peer sealed with; None on
    failure."""
    hdr = packet[:HEADER_LEN]
    body = packet[HEADER_LEN:]
    if len(body) < GCM_TAG_LEN:
        return None
    if role == "client":
        key, prefix = keys.k_c, keys.iv_c
    else:
        key, prefix = keys.k_s, keys.iv_s
    return aead_open(key, get_iv(prefix, header.sqn), hdr, body)


# ---------------------------------------------------------------------------
# Handshake messages: 4-byte kind tag followed by a tag-length-value list
# (4-byte ASCII tag, 4-byte big-endian length, value), carried in STREAM
# frames on the reserved handshake stream.
# ---------------------------------------------------------------------------

MSG_CHLO = "CHLO"
MSG_REJ = "REJ\x00"
MSG_SHLO = "SHLO"

TAG_STK = "STK\x00"
TAG_SCID = "SCID"
TAG_NONC = "NONC"
TAG_PUBC = "PUBC"
TAG_PUBS = "PUBS"
TAG_SCFG = "SCFG"
TAG_PROF = "PROF"
TAG_VER = "VER\x00"
TAG_PAD = "PAD\x00"


@dataclass
class HandshakeMessage:
    kind: str
    fields: dict[str, bytes] = field(default_factory=dict)

    def encode(self) -> bytes:
        if len(self.kind) != 4:
            raise WireError("message kind tag must be 4 chars")
        out = bytearray(self.kind.encode("ascii"))
        for tag, value in self.fields.items():
            if len(tag) != 4:
                raise WireError(f"field tag {tag!r} must be 4 chars")
            out += tag.encode("ascii")
            out += len(value).to_bytes(4, "big")
            out += value
        return bytes(out)

    def encoded_len(self) -> int:
        return 4 + sum(8 + len(v) for v in self.fields.values())

    def padded(self, target_len: int) -> "HandshakeMessage":
        """Return a copy padded with a PAD field to exactly ``target_len``
        encoded bytes."""
        base = self.encoded_len()
        need = target_len - base
        if need < 8:
            raise WireError(f"cannot pad message of {base} bytes to {target_len}")
        fields = dict(self.fields)
        fields[TAG_PAD] = b"\x00" * (need - 8)
        return HandshakeMessage(self.kind, fields)

    @classmethod
    def decode(cls, data: bytes) -> "HandshakeMessage":
        if len(data) < 4:
            raise WireError("truncated handshake message")
        kind = data[:4].decode("ascii", errors="replace")
        if kind not in (MSG_CHLO, MSG_REJ, MSG_SHLO):
            raise WireError(f"unknown handshake message kind {kind!r}")
        fields: dict[str, bytes] = {}
        pos = 4
        while pos < len(data):
            if len(data) - pos < 8:
                raise WireError("truncated TLV header")
            tag = data[pos:pos + 4].decode("ascii", errors="replace")
            vlen = int.from_bytes(data[pos + 4:pos + 8], "big")
            pos += 8
            if len(data) - pos < vlen:
                raise WireError("truncated TLV value")
            fields[tag] = data[pos:pos + vlen]
            pos += vlen
        return cls(kind, fields)
