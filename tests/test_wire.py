import struct
from random import Random

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quicmq import wire
from quicmq.crypto import NULL_KEYS, split_keys
from quicmq.wire import (
    AckFrame,
    CloseFrame,
    HandshakeMessage,
    PacketHeader,
    StreamFrame,
    WindowUpdateFrame,
    WireError,
    decode_frames,
    decode_header,
    encode_frames,
    encode_header,
    open_packet_body,
    seal_packet,
)

headers = st.builds(
    PacketHeader,
    cid=st.integers(min_value=0, max_value=2**64 - 1),
    sqn=st.integers(min_value=0, max_value=2**64 - 1),
    epoch=st.sampled_from([wire.EPOCH_CLEAR, wire.EPOCH_IK, wire.EPOCH_K]),
)

stream_frames = st.builds(
    StreamFrame,
    stream_id=st.integers(min_value=0, max_value=2**32 - 1),
    offset=st.integers(min_value=0, max_value=2**64 - 1),
    data=st.binary(max_size=64),
)
ack_frames = st.builds(
    AckFrame,
    largest_observed=st.integers(min_value=0, max_value=2**64 - 1),
    least_unacked=st.integers(min_value=0, max_value=2**64 - 1),
    nack_ranges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**64 - 1),
            st.integers(min_value=0, max_value=2**64 - 1),
        ),
        max_size=5,
    ).map(tuple),
)
frames = st.one_of(
    stream_frames,
    ack_frames,
    st.builds(
        WindowUpdateFrame,
        stream_id=st.integers(min_value=0, max_value=2**32 - 1),
        byte_offset=st.integers(min_value=0, max_value=2**64 - 1),
    ),
    st.builds(
        CloseFrame,
        error_code=st.integers(min_value=0, max_value=2**32 - 1),
        reason=st.binary(max_size=32),
    ),
)


@settings(max_examples=200)
@given(headers)
def test_header_roundtrip(h):
    data = encode_header(h)
    assert decode_header(data + b"body") == h
    assert len(data) == wire.HEADER_LEN


@settings(max_examples=200)
@given(st.lists(frames, max_size=6))
def test_frames_roundtrip(fs):
    assert decode_frames(encode_frames(fs)) == fs


@settings(max_examples=200)
@given(headers, frames)
def test_sizes_match_encoding(h, f):
    assert len(encode_header(h)) == wire.HEADER_LEN
    assert wire.frame_len(f) == len(encode_frames([f]))


def test_header_truncated():
    h = PacketHeader(cid=5, sqn=9)
    data = encode_header(h)
    with pytest.raises(WireError):
        decode_header(data[:-1])


@pytest.mark.parametrize("bit", [0x01, 0x02])
def test_header_with_flag_bit_0_or_1_is_refused(bit):
    # No sender sets flag bits 0-1, and a receiver refuses a header with
    # either set.
    data = bytearray(encode_header(PacketHeader(cid=5, sqn=9, epoch=wire.EPOCH_K)))
    data[0] |= bit
    with pytest.raises(WireError, match="reserved header flag set"):
        decode_header(bytes(data))


def test_ack_frame_nack_range_cap():
    too_many = tuple((i, i) for i in range(257))
    with pytest.raises(WireError):
        encode_frames([AckFrame(300, 0, too_many)])


def test_decode_rejects_257_ranges():
    # Hand-build an ACK frame header claiming 257 ranges.
    raw = bytes([wire.KIND_ACK]) + (300).to_bytes(8, "big") + (0).to_bytes(8, "big") + (257).to_bytes(2, "big")
    raw += b"\x00" * (16 * 257)
    with pytest.raises(WireError):
        decode_frames(raw)


def test_decode_frames_unknown_kind():
    with pytest.raises(WireError):
        decode_frames(b"\x7f")


def test_decode_frames_refuses_kind_0x04():
    # 0x04 carried RST_STREAM once; streams now end with FIN or their
    # connection, so it is an unknown kind like any other.
    raw = bytes([0x04]) + (3).to_bytes(4, "big") + (0).to_bytes(8, "big") + bytes(4)
    with pytest.raises(WireError, match="unknown frame kind 0x04"):
        decode_frames(raw)


def test_seal_open_roundtrip():
    keys = split_keys(Random(8).randbytes(40))
    h = PacketHeader(cid=77, sqn=3, epoch=wire.EPOCH_IK)
    pkt = seal_packet(h, b"\x01payload", keys, "client")
    decoded = decode_header(pkt)
    assert decoded == h
    out = open_packet_body(decoded, pkt, keys, "server")
    assert out == b"\x01payload"


def test_header_is_authenticated():
    keys = split_keys(Random(9).randbytes(40))
    h = PacketHeader(cid=77, sqn=3, epoch=wire.EPOCH_IK)
    pkt = bytearray(seal_packet(h, b"\x01x", keys, "client"))
    pkt[1] ^= 0x01  # flip a cid bit
    decoded = decode_header(bytes(pkt))
    assert open_packet_body(decoded, bytes(pkt), keys, "server") is None


def test_wrong_keys_fail_to_open():
    ik = split_keys(Random(10).randbytes(40))
    k = split_keys(Random(11).randbytes(40))
    h = PacketHeader(cid=1, sqn=1, epoch=wire.EPOCH_IK)
    pkt = seal_packet(h, b"\x01m", ik, "client")
    assert open_packet_body(decode_header(pkt), pkt, k, "server") is None


def test_null_keys_roundtrip():
    h = PacketHeader(cid=2, sqn=1, epoch=wire.EPOCH_CLEAR)
    pkt = seal_packet(h, b"\x00hello", NULL_KEYS, "client")
    assert open_packet_body(decode_header(pkt), pkt, NULL_KEYS, "server") == b"\x00hello"


# The half of a key set each role seals with, written out as a table: a
# packet is sealed under the key and IV prefix of the end it is addressed to.
SEAL_HALF = {"client": ("k_s", "iv_s"), "server": ("k_c", "iv_c")}
PEER = {"client": "server", "server": "client"}


@settings(max_examples=200)
@given(st.binary(min_size=40, max_size=40), st.sampled_from(["client", "server"]),
       headers, st.binary(max_size=64))
def test_seal_and_open_pick_the_key_half_by_role(material, role, h, pt):
    keys = split_keys(material)
    assume((keys.k_c, keys.iv_c) != (keys.k_s, keys.iv_s))
    key_name, iv_name = SEAL_HALF[role]
    hdr = encode_header(h)
    nonce = getattr(keys, iv_name) + h.sqn.to_bytes(8, "big")
    pkt = seal_packet(h, pt, keys, role)
    assert pkt == hdr + AESGCM(getattr(keys, key_name)).encrypt(nonce, pt, hdr)
    decoded = decode_header(pkt)
    assert open_packet_body(decoded, pkt, keys, PEER[role]) == pt
    assert open_packet_body(decoded, pkt, keys, role) is None


def test_handshake_message_roundtrip():
    msg = HandshakeMessage(wire.MSG_CHLO, {wire.TAG_NONC: b"n" * 24, wire.TAG_SCID: b"s" * 32})
    assert HandshakeMessage.decode(msg.encode()) == msg


def test_handshake_message_padding_exact():
    msg = HandshakeMessage(wire.MSG_CHLO, {wire.TAG_VER: wire.VERSION})
    padded = msg.padded(600)
    assert padded.encoded_len() == 600
    assert len(padded.encode()) == 600
    decoded = HandshakeMessage.decode(padded.encode())
    assert decoded.fields[wire.TAG_VER] == wire.VERSION


def test_handshake_message_padding_too_tight():
    msg = HandshakeMessage(wire.MSG_CHLO, {wire.TAG_VER: wire.VERSION})
    with pytest.raises(WireError):
        msg.padded(msg.encoded_len() + 3)


def test_handshake_message_truncated():
    msg = HandshakeMessage(wire.MSG_REJ, {wire.TAG_STK: b"t" * 36})
    data = msg.encode()
    with pytest.raises(WireError):
        HandshakeMessage.decode(data[:-5])


def test_handshake_message_unknown_kind():
    with pytest.raises(WireError):
        HandshakeMessage.decode(b"XXXX" + b"\x00" * 8)


# ---------------------------------------------------------------------------
# Reference oracles: the frame codecs as they were before they were
# rewritten on precompiled struct layouts, kept verbatim, and the header
# codec written out byte by byte for its one layout. For every input the
# codecs in ``wire`` must give the same bytes or records, or raise the same
# exception type with the same message. Integers are drawn within their
# fields' widths, the only values the connection produces.
# ---------------------------------------------------------------------------

def ref_encode_header(h: PacketHeader) -> bytes:
    return bytes([(h.epoch & 0x03) << 2]) + h.cid.to_bytes(8, "big") + h.sqn.to_bytes(8, "big")


def ref_decode_header(data: bytes) -> PacketHeader:
    """Decode the clear header, the first 17 bytes of ``data``."""
    if len(data) < 17:
        raise WireError("truncated header")
    flags = data[0]
    if flags & 0x03:
        raise WireError("reserved header flag set")
    cid = int.from_bytes(data[1:9], "big")
    sqn = int.from_bytes(data[9:17], "big")
    return PacketHeader(cid, sqn, (flags >> 2) & 0x03)


def ref_encode_frame(f) -> bytes:
    if isinstance(f, StreamFrame):
        return (
            bytes([wire.KIND_STREAM])
            + struct.pack(">IQBI", f.stream_id, f.offset, 0, len(f.data))
            + f.data
        )
    if isinstance(f, AckFrame):
        if len(f.nack_ranges) > wire.MAX_NACK_RANGES:
            raise WireError(f"ack with {len(f.nack_ranges)} NACK ranges")
        out = bytes([wire.KIND_ACK]) + struct.pack(
            ">QQH", f.largest_observed, f.least_unacked, len(f.nack_ranges)
        )
        for start, end in f.nack_ranges:
            out += struct.pack(">QQ", start, end)
        return out
    if isinstance(f, WindowUpdateFrame):
        return bytes([wire.KIND_WINDOW_UPDATE]) + struct.pack(">IQ", f.stream_id, f.byte_offset)
    if isinstance(f, CloseFrame):
        return bytes([wire.KIND_CLOSE]) + struct.pack(">IH", f.error_code, len(f.reason)) + f.reason
    raise WireError(f"unknown frame {f!r}")


def ref_decode_frames(data: bytes) -> list:
    frames = []
    pos = 0
    n = len(data)
    while pos < n:
        kind = data[pos]
        pos += 1
        if kind == wire.KIND_STREAM:
            if n - pos < 17:
                raise WireError("truncated STREAM frame")
            stream_id, offset, reserved, dlen = struct.unpack_from(">IQBI", data, pos)
            if reserved:
                raise WireError("reserved STREAM byte set")
            pos += 17
            if n - pos < dlen:
                raise WireError("truncated STREAM data")
            frames.append(StreamFrame(stream_id, offset, data[pos:pos + dlen]))
            pos += dlen
        elif kind == wire.KIND_ACK:
            if n - pos < 18:
                raise WireError("truncated ACK frame")
            largest, least_unacked, count = struct.unpack_from(">QQH", data, pos)
            pos += 18
            if count > wire.MAX_NACK_RANGES:
                raise WireError(f"ack with {count} NACK ranges")
            if n - pos < 16 * count:
                raise WireError("truncated NACK ranges")
            ranges = []
            for _ in range(count):
                start, end = struct.unpack_from(">QQ", data, pos)
                pos += 16
                ranges.append((start, end))
            frames.append(AckFrame(largest, least_unacked, tuple(ranges)))
        elif kind == wire.KIND_WINDOW_UPDATE:
            if n - pos < 12:
                raise WireError("truncated WINDOW_UPDATE")
            stream_id, byte_offset = struct.unpack_from(">IQ", data, pos)
            pos += 12
            frames.append(WindowUpdateFrame(stream_id, byte_offset))
        elif kind == wire.KIND_CLOSE:
            if n - pos < 6:
                raise WireError("truncated CLOSE")
            code, rlen = struct.unpack_from(">IH", data, pos)
            pos += 6
            if n - pos < rlen:
                raise WireError("truncated CLOSE reason")
            frames.append(CloseFrame(code, data[pos:pos + rlen]))
            pos += rlen
        else:
            raise WireError(f"unknown frame kind 0x{kind:02x}")
    return frames


def outcome(fn, *args):
    """What ``fn(*args)`` gives: ("ok", value) or ("raise", type, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as e:  # noqa: BLE001 - the exception itself is compared
        return ("raise", type(e), str(e))


oracle_headers = st.builds(
    PacketHeader,
    cid=st.integers(min_value=0, max_value=2**64 - 1),
    sqn=st.integers(min_value=0, max_value=2**64 - 1),
    epoch=st.integers(min_value=0, max_value=3),
)


@settings(max_examples=400)
@given(oracle_headers)
def test_encode_header_matches_reference(h):
    assert outcome(encode_header, h) == outcome(ref_encode_header, h)


@settings(max_examples=300)
@given(oracle_headers, st.integers(min_value=0, max_value=255))
def test_decode_header_matches_reference_on_every_truncation(h, extra_bits):
    # Flag bits 4-7 carry nothing and bits 0-1 are refused; set on input,
    # both must be treated alike.
    data = bytearray(ref_encode_header(h))
    data[0] |= extra_bits & 0xF3
    data = bytes(data) + b"\xaa\xbb"  # trailing body bytes
    for cut in range(len(data) + 1):
        assert outcome(decode_header, data[:cut]) == outcome(ref_decode_header, data[:cut])


@settings(max_examples=400)
@given(st.binary(max_size=64))
def test_decode_header_matches_reference_on_random_bytes(data):
    assert outcome(decode_header, data) == outcome(ref_decode_header, data)


oracle_ack_frames = st.builds(
    AckFrame,
    largest_observed=st.integers(min_value=0, max_value=2**64 - 1),
    least_unacked=st.integers(min_value=0, max_value=2**64 - 1),
    nack_ranges=st.lists(
        st.tuples(st.integers(min_value=0, max_value=2**64 - 1),
                  st.integers(min_value=0, max_value=2**64 - 1)),
        min_size=1, max_size=5).map(tuple),
)
oracle_frames = st.lists(st.one_of(frames, oracle_ack_frames), max_size=6)


@settings(max_examples=300)
@given(oracle_frames)
def test_encode_frames_matches_reference(fs):
    assert outcome(encode_frames, fs) == outcome(
        lambda fs: b"".join(ref_encode_frame(f) for f in fs), fs)


def test_encode_frame_refusals_match_reference():
    for f in (AckFrame(300, 0, tuple((i, i) for i in range(257))), object()):
        assert outcome(wire.encode_frame, f) == outcome(ref_encode_frame, f)


@settings(max_examples=200)
@given(oracle_frames)
def test_decode_frames_matches_reference_on_every_truncation(fs):
    data = b"".join(ref_encode_frame(f) for f in fs)
    for cut in range(len(data) + 1):
        assert outcome(decode_frames, data[:cut]) == outcome(ref_decode_frames, data[:cut])


@settings(max_examples=400)
@given(st.binary(max_size=80),
       st.sampled_from([b"", bytes([wire.KIND_STREAM]), bytes([wire.KIND_ACK]),
                        bytes([wire.KIND_WINDOW_UPDATE]), bytes([wire.KIND_CLOSE])]))
def test_decode_frames_matches_reference_on_random_bytes(data, lead):
    data = lead + data
    assert outcome(decode_frames, data) == outcome(ref_decode_frames, data)


def test_decode_frames_matches_reference_on_edge_values():
    cases = []
    # A claimed range count at, above and far above the cap, with and
    # without the ranges it claims.
    for count in (0, 1, 5, 256, 257, 0xFFFF):
        head = bytes([wire.KIND_ACK]) + struct.pack(">QQH", 9, 1, count)
        cases += [head, head + b"\x00" * 16 * min(count, 300)]
    # Any nonzero reserved byte is refused, whole or truncated data behind it.
    for reserved in (0, 1, 2, 0x80, 0xFF):
        head = bytes([wire.KIND_STREAM]) + struct.pack(">IQBI", 3, 7, reserved, 2)
        cases += [head + b"ab", head + b"a"]
    for data in cases:
        assert outcome(decode_frames, data) == outcome(ref_decode_frames, data)
