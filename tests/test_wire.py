from random import Random

import pytest
from hypothesis import given, settings
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
    version=st.one_of(st.none(), st.just(wire.VERSION)),
    div_nonce=st.one_of(st.none(), st.binary(min_size=32, max_size=32)),
)

stream_frames = st.builds(
    StreamFrame,
    stream_id=st.integers(min_value=0, max_value=2**32 - 1),
    offset=st.integers(min_value=0, max_value=2**64 - 1),
    data=st.binary(max_size=64),
    fin=st.booleans(),
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
    decoded, length = decode_header(data)
    assert decoded == h
    assert length == len(data)


@settings(max_examples=200)
@given(st.lists(frames, max_size=6))
def test_frames_roundtrip(fs):
    assert decode_frames(encode_frames(fs)) == fs


@settings(max_examples=200)
@given(headers, frames)
def test_sizes_match_encoding(h, f):
    assert wire.header_len(h) == len(encode_header(h))
    assert wire.frame_len(f) == len(encode_frames([f]))


def test_header_truncated():
    h = PacketHeader(cid=5, sqn=9, version=wire.VERSION)
    data = encode_header(h)
    with pytest.raises(WireError):
        decode_header(data[:10])


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
    decoded, hlen = decode_header(pkt)
    assert decoded == h
    out = open_packet_body(decoded, hlen, pkt, keys, "server")
    assert out == b"\x01payload"


def test_header_is_authenticated():
    keys = split_keys(Random(9).randbytes(40))
    h = PacketHeader(cid=77, sqn=3, epoch=wire.EPOCH_IK)
    pkt = bytearray(seal_packet(h, b"\x01x", keys, "client"))
    pkt[1] ^= 0x01  # flip a cid bit
    decoded, hlen = decode_header(bytes(pkt))
    assert open_packet_body(decoded, hlen, bytes(pkt), keys, "server") is None


def test_wrong_keys_fail_to_open():
    ik = split_keys(Random(10).randbytes(40))
    k = split_keys(Random(11).randbytes(40))
    h = PacketHeader(cid=1, sqn=1, epoch=wire.EPOCH_IK)
    pkt = seal_packet(h, b"\x01m", ik, "client")
    decoded, hlen = decode_header(pkt)
    assert open_packet_body(decoded, hlen, pkt, k, "server") is None


def test_null_keys_roundtrip():
    h = PacketHeader(cid=2, sqn=1, epoch=wire.EPOCH_CLEAR, version=wire.VERSION)
    pkt = seal_packet(h, b"\x00hello", NULL_KEYS, "client")
    decoded, hlen = decode_header(pkt)
    assert open_packet_body(decoded, hlen, pkt, NULL_KEYS, "server") == b"\x00hello"


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
