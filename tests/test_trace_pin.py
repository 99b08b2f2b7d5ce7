"""A pinned trace of a lossy two-stream exchange: multi-chunk messages,
window updates, NACK ranges, retransmissions and delayed ACKs together.

The digest moves only when the wire bytes, the packet ladder, the simulated
timing, the seeded draws or the delivered payloads change. A change that
moves it must say why and pin the new value. The test also checks that the
exchange ran each of those paths, so the pin keeps covering them.
"""

import hashlib
from random import Random

from quicmq import connection
from quicmq.agents import ClientAgent, ServerAgent
from quicmq.connection import QUICK_ACKS, Connection
from quicmq.handshake import ServerIdentity
from quicmq.netsim import SimConfig, SimNetwork
from quicmq.wire import AckFrame, WindowUpdateFrame

BROKER = ("10.0.0.1", 4433)

# sha256 of lossy_exchange()'s trace lines, the received (topic, payload)
# pairs and the sha256 of every datagram's bytes, in the order sent.
PINNED_DIGEST = "0ddf82197ac3eeb67aec395c22c0e952017ce3299c397b1bebc50ce905a31977"


def lossy_exchange() -> bytes:
    """One publisher and one subscriber: 300 messages of 32 B on stream 3
    and of 4 KB on stream 5, about 9:1 by a seeded draw, one per simulated
    millisecond, over a link with 2% seeded loss and 0.2 ms delay. Returns
    the wire trace, what the subscriber received and a digest of the
    datagrams' bytes, which the trace does not hold. A REJ is among them:
    its config's signature is deterministic (RFC 6979)."""
    net = SimNetwork(SimConfig(delay_ms=0.2, loss_rate=0.02), seed=20)
    wire_bytes = hashlib.sha256()
    send = net.send

    def recording_send(payload, src, dst, annotation=""):
        wire_bytes.update(payload)
        send(payload, src, dst, annotation)
    net.send = recording_send
    identity = ServerIdentity.create(now=0.0, rng=Random(42))
    ServerAgent(net, BROKER, identity, rng=Random(20))
    received = []
    sub = ClientAgent(net, ("10.0.0.3", 40000), BROKER, "sub", identity.sign_pair.pk,
                      rng=Random(21),
                      on_message=lambda agent, msg: received.append((msg.topic, msg.payload)))
    pub = ClientAgent(net, ("10.0.0.2", 40000), BROKER, "pub", identity.sign_pair.pk,
                      rng=Random(22))
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=1.0)
    sub.subscribe("pin/small", stream_id=3)
    sub.subscribe("pin/big", stream_id=5)
    net.run(until_s=1.5)
    rng = Random(23)
    for i in range(300):
        big = rng.random() < 0.1
        payload = i.to_bytes(4, "big") + rng.randbytes((4096 if big else 32) - 4)
        topic, stream_id = ("pin/big", 5) if big else ("pin/small", 3)
        net.schedule(0.001 * (i + 1), lambda t=topic, p=payload, s=stream_id:
                     pub.publish(t, p, stream_id=s))
    net.run(until_s=net.clock.now_s + 3.0)
    return ("\n".join([ev.line() for ev in net.trace]).encode() + repr(received).encode()
            + wire_bytes.digest())


def test_lossy_two_stream_exchange_matches_pinned_trace(monkeypatch):
    frames_sent = []
    encode_frames = connection.encode_frames

    def recording(frames):
        frames_sent.extend(frames)
        return encode_frames(frames)
    monkeypatch.setattr(connection, "encode_frames", recording)

    timer_acks = []
    on_ack_delay = Connection._on_ack_delay

    def ack_delay(self):
        if self.phase == connection.ESTABLISHED and self.ack_needed:
            timer_acks.append(self._eliciting_rx)
        on_ack_delay(self)
    monkeypatch.setattr(Connection, "_on_ack_delay", ack_delay)

    out = lossy_exchange()
    assert b" retx" in out
    assert any(isinstance(f, AckFrame) and f.nack_ranges for f in frames_sent)
    assert any(isinstance(f, WindowUpdateFrame) and f.stream_id == 5 for f in frames_sent)
    assert any(n > QUICK_ACKS for n in timer_acks)
    assert hashlib.sha256(out).hexdigest() == PINNED_DIGEST
