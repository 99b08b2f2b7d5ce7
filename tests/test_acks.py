"""ACK state: the receiver's range-compressed record of received sqns, the
sender-named floor, the checks on an incoming ACK, the packet budget, and
when an owed ACK is sent."""

import time
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quicmq.agents import ClientAgent, ServerAgent
from quicmq.connection import (
    CONNECTION_WINDOW,
    MAX_ACK_DELAY_S,
    MAX_RANGES,
    MAX_STREAM_CHUNK,
    QUICK_ACKS,
    ReceivedSqns,
    StreamData,
)
from quicmq.handshake import ServerIdentity
from quicmq.mqtt import Broker
from quicmq.netsim import SimConfig, SimNetwork
from quicmq.wire import (
    EPOCH_K,
    HANDSHAKE_PACKET_LEN,
    AckFrame,
    CloseFrame,
    StreamFrame,
    WindowUpdateFrame,
    decode_frames,
    decode_header,
    encode_frames,
    open_packet_body,
)
from conftest import CLIENT_ADDR, SERVER_ADDR
from test_connection import run_handshake, seal_client_data


# ---------------------------------------------------------------------------
# ReceivedSqns against a plain set plus a floor
# ---------------------------------------------------------------------------

ops = st.lists(st.one_of(
    st.tuples(st.just("add"), st.integers(min_value=0, max_value=60)),
    st.tuples(st.just("floor"), st.integers(min_value=0, max_value=64)),
), max_size=80)


@st.composite
def shuffled_arrivals(draw):
    """Every sqn from 1 to n, some of them twice, and a few floor raises, in
    a random order: arrivals that fill gaps and merge the ranges around them."""
    n = draw(st.integers(min_value=1, max_value=60))
    sqns = list(range(1, n + 1)) + draw(st.lists(st.integers(1, n), max_size=n))
    floors = draw(st.lists(st.integers(1, n + 1), max_size=4))
    return draw(st.permutations([("add", s) for s in sqns]
                                + [("floor", f) for f in floors]))


def runs(xs) -> list[tuple[int, int]]:
    """The maximal runs of consecutive numbers in ``xs``, as inclusive ranges."""
    out: list[tuple[int, int]] = []
    for x in sorted(xs):
        if out and out[-1][1] == x - 1:
            out[-1] = (out[-1][0], x)
        else:
            out.append((x, x))
    return out


@settings(max_examples=300)
@given(st.one_of(ops, shuffled_arrivals()))
def test_received_sqns_matches_set_model(steps):
    got = ReceivedSqns()
    seen: set[int] = set()
    floor = 1
    for op, n in steps:
        if op == "add":
            fresh = n >= floor and n not in seen
            assert got.add(n) == fresh
            seen.add(n)
        else:
            got.raise_floor(n)
            floor = max(floor, n)
        received = [x for x in range(70) if x < floor or x in seen]
        assert [x for x in range(70) if x in got] == received
        largest = max(x for x in received if x >= floor - 1)
        assert got.largest == largest
        gaps = got.gaps()
        assert [x for lo, hi in gaps for x in range(lo, hi + 1)] == [
            x for x in range(got.floor, largest + 1) if x not in received]
        assert all(lo <= hi for lo, hi in gaps)
        assert all(a[1] + 1 < b[0] for a, b in zip(gaps, gaps[1:]))
        assert len(got) == len(gaps)  # one range held per gap it closes
        lowest_missing = min(x for x in range(1, 70) if x not in received)
        assert len(got) == len(runs(x for x in received if x > lowest_missing))


def test_in_order_receipt_holds_no_ranges():
    got = ReceivedSqns()
    for sqn in range(1, 1001):
        assert got.add(sqn)
    assert len(got) == 0 and got.largest == 1000 and got.gaps() == []
    assert not got.add(500)


# ---------------------------------------------------------------------------
# ACKs on the wire between two connections
# ---------------------------------------------------------------------------


def forge_ack(conn, ack: AckFrame, sqn=None) -> tuple[bytes, int]:
    """A client packet under k that carries ``ack``; returns it and its sqn."""
    sqn = conn.next_sqn if sqn is None else sqn
    return seal_client_data(conn.k, sqn, encode_frames([ack]), cid=conn.cid,
                            epoch=EPOCH_K), sqn


def frames_to_client(conn, packet: bytes) -> list:
    plain = open_packet_body(decode_header(packet), packet, conn.k, "client")
    return decode_frames(plain[1:])


def close_reason(server_conn, conn) -> bytes | None:
    server_conn.flush()
    for packet, _ in server_conn.take_outputs():
        for frame in frames_to_client(conn, packet):
            if isinstance(frame, CloseFrame):
                return frame.reason
    return None


def test_ack_of_unsent_sqn_is_refused(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    packet, sqn = forge_ack(conn, AckFrame(server_conn.next_sqn, 1))
    server_conn.handle_datagram(packet, CLIENT_ADDR)
    assert close_reason(server_conn, conn) == b"ack_of_unsent_packet"


def test_least_unacked_above_its_packet_is_refused(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    sqn = conn.next_sqn
    packet, _ = forge_ack(conn, AckFrame(1, sqn + 1), sqn)
    server_conn.handle_datagram(packet, CLIENT_ADDR)
    assert close_reason(server_conn, conn) == b"least_unacked_ahead"


def test_malformed_nack_ranges_are_refused(world):
    bad = [
        ((3, 3), (1, 1)),  # not ascending
        ((1, 3), (3, 4)),  # overlapping
        ((3, 2),),  # start above end
        ((2, 6),),  # reaches largest_observed
    ]
    for ranges in bad:
        net, client_ep, server_ep, conn = run_handshake(world)
        server_conn = server_ep.only_conn()
        for _ in range(4):  # server sqns up to at least 6
            server_conn._send_ack_packet()
        server_conn.take_outputs()
        packet, _ = forge_ack(conn, AckFrame(6, 1, ranges))
        server_conn.handle_datagram(packet, CLIENT_ADDR)
        assert close_reason(server_conn, conn) == b"bad_nack_ranges", ranges


def test_huge_nack_range_costs_a_walk_of_sent_packets_only(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    server_conn.send_stream(2, b"outstanding")
    server_conn.flush()
    server_conn.take_outputs()  # lost: the record stays outstanding
    (record,) = server_conn.recovery.sent.values()
    server_conn.next_sqn = 2**63 + 2
    packet, _ = forge_ack(conn, AckFrame(2**63 + 1, 1, ((1, 2**63),)))
    tracemalloc.start()
    t0 = time.perf_counter()
    server_conn.handle_datagram(packet, CLIENT_ADDR)
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert elapsed < 0.5 and peak < 1_000_000
    assert record.nack_count == 1 and server_conn.recovery.sent == {record.sqn: record}
    assert server_conn.phase == "established"


def test_gaps_past_the_packet_budget_keep_the_oldest(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    base = conn.next_sqn + 10
    for k in range(300):  # every other sqn: 300 one-sqn gaps and counting
        packet = seal_client_data(conn.k, base + 2 * k,
                                  encode_frames([WindowUpdateFrame(0, 0)]),
                                  cid=conn.cid, epoch=EPOCH_K)
        server_conn.handle_datagram(packet, CLIENT_ADDR)
    received = server_conn.received_sqns
    gaps = received.gaps()
    assert len(gaps) == 300
    server_conn.send_stream(2, b"x" * 1200)  # a full chunk leaves room for 4
    server_conn.flush()
    outputs = server_conn.take_outputs()
    assert len(outputs) == 1
    packet, _ = outputs[0]
    assert len(packet) <= HANDSHAKE_PACKET_LEN
    ack, stream = frames_to_client(conn, packet)
    assert isinstance(stream, StreamFrame)
    assert ack.nack_ranges == tuple(gaps[:4])
    assert ack.largest_observed == gaps[4][0] - 1
    # Under NACK semantics, whatever the ACK does not name reads as received.
    named = {x for lo, hi in ack.nack_ranges for x in range(lo, hi + 1)}
    for sqn in range(1, ack.largest_observed + 1):
        assert (sqn in named) != (sqn in received)
    # An ack-only packet has more room but still stops at the budget.
    server_conn._send_ack_packet()
    (packet, _), = server_conn.take_outputs()
    ack, = frames_to_client(conn, packet)
    assert len(packet) <= HANDSHAKE_PACKET_LEN
    assert 4 < len(ack.nack_ranges) < 300
    assert ack.nack_ranges == tuple(gaps[:len(ack.nack_ranges)])


def test_a_sqn_past_max_ranges_is_dropped_unacked(world):
    # Every other sqn past the cap: the packet that would open range
    # MAX_RANGES + 1 is dropped as if lost, not refused at the gate, and
    # the connection still takes a later packet in order.
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    base = conn.next_sqn + 10
    for k in range(MAX_RANGES + 20):
        packet = seal_client_data(conn.k, base + 2 * k,
                                  encode_frames([WindowUpdateFrame(0, 0)]),
                                  cid=conn.cid, epoch=EPOCH_K)
        server_conn.handle_datagram(packet, CLIENT_ADDR)
    received = server_conn.received_sqns
    assert len(received) == MAX_RANGES
    last = base + 2 * (MAX_RANGES - 1)
    assert last in received and last + 2 not in received
    assert server_conn.auth_failures == 0
    assert server_conn.phase == "established"
    packet = seal_client_data(conn.k, last + 1, encode_frames([StreamFrame(3, 0, b"later")]),
                              cid=conn.cid, epoch=EPOCH_K)
    server_conn.handle_datagram(packet, CLIENT_ADDR)
    assert len(received) == MAX_RANGES and last + 1 in received
    assert [ev.data for ev in server_ep.events_of(StreamData)] == [b"later"]


def test_least_unacked_lets_the_receiver_drop_old_gaps(world):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    lost = conn.next_sqn
    conn._send_ack_packet()
    conn.take_outputs()  # an ack-only packet, lost: nothing will re-send it
    conn.send_stream(3, b"\x30\x04\x00\x01tx")
    client_ep.pump(conn.cid)
    net.run(until_s=net.clock.now_s + 0.5)
    # The client's floor passed the lost packet: the server counts it as
    # received and holds no gap for it.
    assert server_conn.received_sqns.floor > lost
    assert lost in server_conn.received_sqns
    assert len(server_conn.received_sqns) == 0
    # A packet that late is a duplicate now (RFC 9000 §13.2.3).
    late = seal_client_data(conn.k, lost, encode_frames([WindowUpdateFrame(0, 0)]),
                            cid=conn.cid, epoch=EPOCH_K)
    assert not server_conn.ack_needed
    server_conn.handle_datagram(late, CLIENT_ADDR)
    assert not server_conn.ack_needed  # the frame was never processed


@pytest.mark.parametrize("updates,close", [(8, False), (8, True), (1, False), (1, True)])
def test_queued_control_frames_never_push_a_full_chunk_past_the_budget(world, updates,
                                                                        close):
    net, client_ep, server_ep, conn = run_handshake(world)
    server_conn = server_ep.only_conn()
    controls = [WindowUpdateFrame(2 * i + 3, 1 << 20) for i in range(updates)]
    server_conn._control_frames += controls
    server_conn.send_stream(2, b"x" * 1200)
    if close:
        server_conn.close()
    server_conn.flush()
    outputs = server_conn.take_outputs()
    assert all(len(packet) <= HANDSHAKE_PACKET_LEN for packet, _ in outputs)
    sent = [[f for f in frames_to_client(conn, packet) if not isinstance(f, AckFrame)]
            for packet, _ in outputs]
    last = [StreamFrame(2, 0, b"x" * 1200)] + ([CloseFrame()] if close else [])
    if updates == 8:
        # 8 updates and a full chunk came to 1375 B: the updates go first,
        # in a packet of their own.
        assert [a for _, a in outputs] == ["control", "close" if close else "data s2"]
        assert sent == [controls, last]
    else:
        # A packet within the budget is not split.
        assert [a for _, a in outputs] == ["close" if close else "data s2"]
        assert sent == [controls + last]
    # Every frame is recorded for retransmission, in the packet it left in.
    assert [list(r.frames) for r in server_conn.recovery.sent.values()] == sent


# ---------------------------------------------------------------------------
# A long lossy run through the agents stays within the packet budget
# ---------------------------------------------------------------------------


def test_lossy_two_stream_run_keeps_every_datagram_in_budget():
    broker_addr = ("10.0.0.1", 4433)
    net = SimNetwork(SimConfig(name="lossy", delay_ms=0.2, loss_rate=0.02), seed=11)
    identity = ServerIdentity.create(now=0.0, rng=Random(42))
    server = ServerAgent(net, broker_addr, identity, broker=Broker(), rng=Random(11))
    got = []
    sub = ClientAgent(net, ("10.0.0.3", 40000), broker_addr, "sub",
                      identity.sign_pair.pk, rng=Random(1),
                      on_message=lambda agent, msg: got.append(msg.payload))
    pub = ClientAgent(net, ("10.0.0.2", 40000), broker_addr, "pub",
                      identity.sign_pair.pk, rng=Random(2))
    for agent in (sub, pub):
        agent.connect_mqtt()
    net.run(until_s=2.0)
    assert sub.connected and pub.connected
    sub.subscribe("age/small", stream_id=3)
    sub.subscribe("age/big", stream_id=5)
    net.run(until_s=3.0)
    rng = Random(5)
    for i in range(600):
        big = rng.random() < 0.1
        payload = i.to_bytes(4, "big") + rng.randbytes((4096 if big else 32) - 4)
        topic, stream_id = ("age/big", 5) if big else ("age/small", 3)
        net.schedule(0.001 * (i + 1), lambda t=topic, p=payload, s=stream_id:
                     pub.publish(t, p, stream_id=s))
    net.run(until_s=net.clock.now_s + 5.0)
    sends = [ev for ev in net.trace if ev.event == "send"]
    assert any(ev.event == "drop" for ev in net.trace)
    assert any(ev.annotation.endswith("retx") for ev in sends)
    assert len(got) > 300
    assert max(ev.size for ev in sends) <= HANDSHAKE_PACKET_LEN
    conns = [pub.conn, sub.conn] + [s.conn for s in server.conns.values()]
    assert all(len(c.received_sqns) < 10 for c in conns)


# ---------------------------------------------------------------------------
# When an owed ACK goes out
# ---------------------------------------------------------------------------

DELAY_US = 1000  # the one-way delay of the world fixture's link
MAX_ACK_DELAY_US = round(MAX_ACK_DELAY_S * 1_000_000)


def client_sends(net, client_ep, conn, data=b"x") -> int:
    """The client sends ``data`` on stream 3 in one flush, one chunk per
    packet; returns the simulated time (us) it reaches the server, and runs
    the simulator up to it."""
    conn.send_stream(3, data)
    client_ep.pump(conn.cid)
    arrival = net.clock.now_us + DELAY_US
    net.run(until_s=arrival / 1e6)
    return arrival


def server_acks(net, since_us: int) -> list:
    """The server's ack-only sends from ``since_us`` on, as trace events."""
    return [ev for ev in net.trace if ev.event == "send" and ev.src == SERVER_ADDR
            and ev.annotation == "ack" and ev.time_us >= since_us]


def past_quick_acks(world):
    """A handshake, then QUICK_ACKS lone client packets, each of which the
    server acks at once."""
    net, client_ep, server_ep, conn = run_handshake(world)
    for _ in range(QUICK_ACKS):
        arrival = client_sends(net, client_ep, conn)
        assert [ev.time_us for ev in server_acks(net, arrival)] == [arrival]
        net.run(until_s=net.clock.now_s + 0.05)
    return net, client_ep, server_ep, conn


def test_first_quick_acks_packets_are_each_acked_at_once(world):
    net, client_ep, server_ep, conn = past_quick_acks(world)
    # The next lone packet waits for the timer.
    arrival = client_sends(net, client_ep, conn)
    assert server_acks(net, arrival) == []
    assert server_ep.only_conn().ack_needed == 1


def test_two_in_order_packets_share_one_ack(world):
    net, client_ep, server_ep, conn = past_quick_acks(world)
    first = conn.next_sqn
    arrival = client_sends(net, client_ep, conn, b"x" * (MAX_STREAM_CHUNK + 1))
    packet, _ = server_ep.sent[-1]
    net.run(until_s=net.clock.now_s + 0.1)
    assert [ev.time_us for ev in server_acks(net, arrival)] == [arrival]
    (ack,) = frames_to_client(conn, packet)
    assert ack.largest_observed == first + 1 and ack.nack_ranges == ()


def test_lone_packet_is_acked_by_the_timer(world):
    net, client_ep, server_ep, conn = past_quick_acks(world)
    arrival = client_sends(net, client_ep, conn)
    net.run(until_s=net.clock.now_s + 0.1)
    (ack,) = server_acks(net, arrival)
    assert 0 < ack.time_us - arrival <= MAX_ACK_DELAY_US
    assert server_ep.only_conn().ack_needed == 0


def test_timer_left_armed_acks_a_later_packet(world):
    net, client_ep, server_ep, conn = past_quick_acks(world)
    first = client_sends(net, client_ep, conn)  # arms the timer
    net.run(until_s=net.clock.now_s + 0.005)
    second = client_sends(net, client_ep, conn)  # two owed: acked at once
    net.run(until_s=net.clock.now_s + 0.005)
    client_sends(net, client_ep, conn)  # the armed timer serves it
    net.run(until_s=net.clock.now_s + 0.1)
    assert [ev.time_us for ev in server_acks(net, first)] == [
        second, first + MAX_ACK_DELAY_US]


def test_packet_that_opens_a_gap_is_acked_at_once(world):
    net, client_ep, server_ep, conn = past_quick_acks(world)
    arrival = client_sends(net, client_ep, conn)
    assert server_acks(net, arrival) == []  # in order: delayed
    net.run(until_s=net.clock.now_s + 0.1)
    conn.send_stream(3, b"lost")
    conn.flush()
    conn.take_outputs()  # dropped on the way
    arrival = client_sends(net, client_ep, conn)
    assert len(server_ep.only_conn().received_sqns) == 1
    assert [ev.time_us for ev in server_acks(net, arrival)] == [arrival]


def test_queued_window_update_leaves_at_once(world, windows):
    window = 2048
    windows(window, CONNECTION_WINDOW)
    net, client_ep, server_ep, conn = past_quick_acks(world)
    server_conn = server_ep.only_conn()
    arrival = client_sends(net, client_ep, conn)
    assert server_acks(net, arrival) == []  # no update queued: delayed
    net.run(until_s=net.clock.now_s + 0.1)
    # One chunk takes the stream past half its window.
    arrival = client_sends(net, client_ep, conn, b"x" * 1100)
    assert [ev.time_us for ev in server_acks(net, arrival)] == [arrival]
    packet, _ = server_ep.sent[-1]
    updates = [f for f in frames_to_client(conn, packet)
               if isinstance(f, WindowUpdateFrame)]
    assert updates == [WindowUpdateFrame(3, server_conn.streams[3].delivered + window)]


def _subscriber_owing_an_ack():
    """A subscriber past its quick acks that has just received a lone
    PUBLISH, so its ACK timer is armed."""
    broker_addr = ("10.0.0.1", 4433)
    net = SimNetwork(SimConfig(delay_ms=1.0), seed=3)
    identity = ServerIdentity.create(now=0.0, rng=Random(42))
    ServerAgent(net, broker_addr, identity, rng=Random(3))
    sub = ClientAgent(net, ("10.0.0.3", 40000), broker_addr, "sub",
                      identity.sign_pair.pk, rng=Random(1))
    pub = ClientAgent(net, ("10.0.0.2", 40000), broker_addr, "pub",
                      identity.sign_pair.pk, rng=Random(2))
    for agent in (sub, pub):
        agent.connect_mqtt()
    net.run(until_s=1.0)
    sub.subscribe("t")
    net.run(until_s=1.1)
    for _ in range(QUICK_ACKS + 1):
        pub.publish("t", b"m")
        net.run(until_s=net.clock.now_s + 0.1)
    pub.publish("t", b"m")
    net.run(until_s=net.clock.now_s + 0.0025)  # two hops in: delivered
    assert sub.conn.ack_needed == 1 and sub.conn._ack_timer is not None
    return net, sub


@pytest.mark.parametrize("end", ["close", "kill"])
def test_no_ack_leaves_after_close_or_kill(end):
    net, sub = _subscriber_owing_an_ack()
    timer = sub.conn._ack_timer
    since = net.clock.now_us
    if end == "close":
        sub.disconnect()  # close(), then a flush: the CLOSE carries the ACK
        assert sub.conn.ack_needed == 0  # the armed timer finds none owed
    else:
        sub.kill()
        assert timer.cancelled and sub.conn._ack_timer is None
    net.run(until_s=net.clock.now_s + 1.0)
    sent = [ev.annotation for ev in net.trace if ev.event == "send"
            and ev.src == sub.local_addr and ev.time_us >= since]
    assert sent == (["close"] if end == "close" else [])
