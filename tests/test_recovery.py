"""The sender's loss recovery: ``Recovery`` driven directly, with no
network, and the connection's drain rule on the RTO, through netsim."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quicmq.agents import ClientAgent, ServerAgent
from quicmq.connection import (
    CLOSED,
    DRAIN_PERIOD_S,
    DRAINING,
    NACK_THRESHOLD,
    RTO_FLOOR_S,
    Recovery,
    SentPacket,
)
from quicmq.handshake import ServerIdentity
from quicmq.netsim import SimConfig, SimNetwork
from test_acks import runs

BROKER = ("10.0.0.1", 4433)


def sent(times: list[float]) -> Recovery:
    """A Recovery holding one record per entry of ``times``, sqns from 1."""
    recovery = Recovery()
    for sqn, at in enumerate(times, start=1):
        recovery.sent[sqn] = SentPacket(sqn, at, ())
    return recovery


def test_rto_is_twice_srtt_above_its_floor():
    recovery = Recovery()
    assert recovery.srtt is None and recovery.rto() == RTO_FLOOR_S
    recovery.srtt = RTO_FLOOR_S / 4
    assert recovery.rto() == RTO_FLOOR_S
    recovery.srtt = 0.3
    assert recovery.rto() == 0.6


def test_ack_without_gaps_acks_every_record_up_to_largest():
    recovery = sent([0.0, 0.25, 0.5, 0.75])
    assert list(recovery.on_ack(3, (), 1.0)) == []
    assert list(recovery.sent) == [4]
    # One sample per acked record, oldest first: 1.0, then 0.75, then 0.5.
    assert recovery.srtt == pytest.approx(0.875 * (0.875 * 1.0 + 0.125 * 0.75) + 0.125 * 0.5)


def test_nacked_records_are_yielded_in_sqn_order_at_the_threshold():
    recovery = sent([0.0] * 6)
    ranges = ((2, 3), (5, 5))
    for _ in range(NACK_THRESHOLD - 1):
        assert list(recovery.on_ack(6, ranges, 1.0)) == []
    assert list(recovery.sent) == [2, 3, 5]
    assert [r.nack_count for r in recovery.sent.values()] == [NACK_THRESHOLD - 1] * 3
    lost = list(recovery.on_ack(6, ranges, 1.0))
    assert [r.sqn for r in lost] == [2, 3, 5]
    assert all(r.nack_count == NACK_THRESHOLD for r in lost)


def test_a_lost_record_is_yielded_where_the_walk_reaches_it():
    # The re-send of record 2 must see record 1 acked and record 3 still
    # outstanding, with srtt sampled from record 1 alone.
    recovery = sent([0.0, 0.0, 0.5, 0.5])
    recovery.sent[2].nack_count = recovery.sent[4].nack_count = NACK_THRESHOLD - 1
    walk = recovery.on_ack(4, ((2, 2), (4, 4)), 1.0)
    assert next(walk).sqn == 2
    assert list(recovery.sent) == [2, 3, 4] and recovery.srtt == 1.0
    del recovery.sent[2]  # the re-send takes the record out
    assert next(walk).sqn == 4
    assert list(recovery.sent) == [4] and recovery.srtt == 0.875 * 1.0 + 0.125 * 0.5
    assert list(walk) == []


def test_expired_returns_the_records_at_least_one_rto_old():
    recovery = sent([0.0, 0.25, 0.5, 0.625])
    recovery.srtt = 0.125  # an RTO of 0.25
    assert [r.sqn for r in recovery.expired(0.75)] == [1, 2, 3]
    assert [r.sqn for r in recovery.expired(0.25)] == [1]
    assert list(recovery.sent) == [1, 2, 3, 4]  # nothing is taken out


@settings(max_examples=300)
@given(st.data())
def test_recovery_matches_set_model(data):
    recovery = Recovery()
    model: dict[int, list] = {}  # sqn -> [sent_at, nack_count], outstanding
    srtt = None
    now = 0.0
    next_sqn = 1

    def send():
        nonlocal next_sqn
        recovery.sent[next_sqn] = SentPacket(next_sqn, now, ())
        model[next_sqn] = [now, 0]
        next_sqn += 1

    for _ in range(data.draw(st.integers(1, 40))):
        now += data.draw(st.sampled_from([0.0, 0.01, 0.1, 0.25]))
        if next_sqn == 1 or data.draw(st.booleans()):
            send()
            continue
        largest = data.draw(st.integers(1, next_sqn - 1))
        nacked = data.draw(st.sets(st.integers(1, largest - 1))) if largest > 1 else set()
        # The model walk: (sqn, srtt when the walk reaches it) for each loss.
        lost = []
        for sqn in sorted(model):
            if sqn > largest:
                break
            if sqn in nacked:
                model[sqn][1] += 1
                if model[sqn][1] >= NACK_THRESHOLD:
                    lost.append((sqn, srtt))
            else:
                rtt = now - model.pop(sqn)[0]
                srtt = rtt if srtt is None else 0.875 * srtt + 0.125 * rtt
        got = []
        for record in recovery.on_ack(largest, tuple(runs(nacked)), now):
            got.append((record.sqn, recovery.srtt))
            # As a re-send does: the record leaves, and a fresh one is added.
            del recovery.sent[record.sqn]
            del model[record.sqn]
            send()
        assert got == lost
        assert recovery.srtt == srtt
        assert list(recovery.sent) == sorted(model)
        assert [r.nack_count for r in recovery.sent.values()] == [
            model[sqn][1] for sqn in sorted(model)]
        rto = RTO_FLOOR_S if srtt is None else max(RTO_FLOOR_S, 2.0 * srtt)
        assert [r.sqn for r in recovery.expired(now)] == [
            sqn for sqn in sorted(model) if now - model[sqn][0] >= rto]


def test_draining_connection_resends_only_its_close():
    # The client publishes, then disconnects at once, and nothing the
    # broker sends arrives: the publish and the CLOSE stay outstanding
    # through the drain, and only the CLOSE goes out again.
    net = SimNetwork(SimConfig(delay_ms=0.5), seed=5)
    identity = ServerIdentity.create(now=0.0, rng=Random(42))
    ServerAgent(net, BROKER, identity, rng=Random(5))
    reasons = []
    client = ClientAgent(net, ("10.0.0.9", 50001), BROKER, "c",
                         server_pk=identity.sign_pair.pk, rng=Random(9),
                         on_closed=lambda agent, reason: reasons.append(reason))
    client.connect_mqtt()
    net.run(until_s=1.0)
    assert client.connected
    net.add_periodic_drop(lambda src, dst, size, annotation: src == BROKER, 1)
    client.publish("t", b"x" * 100)
    closed_at = net.clock.now_us
    client.disconnect()
    net.run(until_s=1.0 + DRAIN_PERIOD_S - 0.1)
    assert client.conn.phase == DRAINING and reasons == []
    net.run(until_s=1.0 + DRAIN_PERIOD_S + 0.1)
    assert reasons == ["local_close"] and client.conn.phase == CLOSED
    sent_after = [ev.annotation for ev in net.trace
                  if ev.event == "send" and ev.src == client.local_addr
                  and ev.time_us > closed_at]
    retx = [a for a in sent_after if a.endswith(" retx")]
    assert len(retx) > 1 and set(retx) == {"close retx"}
    assert not any(a.startswith("data s") for a in sent_after)
