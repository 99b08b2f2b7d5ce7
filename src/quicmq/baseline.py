"""Scripted TCP/TLS1.2 baseline: hand-enumerated packet ladders for the
connection-establishment comparison, an ordered-delivery latency model for
the head-of-line experiments, and state/throughput series for the half-open
and migration experiments.

This is an analytical model, not a TCP implementation: ladders are replayed
through the simulator datagram by datagram so packet counts always come out
of traces, and delivery ordering is computed exactly, but congestion control
and ack coalescing are reduced to a documented per-loss cost (each dropped
datagram costs one retransmission, one duplicate/probe ack from the peer,
and one ack elicited by the retransmission - TCP acks every recovered
segment, where the QUIC side coalesces ack information into packets it is
sending anyway).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .netsim import Address, SimNetwork

# Hand-enumerated connect/subscribe/disconnect ladders. Direction "c" is
# client to broker, "s" broker to client; sizes are representative on-wire
# bytes (they do not affect any acceptance number).

_SETUP_FULL = [
    ("c", "syn", 74),
    ("s", "syn_ack", 74),
    ("c", "ack", 66),
    ("c", "tls_client_hello", 280),
    ("s", "ack", 66),
    ("s", "tls_server_hello_cert_done", 1200),
    ("c", "tls_key_exchange_ccs_finished", 192),
    ("s", "tls_ccs_finished", 117),
    ("c", "mqtt_connect", 110),
    ("s", "mqtt_connack", 70),
    ("c", "ack", 66),
]

_SUBSCRIBE_PHASE = [
    ("c", "mqtt_subscribe", 90),
    ("s", "ack", 66),
    ("s", "mqtt_suback", 71),
    ("c", "ack", 66),
]

_TEARDOWN = [
    ("c", "mqtt_disconnect", 68),
    ("c", "fin", 66),
    ("s", "fin_ack", 66),
    ("c", "ack", 66),
]

# One full TCP+TLS1.2 handshake per role: the baseline the reduction table
# uses. The broker is the far end of both ladders.
LADDERS = {
    "publisher": _SETUP_FULL + _TEARDOWN,
    "subscriber": _SETUP_FULL + _SUBSCRIBE_PHASE + _TEARDOWN,
}


class BaselineError(Exception):
    pass


TCP_RTO_S = 0.2  # retransmission timeout of the ladder replay


def run_tcp_ladders(net: SimNetwork, broker_addr: Address,
                    endpoints: list[tuple[Address, str]]) -> None:
    """Replay each client endpoint's ladder through the simulator, so its
    packet counts are trace-derived, applying the documented per-loss cost
    model. The broker address is registered as a sink. Runs the network to
    completion."""
    delay = net.config.delay_ms / 1000.0

    def send(size: int, src: Address, dst: Address, annotation: str) -> bool:
        net.send(b"\x00" * size, src, dst, annotation)
        return net.trace[-1].event != "drop"

    def replay(client: Address, ladder: list) -> None:
        def ends(i: int) -> tuple[Address, Address]:
            return (client, broker_addr) if ladder[i][0] == "c" else (broker_addr, client)

        def step(i: int) -> None:
            if i == len(ladder):
                return
            _, label, size = ladder[i]
            if send(size, *ends(i), f"tcp {label}"):
                net.schedule(delay, lambda: step(i + 1))
            else:
                net.schedule(TCP_RTO_S, lambda: recover(i))

        def recover(i: int) -> None:
            """Timeout recovery for one lost datagram. Both ends of the
            stalled exchange retransmit (the classic crossed-timer
            duplicate), the peer emits its probe/duplicate ack, and the
            recovered segment gets its own cumulative ack: four datagrams
            per loss event."""
            _, label, size = ladder[i]
            src, dst = ends(i)
            send(66, dst, src, f"tcp dup_ack {label}")
            if i > 0:
                _, plabel, psize = ladder[i - 1]
                send(psize, *ends(i - 1), f"tcp {plabel} spurious_retx")
            if not send(size, src, dst, f"tcp {label} retx"):
                net.schedule(TCP_RTO_S, lambda: recover(i))
                return
            send(66, dst, src, f"tcp ack_of_retx {label}")
            net.schedule(delay, lambda: step(i + 1))

        step(0)

    net.register(broker_addr, lambda payload, src: None)
    for client, role in endpoints:
        net.register(client, lambda payload, src: None)
        replay(client, LADDERS[role])
    net.run()


# ---------------------------------------------------------------------------
# Head-of-line latency model
# ---------------------------------------------------------------------------

def hol_latency_trace(message_count: int, send_interval_s: float,
                      one_way_delay_s: float, drop_every_n: int,
                      rto_s: float) -> list[float]:
    """Per-message delivery latency under ordered (in-sequence) delivery.

    Message ``i`` leaves at ``i * T``; every ``drop_every_n``-th original is
    lost and retransmitted once after ``rto_s`` (retransmissions are not
    re-dropped, matching the targeted drop rule the QUIC side runs under).
    The receiver releases a message only once everything before it has
    arrived - the head-of-line stall - then forwards it over a lossless
    second hop.
    """
    if drop_every_n and drop_every_n < 2:
        raise BaselineError("drop_every_n must be >= 2 or 0")
    latencies = []
    release_floor = 0.0
    for i in range(1, message_count + 1):
        sent = i * send_interval_s
        arrival = sent + one_way_delay_s
        if drop_every_n and i % drop_every_n == 0:
            arrival = sent + rto_s + one_way_delay_s
        release = max(arrival, release_floor)
        release_floor = release
        latencies.append(release + one_way_delay_s - sent)
    return latencies


# ---------------------------------------------------------------------------
# Half-open connection state model
# ---------------------------------------------------------------------------

def half_open_series(conns: int, restart_at_s: float, horizon_s: float,
                     keepalive_s: float | None = None) -> list[tuple[float, int]]:
    """Broker-side connection-state count over time for the TCP baseline,
    sampled once a second.

    Without keep-alive the broker has no way to notice dead publishers, so
    the half-open entries survive the whole horizon. With keep-alive the
    entries drop once one and a half keep-alive periods elapse in silence.
    """
    series = []
    t = 0.0
    while t <= horizon_s:
        count = conns
        if keepalive_s is not None and t >= restart_at_s + 1.5 * keepalive_s:
            count = 0
        series.append((t, count))
        t += 1.0
    return series


# ---------------------------------------------------------------------------
# Migration throughput model
# ---------------------------------------------------------------------------

@dataclass
class MigrationBaseline:
    throughput: list[tuple[float, int]]  # per-second delivered messages
    reestablishments: int
    zero_windows: list[tuple[float, float]]
    max_gap_s: float = field(default=0.0)


def migration_model(duration_s: float, change_interval_s: float,
                    publish_interval_s: float, rtt_s: float) -> MigrationBaseline:
    """Deliveries over time when every address change tears the connection
    down and a full TCP+TLS+MQTT ladder (three round trips) must complete
    before traffic resumes."""
    reestablish_s = 3.0 * rtt_s
    changes = [t for t in _frange(change_interval_s, duration_s, change_interval_s)]
    zero_windows = [(t, t + reestablish_s) for t in changes]
    deliveries = []
    t = publish_interval_s
    while t <= duration_s:
        arrival = t + rtt_s / 2.0
        for start, end in zero_windows:
            if start <= t < end:
                # Sent while down: queued until the connection is back.
                arrival = end + rtt_s / 2.0
                break
        deliveries.append(arrival)
        t += publish_interval_s
    deliveries.sort()
    series, max_gap = per_second(deliveries, duration_s)
    return MigrationBaseline(series, len(changes), zero_windows, max_gap)


def per_second(deliveries: list[float], duration_s: float) -> tuple[list, float]:
    """Deliveries counted per second from 0 to ``duration_s``, and the
    longest gap between consecutive ones; ``deliveries`` is sorted."""
    per: Counter[int] = Counter(int(d) for d in deliveries)
    series = [(float(second), per[second]) for second in range(int(duration_s) + 1)]
    max_gap = max((b - a for a, b in zip(deliveries, deliveries[1:])), default=0.0)
    return series, max_gap


def _frange(start: float, stop: float, step: float) -> list[float]:
    out = []
    v = start
    while v < stop:
        out.append(v)
        v += step
    return out
