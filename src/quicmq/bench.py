"""The four benchmark scenarios, all driven over the deterministic
simulator: connection-establishment overhead, head-of-line blocking,
half-open-connection reclamation, and connection migration.

Every scenario is a function of its profile, parameters and seed: it takes
no file paths, leaves nothing on disk, and returns its full configuration,
its data and its world's trace in the result. A rerun with the same
arguments produces byte-identical JSON. Packet counts are always derived
from simulator traces; the TCP side replays its scripted ladders through the
same simulator.
"""

from __future__ import annotations

import json
import statistics
import struct
import tempfile
from dataclasses import dataclass, field
from random import Random

from . import baseline
from .agents import ClientAgent, ServerAgent
from .connection import DRAIN_PERIOD_S, ESTABLISHED, IDLE_TIMEOUT_S
from .handshake import ServerIdentity
from .netsim import PROFILES, Address, SimConfig, SimNetwork, Trace

BROKER_ADDR: Address = ("10.0.0.1", 4433)
PUB_IP = "10.0.0.2"
SUB_IP = "10.0.0.3"

ROLES = ("subscriber", "publisher", "broker")
MODES = ("tcp", "quic1rtt", "quic0rtt")


class BenchError(Exception):
    pass


@dataclass
class BenchResult:
    """What a scenario measured. ``trace`` is the datagram trace of the world
    the result reports; it is not part of the JSON."""

    scenario: str
    config: dict
    data: dict = field(default_factory=dict)
    trace: Trace = field(default_factory=Trace, repr=False, compare=False)

    def to_json(self) -> str:
        doc = {"scenario": self.scenario, "config": self.config, "data": self.data}
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())

    def series_rows(self) -> list[tuple[str, float, float]]:
        rows = []
        for key, value in sorted(self.data.items()):
            if isinstance(value, list) and value and isinstance(value[0], (list, tuple)) \
                    and len(value[0]) == 2:
                for t, v in value:
                    rows.append((key, float(t), float(v)))
        return rows

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("series,t,value\n")
            for name, t, v in self.series_rows():
                f.write(f"{name},{t},{v}\n")


def _profile(profile: str) -> SimConfig:
    try:
        return PROFILES[profile]
    except KeyError:
        raise BenchError(f"unknown profile {profile!r}") from None


def _identity_for(seed: int) -> ServerIdentity:
    return ServerIdentity.create(now=0.0, rng=Random(seed * 7919 + 13))


def _lossless(config: SimConfig) -> SimConfig:
    """The link of a scenario whose drops are the experiment's own (and of
    the 0-RTT warm-up): the profile's delay without its ambient loss."""
    return SimConfig(name=config.name, delay_ms=config.delay_ms)


class _World:
    """One simulated network on one link, with the broker at ``BROKER_ADDR``
    when an identity is given. ``link`` names the link for a result's
    config; ``client`` builds a client that trusts the broker's key."""

    def __init__(self, config: SimConfig, seed: int,
                 identity: ServerIdentity | None = None, server_seed: int = 0):
        self.link = {"profile": config.name, "delay_ms": config.delay_ms,
                     "loss_rate": config.loss_rate}
        self.net = SimNetwork(config, seed)
        self.identity = identity
        self.server = None if identity is None else ServerAgent(
            self.net, BROKER_ADDR, identity, rng=Random(server_seed))

    def client(self, addr: Address, client_id: str, rng_seed: int,
               **options) -> ClientAgent:
        return ClientAgent(self.net, addr, BROKER_ADDR, client_id,
                           server_pk=self.identity.sign_pair.pk,
                           rng=Random(rng_seed), **options)

    def role_counts(self) -> dict[str, int]:
        """Datagrams each role saw, from the trace."""
        return {"publisher": self.net.count_for_role(PUB_IP),
                "subscriber": self.net.count_for_role(SUB_IP),
                "broker": self.net.count_for_role(BROKER_ADDR[0])}


# ---------------------------------------------------------------------------
# Connection-establishment overhead
# ---------------------------------------------------------------------------

def _quic_conn_iteration(config: SimConfig, seed: int, identity: ServerIdentity,
                         state_dir: str | None) -> _World:
    """One connect/(subscribe)/disconnect cycle for a publisher and a
    subscriber."""
    world = _World(config, seed, identity, seed ^ 0xA5A5)
    net = world.net

    def pub_connected(agent):
        net.schedule(0.01, agent.disconnect)

    def sub_connected(agent):
        agent.subscribe("bench/t")

    def sub_suback(agent, msgid):
        net.schedule(0.01, agent.disconnect)

    pub = world.client((PUB_IP, 51000), "bench-pub", seed * 2 + 1,
                       state_dir=None if state_dir is None else f"{state_dir}/pub",
                       on_connected=pub_connected)
    sub = world.client((SUB_IP, 52000), "bench-sub", seed * 2 + 2,
                       state_dir=None if state_dir is None else f"{state_dir}/sub",
                       on_connected=sub_connected, on_suback=sub_suback)
    pub.connect_mqtt()
    sub.connect_mqtt()
    net.run(until_s=20.0)
    return world


def _tcp_conn_iteration(config: SimConfig, seed: int) -> _World:
    world = _World(config, seed)
    baseline.run_tcp_ladders(world.net, BROKER_ADDR,
                             [((PUB_IP, 51000), "publisher"),
                              ((SUB_IP, 52000), "subscriber")])
    return world


def bench_conn_overhead(profile: str = "wired", mode: str | None = None,
                        iterations: int = 10, seed: int = 0,
                        experiments: int = 1) -> BenchResult:
    """Median per-role datagram counts for one connection-establishment
    cycle. ``mode`` selects tcp, quic1rtt, or quic0rtt; None runs all three
    and reports the percentage reductions against the TCP baseline.

    Each experiment runs ``iterations`` connect cycles and contributes its
    median; the reported value is the median across experiments (the CLI
    defaults to 10 experiments of 10 iterations). The 0-RTT session files
    live in a temporary directory that is gone when the function returns;
    the trace is the last iteration's."""
    config = _profile(profile)
    modes = [mode] if mode else list(MODES)
    if any(m not in MODES for m in modes):
        raise BenchError(f"unknown mode {mode!r}")
    counts: dict[str, dict[str, int]] = {}
    last_event_s = 0.0
    with tempfile.TemporaryDirectory(prefix="quicmq-bench-") as state_dir:
        for m in modes:
            experiment_medians: dict[str, list[int]] = {role: [] for role in ROLES}
            identity = _identity_for(seed)
            mode_state = state_dir if m == "quic0rtt" else None
            if mode_state is not None:
                # Warm the session files over a lossless link so the measured
                # iterations all resume.
                _quic_conn_iteration(_lossless(config), seed * 1000 + 999, identity,
                                     mode_state)
            for e in range(experiments):
                per_role: dict[str, list[int]] = {role: [] for role in ROLES}
                for i in range(iterations):
                    iter_seed = (seed * 100 + e) * 1000 + i
                    if m == "tcp":
                        world = _tcp_conn_iteration(config, iter_seed)
                    else:
                        world = _quic_conn_iteration(config, iter_seed, identity,
                                                     mode_state)
                        # The trace is in time order: its last event is the latest.
                        last_event_s = max(last_event_s, world.net.trace[-1].time_us / 1e6)
                    result = world.role_counts()
                    for role in ROLES:
                        per_role[role].append(result[role])
                for role in ROLES:
                    experiment_medians[role].append(
                        int(statistics.median(per_role[role])))
            counts[m] = {role: int(statistics.median(experiment_medians[role]))
                         for role in ROLES}
    data: dict = {"packet_counts": counts, "last_event_s": round(last_event_s, 6)}
    if "tcp" in counts:
        reductions = {}
        for m in modes:
            if m == "tcp":
                continue
            reductions[m] = {
                role: round(100.0 * (counts["tcp"][role] - counts[m][role])
                            / counts["tcp"][role], 2)
                for role in ROLES
            }
        data["reductions_pct"] = reductions
    return BenchResult(
        scenario="conn_overhead",
        config={**world.link, "mode": mode or "all", "iterations": iterations,
                "experiments": experiments, "seed": seed},
        data=data, trace=world.net.trace)


# ---------------------------------------------------------------------------
# Head-of-line blocking
# ---------------------------------------------------------------------------

HOL_TAIL = 8  # unmeasured warm-down messages so every measured loss is
# detected by the NACK path rather than a trailing retransmission timeout


def _hol_world(config: SimConfig, seed: int, streams: int, messages: int,
               interval_s: float, drop_every_n: int, isolate_stream: int | None):
    """Run the QUIC side of a HOL experiment; returns per-stream latency
    lists in microseconds for the measured messages, and the world."""
    world = _World(_lossless(config), seed, _identity_for(seed), seed ^ 0xBEEF)
    net = world.net
    latencies: dict[int, list[int]] = {i: [] for i in range(streams)}
    state = {"subacks": 0, "delivered": 0}

    def on_message(agent, msg):
        idx, seq, sent_us = struct.unpack(">IIQ", msg.payload[:16])
        if seq < messages:
            latencies[idx].append(net.clock.now_us - sent_us)
            state["delivered"] += 1

    def sub_connected(agent):
        for i in range(streams):
            agent.subscribe(f"hol/{i}", stream_id=3 + 2 * i)

    pub = world.client((PUB_IP, 53000), "hol-pub", seed * 3 + 1)
    sub = world.client((SUB_IP, 53001), "hol-sub", seed * 3 + 2,
                       on_connected=sub_connected, on_message=on_message,
                       on_suback=lambda a, m: state.__setitem__("subacks",
                                                                state["subacks"] + 1))
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=5.0)
    if state["subacks"] < streams or not pub.connected:
        raise BenchError("HOL setup did not converge")

    # Targeted deterministic drops on the publisher's fresh data packets;
    # retransmissions are exempt so recovery always lands.
    if drop_every_n:
        def match(src, dst, size, ann):
            if src[0] != PUB_IP or "retx" in ann or not ann.startswith("data"):
                return False
            if isolate_stream is not None:
                return ann.split(" ")[1] == f"s{isolate_stream}"
            return True
        net.add_periodic_drop(match, drop_every_n)

    start = net.clock.now_s + 1.0

    def publish(j):
        if pub.dead:
            return
        idx = j % streams
        payload = struct.pack(">IIQ", idx, j, net.clock.now_us) + b"m" * 8
        pub.publish(f"hol/{idx}", payload, stream_id=3 + 2 * idx)

    for j in range(messages + HOL_TAIL):
        net.schedule(start - net.clock.now_s + j * interval_s,
                     lambda j=j: publish(j))
    net.run()
    if state["delivered"] < messages:
        raise BenchError(f"only {state['delivered']}/{messages} messages delivered")
    return latencies, world


def _hol_schedule(config: SimConfig, drop_rate: int) -> tuple[int, float, float]:
    """Check a HOL drop rate (percent) and return (drop_every_n, one-way
    delay, publish interval). The interval is scaled to the link and capped
    so that loss detection stays ack-driven rather than bounded by the
    retransmission-timer floor."""
    if drop_rate not in (0, 10, 20, 50):
        raise BenchError(f"unsupported drop rate {drop_rate}")
    delay_s = config.delay_ms / 1000.0
    interval_s = max(0.001, min(4.0 * delay_s, 0.02))
    return (100 // drop_rate if drop_rate else 0), delay_s, interval_s


def bench_hol(profile: str = "wired", drop_rate: int = 10,
              streams: int = 2, messages: int = 200, seed: int = 0) -> BenchResult:
    """Per-message delivery latency with deterministic per-flow drops: the
    QUIC stack over the simulator versus the ordered-delivery TCP model."""
    config = _profile(profile)
    drop_every_n, delay_s, interval_s = _hol_schedule(config, drop_rate)
    if streams < 2:
        raise BenchError("need at least 2 streams for isolation checks")
    # Timeout model for the ordered-delivery baseline: smoothed-RTT plus a
    # backoff margin scaled to the send rate.
    tcp_rto_s = 4.0 * delay_s + 20.0 * interval_s

    quic, world = _hol_world(config, seed, streams, messages, interval_s,
                             drop_every_n, isolate_stream=None)
    quic_all = [v for lat in quic.values() for v in lat]
    quic_mean_us = statistics.mean(quic_all)

    tcp_latencies = baseline.hol_latency_trace(
        messages, interval_s, delay_s, drop_every_n, tcp_rto_s)
    tcp_mean_us = statistics.mean(tcp_latencies) * 1e6

    improvement = 100.0 * (tcp_mean_us - quic_mean_us) / tcp_mean_us

    def percentiles(values):
        ordered = sorted(values)
        def at(p):
            return round(ordered[min(len(ordered) - 1,
                                     int(p / 100.0 * len(ordered)))], 3)
        return {"p50": at(50), "p90": at(90), "p99": at(99)}

    data = {
        "drop_every_n": drop_every_n,
        "quic_mean_us": round(quic_mean_us, 3),
        "tcp_mean_us": round(tcp_mean_us, 3),
        "improvement_pct": round(improvement, 2),
        "quic_percentiles_us": percentiles(quic_all),
        "tcp_percentiles_us": percentiles([v * 1e6 for v in tcp_latencies]),
        "quic_latencies_us": {str(k): v for k, v in quic.items()},
        "tcp_latencies_us": [round(v * 1e6, 3) for v in tcp_latencies],
    }
    return BenchResult(
        scenario="hol",
        config={**world.link, "drop_rate": drop_rate, "streams": streams,
                "messages": messages, "seed": seed, "interval_s": interval_s,
                "tcp_rto_s": tcp_rto_s},
        data=data, trace=world.net.trace)


def bench_stream_isolation(profile: str = "wired", drop_rate: int = 10,
                           messages: int = 100, seed: int = 0) -> BenchResult:
    """Two streams, drops confined to the first: the untouched stream's
    per-message latencies must equal a lossless run exactly. The trace is
    the run with the drops."""
    config = _profile(profile)
    drop_every_n, _, interval_s = _hol_schedule(config, drop_rate)
    lossless, _ = _hol_world(config, seed, 2, messages, interval_s, 0, None)
    isolated, world = _hol_world(config, seed, 2, messages, interval_s, drop_every_n,
                                 isolate_stream=3)
    identical = isolated[1] == lossless[1]
    return BenchResult(
        scenario="stream_isolation",
        config={**world.link, "drop_rate": drop_rate, "messages": messages,
                "seed": seed},
        data={
            "dropped_stream_mean_us": round(statistics.mean(isolated[0]), 3),
            "clean_stream_identical": identical,
            "clean_stream_latencies_us": isolated[1],
            "lossless_latencies_us": lossless[1],
        },
        trace=world.net.trace)


# ---------------------------------------------------------------------------
# Half-open connections
# ---------------------------------------------------------------------------

def bench_half_open(profile: str = "wired", publishers: int = 10,
                    conns: int = 100, restart_at: float = 30.0,
                    horizon: float = 120.0, seed: int = 0) -> BenchResult:
    """Broker connection-state count over time when every publisher dies
    without teardown, versus the TCP half-open baseline."""
    config = _profile(profile)
    if conns % publishers:
        raise BenchError("conns must divide evenly across publishers")
    per_pub = conns // publishers
    world = _World(_lossless(config), seed, _identity_for(seed), seed ^ 0xC0DE)
    net, server = world.net, world.server
    clients = [world.client((f"10.0.1.{p + 1}", 50000 + c), f"pub-{p}-{c}",
                            seed * 10000 + p * 100 + c)
               for p in range(publishers) for c in range(per_pub)]

    def publish_loop(agent: ClientAgent, topic: str):
        if agent.dead or not agent.connected:
            return
        agent.publish(topic, b"tick")
        net.schedule(1.0, lambda: publish_loop(agent, topic))

    for i, agent in enumerate(clients):
        topic = f"half/{i}"
        agent.on_connected = (lambda a, t=topic: publish_loop(a, t))
        agent.connect_mqtt()

    series: list[tuple[float, int]] = []

    def sample():
        series.append((net.clock.now_s, server.connection_count()))
        if net.clock.now_s < horizon:
            net.schedule(1.0, sample)

    net.schedule(0.0, sample)
    net.schedule(restart_at, lambda: [agent.kill() for agent in clients])
    net.run(until_s=horizon + 1.0)

    peak = max(count for _, count in series)
    reclaim_time = None
    for t, count in series:
        if t > restart_at and count == 0:
            reclaim_time = t
            break
    tcp_series = baseline.half_open_series(conns, restart_at, horizon)
    tcp_keepalive = baseline.half_open_series(conns, restart_at, horizon,
                                              keepalive_s=20.0)
    return BenchResult(
        scenario="half_open",
        config={**world.link, "publishers": publishers, "conns": conns,
                "restart_at_s": restart_at, "horizon_s": horizon, "seed": seed,
                "idle_timeout_s": IDLE_TIMEOUT_S,
                "drain_period_s": DRAIN_PERIOD_S},
        data={
            "quic_state_series": series,
            "tcp_state_series": tcp_series,
            "tcp_state_series_keepalive": tcp_keepalive,
            "peak_connections": peak,
            "reclaim_s": reclaim_time,
            "reclaim_after_restart_s": None if reclaim_time is None
            else round(reclaim_time - restart_at, 3),
        },
        trace=net.trace)


# ---------------------------------------------------------------------------
# Connection migration
# ---------------------------------------------------------------------------

def bench_migrate(profile: str = "wired", changes: int = 3,
                  interval: float = 300.0, duration: float = 960.0,
                  publish_interval: float = 1.0, seed: int = 0) -> BenchResult:
    """Steady publishing across periodic client address changes: the
    connection must survive every change without re-handshaking while the
    TCP baseline re-establishes from scratch each time."""
    config = _profile(profile)
    world = _World(_lossless(config), seed, _identity_for(seed), seed ^ 0xD00D)
    net, server = world.net, world.server

    deliveries: list[float] = []

    def on_message(agent, msg):
        deliveries.append(net.clock.now_s)

    sub = world.client((SUB_IP, 54001), "mig-sub", seed * 5 + 2,
                       on_connected=lambda a: a.subscribe("mig/t"),
                       on_message=on_message)
    pub = world.client((PUB_IP, 54000), "mig-pub", seed * 5 + 1)
    sub.connect_mqtt()
    pub.connect_mqtt()
    net.run(until_s=2.0)
    if not (pub.connected and sub.connected):
        raise BenchError("migration setup did not converge")
    handshake_cutoff_s = net.clock.now_s

    def publish_loop():
        if pub.dead or pub.conn is None or pub.conn.phase != ESTABLISHED:
            return
        pub.publish("mig/t", b"steady")
        if net.clock.now_s + publish_interval <= duration:
            net.schedule(publish_interval, publish_loop)

    net.schedule(publish_interval, publish_loop)

    for i in range(changes):
        at = interval * (i + 1)
        new_addr = (f"10.0.9.{i + 1}", 54000)
        net.schedule(at, lambda a=new_addr: pub.set_address(a))

    net.run(until_s=duration + 5.0)

    handshake_after = sum(
        1 for ev in net.trace
        if ev.event == "send" and ev.time_us > handshake_cutoff_s * 1e6
        and ev.annotation.split(" ")[0] in ("chlo_inchoate", "chlo_full", "rej", "shlo")
    )
    series, max_gap = baseline.per_second(deliveries, duration)
    rtt_s = 2.0 * config.delay_ms / 1000.0
    tcp = baseline.migration_model(duration, interval, publish_interval, rtt_s)
    return BenchResult(
        scenario="migrate",
        config={**world.link, "changes": changes, "interval_s": interval,
                "duration_s": duration, "publish_interval_s": publish_interval,
                "seed": seed},
        data={
            "delivered": len(deliveries),
            "handshake_packets_after_setup": handshake_after,
            "migrations_observed": server.migrations,
            "cids_at_server": server.conns_opened,
            "max_delivery_gap_s": round(max_gap, 6),
            "rtt_s": rtt_s,
            "quic_throughput": series,
            "tcp_throughput": tcp.throughput,
            "tcp_reestablishments": tcp.reestablishments,
            "tcp_zero_windows": tcp.zero_windows,
            "tcp_max_gap_s": round(tcp.max_gap_s, 6),
        },
        trace=net.trace)
