"""The benchmark's three workloads, driven over quicmq's deterministic
simulator through the public entry points of ``agents`` and ``netsim``.

Every workload runs in rounds. A round builds a fresh world (its set-up,
timed on its own) and then runs a fixed, seeded amount of traffic (its timed
phase). The inputs of a round depend only on the run seed and the round's
input index, one of the workload's ``inputs`` distinct indices. The
simulator is deterministic, so a round replayed with the same seed and index
carries identical traffic and has an identical outcome; the measured times
are the only thing that differs.

Traffic is generated by a single chained simulator timer that walks a
pre-computed schedule, so the simulator's event queue holds only the
system's own events plus one generator entry.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from random import Random
from typing import Callable

import hostspeed
from quicmq.agents import ClientAgent, ServerAgent
from quicmq.handshake import ServerIdentity
from quicmq.netsim import SimConfig, SimNetwork
from quicmq.wire import HANDSHAKE_PACKET_LEN

BROKER_ADDR = ("10.0.0.1", 4433)
SIM_CAP_S = 10.0  # simulated time after which a pending connect counts as failed
PROBE_HOST = "10.0.2.1"

# Every duration is read from the process CPU clock, less the time spent in
# host-speed probes (see ``hostspeed``). The benchmark is one thread that
# never waits: it only computes and writes small files. Its CPU time is
# therefore its wall time minus the time other tenants of a shared machine
# held the processor. On a 2-vCPU machine shared with other tenants, one
# 1-RTT connect read 24.6 ms of wall time but 3.7 ms of CPU time.
clock = hostspeed.clock


def no_marks(label: str) -> None:
    """Default for a round's ``marks`` callback. The traced run passes one
    that samples layer counters at the labelled points of the traffic: q0,
    q1 and q3 before the first, the quarter and the three-quarter publish,
    and q4 after the last."""


@dataclass
class RoundStats:
    setup_s: float = 0.0
    timed_s: float = 0.0
    connect_us: dict[str, list[float]] = field(
        default_factory=lambda: {"1rtt": [], "0rtt": []})
    connect_at: dict[str, list[float]] = field(  # clock() when each connect ended
        default_factory=lambda: {"1rtt": [], "0rtt": []})
    connects_attempted: int = 0
    connects_failed: int = 0
    deliver_us: list[float] = field(default_factory=list)
    deliver_at: list[float] = field(default_factory=list)  # clock() at each delivery
    sim_latency_us: list[int] = field(default_factory=list)
    expected: int = 0  # deliveries owed in the timed phase
    delivered: int = 0
    payload_bytes: int = 0
    wire_bytes: int = 0  # datagram bytes sent during the timed phase
    datagrams: int = 0
    host_factor: float = 1.0  # see hostspeed.factor
    errors: list[str] = field(default_factory=list)  # correctness violations
    layer: dict[str, float] = field(default_factory=dict)  # per-layer state readings

    def outcome(self) -> tuple:
        """Everything a round's inputs determine; a replay must match it."""
        return (self.expected, self.delivered, self.payload_bytes, self.connects_attempted,
                self.connects_failed, self.wire_bytes, self.datagrams,
                len(self.sim_latency_us), sum(self.sim_latency_us), len(self.errors))


def run_until(net: SimNetwork, done: Callable[[], bool], cap_s: float = SIM_CAP_S) -> bool:
    """Step the simulator until ``done()`` holds; False if the queue empties
    or ``cap_s`` of simulated time passes first."""
    cap_us = net.clock.now_us + int(cap_s * 1_000_000)
    while not done():
        if not net.step() or net.clock.now_us > cap_us:
            return done()
    return True


def start_generator(net: SimNetwork, schedule: list[tuple[float, Callable[[], None]]]) -> None:
    """Fire each (offset_s, action) at its simulated offset from now, with
    one pending timer at a time."""
    base = net.clock.now_s
    state = {"i": 0}

    def fire():
        i = state["i"]
        while i < len(schedule) and base + schedule[i][0] <= net.clock.now_s + 1e-9:
            schedule[i][1]()
            i += 1
        state["i"] = i
        if i < len(schedule):
            net.schedule(base + schedule[i][0] - net.clock.now_s, fire)

    if schedule:
        net.schedule(schedule[0][0], fire)


class Recorder:
    """Collects publishes and deliveries in the timed phase and checks them
    afterwards: every payload byte-exact, delivered at most once to each
    receiver it was owed to, and in publish order per (receiver, publisher,
    topic)."""

    def __init__(self, net: SimNetwork):
        self.net = net
        self.sent: dict[int, tuple[bytes, frozenset, int, str, float, int]] = {}
        self.got: list[tuple[float, int, int, str, bytes]] = []

    def publish(self, agent: ClientAgent, publisher: int, msg_id: int, topic: str,
                payload: bytes, receivers: frozenset, stream_id: int = 3) -> None:
        t = clock()
        self.sent[msg_id] = (payload, receivers, publisher, topic, t, self.net.clock.now_us)
        agent.publish(topic, payload, stream_id=stream_id)

    def on_message(self, receiver: int):
        got = self.got
        sim = self.net.clock

        def handler(agent, msg):
            got.append((clock(), sim.now_us, receiver, msg.topic, msg.payload))
        return handler

    def check(self, stats: RoundStats) -> None:
        seen: set[tuple[int, int]] = set()
        last: dict[tuple[int, int, str], int] = {}
        stats.expected = sum(len(v[1]) for v in self.sent.values())
        for t_got, sim_us, receiver, topic, payload in self.got:
            msg_id = int.from_bytes(payload[:4], "big")
            sent = self.sent.get(msg_id)
            if sent is None:
                stats.errors.append(f"unknown message id {msg_id}")
                continue
            body, receivers, publisher, sent_topic, t_pub, sim_pub = sent
            if payload != body or topic != sent_topic:
                stats.errors.append(f"message {msg_id} altered in transit")
                continue
            if receiver not in receivers:
                stats.errors.append(f"message {msg_id} misrouted to {receiver}")
                continue
            if (msg_id, receiver) in seen:
                stats.errors.append(f"message {msg_id} delivered twice to {receiver}")
                continue
            seen.add((msg_id, receiver))
            key = (receiver, publisher, topic)
            if last.get(key, -1) > msg_id:
                stats.errors.append(f"message {msg_id} out of order at {receiver}")
            last[key] = max(last.get(key, -1), msg_id)
            stats.delivered += 1
            stats.payload_bytes += len(payload)
            stats.deliver_us.append((t_got - t_pub) * 1e6)
            stats.deliver_at.append(t_got)
            stats.sim_latency_us.append(sim_us - sim_pub)


def wire_totals(net: SimNetwork, start: int, stats: RoundStats) -> None:
    """Datagram accounting from the simulator trace: bytes and datagrams sent
    in the timed phase, and size, ack-only and retransmission figures over
    the whole round."""
    sizes = 0
    count = 0
    for ev in net.trace[start:]:
        if ev.event == "send":
            sizes += ev.size
            count += 1
    stats.wire_bytes = sizes
    stats.datagrams = count
    sends = [ev for ev in net.trace if ev.event == "send"]
    stats.layer["datagram_bytes.max"] = max((ev.size for ev in sends), default=0)
    stats.layer["over_budget"] = sum(1 for ev in sends if ev.size > HANDSHAKE_PACKET_LEN)
    stats.layer["sends"] = len(sends)
    stats.layer["ack_only"] = sum(1 for ev in sends if ev.annotation == "ack")
    stats.layer["retransmits"] = sum(1 for ev in sends if ev.annotation.endswith("retx"))
    stats.layer["trace_len"] = len(net.trace)


def connection_state(conns, stats: RoundStats) -> None:
    """Read receive-state size and stalled streams from the connections'
    public attributes at the end of a round."""
    conns = [c for c in conns if c is not None]
    stats.layer["rx_sqns_held"] = max((len(c.received_sqns) for c in conns), default=0)
    stats.layer["stalled_streams"] = sum(
        1 for c in conns for s in c.streams.values() if s.has_pending())


def rejected_addresses(net: SimNetwork) -> set:
    """Addresses the broker sent a REJ to: a connect that saw one did not
    complete on the 0-RTT path."""
    return {ev.dst for ev in net.trace if ev.event == "send" and ev.annotation == "rej"}


def timed_connect(net: SimNetwork, agent: ClientAgent, expect: str,
                  stats: RoundStats) -> bool:
    """Connect and wait for CONNACK, recording the time by handshake path."""
    stats.connects_attempted += 1
    t0 = clock()
    path = agent.connect_mqtt()
    ok = run_until(net, lambda: agent.connected)
    t1 = clock()
    elapsed = (t1 - t0) * 1e6
    if path != expect:
        stats.errors.append(f"{agent.client_id} took the {path} path, expected {expect}")
    if not ok:
        stats.connects_failed += 1
        return False
    stats.connect_us[path].append(elapsed)
    stats.connect_at[path].append(t1)
    return True


def connect_until_up(net: SimNetwork, make: Callable[[], ClientAgent], expect: str,
                     stats: RoundStats, tries: int = 3) -> ClientAgent:
    """Connect a long-lived client the way an application would: a connect
    that does not complete counts as failed, the client is dropped, and a
    fresh one tries again from the same address."""
    agent = make()
    for _ in range(tries - 1):
        if timed_connect(net, agent, expect, stats):
            return agent
        agent.kill()
        agent = make()
    timed_connect(net, agent, expect, stats)
    return agent


def check_0rtt(net: SimNetwork, agents: list[ClientAgent], stats: RoundStats) -> None:
    rejected = rejected_addresses(net)
    for agent in agents:
        if agent.local_addr in rejected:
            stats.errors.append(f"{agent.client_id} was sent a REJ on its 0-RTT connect")


def subscribe_all(net: SimNetwork, agent: ClientAgent,
                  topics: list[tuple[str, int]]) -> bool:
    acks: list[int] = []
    agent.on_suback = lambda a, msgid: acks.append(msgid)
    for topic, stream_id in topics:
        agent.subscribe(topic, stream_id=stream_id)
    return run_until(net, lambda: len(acks) == len(topics))


def make_identity(seed: int) -> ServerIdentity:
    # One identity per run seed, so session files written in one round
    # stay valid for the next round's 0-RTT connects.
    return ServerIdentity.create(now=0.0, rng=Random(seed * 7919 + 13))


def provision(net: SimNetwork, identity: ServerIdentity, addr, store: str,
              stats: RoundStats, rng: Random) -> None:
    """One 1-RTT connect that leaves a session file in ``store``."""
    agent = ClientAgent(net, addr, BROKER_ADDR, f"provision-{addr[0]}",
                        identity.sign_pair.pk, rng=rng, state_dir=store)
    agent.sessions.clear(*BROKER_ADDR)
    if timed_connect(net, agent, "1rtt", stats):
        agent.disconnect()


def connect_probes(net: SimNetwork, identity: ServerIdentity, store: str, host: str,
                   count: int, stats: RoundStats, rng: Random) -> None:
    """Short-lived clients that connect and disconnect, half at 1-RTT and
    half resuming at 0-RTT from ``store`` (bound to ``host``), in seeded
    order. They give the connect metrics enough samples on a workload whose
    long-lived clients connect only once."""
    resumes = set(rng.sample(range(count), count // 2))
    resumed = []
    for k in range(count):
        resume = k in resumes
        ip = host if resume else f"10.5.{k // 250}.{k % 250 + 1}"
        agent = ClientAgent(net, (ip, 30000 + k), BROKER_ADDR, f"probe-{k}",
                            identity.sign_pair.pk, rng=Random(rng.getrandbits(32)),
                            state_dir=store if resume else None)
        if timed_connect(net, agent, "0rtt" if resume else "1rtt", stats):
            agent.disconnect()
            if resume:
                resumed.append(agent)
        else:
            agent.kill()
    check_0rtt(net, resumed, stats)


# ---------------------------------------------------------------------------
# stream_age
# ---------------------------------------------------------------------------

class StreamAge:
    """1 publisher and 1 subscriber on long-lived connections and two
    streams; 32 B messages with 4 KB ones mixed in at about 9:1 (seeded), one
    publish per simulated millisecond, 2% seeded loss on every datagram. The
    per-packet path (ack/loss bookkeeping, codecs, AEAD) does the work, and
    its cost grows with connection age."""

    name = "stream_age"
    inputs = 16
    WARMUP = {"messages": 50, "probes": 4}
    interval_s = 0.001
    big_share = 0.1
    loss_rate = 0.02
    delay_ms = 0.2
    drain_s = 3.0

    def __init__(self, messages: int = 1000, probes: int = 100):
        self.messages = messages
        self.probes = probes

    def prepare(self, seed: int, work_dir: str) -> None:
        """Untimed, once per run: give the publisher's host and the probe
        host a session file."""
        net = SimNetwork(SimConfig(name=self.name, delay_ms=self.delay_ms), seed)
        identity = make_identity(seed)
        ServerAgent(net, BROKER_ADDR, identity, rng=Random(seed))
        provision(net, identity, ("10.0.0.2", 40000), os.path.join(work_dir, "pub"),
                  RoundStats(), Random(seed))
        provision(net, identity, (PROBE_HOST, 40000), os.path.join(work_dir, "probe"),
                  RoundStats(), Random(seed + 1))

    def round(self, seed: int, r: int, work_dir: str, marks: Callable[[str], None]) -> RoundStats:
        stats = RoundStats()
        sub_seed = seed * 1000 + r
        t0 = clock()
        net = SimNetwork(SimConfig(name=self.name, delay_ms=self.delay_ms,
                                   loss_rate=self.loss_rate), sub_seed)
        identity = make_identity(seed)
        server = ServerAgent(net, BROKER_ADDR, identity, rng=Random(sub_seed))
        rec = Recorder(net)
        rng = Random(sub_seed)
        connect_probes(net, identity, os.path.join(work_dir, "probe"), PROBE_HOST,
                       self.probes, stats, rng)
        # Let the probes' connections close on both sides before the
        # long-lived pair starts, so the broker holds only its 2 sessions.
        run_until(net, lambda: not server.conns, cap_s=60.0)
        sub = connect_until_up(net, lambda: ClientAgent(
            net, ("10.0.0.3", 40000), BROKER_ADDR, "age-sub", identity.sign_pair.pk,
            rng=Random(rng.getrandbits(32)), on_message=rec.on_message(0)), "1rtt", stats)
        pub = connect_until_up(net, lambda: ClientAgent(
            net, ("10.0.0.2", 40000), BROKER_ADDR, "age-pub", identity.sign_pair.pk,
            rng=Random(rng.getrandbits(32)), state_dir=os.path.join(work_dir, "pub")),
            "0rtt", stats)
        # A step that still fails is counted, not fatal: the round offers its
        # traffic anyway, and whatever cannot be delivered counts as failed.
        subscribe_all(net, sub, [("age/small", 3), ("age/big", 5)])
        check_0rtt(net, [pub], stats)
        stats.setup_s = clock() - t0

        schedule = []
        quarter = {0: "q0", self.messages // 4: "q1", (3 * self.messages) // 4: "q3"}
        for i in range(self.messages):
            big = rng.random() < self.big_share
            size = 4096 if big else 32
            payload = i.to_bytes(4, "big") + rng.randbytes(size - 4)
            topic, stream_id = ("age/big", 5) if big else ("age/small", 3)

            def action(i=i, topic=topic, payload=payload, stream_id=stream_id):
                if i in quarter:
                    marks(quarter[i])
                rec.publish(pub, 0, i, topic, payload, frozenset((0,)), stream_id)
                if i == self.messages - 1:
                    marks("q4")
            schedule.append(((i + 1) * self.interval_s, action))
        trace_start = len(net.trace)
        t1 = clock()
        start_generator(net, schedule)
        net.run(until_s=net.clock.now_s + self.messages * self.interval_s + self.drain_s)
        stats.timed_s = clock() - t1
        rec.check(stats)
        wire_totals(net, trace_start, stats)
        conns = [sub.conn, pub.conn] + [s.conn for s in server.conns.values()]
        connection_state(conns, stats)
        stats.layer["strike_size"] = len(identity.strike.seen)
        return stats


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------

class Fleet:
    """About 1000 devices behind one gateway address connect in set-up
    (even-numbered devices resume at 0-RTT from the gateway's session file,
    odd ones run a full 1-RTT handshake). Each subscribes to its inbox and
    its group and publishes a small message once in each of 3 simulated
    seconds: 95% to a random peer's inbox, 5% (seeded choice, per second) to
    its group of 50. No loss."""

    name = "fleet"
    inputs = 2
    WARMUP = {"devices": 20, "group_size": 10}
    sim_seconds = 3
    group_share = 0.05
    delay_ms = 0.2
    drain_s = 1.0

    def __init__(self, devices: int = 1000, group_size: int = 50):
        self.devices = devices
        self.group_size = group_size

    def prepare(self, seed: int, work_dir: str) -> None:
        pass  # the gateway provisions itself in each set-up

    def round(self, seed: int, r: int, work_dir: str, marks: Callable[[str], None]) -> RoundStats:
        stats = RoundStats()
        sub_seed = seed * 1000 + r
        gateway = "10.1.0.1"
        store = os.path.join(work_dir, "gateway")
        t0 = clock()
        net = SimNetwork(SimConfig(name=self.name, delay_ms=self.delay_ms), sub_seed)
        identity = make_identity(seed)
        server = ServerAgent(net, BROKER_ADDR, identity, rng=Random(sub_seed))
        provision(net, identity, (gateway, 19999), store, stats, Random(sub_seed))
        rec = Recorder(net)
        agents: list[ClientAgent] = []
        for i in range(self.devices):
            resume = i % 2 == 0
            agent = connect_until_up(net, lambda i=i, resume=resume: ClientAgent(
                net, (gateway, 20000 + i), BROKER_ADDR, f"dev-{i}", identity.sign_pair.pk,
                rng=Random(sub_seed * 7 + i), state_dir=store if resume else None,
                on_message=rec.on_message(i)), "0rtt" if resume else "1rtt", stats)
            agents.append(agent)
            group = i // self.group_size
            subscribe_all(net, agent, [(f"dev/{i}/in", 3), (f"grp/{group}/#", 3)])
        check_0rtt(net, agents[0::2], stats)
        stats.setup_s = clock() - t0

        rng = Random(sub_seed)
        groups = (self.devices + self.group_size - 1) // self.group_size
        members = [frozenset(range(g * self.group_size,
                                   min(self.devices, (g + 1) * self.group_size)))
                   for g in range(groups)]
        planned = []
        for second in range(self.sim_seconds):
            to_group = set(rng.sample(range(self.devices),
                                      round(self.devices * self.group_share)))
            for i in range(self.devices):
                at = second + rng.random()
                if i in to_group:
                    g = i // self.group_size
                    topic, receivers = f"grp/{g}/cmd", members[g]
                else:
                    peer = rng.randrange(self.devices - 1)
                    peer += peer >= i
                    topic, receivers = f"dev/{peer}/in", frozenset((peer,))
                body = rng.randbytes(rng.randint(12, 60))
                planned.append((at, i, topic, receivers, body))
        planned.sort(key=lambda p: (p[0], p[1]))
        quarter = {0: "q0", len(planned) // 4: "q1", (3 * len(planned)) // 4: "q3"}
        schedule = []
        for n, (at, i, topic, receivers, body) in enumerate(planned):
            payload = n.to_bytes(4, "big") + body

            def action(n=n, i=i, topic=topic, payload=payload, receivers=receivers):
                if n in quarter:
                    marks(quarter[n])
                rec.publish(agents[i], i, n, topic, payload, receivers)
                if n == len(planned) - 1:
                    marks("q4")
            schedule.append((at, action))
        trace_start = len(net.trace)
        t1 = clock()
        start_generator(net, schedule)
        net.run(until_s=net.clock.now_s + self.sim_seconds + self.drain_s)
        stats.timed_s = clock() - t1
        rec.check(stats)
        wire_totals(net, trace_start, stats)
        conns = [a.conn for a in agents] + [s.conn for s in server.conns.values()]
        connection_state(conns, stats)
        stats.layer["strike_size"] = len(identity.strike.seen)
        return stats


# ---------------------------------------------------------------------------
# churn
# ---------------------------------------------------------------------------

class Churn:
    """Closed loop, one client at a time: connect, publish one message to a
    long-lived subscriber, disconnect. Full 1-RTT connects (no session
    file) are interleaved 50:50, in seeded order, with 0-RTT resumptions
    from session files written in set-up. No loss."""

    name = "churn"
    inputs = 4
    WARMUP = {"cycles": 10}
    hosts = 4
    resume_share = 0.5
    delay_ms = 0.2

    def __init__(self, cycles: int = 300):
        self.cycles = cycles

    def prepare(self, seed: int, work_dir: str) -> None:
        pass  # the hosts provision themselves in each set-up

    def round(self, seed: int, r: int, work_dir: str, marks: Callable[[str], None]) -> RoundStats:
        stats = RoundStats()
        sub_seed = seed * 1000 + r
        t0 = clock()
        net = SimNetwork(SimConfig(name=self.name, delay_ms=self.delay_ms), sub_seed)
        identity = make_identity(seed)
        server = ServerAgent(net, BROKER_ADDR, identity, rng=Random(sub_seed))
        rec = Recorder(net)
        sub = ClientAgent(net, ("10.2.0.1", 40000), BROKER_ADDR, "churn-sub",
                          identity.sign_pair.pk, rng=Random(sub_seed + 1),
                          on_message=rec.on_message(0))
        if timed_connect(net, sub, "1rtt", stats):
            subscribe_all(net, sub, [("churn/#", 3)])
        stores = []
        for h in range(self.hosts):
            store = os.path.join(work_dir, f"host{h}")
            provision(net, identity, (f"10.3.0.{h + 1}", 1000), store, stats,
                      Random(sub_seed * 31 + h))
            stores.append(store)
        stats.setup_s = clock() - t0

        rng = Random(sub_seed)
        resumes = set(rng.sample(range(self.cycles), round(self.cycles * self.resume_share)))
        resumed: list[ClientAgent] = []
        trace_start = len(net.trace)
        t1 = clock()
        for k in range(self.cycles):
            if k in (0, self.cycles // 4, (3 * self.cycles) // 4):
                marks({0: "q0", self.cycles // 4: "q1"}.get(k, "q3"))
            resume = k in resumes
            host = rng.randrange(self.hosts)
            ip = f"10.3.0.{host + 1}" if resume else f"10.4.{k // 250}.{k % 250 + 1}"
            client = ClientAgent(net, (ip, 2000 + k), BROKER_ADDR, f"churn-{k}",
                                 identity.sign_pair.pk, rng=Random(sub_seed * 131 + k),
                                 state_dir=stores[host] if resume else None)
            if not timed_connect(net, client, "0rtt" if resume else "1rtt", stats):
                continue
            if resume:
                resumed.append(client)
            payload = k.to_bytes(4, "big") + rng.randbytes(rng.randint(12, 60))
            before = len(rec.got)
            rec.publish(client, k, k, f"churn/{k}", payload, frozenset((0,)))
            run_until(net, lambda: len(rec.got) > before)
            client.disconnect()
        marks("q4")
        net.run(until_s=net.clock.now_s + 0.05)  # let the last close settle
        stats.timed_s = clock() - t1
        check_0rtt(net, resumed, stats)
        rec.check(stats)
        wire_totals(net, trace_start, stats)
        conns = [sub.conn] + [s.conn for s in server.conns.values()]
        connection_state(conns, stats)
        stats.layer["strike_size"] = len(identity.strike.seen)
        return stats


WORKLOADS = {w.name: w for w in (StreamAge, Fleet, Churn)}
