#!/usr/bin/env python3
"""Compare the CPU cost of two quicmq source trees in one process.

Usage: python3 scripts/ab_compare.py OLD_SRC NEW_SRC [--world stream|fleet]
                                     [--reps N]

OLD_SRC and NEW_SRC are directories holding a ``quicmq`` package (a
checkout's ``src``) or the package directory itself. Both are imported into
this process under different names; this works because every import inside
the package is relative. The same seeded world is built on each side:

- ``stream``: one publisher and one subscriber, 32 B messages on stream 3
  and 4 KB ones on stream 5 at about 9:1, 2% seeded loss, 0.2 ms delay.
  This is the message mix of ``tests/test_trace_pin.py``, with other seeds
  and a chunked schedule, so it is not that test's pinned trace.
- ``fleet``: ``DEVICES`` clients, each subscribed to its inbox and its
  group of 50; 95% of publishes go to a random peer's inbox, 5% to a group.
  This is a simplified fleet, not perfbench's ``fleet`` workload: no
  connects or 0-RTT resumes are timed, and the publishers are drawn
  uniformly per publish.

After set-up, ``gc.freeze()`` moves both worlds out of the collector's
reach while the chunks run, so collecting one world's garbage is not charged to the other. The
two sides then run the same plan in alternating chunks of 25 publishes (one
per simulated millisecond), ``--reps`` chunks each, with the order of the
pair swapped every rep so that drift in host speed falls on both. Each
chunk's process CPU time is read around it. Each side also hashes every
datagram it sends, set-up included. The script prints the median over the
reps of NEW's chunk CPU to OLD's, with the range of those ratios, and exits
1 if the two sides' deliveries, datagram counts or datagram bytes differ.
The median is the headline because a few slow chunks decide the ratio of
the totals, which reads a gain of several percent on identical trees.

The freeze and the per-rep median both hide collector work: a pass lands
in a few chunks, which the median passes over. So the script also prints,
for each side, the collector passes by generation that ran during that
side's chunks and the CPU seconds they took, read through ``gc.callbacks``.
Read them, as the ratio, against an A/A from the same batch: the two sides
of one tree do not read the same. A change that moves them past that is
measured with perfbench pairs, not with the ratio.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import os
import statistics
import sys
import time
from random import Random

BROKER = ("10.0.0.1", 4433)
CHUNK = 25  # publishes per timed chunk
GROUP_SIZE = 50
DEVICES = 1000  # clients in the fleet world
SEED = 1


def load(src: str, name: str) -> dict:
    """Import the quicmq package found at ``src`` as ``name``; returns the
    modules a world is built from."""
    pkg = os.path.join(src, "quicmq")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        pkg = src
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("agents", "handshake", "netsim")}


def plan(world: str, publishes: int) -> list[tuple]:
    """(publisher index, topic, payload, stream id) for every publish, drawn
    once and replayed by both sides."""
    rng = Random(SEED + 1)
    devices = DEVICES
    out = []
    for n in range(publishes):
        if world == "stream":
            big = rng.random() < 0.1
            body = rng.randbytes((4096 if big else 32) - 4)
            out.append((0, "ab/big" if big else "ab/small", n.to_bytes(4, "big") + body,
                        5 if big else 3))
            continue
        i = rng.randrange(devices)
        if rng.random() < 0.05:
            topic = f"grp/{i // GROUP_SIZE}/cmd"
        else:
            peer = rng.randrange(devices - 1)
            topic = f"dev/{peer + (peer >= i)}/in"
        out.append((i, topic, n.to_bytes(4, "big") + rng.randbytes(rng.randint(12, 60)), 3))
    return out


class GcMeter:
    """A ``gc.callbacks`` entry that charges each collector pass, by
    generation, and its CPU seconds to ``side`` while one is set."""

    def __init__(self):
        self.side: World | None = None
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        side = self.side
        if side is None:
            return
        if phase == "start":
            self._t0 = time.process_time()
        else:
            side.gc_passes[info["generation"]] += 1
            side.gc_s += time.process_time() - self._t0


class World:
    """One side: a broker and its clients on a simulated network."""

    def __init__(self, mods: dict, world: str):
        seed = SEED
        agents, netsim = mods["agents"], mods["netsim"]
        loss = 0.02 if world == "stream" else 0.0
        self.net = net = netsim.SimNetwork(
            netsim.SimConfig(delay_ms=0.2, loss_rate=loss), seed)
        self.wire = hashlib.sha256()
        send = net.send

        def hashing_send(payload, *args):
            self.wire.update(payload)
            send(payload, *args)
        net.send = hashing_send
        identity = mods["handshake"].ServerIdentity.create(now=0.0, rng=Random(seed))
        agents.ServerAgent(net, BROKER, identity, rng=Random(seed))
        self.received: list[tuple] = []
        count = 2 if world == "stream" else DEVICES
        self.clients = []
        for i in range(count):
            self.clients.append(agents.ClientAgent(
                net, ("10.1.0.1", 20000 + i), BROKER, f"dev-{i}", identity.sign_pair.pk,
                rng=Random(seed * 7 + i),
                on_message=lambda a, m, i=i: self.received.append((i, m.topic, m.payload))))
            self.clients[-1].connect_mqtt()
        net.run(until_s=net.clock.now_s + 2.0)
        if world == "stream":
            self.publishers = [self.clients[1]]
            self.clients[0].subscribe("ab/small", stream_id=3)
            self.clients[0].subscribe("ab/big", stream_id=5)
        else:
            self.publishers = self.clients
            for i, client in enumerate(self.clients):
                client.subscribe(f"dev/{i}/in")
                client.subscribe(f"grp/{i // GROUP_SIZE}/#")
        net.run(until_s=net.clock.now_s + 2.0)
        self.cpu: list[float] = []
        self.gc_passes = [0, 0, 0]  # collector passes during the chunks, by generation
        self.gc_s = 0.0

    def run_chunk(self, chunk: list[tuple]) -> None:
        net = self.net
        t0 = time.process_time()
        for k, (i, topic, payload, stream_id) in enumerate(chunk):
            net.schedule(0.001 * (k + 1), lambda c=self.publishers[i], t=topic,
                         p=payload, s=stream_id: c.publish(t, p, stream_id=s))
        net.run(until_s=net.clock.now_s + 0.001 * len(chunk))
        self.cpu.append(time.process_time() - t0)

    def outcome(self) -> tuple[int, int, str]:
        """Drain the network; (deliveries, datagrams sent, digest of their
        bytes)."""
        self.net.run(until_s=self.net.clock.now_s + 3.0)
        return (len(self.received), sum(1 for ev in self.net.trace if ev.event == "send"),
                self.wire.hexdigest())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--world", choices=("stream", "fleet"), default="stream")
    parser.add_argument("--reps", type=int, default=200, help="chunks per side")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    sides = {}
    for label, src in (("old", args.old_src), ("new", args.new_src)):
        sides[label] = World(load(os.path.abspath(src), f"quicmq_{label}"), args.world)
    publishes = plan(args.world, CHUNK * args.reps)
    gc.collect()
    gc.freeze()
    meter = GcMeter()
    gc.callbacks.append(meter)
    try:
        for rep in range(args.reps):
            chunk = publishes[rep * CHUNK:(rep + 1) * CHUNK]
            order = ("old", "new") if rep % 2 == 0 else ("new", "old")
            for label in order:
                meter.side = sides[label]
                sides[label].run_chunk(chunk)
            meter.side = None
    finally:
        gc.callbacks.remove(meter)
    gc.unfreeze()

    results = {label: side.outcome() for label, side in sides.items()}
    for label, side in sides.items():
        deliveries, datagrams, digest = results[label]
        print(f"{label}: deliveries {deliveries}, datagrams {datagrams}, "
              f"bytes sha256 {digest[:16]}, "
              f"cpu {sum(side.cpu):.3f} s over {len(side.cpu)} chunks of {CHUNK}")
    for label, side in sides.items():
        gen0, gen1, gen2 = side.gc_passes
        print(f"{label}: gc passes {sum(side.gc_passes)} (gen0 {gen0}, gen1 {gen1}, "
              f"gen2 {gen2}), {side.gc_s:.3f} s during its chunks")
    old, new = sides["old"], sides["new"]
    ratios = [n / o for o, n in zip(old.cpu, new.cpu) if o > 0]
    if ratios:
        print(f"cpu ratio new/old: {statistics.median(ratios):.3f} "
              f"(per-rep median, range {min(ratios):.3f}-{max(ratios):.3f})")
    if results["old"] != results["new"] or old.received != new.received:
        print("MISMATCH: the two sides' deliveries, datagram counts or datagram "
              "bytes differ")
        return 1
    print("outputs equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
