"""The benchmark's span tracer still reaches every layer it names: a
refactor that calls a wrapped helper through another name, steps the
simulator without ``step`` or pops its heap around the ``heapq`` global
passes the functional tests, while the traced run's figure for that layer
reads 0."""

import importlib.util
import os
from random import Random

from quicmq.agents import ClientAgent, ServerAgent
from quicmq.handshake import ServerIdentity
from quicmq.netsim import SimConfig, SimNetwork

TRACER_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "perfbench", "tracer.py")

SPANS = ("connection.handle_datagram", "wire.header.decode", "wire.open",
         "wire.frames.decode", "wire.handshake_msg.decode", "wire.seal",
         "wire.frames.encode", "crypto.aead_seal", "crypto.aead_open",
         "netsim.step", "netsim.send", "netsim.schedule",
         "agents.client.datagram", "agents.server.datagram", "agents.server.dispatch",
         "agents.client.on_event", "agents.server.on_event",
         "mqtt.encode", "mqtt.decode", "mqtt.broker.handle")

# The hello retry timer, cancelled when the handshake settles, leaves the
# queue before 1.0 s; the delivered PUBLISH picks its stream by a match.
COUNTERS = ("mqtt.topic_matches", "netsim.timers.cancelled")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_publish_at_1rtt_records_every_inbound_and_outbound_span():
    tracing = load_tracer()
    tracer = tracing.install(tracing.Tracer())
    try:
        broker_addr = ("10.0.0.1", 4433)
        net = SimNetwork(SimConfig(delay_ms=1.0), seed=3)
        identity = ServerIdentity.create(now=0.0, rng=Random(42))
        ServerAgent(net, broker_addr, identity, rng=Random(3))
        got = []
        sub = ClientAgent(net, ("10.0.0.3", 40000), broker_addr, "sub",
                          identity.sign_pair.pk, rng=Random(1),
                          on_message=lambda agent, msg: got.append(msg.payload))
        pub = ClientAgent(net, ("10.0.0.2", 40000), broker_addr, "pub",
                          identity.sign_pair.pk, rng=Random(2))
        for agent in (sub, pub):
            assert agent.connect_mqtt() == "1rtt"
        net.run(until_s=1.0)
        sub.subscribe("t")
        net.run(until_s=1.1)
        pub.publish("t", b"m")
        net.run(until_s=1.2)
    finally:
        tracer.uninstall()
    assert got == [b"m"]
    assert [name for name in SPANS if not tracer.calls.get(name)] == []
    assert [name for name in COUNTERS if not tracer.counters.get(name)] == []
