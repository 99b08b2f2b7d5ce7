"""Span tracer for the traced benchmark run.

It wraps each layer's functions at the name where their caller looks them
up (a module global such as ``quicmq.connection.seal_packet``, or a class
attribute such as ``Connection.flush``), records a span per call, and puts
every original back on ``uninstall``. Only the traced run imports this
module.

A span holds its name, start, end, parent span and the simulator event
(the count of ``SimNetwork.step`` calls) during which it ran. Spans stay in
memory, up to ``MAX_SPANS``; per-name call counts, total and self time are
kept for every call regardless. Self time is a span's duration minus the
durations of its direct children. Spans read the wall clock
(``time.perf_counter``): reading the process CPU clock costs about three
times as much per call, and the traced run makes millions of calls.
"""

from __future__ import annotations

import functools
import time
import types
from array import array
from collections import defaultdict
from typing import Callable

LAYERS = ("netsim", "agents", "mqtt", "connection", "wire", "crypto", "handshake")
MAX_SPANS = 300_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.raised: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        # span store: parallel arrays, one entry per recorded span
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_event = array("l")
        self.dropped = 0
        self.event = -1  # -1: outside any simulator step
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- wrapping -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def spanned(self, name: str, fn: Callable, hook: Callable | None = None,
                root: bool = False) -> Callable:
        """Return ``fn`` wrapped in a span. ``hook(args, result, seconds)``
        runs after each call that returns; ``root`` marks the simulator step,
        which advances the event number."""
        nid = self._name_id(name)
        stack = self._stack
        perf = time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if root:
                self.event += 1
            idx = len(self.span_name)
            if idx < MAX_SPANS:
                self.span_name.append(nid)
                self.span_start.append(0.0)
                self.span_end.append(0.0)
                self.span_parent.append(stack[-1][0] if stack else -1)
                self.span_event.append(self.event)
            else:
                idx = -1
                self.dropped += 1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                total_s[name] += dur
                self_s[name] += dur - frame[1]
                if idx >= 0:
                    self.span_start[idx] = t0
                    self.span_end[idx] = t1
            if hook is not None:
                hook(args, result, dur)
            return result
        return wrapper

    def counted(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """Count calls without a span, for functions too small and frequent
        to time without distorting their callers."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[name] += 1
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original)``; class-level
        classmethods and staticmethods keep their descriptor kind."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- readings ----------------------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def mean_us(self, name: str, kind: str = "total") -> float:
        table = self.total_s if kind == "total" else self.self_s
        calls = self.calls.get(name, 0)
        return table.get(name, 0.0) / calls * 1e6 if calls else 0.0

    def write_spans(self, path: str) -> int:
        """Write the stored spans as tab-separated lines: index, name, start
        and end in microseconds from tracer creation, parent, event."""
        n = len(self.span_name)
        with open(path, "w", encoding="utf-8") as f:
            f.write("span\tname\tstart_us\tend_us\tparent\tevent\n")
            for i in range(n):
                f.write(f"{i}\t{self.names[self.span_name[i]]}\t"
                        f"{(self.span_start[i] - self.t0) * 1e6:.3f}\t"
                        f"{(self.span_end[i] - self.t0) * 1e6:.3f}\t"
                        f"{self.span_parent[i]}\t{self.span_event[i]}\n")
        return n


def install(tracer: Tracer) -> Tracer:
    """Wrap the entry points of every layer. Returns the tracer."""
    from quicmq import agents, connection, crypto, handshake, mqtt, netsim, wire

    t = tracer
    S = t.spanned

    def span(owner, attr, name, hook=None, root=False):
        t.patch(owner, attr, lambda fn: S(name, fn, hook, root))

    # netsim: the step is the root span; handlers registered with the
    # simulator are wrapped as they are handed over.
    span(netsim.SimNetwork, "step", "netsim.step", root=True)
    span(netsim.SimNetwork, "send", "netsim.send")

    def on_schedule(args, result, dur):
        t.counters["netsim.timers"] += 1

    span(netsim.SimNetwork, "schedule", "netsim.schedule", hook=on_schedule)

    def wrap_register(register):
        @functools.wraps(register)
        def wrapper(self, address, handler):
            owner = getattr(handler, "__self__", None)
            side = "server" if isinstance(owner, agents.ServerAgent) else "client"
            return register(self, address, S(f"agents.{side}.datagram", handler))
        return wrapper

    t.patch(netsim.SimNetwork, "register", wrap_register)

    def wrap_pop(heappop):
        # Count cancelled timers leaving the queue and sample its depth.
        def wrapper(queue):
            item = heappop(queue)
            entry = item[2]
            if entry[0] == "timer" and entry[1].cancelled:
                t.counters["netsim.timers.cancelled"] += 1
            if len(queue) >= t.counters["netsim.queue_depth.max"]:
                t.counters["netsim.queue_depth.max"] = len(queue) + 1
            return item
        return wrapper

    # The simulator reaches the heap functions through its module global
    # ``heapq``; a namespace stands in for it so the shared module is untouched.
    t.patch(netsim, "heapq", lambda mod: types.SimpleNamespace(
        heappush=mod.heappush, heappop=wrap_pop(mod.heappop)))

    # agents
    span(agents.ClientAgent, "connect_mqtt", "agents.client.connect")
    span(agents.ClientAgent, "publish", "agents.client.publish")
    span(agents.ClientAgent, "subscribe", "agents.client.subscribe")
    span(agents.ClientAgent, "disconnect", "agents.client.disconnect")
    span(agents.ClientAgent, "_on_conn_event", "agents.client.on_event")
    span(agents.ServerAgent, "_on_conn_event", "agents.server.on_event")
    span(agents.ServerAgent, "quic_dispatcher", "agents.server.dispatch")
    span(agents.SessionStore, "load", "agents.client.session_file")
    span(agents.SessionStore, "store", "agents.client.session_file")

    # mqtt
    span(mqtt, "encode", "mqtt.encode")

    def on_decode(args, result, dur):
        t.counters["mqtt.decode.bytes"] += len(args[0])

    span(mqtt, "decode", "mqtt.decode", hook=on_decode)

    def on_handle(args, result, dur):
        if args[1].kind == mqtt.PUBLISH:
            t.counters["mqtt.publishes"] += 1
            t.counters["mqtt.deliveries"] += sum(
                1 for d in result if d.message.kind == mqtt.PUBLISH)
            t.samples["mqtt.broker.publish_us"].append(dur * 1e6)

    span(mqtt.Broker, "handle", "mqtt.broker.handle", hook=on_handle)
    t.patch(mqtt, "topic_matches", lambda fn: t.counted("mqtt.topic_matches", fn))

    # connection
    for attr in ("handle_datagram", "flush", "send_stream", "start_connect", "close",
                 "_on_rto", "_on_idle", "_handshake_retry", "_server_continue"):
        span(connection.Connection, attr, f"connection.{attr.lstrip('_')}")

    # wire, at the names the connection and agents look up
    span(connection, "seal_packet", "wire.seal")
    span(connection, "open_packet_body", "wire.open")
    span(connection, "encode_frames", "wire.frames.encode")
    span(connection, "decode_frames", "wire.frames.decode")
    span(connection, "decode_header", "wire.header.decode")
    span(agents, "decode_header", "wire.header.decode")
    span(wire, "encode_header", "wire.header.encode")
    span(wire.HandshakeMessage, "encode", "wire.handshake_msg.encode")
    span(wire.HandshakeMessage, "decode", "wire.handshake_msg.decode")

    def on_frame(args, result):
        if isinstance(args[0], wire.AckFrame):
            t.samples["wire.ack_frame_bytes"].append(len(result))

    t.patch(wire, "encode_frame", lambda fn: t.counted("wire.encode_frame", fn, on_frame))

    # crypto, at the names wire and handshake look up
    def on_open(args, result, dur):
        if result is None:
            t.counters["crypto.aead_open.fail"] += 1

    for owner in (wire, crypto):
        span(owner, "aead_seal", "crypto.aead_seal")
        span(owner, "aead_open", "crypto.aead_open", hook=on_open)
    span(wire, "get_iv", "crypto.nonce")
    span(handshake, "sign", "crypto.sig")
    span(handshake, "ver", "crypto.sig")
    span(handshake, "dh_keypair", "crypto.dh.keypair")
    span(handshake, "dh_shared", "crypto.dh.shared")
    span(crypto.X25519Group, "shared", "crypto.dh.group")
    span(handshake, "extract_expand", "crypto.kdf")
    span(handshake, "sha256", "crypto.hash")

    # handshake, at the names the connection looks up
    for attr in ("build_inchoate_chlo", "build_full_chlo", "check_scfg", "parse_rej",
                 "derive_ik_client", "derive_k_client"):
        span(connection, attr, f"handshake.client.{attr}")
    span(connection, "build_rej", "handshake.server.build_rej")
    for attr in ("validate_full_chlo", "build_shlo", "derive_k_server"):
        span(handshake.ServerIdentity, attr, f"handshake.server.{attr}")
    span(handshake, "mint_stk", "handshake.server.stk")
    span(handshake, "open_stk", "handshake.server.stk")
    return t
