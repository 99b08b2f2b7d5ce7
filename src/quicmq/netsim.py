"""Deterministic in-process datagram network with a simulated clock.

Endpoints are registered under ``(ip, port)`` addresses. A sent datagram is
either delivered exactly once after the configured one-way delay or dropped
by a drop rule; nothing is reordered or duplicated. All randomness comes
from a single seeded RNG drawn in event order, so identical configuration
and seed reproduce a bit-identical event trace.

Drop rules:

* ``loss_rate`` drops datagrams at random (seeded) - the stand-in for the
  wireless/long-distance testbeds' ambient loss.
* ``add_periodic_drop(match, n)`` drops every n-th datagram of a flow among
  those matching a predicate, where a flow is the source ``(ip, port)``
  tuple, mirroring firewall-style interception rules. A predicate that
  matches everything drops every n-th datagram of each flow; a narrower one
  confines the drops, say to one stream.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from random import Random
from typing import Callable

Address = tuple[str, int]


class NetsimError(Exception):
    pass


@dataclass(frozen=True)
class SimConfig:
    name: str = "custom"
    delay_ms: float = 0.2
    loss_rate: float = 0.0


# Synthetic link presets; the acceptance checks use ratios and orderings,
# never these absolute parameters.
PROFILES: dict[str, SimConfig] = {
    "wired": SimConfig(name="wired", delay_ms=0.2),
    "wireless": SimConfig(name="wireless", delay_ms=2.0, loss_rate=0.25),
    "long_distance": SimConfig(name="long_distance", delay_ms=35.0, loss_rate=0.03),
}


class SimClock:
    """Monotone simulated clock; advances only through event processing."""

    def __init__(self):
        self.now_us: int = 0

    @property
    def now_s(self) -> float:
        return self.now_us / 1_000_000.0


@dataclass(slots=True)
class TraceEvent:
    time_us: int
    event: str  # send | deliver | drop
    src: Address
    dst: Address
    size: int
    annotation: str = ""

    def line(self) -> str:
        flow = f"{self.src[0]}:{self.src[1]}>{self.dst[0]}:{self.dst[1]}"
        return f"{self.time_us}\t{self.event}\t{flow}\t{self.size}\t{self.annotation}"


def write_trace_file(trace: list[TraceEvent], path: str) -> None:
    """Write ``trace`` to ``path``, one ``TraceEvent.line()`` per line."""
    with open(path, "w", encoding="utf-8") as f:
        for ev in trace:
            f.write(ev.line() + "\n")


class Timer:
    __slots__ = ("fn", "cancelled")

    def __init__(self, fn):
        self.fn = fn
        self.cancelled = False

    def cancel(self):
        # The callback goes at once: a cancelled timer stays queued until
        # its deadline, and its closure would keep a closed connection alive.
        self.cancelled = True
        self.fn = None


@dataclass
class _PeriodicDrop:
    match: Callable[[Address, Address, int, str], bool]
    every_n: int
    counters: dict[Address, int] = field(default_factory=dict)

    def should_drop(self, src: Address, dst: Address, size: int, annotation: str) -> bool:
        if not self.match(src, dst, size, annotation):
            return False
        count = self.counters.get(src, 0) + 1
        self.counters[src] = count
        return count % self.every_n == 0


class SimNetwork:
    def __init__(self, config: SimConfig, seed: int = 0):
        self.config = config
        self.clock = SimClock()
        self.rng = Random(seed)
        self.trace: list[TraceEvent] = []
        self._handlers: dict[Address, Callable[[bytes, Address], None]] = {}
        self._queue: list = []
        self._seq = 0
        self._rules: list[_PeriodicDrop] = []
        # SimConfig is frozen: the per-datagram figures are read once.
        self._delay_us = int(config.delay_ms * 1000)
        self._loss_rate = config.loss_rate

    # -- endpoints ----------------------------------------------------------

    def register(self, address: Address, handler: Callable[[bytes, Address], None]) -> None:
        if address in self._handlers:
            raise NetsimError(f"address {address} already registered")
        self._handlers[address] = handler

    def unregister(self, address: Address) -> None:
        self._handlers.pop(address, None)

    def change_address(self, old: Address, new: Address) -> None:
        """Relabel an endpoint. Datagrams already in flight keep their old
        source; traffic to the old address is no longer deliverable."""
        if new in self._handlers:
            raise NetsimError(f"address {new} already registered")
        if old not in self._handlers:
            raise NetsimError(f"address {old} not registered")
        self._handlers[new] = self._handlers.pop(old)

    # -- drop rules -----------------------------------------------------------

    def add_periodic_drop(self, match: Callable[[Address, Address, int, str], bool],
                          every_n: int) -> None:
        if every_n < 1:
            raise NetsimError("every_n must be positive")
        self._rules.append(_PeriodicDrop(match, every_n))

    # -- traffic --------------------------------------------------------------

    def send(self, payload: bytes, src: Address, dst: Address, annotation: str = "") -> None:
        if src not in self._handlers:
            raise NetsimError(f"sender {src} not registered")
        now = self.clock.now_us
        size = len(payload)
        trace = self.trace
        trace.append(TraceEvent(now, "send", src, dst, size, annotation))
        if self._rules:
            for rule in self._rules:
                if rule.should_drop(src, dst, size, annotation):
                    trace.append(TraceEvent(now, "drop", src, dst, size, annotation))
                    return
        loss_rate = self._loss_rate
        if loss_rate and self.rng.random() < loss_rate:
            trace.append(TraceEvent(now, "drop", src, dst, size, annotation))
            return
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (now + self._delay_us, seq,
                                     ("deliver", payload, src, dst, annotation)))

    def schedule(self, delay_s: float, fn: Callable[[], None]) -> Timer:
        timer = Timer(fn)
        # Round up so a timer never fires before its float deadline.
        delay_us = math.ceil(delay_s * 1_000_000) if delay_s > 0 else 0
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self.clock.now_us + delay_us, seq, ("timer", timer)))
        return timer

    # -- event loop ------------------------------------------------------------

    def step(self) -> bool:
        """Process one event; returns False when the queue is empty."""
        queue = self._queue
        clock = self.clock
        while queue:
            at_us, _, item = heapq.heappop(queue)
            now = clock.now_us
            if at_us > now:
                clock.now_us = now = at_us
            if item[0] == "timer":
                timer = item[1]
                if timer.cancelled:
                    continue
                timer.fn()
                return True
            _, payload, src, dst, annotation = item
            handler = self._handlers.get(dst)
            if handler is None:
                self.trace.append(TraceEvent(now, "drop", src, dst,
                                             len(payload), annotation or "stale_addr"))
                return True
            self.trace.append(TraceEvent(now, "deliver", src, dst, len(payload), annotation))
            handler(payload, src)
            return True
        return False

    def run(self, until_s: float | None = None) -> None:
        """Drain the event queue, optionally stopping at a simulated time."""
        until_us = None if until_s is None else int(until_s * 1_000_000)
        queue = self._queue
        while queue:
            at_us, _, item = queue[0]
            if item[0] == "timer" and item[1].cancelled:
                heapq.heappop(queue)  # a cancelled timer leaves without an event
            elif until_us is not None and at_us > until_us:
                break
            else:
                self.step()
        if until_us is not None and until_us > self.clock.now_us:
            self.clock.now_us = until_us

    # -- trace helpers -----------------------------------------------------------

    def count_for_role(self, ip: str) -> int:
        """Datagrams a role saw on the wire: sent by it plus delivered to it."""
        sent = sum(1 for ev in self.trace if ev.event == "send" and ev.src[0] == ip)
        got = sum(1 for ev in self.trace if ev.event == "deliver" and ev.dst[0] == ip)
        return sent + got
