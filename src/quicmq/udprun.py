"""Thin real-UDP binding for manual runs.

Exposes the same duck-typed surface the agents use on the simulator
(register/send/schedule/clock), backed by one UDP socket and a clock that
reads Unix time. Good enough to run a broker, publisher, and subscriber by
hand on loopback; the benchmarks always use the simulator. Given a trace
path, a runner keeps the simulator's trace: a ``TraceEvent`` per datagram sent,
dropped and delivered (with this endpoint's socket address as ``dst``),
written in the same lines. Without one it keeps nothing.
"""

from __future__ import annotations

import heapq
import select
import socket
import time
from typing import Callable

from .netsim import Address, Timer, TraceEvent, write_trace_file


class _WallClock:
    """Unix time, read as monotonic time plus an offset fixed once at start:
    timers never run backwards, and separate processes read the same time,
    as the broker's check of a client's nonce timestamp needs."""

    def __init__(self):
        self.start_s = time.time()
        self._offset = self.start_s - time.monotonic()

    @property
    def now_s(self) -> float:
        return time.monotonic() + self._offset

    @property
    def now_us(self) -> int:
        return int(self.now_s * 1_000_000)


class UdpNetwork:
    """One endpoint's UDP event loop."""

    def __init__(self, trace_path: str | None = None):
        self.clock = _WallClock()
        self.trace_path = trace_path
        self._sock: socket.socket | None = None
        self._handler: Callable[[bytes, Address], None] | None = None
        self._timers: list = []
        self._seq = 0
        self.trace: list[TraceEvent] = []

    def register(self, address: Address, handler: Callable[[bytes, Address], None]) -> None:
        if self._sock is not None:
            raise RuntimeError("one endpoint per UDP runner")
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(address)
        self._sock.setblocking(False)
        self._handler = handler

    def unregister(self, address: Address) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def local_address(self) -> Address:
        return self._sock.getsockname()

    def send(self, payload: bytes, src: Address, dst: Address, annotation: str = "") -> None:
        """Send one datagram. One the host refuses to send (to port 0 or a
        broadcast address, say, both of which a peer can name as its source)
        is dropped, as a lost one is, and traced as a drop."""
        if self.trace_path is not None:
            self.trace.append(TraceEvent(self.clock.now_us, "send", src, dst, len(payload),
                                         annotation))
        if self._sock is None:
            return
        try:
            self._sock.sendto(payload, dst)
        except OSError:
            if self.trace_path is not None:
                self.trace.append(TraceEvent(self.clock.now_us, "drop", src, dst,
                                             len(payload), annotation))

    def schedule(self, delay_s: float, fn: Callable[[], None]) -> Timer:
        timer = Timer(fn)
        self._seq += 1
        heapq.heappush(self._timers, (self.clock.now_s + max(0.0, delay_s), self._seq, timer))
        return timer

    def write_trace(self) -> None:
        """Write the trace to the path given at construction, if any."""
        if self.trace_path is not None:
            write_trace_file(self.trace, self.trace_path)

    # -- loop -------------------------------------------------------------

    def _fire_due_timers(self) -> float | None:
        while self._timers:
            at, _, timer = self._timers[0]
            if timer.cancelled:
                heapq.heappop(self._timers)
                continue
            now = self.clock.now_s
            if at <= now:
                heapq.heappop(self._timers)
                timer.fn()
                continue
            return at - now
        return None

    def run(self, until_s: float | None = None,
            stop: Callable[[], bool] | None = None) -> None:
        """Run the loop until ``stop()`` holds or, given ``until_s``, until
        the runner has been up that many seconds."""
        until = None if until_s is None else self.clock.start_s + until_s
        while True:
            if stop is not None and stop():
                return
            if until is not None and self.clock.now_s >= until:
                return
            wait = self._fire_due_timers()
            if wait is None:
                wait = 0.2
            if until is not None:
                wait = min(wait, max(0.0, until - self.clock.now_s))
            if self._sock is None:
                time.sleep(min(wait, 0.05))
                continue
            ready, _, _ = select.select([self._sock], [], [], min(wait, 0.2))
            if ready:
                local = self.local_address()
                for _ in range(64):
                    try:
                        payload, src = self._sock.recvfrom(65535)
                    except BlockingIOError:
                        break
                    except OSError:
                        return
                    if self.trace_path is not None:
                        self.trace.append(TraceEvent(self.clock.now_us, "deliver",
                                                     src, local, len(payload)))
                    if self._handler is not None:
                        self._handler(payload, src)
