"""Host-speed probe for the benchmark's timings.

The shared host the benchmark was built on switches between a fast and a
slow state every second or so, and the share of slow time drifts over
minutes. In the slow state interpreted code runs 1.6 to 2.3 times slower,
so a run's raw CPU times move by that much with no change to the program.

While a measuring run is active, an interval timer interrupts the process
every ``TICK_S`` and the handler times a fixed probe of interpreted work
that uses no quicmq code. The timer is a wall-clock one (``ITIMER_REAL``):
arming a CPU-time timer (``ITIMER_PROF``) makes Linux read the process CPU
clock from a tick-granular accumulator, and the probes then read as 0 s.
``clock`` is the process CPU clock less the time spent in probes, so a
probe never counts in a measurement.

Timings are then multiplied by a host factor: ``REFERENCE_S`` over the mean
time of the probes around them. For a round's set-up and timed phase these
are the probes during the round; for a single connect or delivery, the
probes within ``SPAN_S`` of the moment it ended. Scaled timings read as CPU
time on a host where the probe takes ``REFERENCE_S``. A change to quicmq
moves them in full; a change of host state moves the probe too and mostly
cancels. The unscaled timings are kept in the result record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

TICK_S = 0.05
SPAN_S = 0.25
# About the median probe time on a 2-vCPU KVM guest (Python 3.11); it only
# fixes the unit of the scaled timings.
REFERENCE_S = 0.0025

probes: list[float] = []  # duration of every probe so far, in order
probed_at: list[float] = []  # ``clock()`` when each probe ran
_spent = 0.0


class _Cell:
    __slots__ = ("n", "acc")

    def __init__(self):
        self.n = 0
        self.acc = 0

    def step(self, k: int, data: bytes) -> int:
        self.n += 1
        self.acc ^= int.from_bytes(data[k & 31:(k & 31) + 4], "big")
        return self.acc & 0xFF


_CELL = _Cell()
_TABLE = {i: i * 3 for i in range(4096)}
_DATA = bytes(range(256)) * 4


def _work(n: int = 2500) -> None:
    # Method calls, attribute updates, dict reads and writes and bytes
    # slicing, the stack's own mix; it allocates no tracked objects, so it
    # never triggers the program's garbage collection.
    cell, table, data = _CELL, _TABLE, _DATA
    for k in range(n):
        j = (k * 2654435761) & 4095
        table[j] = table[j] + cell.step(k, data)


def clock() -> float:
    """Process CPU seconds, less the time spent in probes."""
    return time.process_time() - _spent


def _on_tick(signum, frame) -> None:
    global _spent
    t = time.process_time()
    _work()
    took = time.process_time() - t
    probed_at.append(t - _spent)
    _spent += took
    probes.append(took)


def start() -> None:
    signal.signal(signal.SIGALRM, _on_tick)
    signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _factor(window: list[float]) -> float:
    return REFERENCE_S / statistics.fmean(window) if window else 1.0


def factor(since: int) -> float:
    """Host factor of the probes from index ``since`` on (all probes if none
    ran since then; 1.0 if none ran at all)."""
    return _factor(probes[since:] or probes)


def factor_at(t: float) -> float:
    """Host factor of the probes within ``SPAN_S`` of ``clock()`` reading
    ``t`` (the nearest earlier probe if none; 1.0 if none ran at all)."""
    lo = bisect.bisect_left(probed_at, t - SPAN_S)
    hi = bisect.bisect_right(probed_at, t + SPAN_S)
    return _factor(probes[lo:hi] or probes[max(lo - 1, 0):lo] or probes[hi:hi + 1])
