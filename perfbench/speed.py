"""The host's speed, as a fixed reference loop sees it, and times brought to
a reference speed.

On a shared host the same deterministic work runs at different speeds as
other tenants come and go.  The benchmark times this loop before, after and
every ``PROBE_S`` during the work it measures, and counts each step of that
work at the speed the loop showed then (see ``at_reference_speed``).
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter, thread_time

# The reference loop's time in the fastest state of the host the bounds
# were set on (2-core x86-64, Python 3.11); times are given at that speed.
REFERENCE_S = 0.00035
# The loop is timed every PROBE_S while work runs, so that the work is
# judged by the machine's speed during it and not only at its two ends:
# the speed changed within a second.
PROBE_S = 0.01

# Wall seconds spent timing the loop during work, over the whole process;
# see ``work_clock``.
probed_s = 0.0


def work_clock():
    """A wall clock that stands still while the loop is timed during work,
    so that spans read with it leave the timing out."""
    return perf_counter() - probed_s


def reference_loop():
    """Fixed pure-Python work (integer, bit and dict operations, like the
    program's), independent of ftdesigns."""
    table = {}
    x = 1
    for _ in range(1500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x & 1023
        table[key] = table.get(key, 0) + (x >> 11).bit_count()
    return len(table)


def reference_time():
    """CPU seconds of one reference loop."""
    start = thread_time()
    reference_loop()
    return thread_time() - start


def at_reference_speed(seconds, loop_times, sensitivity=1.0):
    """A time scaled to the reference speed, given the loop times taken at
    even steps around and during it: each step counts at the speed the
    loop showed then, raised to the power ``sensitivity``, how strongly the
    work timed follows the loop's speed (in proportion for the jobs)."""
    return seconds * (REFERENCE_S * statistics.mean(1 / r for r in loop_times)) ** sensitivity


class Probes:
    """While entered, times the reference loop every ``PROBE_S`` from a
    SIGALRM handler: ``times`` holds the loop times, ``spent`` the CPU
    seconds spent in the handler, to be left out of the work's time."""

    def __init__(self):
        self.times = []
        self.spent = 0.0
        self._previous = None

    def _probe(self, signum, frame):
        global probed_s
        entered, entered_wall = thread_time(), perf_counter()
        self.times.append(reference_time())
        self.spent += thread_time() - entered
        probed_s += perf_counter() - entered_wall

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
