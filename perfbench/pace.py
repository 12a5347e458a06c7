"""Host speed, from a fixed loop timed around each measured span.

The shared hosts this runs on slow every process down by up to half for
tens of seconds at a time, which moves all wall times alike and no run
length inside one run averages away. So every timed span is scaled by a
fixed pure-Python loop timed just before and just after it: a time reads as
it would on a host where that loop takes REF_PROBE_S. The loop shares no
code with the program, so a change to the program moves the scaled times
exactly as it moves the wall times. This module imports nothing heavy, so
run.py can probe before anything else.
"""
import math
import time

PROBE_ITERS = 100_000
REF_PROBE_S = 0.006


def probe():
    """Seconds the reference loop takes, the fastest of three."""
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        x = 0
        for j in range(PROBE_ITERS):
            x += j * j
        best = min(best, time.perf_counter() - t)
    return best


class Pace:
    """`with Pace() as p:` around a timed span; then p.factor turns the
    span's wall times into reference-host times."""

    def __enter__(self):
        self.before = probe()
        return self

    def __exit__(self, *exc):
        self.factor = 2 * REF_PROBE_S / (self.before + probe())
