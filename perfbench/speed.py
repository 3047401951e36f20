"""The host-speed probe: a fixed pure-Python loop, timed.

On shared hosts the same op list runs 30-70% slower for seconds to minutes
at a time (CPU time tracks wall time, so it is the host and not scheduling).
The benchmark times this probe next to every op and reports op times scaled
to a host on which the probe takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / probe time around the op

The probe does not touch the program, so a change to the program moves the
scaled times exactly as it moves the measured ones; the measured times are
printed beside them in the context line.
"""

from __future__ import annotations

import time

ITERATIONS = 100_000
REFERENCE_S = 0.01  # about the probe's time on a fast, idle 2-vCPU Xeon VM


def probe() -> float:
    """Seconds for the fixed loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def scale(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s`, at reference speed."""
    return seconds * REFERENCE_S / probe_s

