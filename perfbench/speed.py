"""Machine-speed calibration for timings taken on a shared, noisy host.

On a host shared with other tenants the same Python code can run at very
different speeds from one second to the next (CPU time itself, not only wall
time, swings by half and more, in phases lasting seconds).  The benchmark
therefore runs a short fixed loop that mixes the kinds of work latscreen does
(Python integers, Fractions, containers, small numpy products) but uses no
latscreen code, once before a pass and once after every timed call, and
rescales each call's wall time to a reference speed:

    scaled = wall * REFERENCE_S / median(last five loop times)

where the last of the five loops ran right after the call (see run_pass in
run.py).  REFERENCE_S is the loop's time in the fast phase of a 2-vCPU Intel
Xeon VM.  A change to latscreen moves the scaled times exactly as it moves
the wall times; a slow phase of the host moves the loop and the call
together and cancels out.  Wall-clock figures are kept next to the scaled
ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.00085


def _loop() -> tuple:
    """Small-integer, big-integer, Fraction, container and numpy work."""
    acc = 0
    for i in range(5000):
        acc += i * i % 7
    pairs = []
    for i in range(800):
        a = (i * 7919 + 13) ** 3
        acc += a // (i + 1) % 97
        pairs.append((i, a % 11))
    f = Fraction(0)
    for i in range(1, 40):
        f += Fraction(i, i + 7)
    table = dict(pairs)
    m = np.arange(64, dtype=np.int64).reshape(8, 8)
    for _ in range(100):
        m = m.dot(m) % 7 + 1
    return acc, f, len(table), int(m[0, 0])


def calibrate() -> float:
    """Seconds taken by the fixed calibration loop, now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scale(wall: float, loop: float) -> float:
    """Wall time rescaled to the reference speed, given the loop's time."""
    return wall * REFERENCE_S / loop
