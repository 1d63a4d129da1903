"""A fixed reference computation that measures the host's current speed.

Shared hosts drift in speed by tens of percent over minutes, which no
number of repetitions averages out. The worker times this kernel
between operations and expresses every timing at the reference speed:
``time * NOMINAL_S / kernel_seconds()``, with the kernel time taken as
the mean of the passes just before and just after the timed interval.

The kernel mixes what the workloads spend their time on: numpy
elementwise complex arithmetic on small (64 x 64) arrays and plain
Python dict and loop work. It imports nothing from the program, so no
change to the program can move it; only the host can.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel iterations per pass.
ITERATIONS = 1200

#: Reference speed: the host on which one pass takes exactly this long
#: (the median pass on a shared 2.1 GHz Xeon vCPU).
NOMINAL_S = 0.22


def kernel_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    x = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    acc = 0.0
    start = time.perf_counter()
    for i in range(ITERATIONS):
        z = np.exp(1j * x * (i + 1)) * np.sqrt(x * x + 1.0)
        acc += float(np.abs(z).sum())
        table = {k: k * 2 for k in range(300)}
        acc += sum(table.values())
    elapsed = time.perf_counter() - start
    if not acc > 0.0:
        raise RuntimeError("reference kernel produced no result")
    return elapsed
