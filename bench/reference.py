"""A fixed reference computation that measures how fast the machine runs.

On a shared host the speed of one core drifts by tens of percent from one
minute to the next, and every op drifts with it. The runner times this
kernel on either side of every op and divides the op's latency by the
kernel's median time there over `NOMINAL_S`. The kernel shares no code with
curvelab, so a change to the package cannot move it; its mix of interpreter
work, small numpy calls and one FFT is the mix the workloads spend their time
on.
"""

from __future__ import annotations

import math
import time

import numpy as np

# About the median kernel time on 2 cores of a shared Intel Xeon host
# (Python 3.11, numpy 2.4). Rescaled timings read as seconds on that machine
# at its median speed.
NOMINAL_S = 0.02

_Z = 2.0 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
_COEFFS = np.array([0.3 - 0.1j, -0.5j, 1.2, 0.25 + 0.7j, -0.8 + 0.2j])
_SIGNAL = np.cos(np.arange(4096) * 0.01)


def kernel():
    """The fixed work; returns a number so that none of it can be skipped."""
    acc = 0.0
    for k in range(36000):
        acc += math.sin(k * 1e-3) * (k % 7)
    for _ in range(1000):
        values = np.polyval(_COEFFS, _Z)
        acc += float(np.max(np.abs(values)))
    acc += float(np.abs(np.fft.fft(_SIGNAL)).sum())
    return acc


def timed(repeats=1):
    """Wall time of each of `repeats` consecutive kernel calls."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out
