"""Machine-speed correction for timings taken on a shared host.

The host this benchmark was built on switches, for stretches of a fraction
of a second to half a minute, between an idle state and a contended one in
which other tenants slow pure-Python code by up to ~1.8x and numpy
matrix products by ~1.3x. A run that lands in a contended stretch would
otherwise read as a regression. Every measured interval is therefore
bracketed by a fixed probe, and its duration is divided by the probe's
slowdown against PROBE_REFERENCE_S, the probe's time on the idle host:
reported times read as they would on the idle reference machine. Raw
times are printed alongside in the detail line.
"""

import time

import numpy as np

# Median probe time on the idle reference host (2 vCPU Intel Xeon, Python
# 3.11, numpy 2.4 with OpenBLAS); a constant scale, so any value works on
# other hosts: it only keeps reported times close to wall-clock ones.
PROBE_REFERENCE_S = 0.014

_X = np.ones((128, 4))
_B = np.ones(4)
_A = np.ones((128, 784))
_W = np.ones((784, 256))


def probe_seconds():
    """Time a fixed mix of interpreter work, small-array numpy calls and matmuls."""
    started = time.perf_counter()
    counts = {}
    for i in range(25000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    for _ in range(1500):
        np.maximum(_X + _B, 0.0)
    for _ in range(6):
        _A @ _W
    return time.perf_counter() - started


def slowdown(before, after):
    """How much slower than the idle reference the host ran around an interval."""
    return (before + after) / (2.0 * PROBE_REFERENCE_S)
