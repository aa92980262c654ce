"""A fixed reference computation that measures how fast the host runs now.

The benchmark host is a few cores of a shared machine whose speed changes
by itself: the same case list has taken 1.3-1.6 times as long in one phase
of a few minutes as in the next, with CPU time equal to wall time, so the
slowdown is in the speed of each instruction, not in lost turns on a CPU.
No estimator over one run removes a phase that lasts the whole run.

``sample()`` runs a fixed piece of pure-Python work that uses no code of
``affopers`` -- exact ``Fraction`` elimination, a dictionary-based
polynomial product and complex powers, the three kinds of work the
workloads do -- and returns the CPU seconds it took.  The worker runs one
sample before every timed case, so a case and the samples around it see
the same host.  ``scale(samples)`` turns those samples into the factor that
converts a CPU time measured now into *reference seconds*: the time the
same work takes when the reference computation takes ``REFERENCE_S``.
Because the reference computation does not change when the program does,
a program that gets faster or slower moves its reference seconds by the
same share.
"""

from __future__ import annotations

import cmath
import gc
import statistics
import time
from fractions import Fraction

# CPU seconds of one sample in a fast phase of the host on which the
# benchmark's figures were recorded (Python 3.11.7, 2 shared CPUs)
REFERENCE_S = 1.2e-3

_N = 8
_MATRIX = [[Fraction(1, i + j + 1) + Fraction((i * j) % 5, 7)
            for j in range(_N)] for i in range(_N)]
_POLY = {k: Fraction(k * k - 3, 2 * k + 1) for k in range(12)}
_POINTS = [complex(0.3 + 0.01 * k, 0.2 - 0.013 * k) for k in range(160)]


def _work():
    m = [row[:] for row in _MATRIX]
    for k in range(_N):
        p = m[k][k]
        rk = m[k]
        for i in range(k + 1, _N):
            row = m[i]
            f = row[k] / p
            for j in range(k, _N):
                row[j] -= f * rk[j]
    prod = {}
    for a, ca in _POLY.items():
        for b, cb in _POLY.items():
            prod[a + b] = prod.get(a + b, 0) + ca * cb
    acc = 0j
    for z in _POINTS:
        acc += cmath.exp(Fraction(1, 3).__float__() * cmath.log(z)) * z
    return m[_N - 1][_N - 1], prod[11], acc


def sample():
    """CPU seconds of one run of the reference computation."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        _work()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def scale(samples):
    """Factor from CPU seconds measured near ``samples`` to reference
    seconds: ``REFERENCE_S`` over their median."""
    return REFERENCE_S / statistics.median(samples)


def local_scales(samples, half_width):
    """Per-position factors: ``scale`` of the samples within ``half_width``
    positions on either side, so each case is scaled by the host speed
    measured around it."""
    n = len(samples)
    return [scale(samples[max(0, i - half_width):i + half_width + 1])
            for i in range(n)]
