"""A fixed reference kernel that tracks the machine's current speed.

On a shared machine the speed of one core drifts by ±20 % within seconds, as
neighbours come and go, so raw medians of two runs of the same code can
differ by more than any useful regression bound.  The benchmark therefore
times this kernel between consecutive pieces of program work and divides
each piece's time by the kernel's time around it (``Clock``).

The kernel imitates steplab's hot path without importing it, so no change to
the program can change the kernel: a Gaussian-mixture noise prediction on a
2-vector, written as small numpy calls dispatched through Python functions,
evaluated forward while recording closures, then swept in reverse.

``normalized = seconds * REFERENCE_S / kernel_seconds`` reads as the time the
work would take on a machine where the kernel takes ``REFERENCE_S``.  That
was its median on the shared 2-core Xeon virtual machine (Python 3.11,
numpy 2.4) where the benchmark was defined, so normalized times are close to
wall times there.
"""

from __future__ import annotations

import gc
import time

import numpy as np

REFERENCE_S = 0.014
_STEPS = 300
_MEANS = np.array([[2.0, 1.0], [-1.4, 1.8], [0.3, -2.2]])
_LOG_W = np.log(np.array([0.5, 0.3, 0.2]))
_VARS = np.array([0.25, 0.16, 0.36])


def _step(tape, x, sigma):
    # responsibilities and epsilon of a 3-component mixture, one op at a
    # time, recording a closure per op as a reverse-mode tape does
    terms, pieces = [], []
    for k in range(3):
        v = _VARS[k] + sigma * sigma
        diff = x - _MEANS[k]
        terms.append(_LOG_W[k] - 0.5 * (2.0 * np.log(v)
                                        + float(np.dot(diff, diff)) / v))
        pieces.append(diff / v)
        tape.append(lambda g, v=v: g / v)
    t = np.array(terms)
    m = np.max(t)
    lse = m + np.log(np.sum(np.exp(t - m)))
    eps = sigma * sum(np.exp(tk - lse) * p for tk, p in zip(terms, pieces))
    tape.append(lambda g: g * sigma)
    if not np.all(np.isfinite(eps)):
        raise ArithmeticError("reference kernel produced non-finite values")
    return x - 0.05 * sigma * eps


def kernel_seconds():
    """Wall time of one run of the reference kernel.

    The cyclic garbage collector is off while the kernel runs: a collection
    costs time in proportion to everything the process holds, which would
    make the kernel measure the process's age instead of the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        tape = []
        x = np.array([0.3, 0.7])
        for i in range(_STEPS):
            x = _step(tape, x, 1.0 + 0.01 * i)
        g = np.ones(2)
        for vjp in reversed(tape):
            g = vjp(g)
        seconds = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return seconds


def normalize(seconds, before, after):
    """``seconds`` of work as it would read where the kernel takes
    REFERENCE_S, from the kernel's times just before and just after it."""
    return seconds * REFERENCE_S * 2.0 / (before + after)


class Clock:
    """Times pieces of program work between runs of the reference kernel.

    With ``kernel=False`` the kernel never runs and the normalized time is
    the raw one: for warm-up operations, whose time is not reported on its
    own.
    """

    def __init__(self, kernel=True):
        self._last = kernel_seconds() if kernel else None

    def time(self, fn, *args):
        """Run fn(*args); return (its result, raw seconds, normalized
        seconds).  An exception from fn propagates untimed."""
        start = time.perf_counter()
        out = fn(*args)
        seconds = time.perf_counter() - start
        if self._last is None:
            return out, seconds, seconds
        after = kernel_seconds()
        normalized = normalize(seconds, self._last, after)
        self._last = after
        return out, seconds, normalized
