"""A fixed reference kernel, timed between the ops of every pass.

On a shared host the speed of one core can change by 1.8x for minutes at a
time, and every op slows together.  Dividing a pass's wall time by the time
this kernel takes in the same pass cancels most of that: the kernel mixes
the kinds of work hjblab's ops spend their time on (interpreted Python
loops, numpy calls on short arrays, numpy calls on arrays of tens of
thousands of elements).  It calls nothing of hjblab, so a change to hjblab
cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(20260810)
_SHORT = _rng.standard_normal(64)
_LONG = _rng.standard_normal(20000)


def _python_loop():
    s = 0
    for i in range(50000):
        s += i * i
    return s


def _short_arrays():
    x = _SHORT
    for _ in range(1000):
        x = np.abs(np.sin(x)) + 0.1
        x = x[::-1].copy()
    return x


def _long_arrays():
    x = _LONG
    for _ in range(40):
        x = np.sqrt(np.abs(x)) + 0.1
        x = np.cumsum(x) * 1e-4
    return x


def _python_tridiag():
    """Thomas algorithm on a 64-unknown line in plain Python, 100 times."""
    n = len(_SHORT)
    d = _SHORT.tolist()
    for _ in range(100):
        cp = [0.0] * n
        dp = [0.0] * n
        cp[0], dp[0] = -0.25, d[0] / 4.0
        for i in range(1, n):
            m = 4.0 + cp[i - 1]
            cp[i] = -1.0 / m
            dp[i] = (d[i] + dp[i - 1]) / m
        x = [0.0] * n
        x[-1] = dp[-1]
        for i in range(n - 2, -1, -1):
            x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def reference_seconds():
    """Wall seconds of one run of the kernel (about 20 ms on an idle core)."""
    t0 = time.perf_counter()
    _python_loop()
    _short_arrays()
    _long_arrays()
    _python_tridiag()
    return time.perf_counter() - t0
