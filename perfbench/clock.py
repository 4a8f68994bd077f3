"""Wall-clock intervals in reference seconds.

On a shared 2-core host the speed of the same CPU-bound Python work swings
by 25% and more in phases of 10-30 s: one fixed ``factorize`` call, timed
back to back for 200 s, had 20-s window medians from 0.91 s to 1.50 s
(quartile spread 24% of the median).  Run-level medians then differ by
more than any useful regression bound.  So between ops the clock times a
fixed calibration kernel, written here and independent of ``chebscale``:
truncated-series arithmetic on small lists and dicts plus lookups in a
working set larger than a core's private caches.  An interval is reported
as ``raw * REF_KERNEL_S / k``, where ``k`` is the median kernel time within
``WINDOW_S`` of the interval: the seconds the work would take on a host
where the kernel takes ``REF_KERNEL_S``.  In the measurement above the
per-call correlation between kernel and ``factorize`` was 0.88 and the
scaled window medians had a quartile spread of 4%.  A library change
cannot move the kernel, so it moves reference seconds as it moves wall
seconds; the raw seconds are printed beside the scaled ones.
"""

from __future__ import annotations

import array
import bisect
import gc
import math
import random
import time

REF_KERNEL_S = 0.010  # about the kernel's time on the 2-core reference host
CALIBRATE_EVERY_S = 0.25
WINDOW_S = 1.0  # over 30 runs, 15-20% lower spreads than with 3 s or 6 s


def perf():
    return time.perf_counter()


def _series():
    """Truncated-series products in small lists, with dict inserts."""
    a = [1.0 / (k + 1) for k in range(9)]
    b = [(-1.0) ** k / (k + 2) for k in range(9)]
    acc = 0.0
    for r in range(600):
        c = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(9)]
        acc += c[-1] + math.exp(-c[0]) + math.log1p(abs(c[3]))
        d = {("k", k): v for k, v in enumerate(c)}
        acc += d[("k", r % 9)]
    return acc


class Clock:
    def __init__(self):
        self.times = []  # when each calibration ran
        self.kernel_s = []  # how long it took
        # a working set beyond the core's private caches, as the library's
        # jet caches have; ints and a float array keep it out of the GC's way
        rng = random.Random(0)
        self._table = {i: 0.5 * i for i in range(40000)}
        self._keys = [rng.randrange(40000) for _ in range(6000)]
        self._array = array.array("d", range(200000))

    def _kernel(self):
        table = self._table
        acc = sum(table[k] for k in self._keys) + sum(self._array[::7])
        return acc + _series()

    def tick(self, force=False):
        """An op boundary: calibrate if one is due, then read the clock."""
        now = perf()
        if force or not self.times or now - self.times[-1] >= CALIBRATE_EVERY_S:
            gc.disable()  # keep the library's heap out of the kernel's time
            try:
                t0 = perf()
                self._kernel()
                t1 = perf()
            finally:
                gc.enable()
            self.times.append(0.5 * (t0 + t1))
            self.kernel_s.append(t1 - t0)
            now = perf()
        return now

    def scaled(self, t0, t1, raw=None):
        """Reference seconds of the interval [t0, t1] (or of ``raw`` seconds
        measured inside it)."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        near = sorted(self.kernel_s[lo:hi])
        if not near:
            raise RuntimeError("no calibration near the interval")
        k = near[len(near) // 2] if len(near) % 2 else 0.5 * (
            near[len(near) // 2 - 1] + near[len(near) // 2])
        return (t1 - t0 if raw is None else raw) * REF_KERNEL_S / k
