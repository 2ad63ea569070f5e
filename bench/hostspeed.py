"""Host-speed probe: scales measured times to a nominal host speed.

On a shared host the same op can take twice as long a minute later (on a
2-core machine, 80-op medians of one honest W1 op at m=12 ranged from 59 to
115 ms within three minutes, with CPU time tracking wall time).  The probe
times a fixed pure-Python reference kernel, which uses none of ppcplab,
every ``EVERY_S`` seconds during a run.  A time measured at moment t is
multiplied by ``NOMINAL_MS`` over the median kernel time of the samples
nearest t, so a host slowdown that hits the kernel and the program alike
cancels out.  A change to the program does not move the kernel.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

NOMINAL_MS = 2.0  # the kernel's median time on an unloaded host of the baseline machine
WINDOW = 15  # samples around a moment whose median gives the local speed
EVERY_S = 0.05  # seconds between samples while ops run


class _Elem:
    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def mul(self, other: "_Elem") -> "_Elem":
        return _Elem(self.v * other.v, self.p)


def reference_kernel() -> int:
    """Fixed work in the program's style: table folds mod p, small objects."""
    p = 2_147_483_647
    acc = 0
    for base in (1, 7):
        tbl = list(range(base, base + 2048))
        for r in range(3, 9):
            half = len(tbl) >> 1
            tbl = [(lo + r * (hi - lo)) % p for lo, hi in zip(tbl[:half], tbl[half:])] * 2
            acc = (acc + sum(tbl)) % p
    e = _Elem(3, p)
    for i in range(600):
        e = e.mul(_Elem(i + 2, p))
    return acc + e.v


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's garbage must not land here
        start = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.times.append(start)
        self.kernel_s.append(took)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale_at(self, moment: float) -> float:
        """Factor that turns a time measured at ``moment`` into nominal time."""
        at = bisect.bisect(self.times, moment)
        low = max(0, min(at - WINDOW // 2, len(self.times) - WINDOW))
        local = statistics.median(self.kernel_s[low : low + WINDOW])
        return NOMINAL_MS / 1e3 / local

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.kernel_s)
