"""Host speed probe: a fixed piece of pure-Python work, timed between
instances, that turns wall seconds into reference seconds.

The benchmark runs on a few cores of a shared host that switches
between a fast and a slow state (the same work takes about 1.45 times
as long in the slow one) every few milliseconds to seconds, and whose
share of slow time drifts over minutes.  That moves every wall-clock
metric together, so much that ten runs of the same code can differ by
more than the bound a regression is judged by.  The probe samples the
host's speed every ``EVERY_S`` through a run; an interval's reference
time is its wall time scaled by the mean speed of the probes around it,
relative to the nominal probe time:

    ref_s = wall_s * mean(NOMINAL_S / probe time, probes within WINDOW_S)

A change to rankdec leaves the probe alone (it runs none of rankdec's
code, allocates little and runs with the garbage collector off, so a
larger heap does not slow it), so a faster program reads faster in
reference seconds just as in wall seconds; only the host's drift is
divided out.  The wall-clock figures are still printed and recorded.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

#: the probe time that defines one reference second: a round figure
#: between the times of ``_work`` in the fast (about 1.07 ms) and the slow
#: (about 1.54 ms) state of the 2-vCPU Intel Xeon virtual machine the
#: bounds were set on
NOMINAL_S = 0.0013
#: least time between two samples of a run
EVERY_S = 0.05
#: probes within this many seconds of an interval set its speed
WINDOW_S = 1.0
#: an interval with fewer probes in its window uses this many nearest ones
MIN_NEAR = 4


def _work() -> int:
    """Table arithmetic in GF(2^8), dictionary lookups and small lists:
    the kind of interpreter work rankdec's field and linear-algebra code
    does, with no call into rankdec."""
    acc = 0
    for rep in range(4):
        exp = [1] * 510
        for i in range(1, 510):
            v = exp[i - 1] << 1
            exp[i] = v ^ 0x11D if v & 0x100 else v
        log = {exp[i]: i for i in range(255)}
        rows = [[(i * 7 + j * 13 + rep) % 255 + 1 for j in range(8)]
                for i in range(40)]
        for r in rows:
            for a in r:
                for b in r[:4]:
                    acc ^= exp[log[a] + log[b]]
            r.sort()
    return acc


class HostProbe:
    """Samples of the probe, kept in time order."""

    def __init__(self):
        self.mid: list[float] = []
        self.dur: list[float] = []
        self.total_s = 0.0
        self.last = 0.0
        for _ in range(3):  # first calls pay for code objects and caches
            _work()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _work()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.mid.append(0.5 * (t0 + t1))
        self.dur.append(t1 - t0)
        self.total_s += t1 - t0
        self.last = t1

    def burst(self, n: int) -> None:
        for _ in range(n):
            self.sample()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed, relative to nominal, around the interval [t0, t1]."""
        i = bisect.bisect_left(self.mid, t0 - WINDOW_S)
        j = bisect.bisect_right(self.mid, t1 + WINDOW_S)
        while j - i < MIN_NEAR and (i > 0 or j < len(self.mid)):
            if i > 0:
                i -= 1
            if j < len(self.mid) and j - i < MIN_NEAR:
                j += 1
        return statistics.fmean(NOMINAL_S / d for d in self.dur[i:j])

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1]."""
        return (t1 - t0) * self.speed(t0, t1)

    def summary(self) -> dict:
        q = statistics.quantiles(self.dur, n=4) if len(self.dur) > 1 else self.dur * 3
        return {"samples": len(self.dur), "nominal_s": NOMINAL_S,
                "median_s": statistics.median(self.dur), "q1_s": q[0],
                "q3_s": q[2], "total_s": self.total_s}
