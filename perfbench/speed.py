"""Machine-speed gauge that takes other tenants' load out of timed work.

The benchmark's machine is shared, and other tenants slow it by up to about
1.8x in stretches of one to thirty seconds; a whole run can fall in one.
The gauge times a fixed probe (small numpy matrix products and a Python
loop, the same mix of work as the program's) at step, question and query
boundaries, around each command and at a few calls inside a step, at most
once per `GAP_S`. An interval's normalised time is its wall time, less the
probes run inside it, times `REF_PROBE_S` over the median probe time within
`WINDOW_S` of it: the interval's time at the speed the probe has when the
machine is not loaded. The program never runs inside the probe, so a change
to the program cannot move it.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import Callable

import numpy as np

GAP_S = 0.02          # at most one probe per 20 ms of work: about 2% added, none of it timed
WINDOW_S = 0.1        # probes this close to an interval gauge its speed
# about the probe's time on an unloaded 2-vCPU Intel Xeon (family 6, model 207),
# numpy 2 with OpenBLAS on one thread
REF_PROBE_S = 0.25e-3

_A = np.full((24, 64), 0.5, dtype=np.float32)
_B = np.full((64, 64), 0.25, dtype=np.float32)


def probe() -> None:
    a = _A
    for _ in range(40):
        a = np.tanh(a @ _B)
        s = 0
        for i in range(100):
            s += i


class Gauge:
    """Probe times of one repetition, and the wall and normalised time of its intervals.

    Probes run between the timestamps of spans, never across one, so a probe
    lies wholly inside or wholly outside any span.
    """

    def __init__(self, probe_fn: Callable[[], None] = probe) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._spent = [0.0]            # probe time before each probe, for `net`
        self._probe = probe_fn

    def tick(self, force: bool = False) -> None:
        """Run the probe, unless one ended less than `GAP_S` ago and not `force`."""
        start = time.perf_counter()
        if not force and self.ends and start - self.ends[-1] < GAP_S:
            return
        self._probe()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self._spent.append(self._spent[-1] + end - start)

    def net(self, start: float, end: float) -> float:
        """Wall time of [start, end] less the probes run inside it."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.ends, end)
        return (end - start) - (self._spent[j] - self._spent[i] if j > i else 0.0)

    def slowdown(self, start: float, end: float) -> float:
        """Median probe time near [start, end] over `REF_PROBE_S`.

        Near means starting within `WINDOW_S` of the interval; the last probe
        before it and the first after it always count.
        """
        n = len(self.starts)
        if n == 0:
            return 1.0
        lo = min(bisect.bisect_left(self.starts, start - WINDOW_S),
                 max(0, bisect.bisect_left(self.starts, start) - 1))
        hi = max(bisect.bisect_right(self.starts, end + WINDOW_S),
                 min(n, bisect.bisect_right(self.starts, end) + 1))
        times = [self.ends[k] - self.starts[k] for k in range(lo, hi)]
        return statistics.median(times) / REF_PROBE_S

    def normalised(self, start: float, end: float) -> float:
        return self.net(start, end) / self.slowdown(start, end)
