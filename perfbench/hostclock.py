"""Times corrected for the speed of a shared host.

On a shared host the same Python code runs at a speed that drifts by up to
1.6x over stretches of 10-20 seconds, on every vCPU alike, with no steal
time reported. A run of the benchmark's pipeline, several seconds long,
cannot dodge those stretches, so its wall time says as much about the
neighbours as about cdlim.

``HostClock`` measures the drift while the benchmark runs: a wall-clock
timer interrupts the process every ``INTERVAL`` seconds and times a fixed
pure-Python probe loop of about a third of a millisecond. The host's
slowdown at a probe is the mean probe time over the ``SMOOTH`` probes
around it divided by ``REFERENCE_S``. The corrected clock advances by the
wall time between probes divided by that slowdown and stands still while a
probe runs, so ``seconds(a, b)`` is the time ``[a, b]`` would have taken on
a host that runs the probe in ``REFERENCE_S``. The corrected times of the
parts of a window add up to the corrected time of the window. The probe
does not touch cdlim, so a change to the library moves the wall time and
leaves the slowdown alone.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL = 0.02           # seconds of wall time between probes
SMOOTH = 25               # probes in the moving mean of the slowdown (half a second)
PROBE_LOOP = 4000         # iterations of the probe loop
REFERENCE_S = 0.325e-3    # the probe's best time on its own, on the 2.1-GHz Xeon vCPU
                          # the benchmark was tuned on (Python 3.11); a fixed scale


def _probe() -> int:
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i % 7
    return s


class HostClock:
    """Samples the host's speed from a wall-clock timer inside ``with``."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._ends: list[float] = []
        self._slow: list[float] = []
        self._reading: list[float] = []

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        _probe()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._build()
        return False

    def _build(self):
        """Smoothed slowdown at each probe and the corrected clock's
        reading while each probe runs."""
        n, d = len(self.starts), self.durations
        prefix = [0.0]
        for x in d:
            prefix.append(prefix[-1] + x)
        h = SMOOTH // 2
        self._slow = [(prefix[min(n, k + h + 1)] - prefix[max(0, k - h)])
                      / (min(n, k + h + 1) - max(0, k - h)) / REFERENCE_S for k in range(n)]
        self._ends = [t + x for t, x in zip(self.starts, d)]
        self._reading = [0.0] * n
        for k in range(1, n):
            gap = self.starts[k] - self._ends[k - 1]
            self._reading[k] = (self._reading[k - 1]
                                + gap * 2.0 / (self._slow[k - 1] + self._slow[k]))

    def read(self, t: float) -> float:
        """The corrected clock at wall time ``t``, up to a constant."""
        n = len(self.starts)
        if n == 0:
            return t
        k = bisect.bisect_right(self.starts, t)
        if k == 0:
            return self._reading[0] - (self.starts[0] - t) / self._slow[0]
        last = k - 1
        if t <= self._ends[last]:
            return self._reading[last]
        slow = (self._slow[last] if k == n
                else (self._slow[last] + self._slow[k]) / 2.0)
        return self._reading[last] + (t - self._ends[last]) / slow

    def seconds(self, a: float, b: float) -> float:
        """Time of the wall-clock window ``[a, b]`` on the reference host."""
        return self.read(b) - self.read(a)

    def slowdown(self, a: float, b: float) -> float:
        """Wall time of ``[a, b]`` outside the probes over its corrected time."""
        i = bisect.bisect_left(self.starts, a)
        j = bisect.bisect_left(self._ends, b)
        own = b - a - sum(self.durations[i:max(i, j)])
        corrected = self.seconds(a, b)
        return own / corrected if corrected > 0.0 else 1.0
