"""Machine speed, sampled on the benchmark's own core while it runs.

On a shared VM a core's speed flips between two levels about 2x apart,
many times a second, and the share of slow time drifts over minutes, so
raw wall times of identical work differ by up to 1.7x between runs. A
helper process pinned to the benchmark's core times a short fixed
pure-Python loop every ``PERIOD_S``; covpath's hot loop is interpreted
Python too. An operation's wall time, divided by the mean loop time over
the operation and multiplied by ``NOMINAL_S`` (the loop's time on an
uncontended core), is its time in *reference seconds*: that core's
seconds. The helper takes about 2 % of the core.
"""

import os
import subprocess
import sys
from bisect import bisect_left, bisect_right

PERIOD_S = 0.05
NOMINAL_S = 0.0006  # the loop below on an uncontended core of a 2.1 GHz Xeon VM

LOOP = r"""
import math, os, sys, time
period, path = float(sys.argv[1]), sys.argv[2]
parent = os.getppid()
with open(path, "w") as out:
    while os.getppid() == parent:  # ends on its own if the benchmark dies
        time.sleep(period)
        tick = time.perf_counter()
        acc = 0.0
        for i in range(1, 2000):
            acc += math.sqrt(i) * 1.0000001 - math.log(i)
        out.write(f"{tick!r} {time.perf_counter() - tick!r}\n")
        out.flush()
"""


class SpeedSampler:
    """Start the helper on this process's core; ``stop`` before reading."""

    def __init__(self, log_path):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})  # the helper inherits the pin
        self.log_path = log_path
        self.proc = subprocess.Popen([sys.executable, "-c", LOOP, str(PERIOD_S), str(log_path)])
        self.times, self.loops = [], []

    def stop(self):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if not os.path.exists(self.log_path):  # stopped before its first sample
            return
        with open(self.log_path) as f:
            rows = [line.split() for line in f if line.endswith("\n")]
        self.times = [float(t) for t, _ in rows]
        self.loops = [float(d) for _, d in rows]

    def factor(self, start, end):
        """Reference seconds per wall second over ``[start, end]``.

        Uses the loops taken during the interval, widened by two periods on
        each side so that operations shorter than a period get samples.
        """
        lo = bisect_left(self.times, start - 2 * PERIOD_S)
        hi = bisect_right(self.times, end + 2 * PERIOD_S)
        window = self.loops[lo:hi] or self.loops
        return NOMINAL_S * len(window) / sum(window)

    def reference(self, timed):
        """Reference seconds of ``(wall, start, end)`` measurements."""
        return [wall * self.factor(start, end) for wall, start, end in timed]

