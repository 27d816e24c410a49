"""Machine-speed reference for the timed run.

On a shared virtual machine the speed of the processor drifts: on the
2-core box the bounds were set on, a fixed loop takes from 0.7x to 2x its
median within one run, and the drift is shared by every process, so wall
and CPU time drift together.  Between runs the engine time of the `wild`
inputs moved by 12% (quartile spread over median, five runs), while its
ratio to the time of a fixed pure-Python loop run right before and right
after each step moved by 1%.

So the timed run times such a loop before every step and after the last
one, and scales each step's time by REFERENCE over the median of the loop
times just around it.  A reported second is a second at the box's reference
speed; the unscaled figures are printed beside the result.  The loop uses
no valforge code, so no change to the program can move it.
"""

import statistics
import time
from fractions import Fraction

REFERENCE = 0.0120


def _loop():
    acc, table = 0, {}
    for i in range(60000):
        acc += i * i % 7
        table[i & 255] = acc
    f = Fraction(1, 3)
    for i in range(300):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
    return acc, f


class SpeedProbe:
    def __init__(self):
        self.took = []

    def tick(self):
        """Time the loop once; returns the index of this measurement."""
        t0 = time.perf_counter()
        _loop()
        self.took.append(time.perf_counter() - t0)
        return len(self.took) - 1

    def factor(self, j):
        """Multiplier to reference seconds for a step that ran between loop
        measurements j and j + 1: the median of the four nearest loop times,
        so that one stalled loop does not skew the step."""
        return REFERENCE / statistics.median(self.took[max(0, j - 1):j + 3])

    def median(self):
        return statistics.median(self.took)
