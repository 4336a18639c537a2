"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of a core drifts by up to 2x over seconds to
minutes as other tenants load the machine, and CPU time drifts with wall
time, so neither measures the program alone.  A fixed calibration loop,
timed every REF_EVERY_S between operations, tracks that drift: a timing
divided by the loop's median time nearby and multiplied by REF_LOOP_S
reads in *reference seconds*, the seconds the work takes on a core that
runs the loop in REF_LOOP_S.  The loop does the kinds of work a distqc call
is made of (small numpy vector arithmetic, argparse and json), which
tracked the drift of both short and long calls better than a pure-Python
loop, but it is the benchmark's own code: a change to the program moves the
timings and leaves the loop alone.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import subprocess
import sys
import time

import numpy as np

#: near the loop's fastest times (0.9-1.1 ms) on the machine the benchmark
#: was written on (Xeon at 2.1 GHz, Python 3.11, numpy 2.4)
REF_LOOP_S = 0.001
REF_EVERY_S = 0.1
WINDOW_S = 1.0
#: set-up time is interpreter start-up and imports, which the loop tracks
#: poorly; it is scaled instead by a launch of a fresh interpreter that
#: imports numpy, timed before and after each set-up launch.  Near that
#: launch's fastest time (0.18 s) on the machine named above.
REF_LAUNCH_S = 0.2
LAUNCH_TIMEOUT_S = 30.0

_VECTOR_STEPS = 150
_PARSES = 5
_M = np.eye(4) * 0.5
_V = np.ones(4)
_PARSER = argparse.ArgumentParser()
_SUB = _PARSER.add_subparsers(dest="command")
for _name in ("pump", "ttg", "qvalues", "resource"):
    _p = _SUB.add_parser(_name)
    _p.add_argument("--F", type=float)
    _p.add_argument("--pg", type=float)
    _p.add_argument("--schedule")


def loop_s() -> float:
    """Wall time of one run of the calibration loop."""
    start = time.perf_counter()
    x = _V
    for _ in range(_VECTOR_STEPS):
        x = _M @ x + np.array([0.1, 0.2, 0.3, 0.4])
    for i in range(_PARSES):
        args = _PARSER.parse_args(["pump", "--F", "0.9", "--pg", "1e-3", "--schedule", "1,2,2"])
        json.dumps({"f_bar": list(x), "F": args.F, "i": i}, indent=2, sort_keys=True)
    return time.perf_counter() - start


class Tracker:
    """Calibration samples over a run, and the speed factor at any time."""

    def __init__(self):
        self.at = []      # perf_counter time of each sample
        self.loop = []    # loop_s() at that time
        self._next = 0.0

    def sample(self, force: bool = False) -> None:
        """Time the loop if REF_EVERY_S has passed since the last sample."""
        now = time.perf_counter()
        if force or now >= self._next:
            self.at.append(now)
            self.loop.append(loop_s())
            self._next = now + REF_EVERY_S

    def factor(self, t: float) -> float:
        """REF_LOOP_S over the median loop time within WINDOW_S of ``t``
        (all samples if none lies that close)."""
        lo = bisect.bisect_left(self.at, t - WINDOW_S)
        hi = bisect.bisect_right(self.at, t + WINDOW_S)
        near = self.loop[lo:hi] or self.loop
        return REF_LOOP_S / statistics.median(near)


def launch_s() -> float:
    """Wall time of a fresh interpreter that imports numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, capture_output=True,
                   timeout=LAUNCH_TIMEOUT_S)
    return time.perf_counter() - start
