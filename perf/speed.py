"""Host speed, probed during every sample, to take its drift out.

The benchmark was built on a machine whose cores are shared with other
tenants.  There, one fixed piece of pure-Python work ran anywhere from
1.0x to 1.9x its best time, switching between a fast and a slow speed
several times a second and in longer stretches of seconds to minutes.
The median of sixteen consecutive samples of one command moved by 25 %
between stretches.  No statistic over one run removes a slowdown that
lasts longer than the run.

So while the benchmark runs, :class:`Probe` keeps a helper process on
the same core that wakes every ``GAP_S`` seconds and times
:func:`probe_work`, a fixed ~0.15 ms of pure-Python work that does not
touch ``repro``.  A woken helper preempts the program at once, so its
timings sample the core's speed *during* each measured sample.

The sample's *slowdown* is the mean probe timing inside it over
``PROBE_S``, what the probe takes at the core's fast speed.  The mean,
not the median, because a sample's time is the sum of its stretches at
each speed.  The program slows less than the probe: regressing the log
of a sample's time on the log of its slowdown, within runs, gave
slopes of 0.64 to 0.99 by workload and metric.  A sample is reported
in *reference seconds*: its measured time over its slowdown raised to
``ELASTICITY``, a compromise inside that range.  At the fast speed
reference seconds read as seconds.  A change to the program moves the
sample but not the probes, so it still shows in full; a slowdown of
the whole core moves both.

Run directly, ``python3 speed.py OUT`` is the helper: it appends
``start duration`` lines (``time.monotonic()`` seconds) to OUT until its
stdin closes.
"""

from __future__ import annotations

import bisect
import os
import select
import subprocess
import sys
import time
from statistics import fmean
from typing import List

#: What :func:`probe_work` takes on the build machine at its fast speed
#: (2-vCPU Xeon at 2.1 GHz, Python 3.11).
PROBE_S = 150e-6
#: How much of the probe's slowdown, in log terms, a sample is assumed
#: to suffer (see the module docstring).
ELASTICITY = 0.85
#: Seconds between probes: a sample of 0.2 s holds about ten.
GAP_S = 0.02


def probe_work() -> int:
    """A fixed ~0.15 ms of dict, integer and string work."""
    table = {}
    total = 0
    for k in range(700):
        table[k & 63] = table.get(k & 63, 0) + k
        total += len(str(k))
    return total


def pin_to_one_core() -> None:
    """Run this process and every child it starts on one core, so that
    the probes and the samples share it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Probe:
    """Runs the probing helper for the length of a ``with`` block.

    Inside the block, note each sample's ``time.monotonic()`` window;
    after it, :meth:`factor` turns a window into the factor from
    measured to reference seconds.
    """

    def __init__(self, scratch: str):
        self.path = os.path.join(scratch, "probes.txt")
        self.starts: List[float] = []
        self.durations: List[float] = []
        self.helper = None

    def __enter__(self) -> "Probe":
        self.helper = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self.path],
            stdin=subprocess.PIPE,
        )
        return self

    def __exit__(self, *_exc) -> None:
        try:
            self.helper.stdin.close()
            self.helper.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.helper.poll() is None:
                self.helper.kill()
            self.helper.wait()
        if os.path.isfile(self.path):
            with open(self.path) as handle:
                for line in handle:
                    start, duration = line.split()
                    self.starts.append(float(start))
                    self.durations.append(float(duration))

    def window(self, start: float, end: float) -> List[float]:
        """The probe timings that started within ``[start, end]``; the
        nearest two when none did."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < 1:
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if hi <= lo:
            raise RuntimeError("no speed probe ran during the run")
        return self.durations[lo:hi]

    def slowdown(self, start: float, end: float) -> float:
        """The core's slowdown during ``[start, end]``: 1 at its fast
        speed, larger when slower."""
        return fmean(self.window(start, end)) / PROBE_S

    def factor(self, start: float, end: float) -> float:
        """The factor from seconds measured during ``[start, end]`` to
        reference seconds."""
        return self.slowdown(start, end) ** -ELASTICITY


def _helper(path: str) -> None:
    probe_work()  # the first call pays for warming up
    with open(path, "w", buffering=1) as out:
        # select() on stdin is the sleep; EOF ends the helper.
        while not select.select([sys.stdin], [], [], GAP_S)[0]:
            start = time.monotonic()
            begin = time.perf_counter()
            probe_work()
            out.write("%.6f %.9f\n" % (start, time.perf_counter() - begin))


if __name__ == "__main__":
    _helper(sys.argv[1])
