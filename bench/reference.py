"""A reference probe that runs inside the timed process, to correct timings
for the speed the machine has at the moment they are taken.

On a shared host, other work slows this process by up to 2x in phases of
seconds to minutes, in CPU time as much as in wall time, so the raw time of
a pass says as much about the host as about the program. ``Probe`` runs a
fixed snippet of pure Python (permutation composition, hashing, sorting:
the kind of work the program does) from a SIGALRM interval timer every
``PERIOD_S`` seconds while the program runs. It runs the snippet twice and
records how long the second run took. The first run brings the snippet
back into the caches, which the program has filled with its own data since
the last probe; timed cold, the probe slowed more under load than the
program did, and by a different factor for each workload. The snippet is
the benchmark's own code, so no change to the program changes it; it slows
when the program slows.

``Probe.calibrated(start, end)`` turns the time between two moments into
seconds at the reference speed. Contention changes within a fraction of a
second, so each stretch of program time between two probes is scaled by
how long the probes right next to it took, not by an average over a pass.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter, sleep

PERIOD_S = 0.02  # probe interval
# The warm snippet's time on the machine where the benchmark was built
# (2-vCPU Xeon VM at 2.1 GHz, Python 3.11) in a quiet moment. Calibrated
# times are expressed at that speed.
NOMINAL_S = 70e-6

_PERM = tuple((i * 5 + 3) % 11 for i in range(11))


def snippet() -> int:
    seen = set()
    out = []
    p = _PERM
    for _ in range(60):
        p = tuple(_PERM[x] for x in p)
        seen.add(p)
        out.append(sorted(p))
    index = {q: i for i, q in enumerate(seen)}
    return len(index) + len(out)


class Probe:
    """Runs `snippet` every PERIOD_S seconds between start() and stop()."""

    def __init__(self):
        self.starts: list[float] = []  # when each probe began, ascending
        self.ends: list[float] = []  # when it ended
        self.took: list[float] = []  # how long its timed, warm run took
        self._old = None

    def _fire(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        snippet()
        warm = perf_counter()
        snippet()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.ends.append(end)
        self.took.append(end - warm)

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop after one more period, so that a probe follows the last
        timed interval."""
        sleep(2 * PERIOD_S)
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def calibrated(self, start: float, end: float) -> float:
        """The program's time between start and end, at the reference speed.
        The probes that ran in between split it into stretches of program
        time. Each stretch is scaled by NOMINAL_S over the median time of
        the three probes around the one that ends it; the last stretch is
        ended by the first probe after end."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        if last == len(self.starts):
            raise RuntimeError("no probe ran after a timed interval")
        total = 0.0
        prev = start
        for i in range(first, last + 1):
            stretch = max(0.0, min(self.starts[i], end) - prev)
            total += stretch * NOMINAL_S / statistics.median(self.took[max(0, i - 1):i + 2])
            prev = self.ends[i]
        return total
