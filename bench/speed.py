"""Core-speed correction of measured CPU time.

Shared 2-vCPU hosts run this benchmark's single thread at full speed for a
while and then, for tens of seconds or minutes, at up to half speed, as
other guests load the same physical core. Neither the fastest nor the
median sample of a run survives that: both moved by a quarter to a third
between runs of the same code minutes apart.

:class:`SpeedProbe` measures the core's speed from inside every command:
after each PROBE_INTERVAL_S of process CPU time, a SIGPROF handler times a
fixed pure-Python loop. :meth:`SpeedProbe.corrected` turns one command's
wall and CPU time into the time it would have taken at the reference speed
(the loop taking REFERENCE_PROBE_S): the probes' own time is removed, the
CPU part is scaled by the reference over the median probe time during the
command, and the rest (waiting for replies, sleeping) is kept as measured.
A latency-bound command is therefore reported nearly as measured, and a
CPU-bound one as if the core had run at the reference speed throughout.

The correction assumes the program slows down as much as the probe does.
It does not quite: in a slow phase the probe took about 1.6 times as long,
the d = 768 train command about 1.4 times, so a train sample taken then
reads up to a tenth low. The untouched times are kept next to the
corrected ones in the results file.
"""

from __future__ import annotations

import bisect
from array import array
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.02  # process CPU time between probes
PROBE_LOOPS = 4000
# Median time of one probe on a 2-vCPU KVM guest of an Intel Xeon
# (family 6, model 207) host in its full-speed phase.
REFERENCE_PROBE_S = 200e-6


def _probe_loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


class SpeedProbe:
    """Context manager that probes the core speed while the process runs."""

    def __init__(self, capacity: int) -> None:
        # Allocated once, before the program runs: buffers that grow during
        # the run land on top of the heap the program frees, keep it from
        # shrinking, and move the program's peak RSS from run to run.
        self.starts, self.walls, self.cpus = (array("d", bytes(8 * capacity)) for _ in range(3))
        self.count = 0
        self._previous = None

    def _probe(self, signum, frame) -> None:
        if self.count == len(self.starts):
            raise RuntimeError("speed probe buffers are full; give the probe a larger capacity")
        start, cpu = time.perf_counter(), time.process_time()
        _probe_loop(PROBE_LOOPS)
        i = self.count
        self.starts[i], self.walls[i], self.cpus[i] = start, time.perf_counter() - start, time.process_time() - cpu
        self.count = i + 1

    def calibrate(self, n: int = 5) -> None:
        """Probe ``n`` times now, for a command that runs mostly in child
        processes, which SIGPROF does not see."""
        for _ in range(n):
            self._probe(signal.SIGPROF, None)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def corrected(self, start: float, end: float, cpu: float) -> float:
        """The time of a command that ran from ``start`` to ``end``
        (``time.perf_counter``) and used ``cpu`` seconds of CPU time (its
        own and its waited-for children's), at the reference core speed."""
        lo = bisect.bisect_left(self.starts, start, 0, self.count)
        hi = bisect.bisect_left(self.starts, end, lo, self.count)
        wall = end - start - sum(self.walls[lo:hi])
        busy = min(max(cpu - sum(self.cpus[lo:hi]), 0.0), wall)
        # A command too short to be probed takes the latest probes before it.
        probes = self.walls[lo:hi] or self.walls[max(lo - 5, 0):lo]
        if not probes:
            return wall
        return wall - busy + busy * REFERENCE_PROBE_S / statistics.median(probes)
