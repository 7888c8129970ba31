"""Host speed, sampled by a fixed probe while the workload runs.

On a shared VM the host runs the same code at speeds that differ by up to
2x, switching within a second or holding for minutes, and CPU time
drifts with wall time (the slowdown is not accounted as steal).  A 50-s
run can sit in one phase, so even each segment's fastest time spread
~30% between runs of the same code.

:class:`SpeedProbe` samples the host's speed with a fixed kernel
(:func:`probe_kernel`, in the benchmark's own files, so no change to the
package can touch it), run from a ``SIGALRM`` handler every
:data:`PROBE_INTERVAL_S` on the thread that runs the workload.
:meth:`SpeedProbe.normalize` converts a span of host time into *reference
seconds*: the span is cut at every probe, each piece (less the probe's
own time) is divided by the local slowdown (the running median of
:data:`SMOOTHING` probes, each over :data:`REFERENCE_PROBE_S`) raised to
:data:`SENSITIVITY`, and the pieces are summed.  Cutting at every probe
matters: a span that mixes fast and slow host time is not rated by one
median.  The kernel mixes the kinds of work the package does, so it
slows down much as the package does.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time
from typing import Any, Optional

import numpy as np

__all__ = [
    "PROBE_INTERVAL_S",
    "REFERENCE_PROBE_S",
    "SENSITIVITY",
    "SMOOTHING",
    "SpeedProbe",
    "probe_kernel",
]

#: How often the probe runs inside a ``with`` block.
PROBE_INTERVAL_S = 0.01
#: The probe kernel's duration at the reference host speed (the fast phase
#: of a shared 2-vCPU Xeon VM); reference seconds are seconds at that speed.
REFERENCE_PROBE_S = 1.1e-4
#: Probes whose running median rates a piece of time (odd).
SMOOTHING = 5
#: How the package's time scales with the probe's: a host 2x slower for
#: the probe is 2 ** 0.8 = 1.74x slower for the package.  Fit on both
#: workloads over ten minutes of a shared 2-vCPU VM: with 0.8 the median
#: of five passes spread 1-2% between windows, with 1.0 (the probe taken
#: at its word) 1-5%, and in plain host time 12%.
SENSITIVITY = 0.8

_LEVELS = np.linspace(1.0, 2.0, 64)
_WEIGHTS = np.linspace(0.5, 1.5, 64)


class _Event:
    __slots__ = ("due", "index", "value")


def probe_kernel() -> float:
    """A fixed mix of the package's kinds of work, ~0.11 ms on a fast host.

    Dict and float updates (the scalar fluid engine), small-array numpy
    calls (the array engine) and a heap of slotted objects (the packet
    event loop).
    """
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(300):
        key = i & 31
        acc = acc * 0.999 + table.get(key, 1.0)
        table[key] = acc
    levels = _LEVELS
    for _ in range(6):
        shares = np.add.accumulate(levels * _WEIGHTS)
        capped = np.minimum(levels, shares[-1] / 64.0)
        order = np.argsort(capped, kind="stable")
        levels = np.where(capped > 1.2, capped, levels)[order]
    heap = []
    for i in range(40):
        event = _Event()
        event.due, event.index, event.value = float((i * 7919) % 97), i, 0.0
        heapq.heappush(heap, (event.due, i, event))
    for _ in range(75):
        due, i, event = heapq.heappop(heap)
        event.value += due * 0.5
        event.due = due + 1.0 + (i % 5)
        heapq.heappush(heap, (event.due, i, event))
    return acc + float(levels[0]) + event.value


class SpeedProbe:
    """Run :func:`probe_kernel` every :data:`PROBE_INTERVAL_S`; rate spans of time."""

    def __init__(self) -> None:
        #: Start and duration of every probe run, in ``perf_counter`` time.
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous: Any = None
        self._slowdowns: list[float] = []

    def _sample(self, signum: int, frame: Any) -> None:
        started = time.perf_counter()
        probe_kernel()
        self.durations.append(time.perf_counter() - started)
        self.starts.append(started)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def sample_now(self, count: int) -> None:
        """Run the probe ``count`` times back to back (outside a ``with`` block)."""
        for _ in range(count):
            self._sample(signal.SIGALRM, None)

    def slowdowns(self) -> list[float]:
        """How much slower than the reference the package ran at each probe."""
        if len(self._slowdowns) != len(self.durations):
            half = SMOOTHING // 2
            d = self.durations
            self._slowdowns = [
                (statistics.median(d[max(0, i - half) : i + half + 1]) / REFERENCE_PROBE_S)
                ** SENSITIVITY
                for i in range(len(d))
            ]
        return self._slowdowns

    def normalize(self, begin: float, end: float) -> Optional[float]:
        """``[begin, end]`` in reference seconds, or None if no probe ran."""
        starts = self.starts
        if not starts:
            return None
        slowdowns = self.slowdowns()
        first = bisect.bisect_left(starts, begin)
        last = bisect.bisect_left(starts, end)
        # The piece before the first probe inside is rated by the nearer
        # of the probes on either side of ``begin``.
        lead = first
        if first == len(starts) or (
            first > 0 and begin - starts[first - 1] < starts[first] - begin
        ):
            lead = first - 1
        cuts = [begin, *starts[first:last], end]
        seconds = (cuts[1] - cuts[0]) / slowdowns[lead]
        for k in range(first, last):
            # The handler runs on the timed thread, so a probe lies wholly
            # inside the span; its own time is not the workload's.
            piece = cuts[k - first + 2] - cuts[k - first + 1] - self.durations[k]
            seconds += piece / slowdowns[k]
        return seconds
