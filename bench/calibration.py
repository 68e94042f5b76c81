"""Speed probes: how fast this core runs Python, sampled while a pass runs.

The benchmark shares its cores with other tenants. On the machine it was
written on (Intel Xeon, 2 vCPUs, Python 3.11) the same pass of the same
inputs took from 1x to 2x its best time, in wall time and CPU time alike
and with almost no steal time: a fixed loop ran at two speeds, switching
every few seconds as neighbours came and went.

A :class:`Probe` runs a short fixed loop from a ``SIGALRM`` timer every
``PERIOD_S`` seconds of a pass and records how long it took. Sections are
timed on :meth:`Probe.clock`, which leaves out the probes' own time, and
a section's seconds are scaled by ``REFERENCE_S / mean probe time`` over
the section: the time it would have taken at the speed at which the loop
takes ``REFERENCE_S``. The loop rewrites every value of a dict of float
pairs, the data pattern the classifier's repertoire has; of the loops
tried, its time moved most nearly in step with the classifiers' own.
Scaling removes most of the spread between passes, not all of it. The
probe uses only the standard library, so it can start before
``import icrm`` and sample the set-up too.
"""

from __future__ import annotations

import contextlib
import signal
import time
from array import array

# About the loop's time on an unshared core; the unit of scaled times.
REFERENCE_S = 0.0006
PERIOD_S = 0.05




def _loop(table: dict[str, tuple[float, float]]) -> None:
    for key, (e, r) in table.items():
        table[key] = (e * 0.5 + 3.0, r * 0.5 + 2.5)


class Probe:
    """Periodic speed samples, and a clock that leaves them out."""

    def __init__(self):
        self.durations = array("d")
        self.spent = 0.0
        self._table = {f"w{i}": (6.0, 5.0) for i in range(4096)}

    def sample(self, signum=None, frame=None) -> None:
        """Time the loop once; also the ``SIGALRM`` handler."""
        t0 = time.perf_counter()
        _loop(self._table)
        elapsed = time.perf_counter() - t0
        self.durations.append(elapsed)
        self.spent += elapsed

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def held(self):
        """Delay samples until the block ends, so none lands inside it."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def clock(self) -> float:
        """``time.perf_counter()`` minus the time spent in probes so far."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        """A position in the sample sequence, for :meth:`scale`."""
        return len(self.durations)

    def scale(self, begin: int, end: int) -> float:
        """Reference over the mean probe time between two marks.

        A section shorter than one period borrows the nearest samples.
        """
        if end - begin < 3:
            begin, end = max(0, begin - 2), min(len(self.durations), end + 2)
        window = self.durations[begin:end]
        if not window:
            raise ValueError("no speed samples: the probe is not running")
        return REFERENCE_S / (sum(window) / len(window))
