"""CPU time scaled to a reference processor speed.

On a shared host a process waits for a processor for a time that varies
from run to run, and the processor it gets runs at a speed that varies
from second to second (a busy sibling hyperthread, another tenant's
cache traffic, the clock frequency), by more than most changes to the
program move its time.  CPU time leaves the waiting out, and with it any
time the hypervisor stole; this module takes out the speed as well.

A :class:`Stopwatch` samples the speed while it runs: it times a fixed
reference loop a few times before and after, and every ``PERIOD_S`` of
CPU time in between a ``SIGPROF`` handler times it once more.  Each
sample stands for an equal share of the CPU time measured, which is
scaled by how much slower than ``REFERENCE_S`` the loop ran on average
(the samples' own time is left out).  The result reads as CPU seconds
on a processor that runs the loop in ``REFERENCE_S``, a time close to
the loop's on one vCPU of an x86_64 Xeon VM under Python 3.11.

The measured thread is the only one doing the work, and nothing else in
the process may use ``SIGPROF`` or ``ITIMER_PROF``.
"""

from __future__ import annotations

import signal
import time

#: CPU seconds between two samples while a stopwatch runs
PERIOD_S = 0.025
#: the reference loop's CPU seconds at reference speed
REFERENCE_S = 0.25e-3
#: samples taken before and after the timed code
EDGE_SAMPLES = 3

#: the samples list of the stopwatch running in this process, if any
_running: list[list[float]] = []


def reference_loop() -> dict:
    """Fixed interpreter work: dict and integer operations in a loop."""
    counts: dict = {}
    for i in range(1500):
        counts[i & 31] = counts.get(i & 31, 0) + i
    return counts


def sample() -> float:
    """CPU seconds of one reference loop on this thread's clock."""
    t0 = time.thread_time()
    reference_loop()
    return time.thread_time() - t0


def scaled(cpu_s: float, samples: list[float]) -> float:
    """``cpu_s`` at reference speed, given loop times sampled over it."""
    return cpu_s * REFERENCE_S * sum(1 / s for s in samples) / len(samples)


def _on_sigprof(signum, frame) -> None:
    if _running:
        _running[-1].append(sample())


class Stopwatch:
    """``with Stopwatch() as sw: ...`` leaves in ``sw.seconds`` the CPU
    time of the block at reference speed."""

    seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self.samples = [sample() for _ in range(EDGE_SAMPLES)]
        # Installed for good: a signal already delivered when the timer
        # stops must still find a handler, not the default (terminate).
        signal.signal(signal.SIGPROF, _on_sigprof)
        self._inside: list[float] = []
        _running.append(self._inside)
        self._t0 = time.thread_time()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        cpu = time.thread_time() - self._t0
        _running.pop()
        self.samples += self._inside
        self.samples += [sample() for _ in range(EDGE_SAMPLES)]
        self.seconds = scaled(cpu - sum(self._inside), self.samples)
