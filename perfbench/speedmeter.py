"""Host speed meter: a fixed reference task timed during each measurement.

On a shared host the speed of the same work drifts by tens of percent from
one half minute to the next, and by as much from one second to the next.
The drift is not steal time: the process's CPU time grows with its wall
time.  A benchmark that reports raw wall time measures the host as much as
the program.

``SpeedMeter`` runs a small fixed task, ``reference_task``, from a SIGALRM
handler every ``PERIOD_S`` seconds of wall time while the measured code
runs, and times each call.  The handler runs on the main thread between
bytecodes, so the reference sees the same core, caches and contention as
the code it interrupts.  ``scaled`` turns the measured wall time, net of the
reference calls, into seconds at the reference speed: the time the same
run takes on a host where one reference call takes ``NOMINAL_S``.  Each
stretch of time between two calls is scaled by the median duration of the
``WINDOW`` calls around it, so the speed the host had at that moment is the
one applied to the time spent then.

The reference tasks are not epkit code, so a change to epkit cannot change
them.  ``reference_task`` mixes interpreted Python arithmetic with small
``numpy`` calls (``eig`` of a 4x4 matrix, ``kron`` of 3x3 matrices), the
same kind of work as epkit's own inner loops; it meters ``cli.run``.
``python_task`` is its interpreted half alone; it meters the start-up
(interpreter start, imports, config validation), which is interpreted work
and file reads, and it needs no ``numpy``, so that metering the start-up
does not import anything before epkit does.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
NOMINAL_S = 1e-3  # seconds per reference_task call at the reference speed
SETUP_PERIOD_S = 0.02
SETUP_NOMINAL_S = 2e-4  # seconds per python_task call at the reference speed
WINDOW = 9  # calls whose median speed scales the time around each one

_matrices = []


def python_task() -> float:
    acc = 0
    for i in range(3000):
        acc += (i * i) % 7
    return float(acc)


def reference_task() -> float:
    import numpy as np

    if not _matrices:
        rng = np.random.default_rng(20240820)
        _matrices.extend([rng.standard_normal((4, 4)), rng.standard_normal((3, 3))])
    m4, m3 = _matrices
    acc = python_task()
    for _ in range(12):
        acc += float(np.linalg.eig(m4)[0].real.sum())
        acc += float(np.kron(m3, m3).sum())
    return acc


class SpeedMeter:
    """Times ``task`` every ``period`` seconds between start and stop.

    ``ticks`` holds the ``time.monotonic()`` start and the duration of each
    call.
    """

    def __init__(self, task=reference_task, nominal: float = NOMINAL_S,
                 period: float = PERIOD_S):
        self.task = task
        self.nominal = nominal
        self.period = period
        self.ticks: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.monotonic()
        self.task()
        self.ticks.append((t0, time.monotonic() - t0))

    def start(self) -> None:
        for _ in range(5):  # warm the task's code paths
            self.task()
        self.ticks = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        if self._previous is None:  # not started
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._previous = None
        if not self.ticks:  # shorter than one period: time the task once
            self._tick(None, None)

    @property
    def calls(self) -> list[float]:
        return [d for _, d in self.ticks]

    @property
    def call_s(self) -> float:
        return statistics.median(self.calls)

    def spent_s(self, t0: float, t1: float) -> float:
        """Time spent in the task's calls between ``t0`` and ``t1``."""
        return sum(d for s, d in self.ticks if t0 <= s < t1)

    def scaled(self, t0: float, t1: float) -> float:
        """The ``time.monotonic()`` span ``t0``..``t1``, net of the task's calls,
        in seconds at the reference speed."""
        inside = [(s, d) for s, d in self.ticks if t0 <= s < t1] or self.ticks
        calls = [d for _, d in inside]
        n, total, prev = len(inside), 0.0, t0
        for i in range(n + 1):
            stop = inside[i][0] if i < n else t1
            j = min(i, n - 1)
            local = statistics.median(calls[max(0, j - WINDOW // 2):j + WINDOW // 2 + 1])
            total += max(stop - prev, 0.0) * self.nominal / local
            if i < n:
                prev = stop + inside[i][1]
        return total
