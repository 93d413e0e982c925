"""How fast is the host right now?  A fixed piece of work, timed.

The benchmark runs on a few cores of a shared host whose speed changes
in phases that last from seconds to minutes: the same commit, seed and
workload ingests 15 % fewer events per second in one 20 s window than in
another ten minutes later (thirty windows, interquartile spread 14.6 %,
range 25 %).  No estimator inside a run removes that; timing a fixed
piece of work next to the measured one does.  Divided by the bursts made
before and after each trial, the same thirty windows spread by 3.2 %
(range 7.9 %).  ``README.md`` ("Steadiness") has the study.

So every wall-clock metric is reported *at nominal host speed*: the
measured time times ``NOMINAL_MS / burst_ms``, where ``burst_ms`` is what
``burst`` took at that moment and ``NOMINAL_MS`` what it takes on the
2-core VM this was built on in its usual state.  The raw medians are
kept in every record's notes.

The burst is plain interpreted Python of the kind the program is made
of -- integer arithmetic, then dictionary look-ups, tuple and list
building and set insertion over a working set of a few megabytes -- and
depends on nothing outside this file, so no change to the program moves
it.  Work that stays inside the processor's own cache (queries on a
graph of a few thousand vertices) follows the arithmetic alone better
than the whole burst, whose second half waits for the shared cache:
over 120 windows of 5 s, the range of a query's median fell from 46-54 %
to 20-30 % divided by ``light_burst`` and did not fall divided by
``burst``.  The in-process query phases use ``light_burst``.
"""

from __future__ import annotations

import functools
import random
import statistics
import sys
import threading
import time
from collections.abc import Callable

#: Milliseconds a burst and a light burst take on the reference box in
#: its usual state.
NOMINAL_MS = 9.0
NOMINAL_LIGHT_MS = 2.0

_ARITHMETIC_STEPS = 40_000
_TABLE_SIZE = 60_000
_LOOKUPS = 12_000


@functools.cache
def _working_set() -> tuple[dict[int, tuple[int, str]], list[int]]:
    """Built on first use: a process that only imports this (the killed
    child of ``churn-recover`` reports its memory) does not pay for it."""
    rng = random.Random(20260929)
    table = {i: (i, str(i)) for i in range(_TABLE_SIZE)}
    return table, [rng.randrange(_TABLE_SIZE) for _ in range(_LOOKUPS)]


def light_burst(clock: Callable[[], float] = time.perf_counter) -> float:
    """The arithmetic of a burst alone; milliseconds it took."""
    began = clock()
    total = 0
    for i in range(_ARITHMETIC_STEPS):
        total += i * i % 7
    return (clock() - began) * 1e3


def burst(clock: Callable[[], float] = time.perf_counter) -> float:
    """Do the fixed work once; milliseconds it took by ``clock``."""
    table, keys = _working_set()
    began = clock()
    light_burst()
    pairs = []
    seen = set()
    for key in keys:
        entry = table[key]
        pairs.append((entry[0], key))
        seen.add(key & 1023)
    return (clock() - began) * 1e3


def factor(*burst_ms: float, nominal: float = NOMINAL_MS) -> float:
    """What to multiply a time by (or divide a rate by) to state it at
    nominal speed, given the bursts made around it."""
    return nominal / statistics.fmean(burst_ms)


class Sampler:
    """Bursts every ``interval`` seconds on a thread of their own for as
    long as the ``with`` block lasts: for a window in which the program
    runs in other processes and this one only waits for answers.

    Timed by the thread's own CPU clock, so that waiting for a core or
    for the interpreter lock is not taken for a slow host.  The lock is
    handed over every millisecond meanwhile, so that an answer arriving
    during a burst is not held up by more than that.
    """

    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval
        self.bursts: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed")
        self._switch_interval = sys.getswitchinterval()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.bursts.append(burst(time.thread_time))

    def __enter__(self) -> Sampler:
        _working_set()
        sys.setswitchinterval(0.001)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        sys.setswitchinterval(self._switch_interval)
        if not self.bursts:
            self.bursts.append(burst(time.thread_time))
