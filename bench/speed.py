"""The machine's current speed, from a fixed piece of reference work.

On a shared host the speed of a core wanders by up to a third within
seconds and by more over minutes, equally in CPU time and wall time, so raw
timings of the same code differ from run to run far more than a change to
the program would move them.  While the benchmark times calls, a timer
signal runs this reference work every INTERVAL_S; each call's time, less the
time spent in those samples, is scaled by NOMINAL_S / (mean reference time
around the call): a call is reported in the seconds it would take at this
machine's usual speed.

The reference work is benchmark code and never changes with the program.  It
does what the program does most (small allocations, recursion over trees,
list and dict traffic), and this module imports nothing that structrec's
import loads, so that sampling during that import pre-loads none of it.
"""

from __future__ import annotations

import gc
import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

import oracle

# typical time of one reference() on the reference machine (2-core x86 VM,
# Python 3.11); it only sets the scale of the reported seconds
NOMINAL_S = 0.0004
INTERVAL_S = 0.01


def _trees():
    """Two fixed trees of depth 5, from a small linear congruential stream."""
    state = 12345

    def draw(k: int) -> int:
        nonlocal state
        state = (state * 1103515245 + 12345) % 2**31
        return state % k

    def grow(depth: int):
        if depth == 0 or (depth < 5 and draw(5) == 0):
            return None
        return ("abc"[draw(3)], grow(depth - 1), grow(depth - 1))

    return [grow(5) for _ in range(2)]


_TREES = _trees()


def reference() -> None:
    for tree in _TREES:
        oracle.unroll_states(oracle.parse(oracle.serialize(tree)), "inorder")
    counts: dict[str, int] = {}
    for n in range(40_000, 40_010):
        for state in oracle.successor_states(n * 7919):
            for tok in state:
                counts[tok] = counts.get(tok, 0) + 1
        oracle.decode(oracle.encode(n))


def sample() -> float:
    """Seconds one reference() takes now.  A first, untimed pass refills the
    caches the interrupted work used, so that the sample follows the core's
    speed and not what the program left in the caches; the collector stays
    off so that a collection owed by earlier work does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference()
        t0 = perf_counter()
        reference()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Reference samples from a timer signal while timed work runs.

    Inside the with block, ``spent`` is the time taken so far by samples,
    which the caller subtracts from the work it times, and after it
    ``scale(start, end)`` turns raw seconds of work done between start and
    end into seconds at the usual speed.  Samples run between bytecodes of
    the main thread, so they see the speed the timed work saw.
    """

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self.spent = 0.0

    def _record(self, t0: float, took: float) -> None:
        self.at.append(t0 + took / 2)
        self.took.append(took)

    def _on_timer(self, signum, frame) -> None:
        t0 = perf_counter()
        took = sample()
        self._record(t0, took)
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._record(perf_counter(), sample())
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._record(perf_counter(), sample())

    def scale(self, start: float, end: float) -> float:
        """From the samples inside [start, end] and the nearest on each side."""
        lo = max(0, bisect_left(self.at, start) - 1)
        took = self.took[lo:bisect_right(self.at, end) + 1]
        return NOMINAL_S * len(took) / sum(took)

    def clock(self) -> float:
        """perf_counter less the time taken by samples so far."""
        return perf_counter() - self.spent

    def timed(self, fn):
        """fn() and its seconds of work done, less the samples taken meanwhile,
        with its start and end; use inside the with block."""
        spent = self.spent
        t0 = perf_counter()
        result = fn()
        t1 = perf_counter()
        return result, t1 - t0 - (self.spent - spent), t0, t1
