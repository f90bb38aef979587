"""Timing that corrects for the speed of a shared machine.

Other tenants of the machine slow this process down by up to 1.7x for
seconds to minutes at a time.  While a solve runs, a SIGALRM timer runs a
pair of small fixed kernels every PERIOD_S and records how long each took.
The solve's wall time, less the time spent in the kernels, is divided by the
machine's slowdown during the solve raised to ELASTICITY.  The slowdown is
the median time of each kernel over its reference time (TABLEAU_REFERENCE_S,
INTERPRETER_REFERENCE_S), combined as a weighted geometric mean.  The result
is the time the solve would take at the speed where the kernels take their
reference times.  The kernels are benchmark code, so a change to the solver
moves the rescaled time as much as the wall time.

The tableau kernel is the dense simplex's pivot step, a rank-one update of a
matrix too large for the core's own caches, done with plain numpy; the
interpreter kernel is a loop of integer and dict operations.  Other tenants
slow the two by different amounts, as they do LP-heavy and interpreter-heavy
solves.  So each workload weighs the tableau kernel by the LP's share of its
solve time (workloads.TABLEAU_WEIGHT).  On a 2-CPU Intel Xeon virtual
machine, over seven solves of myciel4 at different moments, the tableau
kernel alone left a spread of 3.5% (standard deviation over median) where
raw wall time varied by 9% and the interpreter kernel alone by 8%.  On
many-small, an equal weighting left 2.6% on the pass sum and 5.2% on its
99th percentile, against 3.8% and 6.3% for the tableau kernel alone.

Contention slows a solve, whose working set is larger than the kernels',
by more than it slows the kernels.  Over sixty runs (two ten-run sets per
workload), the wall time grew as the measured slowdown to the power 1.14 on
ladder, 1.43 on many-small and 1.34 on exact-sep.  ELASTICITY is 1.3 for all
three; against an exponent of 1 it cut the spread of solve_s in each of the
six sets, for example from 0.090 to 0.073 on ladder and from 0.083 to 0.042
on exact-sep in the noisier set.

Set-up (interpreter start, imports, building instances) is interpreter work,
and a fresh process pays page faults on the tableau kernel's first runs, so
set-up probes are rescaled by the interpreter kernel instead.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.1
SMOOTH = 5
ELASTICITY = 1.3
# median kernel times at the fastest speed seen on a 2-CPU Intel Xeon
# virtual machine with Python 3.11 and numpy 2.4; they set the unit of the
# rescaled seconds, not the comparison between two commits
TABLEAU_REFERENCE_S = 0.0034  # tableau kernel
INTERPRETER_REFERENCE_S = 0.00095  # interpreter kernel

_TABLEAU = np.random.default_rng(0).random((400, 1500))  # 4.8 MB
_COL = np.full(400, 1e-12)
_ROW = np.ones(1500)


def tableau_kernel() -> float:
    for _ in range(2):
        np.subtract(_TABLEAU, np.outer(_COL, _ROW), out=_TABLEAU)
    return float(_TABLEAU[0, 0])


def interpreter_kernel() -> int:
    seen = {}
    s = 0
    for i in range(10000):
        s += i * i % 7
        seen[i & 255] = s
    return s + len(sorted(seen.values()))


def setup_speed(samples: int = 5) -> float:
    """Median time of the interpreter kernel run back to back, for rescaling
    a set-up time measured just before: multiply the set-up time by
    INTERPRETER_REFERENCE_S over it."""
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        interpreter_kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class WallClock:
    """Plain wall time, for runs whose layer spans must not see the kernel."""

    def time(self, fn, *args):
        t0 = perf_counter()
        res = fn(*args)
        wall = perf_counter() - t0
        return res, wall, wall

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


class SpeedClock:
    """``with clock:`` samples the machine's speed; ``clock.time(fn, *args)``
    returns (result, rescaled seconds, wall seconds)."""

    def __init__(self, tableau_weight: float):
        self.weight = tableau_weight
        self.samples: list[tuple[float, float]] = []  # (tableau, interpreter) seconds
        self.spent = 0.0  # seconds spent in the kernels, to subtract from solves
        self._old = None

    def _tick(self, *_):
        t0 = perf_counter()
        tableau_kernel()
        t1 = perf_counter()
        interpreter_kernel()
        t2 = perf_counter()
        self.samples.append((t1 - t0, t2 - t1))
        self.spent += t2 - t0

    def slowdown(self, window) -> float:
        """What a solve's wall time is divided by, from the ticks in window."""
        tableau = statistics.median(t for t, _ in window) / TABLEAU_REFERENCE_S
        interp = statistics.median(i for _, i in window) / INTERPRETER_REFERENCE_S
        return (tableau ** self.weight * interp ** (1 - self.weight)) ** ELASTICITY

    def __enter__(self):
        self._tick()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def time(self, fn, *args):
        n0, spent0 = len(self.samples), self.spent
        t0 = perf_counter()
        res = fn(*args)
        wall = perf_counter() - t0 - (self.spent - spent0)
        # a short solve sees few samples or none: use the latest SMOOTH
        window = self.samples[n0:]
        if len(window) < SMOOTH:
            window = self.samples[-SMOOTH:]
        return res, wall / self.slowdown(window), wall
