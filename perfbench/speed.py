"""How fast the machine runs right now, from a fixed piece of work.

On a shared host the same code runs up to about 60% slower at some times than
at others, and the slow share of the time drifts over minutes. So the
benchmark times a fixed probe next to the program's work, in the same
process, and scales the work by ``nominal / probe seconds``. The scaled time
is what the work would have taken at the speed where the probe takes its
nominal time. Kinds of work slow by different factors, so each workload uses
the probe whose work is most like its own:

- ``python``: a pure-Python loop, like the imports of set-up. It is the only
  probe that runs before numpy is imported.
- ``solver``: numpy operations on 1000-element arrays, like the solves of
  ``desk`` and ``surface``.
- ``simulation``: Monte Carlo steps on 100k-element arrays, drawing normals,
  like ``montecarlo``.

The probes are benchmark code, so no change to ``src`` moves them, and their
own time is left out of every measured time.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

PROBE_REPEATS = 3  # the least of a few back-to-back runs drops an interruption
TICK_S = 0.3  # wall time between two readings while the program works

SIM_PATHS = 100_000
_sim_state = []  # generator and arrays, made on the first reading


def _python_kernel():
    n = 0
    for i in range(60_000):
        n += i * i % 7
    return n


def _solver_kernel():
    import numpy as np  # imported by the program before this probe runs

    x = np.linspace(0.1, 1.0, 1000)
    acc = 0.0
    for i in range(300):
        acc += float(np.sum(np.exp(-x * (i % 7)) * np.sqrt(x)))
    return acc


def _simulation_kernel():
    if not _sim_state:
        import numpy as np

        _sim_state.extend(
            (np.random.default_rng(0), np.full(SIM_PATHS, 100.0), np.zeros(SIM_PATHS))
        )
    rng, prices, cash = _sim_state
    for _ in range(2):
        cash += (0.5 * prices - 0.1) * 1e-4
        prices += 0.01 * rng.standard_normal(SIM_PATHS) + 1e-6
    return float(cash[0])


# (kernel, nominal seconds); a nominal time is only a unit, close to the
# probe's time on a 2-CPU Intel Xeon virtual machine
PROBES = {
    "python": (_python_kernel, 0.005),
    "solver": (_solver_kernel, 0.004),
    "simulation": (_simulation_kernel, 0.0037),
}


def probe(name="python"):
    """Seconds the named probe takes now: the least of ``PROBE_REPEATS`` runs."""
    kernel = PROBES[name][0]
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds, readings, name="python"):
    """``seconds`` of work scaled by the mean of the probe readings around it."""
    return seconds * PROBES[name][1] / (sum(readings) / len(readings))


class Speedometer:
    """Probe readings at marks, and the work between marks scaled by them."""

    def __init__(self, name="python", probe=probe, clock=time.perf_counter):
        self.name = name
        self.probe = probe
        self.clock = clock
        self.readings = []
        self.marks = []  # (start, end) of each reading
        self._busy = False

    def mark(self):
        if self._busy:  # a tick that arrives while a reading runs is dropped
            return
        self._busy = True
        try:
            start = self.clock()
            self.readings.append(self.probe(self.name))
            self.marks.append((start, self.clock()))
        finally:
            self._busy = False

    @contextmanager
    def ticking(self, period=TICK_S):
        """Mark every ``period`` seconds of wall time, from a SIGALRM handler.

        Python runs the handler between two bytecodes of the main thread, so
        the program is never interrupted inside a numpy or scipy call, and
        nothing the program computes depends on the readings.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.mark())
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def work(self, start, end):
        """(raw, scaled) seconds of ``[start, end]`` outside the readings.

        Each piece between two marks is scaled by the mean of their readings;
        time before the first mark or after the last one is not counted.
        """
        raw = scaled = 0.0
        for k in range(len(self.marks) - 1):
            lo = max(start, self.marks[k][1])
            hi = min(end, self.marks[k + 1][0])
            if hi > lo:
                raw += hi - lo
                scaled += scale(hi - lo, self.readings[k : k + 2], self.name)
        return raw, scaled
