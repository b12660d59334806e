"""Host-normalised time: wall time rescaled by the host's speed as it was.

On a shared host the CPU throughput one process gets moves a lot: a fixed
piece of numpy work took from 4 to 14 ms within two minutes on a 2-vCPU
Xeon guest, and the same experiment's wall time moved by a factor of three
between consecutive repetitions.  No window that fits a run averages that
out.  So the benchmark measures the host while it measures the program: a
fixed calibration kernel (small numpy array operations, a sparse product and
parsing a few lines of text in Python, the kinds of work `lkreg` does)
interrupts the workload every PERIOD_S seconds of wall time.

`HostClock.scale(t0, t1)` turns a span of wall time into reference seconds.
The kernel runs inside the span are cut out; every stretch of workload
between two kernel runs counts as its length times REF_S over the median
time of the kernel runs within HALF_WINDOW_S of it.  (One kernel run is too
short to read the host by itself: its time varies by 15 % from run to run
on a steady host.)  A reference second is what a second of wall time is on
a host that runs the kernel in REF_S.  A change that makes the program do
more or slower work lengthens the stretches and leaves the kernel alone, so
it shows in full; a host that slows down lengthens both, and cancels.
"""

import signal
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import scipy.sparse as sparse

# time the kernel takes when the host is quick (a 2-vCPU Xeon guest, one
# thread); it only sets the scale of the reported numbers
REF_S = 1.6e-3
PERIOD_S = 0.05
HALF_WINDOW_S = 0.5


class HostClock:
    """Runs the calibration kernel and rescales spans of wall time."""

    def __init__(self):
        rng = np.random.default_rng(20160323)
        self.grid = rng.random((64, 64))
        self.field = rng.random((2, 64, 64))
        self.matrix = sparse.random(400, 4096, density=0.01, format="csr", random_state=rng)
        self.vector = rng.random(4096)
        self.lines = [f"{r} {c} {v:.17g}" for r, c, v in
                      zip(rng.integers(5000, size=40), rng.integers(4096, size=40), rng.random(40))]
        self.parsed = np.empty(40)
        self.start = array("d")
        self.end = array("d")
        self.busy = False

    def kernel(self):
        grid, field, matrix, parsed = self.grid, self.field, self.matrix, self.parsed
        for _ in range(5):
            np.roll(grid, -1, 0) - grid
            norm = np.hypot(field[0], field[1])
            np.maximum(norm, 1.0, out=norm)
            field / norm
            matrix.T @ (matrix @ self.vector)
            for k, line in enumerate(self.lines):
                parts = line.split()
                int(parts[0]) + int(parts[1])
                parsed[k] = float(parts[2])

    def sample(self):
        """Time one kernel run, unless one is running already."""
        if self.busy:  # a timer signal that arrives during a kernel run
            return
        self.busy = True
        t0 = perf_counter()
        self.kernel()
        self.start.append(t0)
        self.end.append(perf_counter())
        self.busy = False

    @contextmanager
    def running(self):
        """Run the kernel every PERIOD_S seconds of wall time, from a timer signal.

        Python runs a signal handler between two bytecodes of the main
        thread, so the kernel runs land inside the program's own loops and
        between its numpy calls, wherever the program is, with no hook into
        it.  A system call the signal interrupts is resumed.  One kernel run
        more on entry and on exit puts one near every span, however short.
        """
        self.sample()
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def _inside(self, t0, t1):
        done = len(self.end)  # the timer may append while this runs
        start, end = np.array(self.start[:done]), np.array(self.end[:done])
        inside = (start >= t0) & (end <= t1)
        return start, end, inside

    def own(self, t0, t1):
        """Wall seconds of the span [t0, t1] that are not kernel runs."""
        start, end, inside = self._inside(t0, t1)
        return (t1 - t0) - float(np.sum(end[inside] - start[inside]))

    def scale(self, t0, t1):
        """Reference seconds of workload in the wall-time span [t0, t1]."""
        start, end, inside = self._inside(t0, t1)
        took = end - start
        lo = np.concatenate(([t0], end[inside]))
        hi = np.concatenate((start[inside], [t1]))
        first = np.searchsorted(start, lo - HALF_WINDOW_S)
        last = np.searchsorted(end, hi + HALF_WINDOW_S, side="right")
        if (first >= last).any():
            raise ValueError("no kernel run near the span")
        kernel_s = np.array([np.median(took[i:j]) for i, j in zip(first, last)])
        return float(np.sum((hi - lo) * REF_S / kernel_s))
