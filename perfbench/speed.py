"""Machine-speed probe: rescales measured times to one reference speed.

The benchmark runs on a few virtual CPUs of a shared host.  The load of
other tenants slows every instruction of the benchmark, by up to 2x, for
seconds to minutes at a time, so the same fixed work reads up to 2x apart
within a few minutes.  While ``SpeedProbe`` is active, a timer signal
interrupts the benchmark process every ``PERIOD_S`` and runs a fixed
kernel in its main thread, on the CPU the program is running on, and
records the CPU time the kernel took.  The kernel imitates the package's
inner loop at d = 50 (draw an example, sample attributes with given
probabilities, a sparse dot product, a projected update of a weight
vector) with the benchmark's own code, so a change to the package does
not change it.  An interval the benchmark measured at w seconds, during
which the kernel took k seconds on average, is reported as
``w * REFERENCE_S / k``: its time at the speed at which the kernel takes
``REFERENCE_S``.  The kernel adds about 1% to the measured times.  Its
own time depends a little on what the program left in the caches before
each tick, so a change that grows the program's working set a lot can
make the rescaled times read slightly lower than the wall times.

``REFERENCE_S`` is a round figure near the kernel's CPU time on the 2-vCPU
Xeon virtual machine where the benchmark was written.  It scales every
time by one constant and does not change any comparison.
"""

import signal
import time

import numpy as np

PERIOD_S = 0.05  # interval of the timer signal
REFERENCE_S = 6.0e-4  # kernel CPU time at the reference speed
MIN_WINDOW_S = 1.0  # shorter intervals are scaled by the samples of this window around them
D, ROWS, STEPS, DRAWS = 50, 64, 20, 4

_X = np.random.default_rng(0).random((ROWS, D))
_P = np.full(D, 1.0 / D)


def kernel():
    """The same work on every call: STEPS budgeted-SGD-like steps at d = D."""
    rng = np.random.default_rng(1)
    w = np.zeros(D)
    for _ in range(STEPS):
        x = _X[int(rng.integers(ROWS))]
        idx = rng.choice(D, DRAWS, p=_P)
        g = float(np.dot(w[idx], x[idx])) - 0.5
        w = w - 0.01 * g * x
        norm = float(np.linalg.norm(w))
        if norm > 1.0:
            w = w / norm
    return w


class SpeedProbe:
    """Context manager that samples the kernel's CPU time on a timer signal.

    Use it from the main thread only, for at most ``seconds``; ``kernel_s``
    and ``scale`` are valid after exit.  The sample buffers are allocated
    up front: a buffer that grew during the run would be reallocated at
    random points of the program's heap and change its memory peak.
    """

    def __init__(self, seconds):
        size = int(seconds / PERIOD_S) + 1
        self.when, self.cost = np.zeros(size), np.zeros(size)
        self.samples = 0
        self._previous = None

    def _tick(self, signum, frame):
        if self.samples == self.when.size:
            return
        start, cpu = time.perf_counter(), time.thread_time()
        kernel()
        self.cost[self.samples] = time.thread_time() - cpu
        self.when[self.samples] = start
        self.samples += 1

    def __enter__(self):
        kernel()  # warm up
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if self.samples == self.when.size and exc[0] is None:
            raise RuntimeError("the speed probe ran longer than it was sized for")
        self.when, self.cost = self.when[:self.samples], self.cost[:self.samples]
        return False

    def kernel_s(self, start, end):
        """Mean kernel CPU time over [start, end], widened to at least MIN_WINDOW_S."""
        if not self.when.size:
            raise RuntimeError("the speed probe recorded no samples")
        mid, half = (start + end) / 2, max((end - start) / 2, MIN_WINDOW_S / 2)
        inside = (self.when >= mid - half) & (self.when <= mid + half)
        if not inside.any():
            inside = np.abs(self.when - mid) == np.abs(self.when - mid).min()
        return float(self.cost[inside].mean())

    def scale(self, start, end):
        """Factor that turns a time measured over [start, end] into one at the reference speed."""
        return REFERENCE_S / self.kernel_s(start, end)
