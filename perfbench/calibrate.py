"""Machine-speed calibration: short reference bursts on a timer.

The machines this benchmark runs on are shared.  Their speed drifts by
15-35 % over seconds to tens of seconds, more than any bound worth
having, and the drift of one CPU is nearly independent of the other's
at that time scale.  So the speed has to be sampled on the CPU that runs
the work, while it runs.

:class:`Sampler` does that with ``SIGALRM``: every ``INTERVAL_S`` the
handler runs a fixed burst of about 3 ms in the measured thread itself
and records how long it took.  The work's time is its wall time minus
the bursts that interrupted it, and the scaled time is that multiplied
by ``REFERENCE_S`` over the mean of the bursts taken during it and just
around it: the time the work would have taken at the speed at which one
burst takes ``REFERENCE_S``.  A change
to the program moves the scaled time exactly as much as the wall time,
because the burst does not call the program.

The burst mixes the three kinds of work ``solvharm`` does: a tensor
contraction on a cache-sized tensor, calls on tiny arrays (as in an ODE right-hand
side) and plain interpreter work.  Changing it, ``REFERENCE_S`` or
``INTERVAL_S`` changes every end-to-end figure, so they are part of the
benchmark definition.
"""

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.003
INTERVAL_S = 0.05

_rng = np.random.default_rng(20041)
# 2.6 MB: larger than a core's L2, so the burst feels shared-cache
# contention the way the curvature tensors of a dim-24 algebra do
_TENSOR = _rng.standard_normal((24, 24, 24, 24))
_VEC = _rng.standard_normal(24)
# orthogonal, so repeated products neither overflow nor go subnormal
_SMALL = np.linalg.qr(_rng.standard_normal((8, 8)))[0]


def _burst():
    acc = 0.0
    for _ in range(2):
        acc += float(np.einsum("a,b,jabl->lj", _VEC, _VEC, _TENSOR)[0, 0])
    c = np.eye(8)
    for _ in range(400):
        c = _SMALL @ c
    total = 0
    for i in range(8_000):
        total += i * i % 7
    return acc + float(c[0, 0]) + total


class Sampler:
    """Runs calibration bursts on a timer while the context is active.

    Use only from the main thread; ``samples`` holds every burst's
    seconds and ``spent`` their sum, so callers subtract the bursts that
    fell inside a timed region.  ``on_burst`` is called with each burst's
    seconds (the tracer uses it to keep bursts out of span self times).
    """

    def __init__(self, on_burst=None):
        self.samples = []
        self.spent = 0.0
        self.on_burst = on_burst

    def _handler(self, signum, frame):
        start = time.perf_counter()
        _burst()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds
        if self.on_burst is not None:
            self.on_burst(seconds)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, first, last, pad=0):
        """Multiply work seconds by this to get reference seconds.

        The speed is the mean of the bursts ``samples[first:last]`` taken
        during the work, widened by ``pad`` bursts on each side.
        """
        window = self.samples[max(0, first - pad):last + pad]
        if not window:   # work shorter than one interval
            self._handler(None, None)
            window = self.samples[-1:]
        return REFERENCE_S / statistics.fmean(window)
