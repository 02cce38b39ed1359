"""Machine-speed monitor for the timed loop.

The machine this benchmark was built on (2 vCPUs, shared host) switches
between a fast and a slow state that lasts seconds at a time and moves
wall times by up to 1.7x; CPU time tracks wall time, so it shows the same.
Operation medians alone do not remove that: on the same back-to-back runs,
the quartile spread of block medians was 0.09-0.13 of the median in wall
time and 0.02-0.03 after the correction below, on ``report_50``,
``hasse_800`` and ``integrals_200`` alike.  A reference loop timed only
between operations did not help (0.10-0.12): the state changes within an
operation.

So while an operation runs, a ``SIGALRM`` timer samples the time of
``reference_work`` every ``INTERVAL_S`` of wall time.  The work is the
pure-integer ``mpmath.libmp`` arithmetic that mpmath's python backend runs
on, at an explicit precision and with no shared state, so it is safe to
run between any two bytecodes of the package.  The operation's speed
factor is the mean sample over ``REFERENCE_S``, and its reference-speed
time is its wall time divided by that factor.  The samples run inside the
timed region on every commit alike (about 0.5% of it).
"""

from __future__ import annotations

import signal
import statistics
import time

from mpmath.libmp import from_int, mpf_add, mpf_div, mpf_mul, mpf_sqrt, round_nearest

INTERVAL_S = 0.25
REFERENCE_S = 0.0012      # one sample in the fast state of the build machine
_PREC = 330
_STEPS = 150
_ONE, _A, _B = from_int(1), from_int(314159265358979), from_int(271828182845)


def reference_work():
    x = _ONE
    for _ in range(_STEPS):
        x = mpf_mul(x, _A, _PREC, round_nearest)
        x = mpf_sqrt(mpf_div(x, _B, _PREC, round_nearest), _PREC, round_nearest)
        x = mpf_add(x, _ONE, _PREC, round_nearest)
    return x


def sample() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


class SpeedMonitor:
    """Samples ``reference_work`` while open; ``factor`` is the slowdown
    against the reference state (1 = reference speed)."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:              # shorter than one interval
            self.samples.append(sample())
        return False

    def factor(self) -> float:
        return statistics.mean(self.samples) / REFERENCE_S
