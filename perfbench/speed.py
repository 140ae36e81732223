"""Reference-speed scaling of op times.

The host this benchmark was sized on is shared: a fixed loop of Python
code runs up to 1.5x faster or slower from one 10 ms slice to the next, and
whole stretches of tens of seconds run 20-40% slow.  Raw seconds from two
runs therefore differ by more than any bound worth gating on.

A Probe times a fixed reference loop (`ref_seconds`, which never calls
linesat) before and after every op and, from SIGALRM, every PERIOD_S
during it.  The op's time, less the time the probe itself took, is scaled
by REF_S over the mean of those samples: seconds at the reference speed,
the speed at which the loop takes REF_S.  The mean of samples spread evenly
over an op estimates how much slower than that the host ran during it.
"""

import signal
import time
from fractions import Fraction

# A typical time of `ref_seconds` during runs on the 2-core host the bench
# was sized on (Python 3.11), so seconds at reference speed read close to
# raw seconds there.
REF_S = 0.0019
PERIOD_S = 0.1


def ref_seconds() -> float:
    """Time one pass of a fixed loop in the style of linesat's hot paths:
    exact Gauss-Jordan elimination over Fractions (the LP), and popcounts
    of masked wide ints (the closures)."""
    start = time.perf_counter()
    m = [[Fraction((3 * i + 5 * j) % 7 - 3) for j in range(10)] for i in range(9)]
    for c in range(9):
        p = next((i for i in range(c, 9) if m[i][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [x * inv for x in m[c]]
        for i in range(9):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    masks = [(1 << 200) - 1 - i * 7919 for i in range(40)]
    acc = 0
    for _ in range(30):
        for mask in masks:
            acc += (mask & ~acc).bit_count()
    return time.perf_counter() - start


class Probe:
    """Reference-loop samples taken around and, by timer, during ops."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the timer handler

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(ref_seconds())
        self.spent += time.perf_counter() - start

    def timed(self, call, sample_inside: bool = True):
        """Run call(); return (result, exception or None, raw seconds,
        seconds at reference speed).  With sample_inside False the timer
        stays off, for ops whose own workers would slow the probe down."""
        before = ref_seconds()
        first, spent = len(self.samples), self.spent
        if sample_inside:
            old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        result = error = None
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # handed back, the caller counts it
            error = exc
        finally:
            elapsed = time.perf_counter() - start
            if sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, old)
        elapsed -= self.spent - spent
        during = self.samples[first:]
        del self.samples[first:]
        refs = [before, *during, ref_seconds()]
        return result, error, elapsed, elapsed * REF_S * len(refs) / sum(refs)


def scaled_child_seconds(run_child, probes: int = 3) -> float:
    """Scale the seconds a child reports by probes on either side of it."""
    refs = [ref_seconds() for _ in range(probes)]
    value = run_child()
    refs += [ref_seconds() for _ in range(probes)]
    return value * REF_S * len(refs) / sum(refs)
