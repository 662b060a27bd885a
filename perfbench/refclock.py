"""Seconds of a reference machine, measured on a shared one.

The virtual machines this benchmark runs on change speed by 20-40 % within
seconds, because other tenants share the cores.  Process CPU time does not
help: it moves with wall time, because the slowdown is in the CPU itself
(caches, clock, a busy sibling thread).  So while the benchmark measures, a
SIGALRM timer interrupts it every `SAMPLE_PERIOD_S` of wall time, and the
handler times one small, fixed unit of reference work, built from the same
kinds of operation as the program (`Fraction` arithmetic, small tuples, dict
lookups).  A request that runs for seconds is sampled all through, not only
before and after.  The samples are evenly spaced in time, so their mean
speed is the machine's mean speed over the interval they cover:

    reference seconds = program seconds * mean(REFERENCE_WORK_S / sample time)

A program that gets 2x slower still reads 2x slower; a machine that gets 2x
slower reads the same.  `REFERENCE_WORK_S` is the median time of one unit of
reference work on a 2-vCPU 2.1 GHz Xeon virtual machine, Python 3.11.7, so
reference seconds are seconds of that machine.

Python runs the handler between bytecodes of the main thread, so the
program's state is untouched.  The handler takes about 2 % of the wall time;
`now()` leaves that time out, so no measurement includes it.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_WORK_S = 0.0013
SAMPLE_PERIOD_S = 0.05

_speeds: list[float] = []  # REFERENCE_WORK_S / sample time, in sampling order
_stolen = 0.0  # seconds spent in the sampler so far


def reference_work() -> int:
    """A fixed amount of work; the result only keeps it from being skipped."""
    seen: dict[tuple, int] = {}
    for i in range(2000):
        key = (i % 97, i % 89, i % 83)
        seen[key] = seen.get(key, 0) + 1
    x = Fraction(1, 3)
    for i in range(1, 60):
        x = x * Fraction(i + 1, i) + Fraction(1, i * i + 1)
    return len(seen) + x.numerator.bit_length()


def _sample(signum=None, frame=None) -> None:
    global _stolen
    t0 = perf_counter()
    reference_work()
    _speeds.append(REFERENCE_WORK_S / (perf_counter() - t0))
    _stolen += perf_counter() - t0


def now() -> float:
    """Wall seconds, less the time spent in the sampler."""
    while True:  # the sampler may run between the two reads
        stolen = _stolen
        t = perf_counter()
        if stolen == _stolen:
            return t - stolen


def start() -> None:
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def mark() -> int:
    """The current position in the samples, for `to_reference`."""
    return len(_speeds)


def to_reference(seconds: float, since: int, until: int | None = None) -> float:
    """`seconds` of `now()` time, measured between the marks `since` and
    `until` (by default: now), in seconds of the reference machine."""
    speeds = _speeds[since:until]
    if not speeds:  # an interval shorter than the sampling period
        _sample()
        speeds = _speeds[-1:]
    return seconds * statistics.fmean(speeds)


def samples() -> dict:
    """How the machine's speed was sampled so far, for the run record."""
    return {
        "count": len(_speeds),
        "median_s": REFERENCE_WORK_S / statistics.median(_speeds) if _speeds else None,
        "mean_speed": statistics.fmean(_speeds) if _speeds else None,
    }
