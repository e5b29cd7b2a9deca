"""Machine-speed probe: times measured on a drifting machine, scaled to a fixed speed.

The shared host this benchmark was written on changes speed by up to 1.8x
over tens of seconds (the same loop's CPU time moves with its wall time, so
it is not time stolen by other processes but a slower CPU).  Runs a few
minutes apart then differ by more than any change worth detecting.

A Probe interrupts the process every PERIOD_S seconds of wall time with
SIGALRM and times one round of a fixed pure-Python kernel (bit tricks,
small calls, list and dict work, like the package's searches).  The ratio
REF_S / round time is the machine's speed at that moment.  A span of
work is then reported as

    normalised = (raw time - time spent in the probe) * mean speed during the span

that is, in seconds on a machine on which one kernel round takes REF_S.
Program changes move the raw time and leave the kernel alone, so they show
in full; drift moves both, and cancels.  The kernel's code lives here, not
in the package, so no change to the package can alter it.
"""

from __future__ import annotations

import signal
from statistics import mean
from time import perf_counter

PERIOD_S = 0.025
REF_S = 0.001
ROUNDS = 40


def kernel(rounds: int = ROUNDS) -> int:
    acc = 0
    counts: dict[int, int] = {}
    for r in range(rounds):
        masks = [(i * 2654435761 + r) & 0xFFFF for i in range(24)]
        for m in masks:
            x = m
            c = 0
            while x:
                x &= x - 1
                c += 1
            counts[m & 63] = counts.get(m & 63, 0) + c
            acc ^= _mix(m, c)
    return acc + len(counts)


def _mix(a: int, b: int) -> int:
    return (a >> 1) ^ (b << 3)


class Probe:
    """Speed samples taken on a timer while the process works.

    mark() before a span of work and normalise(raw, mark) after it turn
    the span's raw wall time into normalised seconds.
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.spent = 0.0  # seconds inside the probe so far
        self._old = None

    def _sample(self, *_args) -> None:
        t0 = perf_counter()
        kernel()
        t = perf_counter() - t0
        self.speeds.append(REF_S / t)
        self.spent += perf_counter() - t0

    def start(self) -> None:
        kernel()  # let the interpreter specialise the kernel before it is timed
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old if self._old is not None else signal.SIG_DFL)

    def mark(self) -> tuple[int, float]:
        return len(self.speeds), self.spent

    def own(self, mark: tuple[int, float]) -> float:
        """Seconds spent in the probe since `mark`."""
        return self.spent - mark[1]

    def speed(self, mark: tuple[int, float]) -> float:
        """Mean speed since `mark`; one sample taken now if the timer has not fired since."""
        if len(self.speeds) == mark[0]:
            self._sample()
        return mean(self.speeds[mark[0]:])

    def normalise(self, raw: float, mark: tuple[int, float]) -> float:
        """`raw` wall seconds measured since `mark`, as seconds at the reference speed."""
        return (raw - self.own(mark)) * self.speed(mark)
