"""A fixed reference loop that measures how fast the host core runs now.

On a shared host the speed of a core changes with the load of other
tenants. On the 2-vCPU virtual machine this benchmark was written on, the
same `bap-compare` UpfReroute run took 0.35 s in one second and 0.53 s in
the next, with no CPU steal and CPU time equal to wall time; a slow or fast
spell lasts from under a second to minutes. The median of a 40 s run moved
by up to 30 % from one run to the next.

So the plain run times this reference before each `iabsim run` it
measures, between its `Simulator.run` and its export, and after it (and the
set-ups or replays that follow it). Each time is scaled by NOMINAL_S / (mean
of the two reference times around it). The figures it reports are seconds
at the reference speed: host seconds when the reference takes NOMINAL_S,
about what it takes on a lightly loaded core of that machine. The reference
belongs to the benchmark, not to the program, so a change to the program
moves the program's times and not the reference's.

The reference is a plain integer loop. A slow spell slowed it by about the
same factor as the simulator (1.35-1.4x), while a loop of dataclass events,
heap and dict operations slowed by 1.7x and random reads over a 4 MiB table
by 1.8x, so those over-corrected. Over two sets of ten 40 s runs of each
workload on that machine, scaling cut the spread (interquartile range /
median of the run figures) of run_s from 0.08-0.16 in host seconds to
0.04-0.09, and that of export_s from 0.11-0.23 to 0.05-0.13 (NOTES.md).
"""
from __future__ import annotations

import time

NOMINAL_S = 0.01


def reference() -> int:
    """About 8-12 ms of fixed interpreter work on the machine described above."""
    s = 0
    for i in range(100_000):
        s += i * i % 7
    return s


class HostSpeed:
    """Times of the reference taken during one run."""

    def __init__(self):
        reference()  # untimed warm-up
        self.samples: list[float] = []

    def sample(self) -> float:
        """The median of three reference times, which drops a single outlier
        (a reference interrupted by the host takes twice as long)."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference()
            times.append(time.perf_counter() - t0)
        self.samples.append(sorted(times)[1])
        return self.samples[-1]
