"""Host-speed reference for the benchmark's times.

On a shared host the CPU speed changes in regimes that last tens of
seconds (by up to 1.5x on a shared 2-vCPU x86-64 VM at 2.1 GHz), which
swamps any change in the program.  The benchmark therefore times a
fixed pure-Python kernel next to the work it measures and reports every
time scaled to the speed at which that kernel takes REFERENCE_S:

    reported_s = measured_s * REFERENCE_S / measured_reference_s

The kernel mixes a tight integer loop with the kind of work divgraph does
(Fraction arithmetic, tuple and string keys in a dict, a sort), because a
slow regime slows those two kinds of work by different amounts; scaled by
either half alone, one workload or another still moved with the host by up
to 15% over a few minutes, against 6-7% with the mix.
Raw wall-clock seconds are kept in the results file next to the scaled ones.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.010  # nominal duration of the kernel; fixes the scale of reported seconds


def reference_seconds() -> float:
    """Wall time of one run of the fixed reference kernel."""
    start = perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    total = Fraction(0)
    groups: dict = {}
    for i in range(1, 1250):
        total += Fraction(i % 7, i % 5 + 1)
        key = (str(i % 97), i % 13)
        groups[key] = groups.get(key, ()) + (i,)
    sorted(groups, key=lambda k: k[0])
    return perf_counter() - start
