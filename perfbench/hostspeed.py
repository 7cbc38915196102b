"""Timings at a reference host speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
a quarter and more over minutes, as neighbours come and go; a run of a
minute cannot average that out. So every timing the benchmark gates is
paired with runs of a fixed pure-Python kernel (:func:`reference_seconds`)
right beside it and rescaled to the speed at which that kernel takes
:data:`REFERENCE_S`: ``seconds * REFERENCE_S / reference``. Only the
benchmark's own code runs in the kernel, so a change to the program
moves the rescaled time as much as the raw one, while a slow spell of
the host moves both the timing and its reference. The raw timings stay
in the result file.

The kernel does not react to every kind of drift as a workload does:
on a 2-vCPU host, paper-suite's pass time moved about half as much as
the kernel's time (log-log slope 0.46-0.60), so there the rescaling
overshoots and a fast spell reads slower.
"""

from __future__ import annotations

import time

#: Loop iterations of the reference kernel: about 50 ms on a 2-vCPU
#: x86-64 host with Python 3.11.
REFERENCE_ITERATIONS = 120_000
#: The kernel's time at the reference host speed.
REFERENCE_S = 0.05


def reference_seconds() -> float:
    """Wall time of the reference kernel: dict updates, integer and float
    arithmetic and short-lived strings. Nothing its loop allocates is
    tracked by the garbage collector, so the program's heap does not
    change its cost."""
    table: dict[int, float] = {}
    total = 0
    start = time.perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        key = i & 1023
        table[key] = table.get(key, 0.0) + i * 0.5
        total += len(str(i))
    return time.perf_counter() - start


def at_reference_speed(seconds: float, reference: float) -> float:
    """``seconds`` measured while the kernel took ``reference`` seconds,
    rescaled to the reference host speed."""
    return seconds * REFERENCE_S / reference
