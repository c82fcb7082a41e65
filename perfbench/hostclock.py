"""Host CPU time scaled to a reference host speed.

Host speed on a shared VM drifts by up to +-25 % over seconds to minutes
(other tenants, frequency changes), and pure-Python work slows with it.
The benchmark therefore times a fixed, program-independent reference
kernel around and, driven by a CPU-time interval timer (``SIGPROF``),
inside measured work, and reports every host time as seconds on the
*reference host*::

    reported = measured CPU s * REFERENCE_KERNEL_S / mean(kernel samples)

where the samples are the ones taken around and during the same phase.
The kernel's own CPU time is excluded from every measured phase, and it
touches no program state.  Raw (unscaled) figures are printed beside
the result.
"""

from __future__ import annotations

import heapq
import signal
import statistics
from contextlib import contextmanager
from time import process_time

#: CPU seconds :func:`reference_kernel` takes at the reference host
#: speed: a 2-vCPU Intel Xeon VM with Python 3.11, where the benchmark
#: was defined (the kernel's lower-quartile time there).
REFERENCE_KERNEL_S = 0.033

#: Process CPU seconds between kernel samples inside a sampled block.
SAMPLE_EVERY_S = 0.5


def reference_kernel(n: int = 40_000) -> int:
    """Fixed pure-Python work shaped like an event kernel: a heap of
    tuples, dict counters and small allocations."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    counts: dict[int, int] = {}
    total = 0
    for i in range(n):
        push(heap, (i * 7919 % 4096, i, [i]))
        key = i & 1023
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 256:
            due, _, box = pop(heap)
            total += due + box[0]
    return total


class HostMeter:
    """A CPU clock that excludes its own reference-kernel samples."""

    def __init__(self) -> None:
        self.spent = 0.0
        self.samples: list[float] = []

    def clock(self) -> float:
        """Process CPU seconds, minus the time spent sampling."""
        return process_time() - self.spent

    def sample(self, times: int = 1) -> None:
        """Time ``times`` reference-kernel runs now."""
        for _ in range(times):
            start = process_time()
            reference_kernel()
            took = process_time() - start
            self.spent += took
            self.samples.append(took)

    @contextmanager
    def sampling(self):
        """Sample every :data:`SAMPLE_EVERY_S` of CPU time inside the block
        (from a ``SIGPROF`` handler; the kernel touches no program state)."""
        previous = signal.signal(signal.SIGPROF, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def reset(self) -> None:
        """Start a new scaling window (one measured phase)."""
        self.samples = []

    def scale(self) -> float:
        """Reference-host seconds per measured CPU second, this window."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples)
