"""Host-speed calibration: timings in microseconds of a reference host.

The 2-CPU host this benchmark was written on runs the same pure-Python
loop at speeds that drift between 0.7x and 1.0x over tens of seconds,
and stays in a slow or a fast phase for minutes.  Every timed metric
moves with it, so two sets of runs of the same code can differ by more
than any useful regression bound, and a longer run does not help.

A :class:`HostClock` times a fixed reference kernel of this file,
interleaved with the measured work, and rescales each timing by
``REFERENCE_S / kernel time``: a timing made while the kernel ran 20%
slower than its reference time is reported 20% lower.  The kernel is
the benchmark's own code, so a change to the program cannot make it
faster or slower; a slower program still reads slower.

The kernel builds and drops small message-like records, as the program
does per hop, because the host's slow phases slow allocation most.
Over 1-second windows of a 120-second run this scale cut the variation
of engine searches from 12% to 5%, of node searches from 12% to 6% and
of numpy batch searches from 10% to 6%.  Kernels that only read, from a
small table or from a 6-150 MB one, moved half as much as the program
(a log-log slope of 1.3-2.5 against it) and left 8-9% of the variation.
"""

from __future__ import annotations

import gc
import statistics
import time

__all__ = ["HostClock", "REFERENCE_S", "kernel"]

#: The kernel's time on the reference host: its median sample on the
#: 2-CPU box the benchmark was written on, in a fast phase.
REFERENCE_S = 0.0015

#: Steps of the kernel: each builds one message-like record.
_STEPS = 2000


def kernel(steps: int = _STEPS) -> int:
    """The fixed reference work: build and drop *steps* small records.

    Per step it does what the program does per hop: it slices a bit
    string, builds a small dict and a tuple, and appends to a list.
    Returns a checksum so that nothing is skipped.
    """
    records = []
    for i in range(steps):
        path = format(i, "016b")
        records.append({"type": "QUERY", "key": path[: (i & 15) + 1],
                        "hops": (i, i + 1), "level": i & 7})
    return len(records) + len(records[-1]["key"])


class HostClock:
    """Samples of the reference kernel's time, and the scale they give."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.mark = 0

    def sample(self) -> float:
        """Time the kernel once (seconds), with the garbage collector off.

        A collection of the program's heap, when the kernel's allocations
        happen to trigger one, takes many times the kernel's own time.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            began = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - began
        finally:
            if enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def begin(self) -> None:
        """Start a span of work: sample, and scale only on later samples."""
        self.mark = len(self.samples)
        self.sample()

    def scale(self) -> float:
        """``REFERENCE_S`` over the median kernel time since :meth:`begin`.

        Multiply a time measured in the span by it (divide a rate).
        """
        return REFERENCE_S / statistics.median(self.samples[self.mark:])

    def local_scale(self) -> float:
        """``REFERENCE_S`` over the mean of the last two kernel times.

        Multiply a time measured between those two samples by it.  The
        samples are taken one at a time, right after the program's own
        work: back-to-back samples run warm and read faster.
        """
        return 2 * REFERENCE_S / (self.samples[-1] + self.samples[-2])

    def speed(self) -> float:
        """The run's median host speed against the reference (1.0 = as fast)."""
        return REFERENCE_S / statistics.median(self.samples)
