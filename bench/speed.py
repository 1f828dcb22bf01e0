"""Machine-speed normalization for timings taken on a shared host.

On a host shared with other tenants the same Python code runs up to
about 1.5x slower from one minute to the next. A fixed pure-Python
Fraction kernel, the same kind of work dualrisk does, is therefore timed
between operations (at most every EVERY_S seconds, about 4 % of the
loop). Each operation's latency is scaled by REFERENCE_S over the mean
of the kernel samples taken just before and just after it, so reported
times read as on a core where the kernel takes REFERENCE_S. That is
about the kernel's time on one uncontended core of a 2-vCPU x86-64 VM
under CPython 3.11, so normalized figures there are close to wall time.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.004
EVERY_S = 0.1


def kernel_seconds() -> float:
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    return perf_counter() - start


class SpeedTrack:
    """Kernel samples interleaved with a sequence of timed operations."""

    def __init__(self):
        self.samples: list[tuple[int, float]] = []  # (operations done before it, kernel seconds)
        self._next = 0.0

    def sample(self, ops_done: int, force: bool = False) -> None:
        if force or perf_counter() >= self._next:
            self.samples.append((ops_done, kernel_seconds()))
            self._next = perf_counter() + EVERY_S

    def factors(self, ops: int) -> list[float]:
        """Scale factor of each operation 0..ops-1 (samples must bracket them)."""
        out, k = [], 0
        for i in range(ops):
            while self.samples[k + 1][0] <= i:
                k += 1
            out.append(2 * REFERENCE_S / (self.samples[k][1] + self.samples[k + 1][1]))
        return out

    def median_kernel(self) -> float:
        ks = sorted(k for _, k in self.samples)
        return ks[len(ks) // 2]

