"""The machine's speed during a run, from a fixed reference computation.

On a shared machine the same Python code runs up to 1.7 times slower
while other tenants load the host, in spells that last from seconds to
minutes, so two runs of the same code can differ by more than any bound
worth setting.  The reference enumerates simple paths in a fixed small
graph with recursive generators, frozensets and tuples, the kind of code
treeconn's searches run, but shares no code with treeconn and never
changes.  (Breadth-first search over a large graph tracked the slowdowns
of the workloads less well.)  It is timed between operations, once per
`EVERY_S`, and each timing of the run is scaled to a machine on which
the reference takes `NOMINAL_S`, by the reference samples taken around
it.  It runs with the collector off, so the size of the program's heap
does not change its cost.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

NOMINAL_S = 0.002
EVERY_S = 0.2
WINDOW = 7

# 9 vertices; i ~ j unless 3 divides i*j + i + j.
_ADJ = [[j for j in range(9) if j != i and (i * j + i + j) % 3] for i in range(9)]
_WORK = 12_000


def _paths(x: int, seen: frozenset[int], path: list[int]):
    yield tuple(path)
    for y in _ADJ[x]:
        if y not in seen:
            path.append(y)
            yield from _paths(y, seen | {y}, path)
            path.pop()


def reference() -> int:
    """Simple paths from vertex 0, until their lengths sum past `_WORK`."""
    total = 0
    for p in _paths(0, frozenset({0}), [0]):
        total += len(p)
        if total > _WORK:
            break
    return total


class Gauge:
    """Times the reference between the timed pieces of work of a run."""

    def __init__(self):
        self.times: list[float] = []  # when each reference sample started
        self.samples: list[float] = []  # how long it took
        self.marks: list[float] = []  # when each timed piece of work started

    def mark(self, force: bool = False) -> None:
        """Samples the reference if one is due (or `force`), then notes
        that a timed piece of work starts now."""
        if force or not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            enabled = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter()
                reference()
                self.samples.append(time.perf_counter() - t0)
                self.times.append(t0)
            finally:
                if enabled:
                    gc.enable()
        self.marks.append(time.perf_counter())

    def scales(self) -> list[float]:
        """For each mark, the factor that turns its seconds into seconds
        of the nominal machine: from the median of the `WINDOW` reference
        samples nearest to it, so a slow spell is corrected where it
        happened."""
        out = []
        n = len(self.samples)
        for t in self.marks:
            i = bisect.bisect(self.times, t)
            lo = max(0, min(i - WINDOW // 2, n - WINDOW))
            out.append(NOMINAL_S / statistics.median(self.samples[lo : lo + WINDOW]))
        return out
