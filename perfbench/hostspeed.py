"""Host speed: a fixed reference kernel timed between the phases of a round.

On a shared VM the whole machine speeds up and slows down by 15-45% over
tens of seconds, with no steal time to show for it: every phase of a
round moves together. The benchmark therefore times a fixed kernel
right before and right after each timed phase, and scales the phase's
wall time by ``(NOMINAL_S / kernel time) ** ELASTICITY``: the result
reads as seconds on a host running at the reference speed. The kernel is
independent of the program under test, so a change to the program moves
the scaled times exactly as it moves the raw ones.

The phases swing less than the kernel does. Regressing log phase time on
log kernel time over 3-second windows gave slopes of 0.6 to 0.9 (train
steps at the low end, the serving day at the high end). Over ten
40-second runs of each workload, an exponent of 0.7 gave the smallest
worst-case spread across runs of the scaled metrics (0.08, against 0.09
at 0.85 and 0.12 for a plain ratio, 1.0, which over-corrects the train
phase; 0.17 to 0.28 unscaled).

The kernel mixes what the simulator does: per-rank Python loops over
small numpy gathers, segment sums, GEMMs, ``np.unique`` and
``np.add.at`` scatters, plus a pure-Python event queue with dict and
heap traffic like the serving planner's.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import List

import numpy as np

# median kernel time on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11, numpy 2.4, one BLAS thread); scaled times read as seconds
# on that host
NOMINAL_S = 0.0040
ELASTICITY = 0.7             # phase slowdown per unit of kernel slowdown
REPS = 5                     # kernel runs per sample; the median is kept

_ROWS, _DIM, _RANKS, _BATCH, _POOL = 1 << 17, 16, 16, 64, 4
_EVENTS = 600


class HostSpeed:
    """Times the reference kernel; ``scale(before, after)`` turns a
    phase's wall time into reference-host seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.table = rng.standard_normal((_ROWS, _DIM)).astype(np.float32)
        self.ids = [rng.integers(0, _ROWS, _BATCH * _POOL)
                    for _ in range(_RANKS)]
        self.offsets = np.arange(0, _BATCH * _POOL, _POOL)
        self.w1 = (rng.standard_normal((_DIM, 32)) * 0.1).astype(np.float32)
        self.w2 = (rng.standard_normal((32, 16)) * 0.1).astype(np.float32)
        self.arrivals = np.cumsum(rng.exponential(1.0, _EVENTS)).tolist()
        self.samples: List[float] = []

    def _kernel(self) -> float:
        table = self.table.copy()
        outs, counts = [], {}
        for ids in self.ids:
            pooled = np.add.reduceat(table[ids], self.offsets, axis=0)
            h = np.maximum(pooled @ self.w1, 0.0)
            y = h @ self.w2
            grad_in = ((y @ self.w2.T) * (h > 0)) @ self.w1.T
            uniq, inv = np.unique(ids, return_inverse=True)
            grad = np.zeros((len(uniq), _DIM), np.float32)
            np.add.at(grad, inv, np.repeat(grad_in, _POOL, axis=0))
            table[uniq] -= 0.01 * grad
            for i in ids[:64].tolist():
                counts[i] = counts.get(i, 0) + 1
            outs.append(y)
        # a single-server queue: arrivals, a heap of completions, and a
        # dict of in-flight requests
        heap, inflight, free, done = [], {}, 0.0, 0
        for rid, t in enumerate(self.arrivals):
            while heap and heap[0][0] <= t:
                _, old = heapq.heappop(heap)
                done += inflight.pop(old)
            free = max(free, t) + 0.9
            inflight[rid] = rid % 7
            heapq.heappush(heap, (free, rid))
        return float(np.concatenate(outs).sum()) + len(counts) + done

    def sample(self) -> float:
        """Median kernel time over ``REPS`` runs; recorded and returned."""
        times = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - t0)
        s = statistics.median(times)
        self.samples.append(s)
        return s

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor from host seconds to reference-host seconds for a phase
        with kernel samples ``before`` and ``after`` it."""
        return (NOMINAL_S / (0.5 * (before + after))) ** ELASTICITY
