"""Machine-speed calibration: a fixed pure-Python kernel timed between runs.

The benchmark shares its machine with other work, and the speed the
interpreter gets drifts by tens of percent within seconds and between
minutes. The kernel does the kinds of work the simulator does (heap
events, closures, dict updates, slotted objects, distance checks, float
formatting) and never calls vanetsim, so a change to the program cannot
move it. Timed just before and just after a repetition, it measures the
machine's speed during that repetition.
"""

import heapq
import math
import time

# Kernel time on the machine where the benchmark was defined (2 cores,
# CPython 3.11) in its faster phases; it ranged from 0.085 to 0.23 s.
# Times scaled to it read as seconds on that machine at that speed.
REFERENCE_KERNEL_S = 0.100


class _Node:
    __slots__ = ("id", "x", "y", "heard")

    def __init__(self, node_id, x, y):
        self.id = node_id
        self.x = x
        self.y = y
        self.heard = {}


def kernel(rounds=40):
    """Broadcast rounds over a fixed 60-node layout; returns lines made."""
    nodes = [_Node(i, (i * 37) % 400 * 2.5, (i * 91) % 300 * 1.7)
             for i in range(60)]
    heap = []
    seq = 0
    lines = []

    def delivery(src, dst, t):
        def deliver():
            dst.heard[src.id] = dst.heard.get(src.id, 0) + 1
            lines.append(f"r {t:.7f} {src.id} {dst.id}")
        return deliver

    for r in range(rounds):
        for a in nodes:
            for b in nodes:
                if a is not b and math.dist((a.x, a.y), (b.x, b.y)) <= 250.0:
                    seq += 1
                    t = r + seq * 1e-7
                    heapq.heappush(heap, (t, seq, delivery(a, b, t)))
        while heap:
            heapq.heappop(heap)[2]()
    return len(lines)


def sample():
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
