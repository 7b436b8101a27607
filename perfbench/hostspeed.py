"""Gauge the host's current speed with a fixed reference loop.

The machine this benchmark was written on is a shared VM whose speed drifts
by 10-25 % over tens of seconds, with load from outside it. A timing taken
there says as much about the neighbours as about ringcheck. So the benchmark
times a fixed pure-Python loop, in the same process and on the same CPU,
between the operations it measures, and scales every timing to the loop's
nominal speed:

    scaled seconds = measured seconds * NOMINAL_S / median(reference passes)

The loop does the kind of work a search step does (clone small objects,
build canonical tuples, marshal, blake2b, a set insert) but calls nothing in
ringcheck, so a change to the program cannot move it.
"""

from __future__ import annotations

import hashlib
import marshal
import statistics
import time

# Median seconds of one pass on the machine the benchmark was written on
# (2-core 2.1 GHz Xeon VM, Python 3). Scaled timings read as seconds there.
NOMINAL_S = 0.025

_STEPS = 1200
_CELLS = 8


class _Cell:
    __slots__ = ("pid", "peers", "queue")

    def __init__(self, pid: int, peers: dict, queue: list):
        self.pid = pid
        self.peers = peers
        self.queue = queue

    def clone(self) -> _Cell:
        return _Cell(self.pid, dict(self.peers), list(self.queue))

    def canon(self) -> tuple:
        return (self.pid, tuple(sorted(self.peers.items())), tuple(self.queue))


def reference_pass() -> float:
    """Seconds one pass of the reference loop takes now."""
    cells = [_Cell(i, {i: i + 1, i + 1: i}, [i, "msg"]) for i in range(_CELLS)]
    seen = set()
    t0 = time.perf_counter()
    for step in range(_STEPS):
        cells = [c.clone() for c in cells]
        cell = cells[step % _CELLS]
        cell.queue.append(step)
        if len(cell.queue) > 4:
            cell.queue.pop(0)
        cell.peers[step % 5] = step
        key = tuple(c.canon() for c in cells)
        seen.add(hashlib.blake2b(marshal.dumps(key), digest_size=16).digest())
    return time.perf_counter() - t0


def scale(passes: list[float]) -> float:
    """Factor that turns seconds measured alongside these passes into nominal seconds."""
    return NOMINAL_S / statistics.median(passes)
