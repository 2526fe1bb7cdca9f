"""Host speed probe: a fixed pure-Python BDD build, timed all through a pass.

Other tenants of a shared host slow its processors in spells that last
from a second to minutes, and move a whole-pass time by a third from
run to run.  The probe builds the product of two symbolic
:data:`WIDTH`-bit numbers with a minimal BDD package of its own
(unique table, computed table, recursive ITE), which runs the same
kind of interpreted, dict- and tuple-heavy code as the program, so a
spell slows both alike.  While an untraced pass runs, an interval timer
takes a probe every :data:`INTERVAL_S` seconds, between cases and
inside them.  A case's time less the probes taken inside it, divided by
the median probe time within :data:`WINDOW_NS` of the case, is its time
in probe lengths (unit ``ref``); a slowdown that stretches both cancels
out, also when it starts or ends in the middle of a long case.

The probe shares no code with the program, so a change to the program
moves only the numerator.  Over ten 20-second runs per workload on a
2-vCPU Xeon VM, pass seconds spread 33-40% (the quartile distance over
the median); the summed case times in probe lengths spread 2-7%, where
a 30 ms probe taken only between cases left 9-10% on the workloads of
1-2.5 s cases, and a loop over one large dict 15% on ``short-mixed``.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

__all__ = ["SpeedProbe", "multiplier"]

#: Multiplier width; 678 nodes, about 2 ms on one core of a 2-vCPU
#: Xeon VM, so probing costs the program about 4%.
WIDTH = 4
#: Time between two probes.
INTERVAL_S = 0.05
#: Probes this close to a case measure the host speed during it, so
#: that a case shorter than :data:`INTERVAL_S` still has a few.
WINDOW_NS = 100_000_000


class _Bdd:
    """Just enough of a BDD package to build the probe's function.

    Node 0 is false and node 1 is true; a method, not a closure, does
    the recursion so that a probe leaves no reference cycles behind.
    """

    def __init__(self) -> None:
        leaf = 1 << 30
        self.nodes: List[Tuple[int, int, int]] = [(leaf, 0, 0), (leaf, 1, 1)]
        self.unique: Dict[Tuple[int, int, int], int] = {}
        self.computed: Dict[Tuple[int, int, int], int] = {}

    def var(self, index: int) -> int:
        return self.mk(index, 0, 1)

    def mk(self, var: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (var, low, high)
        node = self.unique.get(key)
        if node is None:
            node = len(self.nodes)
            self.nodes.append(key)
            self.unique[key] = node
        return node

    def ite(self, f: int, g: int, h: int) -> int:
        if f < 2:
            return g if f else h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (f, g, h)
        node = self.computed.get(key)
        if node is not None:
            return node
        nodes = self.nodes
        top = min(nodes[f][0], nodes[g][0], nodes[h][0])
        f0, f1 = nodes[f][1:] if nodes[f][0] == top else (f, f)
        g0, g1 = nodes[g][1:] if nodes[g][0] == top else (g, g)
        h0, h1 = nodes[h][1:] if nodes[h][0] == top else (h, h)
        node = self.mk(top, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        self.computed[key] = node
        return node


def multiplier(width: int) -> int:
    """Build every bit of ``x * y`` by shift-and-add.

    The variables interleave the bits of ``x`` and ``y``.  Returns the
    number of nodes the build made.
    """
    bdd = _Bdd()
    ite = bdd.ite
    xs = [bdd.var(2 * i) for i in range(width)]
    ys = [bdd.var(2 * i + 1) for i in range(width)]
    bits = [0] * (2 * width)
    for i in range(width):
        carry = 0
        for j in range(width):
            partial = ite(xs[i], ys[j], 0)
            total = bits[i + j]
            half = ite(total, ite(partial, 0, 1), partial)
            bits[i + j] = ite(half, ite(carry, 0, 1), carry)
            carry = ite(ite(total, partial, 0), 1, ite(carry, half, 0))
        bits[i + width] = ite(bits[i + width], ite(carry, 0, 1), carry)
    return len(bdd.nodes)


class SpeedProbe:
    """Probe start times, wall times and CPU times, in ns, in order."""

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.wall: List[int] = []
        self.cpu: List[int] = []
        self._busy = False

    def sample(self, _signum=None, _frame=None) -> None:
        """Take one probe; also the handler of the interval timer."""
        if self._busy:
            return
        self._busy = True
        cpu = time.process_time_ns()
        start = time.perf_counter_ns()
        multiplier(WIDTH)
        self.wall.append(time.perf_counter_ns() - start)
        self.cpu.append(time.process_time_ns() - cpu)
        self.starts.append(start)
        self._busy = False

    @contextmanager
    def running(self) -> Iterator[None]:
        """Probe every :data:`INTERVAL_S`, and once on entry and exit."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def inside(self, start: int, end: int) -> Tuple[int, int]:
        """Wall and CPU ns of the probes taken between ``start`` and ``end``.

        A probe runs in the main thread, so one that starts in the
        interval also ends in it.
        """
        low = bisect_left(self.starts, start)
        high = bisect_left(self.starts, end)
        return sum(self.wall[low:high]), sum(self.cpu[low:high])

    def speed(self, start: int, end: int) -> Tuple[float, float]:
        """Median wall and CPU ns of the probes near ``start``..``end``.

        These are the probes within :data:`WINDOW_NS` of the interval,
        and at least the last one before it and the first one after it.
        """
        low = bisect_left(self.starts, start - WINDOW_NS)
        low = max(0, min(low, bisect_left(self.starts, start) - 1))
        high = bisect_right(self.starts, end + WINDOW_NS)
        high = max(high, bisect_left(self.starts, end) + 1)
        return (statistics.median(self.wall[low:high]),
                statistics.median(self.cpu[low:high]))
